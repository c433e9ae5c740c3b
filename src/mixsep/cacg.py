"""Complex Angular Central Gaussian distribution and the spatial mixture model.

The cACGMM models unit-normalized multichannel STFT bins with one spatial
covariance per component and frequency, tied together by time-varying but
frequency-independent priors. Covariance updates follow the Tyler fixed
point, one application per EM iteration. The EM that runs them is
:func:`integrated.joint_em`; with ``kappa_max = 0`` its vMF term is flat,
and without fusion it fits the cACGMM alone.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalError
from .numerics import chol_with_loading, normalize_logits
# not called here: kept as cacg.update_pi, the name under which the
# benchmark's tracer (perfbench/tracing.py) times the prior update
from .numerics import update_pi  # noqa: F401

logger = logging.getLogger(__name__)

COV_LOADING = 1e-10
# Below this per-bin total of the linear-domain E-step, its smaller terms
# would be subnormal, so such bins are evaluated in the log domain instead.
LINEAR_TOTAL_FLOOR = 1e-280
# Frequencies per block of the feature build, cacg_m_step and the beamformer's
# scatter: only one block's (K, F, T) temporaries exist at a time.
BLOCK_BINS = 32
# Bytes of one block's working set in an EM sweep (:func:`em_sweep`): its
# forms, posterior columns and feature rows, 8 (2K + C^2) T bytes per bin,
# stay within 1.5 MiB, under a 2 MiB per-core L2 cache, so that the block's
# elementwise passes and GEMMs reuse them from there.
SWEEP_BLOCK_BYTES = 3 << 19


@dataclass(frozen=True)
class StftTensor:
    """Complex multichannel time-frequency observations, shape (C, T, F)."""

    data: np.ndarray
    sample_rate: int
    stft_size: int
    window_size: int
    shift: int

    def __post_init__(self):
        data = np.asarray(self.data, dtype=complex)
        if data.ndim != 3:
            raise InvalidInputError("STFT data must have shape (C, T, F)")
        if data.shape[0] < 2:
            raise InvalidInputError("multichannel model requires C >= 2")
        if not np.all(np.isfinite(data)):
            raise InvalidInputError("STFT data must be free of NaN/Inf")
        object.__setattr__(self, "data", data)

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_frames(self) -> int:
        return self.data.shape[1]

    @property
    def num_bins(self) -> int:
        return self.data.shape[2]

    @property
    def frame_rate(self) -> float:
        return self.sample_rate / self.shift


def check_posterior(gamma: np.ndarray):
    """Raise unless the (K, T, F) posterior ``gamma`` has entries in [0, 1]
    that sum to 1 over components, to 1e-9.

    A broadcast (stride-0) time or frequency axis, such as that of an
    initial posterior replicated over frequency, holds one plane, which is
    checked once.
    """
    tol = 1e-9
    gamma = gamma[(slice(None),) + tuple(slice(None) if s else slice(1) for s in gamma.strides[1:])]
    if np.any(gamma < -tol) or np.any(gamma > 1.0 + tol):
        raise InvalidInputError("gamma entries must lie in [0, 1]")
    if not np.allclose(gamma.sum(axis=0), 1.0, atol=tol):
        raise InvalidInputError("gamma must sum to 1 over components")


def _unit_rows(y: np.ndarray) -> np.ndarray:
    """An (F, C, T) complex array with every channel vector scaled to unit
    norm, all-zero ones replaced by the first canonical basis vector."""
    norms = np.linalg.norm(y, axis=1)  # (F, T)
    zero = norms == 0.0
    out = np.divide(y, np.where(zero, 1.0, norms)[:, None, :], order="C")
    if zero.any():
        out[:, 0][zero] = 1.0
    return out


def normalize_observations(x: StftTensor) -> StftTensor:
    """Scale every channel vector y_{t,f} to unit norm.

    All-zero bins are replaced by the first canonical basis vector. The data
    are stored frequency-major, so their (F, C, T) transpose is contiguous.
    """
    data = _unit_rows(np.transpose(x.data, (2, 0, 1)))
    return StftTensor(
        np.transpose(data, (1, 2, 0)), x.sample_rate, x.stft_size, x.window_size, x.shift
    )


def frequency_blocks(num_bins: int, max_bins: int = BLOCK_BINS) -> list[slice]:
    """The fewest near-equal slices of at most ``max_bins`` frequencies
    that cover ``num_bins``; they depend on the two counts alone."""
    count = max(1, -(-num_bins // max_bins))
    return [slice(i * num_bins // count, (i + 1) * num_bins // count) for i in range(count)]


def _sweep_blocks(k: int, c: int, t: int, num_bins: int) -> list[slice]:
    """The :func:`frequency_blocks` of an EM sweep (:func:`em_sweep`) of K
    components over C channels and T frames: as wide as keeps a block's
    working set, 8 (2K + C^2) T bytes per bin, within ``SWEEP_BLOCK_BYTES``,
    and at least one bin."""
    return frequency_blocks(num_bins, max(1, SWEEP_BLOCK_BYTES // (8 * (2 * k + c * c) * t)))


def outer_features(x: StftTensor) -> np.ndarray:
    """Real outer-product features of the unit-normalized observations,
    shape (F, C^2, T).

    Rows ``0..C-1`` hold ``|y_i|^2``; the next ``P = C (C-1) / 2`` rows hold
    ``Re(conj(y_i) y_j)`` and the last ``P`` rows ``Im(conj(y_i) y_j)``, for
    the pairs ``i < j`` in row-major order, of the channel vectors ``y`` of
    :func:`normalize_observations` of ``x``, to the bit. Both cACG kernels
    are linear in ``y y^H``, so each is one real batched GEMM on these rows
    (:func:`_forms`, :func:`scatter_matrices`). They take C/2 times the
    memory of the complex observations: 2x at C = 4, 3.5x at C = 7. They
    are built one block of frequencies at a time (:func:`frequency_blocks`)
    from slices of ``x``, so that no normalized copy of ``x`` exists.
    """
    y = np.transpose(x.data, (2, 0, 1))
    out = np.empty((x.num_bins, x.num_channels**2, x.num_frames))
    for block in frequency_blocks(x.num_bins):
        _outer_rows(_unit_rows(y[block]), out[block])
    return out


@functools.lru_cache(maxsize=None)
def _upper_pairs(c: int):
    """Read-only row and column indices of the C x C upper triangle, i < j."""
    pairs = np.triu_indices(c, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _outer_rows(y: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The :func:`outer_features` rows of an (F, C, T) complex array as it
    is, not normalized or validated, written into ``out`` when it is given."""
    c = y.shape[1]
    rows, cols = _upper_pairs(c)
    if out is None:
        out = np.empty((y.shape[0], c * c, y.shape[2]))
    out[:, :c] = y.real**2 + y.imag**2
    for n, (i, j) in enumerate(zip(rows, cols)):
        prod = np.conj(y[:, i]) * y[:, j]
        out[:, c + n] = prod.real
        out[:, c + rows.size + n] = prod.imag
    return out


def _form_coefficients(covariances: np.ndarray, unit_det: bool = False):
    """Log-determinants and GEMM coefficients of the forms ``y^H B^{-1} y``.

    Each (K, F, C, C) covariance is factorized once with the loading ladder
    of :func:`chol_with_loading`, and its inverse ``L^{-H} L^{-1}`` becomes
    the coefficients ``[diag B^{-1}, 2 Re B^{-1}_ij, -2 Im B^{-1}_ij]`` of
    the :func:`outer_features` rows. With ``unit_det`` they are scaled by
    ``det(B)^{1/C}``: the coefficients of the unit-determinant
    ``B / det(B)^{1/C}``. After the factorization every step works entry
    by entry on (F, K) arrays: at C <= 8 a few dozen whole-array
    operations cost less than a batched C x C product or inverse, whose
    cost is a call per matrix.

    Returns:
        ``(logdet, coef)`` of shapes (K, F) and (F, K, C^2); ``logdet`` is
        that of ``B`` either way.
    """
    lower = chol_with_loading(covariances)
    diag = np.einsum("...ii->...i", lower).real
    logdet = 2.0 * np.log(diag).sum(axis=-1)
    c = lower.shape[-1]
    # L^{-1} = M by forward substitution, entry by entry over (F, K) arrays:
    # M_ii = 1 / L_ii and M_ij = -(sum_{j <= n < i} L_in M_nj) / L_ii
    lower = np.swapaxes(lower, 0, 1)
    recip = np.swapaxes(1.0 / diag, 0, 1)
    m = [[None] * c for _ in range(c)]
    for i in range(c):
        m[i][i] = recip[..., i]
        for j in range(i):
            acc = lower[..., i, j] * m[j][j]
            for n in range(j + 1, i):
                acc += lower[..., i, n] * m[n][j]
            acc *= -recip[..., i]
            m[i][j] = acc
    # B^{-1} = M^H M: (B^{-1})_ab = sum_{i >= max(a, b)} conj(M_ia) M_ib
    rows, cols = _upper_pairs(c)
    p = rows.size
    coef = np.empty(lower.shape[:2] + (c * c,))
    for a in range(c):
        out = coef[..., a]
        np.multiply(m[a][a], m[a][a], out=out)
        for i in range(a + 1, c):
            out += m[i][a].real ** 2 + m[i][a].imag ** 2
    for n, (a, b) in enumerate(zip(rows, cols)):
        acc = np.conj(m[b][a]) * m[b][b]
        for i in range(b + 1, c):
            acc += np.conj(m[i][a]) * m[i][b]
        np.multiply(acc.real, 2.0, out=coef[..., c + n])
        np.multiply(acc.imag, -2.0, out=coef[..., c + p + n])
    if unit_det:
        coef *= np.exp(logdet / c).T[:, :, None]
    return logdet, coef


def _forms(coef: np.ndarray, features: np.ndarray, out: np.ndarray | None = None):
    """(K, F, T) quadratic forms of :func:`_form_coefficients` on features:
    one real (F, K, C^2) @ (F, C^2, T) GEMM, into ``out`` when given.

    Raises:
        NumericalError: a quadratic form is not positive.
    """
    if out is None:
        out = np.empty((coef.shape[1], features.shape[0], features.shape[-1]))
    np.matmul(coef, features, out=out.swapaxes(0, 1))
    if out.size and out.min() <= 0.0:
        raise NumericalError("nonpositive quadratic form in batched cACG density")
    return out


def cacg_log_pdf_stack(covariances: np.ndarray, x: StftTensor, features: np.ndarray):
    """Log densities for a (K, F, C, C) covariance stack.

    ``ln (C-1)! - ln 2 - C ln pi - ln det(B) - C ln(y^H B^{-1} y)`` for every
    component, frequency and frame.

    Args:
        covariances: (K, F, C, C) stack.
        x: the observations; only their channel count C is read.
        features: the :func:`outer_features` of the unit-normalized
            observations.

    Returns:
        ``(log_pdf, quad)``: the (K, F, T) log densities, frequency-major,
        and the (K, F, T) quadratic forms ``y^H B^{-1} y`` behind them, which
        the Tyler update of these covariances (:func:`cacg_m_step`) takes as
        ``quad``.
    """
    c = x.num_channels
    logdet, coef = _form_coefficients(covariances)
    quad = _forms(coef, features)
    log_pdf = np.log(quad)
    log_pdf *= -c
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    log_pdf += (const - logdet)[:, :, None]
    return log_pdf, quad


def _scatter_sums(features: np.ndarray, weights: np.ndarray, out: np.ndarray | None = None):
    """(F, K, C^2) packed real scatter sums ``sum_t w_{k,f,t} phi_{f,t}``: one
    real (F, K, T) @ (F, T, C^2) GEMM of the (K, F, T) weights against the
    :func:`outer_features` rows ``phi``, into ``out`` when given."""
    return np.matmul(weights.swapaxes(0, 1), features.swapaxes(1, 2), out=out)


def _hermitian(sums: np.ndarray) -> np.ndarray:
    """Exactly Hermitian (..., C, C) matrices of (..., C^2) packed real sums."""
    c = math.isqrt(sums.shape[-1])
    rows, cols = _upper_pairs(c)
    p = rows.size
    out = np.empty(sums.shape[:-1] + (c, c), dtype=complex)
    diag = np.arange(c)
    out[..., diag, diag] = sums[..., :c]
    upper = sums[..., c : c + p] - 1j * sums[..., c + p :]
    out[..., rows, cols] = upper
    out[..., cols, rows] = np.conj(upper)
    return out


def scatter_matrices(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, F, C, C) weighted scatter sums ``sum_t w_{k,f,t} y_{f,t} y_{f,t}^H``.

    One real (F, K, T) @ (F, T, C^2) GEMM of the (K, F, T) weights against
    the :func:`outer_features` of the observations ``y``, unpacked into
    exactly Hermitian matrices.
    """
    return _hermitian(np.swapaxes(_scatter_sums(features, weights), 0, 1))


def _tyler(sums: np.ndarray, prev: np.ndarray) -> np.ndarray:
    """The (K, F, C, C) covariances of a Tyler update (:func:`cacg_m_step`)
    from its (K, F, C^2) packed scatter sums (:func:`_scatter_sums`) and the
    previous stack ``prev``: loaded and trace-normalized in place, as
    :func:`numerics._load_stack` loads, then unpacked, with ``prev`` kept
    where the sums are zero."""
    c = prev.shape[-1]
    diag = sums[..., :c]
    trace = diag.sum(axis=-1)
    inactive = trace == 0.0
    trace /= c
    diag += (COV_LOADING * np.where(trace > 0.0, trace, 1.0))[..., None]
    sums *= (c / diag.sum(axis=-1))[..., None]
    new = _hermitian(sums)
    if inactive.any():
        new[inactive] = prev[inactive]
    return new


def cacg_m_step(
    gamma: np.ndarray,
    prev: np.ndarray,
    quad: np.ndarray | float,
    features: np.ndarray,
) -> np.ndarray:
    """One Tyler fixed-point update of a (K, F, C, C) covariance stack.

    ``B_{k,f} ~ sum_t gamma ~y ~y^H / (~y^H B_prev^{-1} ~y)``, diagonally
    loaded and trace-normalized to C. The normalization cancels every
    factor constant over t, so neither the responsibility mass
    ``sum_t gamma`` nor a per-(k, f) scale of ``quad`` enters the update.
    Frequencies with zero responsibility keep the previous covariance: for
    unit observations the trace of the weighted scatter is
    ``sum_t gamma / quad``, so it is zero exactly there. Each block of
    :func:`frequency_blocks` writes its weights ``gamma / quad`` into one
    scratch buffer and its scatter sums with one GEMM. The EM runs it first
    from identity covariances, then the same update inside its sweep
    (:func:`em_sweep`), weighted by the reciprocal forms of its E-step.

    Args:
        gamma: (K, T, F) responsibilities of the E-step.
        prev: the (K, F, C, C) previous covariances ``B_prev``.
        quad: (K, F, T) quadratic forms ``~y^H B_prev^{-1} ~y`` of the
            previous covariances, or any per-(k, f) multiple of them, such
            as the unit-determinant forms of the EM's sweep
            (:func:`_form_coefficients` with ``unit_det``), left as they
            are; or the scalar 1 when every ``B_prev`` is the identity
            (``|~y|^2 = 1`` for unit observations), so that no form is
            computed.
        features: the :func:`outer_features` of the unit-normalized
            observations.
    """
    gamma = np.transpose(gamma, (0, 2, 1))  # (K, F, T)
    k, f, t = gamma.shape
    sums = np.empty((f, k, features.shape[1]))
    blocks = frequency_blocks(f)
    scratch = _block_scratch(k, blocks, t)
    quad = np.broadcast_to(quad, gamma.shape)
    for block in blocks:
        weights = scratch(block)
        np.divide(gamma[:, block], quad[:, block], out=weights)
        _scatter_sums(features[block], weights, out=sums[block])
    return _tyler(np.swapaxes(sums, 0, 1), prev)


def _block_scratch(k: int, blocks: list[slice], t: int):
    """One buffer for a (K, block, T) array of any of ``blocks``:
    ``scratch(block)`` is a contiguous view of its leading part."""
    size = max(b.stop - b.start for b in blocks)
    buffer = np.empty(k * size * t)
    return lambda block: buffer[: k * (block.stop - block.start) * t].reshape(k, -1, t)


def em_sweep(
    covariances: np.ndarray,
    logits: np.ndarray,
    features: np.ndarray,
    out: np.ndarray | None = None,
    merge: tuple | None = None,
    update: bool = True,
):
    """One EM iteration of the spatial mixture, swept over blocks of frequencies.

    The E-step is ``gamma ~ pi * p_cACG(y) * exp(log_spectral)``, normalized
    per bin, from the (K, T) ``logits = ln pi + log_spectral``: a zero
    spectral term gives the plain cACGMM, and the joint model passes its vMF
    log densities. Given the frequency-tied prior every bin is independent
    (Ito, Araki & Nakatani 2016), so once every covariance is factorized
    (:func:`_form_coefficients`) each block of :func:`frequency_blocks`
    runs alone, and only (K, T) arrays cross blocks. A block is as wide as
    its working set allows (:func:`_sweep_blocks`): its (K, F_b, T) forms,
    which become its Tyler weights, its (K, F_b, T) posterior columns and
    its (F_b, C^2, T) feature rows, 8 (2K + C^2) T bytes per bin, stay
    within ``SWEEP_BLOCK_BYTES``, or the block is one bin. That is 7 bins at
    K = 6, C = 4 and T = 1000, and at the paper's C = 4 and T = 2786 (a
    45 s segment) one bin at K = 11 and two at K = 4. Each block:

    - One GEMM gives its unit-determinant forms ``q~ = y^H B~^{-1} y``,
      ``B~ = B / det(B)^{1/C}``, and one division turns them into
      ``r = 1 / q~`` in place. The cACG density does not change when B is
      scaled, so it is ``const * r^C``, and the posterior needs no
      logarithm or exponential over the block: the factor
      ``S = exp(b - max_k b)``, ``b = logits``, is formed once per sweep
      on (K, T), and ``gamma = S r^C / sum_k S r^C`` takes a square per bit
      of C below its leading one and a product with ``r`` per further set
      bit, a product with S, a sum, and a product with the (F_b, T)
      reciprocal of that sum. It is written into the block's columns of the
      one posterior buffer.
    - Frequencies with a bin whose total is not finite or falls below
      ``LINEAR_TOTAL_FLOOR`` are evaluated in the log domain instead, from
      the same ``r``: their log densities ``const + C ln r`` plus the
      logits are normalized by :func:`numerics.normalize_logits`. Every
      ``ln r`` is finite, since a Tyler-loaded, trace-normalized covariance
      has eigenvalues in about [1e-10, C]: their geometric mean
      ``det(B)^{1/C}`` lies in [1e-10, 1], so ``r`` lies in [1e-10, C 1e10].
      One warning per call counts those bins.
    - With ``merge = (keep, remove, fused)`` component ``remove``'s
      posterior is added to ``keep``'s and its row dropped, in place: the
      only place a fusion is applied. ``fused`` is the (K-1, F, C, C)
      stack after the fusion (:func:`integrated.fused_covariances`), whose
      row at ``keep``'s index after the removal is the fused covariance,
      and ``r`` that row's reciprocal forms.
    - The Tyler update (:func:`cacg_m_step`) is weighted by
      ``gamma / q~ = gamma r``, written over ``r``, and one GEMM per block
      writes the packed real scatter sums (:func:`_scatter_sums`) of the
      block's frequencies. Their unpacking, loading and trace
      normalization (:func:`_tyler`) run once, after the last block.

    Every step is per frequency, so the results do not depend on the
    blocks, to the bit; only ``loglik`` is summed in another order.

    Args:
        covariances: (K, F, C, C) covariances of the E-step.
        logits: (K, T) prior and spectral log factors.
        features: the (F, C^2, T) :func:`outer_features` of the
            observations; C is read off their rows.
        out: a spent (K, F, T) float64 buffer for the posterior, such as
            the previous posterior's; a new one is allocated when not given.
        merge: the fusion to apply after the E-step, or None.
        update: whether to run the Tyler update.

    Returns:
        ``(gamma, loglik, new)``: the (K', T, F) posterior (a transposed
        view of the leading rows of the frequency-major buffer), the summed
        per-bin log normalizers, and the (K', F, C, C) updated covariances
        (None without ``update``).

    Raises:
        InvalidInputError: NaN in the logits.
    """
    c = math.isqrt(features.shape[1])
    shift = logits.max(axis=0)
    if np.isnan(shift).any():
        raise InvalidInputError("NaN in mixture logits")
    shift[~np.isfinite(shift)] = 0.0
    k, f = covariances.shape[:2]
    t = features.shape[-1]
    _, coef = _form_coefficients(covariances, unit_det=True)
    prev = covariances
    if merge is not None:
        keep, remove, prev = merge
        kept = keep if keep < remove else keep - 1
        if update:
            kept_coef = _form_coefficients(prev[kept : kept + 1])[1]
    rows = prev.shape[0]
    gamma = np.empty((k, f, t)) if out is None else out
    sums = np.empty((f, rows, c * c)) if update else None
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    per_frequency = float(shift.sum()) + t * const  # the log normalizers' other terms
    loglik, rescued = 0.0, 0
    blocks = _sweep_blocks(k, c, t, f)
    scratch = _block_scratch(k, blocks, t)
    bits = bin(c)[3:]  # the bits of C below its leading one
    spectral = np.exp(logits - shift)[:, None, :]
    with np.errstate(over="ignore", invalid="ignore"):
        for block in blocks:
            phi = features[block]
            r = _forms(coef[block], phi, scratch(block))
            g = gamma[:, block]
            np.divide(1.0, r, out=r)
            power = r
            for bit in bits:
                np.square(power, out=g)
                power = g
                if bit == "1":
                    g *= r
            g *= spectral
            total = g.sum(axis=0)  # (Fb, T)
            # a NaN total fails both tests
            if total.min() >= LINEAR_TOTAL_FLOOR and total.max() < np.inf:
                loglik += float(np.log(total).sum()) + total.shape[0] * per_frequency
                g *= np.divide(1.0, total, out=total)
            else:
                linear = (total >= LINEAR_TOTAL_FLOOR) & (total < np.inf)
                rescued += total.size - np.count_nonzero(linear)
                ok = linear.all(axis=1)
                loglik += float(np.log(total[ok]).sum()) + np.count_nonzero(ok) * per_frequency
                g[:, ok] *= 1.0 / total[ok]
                log_pdf = c * np.log(r[:, ~ok]) + const + logits[:, None, :]
                g[:, ~ok], rescued_ll = normalize_logits(log_pdf)
                loglik += rescued_ll
            if merge is not None:
                g[keep] += g[remove]
                g[remove : k - 1] = g[remove + 1 :]
                if update:
                    r[remove : k - 1] = r[remove + 1 :]
                    _forms(kept_coef[block], phi, r[kept : kept + 1])
                    np.divide(1.0, r[kept], out=r[kept])
            if update:
                np.multiply(g[:rows], r[:rows], out=r[:rows])  # the Tyler weights
                _scatter_sums(phi, r[:rows], out=sums[block])
    del scratch, r  # the block buffer goes before the Tyler tail allocates
    if rescued:
        logger.warning(
            "cACG E-step: %d of %d bins out of the linear range; "
            "their frequencies evaluated in the log domain",
            rescued,
            f * t,
        )
    new = _tyler(np.swapaxes(sums, 0, 1), prev) if update else None
    return np.transpose(gamma[:rows], (0, 2, 1)), loglik, new
