"""Complex Angular Central Gaussian distribution and the spatial mixture model.

The cACGMM models unit-normalized multichannel STFT bins with one spatial
covariance per component and frequency, tied together by time-varying but
frequency-independent priors. Covariance updates follow the Tyler fixed
point, one application per EM iteration.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericalError
from .numerics import _load_stack, _tril_inverse, chol_with_loading, normalize_logits

logger = logging.getLogger(__name__)

PRIOR_FLOOR = 1e-10
COV_LOADING = 1e-10
# Below this per-bin total of the linear-domain E-step, its smaller terms
# would be subnormal, so such bins are evaluated in the log domain instead.
LINEAR_TOTAL_FLOOR = 1e-280


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


@dataclass
class SpatialComponent:
    """Per-source spatial covariances, one Hermitian PD matrix per frequency."""

    covariances: np.ndarray  # (F, C, C)

    def __post_init__(self):
        cov = np.asarray(self.covariances, dtype=complex)
        if cov.ndim != 3 or cov.shape[1] != cov.shape[2]:
            raise InvalidInputError("covariances must have shape (F, C, C)")
        self.covariances = (cov + np.conj(np.swapaxes(cov, -1, -2))) / 2.0

    @property
    def num_bins(self) -> int:
        return self.covariances.shape[0]

    @classmethod
    def identity(cls, num_bins: int, dim: int) -> "SpatialComponent":
        return cls(np.broadcast_to(np.eye(dim, dtype=complex), (num_bins, dim, dim)).copy())


@dataclass
class PosteriorTensor:
    """Class posteriors gamma (K, T, F) and frequency-tied priors pi (K, T)."""

    gamma: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        self.gamma = np.asarray(self.gamma, dtype=float)
        self.pi = np.asarray(self.pi, dtype=float)
        if self.gamma.ndim != 3 or self.pi.ndim != 2:
            raise InvalidInputError("gamma must be (K, T, F) and pi (K, T)")
        if self.gamma.shape[:2] != self.pi.shape:
            raise InvalidInputError("gamma and pi disagree on (K, T)")

    @property
    def num_components(self) -> int:
        return self.gamma.shape[0]

    @property
    def num_frames(self) -> int:
        return self.gamma.shape[1]

    @property
    def num_bins(self) -> int:
        return self.gamma.shape[2]

    def validate(self, tol: float = 1e-9):
        """Check normalization invariants; raises on violation."""
        if np.any(self.gamma < -tol) or np.any(self.gamma > 1.0 + tol):
            raise InvalidInputError("gamma entries must lie in [0, 1]")
        if not np.allclose(self.gamma.sum(axis=0), 1.0, atol=tol):
            raise InvalidInputError("gamma must sum to 1 over components")
        if not np.allclose(self.pi.sum(axis=0), 1.0, atol=tol):
            raise InvalidInputError("pi columns must sum to 1")


def normalize_observations(x: StftTensor) -> StftTensor:
    """Scale every channel vector y_{t,f} to unit norm.

    All-zero bins are replaced by the first canonical basis vector. The data
    are stored frequency-major, so their (F, C, T) transpose, which
    :func:`outer_features` reads, is contiguous.
    """
    norms = np.linalg.norm(x.data, axis=0)  # (T, F)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    data = np.divide(np.transpose(x.data, (2, 0, 1)), safe.T[:, None, :], order="C")
    if zero.any():
        data[:, 0][zero.T] = 1.0
    return StftTensor(
        np.transpose(data, (1, 2, 0)), x.sample_rate, x.stft_size, x.window_size, x.shift
    )


def outer_features(x: StftTensor) -> np.ndarray:
    """Real outer-product features of the observations, shape (F, C^2, T).

    Rows ``0..C-1`` hold ``|y_i|^2``; the next ``P = C (C-1) / 2`` rows hold
    ``Re(conj(y_i) y_j)`` and the last ``P`` rows ``Im(conj(y_i) y_j)``, for
    the pairs ``i < j`` in row-major order. Both cACG kernels are linear in
    ``y y^H``, so each is one real batched GEMM on these rows
    (:func:`quad_forms`, :func:`scatter_matrices`). They take C/2 times the
    memory of the complex observations: 2x at C = 4, 3.5x at C = 7.
    """
    return _outer_rows(np.transpose(x.data, (2, 0, 1)))


@functools.lru_cache(maxsize=None)
def _upper_pairs(c: int):
    """Read-only row and column indices of the C x C upper triangle, i < j."""
    pairs = np.triu_indices(c, 1)
    for index in pairs:
        index.flags.writeable = False
    return pairs


def _outer_rows(y: np.ndarray) -> np.ndarray:
    """:func:`outer_features` of an (F, C, T) complex array, unvalidated."""
    c = y.shape[1]
    rows, cols = _upper_pairs(c)
    out = np.empty((y.shape[0], c * c, y.shape[2]))
    out[:, :c] = y.real**2 + y.imag**2
    for n, (i, j) in enumerate(zip(rows, cols)):
        prod = np.conj(y[:, i]) * y[:, j]
        out[:, c + n] = prod.real
        out[:, c + rows.size + n] = prod.imag
    return out


def quad_forms(covariances: np.ndarray, features: np.ndarray, unit_det: bool = False):
    """Log-determinants and quadratic forms ``y^H B^{-1} y`` of a covariance stack.

    Each (K, F, C, C) covariance is factorized once with the loading ladder
    of :func:`chol_with_loading`, and its inverse ``L^{-H} L^{-1}`` becomes
    the coefficients ``[diag B^{-1}, 2 Re B^{-1}_ij, -2 Im B^{-1}_ij]`` of
    the :func:`outer_features` rows, so that ``quad`` is one real
    (F, K, C^2) @ (F, C^2, T) GEMM. With ``unit_det`` the coefficients are
    scaled by ``det(B)^{1/C}`` before the GEMM, so that ``quad`` holds the
    forms of the unit-determinant ``B / det(B)^{1/C}`` at no extra pass.

    Returns:
        ``(logdet, quad)`` of shapes (K, F) and (K, F, T); ``logdet`` is
        that of ``B`` either way.

    Raises:
        NumericalError: a quadratic form is not positive.
    """
    lower = chol_with_loading(covariances)
    logdet = 2.0 * np.log(np.einsum("...ii->...i", lower).real).sum(axis=-1)
    linv = _tril_inverse(lower)
    inv = np.swapaxes(np.conj(np.swapaxes(linv, -1, -2)) @ linv, 0, 1)  # (F, K, C, C)
    c = inv.shape[-1]
    rows, cols = _upper_pairs(c)
    upper = inv[..., rows, cols]
    coef = np.concatenate(
        [np.einsum("...ii->...i", inv).real, 2.0 * upper.real, -2.0 * upper.imag], axis=-1
    )
    if unit_det:
        coef *= np.exp(logdet / c).T[:, :, None]
    quad = np.empty(logdet.shape + features.shape[-1:])
    np.matmul(coef, features, out=np.swapaxes(quad, 0, 1))
    if quad.size and quad.min() <= 0.0:
        raise NumericalError("nonpositive quadratic form in batched cACG density")
    return logdet, quad


def cacg_log_pdf_stack(
    covariances: np.ndarray,
    x: StftTensor,
    features: np.ndarray,
    out: np.ndarray | None = None,
):
    """Log densities for a (K, F, C, C) covariance stack.

    ``ln (C-1)! - ln 2 - C ln pi - ln det(B) - C ln(y^H B^{-1} y)`` for every
    component, frequency and frame.

    Args:
        covariances: (K, F, C, C) stack.
        x: the observations; only their channel count C is read.
        features: the :func:`outer_features` of the unit-normalized
            observations.
        out: a spent (K, F, T) float64 array to hold the log densities;
            a new one is allocated when not given.

    Returns:
        ``(log_pdf, quad)``: the (K, F, T) log densities, frequency-major,
        and the (K, F, T) quadratic forms ``y^H B^{-1} y`` behind them, which
        the Tyler update of these covariances (:func:`cacg_m_step`) takes as
        ``quad``.
    """
    c = x.num_channels
    logdet, quad = quad_forms(covariances, features)
    log_pdf = np.log(quad, out=out)
    log_pdf *= -c
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    log_pdf += (const - logdet)[:, :, None]
    return log_pdf, quad


def scatter_matrices(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, F, C, C) weighted scatter sums ``sum_t w_{k,f,t} y_{f,t} y_{f,t}^H``.

    One real (F, K, T) @ (F, T, C^2) GEMM of the (K, F, T) weights against
    the :func:`outer_features` of the observations ``y``, unpacked into
    exactly Hermitian matrices.
    """
    sums = np.swapaxes(np.swapaxes(weights, 0, 1) @ np.swapaxes(features, 1, 2), 0, 1)
    c = math.isqrt(features.shape[1])
    rows, cols = _upper_pairs(c)
    p = rows.size
    out = np.empty(sums.shape[:-1] + (c, c), dtype=complex)
    diag = np.arange(c)
    out[..., diag, diag] = sums[..., :c]
    upper = sums[..., c : c + p] - 1j * sums[..., c + p :]
    out[..., rows, cols] = upper
    out[..., cols, rows] = np.conj(upper)
    return out


def stack_covariances(components: list[SpatialComponent]) -> np.ndarray:
    return np.stack([c.covariances for c in components])


def cacg_m_step(
    x: StftTensor,
    posterior: PosteriorTensor,
    prev: list[SpatialComponent],
    quad: np.ndarray | float,
    features: np.ndarray,
) -> list[SpatialComponent]:
    """One Tyler fixed-point update of all spatial covariances.

    ``B_{k,f} ~ sum_t gamma ~y ~y^H / (~y^H B_prev^{-1} ~y)``, diagonally
    loaded and trace-normalized to C. The normalization cancels every
    factor constant over t, so neither the responsibility mass
    ``sum_t gamma`` nor a per-(k, f) scale of ``quad`` enters the update.
    Frequencies with zero responsibility keep the previous covariance: for
    unit observations the trace of the weighted scatter is
    ``sum_t gamma / quad``, so it is zero exactly there.

    Args:
        x: the observations; only their channel count C is read.
        posterior: responsibilities of the E-step.
        prev: the previous covariances ``B_prev``.
        quad: (K, F, T) quadratic forms ``~y^H B_prev^{-1} ~y`` of the
            previous covariances, or any per-(k, f) multiple of them, such
            as the unit-determinant forms the E-step returns
            (:func:`e_step`); or the scalar 1 when every ``B_prev`` is the
            identity (``|~y|^2 = 1`` for unit observations). The update
            consumes a (K, F, T) ``quad``: it overwrites it with the Tyler
            weights ``gamma / quad``, so only the scalar start allocates a
            weight array.
        features: the :func:`outer_features` of the unit-normalized
            observations.
    """
    c = x.num_channels
    gamma = np.transpose(posterior.gamma, (0, 2, 1))  # (K, F, T)
    weights = np.empty(gamma.shape) if np.ndim(quad) == 0 else quad
    numer = scatter_matrices(features, np.divide(gamma, quad, out=weights))
    inactive = np.einsum("kfii->kf", numer).real == 0.0
    new = _load_stack(numer, COV_LOADING)
    new *= (c / np.einsum("kfii->kf", new).real)[:, :, None, None]
    if inactive.any():
        new[inactive] = stack_covariances(prev)[inactive]
    return [SpatialComponent(cov) for cov in new]


def update_pi(gamma_sum: np.ndarray, num_bins: int) -> np.ndarray:
    """Frequency-tied prior update: the floored mean of gamma over frequency,
    from its (K, T) sum over the ``num_bins`` frequencies."""
    pi = np.maximum(gamma_sum / num_bins, PRIOR_FLOOR)
    return pi / pi.sum(axis=0, keepdims=True)


def e_step(
    covariances: np.ndarray,
    pi: np.ndarray,
    x: StftTensor,
    features: np.ndarray,
    log_spectral=0.0,
    out: np.ndarray | None = None,
):
    """E-step of the spatial mixture, optionally coupled to a spectral term.

    ``gamma ~ pi * p_cACG(y) * exp(log_spectral)``, normalized per bin. With
    the default ``log_spectral=0.0`` this is the plain cACGMM; the joint
    model passes its (K, T) vMF log densities.

    The cACG density does not change when B is scaled, so with the
    unit-determinant ``B~ = B / det(B)^{1/C}`` it is ``const * q~^(-C)``
    for the forms ``q~ = y^H B~^{-1} y`` (:func:`quad_forms` with
    ``unit_det``), and the posterior needs no logarithm or exponential over
    the (K, F, T) array: the prior and spectral factor
    ``S = exp(b - max_k b)``, ``b = ln pi + log_spectral``, is formed on
    (K, T), and ``gamma = S q~^(-C) / sum_k S q~^(-C)`` takes a reciprocal,
    a square per bit of C below its leading one and a division by ``q~``
    per further set bit, a product with S, a sum and a division. Bins
    whose total is not finite or falls below ``LINEAR_TOTAL_FLOOR`` send the
    whole call to the log domain (:func:`cacg_log_pdf_stack` and
    :func:`numerics.normalize_logits`), with a warning that counts them.

    The posterior is built in ``out``, a spent (K, F, T) buffer such as the
    previous posterior's, or in a new one; ``features`` are the
    :func:`outer_features` of the normalized ``x``.

    Returns:
        ``(gamma, loglik, quad)``: the (K, T, F) posterior (a transposed
        view of the frequency-major buffer), the summed per-bin log
        normalizers and the (K, F, T) quadratic forms for the M-step, which
        are the unit-determinant ``q~`` unless the log domain was taken.

    Raises:
        InvalidInputError: NaN in the prior or spectral logits.
    """
    c = x.num_channels
    with np.errstate(divide="ignore"):
        logits = np.log(pi) + log_spectral  # (K, T)
    shift = logits.max(axis=0)
    if np.isnan(shift).any():
        raise InvalidInputError("NaN in mixture logits")
    shift[~np.isfinite(shift)] = 0.0
    spectral = np.exp(logits - shift)
    _, quad = quad_forms(covariances, features, unit_det=True)
    gamma = np.empty(quad.shape) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):
        np.divide(1.0, quad, out=gamma)
        for bit in bin(c)[3:]:
            np.multiply(gamma, gamma, out=gamma)
            if bit == "1":
                gamma /= quad
        gamma *= spectral[:, None, :]
        total = gamma.sum(axis=0)  # (F, T)
    linear = (total >= LINEAR_TOTAL_FLOOR) & (total < np.inf)
    if not linear.all():
        logger.warning(
            "cACG E-step: %d of %d bins out of the linear range; "
            "evaluated in the log domain",
            total.size - np.count_nonzero(linear),
            total.size,
        )
        gamma, quad = cacg_log_pdf_stack(covariances, x, features, gamma)
        gamma += logits[:, None, :]
        gamma, loglik = normalize_logits(gamma)
        return np.transpose(gamma, (0, 2, 1)), loglik, quad
    gamma /= total
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    f, t = total.shape
    loglik = float(np.log(total).sum()) + f * float(shift.sum()) + f * t * const
    return np.transpose(gamma, (0, 2, 1)), loglik, quad


def cacgmm_em(x: StftTensor, init_gamma: PosteriorTensor, iterations: int):
    """Fit a cACGMM by EM from an initial posterior.

    The run starts with an M-step on the initial posterior (previous
    covariances are the identity, so the Tyler weights are 1), then
    alternates E- and M-steps. Priors are frequency-independent and
    time-dependent, updated as the frequency mean of the posterior. Each
    M-step reuses (and overwrites) the quadratic forms of the E-step before
    it, so every covariance is factorized once per iteration, and both
    kernels read one :func:`outer_features` array of the normalized
    observations, built per run; the normalized observations themselves are
    not kept.

    Returns:
        ``(components, posterior, loglik_trace)``.
    """
    if init_gamma.num_components < 1:
        raise ConfigurationError("need at least one component")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if init_gamma.num_frames != x.num_frames or init_gamma.num_bins != x.num_bins:
        raise InvalidInputError("initial posterior does not match observations")
    features = outer_features(normalize_observations(x))
    n_comp = init_gamma.num_components
    identity = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(n_comp)]
    components = cacg_m_step(x, init_gamma, identity, 1.0, features)
    pi = init_gamma.pi
    trace = []
    gamma = init_gamma.gamma
    for _ in range(iterations):
        gamma, ll, quad = e_step(stack_covariances(components), pi, x, features)
        trace.append(ll)
        pi = update_pi(gamma.sum(axis=2), x.num_bins)
        components = cacg_m_step(x, PosteriorTensor(gamma, pi), components, quad, features)
    return components, PosteriorTensor(gamma, pi), np.asarray(trace)
