"""Complex Angular Central Gaussian distribution and the spatial mixture model.

The cACGMM models unit-normalized multichannel STFT bins with one spatial
covariance per component and frequency, tied together by time-varying but
frequency-independent priors. Covariance updates follow the Tyler fixed
point, one application per EM iteration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError, NumericalError
from .numerics import (
    HermitianPD,
    _load_stack,
    _tril_inverse,
    chol_with_loading,
    cholesky_logdet_solve,
    normalize_logits,
)

PRIOR_FLOOR = 1e-10
COV_LOADING = 1e-10


@dataclass(frozen=True)
class StftTensor:
    """Complex multichannel time-frequency observations, shape (C, T, F)."""

    data: np.ndarray
    sample_rate: int
    stft_size: int
    window_size: int
    shift: int
    zero_bins: np.ndarray | None = None

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

    @property
    def is_empty(self) -> bool:
        return self.num_frames == 0


@dataclass
class SpatialComponent:
    """Per-source spatial covariances, one Hermitian PD matrix per frequency."""

    covariances: np.ndarray  # (F, C, C)
    inactive_bins: np.ndarray | None = None

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

    All-zero bins are replaced by the first canonical basis vector and
    flagged in ``zero_bins``. The data are stored frequency-major, so their
    (F, C, T) transpose, which :func:`outer_features` reads, is contiguous.
    """
    norms = np.linalg.norm(x.data, axis=0)  # (T, F)
    zero = norms == 0.0
    safe = np.where(zero, 1.0, norms)
    data = np.divide(np.transpose(x.data, (2, 0, 1)), safe.T[:, None, :], order="C")
    if zero.any():
        data[:, 0][zero.T] = 1.0
    return StftTensor(
        np.transpose(data, (1, 2, 0)),
        x.sample_rate,
        x.stft_size,
        x.window_size,
        x.shift,
        zero_bins=zero if zero.any() or x.zero_bins is not None else None,
    )


def cacg_log_pdf(b: HermitianPD, y: np.ndarray) -> float:
    """Log density of a unit complex vector under one cACG component.

    ``ln (C-1)! - ln 2 - C ln pi - ln det(B) - C ln(y^H B^{-1} y)``.
    """
    y = np.asarray(y, dtype=complex)
    if y.ndim != 1 or y.shape[0] != b.dim:
        raise InvalidInputError("vector dimension does not match covariance")
    if abs(float(np.linalg.norm(y)) - 1.0) > 1e-3:
        raise InvalidInputError("cACG density is defined for unit vectors only")
    c = b.dim
    logdet, quad = cholesky_logdet_solve(b, y)
    if quad <= 0.0:
        raise NumericalError("nonpositive quadratic form after loading")
    return (
        math.lgamma(c)
        - math.log(2.0)
        - c * math.log(math.pi)
        - float(logdet)
        - c * math.log(float(quad))
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
    y = np.transpose(x.data, (2, 0, 1))  # (F, C, T)
    c = y.shape[1]
    rows, cols = np.triu_indices(c, 1)
    out = np.empty((y.shape[0], c * c, y.shape[2]))
    out[:, :c] = y.real**2 + y.imag**2
    for n, (i, j) in enumerate(zip(rows, cols)):
        prod = np.conj(y[:, i]) * y[:, j]
        out[:, c + n] = prod.real
        out[:, c + rows.size + n] = prod.imag
    return out


def quad_forms(covariances: np.ndarray, features: np.ndarray):
    """Log-determinants and quadratic forms ``y^H B^{-1} y`` of a covariance stack.

    Each (K, F, C, C) covariance is factorized once with the loading ladder
    of :func:`chol_with_loading`, and its inverse ``L^{-H} L^{-1}`` becomes
    the coefficients ``[diag B^{-1}, 2 Re B^{-1}_ij, -2 Im B^{-1}_ij]`` of
    the :func:`outer_features` rows, so that ``quad`` is one real
    (F, K, C^2) @ (F, C^2, T) GEMM.

    Returns:
        ``(logdet, quad)`` of shapes (K, F) and (K, F, T).

    Raises:
        NumericalError: a quadratic form is not positive.
    """
    lower = chol_with_loading(covariances)
    logdet = 2.0 * np.log(np.einsum("...ii->...i", lower).real).sum(axis=-1)
    linv = _tril_inverse(lower)
    inv = np.swapaxes(np.conj(np.swapaxes(linv, -1, -2)) @ linv, 0, 1)  # (F, K, C, C)
    rows, cols = np.triu_indices(inv.shape[-1], 1)
    upper = inv[..., rows, cols]
    coef = np.concatenate(
        [np.einsum("...ii->...i", inv).real, 2.0 * upper.real, -2.0 * upper.imag], axis=-1
    )
    quad = np.empty(logdet.shape + features.shape[-1:])
    np.matmul(coef, features, out=np.swapaxes(quad, 0, 1))
    if quad.size and quad.min() <= 0.0:
        raise NumericalError("nonpositive quadratic form in batched cACG density")
    return logdet, quad


def cacg_log_pdf_stack(
    covariances: np.ndarray,
    x: StftTensor,
    features: np.ndarray | None = None,
    out: np.ndarray | None = None,
):
    """Log densities for a (K, F, C, C) covariance stack.

    Args:
        covariances: (K, F, C, C) stack.
        x: unit-normalized observations.
        features: their :func:`outer_features`; built here when not given.
        out: a spent (K, F, T) float64 array to hold the log densities;
            a new one is allocated when not given.

    Returns:
        ``(log_pdf, quad)``: the (K, F, T) log densities, frequency-major,
        and the (K, F, T) quadratic forms ``y^H B^{-1} y`` behind them, which
        the Tyler update of these covariances (:func:`cacg_m_step`) takes as
        ``quad``.
    """
    c = x.num_channels
    logdet, quad = quad_forms(covariances, outer_features(x) if features is None else features)
    log_pdf = np.log(quad, out=out)
    log_pdf *= -c
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    log_pdf += (const - logdet)[:, :, None]
    return log_pdf, quad


def _check_normalized(x: StftTensor):
    norms = np.linalg.norm(x.data, axis=0)
    if x.num_frames and np.max(np.abs(norms - 1.0)) > 1e-6:
        raise InvalidInputError("observations must be unit-normalized (see normalize_observations)")


def scatter_matrices(features: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, F, C, C) weighted scatter sums ``sum_t w_{k,f,t} y_{f,t} y_{f,t}^H``.

    One real (F, K, T) @ (F, T, C^2) GEMM of the (K, F, T) weights against
    the :func:`outer_features` of the observations ``y``, unpacked into
    exactly Hermitian matrices.
    """
    sums = np.swapaxes(np.swapaxes(weights, 0, 1) @ np.swapaxes(features, 1, 2), 0, 1)
    c = math.isqrt(features.shape[1])
    rows, cols = np.triu_indices(c, 1)
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
    quad: np.ndarray | None = None,
    features: np.ndarray | None = None,
) -> list[SpatialComponent]:
    """One Tyler fixed-point update of all spatial covariances.

    ``B_{k,f} = C * sum_t gamma ~y ~y^H / (~y^H B_prev^{-1} ~y) / sum_t gamma``,
    then diagonally loaded and trace-normalized to C.
    Frequencies with zero responsibility mass keep the previous covariance
    and are flagged inactive.

    Args:
        x: unit-normalized observations.
        posterior: responsibilities of the E-step.
        prev: the previous covariances ``B_prev``.
        quad: (K, F, T) quadratic forms ``~y^H B_prev^{-1} ~y`` of the
            previous covariances, as the E-step that evaluated them returns
            (:func:`cacg_log_pdf_stack`); computed here when not given, and
            only then are the observations checked for unit norm (the EM
            checks them once, on the initial M-step).
        features: the :func:`outer_features` of ``x``; built here when not
            given.
    """
    c = x.num_channels
    if features is None:
        features = outer_features(x)
    gamma = np.transpose(posterior.gamma, (0, 2, 1))  # (K, F, T)
    if quad is None:
        _check_normalized(x)
        quad = quad_forms(stack_covariances(prev), features)[1]
    numer = scatter_matrices(features, np.divide(gamma, quad, out=np.empty(quad.shape)))
    denom = gamma.sum(axis=2)  # (K, F)
    inactive = denom == 0.0
    safe = np.where(inactive, 1.0, denom)
    new = _load_stack(c * numer / safe[:, :, None, None], COV_LOADING)
    traces = np.einsum("kfii->kf", new).real
    new = new * (c / traces)[:, :, None, None]
    if inactive.any():
        new[inactive] = stack_covariances(prev)[inactive]
    out = []
    for k in range(new.shape[0]):
        flags = inactive[k]
        out.append(SpatialComponent(new[k], inactive_bins=flags if flags.any() else None))
    return out


def update_pi(gamma_sum: np.ndarray, num_bins: int) -> np.ndarray:
    """Frequency-tied prior update: the floored mean of gamma over frequency,
    from its (K, T) sum over the ``num_bins`` frequencies."""
    pi = np.maximum(gamma_sum / num_bins, PRIOR_FLOOR)
    return pi / pi.sum(axis=0, keepdims=True)


def e_step(
    covariances: np.ndarray,
    pi: np.ndarray,
    x: StftTensor,
    log_spectral=0.0,
    features: np.ndarray | None = None,
    out: np.ndarray | None = None,
):
    """E-step of the spatial mixture, optionally coupled to a spectral term.

    ``gamma ~ pi * p_cACG(y) * exp(log_spectral)``, normalized per bin in the
    log domain. With the default ``log_spectral=0.0`` this is the plain
    cACGMM; the joint model passes its (K, T) vMF log densities. The logits
    are built and normalized in place in the frequency-major (K, F, T) log
    density buffer of :func:`cacg_log_pdf_stack`, built from ``features``
    (the :func:`outer_features` of ``x``, built there when not given), or
    in ``out``, a spent (K, F, T) buffer such as the previous posterior's.

    Returns:
        ``(gamma, loglik, quad)``: the (K, T, F) posterior (a transposed
        view of the frequency-major buffer), the summed per-bin log
        normalizers and the (K, F, T) quadratic forms for the M-step.
    """
    logits, quad = cacg_log_pdf_stack(covariances, x, features, out)
    with np.errstate(divide="ignore"):
        logits += (np.log(pi) + log_spectral)[:, None, :]
    gamma, loglik = normalize_logits(logits)
    return np.transpose(gamma, (0, 2, 1)), loglik, quad


def cacgmm_em(x: StftTensor, init_gamma: PosteriorTensor, iterations: int):
    """Fit a cACGMM by EM from an initial posterior.

    The run starts with an M-step on the initial posterior (previous
    covariances are the identity), then alternates E- and M-steps. Priors are
    frequency-independent and time-dependent, updated as the frequency mean
    of the posterior. Each M-step reuses the quadratic forms of the E-step
    before it, so every covariance is factorized once per iteration, and
    both kernels read one :func:`outer_features` array built per run.

    Returns:
        ``(components, posterior, loglik_trace)``.
    """
    if init_gamma.num_components < 1:
        raise ConfigurationError("need at least one component")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if init_gamma.num_frames != x.num_frames or init_gamma.num_bins != x.num_bins:
        raise InvalidInputError("initial posterior does not match observations")
    x = normalize_observations(x)
    features = outer_features(x)
    n_comp = init_gamma.num_components
    identity = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(n_comp)]
    components = cacg_m_step(x, init_gamma, identity, features=features)
    pi = init_gamma.pi
    trace = []
    gamma = init_gamma.gamma
    for _ in range(iterations):
        gamma, ll, quad = e_step(stack_covariances(components), pi, x, features=features)
        trace.append(ll)
        pi = update_pi(gamma.sum(axis=2), x.num_bins)
        components = cacg_m_step(
            x, PosteriorTensor(gamma, pi), components, quad=quad, features=features
        )
    return components, PosteriorTensor(gamma, pi), np.asarray(trace)
