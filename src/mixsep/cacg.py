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
    chol_logdet_quad,
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
    flagged in ``zero_bins``. The data are stored frequency-major, so the
    (F, C, T) operand of the batched kernels (:func:`_freq_major`) is a view.
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


def _freq_major(data: np.ndarray) -> np.ndarray:
    # (C, T, F) -> (F, C, T) for batched per-frequency linear algebra, made
    # contiguous because matmul reaches BLAS only on unit-stride matrices; a
    # view for normalized observations, which are stored that way
    return np.ascontiguousarray(np.transpose(data, (2, 0, 1)))


def cacg_log_pdf_stack(covariances: np.ndarray, x: StftTensor):
    """Log densities for a (K, F, C, C) covariance stack.

    Returns:
        ``(log_pdf, quad)``: the (K, T, F) log densities and the (K, F, T)
        quadratic forms ``y^H B^{-1} y`` behind them, which the Tyler update
        of these covariances (:func:`cacg_m_step`) takes as ``quad``.
    """
    c = x.num_channels
    y = _freq_major(x.data)  # (F, C, T)
    logdet, quad = chol_logdet_quad(covariances, y[None])  # (K, F), (K, F, T)
    if np.any(quad <= 0.0):
        raise NumericalError("nonpositive quadratic form in batched cACG density")
    const = math.lgamma(c) - math.log(2.0) - c * math.log(math.pi)
    out = const - logdet[:, :, None] - c * np.log(quad)
    return np.transpose(out, (0, 2, 1)), quad


def quad_forms(covariances: np.ndarray, x: StftTensor) -> np.ndarray:
    """(K, F, T) quadratic forms ``y^H B^{-1} y`` of a (K, F, C, C) stack."""
    return chol_logdet_quad(covariances, _freq_major(x.data)[None])[1]


def _check_normalized(x: StftTensor):
    norms = np.linalg.norm(x.data, axis=0)
    if x.num_frames and np.max(np.abs(norms - 1.0)) > 1e-6:
        raise InvalidInputError("observations must be unit-normalized (see normalize_observations)")


def scatter_matrices(y: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """(K, F, C, C) weighted scatter sums ``sum_t w_{k,f,t} y_{f,t} y_{f,t}^H``
    of (F, C, T) observations under (K, F, T) weights."""
    y_h = np.conj(np.swapaxes(y, -1, -2))  # (F, T, C)
    out = np.empty(weights.shape[:2] + y.shape[1:2] * 2, dtype=complex)
    for k, w in enumerate(weights):
        out[k] = (w[:, None, :] * y) @ y_h
    return out


def stack_covariances(components: list[SpatialComponent]) -> np.ndarray:
    return np.stack([c.covariances for c in components])


def cacg_m_step(
    x: StftTensor,
    posterior: PosteriorTensor,
    prev: list[SpatialComponent],
    quad: np.ndarray | None = None,
) -> list[SpatialComponent]:
    """One Tyler fixed-point update of all spatial covariances.

    ``B_{k,f} = C * sum_t gamma ~y ~y^H / (~y^H B_prev^{-1} ~y) / sum_t gamma``,
    then symmetrized, diagonally loaded and trace-normalized to C.
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
    """
    c = x.num_channels
    gamma = posterior.gamma  # (K, T, F)
    if quad is None:
        _check_normalized(x)
        quad = quad_forms(stack_covariances(prev), x)
    numer = scatter_matrices(_freq_major(x.data), np.transpose(gamma, (0, 2, 1)) / quad)
    denom = gamma.sum(axis=1)  # (K, F)
    inactive = denom == 0.0
    safe = np.where(inactive, 1.0, denom)
    new = c * numer / safe[:, :, None, None]
    new = (new + np.conj(np.swapaxes(new, -1, -2))) / 2.0
    new = _load_stack(new, COV_LOADING)
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


def e_step(covariances: np.ndarray, pi: np.ndarray, x: StftTensor, log_spectral=0.0):
    """E-step of the spatial mixture, optionally coupled to a spectral term.

    ``gamma ~ pi * p_cACG(y) * exp(log_spectral)``, normalized per bin in the
    log domain. With the default ``log_spectral=0.0`` this is the plain
    cACGMM; the joint model passes its (K, T, 1) vMF log densities.

    Returns:
        ``(gamma, loglik, quad)``: the (K, T, F) posterior, the summed
        per-bin log normalizers and the (K, F, T) quadratic forms of
        :func:`cacg_log_pdf_stack` for the M-step.
    """
    log_pdf, quad = cacg_log_pdf_stack(covariances, x)
    with np.errstate(divide="ignore"):
        logits = np.log(pi)[:, :, None] + log_pdf + log_spectral
    gamma, loglik = normalize_logits(logits)
    return gamma, loglik, quad


def cacgmm_em(x: StftTensor, init_gamma: PosteriorTensor, iterations: int):
    """Fit a cACGMM by EM from an initial posterior.

    The run starts with an M-step on the initial posterior (previous
    covariances are the identity), then alternates E- and M-steps. Priors are
    frequency-independent and time-dependent, updated as the frequency mean
    of the posterior. Each M-step reuses the quadratic forms of the E-step
    before it, so every covariance is factorized once per iteration.

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
    n_comp = init_gamma.num_components
    identity = [SpatialComponent.identity(x.num_bins, x.num_channels) for _ in range(n_comp)]
    components = cacg_m_step(x, init_gamma, identity)
    pi = init_gamma.pi
    trace = []
    gamma = init_gamma.gamma
    for _ in range(iterations):
        gamma, ll, quad = e_step(stack_covariances(components), pi, x)
        trace.append(ll)
        pi = update_pi(gamma.sum(axis=2), x.num_bins)
        components = cacg_m_step(x, PosteriorTensor(gamma, pi), components, quad=quad)
    return components, PosteriorTensor(gamma, pi), np.asarray(trace)
