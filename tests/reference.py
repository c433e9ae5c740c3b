"""References the tests compare the model kernels against.

Scalar ones: one matrix, one vector, one component at a time, with a
triangular solve where the kernels invert their factors: slow and plain on
purpose. And the earlier second implementations of the EM's M-steps, kept
as they were, which the program's one implementation of each step must
match bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from mixsep.cacg import _block_scratch, _scatter_sums, _tyler, frequency_blocks
from mixsep.errors import ConfigurationError, InvalidInputError, NumericalError
from mixsep.integrated import JointModel
from mixsep.numerics import (
    bessel_i_series, chol_with_loading, log_vmf_normalizer, uniform_log_density, update_pi,
)
from mixsep.vmf import check_prototypes, vmf_m_step


@dataclass(frozen=True)
class HermitianPD:
    """Hermitian matrix intended to be positive definite.

    The constructor symmetrizes the entries exactly, so
    ``entries[i, j] == conj(entries[j, i])`` always holds. Positive
    definiteness is the business of the loading ladder inside the
    factorization helpers.
    """

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise InvalidInputError(f"expected a square matrix, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise InvalidInputError("matrix entries must be finite")
        object.__setattr__(self, "entries", (m + m.conj().T) / 2.0)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def cholesky_logdet_solve(m: HermitianPD, v: np.ndarray):
    """Evaluate ``log det(M)`` and ``Re(v^H M^{-1} v)`` in one factorization.

    The scalar reference for ``numerics.chol_logdet_quad`` and the forms of
    ``cacg._form_coefficients``: one factor and one solve against it, where
    the batched kernels invert their factors.

    Returns:
        Tuple ``(logdet, quad)`` of floats; ``quad`` is nonnegative.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.shape[0] != m.dim:
        raise InvalidInputError(f"vector of dim {v.shape} does not match matrix dim {m.dim}")
    if not np.all(np.isfinite(v)):
        raise InvalidInputError("non-finite entries in right-hand side")
    L = chol_with_loading(m.entries)
    z = np.linalg.solve(L, v)
    logdet = 2.0 * float(np.log(np.diag(L).real).sum())
    return logdet, float(np.vdot(z, z).real)


def cacg_log_pdf(b: HermitianPD, y: np.ndarray) -> float:
    """Log density of a unit complex vector under one cACG component.

    ``ln (C-1)! - ln 2 - C ln pi - ln det(B) - C ln(y^H B^{-1} y)``, the
    scalar reference of ``cacg.cacg_log_pdf_stack``.
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


def vmf_log_pdf(mu: np.ndarray, kappa: float, e: np.ndarray) -> float:
    """Log density of a unit vector under one vMF component (the scalar
    reference of ``vmf.log_pdf_matrix``)."""
    mu = np.asarray(mu, dtype=float)
    e = np.asarray(e, dtype=float)
    check_prototypes(mu[None], np.array([kappa], dtype=float), 1)
    if e.shape != mu.shape:
        raise InvalidInputError("embedding dimension does not match component")
    if abs(float(np.linalg.norm(e)) - 1.0) > 1e-3:
        raise InvalidInputError("vMF density is defined for unit vectors only")
    return log_vmf_normalizer(mu.shape[0], kappa) + kappa * float(mu @ e)


def logsumexp(values, axis=None):
    """ln sum exp of ``values``, exact under shift by the maximum.

    All ``-inf`` input yields ``-inf``; NaN input is rejected.
    """
    v = np.asarray(values, dtype=float)
    if v.size == 0:
        raise InvalidInputError("logsumexp of an empty collection")
    if np.isnan(v).any():
        raise InvalidInputError("NaN in logsumexp input")
    m = np.max(v, axis=axis, keepdims=True)
    shift = np.where(np.isfinite(m), m, 0.0)
    with np.errstate(divide="ignore"):
        out = np.log(np.exp(v - shift).sum(axis=axis, keepdims=True)) + shift
    if axis is None:
        return float(out.reshape(()))
    return np.squeeze(out, axis=axis)


def kappa_newton_arrays(rbar: np.ndarray, dim: int, kappa_max: float) -> np.ndarray:
    """The concentration update as Newton steps from Banerjee's start, on
    NumPy arrays of all live components: at most four steps, each component
    stopping once its step falls below 1e-12 relative. The reference that
    the table start and polish of ``vmf._kappa_estimates`` must match."""
    saturated = rbar >= 1.0 - 1e-12
    kappa = np.where(saturated, float(kappa_max), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = (rbar * dim - rbar**3) / (1.0 - rbar**2)
        live = np.flatnonzero(~saturated & (start > 0.0))
        if live.size == 0:
            return kappa
        start, target = start[live], rbar[live]
        k = np.minimum(start, kappa_max)
        moving = start < kappa_max
        for it in range(4):
            ratio = bessel_i_series(dim / 2.0 - 1.0, k)[1]
            if it == 0:
                moving |= ratio > target
            slope = 1.0 - ratio * (ratio + (dim - 1.0) / k)
            step = (ratio - target) / slope
            moving &= slope > 1e-14
            step[~moving] = 0.0
            new = k - step
            halve = new <= 0.0
            new[halve] = 0.5 * k[halve]
            k = new
            moving = np.abs(step) >= 1e-12 * np.maximum(k, 1.0)
            if not moving.any():
                break
    kappa[live] = np.minimum(k, kappa_max)
    return kappa


def spherical_kmeans_pp(embeddings, n_clusters: int, seed: int):
    """Spherical k-means++ one cluster at a time: the Lloyd update sums and
    normalizes each cluster in turn, re-seeding an empty one or a zero
    resultant as it reaches it. The reference that ``vmf.spherical_kmeans_pp``
    must match bit for bit; returns ``(one_hot, centers)``, the (K, T)
    assignment and the (K, E) centroids of the last update."""
    frames = embeddings.frames
    n_frames = frames.shape[0]
    rng = np.random.default_rng(seed)

    centers = np.empty((n_clusters, frames.shape[1]))
    first = int(rng.integers(n_frames))
    centers[0] = frames[first]
    dist = 1.0 - frames @ centers[0]
    chosen = {first}
    for j in range(1, n_clusters):
        d2 = np.maximum(dist, 0.0) ** 2
        total = d2.sum()
        if total <= 0.0:
            idx = next(i for i in range(n_frames) if i not in chosen)
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random(), side="right"))
            idx = min(idx, n_frames - 1)
        chosen.add(idx)
        centers[j] = frames[idx]
        dist = np.minimum(dist, 1.0 - frames @ centers[j])

    assign = None
    for _ in range(100):
        sims = centers @ frames.T
        new_assign = np.argmax(sims, axis=0)
        own_dist = 1.0 - sims[new_assign, np.arange(n_frames)]
        for k in range(n_clusters):
            members = new_assign == k
            if not members.any():
                far = int(np.argmax(own_dist))
                new_assign[far] = k
                own_dist[far] = 0.0
                members = new_assign == k
            c = frames[members].sum(axis=0)
            norm = np.linalg.norm(c)
            if norm < 1e-12:
                far = int(np.argmax(own_dist))
                c = frames[far]
                norm = 1.0
            centers[k] = c / norm
        if assign is not None and np.array_equal(assign, new_assign):
            break
        assign = new_assign

    one_hot = np.zeros((n_clusters, n_frames))
    one_hot[assign, np.arange(n_frames)] = 1.0
    return one_hot, centers


# ---------------------------------------------------------------------------
# The EM's former second implementations, as they were before the program
# ran one implementation of each M-step


def cacg_m_step(x, posterior, prev, quad, features):
    """The whole-array Tyler update: weights ``gamma / quad`` over the whole
    posterior, written over a (K, F, T) ``quad``, and one scatter GEMM."""
    gamma = np.transpose(posterior.gamma, (0, 2, 1))  # (K, F, T)
    weights = np.empty(gamma.shape) if np.ndim(quad) == 0 else quad
    np.divide(gamma, quad, out=weights)
    sums = _scatter_sums(features, weights)
    return _tyler(np.swapaxes(sums, 0, 1), prev)


def initial_covariances(gamma, features):
    """The EM's first M-step from identity covariances: a block-wise copy of
    the (K, T, F) posterior ``gamma`` as the Tyler weights."""
    gamma = np.transpose(gamma, (0, 2, 1))  # (K, F, T)
    k, f, t = gamma.shape
    c = math.isqrt(features.shape[1])
    sums = np.empty((f, k, c * c))
    blocks = frequency_blocks(f)
    scratch = _block_scratch(k, blocks, t)
    for block in blocks:
        weights = scratch(block)
        np.copyto(weights, gamma[:, block])
        _scatter_sums(features[block], weights, out=sums[block])
    identity = np.broadcast_to(np.eye(c, dtype=complex), (k, f, c, c))
    return _tyler(np.swapaxes(sums, 0, 1), identity)


def joint_m_step(x, embeddings, posterior, model, quad, features, kappa_max=35.0, rng=None,
                 freeze_spatial=False):
    """The whole-array M-steps of the joint model: the Tyler update
    (:func:`cacg_m_step`), the vMF M-step (:func:`spectral_m_step`) and the
    frequency-tied prior."""
    covariances = model.covariances
    if not freeze_spatial:
        covariances = cacg_m_step(x, posterior, covariances, quad, features)
    gbar = posterior.gamma.sum(axis=2)  # (K, T)
    mu, kappa, lognorm = spectral_m_step(embeddings, gbar, kappa_max, rng, model.noise_index)
    pi = update_pi(gbar, posterior.num_bins)
    return JointModel(covariances, mu, kappa, pi, model.noise_index, lognorm)


def spectral_m_step(embeddings, gbar, kappa_max, rng, noise_index):
    """vMF M-step on the frequency-summed posteriors, the noise row pinned
    at kappa 0 with the closed-form normalizer."""
    mu, kappa, lognorm = vmf_m_step(embeddings, gbar, kappa_max, rng)
    if noise_index is not None:
        kappa[noise_index] = 0.0
        lognorm[noise_index] = uniform_log_density(embeddings.dim)
    return mu, kappa, lognorm


PRIOR_FLOOR = 1e-10


def prior_update(resp, prior_mode):
    """The VMFMM's prior update: shared (K,) or per-frame (K, T) weights."""
    if prior_mode == "shared":
        w = resp.sum(axis=1) / resp.shape[1]  # the mean, as resp.mean(axis=1) divides
        np.maximum(w, PRIOR_FLOOR, out=w)
        w /= w.sum()
        return w
    if prior_mode == "per_frame":
        w = np.maximum(resp, PRIOR_FLOOR)
        w /= w.sum(axis=0, keepdims=True)
        return w
    raise ConfigurationError(f"unknown prior mode {prior_mode!r}")
