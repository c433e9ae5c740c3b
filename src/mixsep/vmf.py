"""von-Mises-Fisher distribution and the spectral diarization mixture model.

The mixture (VMFMM) operates on length-normalized frame-level speaker
embeddings: each component is a mean direction (a prototype embedding) and a
concentration, fitted with weighted EM. Initialization comes from spherical
k-means++ on the same embeddings.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .numerics import bessel_i_series, log_vmf_normalizer, normalize_logits

logger = logging.getLogger(__name__)

PRIOR_FLOOR = 1e-10
INIT_SMOOTHING = 0.01
# The series behind the normalizer and the concentration update has about
# kappa/2 terms, and the tests check it up to this concentration.
KAPPA_MAX_LIMIT = 1e4


def check_kappa_max(kappa_max):
    """Raise unless the concentration cap lies in [0, KAPPA_MAX_LIMIT]."""
    if not 0.0 <= kappa_max <= KAPPA_MAX_LIMIT:
        raise ConfigurationError(f"kappa_max must lie in [0, {KAPPA_MAX_LIMIT:g}], got {kappa_max!r}")


@dataclass(frozen=True)
class EmbeddingSequence:
    """Frame-level speaker embeddings, one unit row per frame."""

    frames: np.ndarray  # (T, E)
    frame_rate: float = 62.5
    alignment_action: str | None = None

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=float)
        if frames.ndim != 2:
            raise InvalidInputError("frames must be a T x E matrix")
        norms = np.linalg.norm(frames, axis=1)
        if frames.shape[0] and np.max(np.abs(norms - 1.0)) > 1e-6:
            raise InvalidInputError("embedding rows must be unit length after ingestion")
        object.__setattr__(self, "frames", frames)

    @classmethod
    def from_raw(cls, frames, frame_rate: float = 62.5, alignment_action=None):
        """Length-normalize raw rows; zero rows are rejected."""
        frames = np.asarray(frames, dtype=float)
        if frames.ndim != 2:
            raise InvalidInputError("frames must be a T x E matrix")
        if not np.all(np.isfinite(frames)):
            raise InvalidInputError("embedding rows must be finite")
        norms = np.linalg.norm(frames, axis=1)
        if np.any(norms < 1e-12):
            raise InvalidInputError("zero-norm embedding row cannot be normalized")
        return cls(frames / norms[:, None], frame_rate, alignment_action)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def dim(self) -> int:
        return self.frames.shape[1]


@dataclass
class VmfMixture:
    """A fitted VMFMM: unit prototypes, concentrations and priors (shared or per frame)."""

    mu: np.ndarray  # (K, E)
    kappa: np.ndarray  # (K,)
    weights: np.ndarray  # (K,) or (K, T)


def check_prototypes(mu: np.ndarray, kappa: np.ndarray, count: int):
    """Raise unless ``mu`` holds ``count`` unit rows and ``kappa`` as many finite values >= 0."""
    if mu.ndim != 2 or mu.shape[0] != count or kappa.shape != (count,):
        raise InvalidInputError(f"need {count} prototype rows and concentrations")
    if not np.all(np.abs(np.linalg.norm(mu, axis=1) - 1.0) <= 1e-6):
        raise InvalidInputError("prototypes mu must be unit rows")
    if not np.all((kappa >= 0.0) & np.isfinite(kappa)):
        raise InvalidInputError("kappa must be finite and >= 0")


def log_pdf_matrix(mu: np.ndarray, kappa: np.ndarray, frames: np.ndarray) -> np.ndarray:
    """(K, T) vMF log densities ``ln c(kappa_k) + kappa_k mu_k . e_t`` of (K, E)
    prototypes with (K,) concentrations; frames are assumed unit rows."""
    lognorm = log_vmf_normalizer(mu.shape[1], kappa)
    return lognorm[:, None] + kappa[:, None] * (mu @ frames.T)


def _kappa_estimates(rbar: np.ndarray, dim: int, kappa_max: float) -> np.ndarray:
    """Concentration update of every component: Banerjee's approximation
    refined by Newton steps.

    The closed form (rbar*E - rbar^3)/(1 - rbar^2) starts at most four Newton
    steps on the exact condition A_E(kappa) = rbar; the refinement keeps the
    M-step an argmax so the EM likelihood stays monotone. A component stops
    on its own once its step falls below 1e-12 relative or the slope is no
    longer positive. A saturated ``rbar`` gives ``kappa_max``, and so does a
    start beyond the cap when A_E(kappa_max) <= rbar (the constrained
    maximum; that ratio is the first Newton step's, taken at the cap); a
    start <= 0 gives 0. Results are capped at ``kappa_max``.

    Each step evaluates the Bessel ratio of every live component in one
    call; the few scalar operations after it run on Python floats, one
    component at a time, as the same IEEE operations in the same order.
    """
    saturated = rbar >= 1.0 - 1e-12
    kappa = np.where(saturated, float(kappa_max), 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        start = (rbar * dim - rbar**3) / (1.0 - rbar**2)
        live = np.flatnonzero(~saturated & (start > 0.0))
        if live.size == 0:
            return kappa
        targets = rbar[live].tolist()
        ks = np.minimum(start[live], kappa_max).tolist()
        moving = (start[live] < kappa_max).tolist()
        nu, spread = dim / 2.0 - 1.0, dim - 1.0
        for it in range(4):
            ratios = bessel_i_series(nu, np.array(ks))[1].tolist()
            for n, (ratio, target, k) in enumerate(zip(ratios, targets, ks)):
                step = 0.0
                if moving[n] or (it == 0 and ratio > target):  # then k > 0
                    slope = 1.0 - ratio * (ratio + spread / k)
                    if slope > 1e-14:
                        step = (ratio - target) / slope
                new = k - step
                if new <= 0.0:
                    new = 0.5 * k
                ks[n] = new
                moving[n] = abs(step) >= 1e-12 * max(new, 1.0)
            if not any(moving):
                break
    kappa[live] = np.minimum(ks, kappa_max)
    return kappa


def vmf_m_step(
    embeddings: EmbeddingSequence,
    resp: np.ndarray,
    kappa_max: float,
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Weighted vMF parameter update.

    For each component the resultant ``r_k = sum_t resp[k, t] * e_t`` gives the
    mean direction; the mean resultant length feeds the capped concentration
    estimate. A zero resultant (fully cancelling responsibilities) flags the
    component degenerate: ``mu`` is re-drawn uniformly and ``kappa`` set to 0.
    Re-draws come in ascending component order from ``rng``.

    Args:
        embeddings: (T, E) unit rows.
        resp: (K, T) nonnegative weights; frequency-summed responsibilities
            may exceed 1 per entry, only relative weights matter.
        kappa_max: concentration cap, in [0, KAPPA_MAX_LIMIT].
        rng: generator for degenerate re-draws (seeded default if omitted).

    Returns:
        ``(mu, kappa)``: the (K, E) unit prototypes and (K,) concentrations.
    """
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 2 or resp.shape[1] != embeddings.num_frames:
        raise InvalidInputError("responsibilities must be K x T")
    if np.any(resp < 0.0) or not np.all(np.isfinite(resp)):
        raise InvalidInputError("responsibilities must be finite and nonnegative")
    check_kappa_max(kappa_max)
    if rng is None:
        rng = np.random.default_rng(0)
    dim = embeddings.dim
    resultants = resp @ embeddings.frames  # (K, E)
    masses = resp.sum(axis=1)
    norms = np.linalg.norm(resultants, axis=1)
    degenerate = np.flatnonzero(norms <= 1e-12 * np.maximum(masses, 1.0))
    # a degenerate row divides by 1 (its mu is re-drawn) and has rbar 0 (kappa 0)
    norms[degenerate], masses[degenerate] = 1.0, np.inf
    mu = resultants / norms[:, None]
    for k in degenerate:
        logger.debug("component %d degenerate (zero resultant), re-drawing", k)
        draw = rng.standard_normal(dim)
        mu[k] = draw / np.linalg.norm(draw)
    return mu, _kappa_estimates(np.minimum(norms / masses, 1.0), dim, kappa_max)


def _prior_update(resp: np.ndarray, prior_mode: str) -> np.ndarray:
    if prior_mode == "shared":
        w = resp.mean(axis=1)
        w = np.maximum(w, PRIOR_FLOOR)
        return w / w.sum()
    if prior_mode == "per_frame":
        w = np.maximum(resp, PRIOR_FLOOR)
        return w / w.sum(axis=0, keepdims=True)
    raise ConfigurationError(f"unknown prior mode {prior_mode!r}")


def vmfmm_em(
    embeddings: EmbeddingSequence,
    init_resp: np.ndarray,
    iterations: int,
    kappa_max: float,
    prior_mode: str = "shared",
    rng: np.random.Generator | None = None,
):
    """Fit a VMFMM by EM from initial responsibilities.

    Each iteration performs the M-step (component and prior update from the
    current responsibilities) followed by the E-step, whose per-frame
    normalizers accumulate the log-likelihood trace.

    Args:
        embeddings: observation sequence.
        init_resp: (K, T) initial responsibilities, columns summing to 1.
        iterations: number of EM iterations, >= 1.
        kappa_max: concentration cap applied at every M-step.
        prior_mode: "shared" for one weight per component, "per_frame" for
            time-varying priors updated to the previous posterior.
        rng: generator for degenerate component re-draws.

    Returns:
        ``(mixture, resp, loglik_trace)`` with the final posterior and the
        per-iteration log-likelihood (non-decreasing within tolerance).
    """
    init_resp = np.asarray(init_resp, dtype=float)
    n_comp, n_frames = init_resp.shape
    if n_frames != embeddings.num_frames:
        raise InvalidInputError("responsibility frames do not match embeddings")
    if n_comp > n_frames:
        raise ConfigurationError(f"more components ({n_comp}) than frames ({n_frames})")
    if iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if rng is None:
        rng = np.random.default_rng(0)

    resp = init_resp
    trace = []
    for _ in range(iterations):
        mu, kappa = vmf_m_step(embeddings, resp, kappa_max, rng)
        weights = _prior_update(resp, prior_mode)
        with np.errstate(divide="ignore"):
            log_w = np.log(weights if weights.ndim == 2 else weights[:, None])
        resp, loglik = normalize_logits(log_w + log_pdf_matrix(mu, kappa, embeddings.frames))
        trace.append(loglik)
    return VmfMixture(mu, kappa, weights), resp, np.asarray(trace)


def vmf_posterior(mixture: VmfMixture, embeddings: EmbeddingSequence) -> np.ndarray:
    """E-step posterior of an already-fitted mixture on new frames."""
    weights = np.asarray(mixture.weights, dtype=float)
    if weights.ndim != 1:
        raise InvalidInputError("posterior evaluation needs shared (K,) weights")
    with np.errstate(divide="ignore"):
        logits = np.log(weights)[:, None] + log_pdf_matrix(
            mixture.mu, mixture.kappa, embeddings.frames
        )
    return normalize_logits(logits)[0]


def smooth_one_hot(assign: np.ndarray, epsilon: float = INIT_SMOOTHING) -> np.ndarray:
    """Spread a little floor mass from one-hot assignments over the other rows."""
    n_comp = assign.shape[0]
    if n_comp == 1:
        return assign.astype(float)
    return assign * (1.0 - epsilon) + (1.0 - assign) * (epsilon / (n_comp - 1))


def spherical_kmeans_pp(embeddings: EmbeddingSequence, n_clusters: int, seed: int) -> np.ndarray:
    """Spherical k-means with k-means++ seeding on cosine distance.

    Distance is ``1 - a @ b``; centroids are renormalized mean directions.
    Lloyd iterations run until the assignment reaches a fixpoint or 100
    rounds. Empty clusters are re-seeded from the point farthest from its
    own centroid. Fully deterministic for a given seed.

    Returns:
        (K, T) one-hot hard assignment matrix.
    """
    frames = embeddings.frames
    n_frames = frames.shape[0]
    if n_clusters > n_frames:
        raise ConfigurationError(f"K={n_clusters} exceeds frame count {n_frames}")
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
            # all points coincide with chosen centers: lowest unchosen index
            idx = next(i for i in range(n_frames) if i not in chosen)
        else:
            idx = int(np.searchsorted(np.cumsum(d2 / total), rng.random(), side="right"))
            idx = min(idx, n_frames - 1)
        chosen.add(idx)
        centers[j] = frames[idx]
        dist = np.minimum(dist, 1.0 - frames @ centers[j])

    assign = None
    for _ in range(100):
        sims = centers @ frames.T  # (K, T)
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
    return one_hot
