"""von-Mises-Fisher distribution and the spectral diarization mixture model.

The mixture (VMFMM) operates on length-normalized frame-level speaker
embeddings: each component is a mean direction (a prototype embedding) and a
concentration, fitted with weighted EM. Initialization comes from spherical
k-means++ on the same embeddings.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, InvalidInputError
from .numerics import (
    bessel_i_series, log_vmf_normalizer, normalize_logits, uniform_log_density, update_pi,
)

logger = logging.getLogger(__name__)

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
        # false on NaN, so a NaN row is rejected too
        if frames.shape[0] and not np.max(np.abs(norms - 1.0)) <= 1e-6:
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
    """A fitted VMFMM: unit prototypes, concentrations and shared priors."""

    mu: np.ndarray  # (K, E)
    kappa: np.ndarray  # (K,)
    weights: np.ndarray  # (K,)


def check_prototypes(mu: np.ndarray, kappa: np.ndarray, count: int):
    """Raise unless ``mu`` holds ``count`` unit rows and ``kappa`` as many finite values >= 0."""
    if mu.ndim != 2 or mu.shape[0] != count or kappa.shape != (count,):
        raise InvalidInputError(f"need {count} prototype rows and concentrations")
    # both tests are false on NaN
    if not np.abs(np.sqrt((mu * mu).sum(axis=1)) - 1.0).max(initial=0.0) <= 1e-6:
        raise InvalidInputError("prototypes mu must be unit rows")
    if not (kappa.min(initial=0.0) >= 0.0 and kappa.max(initial=0.0) < np.inf):
        raise InvalidInputError("kappa must be finite and >= 0")


def log_pdf_matrix(
    mu: np.ndarray,
    kappa: np.ndarray,
    frames: np.ndarray,
    lognorm: np.ndarray | None = None,
    log_prior: np.ndarray | None = None,
) -> np.ndarray:
    """(K, T) vMF log densities ``ln c(kappa_k) + kappa_k mu_k . e_t`` of (K, E)
    prototypes with (K,) concentrations; frames are assumed unit rows.

    ``lognorm`` holds the (K,) ``ln c(kappa_k)`` where the caller has them:
    the EMs pass what :func:`vmf_m_step` handed on with the concentrations,
    so their E-step evaluates no Bessel series. Without it the normalizers
    come from :func:`numerics.log_vmf_normalizer`. ``log_prior``, (K, 1) or
    (K, T), is added last, which gives the mixture logits: the same values
    as ``log_prior + log_pdf_matrix(...)``, formed in one buffer.
    """
    if lognorm is None:
        lognorm = log_vmf_normalizer(mu.shape[1], kappa)
    out = mu @ frames.T
    out *= kappa[:, None]
    out += lognorm[:, None]
    if log_prior is not None:
        out += log_prior
    return out


# Nodes of the table of A_E per unit of ln(1 + kappa): 460 for a cap of 35,
# 1180 for 1e4. The cubic read of the inverse starts a solve within 2e-9
# relative up to kappa = 1000 and within 1e-7 near 1e4, where the slope of
# A_E cancels (for E = 2, the worst case, measured against the converged root).
_NODES_PER_LOG_UNIT = 128
# Arguments per series call while a table is built, so that each call sums
# only as many terms as its own largest argument needs.
_BUILD_CHUNK = 256
# A Newton step below this, relative, leaves the next one below the stop rule
# of 1e-12: the error squares or, where the computed slope
# 1 - A (A + (E-1)/kappa) cancels (to 1e-4 relative at kappa = 1e4), still
# shrinks 1e4-fold.
_ONE_STEP = 1e-8


@functools.lru_cache(maxsize=64)
def _ratio_table(dim: int, kappa_max: float):
    """Read-only table of ``A_E(kappa) = I_{E/2}(kappa) / I_{E/2-1}(kappa)`` on
    [0, kappa_max] and of its inverse.

    The nodes are equally spaced in ``ln(1 + kappa)`` and end at
    ``kappa_max`` itself. Returns ``(ratio, log_series, cubic)``: A_E and the
    series of :func:`numerics.bessel_i_series` at the nodes, and one row
    ``[A_i, 1 / (A_{i+1} - A_i), c0, c1, c2, c3]`` per interval, the cubic
    Hermite interpolant ``kappa = c0 + c1 t + c2 t^2 + c3 t^3`` of the inverse
    in ``t = (r - A_i) / (A_{i+1} - A_i)``, whose slopes at the nodes are
    ``1 / A_E'`` (``A_E'(0) = 1/E``). Cached like the series' own tables: one
    dimension and cap serve a whole run.
    """
    top = math.log1p(kappa_max)
    kappa = np.expm1(np.linspace(0.0, top, max(2, math.ceil(top * _NODES_PER_LOG_UNIT) + 1)))
    kappa[-1] = kappa_max
    ratio, log_series = np.zeros(kappa.size), np.zeros(kappa.size)
    for lo in range(1, kappa.size, _BUILD_CHUNK):
        part = slice(lo, lo + _BUILD_CHUNK)
        log_series[part], ratio[part] = bessel_i_series(dim / 2.0 - 1.0, kappa[part])
    dkappa = np.full(kappa.size, float(dim))
    dkappa[1:] = 1.0 / (1.0 - ratio[1:] * (ratio[1:] + (dim - 1.0) / kappa[1:]))
    width = np.diff(ratio)
    rise = np.diff(kappa)
    m0, m1 = width * dkappa[:-1], width * dkappa[1:]
    cubic = np.stack(
        [ratio[:-1], 1.0 / width, kappa[:-1], m0, 3.0 * rise - 2.0 * m0 - m1, m0 + m1 - 2.0 * rise],
        axis=1,
    )
    tables = (ratio, log_series, cubic)
    for t in tables:
        t.flags.writeable = False
    return tables


def _table_start(table, rbar: np.ndarray) -> np.ndarray:
    """The inverse of A_E at each ``rbar`` in [0, A_E(kappa_max)), read from
    the table's cubic of the interval that holds it."""
    ratio, _, cubic = table
    lo, inv_width, c0, c1, c2, c3 = cubic[np.searchsorted(ratio, rbar, side="right") - 1].T
    t = (rbar - lo) * inv_width
    return c0 + t * (c1 + t * (c2 + t * c3))


def _kappa_estimates(rbar: np.ndarray, dim: int, kappa_max: float):
    """Concentration update of every component: the root of
    ``A_E(kappa) = rbar`` read from a table of the inverse of A_E and
    polished by Newton steps.

    The cached table (:func:`_ratio_table`) gives each component its start;
    one Newton step on the exact condition, vectorized over the components,
    polishes it, and a second one follows for the components whose first
    step was not below 1e-8 relative, so that the next step would not pass
    the stop rule of 1e-12 relative. The polish keeps the M-step an argmax,
    so the EM likelihood stays monotone. A step is skipped where the slope
    is not positive. A saturated ``rbar``, or one at or above
    A_E(kappa_max), gives ``kappa_max`` (the constrained maximum); ``rbar``
    0 gives 0. Results are capped at ``kappa_max``.

    Returns ``(kappa, log_series)``: ``log_series`` is the first result of
    :func:`numerics.bessel_i_series` at each estimate (0 at kappa 0), the
    last step's evaluation carried to its result by the second-order
    expansion ``d log_series / d kappa = A_E``, ``d A_E / d kappa =
    slope``, or the table's value at the cap. It gives the next E-step its
    normalizers, so one EM iteration evaluates the series once, or twice
    where a second step runs.
    """
    kappa_max = float(kappa_max)
    if kappa_max <= 0.0:
        return np.zeros(rbar.shape), np.zeros(rbar.shape)
    table = ratios, series_at_nodes, _ = _ratio_table(dim, kappa_max)
    # saturated, or at or above A_E(kappa_max)
    capped = rbar >= min(1.0 - 1e-12, ratios[-1])
    kappa = np.where(capped, kappa_max, 0.0)
    log_series = np.where(capped, series_at_nodes[-1], 0.0)
    live = ((rbar > 0.0) & ~capped).nonzero()[0]
    if live.size == 0:
        return kappa, log_series
    # the Newton steps work on the live components' own (n,) arrays
    r = rbar[live]
    k = _table_start(table, r)
    for _ in range(2):
        series, ratio = bessel_i_series(dim / 2.0 - 1.0, k)
        slope = 1.0 - ratio * (ratio + (dim - 1.0) / k)
        step = (ratio - r) / np.where(slope > 1e-14, slope, np.inf)
        new = np.minimum(k - step, kappa_max)
        moved = new - k
        kappa[live] = new
        log_series[live] = series + moved * (ratio + 0.5 * slope * moved)
        again = np.abs(step) >= _ONE_STEP * np.maximum(new, 1.0)
        if not again.any():
            break
        live, r, k = live[again], r[again], new[again]
    return kappa, log_series


def vmf_m_step(
    embeddings: EmbeddingSequence,
    resp: np.ndarray,
    kappa_max: float,
    rng: np.random.Generator | None = None,
):
    """Weighted vMF parameter update.

    For each component the resultant ``r_k = sum_t resp[k, t] * e_t`` gives the
    mean direction; the mean resultant length feeds the capped concentration
    estimate (:func:`_kappa_estimates`: a table start and a Newton polish). A
    zero resultant (fully cancelling responsibilities) flags the component
    degenerate: ``mu`` is re-drawn uniformly and ``kappa`` set to 0.
    Re-draws come in ascending component order from ``rng``.

    Args:
        embeddings: (T, E) unit rows.
        resp: (K, T) nonnegative weights; frequency-summed responsibilities
            may exceed 1 per entry, only relative weights matter.
        kappa_max: concentration cap, in [0, KAPPA_MAX_LIMIT].
        rng: generator for degenerate re-draws (seeded default if omitted).

    Returns:
        ``(mu, kappa, lognorm)``: the (K, E) unit prototypes, the (K,)
        concentrations and their (K,) log normalizers ``ln c(kappa)`` for
        :func:`log_pdf_matrix`, from the series the concentration update
        evaluated last; no further series is summed for them.
    """
    resp = np.asarray(resp, dtype=float)
    if resp.ndim != 2 or resp.shape[1] != embeddings.num_frames:
        raise InvalidInputError("responsibilities must be K x T")
    # false on NaN as well
    if not (resp.min(initial=0.0) >= 0.0 and resp.max(initial=0.0) < np.inf):
        raise InvalidInputError("responsibilities must be finite and nonnegative")
    check_kappa_max(kappa_max)
    if rng is None:
        rng = np.random.default_rng(0)
    dim = embeddings.dim
    resultants = resp @ embeddings.frames  # (K, E)
    masses = resp.sum(axis=1)
    norms = np.sqrt((resultants * resultants).sum(axis=1))  # np.linalg.norm(.., axis=1)
    degenerate = norms <= 1e-12 * np.maximum(masses, 1.0)
    redraw = degenerate.any()
    if redraw:
        # a degenerate row divides by 1 (its mu is re-drawn) and has rbar 0 (kappa 0)
        norms[degenerate], masses[degenerate] = 1.0, np.inf
    mu = resultants / norms[:, None]
    for k in np.flatnonzero(degenerate) if redraw else ():
        logger.debug("component %d degenerate (zero resultant), re-drawing", k)
        draw = rng.standard_normal(dim)
        mu[k] = draw / np.linalg.norm(draw)
    rbar = norms / masses
    kappa, log_series = _kappa_estimates(np.minimum(rbar, 1.0, out=rbar), dim, kappa_max)
    return mu, kappa, uniform_log_density(dim) - log_series


def vmfmm_em(
    embeddings: EmbeddingSequence,
    init_resp: np.ndarray,
    iterations: int,
    kappa_max: float,
    rng: np.random.Generator | None = None,
):
    """Fit a VMFMM with one shared weight per component by EM from initial
    responsibilities (per-frame weights: :func:`integrated.joint_em` with
    ``freeze_spatial``).

    Each iteration performs the M-step (component and weight update, the
    latter by :func:`numerics.update_pi`, from the current responsibilities)
    followed by the E-step, whose per-frame normalizers accumulate the
    log-likelihood trace. The E-step takes its vMF normalizers from the
    M-step, so an iteration sums the Bessel series once (twice where a
    concentration needs a second Newton step).

    Args:
        embeddings: observation sequence.
        init_resp: (K, T) initial responsibilities, columns summing to 1.
        iterations: number of EM iterations, >= 1.
        kappa_max: concentration cap applied at every M-step.
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
        mu, kappa, lognorm = vmf_m_step(embeddings, resp, kappa_max, rng)
        weights = update_pi(resp.sum(axis=1), n_frames)
        with np.errstate(divide="ignore"):
            log_w = np.log(weights)[:, None]
        resp, loglik = normalize_logits(
            log_pdf_matrix(mu, kappa, embeddings.frames, lognorm, log_w)
        )
        trace.append(loglik)
    return VmfMixture(mu, kappa, weights), resp, np.asarray(trace)


def vmf_posterior(mixture: VmfMixture, embeddings: EmbeddingSequence) -> np.ndarray:
    """E-step posterior of an already-fitted mixture on new frames."""
    with np.errstate(divide="ignore"):
        log_w = np.log(mixture.weights)[:, None]
    return normalize_logits(
        log_pdf_matrix(mixture.mu, mixture.kappa, embeddings.frames, log_prior=log_w)
    )[0]


def smooth_one_hot(assign: np.ndarray) -> np.ndarray:
    """Spread the floor mass ``INIT_SMOOTHING`` from one-hot assignments over
    the other rows."""
    n_comp = assign.shape[0]
    if n_comp == 1:
        return assign.astype(float)
    return assign * (1.0 - INIT_SMOOTHING) + (1.0 - assign) * (INIT_SMOOTHING / (n_comp - 1))


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
        d2 = np.maximum(dist, 0.0)
        d2 *= d2
        total = d2.sum()
        if total <= 0.0:
            # all points coincide with chosen centers: lowest unchosen index
            idx = next(i for i in range(n_frames) if i not in chosen)
        else:
            d2 /= total
            idx = int(np.searchsorted(np.cumsum(d2), rng.random(), side="right"))
            idx = min(idx, n_frames - 1)
        chosen.add(idx)
        centers[j] = frames[idx]
        np.minimum(dist, 1.0 - frames @ centers[j], out=dist)

    assign = None
    for _ in range(100):
        sims = centers @ frames.T  # (K, T)
        new_assign = sims.argmax(axis=0)
        centers = _lloyd_centers(frames, new_assign, sims)
        if assign is not None and (assign == new_assign).all():
            break
        assign = new_assign

    one_hot = np.zeros((n_clusters, n_frames))
    one_hot[assign, np.arange(n_frames)] = 1.0
    return one_hot


def _lloyd_centers(frames, assign, sims):
    """The (K, E) centroids of one Lloyd update from the (K, T) similarities
    ``sims`` and the assignment they give: each cluster's member sum,
    renormalized.

    Every sum adds the cluster's rows in frame order, as
    ``frames[assign == k].sum(axis=0)`` does, taken from one stably sorted
    copy of ``frames``; every norm is the row's dot with itself, as
    ``np.linalg.norm`` of one row computes it. Then, in cluster order, an
    empty cluster takes the point farthest from its own centroid (moving it
    in ``assign`` and zeroing its distance), and a zero resultant takes the
    farthest point as its direction. A cluster that loses a point to a
    later one keeps the centroid it has; one that loses a point before its
    turn is summed again.
    """
    n_clusters = sims.shape[0]
    counts = np.bincount(assign, minlength=n_clusters)
    ordered = frames.take(np.argsort(assign, kind="stable"), axis=0)
    sums = np.zeros((n_clusters, frames.shape[1]))
    lo = 0
    for k, hi in enumerate(np.cumsum(counts).tolist()):
        if hi > lo:
            sums[k] = ordered[lo:hi].sum(axis=0)
        lo = hi
    norms = np.sqrt(np.matmul(sums[:, None, :], sums[:, :, None])[:, 0, 0])
    reseed = (counts == 0) | (norms < 1e-12)
    if not reseed.any():
        return sums / norms[:, None]
    own_dist = 1.0 - sims[assign, np.arange(assign.size)]
    for k in range(int(reseed.argmax()), n_clusters):
        if counts[k] == 0:
            far = int(np.argmax(own_dist))
            donor = assign[far]
            assign[far] = k
            own_dist[far] = 0.0
            counts[donor] -= 1
            counts[k] = 1
            for j in (k, donor) if donor > k else (k,):
                sums[j] = frames[assign == j].sum(axis=0)
                norms[j] = np.linalg.norm(sums[j])
        if norms[k] < 1e-12:
            sums[k] = frames[int(np.argmax(own_dist))]
            norms[k] = 1.0
    return sums / norms[:, None]
