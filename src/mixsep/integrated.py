"""The integrated spatial/spectral mixture model (VMFcACGMM).

One latent source-activity variable per time-frequency bin couples the
spatial cACG mixture and the spectral vMF mixture: the E-step multiplies
both likelihoods (the vMF term replicated along frequency), the M-steps
stay decoupled. Component fusion by prototype cosine similarity (or by
activity IoU) merges split speakers and thereby counts them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import cacg as _cacg
from . import vmf as _vmf
from .cacg import PosteriorTensor, SpatialComponent, StftTensor
from .errors import ConfigurationError, InvalidInputError
from .vmf import EmbeddingSequence

logger = logging.getLogger(__name__)


@dataclass
class JointModel:
    """Joint model state: spatial components, vMF prototypes and tied priors."""

    spatial: list[SpatialComponent]
    mu: np.ndarray  # (K, E) unit prototypes
    kappa: np.ndarray  # (K,) concentrations
    pi: np.ndarray  # (K, T)
    noise_index: int | None = None

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        _vmf.check_prototypes(self.mu, self.kappa, len(self.spatial))
        self.pi = np.asarray(self.pi, dtype=float)
        if self.pi.shape[0] != len(self.spatial):
            raise InvalidInputError("pi rows must match the component count")
        if self.noise_index is not None and not 0 <= self.noise_index < len(self.spatial):
            raise InvalidInputError("noise index out of range")

    @property
    def num_components(self) -> int:
        return len(self.spatial)

    def speaker_indices(self) -> list[int]:
        return [k for k in range(self.num_components) if k != self.noise_index]


@dataclass(frozen=True)
class FusionEvent:
    """Record of one component fusion."""

    kept: int
    removed: int
    similarity: float
    iteration: int


@dataclass
class JointEmConfig:
    """Tunables of one joint EM run."""

    iterations: int = 100
    kappa_max: float = 35.0
    fusion: str = "spectral"  # spectral | iou | none
    tau_spectral: float = 0.7
    tau_iou: float = 0.85
    activity_threshold: float = 0.5
    fusion_start: int = 10
    k_min: int = 1
    noise_index: int | None = None
    freeze_spatial: bool = False
    seed: int = 0

    def __post_init__(self):
        _vmf.check_kappa_max(self.kappa_max)


def _joint_e_step(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    model: JointModel,
    features: np.ndarray,
    out: np.ndarray | None = None,
):
    # the cACGMM E-step with the frame's vMF log density as spectral term
    log_vmf = _vmf.log_pdf_matrix(model.mu, model.kappa, embeddings.frames)  # (K, T)
    covariances = _cacg.stack_covariances(model.spatial)
    return _cacg.e_step(covariances, model.pi, x, log_vmf, features, out)


def joint_e_step(
    x: StftTensor, embeddings: EmbeddingSequence, model: JointModel
) -> PosteriorTensor:
    """Coupled E-step: gamma ~ pi * p_cACG(y) * p_vMF(e), normalized per bin.

    The vMF likelihood of the frame's embedding is replicated along the
    frequency axis; everything is evaluated in the log domain.
    """
    if embeddings.num_frames != x.num_frames:
        raise InvalidInputError("embedding frames do not match STFT frames")
    if model.pi.shape[1] != x.num_frames:
        raise InvalidInputError("model priors do not match STFT frames")
    gamma, _, _ = _joint_e_step(x, embeddings, model, _cacg.outer_features(x))
    return PosteriorTensor(gamma, model.pi)


def joint_m_step(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    posterior: PosteriorTensor,
    model: JointModel,
    kappa_max: float = 35.0,
    rng: np.random.Generator | None = None,
    freeze_spatial: bool = False,
    quad: np.ndarray | None = None,
    features: np.ndarray | None = None,
) -> JointModel:
    """Decoupled M-steps of both models plus the tied prior update.

    Spatial covariances get one Tyler fixed-point application with the
    per-bin posteriors; the vMF prototypes are refitted with the
    frequency-summed posteriors, and that same sum over F gives the prior
    (the frequency mean). A noise component keeps kappa pinned at 0.
    ``quad`` holds the (K, F, T) quadratic forms of ``model.spatial`` and
    ``features`` the outer-product features of ``x`` when the caller has
    them (see :func:`cacg.cacg_m_step`).
    """
    if freeze_spatial:
        spatial = model.spatial
    else:
        spatial = _cacg.cacg_m_step(x, posterior, model.spatial, quad=quad, features=features)
    gbar = posterior.gamma.sum(axis=2)  # (K, T)
    mu, kappa = _spectral_m_step(embeddings, gbar, kappa_max, rng, model.noise_index)
    pi = _cacg.update_pi(gbar, posterior.num_bins)
    return JointModel(spatial, mu, kappa, pi, model.noise_index)


def _spectral_m_step(embeddings, gbar, kappa_max, rng, noise_index):
    """vMF M-step on the frequency-summed posteriors ``gbar``; the noise
    component's kappa stays 0 (it has no embedding identity)."""
    mu, kappa = _vmf.vmf_m_step(embeddings, gbar, kappa_max, rng)
    if noise_index is not None:
        kappa[noise_index] = 0.0
    return mu, kappa


def _index_after_removal(keep: int, remove: int) -> int:
    return keep if keep < remove else keep - 1


def _fused_quad(quad: np.ndarray, event: FusionEvent, model: JointModel, features: np.ndarray):
    """Quadratic forms of the fused model's covariances from the pre-fusion ones.

    The removed component's row goes; the kept component's covariance is
    now the mass-weighted average, so only its row is computed again.
    """
    quad = np.delete(quad, event.removed, axis=0)
    kept = _index_after_removal(event.kept, event.removed)
    quad[kept] = _cacg.quad_forms(model.spatial[kept].covariances[None], features)[1][0]
    return quad


def _fuse_pair(
    model: JointModel,
    posterior: PosteriorTensor,
    keep: int,
    remove: int,
    similarity: float,
    iteration: int,
):
    mass_i = float(model.pi[keep].sum())
    mass_j = float(model.pi[remove].sum())
    total = mass_i + mass_j
    w_i = mass_i / total if total > 0.0 else 0.5
    w_j = 1.0 - w_i

    gamma = np.delete(posterior.gamma, remove, axis=0)
    keep_after = _index_after_removal(keep, remove)
    gamma[keep_after] = posterior.gamma[keep] + posterior.gamma[remove]
    pi = np.delete(model.pi, remove, axis=0)
    pi[keep_after] = model.pi[keep] + model.pi[remove]

    fused_cov = (
        w_i * model.spatial[keep].covariances + w_j * model.spatial[remove].covariances
    )
    spatial = [c for j, c in enumerate(model.spatial) if j != remove]
    spatial[keep_after] = SpatialComponent(fused_cov)
    mu = np.delete(model.mu, remove, axis=0)
    kappa = np.delete(model.kappa, remove)

    noise = model.noise_index
    if noise is not None and remove < noise:
        noise -= 1
    new_model = JointModel(spatial, mu, kappa, pi, noise)
    event = FusionEvent(kept=keep, removed=remove, similarity=similarity, iteration=iteration)
    return new_model, PosteriorTensor(gamma, pi), event


def _fuse_top_pair(model, posterior, tau, k_min, iteration, score):
    """Fuse the speaker pair of highest score if that score exceeds tau.

    ``score(speakers)`` returns the symmetric pair-score matrix of the
    speaker components (noise excluded). Ties go to the first pair in
    row-major order of its upper triangle.
    """
    if not 0.0 < tau < 1.0:
        raise ConfigurationError("tau must lie in (0, 1)")
    speakers = model.speaker_indices()
    if len(speakers) <= max(k_min, 1):
        return model, posterior, None
    upper = np.triu(score(speakers), 1)
    a, b = np.unravel_index(np.argmax(upper), upper.shape)
    if upper[a, b] <= tau:
        return model, posterior, None
    return _fuse_pair(model, posterior, speakers[a], speakers[b], float(upper[a, b]), iteration)


def spectral_fusion_check(
    model: JointModel,
    posterior: PosteriorTensor,
    tau: float,
    k_min: int = 1,
    iteration: int = 0,
):
    """Fuse the most similar pair of prototypes if its cosine exceeds tau.

    At most one fusion per call; posteriors add exactly and the spatial
    covariances combine as the prior-mass-weighted average. The noise
    component never takes part. No fusion happens if it would push the
    speaker count below ``k_min``.

    Returns:
        ``(model, posterior, event_or_None)``.
    """

    def cosine(speakers):
        mu = model.mu[speakers]
        return mu @ mu.T

    return _fuse_top_pair(model, posterior, tau, k_min, iteration, cosine)


def iou_fusion_check(
    model: JointModel,
    posterior: PosteriorTensor,
    tau: float,
    activity_threshold: float = 0.5,
    k_min: int = 1,
    iteration: int = 0,
):
    """Fusion baseline on the intersection-over-union of prior activity.

    A component is active in a frame when its prior exceeds
    ``activity_threshold``; the pair with the highest IoU above ``tau`` is
    fused with the same mechanics as the spectral check. Two empty activity
    sets have IoU 0.
    """

    def iou(speakers):
        active = (model.pi[speakers] > activity_threshold).astype(float)  # (S, T)
        inter = active @ active.T
        size = active.sum(axis=1)
        union = size[:, None] + size[None, :] - inter
        return np.divide(inter, union, out=np.zeros_like(inter), where=union > 0.0)

    return _fuse_top_pair(model, posterior, tau, k_min, iteration, iou)


def _initial_model(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    init: PosteriorTensor,
    config: JointEmConfig,
    rng: np.random.Generator,
    features: np.ndarray,
) -> JointModel:
    spatial = [
        SpatialComponent.identity(x.num_bins, x.num_channels)
        for _ in range(init.num_components)
    ]
    if not config.freeze_spatial:
        spatial = _cacg.cacg_m_step(x, init, spatial, features=features)
    mu, kappa = _spectral_m_step(
        embeddings, init.gamma.sum(axis=2), config.kappa_max, rng, config.noise_index
    )
    return JointModel(spatial, mu, kappa, init.pi, config.noise_index)


def joint_em(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    init: PosteriorTensor,
    config: JointEmConfig,
):
    """Run the integrated EM from an initial posterior.

    The algorithm starts with an M-step on the initial posterior and then
    alternates E- and M-steps. After each E-step (from ``fusion_start`` on)
    the configured fusion check may merge one pair of components. The
    log-likelihood trace is non-decreasing between iterations with an equal
    component count; fusion steps may move the value. Each M-step weights
    the Tyler update by the quadratic forms of the E-step before it, so
    every covariance is factorized once per iteration; after a fusion only
    the kept component's forms are computed again. Each E-step after the
    first writes into the buffer of the posterior before it, so the E-step
    holds one posterior, not two. All cACG kernels read
    one outer-product feature array (:func:`cacg.outer_features`), built
    here from the normalized observations and freed when the run returns.

    Returns:
        ``(model, posterior, fusion_events, loglik_trace)``.
    """
    if config.iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if config.fusion not in ("spectral", "iou", "none"):
        raise ConfigurationError(f"unknown fusion strategy {config.fusion!r}")
    if init.num_components < 1:
        raise ConfigurationError("need at least one component")
    if embeddings.num_frames != x.num_frames:
        raise InvalidInputError("embedding frames do not match STFT frames")
    if init.num_frames != x.num_frames or init.num_bins != x.num_bins:
        raise InvalidInputError("initial posterior does not match observations")
    init.validate()

    rng = np.random.default_rng(config.seed)
    x = _cacg.normalize_observations(x)
    features = _cacg.outer_features(x)
    model = _initial_model(x, embeddings, init, config, rng, features)
    events: list[FusionEvent] = []
    trace = []
    spent = None
    for it in range(config.iterations):
        gamma, ll, quad = _joint_e_step(x, embeddings, model, features, spent)
        trace.append(ll)
        posterior = PosteriorTensor(gamma, model.pi)
        event = None
        if config.fusion != "none" and it >= config.fusion_start:
            if config.fusion == "spectral":
                model, posterior, event = spectral_fusion_check(
                    model, posterior, config.tau_spectral, config.k_min, it
                )
            else:
                model, posterior, event = iou_fusion_check(
                    model,
                    posterior,
                    config.tau_iou,
                    config.activity_threshold,
                    config.k_min,
                    it,
                )
            if event is not None:
                logger.debug("fused components %d <- %d at iteration %d", event.kept, event.removed, it)
                events.append(event)
                quad = _fused_quad(quad, event, model, features)
        model = joint_m_step(
            x,
            embeddings,
            posterior,
            model,
            kappa_max=config.kappa_max,
            rng=rng,
            freeze_spatial=config.freeze_spatial,
            quad=quad,
            features=features,
        )
        quad = None  # spent: freed before the next E-step allocates its own
        # the posterior is spent too; unless a fusion replaced it with a
        # fresh copy, the next E-step writes its logits into its
        # frequency-major buffer
        spent = None if event is not None else np.swapaxes(posterior.gamma, 1, 2)
    return model, PosteriorTensor(posterior.gamma, model.pi), events, np.asarray(trace)


def count_speakers(model: JointModel) -> int:
    """Number of speaker components (the noise component does not count)."""
    return model.num_components - (1 if model.noise_index is not None else 0)
