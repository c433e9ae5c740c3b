"""The integrated spatial/spectral mixture model (VMFcACGMM).

One latent source-activity variable per time-frequency bin couples the
spatial cACG mixture and the spectral vMF mixture: the E-step multiplies
both likelihoods (the vMF term replicated along frequency), the M-steps
stay decoupled. Component fusion by prototype cosine similarity merges
split speakers and thereby counts them.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from . import cacg as _cacg
from . import vmf as _vmf
from .cacg import StftTensor
from .errors import ConfigurationError, InvalidInputError
from .numerics import uniform_log_density, update_pi
from .vmf import EmbeddingSequence

logger = logging.getLogger(__name__)


@dataclass
class JointModel:
    """Joint model state: spatial covariances, vMF prototypes and tied priors.

    ``lognorm`` holds the vMF log normalizers ``ln c(kappa)`` where the
    M-step handed them on with the concentrations; the E-step computes them
    from ``kappa`` where it is None.
    """

    covariances: np.ndarray  # (K, F, C, C) Hermitian PD
    mu: np.ndarray  # (K, E) unit prototypes
    kappa: np.ndarray  # (K,) concentrations
    pi: np.ndarray  # (K, T)
    noise_index: int | None = None
    lognorm: np.ndarray | None = None  # (K,)

    def __post_init__(self):
        self.covariances = np.asarray(self.covariances, dtype=complex)
        shape = self.covariances.shape
        if len(shape) != 4 or shape[2] != shape[3]:
            raise InvalidInputError("covariances must have shape (K, F, C, C)")
        self.mu = np.asarray(self.mu, dtype=float)
        self.kappa = np.asarray(self.kappa, dtype=float)
        _vmf.check_prototypes(self.mu, self.kappa, shape[0])
        self.pi = np.asarray(self.pi, dtype=float)
        if self.pi.shape[0] != shape[0]:
            raise InvalidInputError("pi rows must match the component count")
        if self.noise_index is not None and not 0 <= self.noise_index < shape[0]:
            raise InvalidInputError("noise index out of range")
        if self.lognorm is not None and np.shape(self.lognorm) != self.kappa.shape:
            raise InvalidInputError("lognorm must hold one value per component")

    @property
    def num_components(self) -> int:
        return self.covariances.shape[0]

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
    kappa_max: float = _vmf.KAPPA_MAX
    fusion: str = "spectral"  # spectral | none
    tau_spectral: float = 0.7
    fusion_start: int = 10
    noise_index: int | None = None
    freeze_spatial: bool = False
    seed: int = 0

    def __post_init__(self):
        _vmf.check_kappa_max(self.kappa_max)
        check_tau(self.tau_spectral, "tau_spectral")


def check_tau(tau: float, name: str = "tau"):
    """Raise unless the fusion threshold ``tau`` lies in (0, 1)."""
    if not 0.0 < tau < 1.0:
        raise ConfigurationError(f"{name} must lie in (0, 1), got {tau!r}")


def joint_m_step(
    embeddings: EmbeddingSequence,
    gbar: np.ndarray,
    covariances: np.ndarray,
    pi: np.ndarray,
    kappa_max: float,
    rng: np.random.Generator | None,
    noise_index: int | None,
) -> JointModel:
    """The vMF M-step of the joint EM, and the model it completes.

    The prototypes are refitted on the (K, T) frequency-summed posteriors
    ``gbar`` (:func:`vmf.vmf_m_step`), which hands the next E-step its log
    normalizers with the concentrations. The noise component's kappa stays
    0 (it has no embedding identity), with the closed-form normalizer at 0.
    The covariances and priors ``pi`` of the same M-step come in as they
    are, from the Tyler update and :func:`numerics.update_pi` on ``gbar``.
    """
    mu, kappa, lognorm = _vmf.vmf_m_step(embeddings, gbar, kappa_max, rng)
    if noise_index is not None:
        kappa[noise_index] = 0.0
        lognorm[noise_index] = uniform_log_density(embeddings.dim)
    return JointModel(covariances, mu, kappa, pi, noise_index, lognorm)


def fused_covariances(model: JointModel, keep: int, remove: int) -> np.ndarray:
    """The (K-1, F, C, C) covariance stack after fusing ``remove`` into ``keep``.

    ``remove``'s row is dropped, and ``keep``'s row becomes the
    prior-mass-weighted average of the pair. :func:`joint_em` passes the
    stack to :func:`cacg.em_sweep`, which merges the posteriors in place.
    """
    mass_i = float(model.pi[keep].sum())
    mass_j = float(model.pi[remove].sum())
    total = mass_i + mass_j
    w_i = mass_i / total if total > 0.0 else 0.5
    covariances = np.delete(model.covariances, remove, axis=0)
    covariances[keep if keep < remove else keep - 1] = (
        w_i * model.covariances[keep] + (1.0 - w_i) * model.covariances[remove]
    )
    return covariances


def spectral_fusion_check(model: JointModel, tau: float, iteration: int = 0):
    """Decide whether the most similar pair of prototypes fuses: its cosine
    exceeds tau.

    At most one fusion per call. The noise component never takes part, and
    the last speaker component has no partner. Ties go to the first pair
    in row-major order of the upper triangle. The check reads the
    prototypes alone and changes nothing: :func:`joint_em` applies the
    fusion, where the posteriors add exactly and the spatial covariances
    combine as the prior-mass-weighted average (:func:`fused_covariances`).

    Returns:
        The :class:`FusionEvent`, or None.
    """
    check_tau(tau)
    speakers = model.speaker_indices()
    if len(speakers) < 2:
        return None
    mu = model.mu[speakers]
    scores = mu @ mu.T
    scores[np.tri(len(speakers), dtype=bool)] = -np.inf  # only pairs a < b compete
    a, b = divmod(int(scores.argmax()), len(speakers))
    if scores[a, b] <= tau:
        return None
    return FusionEvent(
        kept=speakers[a], removed=speakers[b], similarity=float(scores[a, b]), iteration=iteration
    )


def _initial_model(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    init: np.ndarray,
    config: JointEmConfig,
    rng: np.random.Generator,
    features: np.ndarray,
) -> JointModel:
    c = x.num_channels
    identity = np.broadcast_to(np.eye(c, dtype=complex), (init.shape[0], x.num_bins, c, c))
    if config.freeze_spatial:
        covariances = identity.copy()
    else:
        covariances = _cacg.cacg_m_step(init, identity, 1.0, features)
    # the priors are the frequency mean of the posterior, of its one plane
    # where the frequency axis is broadcast
    pi = (init[:, :, :1] if init.strides[2] == 0 else init).mean(axis=2)
    return joint_m_step(
        embeddings, init.sum(axis=2), covariances, pi, config.kappa_max, rng, config.noise_index
    )


def _logits(model: JointModel, embeddings: EmbeddingSequence) -> np.ndarray:
    """(K, T) prior and vMF log factors of the coupled E-step: the vMF term,
    replicated along frequency, is formed once per frame, with the
    normalizers the M-step handed on in ``model.lognorm``."""
    with np.errstate(divide="ignore"):
        log_pi = np.log(model.pi)
    return _vmf.log_pdf_matrix(model.mu, model.kappa, embeddings.frames, model.lognorm, log_pi)


def joint_em(
    x: StftTensor,
    embeddings: EmbeddingSequence,
    init: np.ndarray,
    config: JointEmConfig,
):
    """Run the integrated EM from an initial (K, T, F) posterior ``init``.

    The algorithm starts with an M-step on the initial posterior (the Tyler
    update :func:`cacg.cacg_m_step` from identity covariances, unless the
    spatial model is frozen, and :func:`joint_m_step` with the frequency
    mean of ``init`` as the priors) and then alternates E- and M-steps.
    From ``fusion_start`` on, spectral fusion may merge one pair of
    components after each E-step. The log-likelihood trace is
    non-decreasing between iterations with an equal component count;
    fusion steps may move the value.

    The fusion decision reads only the prototypes, which the E-step leaves
    as they are, so each iteration decides it first and then runs as one
    :func:`cacg.em_sweep` over blocks of frequencies: per block the E-step, the in-place merge of the fused
    pair's posteriors and the Tyler update, which every covariance is
    factorized once for. The prior update (:func:`numerics.update_pi`) and
    the vMF M-step (:func:`joint_m_step`) then read the frequency sums of
    the whole posterior. Each E-step after the first writes into the buffer
    of the posterior before it (after a fusion, into its leading rows). All
    cACG kernels read one outer-product feature array Φ
    (:func:`cacg.outer_features`), built block by block from ``x`` and
    freed when the run returns. One run thus holds ``x``, Φ, one
    (K, T, F) posterior and one block's temporaries, which the sweep keeps
    within about one L2 cache (:data:`cacg.SWEEP_BLOCK_BYTES`).

    With ``kappa_max = 0`` and no fusion every vMF density is ``ln c(0)``:
    the run is the cACGMM (Ito, Araki & Nakatani 2016), its log-likelihood
    the cACGMM's plus ``T F ln c(0)``. With ``freeze_spatial`` the identity
    covariances' cACG density is one constant: each bin of a frame takes the
    posterior of a VMFMM with time-varying priors.

    Returns:
        ``(model, gamma, fusion_events, loglik_trace)``, ``gamma`` the
        final (K', T, F) posterior.
    """
    if config.iterations < 1:
        raise ConfigurationError("iterations must be >= 1")
    if config.fusion not in ("spectral", "none"):
        raise ConfigurationError(f"unknown fusion strategy {config.fusion!r}")
    init = np.asarray(init, dtype=float)
    if embeddings.num_frames != x.num_frames:
        raise InvalidInputError("embedding frames do not match STFT frames")
    if init.shape[1:] != (x.num_frames, x.num_bins):
        raise InvalidInputError("initial posterior does not match observations")
    if init.shape[0] < 1:
        raise ConfigurationError("need at least one component")
    _cacg.check_posterior(init)

    rng = np.random.default_rng(config.seed)
    features = _cacg.outer_features(x)
    model = _initial_model(x, embeddings, init, config, rng, features)
    events: list[FusionEvent] = []
    trace = []
    spent = None
    for it in range(config.iterations):
        event = None
        if config.fusion == "spectral" and it >= config.fusion_start:
            event = spectral_fusion_check(model, config.tau_spectral, it)
        fused, merge, noise = model.covariances, None, model.noise_index
        if event is not None:
            logger.debug("fused components %d <- %d at iteration %d", event.kept, event.removed, it)
            events.append(event)
            fused = fused_covariances(model, event.kept, event.removed)
            merge = (event.kept, event.removed, fused)
            if noise is not None and event.removed < noise:
                noise -= 1
        gamma, ll, covariances = _cacg.em_sweep(
            model.covariances, _logits(model, embeddings), features,
            spent, merge, update=not config.freeze_spatial,
        )
        trace.append(ll)
        if covariances is None:
            covariances = fused
        gbar = gamma.sum(axis=2)
        pi = update_pi(gbar, x.num_bins)
        model = joint_m_step(embeddings, gbar, covariances, pi, config.kappa_max, rng, noise)
        # the posterior is spent: the next E-step writes into its buffer
        spent = gamma.swapaxes(1, 2)
    return model, gamma, events, np.asarray(trace)
