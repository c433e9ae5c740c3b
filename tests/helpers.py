"""Shared fixtures for the model-level tests: small, fast synthetic scenes."""

import struct

import numpy as np

from mixsep.cacg import (
    PosteriorTensor,
    StftTensor,
    cacg_m_step,
    normalize_observations,
    outer_features,
)
from mixsep import cacg, numerics, vmf
from mixsep.synth import ScenarioConfig, SegmentPlan, build_meeting
from mixsep.vmf import smooth_one_hot, spherical_kmeans_pp


def count_series_calls(monkeypatch):
    """A list that grows by one for every ``bessel_i_series`` call."""
    calls = []
    series = numerics.bessel_i_series

    def spy(nu, kappa):
        calls.append(np.size(kappa))
        return series(nu, kappa)

    monkeypatch.setattr(numerics, "bessel_i_series", spy)
    monkeypatch.setattr(vmf, "bessel_i_series", spy)
    return calls


def wav_bytes(fmt_chunk: bytes, payload: bytes) -> bytes:
    """A RIFF/WAVE file of one ``fmt `` chunk (any bytes) and one data chunk."""
    body = b"WAVE" + b"fmt " + struct.pack("<I", len(fmt_chunk)) + fmt_chunk
    body += b"data" + struct.pack("<I", len(payload)) + payload
    return b"RIFF" + struct.pack("<I", len(body)) + body


def tiny_scenario(
    active,
    duration_s=6.0,
    k_true=None,
    overlap=0.2,
    kappa_true=30.0,
    seed=0,
    channels=3,
    embed_dim=16,
    spatial_groups=None,
    segments=None,
):
    """A low-rate scenario (F=33, frame rate 125) that builds in milliseconds."""
    if segments is None:
        segments = [SegmentPlan(duration_s, list(active))]
    if k_true is None:
        k_true = max(max(p.active) for p in segments) + 1
    return ScenarioConfig(
        k_true=k_true,
        segments=segments,
        channels=channels,
        embed_dim=embed_dim,
        sample_rate=2000,
        stft_size_ms=32.0,
        window_ms=25.0,
        shift_ms=8.0,
        kappa_true=kappa_true,
        anisotropy=4.0,
        overlap=overlap,
        gap_s=0.6,
        block_s=1.2,
        seed=seed,
        spatial_groups=spatial_groups,
    )


def random_soft_posterior(rng, n_comp, n_frames, n_bins, replicate=True):
    """Frame-level random soft assignment, replicated over frequency."""
    labels = rng.integers(0, n_comp, size=n_frames)
    gamma_t = np.full((n_comp, n_frames), 0.1 / max(n_comp - 1, 1))
    gamma_t[labels, np.arange(n_frames)] = 0.9
    gamma_t /= gamma_t.sum(axis=0, keepdims=True)
    gamma = np.repeat(gamma_t[:, :, None], n_bins, axis=2)
    return PosteriorTensor(gamma, gamma_t.copy())


def kmeans_init_posterior(embeddings, voiced, n_clusters, n_bins, seed=0, with_noise=True):
    """k-means++ one-hot responsibilities, smoothed, noise on silence frames."""
    from mixsep.vmf import EmbeddingSequence

    n_frames = embeddings.num_frames
    idx = np.flatnonzero(voiced)
    sub = EmbeddingSequence(embeddings.frames[idx], embeddings.frame_rate)
    assign = smooth_one_hot(spherical_kmeans_pp(sub, n_clusters, seed))
    rows = n_clusters + (1 if with_noise else 0)
    gamma_t = np.zeros((rows, n_frames))
    gamma_t[:n_clusters, idx] = assign
    if with_noise:
        gamma_t[n_clusters, ~voiced] = 1.0
    else:
        gamma_t[:, ~voiced] = 1.0 / n_clusters
    gamma = np.repeat(gamma_t[:, :, None], n_bins, axis=2)
    return PosteriorTensor(gamma, gamma_t.copy())


def unit_observations(rng, c, t, f):
    """(C, T, F) random complex observations, every channel vector of unit norm."""
    data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
    return normalize_observations(StftTensor(data, 2000, 64, 50, 16))


def identity_stack(k, f, c):
    """(K, F, C, C) identity covariances."""
    return np.broadcast_to(np.eye(c, dtype=complex), (k, f, c, c)).copy()


def assert_exactly_hermitian(covariances):
    """Each (..., C, C) matrix equals its conjugate transpose to the bit, with
    a real diagonal."""
    assert np.array_equal(covariances, np.conj(np.swapaxes(covariances, -1, -2)))
    assert not np.einsum("...ii->...i", covariances).imag.any()


def plain_forms(covariances, features):
    """(K, F, T) forms ``y^H B^{-1} y`` of a (K, F, C, C) stack on features,
    by the kernels the EM's sweep runs: one factorization
    (``cacg._form_coefficients``) and one GEMM (``cacg._forms``)."""
    return cacg._forms(cacg._form_coefficients(covariances)[1], features)


def tyler_step(x, posterior, prev):
    """One ``cacg_m_step`` on unit observations ``x``, weighted by the
    quadratic forms of the previous (K, F, C, C) covariances ``prev``."""
    features = outer_features(x)
    return cacg_m_step(posterior, prev, plain_forms(prev, features), features)
