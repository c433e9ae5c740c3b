"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole suite stays within the stated runtime budgets on a laptop.
"""

import json
import math
import time

import numpy as np
import pytest
import reference
from helpers import (
    identity_stack,
    kmeans_init_posterior,
    random_soft_posterior,
    spatial_em,
    tiny_scenario,
    tyler_step,
    unit_observations,
)
from scipy.optimize import linear_sum_assignment

from mixsep import frontend, pipeline, rttm
from mixsep.cacg import em_sweep, outer_features
from mixsep.cli import RunConfig
from mixsep.integrated import (
    JointEmConfig,
    JointModel,
    fused_covariances,
    joint_em,
    spectral_fusion_check,
)
from mixsep.metrics import counting_matrix, der, mask_auc, si_sdr
from mixsep.numerics import log_vmf_normalizer
from mixsep.synth import ScenarioConfig, SegmentPlan, build_meeting, sample_vmf
from mixsep.vmf import EmbeddingSequence, vmf_m_step, vmfmm_em


def report(criterion, message):
    print(f"\n[acceptance criterion {criterion}] PASS: {message}")


def spaced_unit_vectors(rng, dim, count):
    return np.linalg.qr(rng.standard_normal((dim, count)))[0].T


# ---------------------------------------------------------------------------
# 1. EM monotonicity over >= 20 seeded runs for all three models


def test_criterion_01_em_monotonicity():
    t0 = time.time()
    tol = 1e-6

    # VMFMM: 20 random initializations
    rng = np.random.default_rng(0)
    mus = spaced_unit_vectors(rng, 8, 3)
    frames = np.concatenate([sample_vmf(mu, 12.0, 60, seed=50 + i) for i, mu in enumerate(mus)])
    seq = EmbeddingSequence(frames)
    for trial in range(20):
        trial_rng = np.random.default_rng(1000 + trial)
        raw = trial_rng.uniform(0.05, 1.0, size=(3, seq.num_frames))
        _, _, trace = vmfmm_em(seq, raw / raw.sum(axis=0, keepdims=True), 15, kappa_max=35.0)
        assert np.all(np.diff(trace) >= -tol * np.abs(trace[:-1]))

    # cACGMM (the joint EM at kappa_max 0, its trace less T F ln c(0)): 20
    # seeded scenes and initializations
    for trial in range(20):
        cfg = tiny_scenario([0, 1], duration_s=4.0, seed=200 + trial, channels=2)
        x, e, truth, _ = build_meeting(cfg)
        init = random_soft_posterior(
            np.random.default_rng(trial), 2, x.num_frames, x.num_bins
        )
        _, _, trace = spatial_em(x, init, 15, e)
        assert np.all(np.diff(trace) >= -tol * np.abs(trace[:-1]))

    # VMFcACGMM with fusion: piecewise between fusion events
    for trial in range(20):
        cfg = tiny_scenario([0, 1], duration_s=5.0, seed=300 + trial)
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 4, x.num_bins, seed=trial)
        jcfg = JointEmConfig(
            iterations=15, fusion="spectral", fusion_start=4, noise_index=4, seed=trial
        )
        _, _, events, trace = joint_em(x, e, init, jcfg)
        fusion_iters = {ev.iteration for ev in events}
        for i in range(len(trace) - 1):
            if i in fusion_iters:
                continue
            assert trace[i + 1] >= trace[i] - tol * abs(trace[i])

    elapsed = time.time() - t0
    assert elapsed < 120.0
    report(1, f"log-likelihood non-decreasing (1e-6 rel) over 3x20 seeded runs in {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 2. Density normalization by Monte-Carlo at 1e6 samples


def sphere_area(dim):
    return math.exp(math.log(2.0) + (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0))


def vmf_integral(dim, kappa, n, seed):
    """Uniform proposal for kappa = 0, otherwise importance sampling from
    the (independent, rejection-based) sampler at 0.8 * kappa."""
    mu = np.zeros(dim)
    mu[0] = 1.0
    if kappa == 0.0:
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, dim))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        dens = np.exp(log_vmf_normalizer(dim, 0.0) + 0.0 * (x @ mu))
        return sphere_area(dim) * dens.mean()
    proposal = 0.8 * kappa
    x = sample_vmf(mu, proposal, n, seed)
    log_ratio = (log_vmf_normalizer(dim, kappa) + kappa * (x @ mu)) - (
        log_vmf_normalizer(dim, proposal) + proposal * (x @ mu)
    )
    return float(np.exp(log_ratio).mean())


def cacg_integral(b, n, seed):
    rng = np.random.default_rng(seed)
    c = b.shape[0]
    z = rng.standard_normal((n, c)) + 1j * rng.standard_normal((n, c))
    z /= np.linalg.norm(z, axis=1, keepdims=True)
    quad = np.einsum("nc,cd,nd->n", z.conj(), np.linalg.inv(b), z).real
    dens = math.gamma(c) / (2.0 * math.pi**c * np.linalg.det(b).real) / quad**c
    area = 2.0 * math.pi**c / math.gamma(c)
    return float(area * dens.mean())


def test_criterion_02_density_normalization():
    n = 1_000_000
    worst = 0.0
    for dim in (3, 8, 64):
        for kappa in (0.0, 5.0, 35.0):
            value = vmf_integral(dim, kappa, n, seed=11 * dim + int(kappa))
            worst = max(worst, abs(value - 1.0))
            assert abs(value - 1.0) < 0.01, f"vMF E={dim} kappa={kappa}: {value}"
    # additional uniform-proposal anchor for the Bessel branch at small dim
    rng = np.random.default_rng(5)
    x = rng.standard_normal((n, 3))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    mu = np.array([1.0, 0.0, 0.0])
    dens = np.exp(log_vmf_normalizer(3, 5.0) + 5.0 * (x @ mu))
    anchor = sphere_area(3) * dens.mean()
    assert abs(anchor - 1.0) < 0.01

    rng = np.random.default_rng(7)
    for c in (2, 4):
        iso = np.eye(c).astype(complex)
        a = rng.standard_normal((c, c)) + 1j * rng.standard_normal((c, c))
        aniso = 3.0 * (a @ a.conj().T) / c + 0.3 * np.eye(c)
        for label, b in (("iso", iso), ("aniso", aniso)):
            value = cacg_integral(b, n, seed=31 * c + len(label))
            worst = max(worst, abs(value - 1.0))
            assert abs(value - 1.0) < 0.01, f"cACG C={c} {label}: {value}"
    report(2, f"13 Monte-Carlo integrals within 1% of 1 at 1e6 samples (worst {worst:.4f})")


# ---------------------------------------------------------------------------
# 3. Parameter recovery from 5000 samples


def test_criterion_03_parameter_recovery():
    rng = np.random.default_rng(3)
    mu_true = rng.standard_normal(16)
    mu_true /= np.linalg.norm(mu_true)
    frames = sample_vmf(mu_true, 20.0, 5000, seed=77)
    (mu,), (kappa,), _ = vmf_m_step(
        EmbeddingSequence(frames), np.ones((1, 5000)), kappa_max=1000.0
    )
    cosine = float(mu @ mu_true)
    kappa_err = abs(kappa - 20.0) / 20.0
    assert cosine >= 0.999
    assert kappa_err <= 0.10

    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b_true = 4.0 * (a @ a.conj().T) / 4.0 + 0.1 * np.eye(4)
    draws = reference.sample_cacg(b_true, 5000, seed=78)
    from mixsep.cacg import StftTensor

    tensor = StftTensor(draws.T[:, :, None], 8000, 512, 400, 128)
    gamma = np.ones((1, 5000, 1))
    covs = identity_stack(1, 1, 4)
    for _ in range(10):
        covs = tyler_step(tensor, gamma, covs)

    def normalize_trace(m):
        return m * (m.shape[-1] / np.einsum("ii->", m).real)

    got = normalize_trace(covs[0, 0])
    want = normalize_trace(b_true)
    frob = np.linalg.norm(got - want) / np.linalg.norm(want)
    assert frob <= 0.05
    report(
        3,
        f"vMF cosine {cosine:.5f}, kappa error {100 * kappa_err:.1f}%; "
        f"Tyler Frobenius error {100 * frob:.1f}% at 5000 samples",
    )


# ---------------------------------------------------------------------------
# 4. Reduction equivalences at 1e-9


def test_criterion_04_reduction_equivalences():
    x, e, truth, _ = build_meeting(tiny_scenario([0, 1], duration_s=5.0, seed=11))
    rng = np.random.default_rng(4)
    init = random_soft_posterior(rng, 2, x.num_frames, x.num_bins)

    jcfg = JointEmConfig(iterations=12, kappa_max=0.0, fusion="none", seed=0)
    _, post_joint, _, _ = joint_em(x, e, init, jcfg)
    _, post_cacg, _, _ = reference.cacgmm_em(x, init, 12)
    gap_spatial = float(np.max(np.abs(post_joint - post_cacg)))
    assert gap_spatial < 1e-9

    jcfg = JointEmConfig(
        iterations=12, kappa_max=35.0, fusion="none", freeze_spatial=True, seed=0
    )
    _, post_joint, _, _ = joint_em(x, e, init, jcfg)
    _, resp, _ = reference.vmfmm_em(
        e, init.mean(axis=2), 12, kappa_max=35.0, prior_mode="per_frame"
    )
    # documented relationship: per-bin posteriors equal the per-frame VMFMM
    # posteriors with time-varying priors; the frequency replication scales
    # the M-step weights by F, which cancels in every parameter update
    spread = float(np.max(np.abs(post_joint - post_joint[:, :, :1])))
    gap_spectral = float(np.max(np.abs(post_joint[:, :, 0] - resp)))
    assert spread < 1e-12
    assert gap_spectral < 1e-9
    report(
        4,
        f"kappa=0 joint vs cACGMM gap {gap_spatial:.2e}; frozen-identity-B joint vs "
        f"per-frame VMFMM gap {gap_spectral:.2e}",
    )


# ---------------------------------------------------------------------------
# 5. Mask recovery at C=4, F=129, T~1000


def mask_scene(k, seed, shared=None):
    return ScenarioConfig(
        k_true=k,
        segments=[SegmentPlan(8.0, list(range(k)))],
        channels=4,
        embed_dim=16,
        sample_rate=8000,
        stft_size_ms=32.0,
        window_ms=25.0,
        shift_ms=8.0,
        kappa_true=30.0,
        anisotropy=4.0,
        overlap=0.25,
        gap_s=0.4,
        block_s=1.2,
        seed=seed,
        spatial_groups=shared,
    )


def blind_init(rng, n_comp, n_frames, n_bins):
    labels = rng.integers(0, n_comp, size=n_frames)
    gamma_t = np.full((n_comp, n_frames), 0.1 / (n_comp - 1))
    gamma_t[labels, np.arange(n_frames)] = 0.9
    gamma_t /= gamma_t.sum(axis=0, keepdims=True)
    return np.repeat(gamma_t[:, :, None], n_bins, axis=2)


def test_criterion_05_mask_recovery():
    t0 = time.time()
    aucs = {}
    for label, k, seed, shared in (
        ("2src", 2, 11, None),
        ("3src", 3, 7, None),
        ("3src-sharedB", 3, 7, [[0, 1]]),
    ):
        cfg = mask_scene(k, seed, shared)
        x, e, truth, _ = build_meeting(cfg)
        assert x.num_bins == 129
        assert x.num_frames >= 1000
        init = blind_init(np.random.default_rng(99), k, x.num_frames, x.num_bins)
        _, post_c, _ = spatial_em(x, init, 40, e)
        _, post_j, _, _ = joint_em(
            x, e, init, JointEmConfig(iterations=40, fusion="none", seed=0)
        )
        aucs[label] = (mask_auc(post_c, truth.masks), mask_auc(post_j, truth.masks))
    assert aucs["2src"][0] >= 0.95
    assert aucs["3src"][0] >= 0.95
    # degraded spatial cues: the joint model is strictly better
    assert aucs["3src-sharedB"][1] > aucs["3src-sharedB"][0]
    elapsed = time.time() - t0
    assert elapsed < 300.0
    report(
        5,
        "cACGMM AUC {:.3f}/{:.3f} (2/3 sources); degraded-B: cACGMM {:.3f} < "
        "VMFcACGMM {:.3f}; {}s".format(
            aucs["2src"][0], aucs["3src"][0], aucs["3src-sharedB"][0],
            aucs["3src-sharedB"][1], int(elapsed),
        ),
    )


# ---------------------------------------------------------------------------
# 6. Speaker counting on 200 synthetic segments


def test_criterion_06_speaker_counting():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    truths, estimates = [], []
    for i in range(200):
        n_active = int(rng.integers(1, 6))
        active = sorted(rng.choice(8, size=n_active, replace=False).tolist())
        cfg = tiny_scenario(
            active, k_true=8, duration_s=3.2, overlap=0.15, seed=100 + i,
            channels=3, embed_dim=24,
        )
        x, e, truth, _ = build_meeting(cfg)
        init = kmeans_init_posterior(e, truth.voiced, 8, x.num_bins, seed=i)
        jcfg = JointEmConfig(
            iterations=22, fusion="spectral", tau_spectral=0.7, fusion_start=6,
            noise_index=8, seed=i,
        )
        model, _, _, _ = joint_em(x, e, init, jcfg)
        truths.append(n_active)
        estimates.append(len(model.speaker_indices()))  # components, noise excluded
    matrix = counting_matrix(truths, estimates)
    accuracy = matrix.accuracy
    max_under = int(np.max(np.array(truths) - np.array(estimates)))
    assert accuracy >= 0.90
    assert max_under <= 1
    elapsed = time.time() - t0
    lines = ["    estimated 1..8"]
    for row in matrix.counts:
        lines.append("    " + " ".join(f"{v:4d}" for v in row))
    print("\n".join(lines))
    report(
        6,
        f"counting accuracy {accuracy:.3f} ({matrix.correct}/{matrix.total}), "
        f"max underestimate {max_under}, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 7. Fusion algebra on constructed inputs


def test_criterion_07_fusion_algebra():
    rng = np.random.default_rng(7)
    n_frames, n_bins, n_chan = 12, 5, 3
    x = unit_observations(rng, n_chan, n_frames, n_bins)
    pi = rng.uniform(0.1, 1.0, size=(3, n_frames))
    pi /= pi.sum(axis=0, keepdims=True)
    covs = []
    for _ in range(3):
        a = rng.standard_normal((n_bins, n_chan, n_chan)) + 1j * rng.standard_normal(
            (n_bins, n_chan, n_chan)
        )
        c = np.einsum("fij,fkj->fik", a, a.conj()) + 0.1 * np.eye(n_chan)
        covs.append(c)
    mu = rng.standard_normal(8)
    mu /= np.linalg.norm(mu)
    other = rng.standard_normal(8)
    other -= (other @ mu) * mu
    other /= np.linalg.norm(other)
    model = JointModel(
        np.stack(covs),
        np.stack([mu, mu, other]),
        np.full(3, 10.0),
        pi,
    )
    event = spectral_fusion_check(model, tau=0.9)
    assert event is not None and (event.kept, event.removed) == (0, 1)
    fused = fused_covariances(model, event.kept, event.removed)
    # posteriors add exactly in the sweep's in-place merge
    features, logits = outer_features(x), np.log(pi)
    gamma = em_sweep(model.covariances, logits, features, update=False)[0]
    merged = em_sweep(model.covariances, logits, features, merge=(0, 1, fused), update=False)[0]
    assert merged.shape == (2, n_frames, n_bins)
    assert np.array_equal(merged[0], gamma[0] + gamma[1])
    assert np.array_equal(merged[1], gamma[2])
    # covariances combine as the prior-mass-weighted average
    m0, m1 = pi[0].sum(), pi[1].sum()
    expected = (m0 * covs[0] + m1 * covs[1]) / (m0 + m1)
    gap = np.max(np.abs(fused[0] - expected))
    scale = np.max(np.abs(expected))
    assert gap <= 1e-14 * scale
    assert np.array_equal(fused[1], covs[2])
    report(7, f"fused gamma exact, fused B within {gap:.2e} of the weighted average")


# ---------------------------------------------------------------------------
# 8. Segment alignment across permuted local labels


def test_criterion_08_segment_alignment():
    recovered = 0
    total = 0
    for meeting in range(10):
        rng = np.random.default_rng(800 + meeting)
        protos = spaced_unit_vectors(rng, 16, 4)
        sims = np.abs(protos @ protos.T - np.eye(4))
        assert sims.max() <= 0.3  # prototype cosine separation
        results = []
        truth_map = {}
        for si in range(4):
            perm = rng.permutation(4)
            jitter = protos[perm] + 0.05 * rng.standard_normal((4, 16))
            jitter /= np.linalg.norm(jitter, axis=1, keepdims=True)
            utts = [[(si * 100.0 + i * 10.0, si * 100.0 + i * 10.0 + 5.0)] for i in range(4)]
            seg = frontend.SegmentSpec(si * 1000, si * 1000 + 500, f"seg{si:03d}")
            results.append(
                pipeline.SegmentResult(
                    prototypes=jitter,
                    segment=seg,
                    utterances=utts,
                )
            )
            for local, true_speaker in enumerate(perm):
                truth_map[(f"seg{si:03d}", utts[local][0][0])] = int(true_speaker)
        dia = pipeline._align_with_mapping(results, 0.7, 4)[0]
        # identity recovery: one global label per true speaker, consistently
        label_of_truth = {}
        ok = True
        for spk, start, end, seg_id in dia.entries:
            true_speaker = truth_map[(seg_id, start)]
            if label_of_truth.setdefault(true_speaker, spk) != spk:
                ok = False
        if len(set(label_of_truth.values())) != 4:
            ok = False
        recovered += int(ok)
        total += 1
    assert recovered == total == 10
    report(8, "global identity recovery 10/10 meetings with permuted local labels")


# ---------------------------------------------------------------------------
# 9. End to end: DER, SI-SDR, determinism


def test_criterion_09_end_to_end(tmp_path):
    t0 = time.time()
    cfg = tiny_scenario(
        None,
        k_true=3,
        segments=[
            SegmentPlan(8.0, [0, 1]),
            SegmentPlan(8.0, [1, 2]),
            SegmentPlan(8.0, [0, 2]),
            SegmentPlan(8.0, [0, 1, 2]),
        ],
        overlap=0.2,
        seed=42,
        channels=4,
    )
    x_model, emb, truth, audio = build_meeting(cfg)
    config = RunConfig(
        stft_size_ms=32.0, window_ms=25.0, shift_ms=8.0,
        vad_window_s=12.0, vad_threshold_db=8.0,
        max_segment_s=9.0, min_segment_s=1.0,
        k_init=5, em_iterations=40, init_iterations=20, k_total=3, seed=1,
    )
    dia, speaker_audio, _ = pipeline.run_meeting(audio, emb, config)
    ref = [(f"spk{k:02d}", s, t) for k, spans in truth.activity.items() for s, t in spans]
    rate = der(ref, dia.turns(), collar_s=0.25)[0]
    assert rate < 0.10

    labels = sorted(speaker_audio)
    assert len(labels) == 3
    gains = np.full((len(labels), 3), -99.0)
    mix = audio.samples[0]
    for i, label in enumerate(labels):
        track = speaker_audio[label]
        for k in range(3):
            image = truth.source_images[k][: len(track)]
            active = (np.abs(image) > 0) & (np.abs(track) > 1e-12)
            if active.sum() < 1000:
                continue
            gains[i, k] = si_sdr(image[active], track[active]) - si_sdr(
                image[active], mix[: len(track)][active]
            )
    rows, cols = linear_sum_assignment(-gains)
    matched = [gains[r, c] for r, c in zip(rows, cols)]
    assert len(matched) == 3
    assert all(g > 5.0 for g in matched)

    # byte-identical RTTM on rerun with the same seed
    dia2, _, _ = pipeline.run_meeting(audio, emb, config)
    p1, p2 = tmp_path / "a.rttm", tmp_path / "b.rttm"
    rttm.write_rttm(p1, dia.turns(), "meeting")
    rttm.write_rttm(p2, dia2.turns(), "meeting")
    assert p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - t0
    assert elapsed < 600.0
    report(
        9,
        f"DER {rate:.3f}, SI-SDR gains {[round(float(g), 1) for g in matched]} dB, "
        f"byte-identical RTTM, {elapsed:.0f}s",
    )


# ---------------------------------------------------------------------------
# 10. Counting-matrix arithmetic on the reference tallies


def test_criterion_10_counting_matrix_arithmetic():
    from test_metrics import COUNTING_TALLIES

    truths, estimates = [], []
    for t in range(8):
        for e in range(8):
            truths.extend([t + 1] * COUNTING_TALLIES[t, e])
            estimates.extend([e + 1] * COUNTING_TALLIES[t, e])
    matrix = counting_matrix(truths, estimates)
    # the metric reproduces the per-cell tallies exactly: 596 correct
    # segments of 715, accuracy 83.4%
    assert matrix.correct == 596
    assert matrix.total == 715
    assert matrix.accuracy == pytest.approx(596.0 / 715.0)
    assert round(596.0 / 715.0, 2) in (0.83, 0.84)
    report(
        10,
        "counting matrix reproduces the reference tallies exactly: "
        "596 correct of 715, accuracy 83.4%",
    )
