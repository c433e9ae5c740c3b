import logging
import math

import numpy as np
import pytest
import reference
from helpers import (
    assert_exactly_hermitian,
    identity_stack,
    kmeans_init_posterior,
    plain_forms,
    spatial_em,
    tiny_scenario,
    tyler_step,
)
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import HermitianPD, cacg_log_pdf, cholesky_logdet_solve, logsumexp, sample_cacg

from mixsep import cacg
from mixsep.cacg import (
    COV_LOADING,
    StftTensor,
    cacg_log_pdf_stack,
    cacg_m_step,
    em_sweep,
    normalize_observations,
    outer_features,
    scatter_matrices,
)
from mixsep.errors import ConfigurationError, InvalidInputError, NumericalError
from mixsep.integrated import JointEmConfig, joint_em
from mixsep.metrics import mask_auc
from mixsep.numerics import PRIOR_FLOOR, _load_stack, chol_logdet_quad, normalize_logits, update_pi
from mixsep.synth import build_meeting


def tensor(data, sample_rate=8000):
    return StftTensor(np.asarray(data, dtype=complex), sample_rate, 512, 400, 128)


def e_step(covariances, pi, features, spectral=0.0):
    """One :func:`em_sweep` from priors and a spectral term: ``(gamma,
    loglik, covariances)``, the last the Tyler update of ``covariances``."""
    with np.errstate(divide="ignore"):
        logits = np.log(pi) + spectral
    return em_sweep(covariances, logits, features)


def fusion_run():
    """Inputs of a short joint EM run on a small scene that fuses components."""
    scene = tiny_scenario([0, 1, 2], duration_s=8.0, overlap=0.1, seed=9, embed_dim=24)
    x, e, truth, _ = build_meeting(scene)
    init = kmeans_init_posterior(e, truth.voiced, 6, x.num_bins, seed=2)
    jcfg = JointEmConfig(
        iterations=10, fusion="spectral", tau_spectral=0.7, fusion_start=3, noise_index=6, seed=0
    )
    return x, e, init, jcfg


def random_b(rng, dim, spread=4.0):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b = spread * (a @ a.conj().T) / dim + 0.1 * np.eye(dim)
    return HermitianPD(b)


def trace_normalize(mat):
    mat = np.asarray(mat)
    return mat * (mat.shape[-1] / np.einsum("...ii->...", mat).real[..., None, None])


class TestNormalizeObservations:
    def test_simple_vector(self):
        data = np.zeros((2, 1, 1), dtype=complex)
        data[:, 0, 0] = [2.0, 0.0]
        out = normalize_observations(tensor(data))
        assert np.allclose(out.data[:, 0, 0], [1.0, 0.0])

    def test_zero_bin_flagged(self):
        # a zero bin becomes the first canonical basis vector
        data = np.zeros((2, 1, 2), dtype=complex)
        data[:, 0, 1] = [0.0, 3.0j]
        out = normalize_observations(tensor(data))
        assert np.allclose(out.data[:, 0, 0], [1.0, 0.0])
        assert np.allclose(out.data[:, 0, 1], [0.0, 1.0j])

    def test_all_norms_one(self):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((3, 5, 7)) + 1j * rng.standard_normal((3, 5, 7))
        out = normalize_observations(tensor(data))
        assert np.max(np.abs(np.linalg.norm(out.data, axis=0) - 1.0)) < 1e-12

    def test_kernels_read_the_observations_in_place(self, monkeypatch):
        # an EM run builds the outer-product features of its normalized
        # observations once, and every cACG kernel of the run reads a block
        # of that array, fusion re-evaluations included
        built, read = [], []
        real_features, real_forms, real_scatter = (
            cacg.outer_features, cacg._forms, cacg._scatter_sums
        )

        def features(x):
            built.append(real_features(x))
            unit = np.transpose(normalize_observations(x).data, (2, 0, 1))
            assert np.array_equal(built[-1], cacg._outer_rows(unit))  # to the bit
            return built[-1]

        monkeypatch.setattr(cacg, "outer_features", features)
        monkeypatch.setattr(
            cacg, "_forms", lambda c, phi, out=None: read.append(phi) or real_forms(c, phi, out)
        )
        monkeypatch.setattr(
            cacg, "_scatter_sums",
            lambda phi, w, out=None: read.append(phi) or real_scatter(phi, w, out),
        )
        rng = np.random.default_rng(3)
        data = rng.standard_normal((3, 6, 5)) + 1j * rng.standard_normal((3, 6, 5))
        spatial_em(tensor(data), uniform_posterior(2, 6, 5), 3)
        # initial M-step (scatter only: its identity start needs no forms),
        # then an E- and an M-step per iteration, each once per block
        assert len(built) == 1 and len(read) == 1 + 3 * 2
        assert all(phi.base is built[0] for phi in read)
        assert built[0].shape == (5, 9, 6)

        # the initial M-step and each sweep read Φ once per block of their
        # own partitions; a fusion's sweep reads it once more per block,
        # for the kept component's forms
        sweeps = []
        real_sweep = cacg.em_sweep

        def sweep(covariances, logits, features, out=None, merge=None, update=True):
            sweeps.append((covariances.shape[0], merge is not None))
            return real_sweep(covariances, logits, features, out, merge, update)

        monkeypatch.setattr(cacg, "em_sweep", sweep)
        built.clear()
        read.clear()
        x, e, init, jcfg = fusion_run()
        _, _, events, _ = joint_em(x, e, init, jcfg)
        assert events  # the kept component's forms were re-evaluated
        c, t, f = x.num_channels, x.num_frames, x.num_bins
        initial = len(cacg.frequency_blocks(f))
        per_sweep = [(len(cacg._sweep_blocks(k, c, t, f)), fused) for k, fused in sweeps]
        assert len(built) == 1 and initial == 2 and len(sweeps) == jcfg.iterations
        assert sum(fused for _, fused in per_sweep) == len(events)
        # narrower than the 32-bin blocks of the initial M-step, and wider
        # as fusions remove components
        counts = [blocks for blocks, _ in per_sweep]
        assert counts[0] > initial and counts == sorted(counts, reverse=True) and counts[-1] < counts[0]
        assert len(read) == initial + sum(blocks * (3 if fused else 2) for blocks, fused in per_sweep)
        assert all(phi.base is built[0] for phi in read)

    @pytest.mark.parametrize("bins", [1, 7, 31, 32, 33, 129, 257, 513])
    def test_frequency_blocks_are_near_equal(self, bins):
        # the fewest blocks of at most BLOCK_BINS, differing by at most one
        # bin: F = 33 is cut 16 + 17, not 32 + 1
        blocks = cacg.frequency_blocks(bins)
        sizes = [b.stop - b.start for b in blocks]
        assert blocks[0].start == 0 and blocks[-1].stop == bins
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert len(blocks) == math.ceil(bins / cacg.BLOCK_BINS)
        assert max(sizes) <= cacg.BLOCK_BINS and max(sizes) - min(sizes) <= 1
        if bins == 33:
            assert sizes == [16, 17]

    @pytest.mark.parametrize(
        "k, c, t, f",
        [
            (11, 4, 2786, 513),  # the paper's 45 s segment at k_init 10 + noise
            (4, 4, 2786, 513),  # ... after its fusions
            (6, 4, 1000, 129),
            (9, 3, 600, 33),
            (2, 2, 6, 5),
            (3, 8, 40000, 257),  # one bin is over the budget
            (1, 2, 1, 1),
        ],
    )
    def test_sweep_blocks_fit_the_budget(self, k, c, t, f):
        # the fewest near-equal blocks that cover F with each block's working
        # set, 8 (2K + C^2) T bytes per bin, within the budget or one bin wide
        blocks = cacg._sweep_blocks(k, c, t, f)
        sizes = [b.stop - b.start for b in blocks]
        per_bin = 8 * (2 * k + c * c) * t
        assert blocks[0].start == 0 and blocks[-1].stop == f
        assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))
        assert max(sizes) - min(sizes) <= 1
        assert all(n == 1 or n * per_bin <= cacg.SWEEP_BLOCK_BYTES for n in sizes)
        if len(blocks) > 1:  # one block fewer would hold one over the budget
            assert math.ceil(f / (len(blocks) - 1)) * per_bin > cacg.SWEEP_BLOCK_BYTES
        if (k, c, t) == (11, 4, 2786):
            assert sizes == [1] * f

    def test_zero_bins_stay_flagged_frequency_major(self):
        data = np.zeros((2, 3, 4), dtype=complex)
        data[:, 1, 2] = [3.0, 4.0j]
        out = normalize_observations(tensor(data))
        want = np.zeros((2, 3, 4), dtype=complex)
        want[0] = 1.0
        want[:, 1, 2] = [0.6, 0.8j]
        assert np.allclose(out.data, want, rtol=0.0, atol=1e-15)
        assert np.transpose(out.data, (2, 0, 1)).flags.c_contiguous


class TestCacgLogPdf:
    def test_identity_uniform_c7(self):
        rng = np.random.default_rng(4)
        y = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        y /= np.linalg.norm(y)
        want = math.log(720.0) - math.log(2.0) - 7.0 * math.log(math.pi)
        assert abs(cacg_log_pdf(HermitianPD(np.eye(7)), y) - want) < 1e-10

    def test_scale_invariance(self):
        y = np.array([0.6, 0.8j])
        a = cacg_log_pdf(HermitianPD(np.eye(2)), y)
        b = cacg_log_pdf(HermitianPD(2.0 * np.eye(2)), y)
        assert abs(a - b) < 1e-10

    def test_global_phase_invariance_exact(self):
        rng = np.random.default_rng(6)
        b = random_b(rng, 3)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        base = cacg_log_pdf(b, y)
        for phi in (0.3, 1.7, -2.2):
            assert cacg_log_pdf(b, np.exp(1j * phi) * y) == pytest.approx(base, abs=1e-9)

    def test_monte_carlo_normalization_c2(self):
        # uniform draws on the complex sphere; 1e5 here, acceptance runs 1e6
        rng = np.random.default_rng(8)
        b = HermitianPD(np.diag([1.5, 0.5]).astype(complex))
        z = rng.standard_normal((100_000, 2)) + 1j * rng.standard_normal((100_000, 2))
        z /= np.linalg.norm(z, axis=1, keepdims=True)
        quad = np.einsum("nc,cd,nd->n", z.conj(), np.linalg.inv(b.entries), z).real
        dens = math.gamma(2) / (2.0 * math.pi**2 * np.linalg.det(b.entries).real) / quad**2
        area = 2.0 * math.pi**2 / math.gamma(2)
        assert abs(area * dens.mean() - 1.0) < 0.01

    def test_batch_matches_scalar(self):
        rng = np.random.default_rng(10)
        covs = np.stack(
            [np.stack([random_b(rng, 2).entries for _ in range(3)]) for _ in range(2)]
        )  # (K=2, F=3, 2, 2)
        data = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        x = normalize_observations(tensor(data))
        stack, _ = cacg_log_pdf_stack(covs, x, outer_features(x))
        for k in range(2):
            for t in range(4):
                for f in range(3):
                    want = cacg_log_pdf(HermitianPD(covs[k, f]), x.data[:, t, f])
                    assert abs(stack[k, f, t] - want) < 1e-9

    def test_rejects_non_unit(self):
        with pytest.raises(InvalidInputError):
            cacg_log_pdf(HermitianPD(np.eye(2)), np.array([2.0, 0.0]))


def uniform_posterior(n_comp, n_frames, n_bins):
    return np.full((n_comp, n_frames, n_bins), 1.0 / n_comp)


class TestCacgMStep:
    def test_recovers_true_covariance(self):
        rng = np.random.default_rng(12)
        b_true = random_b(rng, 4)
        draws = sample_cacg(b_true.entries, 5000, seed=99)  # (T, C)
        data = draws.T[:, :, None]  # (C, T, F=1)
        x = tensor(data)
        gamma = np.ones((1, 5000, 1))
        covs = identity_stack(1, 1, 4)
        for _ in range(10):
            covs = tyler_step(x, gamma, covs)
        got = trace_normalize(covs[0, 0])
        want = trace_normalize(b_true.entries)
        err = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert err < 0.05

    def test_fixed_point_distance_decreases(self):
        rng = np.random.default_rng(14)
        b_true = random_b(rng, 4)
        draws = sample_cacg(b_true.entries, 5000, seed=101)
        x = tensor(draws.T[:, :, None])
        gamma = np.ones((1, 5000, 1))
        covs = identity_stack(1, 1, 4)
        want = trace_normalize(b_true.entries)
        dists = []
        for _ in range(5):
            covs = tyler_step(x, gamma, covs)
            got = trace_normalize(covs[0, 0])
            dists.append(np.linalg.norm(got - want))
        # monotone down to the finite-sample floor; converged iterations may
        # wiggle at the 1e-4 level
        assert all(b <= a + 1e-3 for a, b in zip(dists, dists[1:]))
        assert dists[-1] < 0.3 * dists[0]

    def test_single_frame_rank_one(self):
        rng = np.random.default_rng(16)
        y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        y /= np.linalg.norm(y)
        x = tensor(y[:, None, None])
        (cov,) = tyler_step(x, np.ones((1, 1, 1)), identity_stack(1, 1, 3))
        got = cov[0]
        assert abs(np.einsum("ii->", got).real - 3.0) < 1e-6
        # dominant eigenvector matches the observation direction
        vals, vecs = np.linalg.eigh(got)
        lead = vecs[:, -1]
        assert abs(abs(lead.conj() @ y) - 1.0) < 1e-6

    def test_zero_responsibility_keeps_previous(self):
        rng = np.random.default_rng(18)
        data = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        x = normalize_observations(tensor(data))
        gamma = np.zeros((2, 3, 2))
        gamma[0] = 1.0  # component 1 never responsible
        prev = identity_stack(2, 2, 2)
        prev[1] = np.stack([np.diag([1.5, 0.5]), np.diag([0.5, 1.5])])
        out = tyler_step(x, gamma, prev)
        assert np.allclose(out[1], prev[1])

    def test_inactive_bins_keep_previous_with_given_quad(self):
        rng = np.random.default_rng(19)
        data = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        x = normalize_observations(tensor(data))
        gamma = np.zeros((2, 3, 2))
        gamma[0] = 1.0
        gamma[1, :, 1], gamma[0, :, 1] = 0.5, 0.5  # component 1 inactive in bin 0 only
        prev = identity_stack(2, 2, 2)
        prev[1] = np.stack([np.diag([1.5, 0.5]), np.diag([0.5, 1.5])])
        features = outer_features(x)
        _, quad = cacg_log_pdf_stack(prev, x, features)
        out = cacg_m_step(gamma, prev, quad, features)
        assert np.array_equal(out[1, 0], prev[1, 0])
        assert np.max(np.abs(out[1, 1] - prev[1, 1])) > 1e-3

    def test_trace_normalized(self):
        rng = np.random.default_rng(20)
        data = rng.standard_normal((3, 50, 4)) + 1j * rng.standard_normal((3, 50, 4))
        x = normalize_observations(tensor(data))
        out = tyler_step(x, uniform_posterior(2, 50, 4), identity_stack(2, 4, 3))
        traces = np.einsum("fii->f", out[0]).real
        assert np.allclose(traces, 3.0, atol=1e-6)


@st.composite
def kernel_cases(draw):
    """Unit observations and a covariance stack, C = 2..7; with ``rung`` the
    covariances have a small negative eigenvalue, so that only the 1e-8 rung
    of the loading ladder factorizes them."""
    c = draw(st.integers(2, 7))
    k, f, t = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    basis = np.linalg.qr(a)[0]
    eig = rng.uniform(0.5, 2.0, (k, f, c))
    if draw(st.booleans()):
        eig[..., -1] = -1e-9 * eig[..., :-1].sum(axis=-1) / c
    covariances = (basis * eig[..., None, :]) @ np.conj(np.swapaxes(basis, -1, -2))
    covariances = (covariances + np.conj(np.swapaxes(covariances, -1, -2))) / 2.0
    return normalize_observations(tensor(data)), covariances, eig[..., -1].min() < 0.0


class TestQuadForms:
    """The GEMM kernel on outer-product features against the scalar reference."""

    @settings(max_examples=80, deadline=None)
    @given(kernel_cases())
    def test_matches_scalar_oracle(self, case):
        x, covariances, rung = case
        if rung:
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(covariances)
        logdet, coef = cacg._form_coefficients(covariances)
        quad = cacg._forms(coef, outer_features(x))
        k, f = covariances.shape[:2]
        assert quad.shape == (k, f, x.num_frames)
        for i, j in np.ndindex(k, f):
            for t in range(x.num_frames):
                want_logdet, want = cholesky_logdet_solve(
                    HermitianPD(covariances[i, j]), x.data[:, t, j]
                )
                assert logdet[i, j] == pytest.approx(want_logdet, rel=1e-12, abs=1e-12)
                # the explicit inverse of a loaded covariance (condition about
                # 1e8) cancels in the GEMM where a triangular solve does not
                assert quad[i, j, t] == pytest.approx(want, rel=1e-9 if rung else 1e-12)

    def test_nonpositive_form_rejected(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3, 4, 2)) + 1j * rng.standard_normal((3, 4, 2))
        features = outer_features(normalize_observations(tensor(data)))
        with pytest.raises(NumericalError):
            plain_forms(identity_stack(1, 2, 3), -features)

    def test_nan_logits_rejected(self):
        rng = np.random.default_rng(6)
        data = rng.standard_normal((2, 4, 3)) + 1j * rng.standard_normal((2, 4, 3))
        x = normalize_observations(tensor(data))
        covariances = identity_stack(2, 3, 2)
        spectral = np.zeros((2, 4))
        spectral[1, 2] = np.nan
        with pytest.raises(InvalidInputError):
            e_step(covariances, np.full((2, 4), 0.5), outer_features(x), spectral)


class TestScatterMatrices:
    @settings(max_examples=60, deadline=None)
    @given(kernel_cases(), st.integers(0, 2**32 - 1))
    def test_matches_einsum(self, case, seed):
        x, covariances, _ = case
        rng = np.random.default_rng(seed)
        y = np.transpose(x.data, (2, 0, 1)) * rng.uniform(0.1, 3.0, (x.num_bins, 1, x.num_frames))
        weights = rng.uniform(size=(covariances.shape[0], x.num_bins, x.num_frames))
        want = np.einsum("kft,fit,fjt->kfij", weights, y, y.conj())
        got = scatter_matrices(cacg._outer_rows(y), weights)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, np.conj(np.swapaxes(got, -1, -2)))


class TestCacgMStepReusesQuad:
    def scene(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((3, 60, 5)) + 1j * rng.standard_normal((3, 60, 5))
        x = normalize_observations(tensor(data))
        raw = rng.uniform(0.05, 1.0, size=(2, 60, 5))
        gamma = raw / raw.sum(axis=0, keepdims=True)
        prev = np.stack(
            [np.stack([random_b(rng, 3).entries for _ in range(5)]) for _ in range(2)]
        )
        return x, gamma, prev

    def test_e_step_quad_gives_same_update(self):
        # the E-step's forms against the batched reference's
        x, gamma, prev = self.scene()
        features = outer_features(x)
        _, quad = cacg_log_pdf_stack(prev, x, features)
        given = cacg_m_step(gamma, prev, quad, features)
        y = np.transpose(x.data, (2, 0, 1))  # (F, C, T)
        want = chol_logdet_quad(prev, y[None])[1]
        computed = cacg_m_step(gamma, prev, want, features)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_quad_is_the_tyler_weight(self):
        # forms of other covariances must change the update
        x, gamma, prev = self.scene()
        features = outer_features(x)
        _, quad = cacg_log_pdf_stack(identity_stack(2, 5, 3), x, features)
        given = cacg_m_step(gamma, prev, quad, features)
        computed = tyler_step(x, gamma, prev)
        assert np.max(np.abs(given[0] - computed[0])) > 1e-3

    def test_a_per_bin_scale_of_quad_cancels(self):
        # the trace normalization cancels any factor constant over t, so the
        # E-step may hand over the forms of B / det(B)^{1/C}
        x, gamma, prev = self.scene()
        features = outer_features(x)
        quad = plain_forms(prev, features)
        scale = np.random.default_rng(23).uniform(1e-6, 1e6, quad.shape[:2])
        given = cacg_m_step(gamma, prev, quad * scale[..., None], features)
        computed = cacg_m_step(gamma, prev, quad, features)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_identity_start_weighs_every_bin_by_one(self):
        # y^H I^{-1} y = |y|^2 = 1 for unit observations, so the EM's
        # identity start passes quad = 1 instead of factorizing identities
        x, gamma, _ = self.scene()
        identity = identity_stack(2, 5, 3)
        given = cacg_m_step(gamma, identity, 1.0, outer_features(x))
        computed = tyler_step(x, gamma, identity)
        for a, b in zip(given, computed):
            assert np.max(np.abs(a - b)) <= 1e-14


class TestTylerUpdateMatchesTheFormerTwins:
    """The one Tyler update against the former first M-step and whole-array
    update it replaces, bit for bit, over several blocks of frequencies."""

    def scene(self):
        rng = np.random.default_rng(41)
        c, t, f, k = 3, 40, 2 * cacg.BLOCK_BINS + 6, 3
        assert len(cacg.frequency_blocks(f)) == 3
        data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
        x = normalize_observations(tensor(data))
        gamma = rng.uniform(0.05, 1.0, size=(k, t, f))
        gamma[2, :, :4] = 0.0  # component 2 inactive in four bins
        gamma /= gamma.sum(axis=0, keepdims=True)
        return x, gamma, outer_features(x)

    def test_first_m_step_is_the_former_initial_covariances(self):
        x, gamma, features = self.scene()
        got = cacg_m_step(gamma, identity_stack(3, x.num_bins, 3), 1.0, features)
        assert np.array_equal(got, reference.initial_covariances(gamma, features))

    def test_array_quad_gives_the_former_update_and_is_left_unchanged(self):
        x, gamma, features = self.scene()
        prev = reference.initial_covariances(gamma, features)
        quad = plain_forms(prev, features)
        kept = quad.copy()
        got = cacg_m_step(gamma, prev, quad, features)
        assert np.array_equal(quad, kept)
        assert np.array_equal(got, reference.cacg_m_step(x, gamma, prev, kept.copy(), features))
        assert np.array_equal(got[2, :4], prev[2, :4])


def two_source_scene(rng, n_frames=400, n_bins=33, n_chan=4, shared_b=False):
    """Model-space scene with alternating activity and 30% overlap."""
    b = [random_b(rng, n_chan, spread=6.0) for _ in range(2)]
    if shared_b:
        b[1] = b[0]
    covs = np.empty((2, n_bins, n_chan, n_chan), dtype=complex)
    for k in range(2):
        for f in range(n_bins):
            rot = np.linalg.qr(rng.standard_normal((n_chan, n_chan))
                               + 1j * rng.standard_normal((n_chan, n_chan)))[0]
            covs[k, f] = rot @ b[k].entries @ rot.conj().T if not shared_b else b[k].entries
        if shared_b and k == 1:
            covs[1] = covs[0]
    activity = np.zeros((2, n_frames), dtype=bool)
    block = n_frames // 8
    for i in range(8):
        spk = i % 2
        start = i * block
        activity[spk, start : start + block] = True
        if i > 0:
            activity[1 - spk, start : start + block // 3] = True  # overlap region
    dominant = np.zeros((n_frames, n_bins), dtype=int)
    weights = rng.uniform(0.2, 1.0, size=(2, n_frames))
    weights = np.where(activity, weights, 0.0)
    for t in range(n_frames):
        p = weights[:, t]
        if p.sum() == 0:
            p = np.ones(2)
        p = p / p.sum()
        dominant[t] = rng.choice(2, size=n_bins, p=p)
    data = np.empty((n_chan, n_frames, n_bins), dtype=complex)
    for k in range(2):
        for f in range(n_bins):
            idx = np.flatnonzero(dominant[:, f] == k)
            if idx.size:
                data[:, idx, f] = sample_cacg(covs[k, f], idx.size, seed=int(1000 + 7 * k + f)).T
    masks = np.stack([(dominant == k).astype(float) for k in range(2)])
    return tensor(data), masks


class TestCacgmmEm:
    """The cACGMM as the program fits it: the joint EM at kappa_max 0 without
    fusion (``helpers.spatial_em``), on embeddings without a speaker cue."""

    def test_single_component_trivial(self):
        rng = np.random.default_rng(22)
        data = rng.standard_normal((2, 20, 3)) + 1j * rng.standard_normal((2, 20, 3))
        x = tensor(data)
        model, gamma, trace = spatial_em(x, uniform_posterior(1, 20, 3), 3)
        assert np.allclose(gamma, 1.0)
        assert np.allclose(model.pi, 1.0)

    def test_two_source_mask_recovery(self):
        rng = np.random.default_rng(24)
        x, masks = two_source_scene(rng)
        # blind init: random hard frame labels (breaks the symmetric optimum)
        init_rng = np.random.default_rng(55)
        labels = init_rng.integers(0, 2, size=x.num_frames)
        gamma = np.full((2, x.num_frames, x.num_bins), 0.1)
        gamma[labels, np.arange(x.num_frames), :] = 0.9
        gamma /= gamma.sum(axis=0, keepdims=True)
        model, post, trace = spatial_em(x, gamma, 40)
        assert mask_auc(post, masks) >= 0.95
        covs = model.covariances
        assert covs.shape == (2, x.num_bins, x.num_channels, x.num_channels)
        assert_exactly_hermitian(covs)

    def test_loglik_monotone(self):
        rng = np.random.default_rng(26)
        x, _ = two_source_scene(rng, n_frames=120, n_bins=9, n_chan=2)
        for seed in range(5):
            init_rng = np.random.default_rng(seed)
            raw = init_rng.uniform(0.1, 1.0, size=(2, x.num_frames, x.num_bins))
            gamma = raw / raw.sum(axis=0, keepdims=True)
            _, _, trace = spatial_em(x, gamma, 30)
            diffs = np.diff(trace)
            assert np.all(diffs >= -1e-6 * np.abs(trace[:-1]))

    def test_posterior_invariants_after_em(self):
        rng = np.random.default_rng(28)
        x, _ = two_source_scene(rng, n_frames=80, n_bins=5, n_chan=2)
        raw = rng.uniform(0.1, 1.0, size=(3, 80, 5))
        gamma = raw / raw.sum(axis=0, keepdims=True)
        _, post, _ = spatial_em(x, gamma, 5)
        cacg.check_posterior(post)

    def test_argmax_invariant_to_covariance_scaling(self):
        rng = np.random.default_rng(30)
        x, _ = two_source_scene(rng, n_frames=60, n_bins=5, n_chan=2)
        covs = np.stack(
            [np.stack([random_b(rng, 2).entries for _ in range(5)]) for _ in range(2)]
        )
        xn = normalize_observations(x)
        base, _ = cacg_log_pdf_stack(covs, xn, outer_features(xn))
        scaled, _ = cacg_log_pdf_stack(3.7 * covs, xn, outer_features(xn))
        assert np.array_equal(np.argmax(base, axis=0), np.argmax(scaled, axis=0))

    def test_empty_component_count_rejected(self):
        rng = np.random.default_rng(32)
        data = rng.standard_normal((2, 4, 2)) + 1j * rng.standard_normal((2, 4, 2))
        with pytest.raises(ConfigurationError):
            spatial_em(tensor(data), uniform_posterior(1, 4, 2), 0)


@st.composite
def e_step_cases(draw):
    """Random unit observations, covariances, priors and an optional spectral term."""
    k = draw(st.integers(1, 4))
    f, c, t = draw(st.integers(1, 4)), draw(st.integers(2, 4)), draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    covariances = a @ np.conj(np.swapaxes(a, -1, -2)) / c + 0.1 * np.eye(c)
    pi = rng.uniform(0.05, 1.0, (k, t))
    pi /= pi.sum(axis=0, keepdims=True)
    spectral = rng.normal(0.0, 5.0, (k, t)) if draw(st.booleans()) else None
    perm = np.array(draw(st.permutations(range(k))), dtype=int)
    return normalize_observations(tensor(data)), covariances, pi, spectral, perm


class TestSharedEStep:
    """Properties of the one E-step of the cACGMM and the joint model."""

    @staticmethod
    def run(x, covariances, pi, spectral):
        if spectral is None:
            return e_step(covariances, pi, outer_features(x))
        return e_step(covariances, pi, outer_features(x), spectral)

    @settings(max_examples=60, deadline=None)
    @given(e_step_cases())
    def test_posterior_on_the_simplex(self, case):
        x, covariances, pi, spectral, _ = case
        gamma, _, _ = self.run(x, covariances, pi, spectral)
        assert gamma.shape == (pi.shape[0], x.num_frames, x.num_bins)
        assert np.all(gamma >= 0.0) and np.all(gamma <= 1.0)
        assert np.max(np.abs(gamma.sum(axis=0) - 1.0)) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(e_step_cases())
    def test_component_permutation_equivariance(self, case):
        x, covariances, pi, spectral, perm = case
        gamma, loglik, new = self.run(x, covariances, pi, spectral)
        spectral_p = None if spectral is None else spectral[perm]
        gamma_p, loglik_p, new_p = self.run(x, covariances[perm], pi[perm], spectral_p)
        np.testing.assert_allclose(gamma_p, gamma[perm], rtol=0.0, atol=1e-12)
        # the Tyler update: trace-normalized to C, so its entries are O(1)
        np.testing.assert_allclose(new_p, new[perm], rtol=0.0, atol=1e-12)
        assert abs(loglik_p - loglik) <= 1e-12 * abs(loglik)

    @settings(max_examples=30, deadline=None)
    @given(e_step_cases())
    def test_matches_scalar_oracle(self, case):
        # gamma and the log-likelihood from per-bin scalar cACG densities
        x, covariances, pi, spectral, _ = case
        gamma, loglik, _ = self.run(x, covariances, pi, spectral)
        extra = np.zeros_like(pi) if spectral is None else spectral
        want_ll = 0.0
        for f in range(x.num_bins):
            for t in range(x.num_frames):
                pdf = [
                    cacg_log_pdf(HermitianPD(cov[f]), x.data[:, t, f]) for cov in covariances
                ]
                logits = np.log(pi[:, t]) + np.asarray(pdf) + extra[:, t]
                norm = logsumexp(logits)
                want_ll += norm
                np.testing.assert_allclose(gamma[:, t, f], np.exp(logits - norm), atol=1e-10)
        assert loglik == pytest.approx(want_ll, rel=1e-10)


def log_domain_e_step(covariances, pi, x, spectral):
    """The E-step as log densities normalized by ``normalize_logits``."""
    logits, _ = cacg_log_pdf_stack(covariances, x, outer_features(x))
    with np.errstate(divide="ignore"):
        logits += (np.log(pi) + spectral)[:, None, :]
    gamma, loglik = normalize_logits(logits)
    return np.transpose(gamma, (0, 2, 1)), loglik


def floor_covariances(rng, k, f, c, rank):
    """(K, F, C, C) covariances of the given rank in random bases, loaded
    and trace-normalized as the Tyler update leaves them: the null space
    sits at the loading floor (condition about C 1e10 at rank one)."""
    a = rng.standard_normal((k, f, c, c)) + 1j * rng.standard_normal((k, f, c, c))
    basis = np.linalg.qr(a)[0][..., :rank]
    covariances = _load_stack(basis @ np.conj(np.swapaxes(basis, -1, -2)), COV_LOADING)
    return covariances * (c / np.einsum("...ii->...", covariances).real)[..., None, None]


def assert_plain_tyler_update(new, x, gamma, covariances):
    """``new`` is the Tyler update of ``covariances`` on the plain forms."""
    features = outer_features(x)
    quad = plain_forms(covariances, features)
    plain = cacg_m_step(gamma, covariances, quad, features)
    assert np.max(np.abs(new - plain)) <= 1e-12 * np.max(np.abs(plain))


class TestLinearEStep:
    """The linear-domain E-step against the log-domain one, and its rescue."""

    @pytest.mark.parametrize("c", range(2, 9))
    @pytest.mark.parametrize("coupled", [False, True])
    def test_matches_log_domain_at_the_loading_floor(self, c, coupled, caplog):
        rng = np.random.default_rng(c)
        k, f, t = 3, 4, 30
        data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
        x = normalize_observations(tensor(data))
        covariances = np.concatenate(
            [floor_covariances(rng, 1, f, c, 1), floor_covariances(rng, 2, f, c, c - 1)]
        )
        pi = rng.dirichlet(np.ones(k), size=t).T
        pi[1, ::3] = PRIOR_FLOOR
        pi /= pi.sum(axis=0, keepdims=True)
        spectral = rng.normal(0.0, 20.0, (k, t)) if coupled else 0.0
        with caplog.at_level(logging.WARNING, logger="mixsep.cacg"):
            gamma, loglik, _ = e_step(covariances, pi, outer_features(x), spectral)
        assert not caplog.records  # no bin needed the log domain
        want, want_ll = log_domain_e_step(covariances, pi, x, spectral)
        assert np.max(np.abs(gamma - want)) <= 1e-12
        assert abs(loglik - want_ll) <= 1e-12 * abs(want_ll)

    def test_quad_is_the_unit_determinant_form(self):
        # the sweep weighs the Tyler update by the forms of B / det(B)^{1/C}:
        # the plain forms times det(B)^{1/C}, a per-(k, f) factor the update
        # cancels, so it equals the update on the plain forms
        rng = np.random.default_rng(40)
        data = rng.standard_normal((4, 10, 3)) + 1j * rng.standard_normal((4, 10, 3))
        x = normalize_observations(tensor(data))
        covariances = floor_covariances(rng, 2, 3, 4, 2)
        features = outer_features(x)
        logdet, coef = cacg._form_coefficients(covariances)
        want = cacg._forms(coef, features)
        unit = cacg._forms(cacg._form_coefficients(covariances, unit_det=True)[1], features)
        np.testing.assert_allclose(unit, want * np.exp(logdet / 4)[..., None], rtol=1e-12)
        pi = np.full((2, 10), 0.5)
        gamma, _, new = e_step(covariances, pi, features)
        assert_plain_tyler_update(new, x, gamma, covariances)

    @pytest.mark.parametrize("rank", [1, 31])
    def test_out_of_range_bins_take_the_log_domain(self, rank, caplog):
        # C = 32 at the loading floor: an observation on the signal space of
        # a rank-one covariance makes q~^(-C) overflow, one on the null space
        # of a rank C-1 covariance makes it underflow. The sweep's rescue
        # reads its own unit-determinant forms, the reference the plain
        # forms and log-determinants of a second factorization, so the two
        # agree to rounding, not to the bit
        c, t = 32, 5
        covariances = np.stack([np.eye(c, dtype=complex)] * 2)[:, None]
        if rank == 1:
            covariances[:, 0, 1:, 1:] = 0.0
        else:
            covariances[:, 0, 0, 0] = 0.0
        covariances[1, 0, 1, 1] = 1e-3 if rank == 1 else 0.5
        covariances = _load_stack(covariances, COV_LOADING)
        rng = np.random.default_rng(41)
        data = rng.standard_normal((c, t, 1)) + 1j * rng.standard_normal((c, t, 1))
        data[:, 0, 0] = np.eye(c)[0]
        x = normalize_observations(tensor(data))
        pi = np.full((2, t), 0.5)
        spectral = rng.normal(0.0, 1.0, (2, t))
        with caplog.at_level(logging.WARNING, logger="mixsep.cacg"):
            gamma, loglik, new = e_step(covariances, pi, outer_features(x), spectral)
        assert [r.levelno for r in caplog.records] == [logging.WARNING]
        assert "1 of 5 bins" in caplog.records[0].getMessage()
        want, want_ll = log_domain_e_step(covariances, pi, x, spectral)
        assert np.max(np.abs(gamma - want)) <= 1e-12
        assert abs(loglik - want_ll) <= 1e-12 * abs(want_ll)
        assert np.isfinite(loglik)
        assert_plain_tyler_update(new, x, gamma, covariances)


class TestFormCoefficients:
    """The entry-wise inverse behind every form against the scalar reference,
    on stacks at the loading floor."""

    @pytest.mark.parametrize("c", range(2, 8))
    @pytest.mark.parametrize("fault", ["rank_one", "dead_channel"])
    def test_matches_scalar_reference(self, c, fault):
        rng = np.random.default_rng(60 + c)
        f, t = 3, 8
        data = rng.standard_normal((c, t, f)) + 1j * rng.standard_normal((c, t, f))
        benign = floor_covariances(rng, 1, f, c, c)
        if fault == "rank_one":
            # one source: the other C - 1 directions sit at the floor
            faulty = floor_covariances(rng, 1, f, c, 1)
        else:
            # channel 1 records nothing: its row and column are zero and its
            # diagonal entry is the loading floor alone
            data[1] = 0.0
            faulty = floor_covariances(rng, 1, f, c, c - 1)
            faulty[..., 1, :] = faulty[..., :, 1] = 0.0
            faulty = _load_stack(faulty, COV_LOADING)
        covariances = np.concatenate([benign, faulty])
        x = normalize_observations(tensor(data))
        features = outer_features(x)
        logdet, coef = cacg._form_coefficients(covariances)
        unit_logdet, unit_coef = cacg._form_coefficients(covariances, unit_det=True)
        assert np.array_equal(unit_logdet, logdet)
        np.testing.assert_allclose(
            unit_coef, coef * np.exp(logdet / c).T[:, :, None], rtol=1e-14, atol=0.0
        )
        quad = np.swapaxes(coef @ features, 0, 1)  # (K, F, T)
        for k, j in np.ndindex(covariances.shape[:2]):
            for n in range(t):
                want_logdet, want = cholesky_logdet_solve(
                    HermitianPD(covariances[k, j]), x.data[:, n, j]
                )
                assert logdet[k, j] == pytest.approx(want_logdet, rel=1e-12, abs=1e-12)
                # random observations keep most of their energy off the
                # signal space, so the forms of C 1e10-conditioned matrices do
                # not cancel (2e-14 measured)
                assert quad[k, j, n] == pytest.approx(want, rel=1e-12)


class TestPosteriorValidation:
    @pytest.mark.parametrize("fault", ["negative", "unnormalized", None])
    def test_broadcast_posterior_is_checked(self, fault):
        # an initial posterior replicated over frequency is checked once per
        # plane, with the decisions of a check of every copy
        rng = np.random.default_rng(6)
        plane = rng.dirichlet(np.ones(3), size=8).T  # (K, T)
        if fault == "negative":
            plane[:, 2] = 0.6, -0.1, 0.5  # the column still sums to 1, no entry above 1
        elif fault == "unnormalized":
            plane[:, 5] *= 1.01
        gamma = np.broadcast_to(plane[:, :, None], (3, 8, 7))
        assert gamma.strides[2] == 0
        copy = gamma.copy()
        if fault is None:
            cacg.check_posterior(gamma)
            cacg.check_posterior(copy)
        else:
            message = {"negative": "gamma entries", "unnormalized": "gamma must sum to 1"}[fault]
            for posterior in (gamma, copy):
                with pytest.raises(InvalidInputError, match=message):
                    cacg.check_posterior(posterior)


class TestStftTensorInvariants:
    def test_rejects_single_channel(self):
        with pytest.raises(InvalidInputError):
            tensor(np.zeros((1, 3, 2), dtype=complex))

    def test_rejects_nan(self):
        data = np.zeros((2, 1, 1), dtype=complex)
        data[0, 0, 0] = np.nan
        with pytest.raises(InvalidInputError):
            tensor(data)


def test_update_pi_from_the_frequency_sum_is_the_floored_mean():
    rng = np.random.default_rng(4)
    gamma = rng.dirichlet(np.ones(3), size=(7, 9)).transpose(2, 0, 1)  # (K, T, F)
    gamma[2, :2] = 0.0
    want = np.maximum(gamma.mean(axis=2), 1e-10)
    want = want / want.sum(axis=0, keepdims=True)
    assert np.array_equal(update_pi(gamma.sum(axis=2), 9), want)
