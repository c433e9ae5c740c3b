import numpy as np
import pytest
from scipy.stats import rankdata

from mixsep.errors import InvalidInputError
from mixsep.metrics import (
    CountingMatrix,
    _auc,
    counting_matrix,
    der,
    mask_auc,
    si_sdr,
)
from mixsep.pipeline import Diarization

# Fixed speaker-counting regression tally (true count by estimated count);
# the diagonal holds 596 correct segments of 715 total.
COUNTING_TALLIES = np.array(
    [
        [8, 0, 0, 0, 0, 0, 0, 0],
        [0, 34, 0, 0, 0, 0, 0, 0],
        [1, 2, 77, 9, 0, 0, 0, 0],
        [0, 1, 8, 151, 17, 0, 0, 0],
        [0, 0, 2, 12, 153, 14, 0, 0],
        [0, 0, 0, 2, 17, 109, 10, 0],
        [0, 0, 0, 0, 1, 13, 52, 1],
        [0, 0, 0, 0, 0, 0, 9, 12],
    ]
)


class TestDer:
    def test_identical_is_zero(self):
        ref = [("a", 0.0, 4.0), ("b", 4.0, 7.0)]
        rate, miss, falarm, confusion = der(ref, ref, collar_s=0.0)
        assert rate == 0.0 and miss == 0.0 and falarm == 0.0 and confusion == 0.0

    def test_empty_hypothesis_all_miss(self):
        ref = [("a", 0.0, 5.0)]
        rate, miss, falarm, confusion = der(ref, [], collar_s=0.0)
        assert rate == 1.0 and miss == 1.0

    def test_hand_built_case(self):
        # 8 s reference speech, hyp confuses 2 s and misses 1 s -> DER 0.375
        ref = [("a", 0.0, 5.0), ("b", 5.0, 8.0)]
        hyp = [("x", 0.0, 5.0), ("y", 5.0, 7.0)]
        # map x->a (5 s overlap); y overlaps b for 2 s but is a different
        # speaker only if y also matches elsewhere; instead label the 5-7 s
        # stretch with x so it counts as confusion against b
        hyp = [("x", 0.0, 7.0)]
        rate, miss, falarm, confusion = der(ref, hyp, collar_s=0.0)
        assert rate == pytest.approx(0.375)
        assert miss == pytest.approx(1.0 / 8.0)
        assert confusion == pytest.approx(2.0 / 8.0)
        assert falarm == 0.0

    def test_relabel_invariance(self):
        rng = np.random.default_rng(0)
        ref = [("r0", 0.0, 3.0), ("r1", 3.0, 6.0), ("r0", 6.0, 9.0)]
        hyp = [("h0", 0.2, 3.1), ("h1", 3.1, 5.0), ("h0", 6.5, 9.2)]
        base = der(ref, hyp, collar_s=0.0)
        renamed = [("zz" + s, a, b) for s, a, b in hyp]
        assert der(ref, renamed, collar_s=0.0) == base

    def test_pure_miss_never_decreases_der(self):
        ref = [("a", 0.0, 4.0), ("b", 5.0, 8.0)]
        hyp = [("x", 0.0, 4.0), ("y", 5.0, 7.0)]
        base = der(ref, hyp, collar_s=0.0)[0]
        extended = ref + [("c", 20.0, 22.0)]  # far away, uncovered
        worse = der(extended, hyp, collar_s=0.0)[0]
        assert worse >= base

    def test_collar_excludes_boundaries(self):
        ref = [("a", 1.0, 3.0)]
        hyp = [("x", 1.1, 3.0)]  # 0.1 s miss right at the boundary
        with_collar = der(ref, hyp, collar_s=0.25)[0]
        without = der(ref, hyp, collar_s=0.0)[0]
        assert without > 0.0
        assert with_collar == 0.0

    def test_overlap_scored_with_multiplicity(self):
        ref = [("a", 0.0, 2.0), ("b", 0.0, 2.0)]  # 4 s of speech in 2 s span
        hyp = [("x", 0.0, 2.0)]
        rate, miss, falarm, confusion = der(ref, hyp, collar_s=0.0)
        assert miss == pytest.approx(0.5)
        assert rate == pytest.approx(0.5)

    def test_empty_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            der([], [("x", 0.0, 1.0)])

    def test_accepts_diarization_like_rows(self):
        # a Diarization's rows carry a segment id; its turns() drop it
        ref = [("a", 0.0, 2.0)]
        hyp = Diarization([("x", 0.0, 2.0, "seg000")])
        assert der(ref, hyp.turns(), collar_s=0.0)[0] == 0.0


class TestCountingMatrix:
    def test_all_correct_diagonal(self):
        cm = counting_matrix([1, 2, 3, 4], [1, 2, 3, 4])
        assert cm.accuracy == 1.0
        assert np.trace(cm.counts) == 4

    def test_single_off_diagonal_pair(self):
        cm = counting_matrix([3], [4])
        assert cm.counts[2, 3] == 1
        assert cm.total == 1 and cm.correct == 0

    def test_reference_tallies_arithmetic(self):
        truths, estimates = [], []
        for t in range(8):
            for e in range(8):
                truths.extend([t + 1] * COUNTING_TALLIES[t, e])
                estimates.extend([e + 1] * COUNTING_TALLIES[t, e])
        cm = counting_matrix(truths, estimates)
        assert np.array_equal(cm.counts, COUNTING_TALLIES)
        assert cm.correct == 596
        assert cm.total == 715
        assert cm.accuracy == pytest.approx(596.0 / 715.0)

    def test_out_of_range_rejected(self):
        with pytest.raises(InvalidInputError):
            counting_matrix([0], [1])
        with pytest.raises(InvalidInputError):
            counting_matrix([1], [9])

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            counting_matrix([1, 2], [1])


class TestMaskAuc:
    def test_exact_masks_score_one(self):
        rng = np.random.default_rng(1)
        truth = (rng.uniform(size=(3, 20, 7)) < 0.33).astype(float)
        truth[0] = (truth.sum(axis=0) == 0).astype(float)  # ensure voiced cover
        assert mask_auc(truth, truth) == 1.0

    def test_label_swap_recovered(self):
        rng = np.random.default_rng(2)
        a = (rng.uniform(size=(20, 7)) < 0.5).astype(float)
        truth = np.stack([a, 1.0 - a])
        swapped = np.stack([1.0 - a, a])
        assert mask_auc(swapped, truth) == 1.0
        # the diagonal pairing scores the swap below chance
        assert np.mean([_auc(swapped[i].ravel(), truth[i].ravel()) for i in range(2)]) < 0.5

    def test_random_scores_near_half(self):
        rng = np.random.default_rng(3)
        truth = np.zeros((2, 400, 250))
        dominant = rng.integers(0, 2, size=(400, 250))
        truth[0] = dominant == 0
        truth[1] = dominant == 1
        gamma = rng.uniform(size=(2, 400, 250))
        assert abs(mask_auc(gamma, truth) - 0.5) < 0.01

    def test_constant_scores_half_by_convention(self):
        truth = np.zeros((2, 4, 3))
        truth[0, :2] = 1.0
        truth[1, 2:] = 1.0
        gamma = np.full((2, 4, 3), 0.5)
        assert mask_auc(gamma, truth) == 0.5

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        truth = np.zeros((3, 50, 11))
        dominant = rng.integers(0, 3, size=(50, 11))
        for k in range(3):
            truth[k] = dominant == k
        gamma = truth * 0.8 + rng.uniform(size=truth.shape) * 0.2
        base = mask_auc(gamma, truth)
        assert mask_auc(gamma[[2, 0, 1]], truth) == pytest.approx(base)

    def test_nan_posterior_rejected(self):
        truth = np.zeros((2, 4, 3))
        truth[0, :2] = 1.0
        truth[1, 2:] = 1.0
        gamma = np.full((2, 4, 3), 0.5)
        gamma[1, 3, 2] = np.nan
        with pytest.raises(InvalidInputError):
            mask_auc(gamma, truth)


def rank_auc(scores, labels):
    # the rank-sum (Mann-Whitney U) formula with tie-averaged ranks
    pos = labels > 0.5
    n_pos = int(pos.sum())
    n_neg = labels.shape[0] - n_pos
    ranks = rankdata(scores)
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


class TestAucCount:
    def test_random_scores_with_ties(self):
        rng = np.random.default_rng(6)
        for trial in range(500):
            n = int(rng.integers(2, 300))
            scores = rng.integers(0, int(rng.integers(1, 20)), size=n) / 8.0
            labels = (rng.uniform(size=n) < rng.uniform(0.05, 0.95)).astype(float)
            labels[0], labels[1] = 1.0, 0.0
            assert _auc(scores, labels) == rank_auc(scores, labels), trial

    def test_continuous_scores(self):
        rng = np.random.default_rng(7)
        scores = rng.uniform(size=5000)
        labels = (rng.uniform(size=5000) < 0.3).astype(float)
        assert _auc(scores, labels) == rank_auc(scores, labels)

    def test_all_tied(self):
        labels = np.array([1.0, 0.0, 1.0, 0.0, 0.0])
        assert _auc(np.full(5, 0.25), labels) == rank_auc(np.full(5, 0.25), labels) == 0.5

    def test_single_positive(self):
        scores = np.array([0.3, 0.1, 0.3, 0.9, 0.3])
        labels = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        assert _auc(scores, labels) == rank_auc(scores, labels) == 0.5


class TestSiSdr:
    def test_perfect_reconstruction_scale_invariant(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal(1000)
        assert si_sdr(x, 3.0 * x) > 100.0  # rescaling costs nothing

    def test_known_snr(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal(100_000)
        noise = rng.standard_normal(100_000)
        noise -= (noise @ x) / (x @ x) * x  # orthogonal noise
        est = x + 0.1 * noise
        want = 10.0 * np.log10((x @ x) / (0.01 * (noise @ noise)))
        assert abs(si_sdr(x, est) - want) < 1e-9

    def test_silent_reference_rejected(self):
        with pytest.raises(InvalidInputError):
            si_sdr(np.zeros(10), np.ones(10))
