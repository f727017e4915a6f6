import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlkit.data import SynthSpec, planted_correlation, synthesize
from mtlkit.errors import BadK, MatrixMismatch, NoPositives
from mtlkit.metrics import (
    CorrelationMatrix,
    ScoreMatrix,
    average_precision,
    correlation_matrix,
    ensemble_max,
    ensemble_mean,
    map_class,
    map_image,
    read_scores,
    top_k_accuracy,
    write_scores,
)


def brute_force_ap(scores, labels):
    """From-the-definition AP: precision x recall-increment at every cutoff,
    same descending ranking with ties by ascending index."""
    n = len(scores)
    order = sorted(range(n), key=lambda i: (-scores[i], i))
    npos = sum(1 for l in labels if l == 1)
    ap = 0.0
    prev_recall = 0.0
    hits = 0
    for j, idx in enumerate(order, start=1):
        if labels[idx] == 1:
            hits += 1
        precision = hits / j
        recall = hits / npos
        ap += precision * (recall - prev_recall)
        prev_recall = recall
    return ap


def brute_force_map_class(scores, labels):
    aps = []
    for j in range(scores.shape[1]):
        if labels[:, j].sum() > 0:
            aps.append(brute_force_ap(list(scores[:, j]), list(labels[:, j])))
    return float(np.mean(aps))


def brute_force_map_image(scores, labels):
    aps = [brute_force_ap(list(scores[i]), list(labels[i])) for i in range(scores.shape[0])]
    return float(np.mean(aps))


class TestAveragePrecision:
    def test_hand_fixture_class(self):
        ap = average_precision([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0])
        assert abs(ap - (1.0 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_perfect_ranking(self):
        assert average_precision([0.9, 0.8, 0.1], [1, 1, 0]) == 1.0

    def test_single_positive_last(self):
        assert abs(average_precision([0.9, 0.8, 0.7, 0.1], [0, 0, 0, 1]) - 0.25) < 1e-12

    def test_no_positives(self):
        with pytest.raises(NoPositives):
            average_precision([0.5], [0])

    def test_tie_break_by_index(self):
        # equal scores: original order decides, positive first wins
        assert average_precision([0.5, 0.5], [1, 0]) == 1.0
        assert abs(average_precision([0.5, 0.5], [0, 1]) - 0.5) < 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_invariant_under_monotone_transform(self, data):
        n = data.draw(st.integers(2, 12))
        # grid-valued scores: ties and gaps survive the monotone transform exactly
        scores = np.array(data.draw(st.lists(
            st.integers(-500, 500), min_size=n, max_size=n))) / 100.0
        labels = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        if labels.sum() == 0:
            labels[0] = 1
        a = average_precision(scores, labels)
        b = average_precision(np.exp(scores) * 3.0 + 1.0, labels)
        assert abs(a - b) < 1e-12

    def test_matches_brute_force(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 20))
            scores = rng.random(n)
            labels = (rng.random(n) < 0.4).astype(int)
            if labels.sum() == 0:
                labels[int(rng.integers(n))] = 1
            assert abs(average_precision(scores, labels)
                       - brute_force_ap(list(scores), list(labels))) < 1e-12


class TestMaps:
    def test_map_class_singleton_is_ap(self, rng):
        scores = rng.random((8, 1))
        labels = np.zeros((8, 1), dtype=int)
        labels[:3, 0] = 1
        sm = ScoreMatrix(scores, [f"s{i}" for i in range(8)], "lesion")
        m, _, _ = map_class(sm, labels)
        assert abs(m - average_precision(scores[:, 0], labels[:, 0])) < 1e-15

    def test_perfect_scores(self, rng):
        labels = (rng.random((10, 4)) < 0.5).astype(int)
        labels[:, 0] = 1  # keep every class and image populated
        sm = ScoreMatrix(labels.astype(float), [f"s{i}" for i in range(10)], "lesion")
        assert map_class(sm, labels)[0] == 1.0
        assert map_image(sm, labels)[0] == 1.0

    def test_map_image_hand_fixture(self):
        sm = ScoreMatrix(np.array([[0.2, 0.9, 0.5]]), ["s0"], "lesion")
        m, _ = map_image(sm, np.array([[1, 0, 1]]))
        assert abs(m - (0.5 + 2.0 / 3.0) / 2.0) < 1e-12

    def test_all_ones_image(self, rng):
        sm = ScoreMatrix(rng.random((1, 5)), ["s0"], "lesion")
        m, _ = map_image(sm, np.ones((1, 5), dtype=int))
        assert m == 1.0

    def test_empty_class_excluded(self, rng):
        labels = np.zeros((6, 3), dtype=int)
        labels[:, 0] = 1
        labels[:3, 1] = 1
        sm = ScoreMatrix(rng.random((6, 3)), [f"s{i}" for i in range(6)], "lesion")
        m, per_class, excluded = map_class(sm, labels)
        assert excluded == [2]
        assert per_class[2] is None

    def test_map_class_without_any_positive_raises(self, rng):
        sm = ScoreMatrix(rng.random((4, 3)), [f"s{i}" for i in range(4)], "lesion")
        with pytest.raises(NoPositives):
            map_class(sm, np.zeros((4, 3), dtype=int))

    def test_oracle_equivalence_random(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 33))
            p = int(rng.integers(2, 9))
            scores = rng.random((n, p))
            labels = (rng.random((n, p)) < 0.3).astype(int)
            for i in range(n):  # every image needs a positive
                if labels[i].sum() == 0:
                    labels[i, int(rng.integers(p))] = 1
            sm = ScoreMatrix(scores, [f"s{i}" for i in range(n)], "lesion")
            assert abs(map_image(sm, labels)[0] - brute_force_map_image(scores, labels)) < 1e-12
            if (labels.sum(axis=0) > 0).any():
                assert abs(map_class(sm, labels)[0]
                           - brute_force_map_class(scores, labels)) < 1e-12


class TestTopK:
    def ids(self, n):
        return [f"s{i}" for i in range(n)]

    def test_k_equals_q(self, rng):
        sm = ScoreMatrix(rng.random((6, 4)), self.ids(6), "location")
        v = rng.integers(1, 5, size=6)
        assert top_k_accuracy(sm, v, 4) == 1.0

    def test_one_hot(self):
        v = np.array([1, 3, 2])
        scores = np.eye(3)[:, :3][v - 1] if False else np.zeros((3, 3))
        for i, vi in enumerate(v):
            scores[i, vi - 1] = 1.0
        sm = ScoreMatrix(scores, self.ids(3), "location")
        assert top_k_accuracy(sm, v, 1) == 1.0

    def test_hand_counted_fixture(self):
        scores = np.array([
            [0.9, 0.1, 0.0],   # v=1 hit at k=1
            [0.2, 0.7, 0.1],   # v=1 miss at k=1, hit at k=2
            [0.3, 0.3, 0.4],   # v=3 hit at k=1
            [0.5, 0.4, 0.1],   # v=2 miss at k=1
        ])
        v = np.array([1, 1, 3, 2])
        sm = ScoreMatrix(scores, self.ids(4), "location")
        assert top_k_accuracy(sm, v, 1) == 0.5
        assert top_k_accuracy(sm, v, 2) == 1.0

    def test_bad_k(self):
        sm = ScoreMatrix(np.zeros((2, 3)), self.ids(2), "location")
        with pytest.raises(BadK):
            top_k_accuracy(sm, [1, 2], 0)
        with pytest.raises(BadK):
            top_k_accuracy(sm, [1, 2], 4)

    @pytest.mark.parametrize("v", [[1, 0], [1, 4], [[1], [2]], [1, 2, 3], [1]],
                             ids=["below-1", "above-q", "column", "long", "short"])
    def test_locations_must_fit_scores(self, v):
        sm = ScoreMatrix(np.full((2, 3), 1 / 3), self.ids(2), "location")
        with pytest.raises(MatrixMismatch):
            top_k_accuracy(sm, v, 1)


class TestCorrelation:
    def make_ds(self, rows):
        from mtlkit.data import Dataset, Sample

        samples = [Sample(np.zeros((3, 4, 4)), np.array(u), v, f"s{i}")
                   for i, (u, v) in enumerate(rows)]
        return Dataset(samples, ["l0", "l1"], ["x", "y"])

    def test_two_thirds(self):
        ds = self.make_ds([([1, 0], 1), ([1, 0], 1), ([1, 0], 2), ([0, 1], 2)])
        corr = correlation_matrix(ds)
        assert abs(corr.R[0, 0] - 2.0 / 3.0) < 1e-12
        assert corr.R[1, 1] == 1.0

    def test_rows_sum_to_one(self):
        ds = self.make_ds([([1, 1], 1), ([1, 0], 2), ([0, 1], 1)])
        corr = correlation_matrix(ds)
        assert np.abs(corr.R.sum(axis=1) - 1.0).max() < 1e-12

    def test_empty_lesion_flagged(self):
        ds = self.make_ds([([1, 0], 1)])
        corr = correlation_matrix(ds)
        assert corr.empty_lesions == [1]
        assert np.array_equal(corr.R[1], [0.0, 0.0])

    def test_planted_recovery(self):
        r = planted_correlation(5, 4, 0.85)
        ds = synthesize(SynthSpec(P=5, Q=4, N=2000, R=r, seed=3))
        corr = correlation_matrix(ds)
        assert np.abs(corr.R - r).max() < 0.05


class TestEnsemble:
    def sm(self, scores):
        return ScoreMatrix(np.asarray(scores, dtype=float), ["s0"], "lesion")

    def test_idempotent(self):
        a = self.sm([[0.2, 0.8]])
        assert np.array_equal(ensemble_max(a, a).scores, a.scores)

    def test_commutative(self, rng):
        a = ScoreMatrix(rng.random((4, 3)), list("abcd"), "lesion")
        b = ScoreMatrix(rng.random((4, 3)), list("abcd"), "lesion")
        assert np.array_equal(ensemble_max(a, b).scores, ensemble_max(b, a).scores)

    def test_fixture(self):
        out = ensemble_max(self.sm([[0.2, 0.8]]), self.sm([[0.5, 0.1]]))
        assert np.array_equal(out.scores, [[0.5, 0.8]])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 10_000))
    def test_dominates_both_inputs(self, n, k, seed):
        rng = np.random.default_rng(seed)
        ids = [f"s{i}" for i in range(n)]
        a = ScoreMatrix(rng.random((n, k)), ids, "lesion")
        b = ScoreMatrix(rng.random((n, k)), ids, "lesion")
        out = ensemble_max(a, b)
        assert (out.scores >= a.scores).all() and (out.scores >= b.scores).all()

    def test_mean_alternative(self):
        out = ensemble_mean(self.sm([[0.2, 0.8]]), self.sm([[0.6, 0.0]]))
        assert np.allclose(out.scores, [[0.4, 0.4]])

    def test_mismatches(self, rng):
        a = ScoreMatrix(rng.random((2, 3)), ["a", "b"], "lesion")
        with pytest.raises(MatrixMismatch):
            ensemble_max(a, ScoreMatrix(rng.random((2, 3)), ["a", "b"], "location"))
        with pytest.raises(MatrixMismatch):
            ensemble_max(a, ScoreMatrix(rng.random((2, 2)), ["a", "b"], "lesion"))
        with pytest.raises(MatrixMismatch):
            ensemble_max(a, ScoreMatrix(rng.random((2, 3)), ["a", "c"], "lesion"))


def test_scores_csv_round_trip(tmp_path, rng):
    sm = ScoreMatrix(rng.random((5, 3)), [f"s{i}" for i in range(5)], "lesion")
    path = tmp_path / "scores.csv"
    write_scores(path, sm, ["a", "b", "c"])
    loaded, names = read_scores(path, "lesion")
    assert names == ["a", "b", "c"]
    assert loaded.ids == sm.ids
    assert np.array_equal(loaded.scores, sm.scores)
