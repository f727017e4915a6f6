import json

import numpy as np
import pytest

from mtlkit.analysis import (
    AttentionMap,
    FeatureIndex,
    attention,
    build_index,
    export_attention,
    query_feature,
    retrieval_report,
    retrieve,
)
from mtlkit.data import AugmentConfig, Dataset, Sample, SynthSpec, planted_correlation, synthesize
from mtlkit.errors import BadClass, BadK, NonFiniteFeature
from mtlkit.network import DualHeadNet, NetConfig


def small_net(P=3, Q=4, seed=0):
    return DualHeadNet(NetConfig(width=4, blocks=1), P, Q, seed)


AUG = AugmentConfig(jitter_min=8, jitter_max=8, crop=8, eval_scale=8)


def dataset(images):
    samples = [Sample(img, np.array([1, 0, 0]), 1, f"s{i}") for i, img in enumerate(images)]
    return Dataset(samples, ["l0", "l1", "l2"], ["x", "y", "z", "w"])


class TestRetrieval:
    def test_toy_345_distances(self):
        index = FeatureIndex(np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]]), ["a", "b", "c"])
        out = retrieve(index, np.array([0.0, 0.0]), 2)
        assert out == [("a", 0.0), ("b", 5.0)]

    def test_self_query_first(self, rng):
        feats = rng.normal(size=(6, 4))
        index = FeatureIndex(feats, [f"s{i}" for i in range(6)])
        out = retrieve(index, feats[3], 3)
        assert out[0] == ("s3", 0.0)

    def test_k_equals_n_is_permutation(self, rng):
        ids = [f"s{i}" for i in range(5)]
        index = FeatureIndex(rng.normal(size=(5, 3)), ids)
        out = retrieve(index, rng.normal(size=3), 5)
        assert sorted(sid for sid, _ in out) == ids

    def test_bad_k(self):
        index = FeatureIndex(np.zeros((2, 2)), ["a", "b"])
        with pytest.raises(BadK):
            retrieve(index, np.zeros(2), 3)
        with pytest.raises(BadK):
            retrieve(index, np.zeros(2), 0)

    def test_tie_broken_by_id(self):
        index = FeatureIndex(np.zeros((3, 2)), ["c", "a", "b"])
        out = retrieve(index, np.zeros(2), 3)
        assert [sid for sid, _ in out] == ["a", "b", "c"]

    def test_exact_ties_in_ascending_id_order(self):
        # four points at distance exactly 1 around the query, listed out of
        # id order; ids compare as strings, so "s10" sorts before "s2"
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        index = FeatureIndex(feats, ["s3", "s10", "z", "s1", "s2"])
        out = retrieve(index, np.zeros(2), 5)
        assert out == [("z", 0.0), ("s1", 1.0), ("s10", 1.0), ("s2", 1.0), ("s3", 1.0)]
        assert retrieve(index, np.zeros(2), 3) == out[:3]

    def test_translation_invariance(self, rng):
        feats = rng.normal(size=(6, 4))
        q = rng.normal(size=4)
        shift = rng.normal(size=4)
        a = retrieve(FeatureIndex(feats, [f"s{i}" for i in range(6)]), q, 6)
        b = retrieve(FeatureIndex(feats + shift, [f"s{i}" for i in range(6)]), q + shift, 6)
        assert [sid for sid, _ in a] == [sid for sid, _ in b]
        for (_, da), (_, db) in zip(a, b):
            assert abs(da - db) < 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_ranked_ids_order_like_the_id_strings(self, seed):
        # ties, NaN and inf distances and duplicate ids, checked against the
        # string lexsort that the precomputed id rank replaced
        rng = np.random.default_rng(seed)
        n = 12
        feats = rng.choice([0.0, 1.0, 1.0, 2.5, np.nan, np.inf, -np.inf], size=(n, 1))
        ids = [str(x) for x in rng.choice(["b", "a", "s10", "s2", "a0", ""], size=n)]
        index = FeatureIndex(feats, ids)
        dists = np.sqrt(((feats - np.zeros(1)) ** 2).sum(axis=1))
        oracle = np.lexsort((np.asarray(ids), dists))
        for k in range(1, n + 1):
            got = [(sid, repr(d)) for sid, d in retrieve(index, np.zeros(1), k)]
            assert got == [(ids[i], repr(float(dists[i]))) for i in oracle[:k]]


class TestIndex:
    def test_duplicate_images_identical_rows(self, rng):
        img = rng.random((3, 8, 8))
        ds = dataset([img, img.copy()])
        index = build_index(small_net(), ds, AUG)
        assert np.array_equal(index.features[0], index.features[1])

    def test_empty_dataset(self):
        ds = dataset([])
        index = build_index(small_net(), ds, AUG)
        assert index.features.shape == (0, 4)

    def test_empty_and_full_index_share_a_dtype(self, rng):
        net, ds = small_net(), dataset([rng.random((3, 8, 8))])
        empty, full = build_index(net, dataset([]), AUG), build_index(net, ds, AUG)
        assert empty.features.dtype == full.features.dtype == np.float64
        assert query_feature(net, ds.samples[0], AUG).dtype == np.float64

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_feature_is_rejected(self, rng, monkeypatch, bad):
        net = small_net()
        ds = dataset([rng.random((3, 8, 8)) for _ in range(3)])
        infer = net.infer

        def overflowing(images, batch_size=20):
            les, loc, feats = infer(images, batch_size)
            feats[-1, 0] = bad
            return les, loc, feats

        monkeypatch.setattr(net, "infer", overflowing)
        with pytest.raises(NonFiniteFeature, match="sample 's2'"):
            build_index(net, ds, AUG)
        with pytest.raises(NonFiniteFeature, match="sample 's1'"):
            query_feature(net, ds.samples[1], AUG)

    def test_features_match_conv_map_means(self, rng):
        img = rng.random((3, 8, 8))
        net = small_net()
        ds = dataset([img])
        index = build_index(net, ds, AUG)
        from mtlkit.data import eval_transform

        # the float32 batch that infer forwards; its pooled means, widened
        _, _, _, maps = net.forward(eval_transform(ds.samples[0], AUG)[None].astype(np.float32))
        expected = maps.data[0].mean(axis=(1, 2)).astype(np.float64)
        assert np.abs(index.features[0] - expected).max() < 1e-12


class TestAttention:
    def test_single_channel_equals_normalized_map(self, rng):
        net = DualHeadNet(NetConfig(width=1, blocks=0), 2, 3, seed=0)
        net.lesion_w.data[:] = 1.0
        img = rng.random((3, 8, 8))
        amap = attention(net, img, "lesion", 0)
        # attention forwards the image in float32 and normalizes in float64
        _, _, _, maps = net.forward(img[None].astype(np.float32))
        raw = maps.data[0, 0].astype(np.float64)
        expected = (raw - raw.min()) / (raw.max() - raw.min())
        assert np.abs(amap.map - expected).max() < 1e-12

    def test_maps_are_float64(self, rng):
        amap = attention(small_net(), rng.random((3, 8, 8)), "location", 1, upsample=True)
        assert amap.raw.dtype == amap.map.dtype == amap.upsampled.dtype == np.float64

    def test_zero_weights_constant_half(self, rng):
        net = small_net()
        net.lesion_w.data[:] = 0.0
        amap = attention(net, rng.random((3, 8, 8)), "lesion", 1)
        assert np.array_equal(amap.map, np.full_like(amap.map, 0.5))

    def test_two_channel_dot_product(self):
        # raw map is the head-weighted sum of activation maps
        net = small_net()
        img = np.random.default_rng(0).random((3, 8, 8))
        _, _, _, maps = net.forward(img[None].astype(np.float32))
        w = net.location_w.data[:, 2]
        expected_raw = np.tensordot(w, maps.data[0], axes=(0, 0))
        amap = attention(net, img, "location", 2)
        assert np.abs(amap.raw - expected_raw).max() < 1e-12

    def test_linearity_of_raw_maps(self, rng):
        net = small_net()
        img = rng.random((3, 8, 8))
        w1 = rng.normal(size=4)
        w2 = rng.normal(size=4)
        net.lesion_w.data[:, 0] = w1
        net.lesion_w.data[:, 1] = w2
        net.lesion_w.data[:, 2] = w1 + w2
        a = attention(net, img, "lesion", 0).raw
        b = attention(net, img, "lesion", 1).raw
        c = attention(net, img, "lesion", 2).raw
        assert np.abs(c - (a + b)).max() < 1e-9

    def test_upsample_corners_and_range(self, rng):
        net = small_net()
        img = rng.random((3, 8, 8))
        amap = attention(net, img, "lesion", 0, upsample=True)
        up = amap.upsampled
        assert up.shape == img.shape[1:]
        # corner-aligned interpolation reproduces the corners exactly and
        # never escapes the [min, max] of the source map
        for uy, y in ((0, 0), (-1, -1)):
            for ux, x in ((0, 0), (-1, -1)):
                assert abs(up[uy, ux] - amap.map[y, x]) < 1e-12
        assert up.min() >= amap.map.min() - 1e-12
        assert up.max() <= amap.map.max() + 1e-12

    def test_bad_class(self, rng):
        with pytest.raises(BadClass):
            attention(small_net(), rng.random((3, 8, 8)), "lesion", 7)


class TestReport:
    def test_self_query_matches(self, rng):
        ds = dataset([rng.random((3, 8, 8)) for _ in range(3)])
        net = small_net()
        index = build_index(net, ds, AUG)
        report = retrieval_report(net, index, ds, ds, 2, AUG)
        assert report["match_rate"] == 1.0  # all samples share lesion l0
        assert report["queries"][0]["neighbors"][0]["id"] == "s0"

    def test_disjoint_vocabularies_no_match(self, rng):
        imgs = [rng.random((3, 8, 8)) for _ in range(2)]
        index_ds = dataset(imgs)
        q_samples = [Sample(imgs[0], np.array([1]), 1, "q0")]
        queries = Dataset(q_samples, ["other"], ["x", "y", "z", "w"])
        net = small_net()
        index = build_index(net, index_ds, AUG)
        report = retrieval_report(net, index, index_ds, queries, 2, AUG)
        assert report["match_rate"] == 0.0

    def test_hand_computed_match_rate(self, rng):
        imgs = [rng.random((3, 8, 8)) for _ in range(3)]
        samples = [
            Sample(imgs[0], np.array([1, 0, 0]), 1, "s0"),
            Sample(imgs[1], np.array([1, 1, 0]), 1, "s1"),
            Sample(imgs[2], np.array([0, 0, 1]), 2, "s2"),
        ]
        ds = Dataset(samples, ["l0", "l1", "l2"], ["x", "y", "z", "w"])
        net = small_net()
        index = build_index(net, ds, AUG)
        report = retrieval_report(net, index, ds, ds, 3, AUG)
        # every query sees all 3 samples: s0 and s1 share l0 (2 matches
        # each), s2 shares a lesion only with itself (1 match) -> 5 of 9
        assert report["match_rate"] == pytest.approx(5.0 / 9.0)


def test_export_attention(tmp_path):
    amap = AttentionMap(np.linspace(0, 1, 16).reshape(4, 4), np.zeros((4, 4)), 1, "lesion")
    export_attention(tmp_path, "demo", amap)
    assert (tmp_path / "demo.pgm").exists()
    meta = json.loads((tmp_path / "demo.json").read_text())
    assert meta["head"] == "lesion" and meta["class_index"] == 1
