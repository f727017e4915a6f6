import json

import numpy as np
import pytest

from mtlkit.data import (
    AugmentConfig,
    Sample,
    SynthSpec,
    assign_folds,
    augment,
    channel_means,
    eval_transform,
    load_manifest,
    planted_correlation,
    read_ppm,
    resize_bilinear,
    resize_shorter_side,
    save_manifest,
    synthesize,
    ten_crop,
    write_ppm,
)
from mtlkit.errors import BadSpec, CropTooLarge, MissingImage, ParseError, UnknownLabel
from mtlkit.metrics import correlation_matrix


def make_manifest(tmp_path, records, lesions=("a", "b"), locations=("x", "y")):
    path = tmp_path / "manifest.jsonl"
    lines = [json.dumps({"lesions": list(lesions), "locations": list(locations)})]
    rng = np.random.default_rng(0)
    for rec in records:
        img = tmp_path / f"{rec['id']}.ppm"
        write_ppm(img, rng.random((3, 8, 8)))
        lines.append(json.dumps({"image": img.name, **rec}))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestPpm:
    def test_round_trip_quantized(self, rng):
        img = rng.random((3, 5, 7))
        path = "/tmp/mtlkit_test.ppm"
        write_ppm(path, img)
        loaded = read_ppm(path)
        assert loaded.shape == (3, 5, 7)
        assert np.abs(loaded - img).max() <= 0.5 / 255 + 1e-12

    @pytest.mark.parametrize("name", ["absent.ppm", "."], ids=["missing", "directory"])
    def test_unreadable_path_is_parse_error(self, tmp_path, name):
        with pytest.raises(ParseError, match="cannot read image"):
            read_ppm(tmp_path / name)


class TestManifest:
    def test_empty_manifest(self, tmp_path):
        ds = load_manifest(make_manifest(tmp_path, []))
        assert len(ds) == 0
        assert ds.lesion_names == ["a", "b"]

    def test_no_lesions_rejected(self, tmp_path):
        path = make_manifest(tmp_path, [{"id": "s0", "lesions": [], "location": "x"}])
        with pytest.raises(ParseError):
            load_manifest(path)

    def test_unknown_label(self, tmp_path):
        path = make_manifest(tmp_path, [{"id": "s0", "lesions": ["zz"], "location": "x"}])
        with pytest.raises(UnknownLabel):
            load_manifest(path)

    def test_missing_image(self, tmp_path):
        path = tmp_path / "m.jsonl"
        path.write_text(
            json.dumps({"lesions": ["a"], "locations": ["x", "y"]}) + "\n"
            + json.dumps({"id": "s", "image": "absent.ppm", "lesions": ["a"], "location": "x"})
            + "\n"
        )
        with pytest.raises(MissingImage):
            load_manifest(path)

    def test_image_that_is_a_directory(self, tmp_path):
        # "" joins to the manifest's own directory
        path = make_manifest(tmp_path, [{"id": "s0", "lesions": ["a"], "location": "x"}])
        path.write_text(path.read_text().replace('"image": "s0.ppm"', '"image": ""'))
        with pytest.raises(MissingImage):
            load_manifest(path)

    def test_golden_fixture(self, tmp_path):
        records = [
            {"id": "s0", "lesions": ["a"], "location": "x"},
            {"id": "s1", "lesions": ["a", "b"], "location": "y"},
            {"id": "s2", "lesions": ["b"], "location": "y"},
        ]
        ds = load_manifest(make_manifest(tmp_path, records))
        assert len(ds) == 3
        assert np.array_equal(ds.samples[0].u, [1, 0])
        assert np.array_equal(ds.samples[1].u, [1, 1])
        assert np.array_equal(ds.samples[2].u, [0, 1])
        assert [s.v for s in ds.samples] == [1, 2, 2]

    def test_save_load_round_trip(self, tmp_path):
        spec = SynthSpec(P=3, Q=2, N=6, R=planted_correlation(3, 2, 0.8), seed=4)
        ds = synthesize(spec)
        manifest = save_manifest(ds, tmp_path / "out")
        loaded = load_manifest(manifest)
        assert [s.id for s in loaded.samples] == [s.id for s in ds.samples]
        for a, b in zip(loaded.samples, ds.samples):
            assert np.array_equal(a.u, b.u) and a.v == b.v
            assert np.abs(a.image - b.image).max() <= 0.5 / 255 + 1e-12


class TestSynthesize:
    def test_determinism(self):
        spec = SynthSpec(P=4, Q=3, N=20, R=planted_correlation(4, 3, 0.9), seed=9, noise=0.0)
        a, b = synthesize(spec), synthesize(spec)
        for sa, sb in zip(a.samples, b.samples):
            assert np.array_equal(sa.image, sb.image)
            assert np.array_equal(sa.u, sb.u) and sa.v == sb.v

    def test_every_sample_has_a_lesion_and_location(self):
        ds = synthesize(SynthSpec(P=4, Q=3, N=50, R=planted_correlation(4, 3, 0.7), seed=1))
        for s in ds.samples:
            assert s.u.sum() >= 1
            assert 1 <= s.v <= 3

    def test_identity_correlation_recovered(self):
        p = q = 4
        ds = synthesize(SynthSpec(P=p, Q=q, N=2000, R=np.eye(p), seed=0))
        corr = correlation_matrix(ds)
        assert np.abs(corr.R - np.eye(p)).max() < 0.05

    def test_uniform_rows_recovered(self):
        p, q = 3, 4
        r = np.full((p, q), 1.0 / q)
        ds = synthesize(SynthSpec(P=p, Q=q, N=2000, R=r, seed=0))
        corr = correlation_matrix(ds)
        assert np.abs(corr.R - 1.0 / q).max() < 0.05

    def test_bad_spec(self):
        with pytest.raises(BadSpec):
            synthesize(SynthSpec(P=2, Q=2, N=5, R=np.array([[0.5, 0.6], [0.5, 0.5]])))
        with pytest.raises(BadSpec):
            synthesize(SynthSpec(P=2, Q=2, N=5, R=np.eye(3)))


class TestResize:
    def test_identity(self, rng):
        img = rng.random((3, 9, 11))
        out = resize_bilinear(img, 9, 11)
        assert np.abs(out - img).max() < 1e-9

    def test_constant_preserved(self):
        img = np.full((3, 8, 8), 0.3)
        out = resize_bilinear(img, 13, 17)
        assert np.abs(out - 0.3).max() < 1e-12

    def test_shorter_side(self, rng):
        from mtlkit.data import resize_shorter_side

        out = resize_shorter_side(rng.random((3, 10, 20)), 5)
        assert out.shape == (3, 5, 10)


class TestAugment:
    def sample(self, image):
        return Sample(image, np.array([1]), 1, "s")

    def test_deterministic_under_seed(self, rng):
        s = self.sample(rng.random((3, 32, 32)))
        cfg = AugmentConfig()
        a = augment(s, np.random.default_rng(3), cfg)
        b = augment(s, np.random.default_rng(3), cfg)
        assert np.array_equal(a, b)
        assert a.shape == (3, 28, 28)

    def test_degenerate_jitter_mean_subtraction(self, rng):
        img = rng.random((3, 16, 16))
        means = img.mean(axis=(1, 2))
        cfg = AugmentConfig(jitter_min=16, jitter_max=16, crop=16, flip_prob=0.0,
                            channel_means=means)
        out = augment(self.sample(img), np.random.default_rng(0), cfg)
        assert np.abs(out.mean(axis=(1, 2))).max() < 1e-9

    def test_constant_image_stays_constant(self):
        img = np.full((3, 20, 20), 0.7)
        cfg = AugmentConfig(jitter_min=24, jitter_max=30, crop=16)
        out = augment(self.sample(img), np.random.default_rng(1), cfg)
        assert np.abs(out - 0.7).max() < 1e-9

    def test_crop_too_large(self):
        cfg = AugmentConfig(jitter_min=10, jitter_max=10, crop=12)
        with pytest.raises(CropTooLarge):
            augment(self.sample(np.zeros((3, 8, 8))), np.random.default_rng(0), cfg)


def augment_reference(sample, rng, cfg):
    """augment as full jittered resize, mean subtraction, crop, flip."""
    img = resize_shorter_side(sample.image, int(rng.integers(cfg.jitter_min, cfg.jitter_max + 1)))
    _, h, w = img.shape
    img = img - cfg.channel_means[:, None, None]
    top = int(rng.integers(0, h - cfg.crop + 1))
    left = int(rng.integers(0, w - cfg.crop + 1))
    img = img[:, top : top + cfg.crop, left : left + cfg.crop]
    return img[:, :, ::-1] if rng.random() < cfg.flip_prob else img


def eval_transform_reference(sample, cfg):
    """eval_transform as full resize, mean subtraction, center crop."""
    img = resize_shorter_side(sample.image, cfg.eval_scale) - cfg.channel_means[:, None, None]
    _, h, w = img.shape
    top, left = (h - cfg.crop) // 2, (w - cfg.crop) // 2
    return img[:, top : top + cfg.crop, left : left + cfg.crop]


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 23, 41), (3, 45, 19), (1, 9, 30)])
def test_windowed_transforms_equal_full_resize_then_crop(rng, shape):
    cfg = AugmentConfig(channel_means=rng.normal(size=shape[0]))
    sample = Sample(rng.random(shape), np.array([1]), 1, "s")
    want = eval_transform_reference(sample, cfg)
    got = eval_transform(sample, cfg)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    mine, ref = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(40):
        got, want = augment(sample, mine, cfg), augment_reference(sample, ref, cfg)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert mine.bit_generator.state == ref.bit_generator.state


def test_resize_window_is_slice_of_full_resize(rng):
    img = rng.random((3, 11, 17))
    full = resize_bilinear(img, 25, 31)
    part = resize_bilinear(img, 25, 31, window=(4, 9, 13, 20))
    assert part.tobytes() == np.ascontiguousarray(full[:, 4:17, 9:29]).tobytes()


class TestTenCrop:
    def test_corner_offsets_8x8(self):
        img = np.arange(3 * 8 * 8, dtype=np.float64).reshape(3, 8, 8) / 200.0
        cfg = AugmentConfig(crop=4, eval_scale=8)
        crops = ten_crop(Sample(img, np.array([1]), 1, "s"), cfg)
        assert len(crops) == 10
        expected = [img[:, 0:4, 0:4], img[:, 0:4, 4:8], img[:, 4:8, 0:4],
                    img[:, 4:8, 4:8], img[:, 2:6, 2:6]]
        for got, want in zip(crops[:5], expected):
            assert np.array_equal(got, want)
        for got, plain in zip(crops[5:], crops[:5]):
            assert np.array_equal(got, plain[:, :, ::-1])

    def test_crop_sized_image_two_distinct(self, rng):
        img = rng.random((3, 6, 6))
        cfg = AugmentConfig(crop=6, eval_scale=6)
        crops = ten_crop(Sample(img, np.array([1]), 1, "s"), cfg)
        distinct = {c.tobytes() for c in crops}
        assert len(distinct) == 2

    def test_symmetric_image_collapses(self):
        half = np.arange(3 * 8 * 4, dtype=np.float64).reshape(3, 8, 4)
        img = np.concatenate([half, half[:, :, ::-1]], axis=2)
        cfg = AugmentConfig(crop=4, eval_scale=8)
        crops = ten_crop(Sample(img, np.array([1]), 1, "s"), cfg)
        # flips enumerate the same crops in mirrored-pair order
        assert np.array_equal(crops[5], crops[1])
        assert np.array_equal(crops[6], crops[0])
        assert np.array_equal(crops[9], crops[4])


class TestFolds:
    def test_partition(self):
        ds = synthesize(SynthSpec(P=2, Q=2, N=23, R=np.eye(2), seed=0))
        ds = assign_folds(ds, 5, seed=1)
        counts = np.bincount(ds.folds, minlength=5)
        assert counts.sum() == 23
        assert counts.max() - counts.min() <= 1

    def test_channel_means(self):
        samples = [Sample(np.full((3, 2, 2), 0.25), np.array([1]), 1, "a"),
                   Sample(np.full((3, 2, 2), 0.75), np.array([1]), 1, "b")]
        assert np.allclose(channel_means(samples), [0.5, 0.5, 0.5])


def test_eval_transform_center_crop(rng):
    img = rng.random((3, 8, 8))
    cfg = AugmentConfig(crop=4, eval_scale=8)
    out = eval_transform(Sample(img, np.array([1]), 1, "s"), cfg)
    assert np.array_equal(out, img[:, 2:6, 2:6])
