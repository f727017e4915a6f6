import json
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mtlkit.data import (
    AugmentConfig,
    Dataset,
    Sample,
    SynthSpec,
    _axis_table,
    assign_folds,
    augment,
    channel_means,
    eval_transform,
    load_manifest,
    planted_correlation,
    read_ppm,
    resize_bilinear,
    save_manifest,
    synthesize,
    ten_crop,
    write_ppm,
)
from mtlkit.analysis import attention
from mtlkit.errors import (
    BadSpec,
    CropTooLarge,
    MissingImage,
    ParseError,
    ShapeMismatch,
    UnknownLabel,
)
from mtlkit.metrics import correlation_matrix
from mtlkit.network import DualHeadNet, NetConfig
from mtlkit.training import TrainConfig, train


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
    def test_round_trip_quantized(self, rng, tmp_path):
        img = rng.random((3, 5, 7))
        path = tmp_path / "round_trip.ppm"
        write_ppm(path, img)
        loaded = read_ppm(path)
        assert loaded.shape == (3, 5, 7) and loaded.dtype == np.uint8
        assert loaded.flags.c_contiguous
        assert np.abs(loaded / 255.0 - img).max() <= 0.5 / 255 + 1e-12

    def test_levels_are_the_file_bytes(self, tmp_path):
        levels = np.arange(3 * 4 * 6, dtype=np.uint8).reshape(4, 6, 3)
        path = tmp_path / "levels.ppm"
        path.write_bytes(b"P6\n6 4\n255\n" + levels.tobytes())
        assert np.array_equal(read_ppm(path), levels.transpose(2, 0, 1))
        write_ppm(tmp_path / "again.ppm", read_ppm(path))
        assert (tmp_path / "again.ppm").read_bytes() == path.read_bytes()

    @pytest.mark.parametrize("w, h", [(0, 0), (0, 5), (5, 0)])
    def test_zero_size_is_parse_error(self, tmp_path, w, h):
        path = tmp_path / "empty.ppm"
        path.write_bytes(f"P6\n{w} {h}\n255\n".encode())
        with pytest.raises(ParseError, match="zero-size image"):
            read_ppm(path)

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

    def test_duplicate_id_rejected_at_its_second_line(self, tmp_path):
        records = [{"id": "s0", "lesions": ["a"], "location": "x"},
                   {"id": "s1", "lesions": ["b"], "location": "y"},
                   {"id": "s0", "lesions": ["b"], "location": "x"}]
        with pytest.raises(ParseError, match=r"line 4: duplicate sample id 's0'"):
            load_manifest(make_manifest(tmp_path, records))

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
            assert a.image.dtype == np.uint8
            assert np.abs(a.image / 255.0 - b.image).max() <= 0.5 / 255 + 1e-12

    def test_saving_a_loaded_dataset_rewrites_the_same_bytes(self, tmp_path):
        spec = SynthSpec(P=3, Q=2, N=6, R=planted_correlation(3, 2, 0.8), image_size=(3, 9, 13),
                         seed=2)
        first = save_manifest(synthesize(spec), tmp_path / "first")
        second = save_manifest(load_manifest(first), tmp_path / "second")
        assert open(second, "rb").read() == open(first, "rb").read()
        for s in load_manifest(first).samples:
            rel = f"images/{s.id}.ppm"
            again = (tmp_path / "second" / rel).read_bytes()
            assert again == (tmp_path / "first" / rel).read_bytes()

    def test_loaded_images_hold_one_byte_a_value(self, tmp_path):
        n, shape = 10, (3, 48, 64)
        rng = np.random.default_rng(0)
        ds = Dataset([Sample(rng.random(shape), np.array([1, 0]), 1, f"s{i}") for i in range(n)],
                     ["a", "b"], ["x", "y"])
        manifest = save_manifest(ds, tmp_path)
        was_tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            loaded = load_manifest(manifest)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            if not was_tracing:
                tracemalloc.stop()
        size = int(np.prod(shape))
        assert held < 2 * n * size   # float64 pixels would hold 8 * n * size
        assert [s.image.nbytes for s in loaded.samples] == [size] * n


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


MIXED_SHAPES = [(3, 32, 32), (3, 23, 41), (3, 45, 19), (3, 9, 30), (3, 32, 32), (3, 60, 50)]


def resize_reference(image, out_h, out_w):
    """Corner-aligned bilinear resize of one C x H x W image by fancy
    indexing, the per-image kernel that resize_bilinear replaced."""
    c, h, w = image.shape
    (y0, y1), (vy, wy) = _axis_table(h, out_h)
    (x0, x1), (vx, wx) = _axis_table(w, out_w)
    vy, wy = vy[None, :, None], wy[None, :, None]
    rows0, rows1 = image[:, y0], image[:, y1]
    top = rows0[:, :, x0] * vx + rows0[:, :, x1] * wx
    bot = rows1[:, :, x0] * vx + rows1[:, :, x1] * wx
    return top * vy + bot * wy


def shorter_side_reference(image, s):
    """resize_reference to the size whose shorter side is s."""
    _, h, w = image.shape
    if h <= w:
        return resize_reference(image, s, max(1, int(round(w * s / h))))
    return resize_reference(image, max(1, int(round(h * s / w))), s)


class TestResize:
    def test_identity(self, rng):
        img = rng.random((3, 9, 11))
        out = resize_bilinear([img], [(9, 11, 0, 0, False)], 9, 11)
        assert out.shape == (1, 3, 9, 11)
        assert np.abs(out[0] - img).max() < 1e-9

    def test_constant_preserved(self):
        img = np.full((3, 8, 8), 0.3)
        out = resize_bilinear([img], [(13, 17, 0, 0, False)], 13, 17)
        assert np.abs(out - 0.3).max() < 1e-12

    def test_windows_equal_reference_slices(self, rng):
        # up- and downsampling, mixed shapes, plain and mirrored windows
        images = [rng.normal(size=shape) for shape in MIXED_SHAPES]
        rows, cols = 7, 9
        windows, want = [], []
        for img in images:
            out_h, out_w = int(rng.integers(rows, 60)), int(rng.integers(cols, 60))
            top = int(rng.integers(0, out_h - rows + 1))
            left = int(rng.integers(0, out_w - cols + 1))
            flip = bool(rng.random() < 0.5)
            windows.append((out_h, out_w, top, left, flip))
            part = resize_reference(img, out_h, out_w)[:, top : top + rows, left : left + cols]
            want.append(part[:, :, ::-1] if flip else part)
        got = resize_bilinear(images, windows, rows, cols)
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == np.stack(want).tobytes()


class TestAugment:
    def sample(self, image):
        return Sample(image, np.array([1]), 1, "s")

    def test_deterministic_under_seed(self, rng):
        s = self.sample(rng.random((3, 32, 32)))
        cfg = AugmentConfig()
        a = augment([s], np.random.default_rng(3), cfg)[0]
        b = augment([s], np.random.default_rng(3), cfg)[0]
        assert np.array_equal(a, b)
        assert a.shape == (3, 28, 28)

    def test_degenerate_jitter_mean_subtraction(self, rng):
        img = rng.random((3, 16, 16))
        means = img.mean(axis=(1, 2))
        cfg = AugmentConfig(jitter_min=16, jitter_max=16, crop=16, flip_prob=0.0,
                            channel_means=means)
        out = augment([self.sample(img)], np.random.default_rng(0), cfg)[0]
        assert np.abs(out.mean(axis=(1, 2))).max() < 1e-9

    def test_constant_image_stays_constant(self):
        img = np.full((3, 20, 20), 0.7)
        cfg = AugmentConfig(jitter_min=24, jitter_max=30, crop=16)
        out = augment([self.sample(img)], np.random.default_rng(1), cfg)[0]
        assert np.abs(out - 0.7).max() < 1e-9

    def test_crop_too_large(self):
        cfg = AugmentConfig(jitter_min=10, jitter_max=10, crop=12)
        with pytest.raises(CropTooLarge):
            augment([self.sample(np.zeros((3, 8, 8)))], np.random.default_rng(0), cfg)


def augment_reference(sample, rng, cfg):
    """augment as full jittered resize, mean subtraction, crop, flip."""
    img = shorter_side_reference(sample.image,
                                 int(rng.integers(cfg.jitter_min, cfg.jitter_max + 1)))
    _, h, w = img.shape
    if cfg.channel_means is not None:
        img = img - cfg.channel_means[:, None, None]
    top = int(rng.integers(0, h - cfg.crop + 1))
    left = int(rng.integers(0, w - cfg.crop + 1))
    img = img[:, top : top + cfg.crop, left : left + cfg.crop]
    return img[:, :, ::-1] if rng.random() < cfg.flip_prob else img


def eval_transform_reference(sample, cfg):
    """eval_transform as full resize, mean subtraction, center crop."""
    img = shorter_side_reference(sample.image, cfg.eval_scale) - cfg.channel_means[:, None, None]
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
        got, want = augment([sample], mine, cfg)[0], augment_reference(sample, ref, cfg)
        assert got.flags.c_contiguous and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert mine.bit_generator.state == ref.bit_generator.state


def ten_crop_reference(sample, cfg):
    """ten_crop as full resize, mean subtraction, then the 10 slices."""
    img = shorter_side_reference(sample.image, cfg.eval_scale)
    if cfg.channel_means is not None:
        img = img - np.asarray(cfg.channel_means)[:, None, None]
    _, h, w = img.shape
    c = cfg.crop
    offsets = [(0, 0), (0, w - c), (h - c, 0), (h - c, w - c), ((h - c) // 2, (w - c) // 2)]
    crops = [img[:, t : t + c, l : l + c] for t, l in offsets]
    return crops + [x[:, :, ::-1] for x in crops]


@pytest.mark.parametrize("shape", [(3, 32, 32), (3, 23, 41), (3, 45, 19), (1, 9, 30),
                                   (3, 17, 16)])
@pytest.mark.parametrize("means", [True, False], ids=["means", "no-means"])
def test_ten_crop_equals_reference_crops(rng, shape, means):
    cfg = AugmentConfig(crop=13, eval_scale=19,
                        channel_means=rng.normal(size=shape[0]) if means else None)
    sample = Sample(rng.random(shape), np.array([1]), 1, "s")
    got, want = ten_crop(sample, cfg), ten_crop_reference(sample, cfg)
    assert len(got) == len(want) == 10
    for a, b in zip(got, want):
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@pytest.mark.parametrize("shape", [(3, 16, 16), (3, 12, 22), (3, 18, 10)])
def test_attention_upsample_equals_reference_resize(rng, shape):
    net = DualHeadNet(NetConfig(width=4, blocks=1), 3, 2, seed=0)
    amap = attention(net, rng.normal(size=shape), "lesion", 1, upsample=True)
    want = resize_reference(amap.map[None], *shape[1:])[0]
    assert amap.upsampled.flags.c_contiguous and amap.upsampled.shape == shape[1:]
    assert amap.upsampled.tobytes() == want.tobytes()


@pytest.mark.parametrize("flip_prob", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("means", [True, False], ids=["means", "no-means"])
@pytest.mark.parametrize("n", [1, 6])
def test_augment_batch_equals_reference_rows(rng, flip_prob, means, n):
    cfg = AugmentConfig(flip_prob=flip_prob,
                        channel_means=rng.normal(size=3) if means else None)
    samples = [Sample(rng.random(shape), np.array([1]), 1, "s") for shape in MIXED_SHAPES[:n]]
    mine, ref = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        got = augment(samples, mine, cfg)
        want = np.stack([augment_reference(s, ref, cfg) for s in samples])
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.shape == (n, 3, cfg.crop, cfg.crop)
        assert got.tobytes() == want.tobytes()
        assert mine.bit_generator.state == ref.bit_generator.state


def test_augment_edge_pixels_equal_reference_rows(rng):
    # the crop spans the whole jittered image, whose last row and column come
    # from source pixels of -0.0: only the clamped edge pixel itself, weighted
    # by 0, keeps them -0.0, so another neighbour would show in the bytes
    cfg = AugmentConfig(jitter_min=28, jitter_max=28, crop=28)
    samples = []
    for shape in [(3, 20, 20), (3, 28, 28), (3, 9, 9), (3, 40, 40)]:
        img = rng.normal(size=shape)
        img[:, -1, :] = img[:, :, -1] = -0.0
        samples.append(Sample(img, np.array([1]), 1, "s"))
    mine, ref = np.random.default_rng(2), np.random.default_rng(2)
    for _ in range(3):
        want = np.stack([augment_reference(s, ref, cfg) for s in samples])
        assert augment(samples, mine, cfg).tobytes() == want.tobytes()


def test_augment_raises_crop_too_large_at_the_offending_sample(rng):
    # crop 25 fits a jitter scale of 25-30 but not one of 20-24
    cfg = AugmentConfig(jitter_min=20, jitter_max=30, crop=25, channel_means=np.zeros(3))
    samples = [Sample(rng.random(shape), np.array([1]), 1, "s") for shape in MIXED_SHAPES]
    ref, done = np.random.default_rng(1), 0
    for s in samples:
        probe = np.random.default_rng()
        probe.bit_generator.state = ref.bit_generator.state
        if int(probe.integers(cfg.jitter_min, cfg.jitter_max + 1)) < cfg.crop:
            break
        augment_reference(s, ref, cfg)
        done += 1
    assert 0 < done < len(samples) - 1   # the seed puts the offending sample mid-batch
    mine = np.random.default_rng(1)
    with pytest.raises(CropTooLarge):
        augment(samples, mine, cfg)
    ref.integers(cfg.jitter_min, cfg.jitter_max + 1)   # the offending sample's scale
    assert mine.bit_generator.state == ref.bit_generator.state


def test_augment_rejects_a_batch_of_mixed_channel_counts(rng):
    samples = [Sample(rng.random((3, 32, 32)), np.array([1]), 1, "a"),
               Sample(rng.random((1, 32, 32)), np.array([1]), 1, "b")]
    with pytest.raises(ShapeMismatch, match="augment"):
        augment(samples, np.random.default_rng(0), AugmentConfig())


def test_training_batches_are_float32_references():
    ds = synthesize(SynthSpec(P=2, Q=2, N=30, R=np.eye(2), image_size=(3, 20, 20), seed=3))
    aug = AugmentConfig(jitter_min=20, jitter_max=26, crop=16)
    cfg = TrainConfig(epochs=1, batch_size=8, seed=4, net=NetConfig(width=4, blocks=1),
                      augment=aug)
    net = DualHeadNet(cfg.net, ds.P, ds.Q, seed=0)
    batches, forward = [], net.forward
    net.forward = lambda imgs: (batches.append(imgs), forward(imgs))[1]
    _, _, fitted = train(net, ds.samples, None, cfg)
    ref = np.random.default_rng(cfg.seed)
    order = ref.permutation(len(ds))
    fitted = replace(fitted, channel_means=np.asarray(fitted.channel_means))
    assert len(batches) == 4
    for start, got in zip(range(0, len(ds), cfg.batch_size), batches):
        want = np.stack([augment_reference(ds.samples[i], ref, fitted)
                         for i in order[start : start + cfg.batch_size]], dtype=np.float32)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("n_in, n_out", [(32, 41), (50, 36), (7, 7), (5, 1)])
def test_axis_table_is_the_corner_aligned_map(n_in, n_out):
    pos = np.linspace(0.0, n_in - 1.0, n_out) if n_out > 1 else np.zeros(1)
    idx, wts = _axis_table(n_in, n_out)
    assert np.array_equal(idx[0], np.floor(pos)) and idx.dtype == np.intp
    assert np.array_equal(idx[1], np.minimum(np.floor(pos) + 1, n_in - 1))
    assert wts[1].tobytes() == (pos - np.floor(pos)).tobytes()
    assert wts[0].tobytes() == (1 - wts[1]).tobytes()


def test_axis_table_is_cached_and_read_only():
    idx, wts = _axis_table(32, 41)
    again = _axis_table(32, 41)
    assert again[0] is idx and again[1] is wts
    for table in (idx, wts):
        with pytest.raises(ValueError):
            table[0, 0] = 0


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
        folds = assign_folds(23, 5, seed=1)
        counts = np.bincount(folds, minlength=5)
        assert counts.sum() == 23
        assert counts.max() - counts.min() <= 1
        assert np.array_equal(folds, assign_folds(23, 5, seed=1))
        assert not np.array_equal(folds, assign_folds(23, 5, seed=2))

    @pytest.mark.parametrize("n, n_folds", [(5, 1), (4, 5), (0, 2)])
    def test_bad_fold_count_is_bad_spec(self, n, n_folds):
        with pytest.raises(BadSpec, match=f"cannot split {n} samples into {n_folds} folds"):
            assign_folds(n, n_folds)

    def test_channel_means(self):
        samples = [Sample(np.full((3, 2, 2), 0.25), np.array([1]), 1, "a"),
                   Sample(np.full((3, 2, 2), 0.75), np.array([1]), 1, "b")]
        assert np.allclose(channel_means(samples), [0.5, 0.5, 0.5])


def test_eval_transform_center_crop(rng):
    img = rng.random((3, 8, 8))
    cfg = AugmentConfig(crop=4, eval_scale=8)
    out = eval_transform(Sample(img, np.array([1]), 1, "s"), cfg)
    assert np.array_equal(out, img[:, 2:6, 2:6])


# Images read from a PPM are held as uint8 levels, and level L stands for
# L / 255.0: every transform gives the same bytes for either form.


def level_samples(rng, shapes):
    """uint8 samples, the same as float64 levels / 255.0, and the same as
    float64 laid out in the file's H x W x C pixel order (a float64 view of
    the file's bytes, as ``astype`` of the read buffer lays it out)."""
    levels = [rng.integers(0, 256, size=shape, dtype=np.uint8) for shape in shapes]
    forms = ([img for img in levels], [img / 255.0 for img in levels],
             [np.ascontiguousarray(img.transpose(1, 2, 0)).transpose(2, 0, 1) / 255.0
              for img in levels])
    return [[Sample(img, np.array([1]), 1, f"s{i}") for i, img in enumerate(form)]
            for form in forms]


def mix(a, b):
    return [x if i % 2 else y for i, (x, y) in enumerate(zip(a, b))]


def test_resize_reads_levels_as_their_scaled_values(rng):
    levels, floats, file_order = level_samples(rng, MIXED_SHAPES)
    rows, cols = 8, 10
    windows = []
    for s in floats:
        out_h, out_w = int(rng.integers(rows, 50)), int(rng.integers(cols, 50))
        windows.append((out_h, out_w, int(rng.integers(0, out_h - rows + 1)),
                        int(rng.integers(0, out_w - cols + 1)), bool(rng.random() < 0.5)))
    want = resize_bilinear([s.image for s in floats], windows, rows, cols).tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for batch in (levels, mix(levels, floats), file_order):
            assert resize_bilinear([s.image for s in batch], windows, rows, cols).tobytes() == want


@pytest.mark.parametrize("means", [True, False], ids=["means", "no-means"])
def test_transforms_of_levels_equal_transforms_of_floats(rng, means):
    cfg = AugmentConfig(crop=13, eval_scale=19, jitter_min=19, jitter_max=25,
                        channel_means=rng.normal(size=3) if means else None)
    levels, floats, file_order = level_samples(rng, MIXED_SHAPES)
    want = augment(floats, np.random.default_rng(4), cfg).tobytes()
    for batch in (levels, mix(levels, floats), file_order):
        assert augment(batch, np.random.default_rng(4), cfg).tobytes() == want
    for a, b in zip(levels, floats):
        assert eval_transform(a, cfg).tobytes() == eval_transform(b, cfg).tobytes()
        for x, y in zip(ten_crop(a, cfg), ten_crop(b, cfg)):
            assert x.flags.c_contiguous and x.tobytes() == y.tobytes()


def test_channel_means_of_levels_sum_in_the_file_pixel_order(rng):
    # numpy sums a C x (H*W) view of a C-contiguous float image pairwise but
    # a view of a pixel-ordered one value by value; levels keep the latter
    levels, floats, file_order = level_samples(rng, MIXED_SHAPES)
    want = channel_means(file_order)
    assert channel_means(levels).tobytes() == want.tobytes()
    assert channel_means(mix(levels, file_order)).tobytes() == want.tobytes()
    assert np.allclose(channel_means(floats), want, rtol=0, atol=1e-15)
