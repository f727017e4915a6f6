"""Dataset model, manifest ingestion, the synthetic correlated-label
generator, and image transforms (scale jitter, crop, flip, 10-crop).

Every view of an image is one bilinear kernel, ``resize_bilinear``: it
takes a batch of images and one window per image (the resized size, the
window's top-left corner and whether to mirror it) and computes only the
windows' pixels, in one gather over the whole batch. Its map is the
cached, read-only ``_axis_table`` of each (input length, output length).
``augment`` draws a window per sample and resamples the training batch
in one call; the samples may differ in H x W but not in C. Each sample
draws its jitter scale, crop top, crop left and flip, in that order,
before the next sample draws. ``eval_transform`` resamples one sample's
centre window. ``ten_crop`` resamples one sample's whole eval-scale image
and slices its ten crops from it. The channel means are subtracted after
the resample.

Manifest format: JSON-lines. The first line is a header
``{"lesions": [...], "locations": [...]}``; every following line is a
record ``{"id", "image", "lesions", "location"}`` with the image path
relative to the manifest. Images are 8-bit binary PPM (P6). A loaded
image is held as its C x H x W uint8 levels, one byte a pixel value, and
level L stands for L / 255.0: ``resize_bilinear`` and ``channel_means``
scale the levels to float64 where they read them, and ``write_ppm``
writes them back unchanged. Images made in memory (``synthesize``) are
float64 in [0, 1]; every transform takes either form, or a mix of both.

The synthetic generator plants a row-stochastic lesion-by-location
correlation matrix: each sample draws a primary lesion uniformly, draws
its location from the planted row, and may add a secondary lesion
consistent with that location. The rendered image carries a
location-determined background grating plus subtle lesion-determined
Gaussian glyphs and pixel noise, so the auxiliary task is easy, the main
task is hard, and the two are correlated.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    BadSpec,
    CropTooLarge,
    MissingImage,
    ParseError,
    ShapeMismatch,
    UnknownLabel,
)


@dataclass
class Sample:
    image: np.ndarray        # C x H x W: uint8 levels when read from a PPM, else float64
    u: np.ndarray            # binary lesion vector, length P
    v: int                   # 1-based location index
    id: str


@dataclass
class Dataset:
    samples: list
    lesion_names: list
    location_names: list

    @property
    def P(self) -> int:
        return len(self.lesion_names)

    @property
    def Q(self) -> int:
        return len(self.location_names)

    def __len__(self):
        return len(self.samples)


@dataclass
class SynthSpec:
    P: int
    Q: int
    N: int
    R: np.ndarray            # P x Q row-stochastic target correlation
    noise: float = 0.08
    image_size: tuple = (3, 32, 32)
    seed: int = 0
    multi_rate: float = 0.3  # chance of a secondary, location-consistent lesion
    lesion_amplitude: float = 0.10


@dataclass
class AugmentConfig:
    jitter_min: int = 36
    jitter_max: int = 48
    crop: int = 28
    flip_prob: float = 0.5
    eval_scale: int = 36
    channel_means: tuple | None = None   # per-channel floats; train fits them


# ---------------------------------------------------------------------------
# PPM / PGM I/O


def write_ppm(path, image: np.ndarray):
    """Write a C x H x W image, uint8 levels or floats in [0, 1], as binary
    8-bit P6."""
    c, h, w = image.shape
    if c != 3:
        raise ShapeMismatch("3 channels", image.shape, "write_ppm")
    data = image
    if data.dtype != np.uint8:
        data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
    """The C x H x W uint8 levels of a binary 8-bit P6 file, C-contiguous."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except OSError as e:
        raise ParseError(0, f"cannot read image {path}: {e.strerror}") from None
    fields = []
    pos = 0
    while len(fields) < 4:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        fields.append(raw[start:pos])
    pos += 1  # single whitespace after maxval
    if fields[0] != b"P6" or not all(f.isdigit() for f in fields[1:]) or int(fields[3]) != 255:
        raise ParseError(0, f"{path}: not an 8-bit P6 PPM")
    w, h = int(fields[1]), int(fields[2])
    if w == 0 or h == 0:
        raise ParseError(0, f"{path}: zero-size image ({w} x {h})")
    if len(raw) - pos < w * h * 3:
        raise ParseError(0, f"{path}: pixel data truncated")
    pix = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=pos)
    return np.ascontiguousarray(pix.reshape(h, w, 3).transpose(2, 0, 1))


def write_pgm(path, image: np.ndarray):
    """Write an H x W float image in [0, 1] as binary 8-bit P5."""
    h, w = image.shape
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode())
        f.write(data.tobytes())


# ---------------------------------------------------------------------------
# manifest


def load_manifest(path) -> Dataset:
    base = os.path.dirname(os.path.abspath(path))
    try:
        with open(path, "r", encoding="utf-8") as f:
            lines = f.read().splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(0, f"cannot read manifest {path}: {e}") from None
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise ParseError(1, "empty manifest (missing header)")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as e:
        raise ParseError(1, f"bad header JSON: {e}") from None
    if not isinstance(header, dict) or "lesions" not in header or "locations" not in header:
        raise ParseError(1, "header must define 'lesions' and 'locations'")
    for key in ("lesions", "locations"):
        if not isinstance(header[key], list) or not all(isinstance(n, str) for n in header[key]):
            raise ParseError(1, f"header {key!r} must be a list of names, got {header[key]!r}")
    lesion_names = list(dict.fromkeys(header["lesions"]))
    location_names = list(dict.fromkeys(header["locations"]))
    samples, seen = [], set()
    for lineno, line in enumerate(lines[1:], start=2):
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as e:
            raise ParseError(lineno, f"bad record JSON: {e}") from None
        if not isinstance(rec, dict):
            raise ParseError(lineno, f"record must be an object, got {rec!r}")
        for key in ("id", "image", "lesions", "location"):
            if key not in rec:
                raise ParseError(lineno, f"record missing field {key!r}")
        sid = str(rec["id"])
        if sid in seen:
            raise ParseError(lineno, f"duplicate sample id {sid!r}")
        seen.add(sid)
        if not isinstance(rec["image"], str) or not isinstance(rec["lesions"], list):
            raise ParseError(lineno, "record 'image' must be a path and 'lesions' a list")
        if not rec["lesions"]:
            raise ParseError(lineno, "record must carry at least one lesion label")
        u = np.zeros(len(lesion_names), dtype=np.int64)
        for name in rec["lesions"]:
            if name not in lesion_names:
                raise UnknownLabel(f"line {lineno}: unknown lesion {name!r}")
            u[lesion_names.index(name)] = 1
        if rec["location"] not in location_names:
            raise UnknownLabel(f"line {lineno}: unknown location {rec['location']!r}")
        v = location_names.index(rec["location"]) + 1
        img_path = os.path.join(base, rec["image"])
        if not os.path.isfile(img_path):
            raise MissingImage(img_path)
        samples.append(Sample(read_ppm(img_path), u, v, sid))
    return Dataset(samples, lesion_names, location_names)


def save_manifest(ds: Dataset, out_dir):
    """Write a dataset as manifest.jsonl plus images/<id>.ppm files."""
    os.makedirs(os.path.join(out_dir, "images"), exist_ok=True)
    manifest = os.path.join(out_dir, "manifest.jsonl")
    with open(manifest, "w", encoding="utf-8") as f:
        f.write(json.dumps({"lesions": ds.lesion_names, "locations": ds.location_names}) + "\n")
        for s in ds.samples:
            rel = f"images/{s.id}.ppm"
            write_ppm(os.path.join(out_dir, rel), s.image)
            rec = {
                "id": s.id,
                "image": rel,
                "lesions": [ds.lesion_names[i] for i in np.flatnonzero(s.u)],
                "location": ds.location_names[s.v - 1],
            }
            f.write(json.dumps(rec) + "\n")
    return manifest


# ---------------------------------------------------------------------------
# synthetic generator


def planted_correlation(P: int, Q: int, strength: float = 0.9) -> np.ndarray:
    """Row-stochastic P x Q matrix: lesion i prefers location i mod Q."""
    if P < 1 or Q < 2:
        raise BadSpec(f"invalid sizes P={P} Q={Q}")
    r = np.full((P, Q), (1.0 - strength) / (Q - 1))
    for i in range(P):
        r[i, i % Q] = strength
    return r


def _lesion_style(index: int):
    rng = np.random.default_rng(7919 * (index + 1) + 17)
    channel = rng.uniform(0.2, 1.0, size=3)
    radius_frac = rng.uniform(0.10, 0.16)
    return channel / channel.max(), radius_frac


def _location_style(index: int, c: int) -> np.ndarray:
    # per-channel grating amplitudes: invisible to plain pixel averaging,
    # recoverable through learned rectifying features
    rng = np.random.default_rng(104729 * (index + 1) + 5)
    return rng.uniform(0.05, 0.30, size=c)


def _render(u, v, q, size, noise, amplitude, rng):
    c, h, w = size
    yy, xx = np.mgrid[0:h, 0:w].astype(np.float64)
    theta = np.pi * (v - 1) / q
    freq = 2.0 + (v - 1) % 4
    phase = rng.uniform(0, 2 * np.pi)
    grating = np.sin(2 * np.pi * freq * (xx * np.cos(theta) + yy * np.sin(theta)) / h + phase)
    img = 0.5 + _location_style(v - 1, c)[:, None, None] * grating[None, :, :]
    for lesion in np.flatnonzero(u):
        chan, radius_frac = _lesion_style(int(lesion))
        cy = rng.uniform(0.2 * h, 0.8 * h)
        cx = rng.uniform(0.2 * w, 0.8 * w)
        r = radius_frac * h
        bump = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2 * r * r))
        img += amplitude * chan[:c, None, None] * bump[None, :, :]
    if noise > 0:
        img += rng.normal(0.0, noise, size=img.shape)
    return np.clip(img, 0.0, 1.0)


def synthesize(spec: SynthSpec) -> Dataset:
    """Generate a correlated-label dataset; deterministic under spec.seed."""
    r = np.asarray(spec.R, dtype=np.float64)
    if spec.P < 1 or spec.Q < 2 or spec.N < 1:
        raise BadSpec(f"invalid sizes P={spec.P} Q={spec.Q} N={spec.N}")
    if r.shape != (spec.P, spec.Q):
        raise BadSpec(f"R must be {spec.P}x{spec.Q}, got {r.shape}")
    if (r < 0).any() or np.abs(r.sum(axis=1) - 1.0).max() > 1e-9:
        raise BadSpec("R rows must be nonnegative and sum to 1 within 1e-9")
    if len(spec.image_size) != 3 or min(spec.image_size) < 1:
        raise BadSpec(f"image_size must be 3 positive sizes (C, H, W), got {spec.image_size}")
    if spec.noise < 0 or not (0 <= spec.multi_rate <= 1):
        raise BadSpec("noise must be >= 0 and multi_rate in [0, 1]")
    rng = np.random.default_rng(spec.seed)
    width = len(str(spec.N - 1))
    samples = []
    for i in range(spec.N):
        primary = int(rng.integers(spec.P))
        v = int(rng.choice(spec.Q, p=r[primary])) + 1
        u = np.zeros(spec.P, dtype=np.int64)
        u[primary] = 1
        if rng.random() < spec.multi_rate:
            # only lesions with an identical planted row may co-occur, so the
            # location conditional of every lesion stays exactly R
            candidates = [k for k in range(spec.P)
                          if k != primary and np.allclose(r[k], r[primary], atol=1e-12)]
            if candidates:
                u[candidates[int(rng.integers(len(candidates)))]] = 1
        img = _render(u, v, spec.Q, spec.image_size, spec.noise, spec.lesion_amplitude, rng)
        samples.append(Sample(img, u, v, f"synth{i:0{width}d}"))
    lesion_names = [f"lesion{i}" for i in range(spec.P)]
    location_names = [f"location{j}" for j in range(spec.Q)]
    return Dataset(samples, lesion_names, location_names)


# ---------------------------------------------------------------------------
# folds, labels and transforms


def assign_folds(n: int, n_folds: int, seed: int = 0) -> np.ndarray:
    """Seeded fold index of each of n samples: n_folds folds of near-equal
    size (diff <= 1)."""
    if n_folds < 2 or n_folds > n:
        raise BadSpec(f"cannot split {n} samples into {n_folds} folds")
    folds = np.empty(n, dtype=np.int64)
    folds[np.random.default_rng(seed).permutation(n)] = np.arange(n) % n_folds
    return folds


def labels(samples) -> tuple:
    """The stacked labels of a non-empty sample list: (N x P lesion vectors,
    N 1-based locations)."""
    return np.stack([s.u for s in samples]), np.array([s.v for s in samples])


def channel_means(samples) -> np.ndarray:
    """Per-channel pixel means over a sample collection.

    A float image's values are summed as numpy sums its C x (H*W) view. A
    uint8 image's values, L / 255.0, are summed in the file's H x W x C
    pixel order, one pixel after another: the fitted means of a loaded
    dataset keep the bits they had when loaded images were float64 views
    in that order.
    """
    c = samples[0].image.shape[0]
    total = np.zeros(c)
    count = 0
    for s in samples:
        if s.image.dtype == np.uint8:
            pixels = np.ascontiguousarray(s.image.transpose(1, 2, 0)).reshape(-1, c) / 255.0
            total += pixels.sum(axis=0)
        else:
            total += s.image.reshape(c, -1).sum(axis=1)
        count += s.image.shape[1] * s.image.shape[2]
    return total / count


@lru_cache(maxsize=1024)
def _axis_table(n_in: int, n_out: int):
    """Corner-aligned bilinear map of n_in source positions onto n_out
    outputs: (idx, wts), each 2 x n_out, where output j reads source pixels
    idx[0, j] and idx[1, j] with weights wts[0, j] and wts[1, j]. Cached and
    read-only, since every caller shares the arrays."""
    pos = np.linspace(0.0, n_in - 1.0, n_out) if n_out > 1 else np.zeros(1)
    i0 = np.floor(pos).astype(np.intp)
    frac = pos - i0
    idx = np.stack([i0, np.minimum(i0 + 1, n_in - 1)])
    wts = np.stack([1 - frac, frac])
    idx.flags.writeable = wts.flags.writeable = False
    return idx, wts


def resize_bilinear(images, windows, rows: int, cols: int) -> np.ndarray:
    """Corner-aligned bilinear resample of a batch, one window per image.

    ``images`` holds B arrays, C x H_b x W_b, with one C; ``windows`` holds
    one (out_h, out_w, top, left, flip) per image. Image b is resized to
    out_h x out_w, rows top .. top+rows-1 and columns left .. left+cols-1
    of the result are kept, mirrored left to right when flip is true, and
    only those pixels are computed. Returns the float64 B x C x rows x cols
    batch, C-contiguous. Every image reads the tables of ``_axis_table``.
    An image may be float64 or uint8 levels, which are divided by 255.0 as
    they are copied in; a batch may mix the two.
    """
    n, c = len(images), images[0].shape[0]
    y0, yw, x0, xw = [], [], [], []
    for image, (out_h, out_w, top, left, flip) in zip(images, windows):
        (yi, ya), (xi, xa) = _axis_table(image.shape[1], out_h), _axis_table(image.shape[2], out_w)
        keep, across = slice(top, top + rows), slice(left, left + cols)
        if flip:
            across = slice(left + cols - 1, left - 1 if left else None, -1)
        y0.append(yi[0, keep])
        yw.append(ya[:, keep])
        x0.append(xi[0, across])
        xw.append(xa[:, across])
    y0, yw, x0, xw = (np.array(a) for a in (y0, yw, x0, xw))   # B x rows, B x 2 x rows, ... cols
    # Pad each image with a copy of its last row and column. The right, lower
    # and lower-right neighbours of flat pixel i are then i + 1, i + wp and
    # i + wp + 1 for every image, and on the last row or column they hold
    # the pixel that the table's clamped second index names.
    heights = np.array([image.shape[1] for image in images])
    widths = np.array([image.shape[2] for image in images])
    hp, wp = heights.max() + 1, widths.max() + 1
    pad = np.empty((n, c, hp, wp))
    for b, image in enumerate(images):
        region = pad[b, :, : heights[b], : widths[b]]
        if image.dtype == np.uint8:
            np.divide(image, 255.0, out=region)
        else:
            region[...] = image
    every = np.arange(n)
    pad[every, :, :, widths] = pad[every, :, :, widths - 1]
    pad[every, :, heights] = pad[every, :, heights - 1]
    flat = pad.reshape(-1)
    starts = (np.arange(n * c).reshape(n, c, 1) * hp + y0[:, None]) * wp   # B x C x rows
    idx = starts[..., None] + x0[:, None, None]                            # upper-left pixels
    size = flat.size - wp - 1
    xw, yw = xw[:, None, :, None, :], yw[:, None, :, :, None]

    def row(k):
        """Row k (0 upper, 1 lower) of every output pixel's source square,
        resampled across, times that row's weight."""
        left = flat[k * wp : k * wp + size].take(idx)
        left *= xw[:, :, 0]
        right = flat[k * wp + 1 : k * wp + 1 + size].take(idx)
        right *= xw[:, :, 1]
        left += right
        left *= yw[:, :, k]
        return left

    out = row(0)
    out += row(1)
    return out


def _shorter_side_shape(image: np.ndarray, s: int) -> tuple:
    """(H, W) of the image resized so its shorter side is s."""
    _, h, w = image.shape
    if h <= w:
        return s, max(1, int(round(w * s / h)))
    return max(1, int(round(h * s / w))), s


def augment(samples, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    """Training-time transform of a batch: jittered resize, mean
    subtraction, random crop, horizontal flip.

    Takes a sequence of B samples whose images share their channel count C
    (H x W may differ from sample to sample) and returns the float64 batch,
    B x C x crop x crop. Each sample in turn draws its jitter scale, crop
    top, crop left, then whether to flip; CropTooLarge is raised at the
    first sample whose jittered image is smaller than the crop. The B
    windows are then resampled in one resize_bilinear call.
    """
    crop = cfg.crop
    c = samples[0].image.shape[0]
    windows = []
    for s in samples:
        if s.image.shape[0] != c:
            raise ShapeMismatch(f"{c} channels like the batch's first image", s.image.shape,
                                "augment")
        h, w = _shorter_side_shape(s.image, int(rng.integers(cfg.jitter_min, cfg.jitter_max + 1)))
        if crop > min(h, w):
            raise CropTooLarge(f"crop {crop} exceeds jittered size {(h, w)}")
        top = int(rng.integers(0, h - crop + 1))
        left = int(rng.integers(0, w - crop + 1))
        windows.append((h, w, top, left, rng.random() < cfg.flip_prob))
    out = resize_bilinear([s.image for s in samples], windows, crop, crop)
    if cfg.channel_means is not None:
        out -= np.asarray(cfg.channel_means)[:, None, None]
    return out


def eval_transform(sample: Sample, cfg: AugmentConfig) -> np.ndarray:
    """Deterministic test-time transform: eval-scale resize, mean
    subtraction, center crop. Only the crop window is resampled."""
    h, w = _shorter_side_shape(sample.image, cfg.eval_scale)
    c = cfg.crop
    if c > min(h, w):
        raise CropTooLarge(f"crop {c} exceeds eval size {(h, w)}")
    img = resize_bilinear([sample.image], [(h, w, (h - c) // 2, (w - c) // 2, False)], c, c)[0]
    if cfg.channel_means is not None:
        img -= np.asarray(cfg.channel_means)[:, None, None]
    return img


def ten_crop(sample: Sample, cfg: AugmentConfig) -> list:
    """Standard 10-crop expansion at the evaluation scale.

    Order: top-left, top-right, bottom-left, bottom-right, center, then
    the horizontal flips of each in the same order. The whole eval-scale
    image is resampled once and the crops are sliced from it.
    """
    h, w = _shorter_side_shape(sample.image, cfg.eval_scale)
    c = cfg.crop
    if c > min(h, w):
        raise CropTooLarge(f"crop {c} exceeds eval size {(h, w)}")
    img = resize_bilinear([sample.image], [(h, w, 0, 0, False)], h, w)[0]
    if cfg.channel_means is not None:
        img -= np.asarray(cfg.channel_means)[:, None, None]
    offsets = [(0, 0), (0, w - c), (h - c, 0), (h - c, w - c), ((h - c) // 2, (w - c) // 2)]
    crops = [np.ascontiguousarray(img[:, t : t + c, l : l + c]) for t, l in offsets]
    crops += [np.ascontiguousarray(x[:, :, ::-1]) for x in crops]
    return crops
