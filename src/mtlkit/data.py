"""Dataset model, manifest ingestion, the synthetic correlated-label
generator, and image transforms (scale jitter, crop, flip, 10-crop).

Manifest format: JSON-lines. The first line is a header
``{"lesions": [...], "locations": [...]}``; every following line is a
record ``{"id", "image", "lesions", "location"}`` with the image path
relative to the manifest. Images are 8-bit binary PPM (P6), scaled to
[0, 1] on load.

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
from dataclasses import dataclass, field, replace

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
    image: np.ndarray        # C x H x W float64
    u: np.ndarray            # binary lesion vector, length P
    v: int                   # 1-based location index
    id: str


@dataclass
class Dataset:
    samples: list
    lesion_names: list
    location_names: list
    folds: np.ndarray | None = None

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
    """Write a C x H x W float image in [0, 1] as binary 8-bit P6."""
    c, h, w = image.shape
    if c != 3:
        raise ShapeMismatch("3 channels", image.shape, "write_ppm")
    data = np.clip(np.rint(image * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode())
        f.write(data.transpose(1, 2, 0).tobytes())


def read_ppm(path) -> np.ndarray:
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
    if len(raw) - pos < w * h * 3:
        raise ParseError(0, f"{path}: pixel data truncated")
    pix = np.frombuffer(raw, dtype=np.uint8, count=w * h * 3, offset=pos)
    return pix.reshape(h, w, 3).transpose(2, 0, 1).astype(np.float64) / 255.0


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
    samples = []
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
        samples.append(Sample(read_ppm(img_path), u, v, str(rec["id"])))
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
# folds and transforms


def assign_folds(ds: Dataset, n_folds: int, seed: int = 0) -> Dataset:
    """Seeded partition into n_folds of near-equal size (diff <= 1)."""
    if n_folds < 2 or n_folds > len(ds):
        raise BadSpec(f"cannot split {len(ds)} samples into {n_folds} folds")
    perm = np.random.default_rng(seed).permutation(len(ds))
    folds = np.empty(len(ds), dtype=np.int64)
    folds[perm] = np.arange(len(ds)) % n_folds
    return replace(ds, folds=folds)


def channel_means(samples) -> np.ndarray:
    """Per-channel pixel means over a sample collection."""
    c = samples[0].image.shape[0]
    total = np.zeros(c)
    count = 0
    for s in samples:
        total += s.image.reshape(c, -1).sum(axis=1)
        count += s.image.shape[1] * s.image.shape[2]
    return total / count


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int, window=None) -> np.ndarray:
    """Corner-aligned bilinear resize of a C x H x W image.

    With ``window=(r0, c0, rows, cols)`` only rows r0 .. r0+rows-1 and
    columns c0 .. c0+cols-1 of the out_h x out_w result are computed; they
    equal the same slice of the full resize.
    """
    c, h, w = image.shape
    ys = np.linspace(0.0, h - 1.0, out_h) if out_h > 1 else np.zeros(1)
    xs = np.linspace(0.0, w - 1.0, out_w) if out_w > 1 else np.zeros(1)
    if window is not None:
        r0, c0, rows, cols = window
        ys, xs = ys[r0 : r0 + rows], xs[c0 : c0 + cols]
    y0 = np.floor(ys).astype(np.intp)
    x0 = np.floor(xs).astype(np.intp)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[None, :, None]
    wx = (xs - x0)[None, None, :]
    rows0, rows1 = image[:, y0], image[:, y1]
    top = rows0[:, :, x0] * (1 - wx) + rows0[:, :, x1] * wx
    bot = rows1[:, :, x0] * (1 - wx) + rows1[:, :, x1] * wx
    return top * (1 - wy) + bot * wy


def _shorter_side_shape(image: np.ndarray, s: int) -> tuple:
    """(H, W) of the image resized so its shorter side is s."""
    _, h, w = image.shape
    if h <= w:
        return s, max(1, int(round(w * s / h)))
    return max(1, int(round(h * s / w))), s


def resize_shorter_side(image: np.ndarray, s: int) -> np.ndarray:
    return resize_bilinear(image, *_shorter_side_shape(image, s))


def _subtract_means(image: np.ndarray, means) -> np.ndarray:
    if means is None:
        return image
    return image - np.asarray(means)[:, None, None]


def augment(sample: Sample, rng: np.random.Generator, cfg: AugmentConfig) -> np.ndarray:
    """Training-time transform: jittered resize, mean subtraction,
    random crop, horizontal flip. Output is C x crop x crop. Only the
    crop window of the jittered image is resampled."""
    s = int(rng.integers(cfg.jitter_min, cfg.jitter_max + 1))
    h, w = _shorter_side_shape(sample.image, s)
    if cfg.crop > min(h, w):
        raise CropTooLarge(f"crop {cfg.crop} exceeds jittered size {(h, w)}")
    top = int(rng.integers(0, h - cfg.crop + 1))
    left = int(rng.integers(0, w - cfg.crop + 1))
    img = resize_bilinear(sample.image, h, w, window=(top, left, cfg.crop, cfg.crop))
    img = _subtract_means(img, cfg.channel_means)
    if rng.random() < cfg.flip_prob:
        img = img[:, :, ::-1]
    return np.ascontiguousarray(img)


def eval_transform(sample: Sample, cfg: AugmentConfig) -> np.ndarray:
    """Deterministic test-time transform: eval-scale resize, mean
    subtraction, center crop. Only the crop window is resampled."""
    h, w = _shorter_side_shape(sample.image, cfg.eval_scale)
    if cfg.crop > min(h, w):
        raise CropTooLarge(f"crop {cfg.crop} exceeds eval size {(h, w)}")
    window = ((h - cfg.crop) // 2, (w - cfg.crop) // 2, cfg.crop, cfg.crop)
    img = resize_bilinear(sample.image, h, w, window=window)
    return np.ascontiguousarray(_subtract_means(img, cfg.channel_means))


def ten_crop(sample: Sample, cfg: AugmentConfig) -> list:
    """Standard 10-crop expansion at the evaluation scale.

    Order: top-left, top-right, bottom-left, bottom-right, center, then
    the horizontal flips of each in the same order.
    """
    img = resize_shorter_side(sample.image, cfg.eval_scale)
    _, h, w = img.shape
    c = cfg.crop
    if c > min(h, w):
        raise CropTooLarge(f"crop {c} exceeds eval size {(h, w)}")
    img = _subtract_means(img, cfg.channel_means)
    offsets = [(0, 0), (0, w - c), (h - c, 0), (h - c, w - c), ((h - c) // 2, (w - c) // 2)]
    crops = [np.ascontiguousarray(img[:, t : t + c, l : l + c]) for t, l in offsets]
    crops += [np.ascontiguousarray(x[:, :, ::-1]) for x in crops]
    return crops
