"""Qualitative analysis: pooled-feature nearest-neighbor retrieval and
class activation attention maps.

Retrieval compares the trunk's pooled feature vectors under Euclidean
distance. An attention map is the head-weighted average of the final
convolutional activation maps for one class (bias terms are ignored:
a constant offset cannot localize), min-max normalized to [0, 1];
constant raw maps normalize to uniform 0.5 as a "no localization" signal.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import AugmentConfig, Dataset, eval_transform, resize_bilinear, write_pgm
from .errors import BadClass, BadConfig, BadK, NonFiniteFeature
from .network import DualHeadNet


@dataclass
class FeatureIndex:
    features: np.ndarray   # N x K pooled trunk features
    ids: list
    # each id's place in the sorted distinct ids, computed once: retrieve
    # breaks distance ties on it instead of comparing the id strings
    rank: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.rank = np.unique(np.asarray(self.ids), return_inverse=True)[1]


@dataclass
class AttentionMap:
    map: np.ndarray              # h x w in [0, 1]
    raw: np.ndarray              # unnormalized weighted map (for diagnostics)
    class_index: int
    head: str                    # "lesion" | "location"
    upsampled: np.ndarray | None = None


def _check_finite(feats, samples):
    """A forward that overflowed would rank neighbors by inf or NaN distances."""
    bad = ~np.isfinite(feats).all(axis=1)
    if bad.any():
        raise NonFiniteFeature(f"the feature of sample {samples[np.argmax(bad)].id!r} "
                               "is not finite")


def build_index(net: DualHeadNet, ds: Dataset, aug: AugmentConfig,
                batch_size: int = 20) -> FeatureIndex:
    """Pooled features for every sample at the deterministic eval scale; a
    feature holding a NaN or an infinity is a NonFiniteFeature."""
    if not ds.samples:
        return FeatureIndex(np.zeros((0, net.feature_dim)), [])
    _, _, feats = net.infer((eval_transform(s, aug) for s in ds.samples), batch_size)
    _check_finite(feats, ds.samples)
    return FeatureIndex(feats, [s.id for s in ds.samples])


def query_feature(net: DualHeadNet, sample, aug: AugmentConfig) -> np.ndarray:
    """The sample's pooled feature, checked as build_index checks the index's."""
    feats = net.infer([eval_transform(sample, aug)])[2]
    _check_finite(feats, [sample])
    return feats[0]


def retrieve(index: FeatureIndex, query: np.ndarray, k: int) -> list:
    """k nearest ids by Euclidean distance, ascending; ties by ascending id."""
    n = len(index.ids)
    if not 1 <= k <= n:
        raise BadK(f"k must lie in 1..{n}, got {k}")
    dists = np.sqrt(((index.features - np.asarray(query)) ** 2).sum(axis=1))
    order = np.lexsort((index.rank, dists))[:k]
    return [(index.ids[i], float(dists[i])) for i in order]


def attention(net: DualHeadNet, image: np.ndarray, head: str, class_index: int,
              upsample: bool = False) -> AttentionMap:
    """Class activation map for one image (C x H x W, already transformed).

    The image is forwarded in float32, as DualHeadNet.infer forwards every
    chunk; the float64 head weights widen the float32 conv maps, so raw,
    map and upsampled are float64."""
    if head not in ("lesion", "location"):
        raise BadConfig(f"head must be 'lesion' or 'location', got {head!r}")
    weights = getattr(net, f"{head}_w").data    # K x P or K x Q
    if not 0 <= class_index < weights.shape[1]:
        raise BadClass(f"class index {class_index} out of range for {head} head")
    with T.no_grad():
        _, _, _, conv_maps = net.forward(np.asarray(image, dtype=np.float32)[None])
    maps = conv_maps.data[0]                    # K x h x w
    raw = np.tensordot(weights[:, class_index], maps, axes=(0, 0))
    lo, hi = raw.min(), raw.max()
    if hi - lo < 1e-12:
        norm = np.full_like(raw, 0.5)
    else:
        norm = (raw - lo) / (hi - lo)
    up = None
    if upsample:
        h, w = image.shape[1:]
        up = resize_bilinear([norm[None]], [(h, w, 0, 0, False)], h, w)[0, 0]
    return AttentionMap(norm, raw, class_index, head, up)


def retrieval_report(net: DualHeadNet, index: FeatureIndex, index_ds: Dataset,
                     queries: Dataset, k: int, aug: AugmentConfig) -> dict:
    """Per-query neighbors with shared-lesion match flags and a match rate."""
    def lesion_set(ds, s):
        return {ds.lesion_names[i] for i in np.flatnonzero(s.u)}

    labels_by_id = {s.id: lesion_set(index_ds, s) for s in index_ds.samples}
    entries = []
    matches = total = 0
    for s in queries.samples:
        q_labels = lesion_set(queries, s)
        neighbors = retrieve(index, query_feature(net, s, aug), k)
        items = []
        for sid, dist in neighbors:
            flag = bool(labels_by_id[sid] & q_labels)
            matches += flag
            total += 1
            items.append({"id": sid, "distance": dist, "match": flag})
        entries.append({"query": s.id, "neighbors": items})
    return {"k": k, "queries": entries, "match_rate": matches / total if total else 0.0}


def export_attention(out_dir, stem: str, amap: AttentionMap):
    """Write the map as grayscale PGM plus a JSON sidecar."""
    os.makedirs(out_dir, exist_ok=True)
    img = amap.upsampled if amap.upsampled is not None else amap.map
    pgm = os.path.join(out_dir, f"{stem}.pgm")
    write_pgm(pgm, img)
    with open(os.path.join(out_dir, f"{stem}.json"), "w") as f:
        json.dump({"head": amap.head, "class_index": amap.class_index,
                   "shape": list(img.shape), "image": os.path.basename(pgm)}, f, indent=2)
