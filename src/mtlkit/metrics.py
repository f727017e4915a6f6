"""Quantitative evaluation: average precision, class- and image-wise mAP,
top-k accuracy, the lesion/location correlation matrix, and score
ensembling.

Ranking convention everywhere: stable descending sort on score, ties
broken by ascending original index, so results are identical across
platforms.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .errors import BadK, MatrixMismatch, NoPositives, ParseError


@dataclass
class ScoreMatrix:
    scores: np.ndarray   # N x K, no NaNs
    ids: list            # N unique sample ids
    kind: str            # "lesion" | "location"

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        if np.isnan(self.scores).any():
            raise MatrixMismatch("score matrix contains NaN")
        if len(self.ids) != len(set(self.ids)):
            raise MatrixMismatch("sample ids must be unique")
        if self.scores.shape[0] != len(self.ids):
            raise MatrixMismatch("row count does not match id count")


@dataclass
class CorrelationMatrix:
    R: np.ndarray            # P x Q in [0, 1]
    empty_lesions: list      # lesion indices with no images (rows all zero)


def average_precision(scores, labels) -> float:
    """AP of one ranking: sum of precision at each positive's rank / #pos."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    npos = int((labels == 1).sum())
    if npos == 0:
        raise NoPositives("ranking has no positive labels")
    order = np.argsort(-scores, kind="stable")
    ranked = labels[order] == 1
    cum = np.cumsum(ranked)
    precision = cum / np.arange(1, len(scores) + 1)
    return float(precision[ranked].sum() / npos)


def map_class(s: ScoreMatrix, u) -> tuple:
    """Class-wise mAP: one ranking of all images per class.

    Classes with no positives are excluded from the mean and reported;
    if no class has a positive, the mean is undefined and NoPositives is
    raised. Returns (mAP, per-class AP list with None for excluded,
    excluded list).
    """
    u = np.asarray(u)
    n, p = s.scores.shape
    if u.shape != (n, p):
        raise MatrixMismatch(f"labels {u.shape} do not match scores {(n, p)}")
    aps, excluded = [], []
    for j in range(p):
        if (u[:, j] == 1).any():
            aps.append(average_precision(s.scores[:, j], u[:, j]))
        else:
            aps.append(None)
            excluded.append(j)
    kept = [a for a in aps if a is not None]
    if not kept:
        raise NoPositives("no class has a positive label")
    return float(np.mean(kept)), aps, excluded


def map_image(s: ScoreMatrix, u) -> tuple:
    """Image-wise mAP: one ranking of all classes per image."""
    u = np.asarray(u)
    if u.shape != s.scores.shape:
        raise MatrixMismatch(f"labels {u.shape} do not match scores {s.scores.shape}")
    aps = [average_precision(s.scores[i], u[i]) for i in range(u.shape[0])]
    return float(np.mean(aps)), aps


def top_k_accuracy(s: ScoreMatrix, v, k: int) -> float:
    """Fraction of images whose true location (1-based) is in the top k."""
    n, q = s.scores.shape
    if not 1 <= k <= q:
        raise BadK(f"k must lie in 1..{q}, got {k}")
    v = np.asarray(v)
    if v.shape != (n,):
        raise MatrixMismatch(f"locations {v.shape} do not match scores {(n, q)}")
    if n and not (1 <= v.min() and v.max() <= q):
        raise MatrixMismatch(f"locations must lie in 1..{q}, got {v.min()}..{v.max()}")
    top = np.argsort(-s.scores, axis=1, kind="stable")[:, :k]
    return int((top == (v - 1)[:, None]).any(axis=1).sum()) / n


def task_report(tasks, scores, u, v) -> dict:
    """The report fields of each task in tasks (names as in objective.TASKS),
    read off the ScoreMatrix of that kind among scores, against labels u
    (N x P) and v (N, 1-based): lesion gives map_class, map_image,
    per_class_ap and excluded_classes (indices), location top1 and top3
    (top-Q when there are fewer than 3 locations)."""
    by_kind = {s.kind: s for s in scores}
    report = {}
    if "lesion" in tasks:
        s = by_kind["lesion"]
        m_class, per_class, excluded = map_class(s, u)
        report.update(map_class=m_class, map_image=map_image(s, u)[0],
                      per_class_ap=per_class, excluded_classes=excluded)
    if "location" in tasks:
        s = by_kind["location"]
        report.update(top1=top_k_accuracy(s, v, 1),
                      top3=top_k_accuracy(s, v, min(3, s.scores.shape[1])))
    return report


def correlation_matrix(ds) -> CorrelationMatrix:
    """Fraction of lesion-i images that carry location j."""
    p, q = ds.P, ds.Q
    joint = np.zeros((p, q))
    n_i = np.zeros(p)
    for s in ds.samples:
        lesions = np.flatnonzero(s.u)
        n_i[lesions] += 1
        joint[lesions, s.v - 1] += 1
    r = np.zeros((p, q))
    nonzero = n_i > 0
    r[nonzero] = joint[nonzero] / n_i[nonzero, None]
    empty = [int(i) for i in np.flatnonzero(~nonzero)]
    return CorrelationMatrix(r, empty)


def ensemble_max(a: ScoreMatrix, b: ScoreMatrix) -> ScoreMatrix:
    """Element-wise maximum of two aligned score matrices."""
    _check_aligned(a, b)
    return ScoreMatrix(np.maximum(a.scores, b.scores), list(a.ids), a.kind)


def ensemble_mean(a: ScoreMatrix, b: ScoreMatrix) -> ScoreMatrix:
    """Arithmetic-mean alternative, kept for comparison."""
    _check_aligned(a, b)
    return ScoreMatrix(0.5 * (a.scores + b.scores), list(a.ids), a.kind)


def _check_aligned(a: ScoreMatrix, b: ScoreMatrix):
    if a.kind != b.kind:
        raise MatrixMismatch(f"kind mismatch: {a.kind} vs {b.kind}")
    if a.scores.shape != b.scores.shape:
        raise MatrixMismatch(f"shape mismatch: {a.scores.shape} vs {b.scores.shape}")
    if list(a.ids) != list(b.ids):
        raise MatrixMismatch("id mismatch between score matrices")


# ---------------------------------------------------------------------------
# score CSV I/O


def write_scores(path, s: ScoreMatrix, class_names):
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["id"] + list(class_names))
        for sid, row in zip(s.ids, s.scores):
            writer.writerow([sid] + [repr(float(x)) for x in row])


def read_scores(path, kind: str) -> tuple:
    """Returns (ScoreMatrix, class_names). A missing or unreadable file, one
    without a header or score rows, a row whose length differs from the
    header and a non-numeric score raise ParseError naming the line."""
    try:
        with open(path, newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header is None:
                raise ParseError(1, f"{path}: empty score file (missing header)")
            ids, rows = [], []
            for rec in reader:
                if len(rec) != len(header):
                    raise ParseError(reader.line_num,
                                     f"{path}: {len(rec)} fields, header has {len(header)}")
                try:
                    rows.append([float(x) for x in rec[1:]])
                except ValueError as e:
                    raise ParseError(reader.line_num, f"{path}: {e}") from None
                ids.append(rec[0])
    except (OSError, UnicodeDecodeError, csv.Error) as e:
        raise ParseError(0, f"cannot read scores {path}: {e}") from None
    if not rows:
        raise ParseError(2, f"{path}: no score rows")
    return ScoreMatrix(np.array(rows, dtype=np.float64), ids, kind), header[1:]
