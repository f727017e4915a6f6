"""A fuzz of the CLI's readers: bytes flipped, deleted and inserted in a
small valid checkpoint, manifest, PPM image and score CSV, each then read by
`eval` or `ensemble` through main. Every case must exit 0 with nothing on
stderr, or exit 1 with one `error: ` line.
"""

import contextlib
import io
import json
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlkit.cli import main

SPEC = {"P": 3, "Q": 3, "N": 6, "correlation_strength": 0.9, "image_size": [3, 12, 12],
        "seed": 0}
TRAIN = {"epochs": 1, "batch_size": 6, "lr": 0.01, "val_fraction": 0,
         "net": {"width": 4, "blocks": 1},
         "augment": {"jitter_min": 10, "jitter_max": 12, "crop": 8, "eval_scale": 10}}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Paths of one valid input of each kind; a test may rewrite one in place
    as long as it puts the bytes back."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "spec.json").write_text(json.dumps(SPEC))
    assert main(["synth", str(root / "spec.json"), str(root / "data")]) == 0
    manifest = root / "data" / "manifest.jsonl"
    (root / "train.json").write_text(json.dumps(dict(TRAIN, manifest=str(manifest))))
    assert main(["train", str(root / "train.json"), "--out-dir", str(root / "run")]) == 0
    ckpt = root / "run" / "final.ckpt"
    assert main(["eval", str(ckpt), str(manifest), "--scores-out", str(root / "s"),
                 "--report-out", str(root / "r.json")]) == 0
    shutil.copy(root / "s_lesion.csv", root / "good.csv")
    first = json.loads(manifest.read_text().splitlines()[1])
    return {"checkpoint": ckpt, "manifest": manifest, "ppm": manifest.parent / first["image"],
            "csv": root / "s_lesion.csv", "good_csv": root / "good.csv"}


# (operation, position, byte): a negative position counts from the end
EDITS = st.lists(st.tuples(st.sampled_from(["flip", "delete", "insert"]),
                           st.integers(-64, 1 << 16), st.integers(1, 255)),
                 min_size=1, max_size=4)


def mutated(data, edits):
    out = bytearray(data)
    for op, at, byte in edits:
        if op == "insert":
            out.insert(at % (len(out) + 1), byte)
        elif out and op == "flip":
            out[at % len(out)] ^= byte
        elif out:
            del out[at % len(out)]
    return bytes(out)


# a numpy warning would be a second line on stderr; as an error it fails the case
@pytest.mark.filterwarnings("error")
@settings(max_examples=1000, deadline=None)
@given(kind=st.sampled_from(["checkpoint", "manifest", "ppm", "csv"]), edits=EDITS)
def test_mutated_input_exits_0_or_in_one_error_line(inputs, kind, edits):
    if kind == "csv":
        argv = ["ensemble", str(inputs["csv"]), str(inputs["good_csv"]),
                "--labels", str(inputs["manifest"])]
    else:
        argv = ["eval", str(inputs["checkpoint"]), str(inputs["manifest"])]
    path = inputs[kind]
    good = path.read_bytes()
    path.write_bytes(mutated(good, edits))
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        path.write_bytes(good)
    lines = err.getvalue().splitlines()
    assert (code, lines) == (0, []) or (code == 1 and len(lines) == 1
                                        and lines[0].startswith("error: ")), (code, lines)
