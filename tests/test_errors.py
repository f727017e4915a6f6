import inspect
import pickle
import re
from pathlib import Path

import pytest

from mtlkit import errors

ERRORS = [c for c in vars(errors).values()
          if isinstance(c, type) and issubclass(c, errors.MtlkitError)]


def _instance(cls):
    """cls built from every named constructor argument, or from one message."""
    names = [p for p in inspect.signature(cls.__init__).parameters.values()
             if p.name != "self" and p.kind is p.POSITIONAL_OR_KEYWORD]
    args = [(i, f"value {i}") for i in range(len(names))] or ["a message"]
    return cls(*args)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__name__)
def test_error_pickles_round_trip(cls):
    err = _instance(cls)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls
    assert str(back) == str(err)
    assert vars(back) == vars(err)
    assert back.args == err.args


def test_every_error_is_walked():
    assert {"ShapeMismatch", "ParseError", "NonFiniteLoss", "WorkerDied"} <= {c.__name__ for c in ERRORS}


# errors that no mtlkit command can end in, each with the reason
LIBRARY_ONLY = {
    "NonScalarRoot": "training calls backward on scalar losses only",
    "BadLabel": "load_manifest gives binary lesion vectors and locations in 1..Q",
    "MissingGradient": "each SGD step follows a backward that reaches every parameter it steps",
    "CropTooLarge": "check_augment keeps jitter_min and eval_scale at or above the crop",
    "NoPositives": "every manifest record has a lesion, and map_class excludes classes "
                   "without a positive",
}


def test_every_cli_error_is_a_readme_row():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    table = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| `(\w+)` \|", table, re.MULTILINE))
    names = {c.__name__ for c in ERRORS if c is not errors.MtlkitError}
    assert names - rows == set(LIBRARY_ONLY)
    # the reverse: every row is an error that a command can end in
    assert rows - names == {"OSError"}
