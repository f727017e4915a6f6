import inspect
import pickle

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
