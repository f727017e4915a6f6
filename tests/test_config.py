"""The one JSON config reader, data.read, and the one range check,
data.check_ranges: which fields they check, README's list of the ranges, and
a fuzz of the two parsers built on them, the run config's and the synth spec's.

The fuzz runs the parse step only. It never synthesizes or trains, since a
fuzzed N, image_size or net width could ask for more memory than the host has.
"""

import math
import re
from dataclasses import fields, is_dataclass
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtlkit.cli import RunKeys, synth_spec_from_dict, train_config_from_dict
from mtlkit.data import RULES, AugmentConfig, SynthSpec, check_ranges, check_spec, read
from mtlkit.errors import BadConfig, BadSpec
from mtlkit.network import NetConfig
from mtlkit.optim import PlateauConfig
from mtlkit.training import TrainConfig, _check_config

CONFIGS = [TrainConfig, NetConfig, PlateauConfig, AugmentConfig, SynthSpec, RunKeys]

# fields that the reader passes through and their parser checks by hand
HAND_CHECKED = {"channel_means", "R", "image_size"}

# numbers that declare no range, since only a rule across fields bounds them
CROSS_FIELD = {
    "jitter_min": "check_augment: jitter_min <= jitter_max and jitter_min >= crop >= 1",
    "jitter_max": "check_augment: jitter_max >= jitter_min",
    "eval_scale": "check_augment: eval_scale >= crop >= 1",
}


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_number_declares_a_rule_of_the_table_or_is_cross_field(cls):
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if kind in (int, float):
            assert ("need" in f.metadata) != (f.name in CROSS_FIELD), f.name
        if "need" in f.metadata:
            assert kind in (int, float) and f.metadata["need"] in RULES, f.name


def declared(cls, section=""):
    """(key, rule) of each field of cls, or of a dataclass nested in it, that declares one."""
    hints = get_type_hints(cls)
    for f in fields(cls):
        kind = hints[f.name]
        if is_dataclass(kind):
            yield from declared(kind, f"{section}{f.name}.")
        elif "need" in f.metadata:
            yield f"{section}{f.name}", f.metadata["need"]


def test_readme_lists_every_declared_range_and_no_other():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("\n## The JSON rule\n", 1)[1].split("\n## ", 1)[0]
    rows = set(re.findall(r"^\| (run config|spec) \| `([\w.]+)` \| `([^`]+)` \|$", section,
                          re.MULTILINE))
    want = {("run config", key, rule) for cls in (TrainConfig, RunKeys)
            for key, rule in declared(cls)}
    want |= {("spec", key, rule) for key, rule in declared(SynthSpec)}
    assert rows == want


def test_float_rules_refuse_nan_and_both_infinities():
    for rule, holds in RULES.items():
        assert not any(holds(x) for x in (math.nan, math.inf, -math.inf)), rule


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda cls: cls.__name__)
def test_every_config_field_is_checked_by_the_reader_or_by_hand(cls):
    # a field of a new type must either get a check in the reader or join HAND_CHECKED
    for name, kind in get_type_hints(cls).items():
        checked = kind in (int, float, bool, str) or is_dataclass(kind)
        assert checked != (name in HAND_CHECKED), name
        if checked:   # a list is none of those types, and no object
            with pytest.raises(BadConfig, match=rf"^x\.{name} must be"):
                read(cls, {name: [1]}, "x")


# 10**400 is an int that no float can hold
SCALARS = (st.none() | st.booleans() | st.integers() | st.just(-10**400) | st.floats()
           | st.text(max_size=3))
JSON = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)


def numbers(obj):
    """Every int or float that the dataclass obj holds, nested ones included, R's too."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            yield from numbers(value)
        elif isinstance(value, np.ndarray):
            yield from value.ravel().tolist()
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            yield value


def mostly(typed):
    """typed nine times in ten, any JSON value the tenth, so that most draws
    reach the checks behind the first."""
    return st.integers(0, 9).flatmap(lambda i: JSON if i == 9 else typed)


# typed values, loosely: a float field's may be an int, NaN or huge
TYPED = {int: st.integers(-3, 50), float: st.floats() | st.integers() | st.just(10**400),
         bool: st.booleans(),
         str: st.sampled_from(["mtl", "lesion_only", "location_only", ""]) | st.text()}


def objects(cls, extra=(), values=(), always=()):
    """Mostly JSON objects over the keys always, some other keys of cls and
    of extra, and at times an unknown one. values maps a key to its values'
    strategy where TYPED's is not the right one, or not safe."""
    hints, values = get_type_hints(cls), dict(values)

    def value(name):
        kind = hints.get(name)
        if name in values:
            return mostly(values[name])
        return mostly(objects(kind) if is_dataclass(kind) else TYPED.get(kind, JSON))

    names = [*hints, *extra]
    known = st.fixed_dictionaries({n: value(n) for n in always},
                                  optional={n: value(n) for n in names if n not in always})
    unknown = st.integers(0, 4).flatmap(lambda i: st.just({}) if i < 4 else
                                        st.fixed_dictionaries({"widht": JSON}))
    return mostly(st.tuples(known, unknown).map(lambda parts: {**parts[0], **parts[1]}))


RUN_KEYS = {"manifest": st.text(), "val_fraction": TYPED[float], "out_dir": st.text()}


@settings(max_examples=500, deadline=None)
@given(objects(TrainConfig, extra=RUN_KEYS, values=RUN_KEYS, always=["manifest"]))
def test_fuzzed_run_config_is_a_config_or_one_bad_config(d):
    try:
        cfg = train_config_from_dict(d)
        keys = read(RunKeys, {k: v for k, v in d.items() if k in RUN_KEYS}, "config")
        check_ranges(keys)
        _check_config(cfg)
    except BadConfig:
        return
    assert isinstance(cfg, TrainConfig)
    assert all(-math.inf < x < math.inf for obj in (cfg, keys) for x in numbers(obj))


# planted_correlation allocates a P x Q matrix, so the sizes stay small
SIZE = st.integers(-2, 40)


def with_r(d):
    """d, or at times d with an R of its P rows of Q values when both are small."""
    p, q = (d.get(k) if isinstance(d, dict) else None for k in "PQ")
    if not all(type(n) is int and 0 <= n <= 6 for n in (p, q)):
        return st.just(d)
    rows = st.lists(st.lists(mostly(TYPED[float]), min_size=q, max_size=q), min_size=p,
                    max_size=p)
    return st.just(d) | rows.map(lambda r: {**d, "R": r})


@settings(max_examples=500, deadline=None)
@given(objects(SynthSpec, extra=["correlation_strength"], always=["P", "Q", "N"], values={
    "P": SIZE, "Q": SIZE, "N": st.integers(), "correlation_strength": TYPED[float],
    "image_size": st.lists(mostly(st.integers()), max_size=4),
    "R": st.lists(st.lists(mostly(TYPED[float]), max_size=5), max_size=5)}).flatmap(with_r))
def test_fuzzed_synth_spec_is_a_spec_or_one_bad_spec(d):
    try:
        spec = synth_spec_from_dict(d)
        check_spec(spec)
    except BadSpec:
        return
    assert isinstance(spec, SynthSpec)
    assert all(-math.inf < x < math.inf for x in numbers(spec))
