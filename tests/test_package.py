"""The package surface: lazily resolved exports and the value-class contract."""

import copy
import dataclasses
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import vaxalloc
from vaxalloc import (
    AllocationResult,
    Clamp,
    CountryRecord,
    EconomyProfile,
    GridSpec,
    OracleConfig,
    Scenario,
    SweepGrid,
    ThresholdSummary,
)


def test_package_exports_resolve_lazily():
    script = "\n".join([
        "import sys",
        "import vaxalloc",
        "assert [m for m in sys.modules if m.startswith('vaxalloc.')] == [], 'eager submodule'",
        "assert vaxalloc.model is sys.modules['vaxalloc.model']",
        "namespace = {}",
        "exec('from vaxalloc import *', namespace)",
        "for name in vaxalloc.__all__:",
        "    obj = namespace[name]",
        "    home = getattr(obj, '__module__', None)",
        "    if not (isinstance(home, str) and home.startswith('vaxalloc.')):",
        "        home = 'vaxalloc.calibration' if name == 'DEFAULT_GAMMA' else 'vaxalloc'",
        "    assert getattr(sys.modules[home], name) is obj, name",
        "    assert getattr(vaxalloc, name) is obj, name",
        "assert set(vaxalloc.__all__) <= set(dir(vaxalloc))",
        "assert {'calibration', 'model', 'oracle', 'sweep'} <= set(dir(vaxalloc))",
        "try:",
        "    vaxalloc.no_such_name",
        "except AttributeError as exc:",
        "    assert str(exc) == \"module 'vaxalloc' has no attribute 'no_such_name'\"",
        "else:",
        "    raise AssertionError('unknown name resolved')",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(vaxalloc.__file__).resolve().parent.parent)}
    result = subprocess.run([sys.executable, "-W", "error", "-c", script], env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


_PROFILE = EconomyProfile(600.0, 400.0, 1.0, 1.5, 0.8)

# Each public value class, valid constructor arguments, and keyword arguments
# its validation rejects (None where it validates nothing).
CASES = [
    (EconomyProfile, (600.0, 400.0, 1.0, 1.5, 0.8), {"gamma": 1.5}),
    (Scenario, (0.05, 0.3, 200.0), {"beta_blue": -0.1}),
    (AllocationResult, (100.0, 100.0, Clamp.INTERIOR, 300.0, 400.0, 0.0, 450.0, 0.0, 0.0), None),
    (CountryRecord, ("XA", 1000.0, 0.4), {"country_code": "X1"}),
    (OracleConfig, (101, False), {"grid_points": 2}),
    (GridSpec, (0.1, 0.9, 0.1), {"step": 0.0}),
    (SweepGrid, (GridSpec(), 0.2, 200.0, _PROFILE, (0.05,), (0.05, 0.1),
                 np.zeros((1, 2)), np.zeros((1, 2), dtype=np.int8)), None),
    (ThresholdSummary, (0.66, 0.25, 8), None),
]


def _reference(cls):
    """``cls`` rebuilt as a frozen dataclass: same fields, defaults and methods."""
    namespace = {key: value for key, value in vars(cls).items() if not key.startswith("__")}
    namespace.update({key: vars(cls)[key] for key in ("__annotations__", "__module__",
                                                     "__qualname__", "__post_init__")
                      if key in vars(cls)})
    eq = cls.__eq__ is not object.__eq__
    return dataclasses.dataclass(frozen=True, eq=eq)(type(cls.__name__, (), namespace))


def _raised(call):
    try:
        call()
    except Exception as exc:  # the type and message are what is compared
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("cls, args, invalid", CASES, ids=[case[0].__name__ for case in CASES])
def test_value_class_behaves_as_frozen_dataclass(cls, args, invalid):
    ref = _reference(cls)
    fields = [field.name for field in dataclasses.fields(ref)]
    assert cls.__match_args__ == ref.__match_args__ == tuple(fields)
    keywords = dict(zip(fields, args))
    required = sum(field.default is dataclasses.MISSING for field in dataclasses.fields(ref))

    def same(make):
        ours, theirs = _raised(lambda: make(cls)), _raised(lambda: make(ref))
        assert (ours and ours[1]) == (theirs and theirs[1])
        assert ours is None or issubclass(ours[0], theirs[0]) or issubclass(theirs[0], ours[0])

    # Constructor: positional, keyword and default arguments, argument errors.
    assert repr(cls(*args)) == repr(ref(*args))
    assert repr(cls(**keywords)) == repr(ref(**keywords))
    assert repr(cls(*args[:required])) == repr(ref(*args[:required]))
    same(lambda c: c(*args, args[0]))
    same(lambda c: c(*args, unexpected=1))
    same(lambda c: c(*args, **{fields[0]: args[0]}))
    if required:
        same(lambda c: c(*args[:required - 1]))
    if invalid is not None:
        assert _raised(lambda: cls(**{**keywords, **invalid})) is not None
        same(lambda c: c(**{**keywords, **invalid}))

    # Equality and hashing: field-wise, or by identity for eq=False.
    a, b, ra, rb = cls(*args), cls(*args), ref(*args), ref(*args)
    assert a == a
    assert (a == b, a != b) == (ra == rb, ra != rb)
    assert a.__eq__(ra) is NotImplemented and a != ra
    if cls.__eq__ is not object.__eq__:
        assert hash(a) == hash(b) == hash(ra)
    else:
        assert hash(a) == object.__hash__(a)

    # Immutability: set and delete fail as on the dataclass, for any name.
    for name in (*fields, "extra"):
        same(lambda c, name=name: setattr(c(*args), name, args[0]))
        same(lambda c, name=name: delattr(c(*args), name))
        assert issubclass(_raised(lambda name=name: delattr(a, name))[0], AttributeError)
        assert issubclass(_raised(lambda name=name: setattr(a, name, 0))[0], AttributeError)

    # Pickle and copies round-trip.
    for clone in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert type(clone) is cls
        assert repr(clone) == repr(a)
        assert (clone == a) == (cls.__eq__ is not object.__eq__)
