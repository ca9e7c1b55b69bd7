"""The suite's own pytest settings, run on a failing property in a subprocess."""

from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_property_is_reported_and_the_run_goes_on(pytester):
    # libcst, when installed, makes Hypothesis's failure report import a deprecated
    # mypy_extensions name; without the settings' filter, "error" turns that warning
    # into an INTERNALERROR that ends the session before the next test runs.
    pytest.importorskip("libcst")
    pytester.path.joinpath("pyproject.toml").write_text(PYPROJECT.read_text())
    pytester.mkdir("tests").joinpath("test_property.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_passes():\n"
        "    pass\n"
    )
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["*Falsifying example*"])
