"""The suite's warning filter, run on a throwaway test module in a subprocess."""

from pathlib import Path

import qgpc

SUBJECT = '''
from hypothesis import given, strategies as st

from qgpc.graph import FeatureScaler


def test_warning_raised_in_qgpc():
    FeatureScaler(mu=0.0, sigma=0.0).angle(1.0)  # 0/0 warns "invalid value"


@given(st.integers())
def test_failing_property(x):
    assert x < 0


def test_after_the_failing_property():
    pass
'''


def test_warnings_fail_tests_and_a_failing_property_ends_no_session(pytester, pytestconfig):
    filters = "".join(f"    {f}\n" for f in pytestconfig.getini("filterwarnings"))
    src = Path(qgpc.__file__).resolve().parents[1]
    pytester.makeini(f"[pytest]\npythonpath = {src}\nfilterwarnings =\n{filters}")
    pytester.makepyfile(test_subject=SUBJECT)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    out = result.stdout.str() + result.stderr.str()
    assert "INTERNALERROR" not in out
    result.assert_outcomes(failed=2, passed=1)
    assert "RuntimeWarning: invalid value" in out
