"""The test harness: a failing property test is reported like any other
failure and the session goes on to the tests after it."""

from pathlib import Path

pytest_plugins = ("pytester",)

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_is_reported_and_the_session_goes_on(pytester):
    # the run reads this repository's pytest settings, warning filters
    # included, so a setting that turns the hypothesis plugin's report into
    # an internal error fails here
    pytester.makepyprojecttoml(PYPROJECT.read_text())
    pytester.makepyfile(test_probe='''
        from hypothesis import given, settings, strategies as st

        @settings(database=None, derandomize=True)
        @given(st.integers())
        def test_fails(x):
            assert x != x

        def test_passes():
            pass
    ''')
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider", "test_probe.py")
    output = "\n".join(result.outlines + result.errlines)
    assert "INTERNALERROR" not in output
    result.assert_outcomes(failed=1, passed=1)
