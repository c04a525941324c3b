"""Test settings and fixtures shared by the tier-1 suite.

Property tests draw their examples from a fixed, derandomized hypothesis
profile, so every run checks the same cases in a bounded time.  `run_cli`
runs a CLI invocation in process once per session, so the golden digests
and the acceptance tests read the same `selfcheck` run.
"""
import contextlib
import functools
import io

import pytest

from gradelab import cli

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("tier1", derandomize=True, max_examples=25, deadline=None,
                              database=None)
    settings.load_profile("tier1")


@pytest.fixture(scope="session")
def run_cli():
    """`run_cli(argv)` -> (exit code, stdout) of `cli.main(argv.split())`,
    computed on the first call with that argv and cached for the session."""
    @functools.lru_cache(maxsize=None)
    def run(argv: str):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv.split())
        return code, out.getvalue()
    return run
