"""Acceptance gate: one test per golden criterion, one report line each.

The nine criteria are read from the JSON report of one `gradelab selfcheck`
run, shared with the selfcheck row of tests/test_golden_cli.py through the
session's `run_cli` fixture; run with -s to see the per-criterion lines.
Criterion 4 compares the computed normalizer quotient orders against the
published table and certifies each one from above by the bracket-support
bound.  The published 18 for the orthogonal grading is a recorded erratum:
the computed quotient has order 24, equal to the bound, and contains an
element of order 4, which rules 18 out by Lagrange.  All nine criteria must
pass.  Two more tests check that the nine are registered under their titles
and that a criterion whose check fails reports its detail line, and one runs
README's library example as printed.
"""
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

from gradelab import selfcheck


@pytest.fixture(scope="module")
def report(run_cli):
    _, out = run_cli("selfcheck --format json")
    return {r["number"]: r for r in json.loads(out)["results"]}


def _check(number, report):
    result = report[number]
    verdict = "PASS" if result["passed"] else "FAIL"
    print(f"[{number}] {verdict}  {result['title']}: {result['detail']}")
    assert result["passed"], result["detail"]


def test_criterion_1_catalog_eigenspaces(report):
    _check(1, report)


def test_criterion_2_grading_axiom_and_labelings(report):
    _check(2, report)


def test_criterion_3_mad_group_cardinalities(report):
    _check(3, report)


def test_criterion_4_published_quotient_orders(report):
    _check(4, report)


def test_criterion_5_inner_subquotients(report):
    _check(5, report)


def test_criterion_6_quotient_action_structure(report):
    _check(6, report)


def test_criterion_7_contraction_oracle_equivalence(report):
    _check(7, report)


def test_criterion_8_solution_symmetry_invariance(report):
    _check(8, report)


def test_criterion_9_substrate_properties(report):
    _check(9, report)


def test_criteria_are_registered_with_their_titles():
    assert sorted(selfcheck.CHECKS) == list(range(1, 10))
    assert [selfcheck.CHECKS[n].title for n in range(1, 10)] == [
        "fine grading reproduction", "grading axiom and labelings",
        "MAD-group cardinalities", "normalizer quotient orders",
        "inner subquotients", "permutation constraints",
        "contraction oracle equivalence", "solution symmetry invariance",
        "substrate properties"]


def test_a_failing_criterion_reports_its_detail(monkeypatch):
    closure = selfcheck.automorphism_closure
    monkeypatch.setattr(selfcheck, "automorphism_closure",
                        lambda gens: closure(gens)[1:])
    result = selfcheck.run_check(3, selfcheck._Workbench())
    assert (result.number, result.title, result.passed, result.detail) == (
        3, "MAD-group cardinalities", False,
        "closure of {AdP, AdQ} has 8 elements, expected 9")


def test_readme_library_example_prints_the_line_its_comment_names():
    # cut from README.md and run as printed, in a fresh process
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    src = os.path.dirname(os.path.dirname(selfcheck.__file__))
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "48 27787264 188\n"
