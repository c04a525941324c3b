"""Acceptance gate: one test per golden criterion, one report line each.

Run with -s to see the per-criterion lines.  Criterion 4 compares the
computed normalizer quotient orders against the published table and
certifies each one from above by the bracket-support bound.  The published
18 for the orthogonal grading is a recorded erratum: the computed quotient
has order 24, equal to the bound, and contains an element of order 4, which
rules 18 out by Lagrange.  All nine criteria must pass.  Two more tests
check that the nine are registered under their titles and that a criterion
whose check fails reports its detail line.
"""
import pytest

from gradelab import selfcheck


@pytest.fixture(scope="module")
def bench():
    return selfcheck._Workbench()


def _run(number, bench):
    result = selfcheck.run_check(number, bench)
    print(result.line())
    assert result.passed, result.detail


def test_criterion_1_catalog_eigenspaces(bench):
    _run(1, bench)


def test_criterion_2_grading_axiom_and_labelings(bench):
    _run(2, bench)


def test_criterion_3_mad_group_cardinalities(bench):
    _run(3, bench)


def test_criterion_4_published_quotient_orders(bench):
    _run(4, bench)


def test_criterion_5_inner_subquotients(bench):
    _run(5, bench)


def test_criterion_6_quotient_action_structure(bench):
    _run(6, bench)


def test_criterion_7_contraction_oracle_equivalence(bench):
    _run(7, bench)


def test_criterion_8_solution_symmetry_invariance(bench):
    _run(8, bench)


def test_criterion_9_substrate_properties(bench):
    _run(9, bench)


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
