"""Normalizer quotients N(G)/G acting on grading parts."""
import itertools
import math
import os
import random
import subprocess
import sys

import pytest

from gradelab import autgrp, gradings, normalizers, selfcheck
from gradelab.autgrp import (NAMED_AUTOMORPHISMS, automorphism_closure,
                            compose, conjugate, make_ad, make_out,
                            named_automorphism)
from gradelab.cyclo import zeta
from gradelab.gradings import (MadGroupSpec, catalog, coarsen, common_eigenspaces,
                               mad_group_spec, verify_grading)
from gradelab.linalg import Matrix
from gradelab.normalizers import (CATALOG_NORMALIZER_GENERATORS,
                                  ClosureCapExceeded, Permutation,
                                  PermutationGroup,
                                  catalog_normalizer_generators, det_mod3,
                                  induced_permutation, inner_subquotient,
                                  linearize_on_labels, normalizes,
                                  quotient_group, support_group)


def quotient(name):
    entry = catalog(name)
    return quotient_group(entry.spec, entry.grading,
                          catalog_normalizer_generators(name))


def inner(name):
    entry = catalog(name)
    return inner_subquotient(entry.spec, entry.grading,
                             catalog_normalizer_generators(name))


def induced(auto_name, grading_name):
    return induced_permutation(named_automorphism(auto_name),
                               catalog(grading_name).grading)


def group_exponent(group):
    return math.lcm(*(p.order() for p in group))


def test_permutation_algebra():
    p = Permutation([1, 2, 0, 3])
    q = Permutation([0, 1, 3, 2])
    assert p(0) == 1 and p(2) == 0
    assert p.compose(q) == Permutation([1, 2, 3, 0])
    assert q.compose(p) == Permutation([1, 3, 0, 2])
    assert p.compose(p.inverse()).is_identity()
    assert p.order() == 3 and q.order() == 2
    assert p.compose(q).order() == 4
    # the lcm of the cycle lengths: 1 for the identity, 6 for a 2- and a 3-cycle
    assert Permutation.identity(5).order() == 1
    assert Permutation([1, 0, 3, 4, 2]).order() == 6
    assert Permutation.identity(5).cycle_notation() == "()"
    assert p.cycle_notation() == "(0 1 2)"


def test_permutation_rejects_non_bijections():
    with pytest.raises(ValueError):
        Permutation([0, 0, 1])
    with pytest.raises(ValueError):
        Permutation([0, 2])


def test_induced_permutations_on_the_cartan_grading():
    assert induced("OutI", "g1").cycle_notation() == "(1 6)(2 5)(3 4)"
    assert induced("AdB1", "g1").cycle_notation() == "(1 2 4)(3 6 5)"
    assert induced("AdB2", "g1").cycle_notation() == "(1 3)(2 5)(4 6)"


def test_induced_permutations_on_the_orthogonal_grading():
    assert induced("AdB1", "g2").cycle_notation() == "(1 3 2)(4 5 6)"
    assert induced("AdB2", "g2").cycle_notation() == "(1 2)(4 6)"
    assert induced("AdH", "g2").cycle_notation() == "(1 4)(2 6)"


def test_induced_permutations_on_the_pauli_grading():
    assert induced("AdS", "g4").cycle_notation() == "(0 3 1 2)(4 6 7 5)"
    assert induced("AdD", "g4").cycle_notation() == "(2 4 5)(3 7 6)"
    assert induced("OutI", "g4").cycle_notation() == "(2 3)(4 6)(5 7)"


def test_mad_group_elements_induce_the_identity():
    for name in ("g2", "g4"):
        entry = catalog(name)
        for h in entry.spec.elements:
            assert induced_permutation(h, entry.grading).is_identity()


def test_induced_permutation_rejects_non_normalizers():
    unipotent = make_ad(Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    with pytest.raises(ValueError):
        induced_permutation(unipotent, catalog("g1").grading)


def test_normalizes_accepts_catalog_generators():
    for name in ("g1", "g2", "g3", "g4"):
        spec = mad_group_spec(name)
        for h in catalog_normalizer_generators(name):
            assert normalizes(h, spec), (name, h)


def test_normalizes_rejects_outsiders():
    unipotent = make_ad(Matrix.from_rows([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))
    assert not normalizes(unipotent, mad_group_spec("g1"))
    # diag(1,-1,1) conjugation puts -1 entries into the Pauli monomials
    assert not normalizes(named_automorphism("AdH"), mad_group_spec("g4"))



def test_generator_only_normalizes_matches_every_element():
    # h^-1 <S> h = <h^-1 S h>: conjugating the separating generators decides
    # what conjugating every stored element decides, on seeded words of the
    # named automorphisms, with both verdicts met on each finite group
    rng = random.Random(25031)
    named = [named_automorphism(n) for n in sorted(NAMED_AUTOMORPHISMS)]
    for name in ("g2", "g4"):
        spec = mad_group_spec(name)
        verdicts = set()
        for _ in range(40):
            h = rng.choice(named)
            for _ in range(rng.randint(0, 2)):
                h = compose(h, rng.choice(named))
            every = all(spec.membership(conjugate(h, g)) for g in spec.elements)
            assert normalizes(h, spec) == every, (name, h)
            verdicts.add(every)
        assert verdicts == {True, False}, name


def test_normalizes_refuses_a_finite_spec_without_generators():
    g4 = mad_group_spec("g4")
    bare = MadGroupSpec(name="bare", separating_generators=(),
                        membership=g4.membership, elements=g4.elements)
    with pytest.raises(ValueError, match="no separating generators"):
        normalizes(named_automorphism("AdS"), bare)

# Computed quotient orders.  The orthogonal grading is the interesting one:
# the published table lists 18 there, but the computed group has an element
# of order 4, which no group of order 18 can contain, and its order 24 equals
# the bracket-support upper bound.  The published table and its erratum live
# in selfcheck's criterion 4; here we freeze what the closure produces so
# regressions stay visible.
COMPUTED_QUOTIENT_ORDERS = {"g1": 12, "g2": 24, "g3": 4, "g4": 48}


def test_quotient_orders_match_the_computed_baseline():
    for name, expected in COMPUTED_QUOTIENT_ORDERS.items():
        assert quotient(name).order == expected, name


def test_support_group_certifies_the_computed_quotients():
    for name, expected in COMPUTED_QUOTIENT_ORDERS.items():
        bound = support_group(catalog(name).grading)
        assert bound.order == expected, name
        assert set(bound.elements) == set(quotient(name).elements), name
    broken = coarsen(catalog("g4").grading, [[0, 1], [2, 3], [4, 7], [5, 6]])
    with pytest.raises(ValueError):
        support_group(broken)


# on g2 the bracket support alone allows 168 permutations, the dimensions 24
@pytest.mark.parametrize("name", ["g1", "g2", "g4", "g1 coarsened"])
def test_support_group_is_every_permutation_keeping_the_support(name):
    if name == "g1 coarsened":
        g = coarsen(catalog("g1").grading, [[0], [1, 6], [2], [3], [4], [5]])
    else:
        g = catalog(name).grading
    targets = verify_grading(g).bracket_targets
    dims = g.part_dims

    def keeps_support(m):
        return (all(dims[m[p]] == dims[p] for p in range(g.num_parts))
                and all(targets[(m[i], m[j])] == (None if k is None else m[k])
                        for (i, j), k in targets.items()))

    brute = {Permutation(m) for m in itertools.permutations(range(g.num_parts))
             if keeps_support(m)}
    assert set(support_group(g).elements) == brute


def test_criterion_4_fails_on_a_wrong_quotient():
    entry = catalog("g2")
    bench = selfcheck._Workbench()
    wrong = quotient_group(entry.spec, entry.grading,
                           [named_automorphism(n) for n in ("AdB1", "AdB2")])
    real = bench.quotient
    bench.quotient = lambda name: wrong if name == "g2" else real(name)
    assert bench.quotient("g2").order == 6
    result = selfcheck.run_check(4, bench)
    assert result.passed is False
    assert "g2" in result.detail


def test_lagrange_witness_searches_every_element_order():
    # orders 1, 2, 3, 4, 6: the largest, 6, divides 18, but 4 does not
    q = PermutationGroup(5, (), [Permutation([0, 1, 2, 3, 4]),
                                 Permutation([1, 0, 2, 3, 4]),
                                 Permutation([1, 2, 0, 3, 4]),
                                 Permutation([1, 2, 3, 0, 4]),
                                 Permutation([1, 2, 0, 4, 3])])
    assert q.element_order_profile() == {1: 1, 2: 1, 3: 1, 4: 1, 6: 1}
    assert selfcheck._lagrange_witness(q, 18).order() == 4
    assert selfcheck._lagrange_witness(q, 12) is None


def test_cartan_quotient_is_dihedral_of_order_12():
    q = quotient("g1")
    assert q.order == 12
    assert group_exponent(q) == 6
    assert q.element_order_profile() == {1: 1, 2: 7, 3: 2, 6: 2}


def test_orthogonal_quotient_looks_like_s4():
    q = quotient("g2")
    assert q.order == 24
    assert group_exponent(q) == 12
    assert q.element_order_profile() == {1: 1, 2: 9, 3: 8, 4: 6}


def test_z8_quotient_is_elementary_abelian():
    q = quotient("g3")
    assert q.order == 4
    assert group_exponent(q) == 2
    for a in q:
        for b in q:
            assert a.compose(b) == b.compose(a)


def test_pauli_quotient_order_48():
    q = quotient("g4")
    assert q.order == 48
    assert group_exponent(q) == 24


def test_inner_subquotients():
    i1 = inner("g1")
    assert i1.order == 6
    assert i1.element_order_profile() == {1: 1, 2: 3, 3: 2}  # S3
    assert inner("g2").order == 24
    # both g3 generator words are inner, so nothing is lost
    assert inner("g3").order == 4
    i4 = inner("g4")
    assert i4.order == 24
    assert group_exponent(i4) == 12


def test_quotient_records_carry_certified_witness_words():
    # each coset's witness word normalizes G, induces the coset's
    # permutation, and is inner exactly when the record's parity is 0
    for name, expected in COMPUTED_QUOTIENT_ORDERS.items():
        entry = catalog(name)
        q = quotient(name)
        assert len(q.records) == expected, name
        assert {r.permutation for r in q.records} == set(q.elements), name
        for record in q.records:
            assert normalizes(record.witness, entry.spec), name
            assert induced_permutation(record.witness, entry.grading) == \
                record.permutation, name
            assert (record.witness.kind == "inner") == (record.parity == 0), name


def test_quotients_are_closed_under_composition_and_inverse():
    for name in ("g1", "g3", "g4"):
        q = quotient(name)
        elements = set(q.elements)
        for a in q.generators:
            for b in q.generators:
                assert a.compose(b) in elements
            assert a.inverse() in elements


def test_pauli_quotient_linearizes_with_parity_locked_determinant():
    entry = catalog("g4")
    q = quotient("g4")
    counts = {}
    for record in q.records:
        m = linearize_on_labels(record.permutation, entry.grading)
        assert m is not None
        key = (record.parity, det_mod3(m))
        counts[key] = counts.get(key, 0) + 1
    assert counts == {(0, 1): 24, (1, 2): 24}


def test_linearize_golden_matrix_for_the_order_four_generator():
    entry = catalog("g4")
    m = linearize_on_labels(induced("AdS", "g4"), entry.grading)
    assert m == ((0, 1), (2, 0))
    assert det_mod3(m) == 1


def test_linearize_rejects_a_non_linear_permutation():
    entry = catalog("g4")
    # swap two parts whose labels are not related by any single matrix
    assert linearize_on_labels(
        Permutation([1, 0, 2, 3, 4, 5, 6, 7]), entry.grading) is None


def test_linearize_requires_z3_square_labels():
    with pytest.raises(ValueError):
        linearize_on_labels(Permutation.identity(8), catalog("g3").grading)


def test_closure_builds_actions_for_the_generators_only(monkeypatch):
    # compose, inverse and the membership audits are 3x3 work; only the
    # induced permutations of the generators read an 8x8 action
    normalizers._quotient_and_inner.cache_clear()  # a cold closure, not a memo hit
    entry = catalog("g4")  # the spec's elements are built here, before counting
    gens = catalog_normalizer_generators("g4")
    built, large = [], []
    action_matrix, mul, inv = autgrp._action_matrix, Matrix.__mul__, Matrix.inverse

    def counting_action(*args):
        built.append(args)
        return action_matrix(*args)

    def counting_mul(a, b):
        if a.rows > 3:
            large.append("product")
        return mul(a, b)

    def counting_inverse(a):
        if a.rows > 3:
            large.append("inverse")
        return inv(a)

    monkeypatch.setattr(autgrp, "_action_matrix", counting_action)
    monkeypatch.setattr(Matrix, "__mul__", counting_mul)
    monkeypatch.setattr(Matrix, "inverse", counting_inverse)
    q = quotient_group(entry.spec, entry.grading, gens)
    assert q.order == 48
    assert 0 < len(built) <= len(gens)
    assert large == []


G4_CLOSURE_INVERSES = """
from gradelab.gradings import catalog
from gradelab.linalg import Matrix
from gradelab.normalizers import _closure, catalog_normalizer_generators
entry = catalog("g4")  # the spec's elements are built here, before counting
gens = catalog_normalizer_generators("g4")
calls, inverse = [], Matrix.inverse
Matrix.inverse = lambda a: calls.append(a.rows) or inverse(a)
states, _ = _closure(entry.spec, entry.grading, gens)
print(len(states), len(calls))
"""


def test_g4_closure_inverts_each_representative_once():
    # automorphisms carry their inverse transposes, and a composition's is
    # the product of its factors', so the closure eliminates only the
    # representatives that are not compositions: the three generators and
    # the identity it starts from.  A fresh process, because the cached spec
    # elements keep what earlier tests computed.
    src = os.path.dirname(os.path.dirname(autgrp.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", G4_CLOSURE_INVERSES], env=env,
                         capture_output=True, text=True, check=True).stdout
    states, inverses = map(int, out.split())
    assert states == 48
    assert inverses == 4


def test_closure_cap_is_enforced(monkeypatch):
    # the quotient closure, the automorphism closure and check 5's
    # permutation closure share one capped BFS and one cap exception
    normalizers._quotient_and_inner.cache_clear()  # a cold closure, not a memo hit
    entry = catalog("g2")
    bench = selfcheck._Workbench()
    bench.inner("g1")  # closed under the real cap, so check 5 reaches its own BFS
    monkeypatch.setattr(autgrp, "CLOSURE_CAP", 3)
    with pytest.raises(ClosureCapExceeded) as info:
        quotient_group(entry.spec, entry.grading,
                       catalog_normalizer_generators("g2"))
    assert info.value.cap == 3
    with pytest.raises(ClosureCapExceeded) as info:
        automorphism_closure(entry.spec.separating_generators)
    assert info.value.cap == 3
    with pytest.raises(ClosureCapExceeded) as info:
        selfcheck.check_5(bench)
    assert info.value.cap == 3


def test_quotient_and_inner_subquotient_share_one_closure(monkeypatch):
    normalizers._quotient_and_inner.cache_clear()
    entry = catalog("g4")
    closures, closure = [], normalizers._closure

    def counting_closure(*args):
        closures.append(args)
        return closure(*args)

    monkeypatch.setattr(normalizers, "_closure", counting_closure)
    # fresh but equal generator lists: the memo keys on the automorphisms
    q = quotient_group(entry.spec, entry.grading, catalog_normalizer_generators("g4"))
    i = inner_subquotient(entry.spec, entry.grading, catalog_normalizer_generators("g4"))
    assert (q.order, i.order, len(closures)) == (48, 24, 1)
    inner_gens = [h for h in catalog_normalizer_generators("g4") if h.kind == "inner"]
    assert inner_subquotient(entry.spec, entry.grading, inner_gens).order == 24
    assert len(closures) == 2


def test_sl2_cartan_quotient_reads_outer_maps_as_inner():
    # on sl(2) Out_I = Ad_J with J = [[0, 1], [-1, 0]], so both generators
    # are inner and swap e and f; their quotient is Z2, all of it inner
    sl2_torus = MadGroupSpec(name="sl2 torus",
                             separating_generators=(make_ad(Matrix.diagonal([1, zeta(4)])),),
                             membership=gradings._g1_member,
                             probes=(make_ad(Matrix.diagonal([1, 2])),))
    cartan = common_eigenspaces(sl2_torus.separating_generators)
    assert cartan.part_dims == (1, 1, 1)
    gens = [make_ad(Matrix.from_rows([[0, 1], [1, 0]])), make_out(Matrix.identity(2))]
    assert quotient_group(sl2_torus, cartan, gens).order == 2
    assert inner_subquotient(sl2_torus, cartan, gens).order == 2


def test_failed_closures_are_not_memoized():
    normalizers._quotient_and_inner.cache_clear()
    entry = catalog("g1")
    gens = [named_automorphism("AdS")]  # the Fourier matrix moves the torus
    for _ in range(2):
        with pytest.raises(ValueError, match="does not normalize"):
            quotient_group(entry.spec, entry.grading, gens)
    assert normalizers._quotient_and_inner.cache_info().currsize == 0


def test_memo_key_builds_no_action_of_the_spec_elements(monkeypatch):
    # the memo keys on the generators' keys, which are 3x3 work: a hit with
    # fresh generators builds no action, of them or of the spec's elements
    entry = catalog("g4")
    quotient_group(entry.spec, entry.grading, catalog_normalizer_generators("g4"))
    gens = catalog_normalizer_generators("g4")
    hits = normalizers._quotient_and_inner.cache_info().hits
    built, action_matrix = [], autgrp._action_matrix
    monkeypatch.setattr(autgrp, "_action_matrix",
                        lambda f: built.append(f) or action_matrix(f))
    assert quotient_group(entry.spec, entry.grading, gens).order == 48
    assert normalizers._quotient_and_inner.cache_info().hits == hits + 1
    assert built == []


def test_memo_bound_is_fixed():
    assert normalizers._quotient_and_inner.cache_info().maxsize == 8


def test_generator_table_is_complete():
    assert sorted(CATALOG_NORMALIZER_GENERATORS) == ["g1", "g2", "g3", "g4"]
    with pytest.raises(ValueError):
        catalog_normalizer_generators("g5")
