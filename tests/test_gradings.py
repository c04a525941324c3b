"""Fine gradings of sl(3,C): catalog construction, verification, labeling."""
import itertools
import json
import random
import time

import pytest

from gradelab import cli, cyclo
from gradelab.autgrp import (InfiniteOrderError, clock_matrix, make_ad, make_out,
                             named_automorphism, order, shift_matrix)
from gradelab.cyclo import zeta
from gradelab.gradings import (CATALOG_NAMES, AbelianGroup, Grading, catalog,
                               coarsen, common_eigenspaces, mad_group_spec,
                               search_labeling, verify_grading, verify_labeling)
from gradelab.liealg import LieAlgebra, parse_element, special_linear
from gradelab.linalg import Matrix, Subspace

sl3 = special_linear(3)


def span_of(*texts):
    return Subspace.from_vectors(8, [parse_element(t).coords for t in texts])


def part_labels(name):
    entry = catalog(name)
    return dict(zip(entry.grading.parts, entry.grading.labels))


def test_part_dimension_patterns():
    dims = {name: catalog(name).grading.part_dims for name in CATALOG_NAMES}
    assert dims["g1"] == (2, 1, 1, 1, 1, 1, 1)
    assert dims["g2"] == (2, 1, 1, 1, 1, 1, 1)
    assert dims["g3"] == (1,) * 8
    assert dims["g4"] == (1,) * 8


def test_cartan_grading_parts_are_root_spaces():
    g = catalog("g1").grading
    assert g.parts[0] == span_of("H1", "H2")
    roots = ["E12", "E23", "E13", "E31", "E32", "E21"]
    for k, text in enumerate(roots, start=1):
        assert g.parts[k] == span_of(text)


def test_orthogonal_grading_has_symmetric_and_antisymmetric_lines():
    g = catalog("g2").grading
    assert g.parts[1] == span_of("E21 + E12")
    assert g.parts[4] == span_of("E21 - E12")
    assert g.parts[3] == span_of("E23 + E32")


def test_z8_grading_parts():
    g = catalog("g3").grading
    assert g.parts[0] == span_of("H2")
    assert g.parts[1] == span_of("E12 - E31")
    assert g.parts[4] == span_of("2 H1 + H2")
    assert g.parts[7] == span_of("E13 - E21")


def test_pauli_grading_parts_are_monomial_lines():
    g = catalog("g4").grading
    p, q = clock_matrix(), shift_matrix()
    monomials = [p, p * p, q, q * q, p * q, p * p * q, p * q * q, p * p * q * q]
    for part, m in zip(g.parts, monomials):
        assert part == Subspace.from_vectors(8, [sl3.from_matrix(m)])


def test_catalog_gradings_verify():
    for name in CATALOG_NAMES:
        cert = verify_grading(catalog(name).grading)
        assert cert.ok, name
        assert cert.violation is None


def test_verifying_gradings_equal_at_unnested_orders_stays_fast():
    # g4 with part 0 scaled by a primitive 255th root, then by an 83rd: the
    # parts are equal, so the second call's cache lookup compares RREF rows
    # at orders 255 and 249, which once embedded both at order 21165 (39 s)
    g = catalog("g4").grading

    def scaled(k):
        rows = [[x * zeta(k) for x in row] for row in g.parts[0].basis]
        parts = (Subspace.from_vectors(8, rows),) + g.parts[1:]
        return Grading(g.algebra, parts, g.group, g.labels)

    start = time.perf_counter()
    for k in (255, 83):
        assert verify_grading(scaled(k)).ok, k
    assert time.perf_counter() - start < 5


def test_verify_rejects_a_corrupted_decomposition():
    g = catalog("g1").grading
    # replace the E13 line with a line not compatible with the bracket
    bad = list(g.parts)
    bad[3] = span_of("E13 + H1")
    cert = verify_grading(Grading(sl3, bad))
    assert not cert.ok
    assert cert.violation is not None


def _span_route(g):
    """(ok, violation, bracket_targets) by the span route, as the reference:
    the ordered part pairs in row-major order, the span of each pair's
    brackets row-reduced and tried in every part by `contains_subspace`."""
    targets = {}
    for i, j in itertools.product(range(g.num_parts), repeat=2):
        span = Subspace.from_vectors(g.algebra.dim,
                                     [g.algebra.bracket_coords(x, y)
                                      for x in g.parts[i].basis for y in g.parts[j].basis])
        if span.is_zero():
            targets[(i, j)] = None
            continue
        home = next((k for k, p in enumerate(g.parts) if p.contains_subspace(span)), None)
        if home is None:
            return False, (i, j), targets
        targets[(i, j)] = home
    return True, None, targets


def _random_partition(rng, n, blocks):
    """A partition of 0..n-1 into `blocks` nonempty blocks."""
    order = rng.sample(range(n), n)
    cuts = sorted(rng.sample(range(1, n), blocks - 1))
    return [order[a:b] for a, b in zip([0] + cuts, cuts + [n])]


def _random_direct_sum(rng):
    """Random lines and planes of small integer vectors summing to sl(3)."""
    while True:
        dims = []
        while sum(dims) < 8:
            dims.append(rng.choice((1, 2) if sum(dims) < 7 else (1,)))
        rows = [[rng.randint(-1, 1) for _ in range(8)] for _ in range(8)]
        if Matrix.from_rows(rows).rank() < 8:
            continue
        starts = list(itertools.accumulate(dims, initial=0))
        return Grading(sl3, [Subspace.from_vectors(8, rows[a:b])
                             for a, b in zip(starts, starts[1:])])


def _shuffled_and_bent(rng, g):
    """g's parts in a random order, one of them tilted towards another's
    first basis vector: still a direct sum, rarely a grading, and its first
    misplaced bracket may come after the first row of part pairs."""
    parts = rng.sample(g.parts, g.num_parts)
    k, l = rng.sample(range(g.num_parts), 2)
    w = parts[l].basis[0]
    parts[k] = Subspace.from_vectors(8, [[x + y for x, y in zip(row, w)]
                                         for row in parts[k].basis])
    return Grading(g.algebra, parts)


def test_verify_grading_agrees_with_the_span_route():
    # one bracket per basis pair a < b, placed by its leading column, gives
    # the span route's verdict, violation and targets, partial ones included
    rng = random.Random(3907)
    fine = [catalog(name).grading for name in CATALOG_NAMES]
    cases = fine + [Grading(sl3, [Subspace.full(8)])]
    for g in fine:
        n = g.num_parts
        for pair in itertools.combinations(range(n), 2):
            cases.append(coarsen(g, [list(pair)] + [[k] for k in range(n) if k not in pair]))
        for _ in range(8):
            cases.append(coarsen(g, _random_partition(rng, n, rng.randint(2, n - 1))))
            cases.append(_shuffled_and_bent(rng, g))
    cases += [_random_direct_sum(rng) for _ in range(16)]
    assert len(cases) == 5 + 98 + 32 + 32 + 16
    verdicts = set()
    for g in cases:
        cert = verify_grading(g)
        assert (cert.ok, cert.violation, cert.bracket_targets) == _span_route(g), g
        verdicts.add(cert.ok)
    assert verdicts == {True, False}


def test_verify_grading_forms_each_bracket_of_the_basis_once(monkeypatch):
    # 28 brackets [x_a, x_b], a < b, per catalog grading, where the span
    # route formed 64; a merge of g4 stops at its first misplaced bracket
    real = LieAlgebra.bracket_coords
    calls = []

    def counted(self, x, y):
        calls.append(1)
        return real(self, x, y)

    g4 = catalog("g4").grading
    merged = coarsen(g4, [[0, 1], [2, 3], [4, 7], [5, 6]])
    expected = [(catalog(name).grading, 28, None) for name in CATALOG_NAMES]
    for g, count, violation in expected + [(merged, 2, (0, 1))]:
        verify_grading.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(LieAlgebra, "bracket_coords", counted)
            calls.clear()
            cert = verify_grading(g)
        assert (len(calls), cert.violation) == (count, violation), g


def test_catalog_labelings_are_additive():
    for name in CATALOG_NAMES:
        g = catalog(name).grading
        assert verify_labeling(g, g.group, g.labels), name


def test_g1_search_finds_the_frozen_labeling():
    g = catalog("g1").grading
    assert g.group.cyclic_orders == (3, 3)
    assert g.labels == ((0, 0), (0, 1), (1, 0), (1, 1),
                        (2, 2), (2, 0), (0, 2))
    searched = search_labeling(Grading(g.algebra, g.parts), AbelianGroup((3, 3)))
    assert tuple(map(tuple, searched)) == g.labels
    assert verify_labeling(g, g.group, searched)


def test_g1_also_admits_a_z7_labeling():
    base = Grading(sl3, catalog("g1").grading.parts)
    z7 = AbelianGroup((7,))
    labels = search_labeling(base, z7)
    assert labels is not None
    assert verify_labeling(base, z7, labels)


def test_g4_admits_no_z8_labeling():
    base = Grading(sl3, catalog("g4").grading.parts)
    assert search_labeling(base, AbelianGroup((8,))) is None


@pytest.mark.parametrize("name, orders", [("g2", (2, 2, 2)), ("g3", (8,)),
                                         ("g4", (8,)), ("g4", (3, 3))])
def test_search_finds_a_labeling_iff_one_exists(name, orders):
    base = Grading(sl3, catalog(name).grading.parts)
    group = AbelianGroup(orders)
    rules = [(i, j, k) for (i, j), k in verify_grading(base).bracket_targets.items()
             if k is not None]
    exists = any(all(group.add(m[i], m[j]) == m[k] for i, j, k in rules)
                 for m in itertools.permutations(group.elements(), base.num_parts))
    labels = search_labeling(base, group)
    assert (labels is not None) == exists
    if labels is not None:
        assert verify_labeling(base, group, labels)


def test_a_labeling_search_and_its_check_verify_the_grading_once():
    base = Grading(sl3, catalog("g1").grading.parts)
    z7 = AbelianGroup((7,))
    verify_grading.cache_clear()
    labels = search_labeling(base, z7)
    assert verify_labeling(base, z7, labels)
    assert verify_grading.cache_info().misses == 1
    assert verify_grading.cache_info().maxsize == 8


def test_verify_labeling_rejects_a_swap():
    g = catalog("g2").grading
    labels = list(g.labels)
    labels[1], labels[2] = labels[2], labels[1]
    assert not verify_labeling(g, g.group, labels)


def test_coarsen_can_produce_a_coarser_grading():
    g = catalog("g1").grading
    merged = coarsen(g, [[0], [1, 6], [2], [3], [4], [5]])
    assert merged.part_dims == (2, 2, 1, 1, 1, 1)
    assert verify_grading(merged).ok


def test_coarsen_may_break_the_bracket_axiom():
    g = catalog("g4").grading
    # pair up parts with opposite labels
    merged = coarsen(g, [[0, 1], [2, 3], [4, 7], [5, 6]])
    cert = verify_grading(merged)
    assert not cert.ok
    assert cert.violation == (0, 1)


def test_coarsen_validates_the_partition():
    g = catalog("g1").grading
    with pytest.raises(ValueError):
        coarsen(g, [[0, 1], [2]])
    with pytest.raises(ValueError):
        coarsen(g, [[0, 0], [1, 2, 3, 4, 5, 6]])


def test_abelian_group_arithmetic():
    z33 = AbelianGroup((3, 3))
    assert z33.order == 9 and z33.rank == 2
    assert z33.add((2, 1), (2, 2)) == (1, 0)
    assert z33.reduce((4, -1)) == (1, 2)
    assert len(z33.elements()) == 9
    assert str(z33) == "Z3 x Z3"
    assert AbelianGroup((8,)).zero() == (0,)


def test_mad_membership_g1():
    member = mad_group_spec("g1").membership
    assert member(make_ad(Matrix.diagonal([1, 2, 4])))
    assert not member(make_out(Matrix.identity(3)))
    assert not member(named_automorphism("AdB1"))


def test_mad_membership_g2():
    member = mad_group_spec("g2").membership
    spec = mad_group_spec("g2")
    assert len(spec.elements) == 8
    assert all(member(h) for h in spec.elements)
    assert not member(make_ad(Matrix.diagonal([1, 2, 1])))


def test_mad_membership_g3():
    from fractions import Fraction
    member = mad_group_spec("g3").membership
    assert member(make_ad(Matrix.diagonal([1, 2, Fraction(1, 2)])))
    assert not member(make_ad(Matrix.diagonal([1, 2, 3])))
    for probe in mad_group_spec("g3").probes:
        assert member(probe)


def test_mad_membership_g4():
    member = mad_group_spec("g4").membership
    spec = mad_group_spec("g4")
    assert len(spec.elements) == 9
    assert all(member(h) for h in spec.elements)
    assert not member(make_ad(Matrix.diagonal([1, 2, 4])))
    assert not member(named_automorphism("OutI"))


def test_common_eigenspaces_is_deterministic():
    gens = mad_group_spec("g2").separating_generators
    assert common_eigenspaces(gens) == common_eigenspaces(gens)


def _intersected_eigenspaces(gens):
    """The route `common_eigenspaces` replaced, as the reference: each
    generator's eigenspaces, one kernel of action - lam per m-th root of
    unity, refine the parts found so far by `Subspace.intersect`."""
    dim = gens[0].algebra.dim
    parts = [(Subspace.full(dim), ())]
    for g in gens:
        m = order(g)
        spaces = [(zeta(m, k), (g.action - Matrix.identity(dim).scale(zeta(m, k))).kernel())
                  for k in range(m)]
        parts = [(space.intersect(eig), tag + (lam,))
                 for space, tag in parts for lam, eig in spaces]
        parts = [(space, tag) for space, tag in parts if space.dim]
    parts.sort(key=lambda item: tuple(cyclo.sort_key(v) for v in item[1]))
    return [space for space, _ in parts]


_SL2_TORUS = (make_ad(Matrix.diagonal([1, zeta(4)])),)
_REFERENCE_GENERATORS = (
    [(name, mad_group_spec(name).separating_generators) for name in CATALOG_NAMES]
    + [(name + " reversed", mad_group_spec(name).separating_generators[::-1])
       for name in CATALOG_NAMES]
    + [("sl2 torus", _SL2_TORUS)]
    + [(name, (named_automorphism(name),))
       for name in ("AdP", "AdQ", "AdH", "OutI", "AdB1")])


@pytest.mark.parametrize("gens", [gens for _, gens in _REFERENCE_GENERATORS],
                         ids=[name for name, _ in _REFERENCE_GENERATORS])
def test_joint_kernels_equal_intersected_eigenspaces(gens):
    parts = common_eigenspaces(gens).parts
    reference = _intersected_eigenspaces(list(gens))
    assert list(parts) == reference
    assert [p.to_json() for p in parts] == [p.to_json() for p in reference]


def test_common_eigenspaces_refuses_non_commuting_or_infinite_order_maps():
    # AdP and AdQ commute (PQ is a multiple of QP); AdP and AdB2 do not
    with pytest.raises(ValueError, match="do not commute"):
        common_eigenspaces([named_automorphism("AdP"), named_automorphism("AdB2")])
    # g1's probe Ad diag(1, 2, 4) has infinite order
    with pytest.raises(InfiniteOrderError):
        common_eigenspaces(mad_group_spec("g1").probes)


def test_grading_json_round_trip():
    for name in ("g2", "g4"):
        g = catalog(name).grading
        assert Grading.from_json(g.to_json()) == g
    base = Grading(sl3, catalog("g1").grading.parts)
    assert Grading.from_json(base.to_json()) == base


def test_from_json_reads_every_row_spelling_and_the_coarsen_wrapper(tmp_path):
    # the g2 grading, its basis vectors spelled as named-basis strings and as
    # coordinate lists of ints, fraction strings and scalar dicts (i = zeta_4
    # scales H2), with no ambient_dim
    i = {"order": 4, "terms": [[1, 1, 1]]}
    document = {"n": 3, "group": [2, 2, 2],
                "labels": [list(l) for l in catalog("g2").grading.labels],
                "parts": [{"basis": [[0, 0, 0, 0, 0, 0, "1/2", 0],
                                     [0, 0, 0, 0, 0, 0, 0, i]]},
                          {"basis": ["E21 + E12"]},
                          {"basis": ["2*E31 + 2*E13"]},
                          {"basis": [[0, 0, 0, "-1/3", 0, "-1/3", 0, 0]]},
                          {"basis": [[-1, 0, 1, 0, 0, 0, 0, 0]]},
                          {"basis": ["E23 - E32"]},
                          {"basis": ["E31 - E13"]}]}
    expected = catalog("g2").grading
    wrapped = {"catalog": "g2", "grading": document}
    assert Grading.from_json(document) == expected
    assert Grading.from_json(wrapped) == expected
    # the command line reads a file through the same reader
    path = tmp_path / "g2.json"
    path.write_text(json.dumps(wrapped))
    assert cli._load_grading(str(path))[0] == expected


def test_grading_constructor_rejects_bad_input():
    g = catalog("g1").grading
    with pytest.raises(ValueError):
        Grading(sl3, g.parts[:3])
    with pytest.raises(ValueError):
        Grading(sl3, g.parts, group=AbelianGroup((3, 3)), labels=None)
    with pytest.raises(ValueError):
        Grading(sl3, g.parts, group=AbelianGroup((3, 3)),
                labels=[(0, 0)] * 7)
