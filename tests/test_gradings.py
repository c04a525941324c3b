"""Fine gradings of sl(3,C): catalog construction, verification, labeling."""
import itertools
import json

import pytest

from gradelab import cli
from gradelab.autgrp import (clock_matrix, make_ad, make_out, named_automorphism,
                             shift_matrix)
from gradelab.gradings import (CATALOG_NAMES, AbelianGroup, Grading, catalog,
                               coarsen, common_eigenspaces, mad_group_spec,
                               search_labeling, verify_grading, verify_labeling)
from gradelab.liealg import parse_element, special_linear
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


def test_verify_rejects_a_corrupted_decomposition():
    g = catalog("g1").grading
    # replace the E13 line with a line not compatible with the bracket
    bad = list(g.parts)
    bad[3] = span_of("E13 + H1")
    cert = verify_grading(Grading(sl3, bad))
    assert not cert.ok
    assert cert.violation is not None


def test_catalog_labelings_are_additive():
    for name in CATALOG_NAMES:
        g = catalog(name).grading
        assert verify_labeling(g, g.group, g.labels), name


def test_g1_search_finds_the_frozen_labeling():
    g = catalog("g1").grading
    assert g.group.cyclic_orders == (3, 3)
    assert g.labels == ((0, 0), (0, 1), (1, 0), (1, 1),
                        (2, 2), (2, 0), (0, 2))


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
