"""sl(n) structure constants, brackets, and the Jacobi table check."""
import random
from fractions import Fraction

import pytest

from gradelab import liealg
from gradelab.autgrp import Automorphism, make_ad
from gradelab.gradings import Grading
from gradelab.liealg import (StructureTable, jacobi_table_holds, parse_element,
                             special_linear)
from gradelab.linalg import Matrix, as_cyclo

rng = random.Random(35203)

sl3 = special_linear(3)


def coords(name):
    return parse_element(name, sl3).coords


def rand_coords(algebra=sl3):
    return tuple(as_cyclo(Fraction(rng.randint(-4, 4))) for _ in range(algebra.dim))


def add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def is_zero(x):
    return all(c.is_zero() for c in x)


def test_basis_order_and_dimension():
    assert sl3.dim == 8
    assert sl3.basis_names == ("E12", "E13", "E21", "E23", "E31", "E32",
                               "H1", "H2")


def test_hand_checked_brackets():
    # [E12, E21] = H1, [H1, E12] = 2 E12, [E12, E23] = E13
    assert sl3.bracket_coords(coords("E12"), coords("E21")) == coords("H1")
    assert sl3.bracket_coords(coords("H1"), coords("E12")) == coords("2*E12")
    assert sl3.bracket_coords(coords("E12"), coords("E23")) == coords("E13")
    # Cartan elements commute
    assert is_zero(sl3.bracket_coords(coords("H1"), coords("H2")))


def test_bracket_antisymmetry_and_bilinearity():
    for _ in range(80):
        x, y = rand_coords(), rand_coords()
        assert is_zero(add(sl3.bracket_coords(x, y), sl3.bracket_coords(y, x)))
        z = rand_coords()
        lhs = sl3.bracket_coords(add(x, y), z)
        rhs = add(sl3.bracket_coords(x, z), sl3.bracket_coords(y, z))
        assert lhs == rhs


def test_jacobi_identity_of_the_algebra():
    for alg in (sl3, special_linear(2)):
        assert jacobi_table_holds(alg.structure_constant)


def test_matrix_round_trip():
    for _ in range(30):
        x = rand_coords()
        assert sl3.from_matrix(sl3.to_matrix(x)) == x


def test_bracket_matches_matrix_commutator():
    for _ in range(30):
        x, y = rand_coords(), rand_coords()
        lhs = sl3.to_matrix(sl3.bracket_coords(x, y))
        mx, my = sl3.to_matrix(x), sl3.to_matrix(y)
        assert lhs == mx * my - my * mx


def test_traceless_enforced():
    with pytest.raises(ValueError):
        from gradelab.linalg import Matrix
        sl3.from_matrix(Matrix.identity(3))


def test_jacobi_table_rejects_perturbation():
    # breaking one structure constant must be detected
    upper = sl3.structure_constant.upper
    entry = dict(upper[(0, 2)])
    entry[0] = as_cyclo(1) + entry.get(0, as_cyclo(0))
    upper[(0, 2)] = entry
    assert jacobi_table_holds(sl3.structure_constant)
    assert not jacobi_table_holds(StructureTable(8, upper))


def test_parse_element_round_trip():
    for text in ("E12", "H1+H2", "1/2 E13 - E32"):
        x = parse_element(text, sl3)
        assert x.algebra is sl3 and not is_zero(x.coords)
    assert coords("E21 + E12") == add(coords("E12"), coords("E21"))
    assert coords("1/2 E13 - E32") == tuple(
        as_cyclo(Fraction(1, 2)) if name == "E13" else as_cyclo(-1) if name == "E32"
        else as_cyclo(0) for name in sl3.basis_names)


def test_parse_element_rejects_garbage():
    for bad in ("", "E99", "H1 +", "E12 E21", "Z12"):
        with pytest.raises(ValueError):
            parse_element(bad, sl3)


def test_every_constructor_refuses_sl_n_above_the_bound(monkeypatch):
    # refused before any bracket is tabled or any entry of a representative
    # parsed: building sl(9) takes about 2 s, and sl(40) far longer
    def never(*args):
        raise AssertionError("built or parsed past the size bound")

    monkeypatch.setattr(liealg, "StructureTable", never)
    monkeypatch.setattr(Matrix, "from_json", staticmethod(never))
    rep40 = {"rows": 40, "cols": 40, "entries": []}
    for build, n in ((lambda: special_linear(9), 9),
                     (lambda: make_ad(Matrix.identity(9)), 9),
                     (lambda: Grading.from_json({"n": 9, "parts": []}), 9),
                     (lambda: Automorphism.from_json({"kind": "inner", "rep": rep40}), 40)):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == f"sl({n}) is above the limit of sl(8)"
    assert liealg.MAX_ALGEBRA_N == 8
