"""sl(n) structure constants, brackets, and the Jacobi table check."""
import random
from fractions import Fraction

import pytest

from gradelab.cyclo import CycloNumber
from gradelab.liealg import (AlgebraElement, bracket,
                             jacobi_table_holds, parse_element, special_linear)
from gradelab.linalg import as_cyclo

rng = random.Random(35203)

sl3 = special_linear(3)


def element(name):
    return parse_element(name, sl3)


def rand_element(algebra=sl3):
    return AlgebraElement(algebra, tuple(
        as_cyclo(Fraction(rng.randint(-4, 4))) for _ in range(algebra.dim)))


def test_basis_order_and_dimension():
    assert sl3.dim == 8
    assert sl3.basis_names == ("E12", "E13", "E21", "E23", "E31", "E32",
                               "H1", "H2")


def test_hand_checked_brackets():
    # [E12, E21] = H1, [H1, E12] = 2 E12, [E12, E23] = E13
    assert bracket(element("E12"), element("E21")).coords == \
        element("H1").coords
    assert bracket(element("H1"), element("E12")).coords == \
        element("2*E12").coords
    assert bracket(element("E12"), element("E23")).coords == \
        element("E13").coords
    # Cartan elements commute
    assert bracket(element("H1"), element("H2")).is_zero()


def test_bracket_antisymmetry_and_bilinearity():
    for _ in range(80):
        x, y = rand_element(), rand_element()
        assert (x.bracket(y) + y.bracket(x)).is_zero()
        z = rand_element()
        lhs = (x + y).bracket(z)
        rhs = x.bracket(z) + y.bracket(z)
        assert lhs.coords == rhs.coords


def test_jacobi_identity_of_the_algebra():
    for alg in (sl3, special_linear(2)):
        assert jacobi_table_holds(alg.dim, alg.structure_constant)


def test_matrix_round_trip():
    for _ in range(30):
        x = rand_element()
        assert sl3.from_matrix(x.to_matrix()) == x.coords


def test_bracket_matches_matrix_commutator():
    for _ in range(30):
        x, y = rand_element(), rand_element()
        lhs = x.bracket(y).to_matrix()
        rhs = x.to_matrix() * y.to_matrix() - y.to_matrix() * x.to_matrix()
        assert lhs == rhs


def test_traceless_enforced():
    with pytest.raises(ValueError):
        from gradelab.linalg import Matrix
        sl3.from_matrix(Matrix.identity(3))


def test_jacobi_table_rejects_perturbation():
    # breaking one structure constant must be detected
    def broken(i, j):
        entry = dict(sl3.structure_constant(i, j))
        if (i, j) == (0, 2):
            entry[0] = as_cyclo(1) + entry.get(0, as_cyclo(0))
        return entry

    assert jacobi_table_holds(8, sl3.structure_constant)
    assert not jacobi_table_holds(8, broken)


def test_parse_element_round_trip():
    for text, coords_name in [("E12", "E12"), ("H1+H2", None),
                              ("1/2 E13 - E32", None)]:
        x = parse_element(text, sl3)
        assert not x.is_zero()
    assert parse_element("E21 + E12", sl3).coords == \
        (parse_element("E12", sl3) + parse_element("E21", sl3)).coords


def test_parse_element_rejects_garbage():
    for bad in ("", "E99", "H1 +", "E12 E21", "Z12"):
        with pytest.raises(ValueError):
            parse_element(bad, sl3)
