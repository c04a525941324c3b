"""Exact linear algebra over cyclotomic scalars."""
import random
from fractions import Fraction

import pytest

from gradelab.cyclo import zeta
from gradelab.linalg import Matrix, Subspace, as_cyclo, vec_is_zero

rng = random.Random(41507)


def rand_matrix(rows, cols, lo=-4, hi=4):
    return Matrix(rows, cols,
                  [as_cyclo(Fraction(rng.randint(lo, hi)))
                   for _ in range(rows * cols)])


def rand_subspace(ambient=6, max_vecs=4):
    k = rng.randint(1, max_vecs)
    return Subspace.from_vectors(
        ambient, [[as_cyclo(rng.randint(-3, 3))
                   for _ in range(ambient)] for _ in range(k)])


def test_identity_and_multiplication():
    a = rand_matrix(3, 3)
    i3 = Matrix.identity(3)
    assert a * i3 == a
    assert i3 * a == a


def test_matrix_inverse_round_trip():
    found = 0
    while found < 30:
        a = rand_matrix(3, 3)
        if a.det().is_zero():
            continue
        assert a * a.inverse() == Matrix.identity(3)
        assert a.inverse() * a == Matrix.identity(3)
        found += 1


def test_singular_matrix_has_no_inverse():
    singular = Matrix(2, 2, [as_cyclo(v) for v in (1, 2, 2, 4)])
    with pytest.raises(ValueError):
        singular.inverse()


def test_det_multiplicative():
    for _ in range(30):
        a, b = rand_matrix(3, 3), rand_matrix(3, 3)
        assert (a * b).det() == a.det() * b.det()


def test_det_with_cyclotomic_entries():
    w = zeta(3)
    # Vandermonde of the three cube roots of unity is nonsingular
    m = Matrix(3, 3, [w ** (r * c) for r in range(3) for c in range(3)])
    assert not m.det().is_zero()


def test_apply_is_linear():
    for _ in range(25):
        a = rand_matrix(4, 4)
        x = [as_cyclo(rng.randint(-3, 3)) for _ in range(4)]
        y = [as_cyclo(rng.randint(-3, 3)) for _ in range(4)]
        xy = [u + v for u, v in zip(x, y)]
        lhs = a.apply(xy)
        rhs = [u + v for u, v in zip(a.apply(x), a.apply(y))]
        assert tuple(lhs) == tuple(rhs)


def test_kernel_rank_nullity():
    for _ in range(40):
        a = rand_matrix(rng.randint(2, 5), rng.randint(2, 5))
        kern = a.kernel()
        assert a.rank() + kern.dim == a.cols
        for v in kern.basis:
            assert vec_is_zero(a.apply(v))


def test_subspace_canonical_equality():
    # same plane, different spanning sets
    u = Subspace.from_vectors(3, [[as_cyclo(v) for v in row]
                     for row in ([1, 0, 1], [0, 1, 1])])
    w = Subspace.from_vectors(3, [[as_cyclo(v) for v in row]
                     for row in ([1, 1, 2], [1, -1, 0])])
    assert u == w
    assert hash(u) == hash(w)


def test_subspace_dedupes_dependent_vectors():
    u = Subspace.from_vectors(3, [[as_cyclo(v) for v in row]
                     for row in ([1, 2, 3], [2, 4, 6])])
    assert u.dim == 1


def test_dimension_formula():
    for _ in range(60):
        u, w = rand_subspace(), rand_subspace()
        assert u.dim + w.dim == u.add(w).dim + u.intersect(w).dim


def test_contains_and_membership():
    u = Subspace.from_vectors(4, [[as_cyclo(v) for v in row]
                     for row in ([1, 0, 0, 1], [0, 1, 1, 0])])
    assert u.contains([as_cyclo(v) for v in (1, 1, 1, 1)])
    assert not u.contains([as_cyclo(v) for v in (1, 0, 0, 0)])


def test_scalar_multiple_detection():
    a = Matrix(2, 2, [as_cyclo(v) for v in (2, 0, -4, 6)])
    b = a.scale(Fraction(-3, 2))
    c = Matrix(2, 2, [as_cyclo(v) for v in (2, 1, -4, 6)])
    assert b.scalar_multiple_of(a) == as_cyclo(Fraction(-3, 2))
    assert c.scalar_multiple_of(a) is None
    # projective comparison through one-dim subspaces
    v = [as_cyclo(x) for x in (2, 0, -4)]
    w = [x * Fraction(-3, 2) for x in v]
    assert Subspace.from_vectors(3, [v]) == Subspace.from_vectors(3, [w])


def test_matrix_json_round_trip():
    a = rand_matrix(3, 4)
    assert Matrix.from_json(a.to_json()) == a
