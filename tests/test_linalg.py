"""Exact linear algebra over cyclotomic scalars."""
import random
from fractions import Fraction
from math import lcm

import pytest

from gradelab import linalg
from gradelab.autgrp import make_ad
from gradelab.cyclo import CycloNumber, euler_phi, zeta
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
    w = zeta(12)  # rows 1 and 2 dependent, over mixed orders 12 and 8
    singular = Matrix.from_rows([[1, w, 0], [w, w * w, 0], [3, zeta(8), 1]])
    with pytest.raises(ValueError, match="matrix is singular"):
        singular.inverse()


def rand_cyclo_matrix(rows, cols, orders, density=0.5):
    """Entries of the given scalar orders, small coordinates, some zero."""
    entries = []
    for _ in range(rows * cols):
        order = rng.choice(orders)
        coeffs = [rng.randint(-2, 2) for _ in range(euler_phi(order))]
        entries.append(CycloNumber(order, coeffs) if rng.random() < density
                       else CycloNumber.zero(order))
    return Matrix(rows, cols, entries)


def reference_product(a, b):
    zero = CycloNumber.zero(lcm(a.order, b.order))
    return Matrix(a.rows, b.cols, [sum((a[i, k] * b[k, j] for k in range(a.cols)), zero)
                                   for i in range(a.rows) for j in range(b.cols)])


def reference_inverse(a):
    # [A | I] through rref, the right half read back through the constructor
    n = a.rows
    aug = Matrix.from_rows([list(a.row(i)) + [int(i == j) for j in range(n)]
                            for i in range(n)])
    reduced, pivots = aug.rref()
    assert pivots == tuple(range(n))
    return Matrix.from_rows([reduced.row(i)[n:] for i in range(n)])


def scalar_fields(m):
    return [(e.order, e.nums, e.den) for e in m.entries]


def assert_same_matrix(m, ref):
    # field for field, each scalar's order and coordinates included; m must
    # also be what the checking constructor makes of m's own entries
    rebuilt = Matrix(m.rows, m.cols, m.entries)
    assert scalar_fields(m) == scalar_fields(ref) == scalar_fields(rebuilt)
    assert (m.rows, m.cols, m.order) == (ref.rows, ref.cols, ref.order) == \
        (rebuilt.rows, rebuilt.cols, rebuilt.order)
    assert m == ref and hash(m) == hash(ref)


def test_one_pass_products_and_inverses_match_the_constructor():
    cases = [((3, 3, (1,)), (3, 3, (3,))),       # 1 x 3
             ((3, 3, (4,)), (3, 3, (3,))),       # 4 x 3 -> 12
             ((3, 2, (3,)), (2, 4, (3,))),       # orders agree, no embedding
             ((8, 8, (1, 3, 4, 8)), (8, 8, (1, 3, 4, 8)))]
    for left, right in cases:
        a, b = rand_cyclo_matrix(*left), rand_cyclo_matrix(*right)
        assert_same_matrix(a * b, reference_product(a, b))
        zero = Matrix.zeros(a.rows, a.cols)
        assert_same_matrix(zero * b, reference_product(zero, b))
        assert_same_matrix(b.transpose() * zero.transpose(),
                           reference_product(b.transpose(), zero.transpose()))
        assert_same_matrix(a.transpose(), Matrix(a.cols, a.rows, [
            a[i, j] for j in range(a.cols) for i in range(a.rows)]))
    for orders, n in (((1,), 3), ((1, 3), 3), ((4, 3), 3), ((1, 3, 4, 8), 8)):
        while True:
            a = rand_cyclo_matrix(n, n, orders, density=0.4)
            if not a.det().is_zero():
                break
        inv = a.inverse()
        assert_same_matrix(inv, reference_inverse(a))
        assert a * inv == Matrix.identity(n)


def embed_first_product(a, b):
    """Both factors embedded at the product's order first, then summed
    product by product."""
    order = lcm(a.order, b.order)
    a = Matrix(a.rows, a.cols, [e.embed(order) for e in a.entries])
    b = Matrix(b.rows, b.cols, [e.embed(order) for e in b.entries])
    zero = CycloNumber.zero(order)
    return Matrix(a.rows, b.cols, [sum((a[i, k] * b[k, j] for k in range(a.cols)), zero)
                                   for i in range(a.rows) for j in range(b.cols)])


def test_rational_factors_multiply_unembedded():
    # a factor of order 1 or 2 is read by `_dot` as it is; the product must
    # still equal the embed-first one, its order the lcm of the factors'
    for rational in ((1,), (2,), (1, 2)):
        for other in ((3,), (4,), (8,), (1, 3, 4, 8)):
            for _ in range(3):
                a = rand_cyclo_matrix(3, 3, rational, density=0.7)
                b = rand_cyclo_matrix(3, 3, other, density=0.7)
                assert_same_matrix(a * b, embed_first_product(a, b))
                assert_same_matrix(b * a, embed_first_product(b, a))
    two = Matrix.diagonal([CycloNumber.from_rational(-1, 2)] * 3)
    assert (two * Matrix.diagonal([1, 1, zeta(3)])).order == 6


def test_monomial_products_pay_for_nonzero_entries_only(monkeypatch):
    # a monomial 3x3 product has one nonzero entry per row and column, and
    # each takes one `_dot` of one pair; a zero entry takes none
    calls = []
    dot = linalg._dot
    monkeypatch.setattr(linalg, "_dot", lambda order, pairs: calls.append(pairs) or
                        dot(order, pairs))
    w = zeta(3)
    shift = Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    swap = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    for a, b in ((shift, Matrix.diagonal([1, w, w * w])),
                 (Matrix.diagonal([zeta(4), 2, -1]), swap * shift),
                 (shift * Matrix.diagonal([zeta(8), w, 1]), swap)):
        for left, right in ((a, b), (b, a)):
            calls.clear()
            product = left * right
            nonzero = sum(not e.is_zero() for e in product.entries)
            assert nonzero == 3 and len(calls) == nonzero
            assert all(len(pairs) == 1 for pairs in calls)
            assert_same_matrix(product, embed_first_product(left, right))


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
    # an automorphism's key scales its representative: multiples share it
    assert make_ad(b).key == make_ad(a).key
    assert make_ad(c).key != make_ad(a).key
    # projective comparison through one-dim subspaces
    v = [as_cyclo(x) for x in (2, 0, -4)]
    w = [x * Fraction(-3, 2) for x in v]
    assert Subspace.from_vectors(3, [v]) == Subspace.from_vectors(3, [w])


def test_matrix_json_round_trip():
    a = rand_matrix(3, 4)
    assert Matrix.from_json(a.to_json()) == a


def rand_cyclo_vector(length, orders, density=0.5):
    return [CycloNumber(order, [rng.randint(-2, 2) for _ in range(euler_phi(order))])
            if rng.random() < density else CycloNumber.zero(order)
            for order in (rng.choice(orders) for _ in range(length))]


def reference_apply(m, vector):
    # the dense sum: every entry of a row scanned, the zero terms skipped
    out = []
    for i in range(m.rows):
        acc = CycloNumber.zero(m.order)
        for a, v in zip(m.row(i), vector):
            if not a.is_zero() and not v.is_zero():
                acc = acc + a * v
        out.append(acc)
    return out


def test_sparse_apply_matches_the_dense_sum():
    # each coordinate equal to the dense sum's, scalar order included: a row
    # meeting no nonzero term gives zero at the matrix's order, any other row
    # the order of the terms it adds
    cases = [((1,), (1, 3, 4, 8)), ((3,), (1, 3, 4, 8)), ((4,), (3, 8)),
             ((1, 3), (4,)), ((1, 3, 4, 8), (1, 3, 4, 8))]
    for matrix_orders, vector_orders in cases:
        for _ in range(6):
            m = rand_cyclo_matrix(8, 8, matrix_orders, density=0.3)
            rows = [list(m.row(i)) for i in range(8)]
            rows[rng.randrange(8)] = [CycloNumber.zero(m.order)] * 8  # a zero row
            m = Matrix.from_rows(rows)
            vectors = [rand_cyclo_vector(8, vector_orders, density)
                       for density in (0.15, 0.3, 1.0)]
            vectors.append([CycloNumber.zero(rng.choice(vector_orders))] * 8)
            for vec in vectors:
                got, want = m.apply(vec), reference_apply(m, vec)
                assert [c.to_json() for c in got] == [c.to_json() for c in want]


def test_subspace_from_vectors_matches_rref_rows():
    # dependent, repeated, zero and mixed-order vectors: the basis is the
    # nonzero rows of the constructor's rref, scalar orders included
    for orders in ((1,), (3,), (1, 3), (1, 4), (1, 3, 4, 8)):
        for _ in range(8):
            ambient = rng.randint(1, 8)
            vecs = [rand_cyclo_vector(ambient, orders, 0.6)
                    for _ in range(rng.randint(1, 5))]
            c = CycloNumber(rng.choice(orders), [1])
            vecs.append([a + c * b for a, b in zip(vecs[0], vecs[-1])])  # dependent
            vecs.append(list(vecs[0]))                                  # repeated
            vecs.append([CycloNumber.zero(rng.choice(orders))] * ambient)
            rng.shuffle(vecs)
            reduced, pivots = Matrix.from_rows(vecs).rref()
            want = [[v.to_json() for v in reduced.row(i)] for i in range(len(pivots))]
            got = Subspace.from_vectors(ambient, vecs).to_json()
            assert got == {"ambient_dim": ambient, "basis": want}
