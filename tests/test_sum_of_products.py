"""The one integer sum-of-products kernel, `cyclo._dot`, against scalar sums.

Matrix products, matrix-vector products and brackets all sum through the
kernel; each is compared here with the sum a plain loop of CycloNumber
products and additions gives, scalar for scalar and through `to_json()`, so
values, scalar orders and output bytes must all agree.  Scalars mix the
orders 1, 2, 3, 4, 6, 8, 12 and 24 and carry denominators.
"""
import random
from fractions import Fraction
from math import lcm

import pytest

from gradelab.cyclo import CycloNumber, _dot, euler_phi, zeta
from gradelab.linalg import Matrix
from gradelab.liealg import special_linear

ORDERS = (1, 2, 3, 4, 6, 8, 12, 24)
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9)

rng = random.Random(280531)


def rand_scalar(orders, density=0.6):
    order = rng.choice(orders)
    if rng.random() >= density:
        return CycloNumber.zero(order)
    return CycloNumber(order, [Fraction(rng.randint(-3, 3), rng.choice(DENOMINATORS))
                               for _ in range(euler_phi(order))])


def plain_sum(pairs, zero):
    """The product-by-product sum: zero terms skipped, the rest added in turn."""
    acc = zero
    for a, b in pairs:
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def json_of(scalars):
    return [x.to_json() for x in scalars]


def test_dot_is_the_plain_sum_at_its_order():
    # factors at the order, or rational at orders 1 and 2, with denominators
    for order in ORDERS:
        rationals = tuple(o for o in (1, 2) if order % o == 0)
        for _ in range(40):
            pairs = []
            for _ in range(rng.randint(1, 6)):
                a, b = rand_scalar((order,) + rationals), rand_scalar((order,) + rationals)
                pairs.append((a, b))
            got = _dot(order, pairs)
            want = plain_sum(pairs, CycloNumber.zero(order))
            want = want if want.order == order else want.embed(order)
            assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
            assert got.to_json() == want.to_json()
        assert _dot(order, []) is CycloNumber.zero(order)


def test_dot_merges_denominators_and_cancels_to_canonical_zero():
    half, third = CycloNumber.from_rational(Fraction(1, 2)), CycloNumber.from_rational(Fraction(1, 3))
    z = zeta(12)
    # 1/2 z + 1/3 z + 1/6 z = z: denominators 2, 3 and 6 meet at 6, then cancel
    sixth = CycloNumber.from_rational(Fraction(1, 6))
    total = _dot(12, [(half, z), (z, third), (sixth, z)])
    assert (total.nums, total.den) == (z.nums, 1)
    # a rational factor at order 2: zeta_2 = -1
    minus = zeta(2)
    assert _dot(12, [(minus, z), (z, CycloNumber.one())]).to_json() == \
        {"order": 12, "terms": []}
    assert _dot(12, [(z, half), (minus, z * third)]).to_json() == \
        (z * Fraction(1, 6)).to_json()


@pytest.mark.parametrize("order", [3, 4, 6])
def test_dot_of_rational_pairs_in_a_quadratic_field(order):
    # pairs whose two factors are both rational (orders 1 and 2), alone and
    # beside pairs with one or no rational factor
    half, minus = CycloNumber.from_rational(Fraction(1, 2)), zeta(2)
    third = CycloNumber.from_rational(Fraction(-1, 3), 2)
    z = zeta(order) * Fraction(2, 5)
    for pairs in ([(half, minus), (third, half)], [(half, third)] * 3,
                  [(half, minus), (z, third), (third, z)], [(z, z), (minus, minus), (half, z)],
                  [(minus, half), (half, half), (minus, minus)]):
        got = _dot(order, pairs)
        want = plain_sum(pairs, CycloNumber.zero(order)).reduced().embed(order)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
    # 1/2 * -1 + 1/2 * 1 cancels to the canonical zero
    zero = _dot(order, [(half, minus), (half, CycloNumber.one(2))])
    assert (zero.order, zero.nums, zero.den) == (order, (0, 0), 1)


def reference_product(a, b):
    order = lcm(a.order, b.order)
    zero = CycloNumber.zero(order)
    return [plain_sum([(a[i, k].embed(order), b[k, j].embed(order)) for k in range(a.cols)],
                      zero)
            for i in range(a.rows) for j in range(b.cols)]


def rand_matrix(rows, cols, orders, density):
    return Matrix(rows, cols, [rand_scalar(orders, density) for _ in range(rows * cols)])


def with_zero_row_and_column(m):
    rows = m.row_list()
    zero = CycloNumber.zero(m.order)
    rows[rng.randrange(m.rows)] = [zero] * m.cols
    column = rng.randrange(m.cols)
    for row in rows:
        row[column] = zero
    return Matrix.from_rows(rows)


@pytest.mark.parametrize("left_orders, right_orders", [
    ((1,), (2,)), ((3,), (3,)), ((1, 2, 3), (4,)), ((8,), (12,)), ((24,), (1, 2)),
    (ORDERS, ORDERS)])
def test_matrix_product_is_the_plain_sum(left_orders, right_orders):
    for rows, inner, cols in ((3, 3, 3), (2, 4, 3), (8, 8, 8), (1, 5, 1)):
        for density in (0.3, 0.8):
            a = rand_matrix(rows, inner, left_orders, density)
            b = rand_matrix(inner, cols, right_orders, density)
            for x, y in ((a, b), (with_zero_row_and_column(a), b),
                         (a, with_zero_row_and_column(b)),
                         (Matrix.zeros(rows, inner), b)):
                product = x * y
                want = reference_product(x, y)
                assert product.order == lcm(x.order, y.order)
                assert json_of(product.entries) == json_of(want)
                assert product.to_json() == Matrix(rows, cols, want).to_json()


def reference_apply(m, vector):
    # the dense sum from the matrix's zero: orders meet as the terms add
    return [plain_sum(zip(m.row(i), vector), CycloNumber.zero(m.order))
            for i in range(m.rows)]


@pytest.mark.parametrize("matrix_orders, vector_orders", [
    ((1,), ORDERS), ((3,), (1, 2, 3)), ((4,), (3, 8)), ((2,), (12,)),
    ((3, 4), (3, 8)), ((6,), (2, 3, 4)), ((24,), (1, 3, 8, 24)), (ORDERS, ORDERS)])
def test_apply_is_the_plain_sum_with_per_coordinate_orders(matrix_orders, vector_orders):
    for n in (3, 8):
        for _ in range(4):
            m = with_zero_row_and_column(rand_matrix(n, n, matrix_orders, 0.5))
            vectors = [[rand_scalar(vector_orders, density) for _ in range(n)]
                       for density in (0.2, 0.6, 1.0)]
            vectors.append([CycloNumber.zero(rng.choice(vector_orders))] * n)
            for vec in vectors:
                assert json_of(m.apply(vec)) == json_of(reference_apply(m, vec))


def reference_bracket(algebra, x, y):
    # the structure constants times each product, summed coordinate by coordinate
    acc = {}
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            if xi.is_zero() or yj.is_zero():
                continue
            for k, c in algebra.structure_constant(i, j).items():
                term = c * (xi * yj)
                acc[k] = term if k not in acc else acc[k] + term
    zero = CycloNumber.zero()
    return [acc.get(k, zero) for k in range(algebra.dim)]


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("orders", [(1,), (3,), (1, 2, 4), ORDERS])
def test_bracket_is_the_plain_sum(n, orders):
    algebra = special_linear(n)
    zero = [CycloNumber.zero(rng.choice(orders))] * algebra.dim
    for _ in range(6):
        x = [rand_scalar(orders, 0.4) for _ in range(algebra.dim)]
        y = [rand_scalar(orders, 0.7) for _ in range(algebra.dim)]
        for u, v in ((x, y), (y, x), (x, x), (x, zero), (zero, y)):
            got = algebra.bracket_coords(u, v)
            assert json_of(got) == json_of(reference_bracket(algebra, u, v))
        # and through the matrices: [X, Y] = XY - YX
        commutator = algebra.to_matrix(x) * algebra.to_matrix(y) - \
            algebra.to_matrix(y) * algebra.to_matrix(x)
        assert algebra.to_matrix(algebra.bracket_coords(x, y)) == commutator


def test_dot_of_one_pair_is_the_product():
    # both factors at the order: the product; a rational factor at order 1
    # or 2 goes through the sum, and gives the same value at the order
    for order in ORDERS:
        for _ in range(20):
            a, b = rand_scalar((order,)), rand_scalar((order,))
            got, want = _dot(order, [(a, b)]), a * b
            assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
            c = rand_scalar(tuple(o for o in (1, 2) if order % o == 0))
            got, want = _dot(order, [(c, a)]), (c * a).embed(order)
            assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
        zero = _dot(order, [(CycloNumber.zero(order), zeta(order))])
        assert (zero.order, zero.nums, zero.den) == (order, (0,) * euler_phi(order), 1)

