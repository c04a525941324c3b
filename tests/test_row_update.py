"""The fused row update `cyclo._sub_mul` and the eliminations built on it.

`_sub_mul(v, f, w)` makes v - f * w as one scalar; it, the tabled `_fold`
and the same-order operator paths are compared here with the two-operation
and coercing routes, scalar by scalar through (order, nums, den).  The
eliminations of `linalg` (`rref`, `kernel`, `inverse`, `det`,
`Subspace.from_vectors`, `Subspace.contains`) are compared with a plain
Gauss-Jordan written below with scalar operators, through `to_json()`.
"""
import random
from fractions import Fraction

import pytest

from gradelab.cyclo import CycloNumber, _fold, _powers, _sub_mul, euler_phi, zeta
from gradelab.linalg import Matrix, Subspace

ORDERS = (1, 2, 3, 4, 5, 8, 12, 24, 120)
DENOMINATORS = (1, 1, 2, 3, 4, 6, 9)

rng = random.Random(300417)


def fields(x):
    return (x.order, x.nums, x.den)


def rand_scalar(order, density=0.7):
    """A value of Q(zeta_order) with some zero coordinates and denominators."""
    return CycloNumber(order, [Fraction(rng.randint(-4, 4), rng.choice(DENOMINATORS))
                               if rng.random() < density else 0
                               for _ in range(euler_phi(order))])


@pytest.mark.parametrize("order", ORDERS)
def test_sub_mul_is_the_two_operation_update(order):
    zero = CycloNumber.zero(order)
    cases = []
    for _ in range(30):
        cases.append((rand_scalar(order), rand_scalar(order), rand_scalar(order)))
        cases.append((rand_scalar(order, 0.3), rand_scalar(order, 0.3), rand_scalar(order, 1.0)))
    for _ in range(5):
        v, f, w = rand_scalar(order), rand_scalar(order), rand_scalar(order)
        cases.append((zero, f, w))                                        # a zero v
        r = CycloNumber.from_rational(Fraction(rng.randint(-9, 9) or 1, 7), order)
        cases.append((v, r, w))                                           # a rational f
        cases.append((v, f, zero))                                        # a zero w
        cases.append((v, zero, w))                                        # a zero f
        cases.append((f * w, f, w))                                       # cancels to 0
        half = CycloNumber.from_rational(Fraction(1, 2), order)
        third = CycloNumber.from_rational(Fraction(1, 3), order)
        cases.append((v * third, f * half, w * third))                    # unequal dens
        cases.append((v * half, f * half, w))                             # equal dens
    for v, f, w in cases:
        got, want = _sub_mul(v, f, w), v - f * w
        assert fields(got) == fields(want)
        assert got.to_json() == want.to_json()
        # and the schoolbook route: Fraction coordinates, one polynomial
        # product, folded by the constructor
        coeffs = list(v.coeffs) + [0] * (euler_phi(order) - 1)
        for i, x in enumerate(f.coeffs):
            for j, y in enumerate(w.coeffs):
                coeffs[i + j] -= x * y
        assert fields(got) == fields(CycloNumber(order, coeffs))
    x = rand_scalar(order)
    cancelled = _sub_mul(x, CycloNumber.one(order), x)
    assert fields(cancelled) == fields(zero) == (order, (0,) * euler_phi(order), 1)


def test_same_order_operators_match_the_coercing_path():
    # b_low at a divisor d of the order takes the coercing path (it is
    # embedded); b, the same value built at the order, takes the direct one
    for order, divisors in ((4, (1, 2)), (12, (3, 4)), (24, (3, 8)), (120, (8, 24, 40))):
        for _ in range(20):
            a = rand_scalar(order)
            b_low = rand_scalar(rng.choice(divisors))
            b = b_low.embed(order)
            assert b.order == order
            for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y):
                assert fields(op(a, b)) == fields(op(a, b_low))
                assert fields(op(b, a)) == fields(op(b_low, a))
            c = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            c_here = CycloNumber.from_rational(c, order)
            assert fields(a * c_here) == fields(a * c)
            assert fields(a + c_here) == fields(a + c)
            assert fields(a - c_here) == fields(a - c)
        zero = CycloNumber.zero(order)
        a = rand_scalar(order, 1.0)
        # a zero product is the shared zero of the order, on both paths
        assert a * zero is zero and zero * a is zero
        assert a * CycloNumber.zero(divisors[0]) is zero


def powers_fold(terms, order):
    """The fold through `_powers`, term by term: z^e is entry e % order."""
    phi = euler_phi(order)
    out = list(terms[:phi]) + [0] * max(0, phi - len(terms))
    powers = _powers(order)
    for e in range(phi, len(terms)):
        for k, c in powers[e % order]:
            out[k] += terms[e] * c
    return out


@pytest.mark.parametrize("order", ORDERS + (7, 9, 30))
def test_tabled_fold_matches_the_powers_route(order):
    phi = euler_phi(order)
    lengths = sorted({0, 1, phi - 1, phi, phi + 1, 2 * phi - 2, 2 * phi - 1, 2 * phi,
                      order - 1, order, order + 1, 2 * order + 3, 3 * order + 1})
    for n in lengths:
        for _ in range(3):
            terms = [rng.randint(-20, 20) for _ in range(n)]
            before = list(terms)
            assert _fold(terms, order) == powers_fold(terms, order)
            assert terms == before
    # the constructor folds any number of coefficients, past 2 phi - 1 too
    for n in (2 * phi, order + 2, 3 * order + 1):
        coeffs = [Fraction(rng.randint(-5, 5), rng.choice(DENOMINATORS)) for _ in range(n)]
        want = CycloNumber.zero(order)
        for e, c in enumerate(coeffs):
            want = want + zeta(order, e) * c
        assert fields(CycloNumber(order, coeffs)) == fields(want)


# --- eliminations against a plain Gauss-Jordan --------------------------------

def reference_rref(rows, pivot_cols=None):
    """Gauss-Jordan with scalar operators: (rows, pivot columns)."""
    work = [list(r) for r in rows]
    ncols = len(work[0]) if work else 0
    pivots, r = [], 0
    for col in range(ncols if pivot_cols is None else pivot_cols):
        pivot = next((i for i in range(r, len(work)) if not work[i][col].is_zero()), None)
        if pivot is None:
            continue
        work[r], work[pivot] = work[pivot], work[r]
        inv = work[r][col].inverse()
        work[r] = [v * inv for v in work[r]]
        for i in range(len(work)):
            if i != r:
                f = work[i][col]
                work[i] = [v - f * w for v, w in zip(work[i], work[r])]
        pivots.append(col)
        r += 1
    return work, pivots


def reference_det(m):
    work, det = m.row_list(), CycloNumber.one(m.order)
    for col in range(m.cols):
        pivot = next((i for i in range(col, m.rows) if not work[i][col].is_zero()), None)
        if pivot is None:
            return CycloNumber.zero(m.order)
        if pivot != col:
            work[col], work[pivot] = work[pivot], work[col]
            det = -det
        det = det * work[col][col]
        for i in range(col + 1, m.rows):
            f = work[i][col] / work[col][col]
            work[i] = [v - f * w for v, w in zip(work[i], work[col])]
    return det


def json_rows(rows):
    return [[v.to_json() for v in row] for row in rows]


def rand_matrix_24(rows, cols, density):
    return Matrix(rows, cols, [rand_scalar(24, rng.choice((0.15, 0.5, 1.0)))
                               if rng.random() < density else 0
                               for _ in range(rows * cols)])


def zeta24_matrices():
    out = []
    for _ in range(3):
        out.append(rand_matrix_24(8, 8, 0.4))
        out.append(rand_matrix_24(8, 8, 0.9))
        out.append(rand_matrix_24(8, 3, 0.7) * rand_matrix_24(3, 8, 0.7))  # rank <= 3
    return out


@pytest.mark.parametrize("m", zeta24_matrices())
def test_eliminations_match_a_plain_gauss_jordan(m):
    assert m.order == 24
    rows, pivots = reference_rref(m.row_list())
    reduced, got_pivots = m.rref()
    assert got_pivots == tuple(pivots)
    assert reduced.to_json() == Matrix.from_rows(rows).to_json()
    assert m.det().to_json() == reference_det(m).to_json()
    # kernel: its canonical basis, from the reference rref's free columns
    zero, one = CycloNumber.zero(24), CycloNumber.one(24)
    kernel_vectors = []
    for fc in (c for c in range(8) if c not in pivots):
        vec = [zero] * 8
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        kernel_vectors.append(vec)
    kernel_rows = reference_rref(kernel_vectors)[0][:len(kernel_vectors)] if kernel_vectors else []
    assert m.kernel().to_json() == {"ambient_dim": 8, "basis": json_rows(kernel_rows)}
    assert Subspace.from_vectors(8, m.row_list()).to_json() == \
        {"ambient_dim": 8, "basis": json_rows(rows[:len(pivots)])}
    if len(pivots) == 8:
        aug = [list(m.row(i)) + [one if j == i else zero for j in range(8)] for i in range(8)]
        inv_rows = reference_rref(aug, 8)[0]
        assert m.inverse().to_json() == Matrix.from_rows([r[8:] for r in inv_rows]).to_json()
    else:
        with pytest.raises(ValueError):
            m.inverse()


def rand_coordinate(orders):
    """An int, a Fraction or a scalar of one of `orders`, sometimes zero."""
    kind = rng.random()
    if kind < 0.2:
        return 0
    if kind < 0.4:
        return rng.randint(-5, 5)
    if kind < 0.55:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 6))
    return rand_scalar(rng.choice(orders), 0.6)


def test_contains_matches_the_dimension_of_the_sum():
    for basis_orders, vector_orders in (((1,), (3, 4)), ((3,), (1, 8)), ((3, 4), (1,)),
                                        ((1, 3, 4, 8), (1, 3, 24)), ((24,), (1, 2))):
        for _ in range(6):
            ambient = rng.randint(2, 8)
            spanning = [[rand_coordinate(basis_orders) for _ in range(ambient)]
                        for _ in range(rng.randint(1, ambient - 1))]
            u = Subspace.from_vectors(ambient, spanning)
            candidates = [[rand_coordinate(vector_orders) for _ in range(ambient)]
                          for _ in range(4)]
            for vec in spanning:  # members, some rescaled by a scalar of another order
                c = rand_coordinate(vector_orders) or 1
                candidates.append([CycloNumber.from_rational(1) * c * x for x in vec])
            candidates.append([0] * ambient)
            for vec in candidates:
                larger = u.add(Subspace.from_vectors(ambient, [vec]))
                assert u.contains(vec) == (larger.dim == u.dim)
