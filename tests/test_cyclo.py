"""Exact cyclotomic arithmetic: axioms, canonicalization, embeddings."""
import random
from fractions import Fraction
from math import gcd, lcm

import pytest

from gradelab import cyclo
from gradelab.cyclo import (MAX_JSON_ORDER, CycloNumber, _bezout, _dot, _fold, _lowest,
                            _sub_mul, cyclotomic_polynomial, euler_phi, sort_key, zeta)
from gradelab.linalg import Matrix

rng = random.Random(91101)

ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12)


def rand_cyclo(order=None):
    n = order if order is not None else rng.choice(ORDERS)
    x = CycloNumber.zero(n)
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(max(1, euler_phi(n)))
        x = x + zeta(n, k) * Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return x


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in range(1, 13)] == \
        [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_polynomial_degrees_and_values():
    # Phi_1 = x - 1, Phi_2 = x + 1, Phi_6 = x^2 - x + 1
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    for n in ORDERS:
        assert len(cyclotomic_polynomial(n)) == euler_phi(n) + 1


def test_root_of_unity_has_exact_order():
    for n in ORDERS:
        z = zeta(n)
        acc = CycloNumber.one(n)
        for k in range(1, n):
            acc = acc * z
            assert acc != CycloNumber.one(n)
        assert acc * z == CycloNumber.one(n)


def test_field_axioms_random():
    for _ in range(250):
        a, b, c = rand_cyclo(), rand_cyclo(), rand_cyclo()
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_inverse_round_trip():
    checked = 0
    while checked < 150:
        a = rand_cyclo()
        if a.is_zero():
            continue
        assert a * a.inverse() == CycloNumber.one(a.order)
        checked += 1


def bezout_inverse(x):
    """1 / x by extended Euclid modulo Phi_order, as every field of degree
    above 2 inverts: s * nums = c, so 1 / (nums / den) = den * s / c."""
    s, c = _bezout(x.nums, cyclotomic_polynomial(x.order))
    den = x.den if c > 0 else -x.den
    return _lowest(x.order, _fold([den * v for v in s], x.order), abs(c))


@pytest.mark.parametrize("order", [3, 4, 6])
def test_quadratic_inverse_is_the_bezout_inverse(order):
    pick = random.Random(order * 7919)
    values = [zeta(order), zeta(order) + 1, zeta(order) * Fraction(-2, 3) + Fraction(5, 7)]
    for _ in range(60):
        size = 10 ** pick.choice((1, 5, 20, 60))
        values.append(CycloNumber(order, [Fraction(pick.randint(-size, size) or 1,
                                                   pick.randint(1, size))
                                          for _ in range(2)]))
    for x in values:
        got, want = x.inverse(), bezout_inverse(x)
        assert (got.order, got.nums, got.den) == (want.order, want.nums, want.den)
        assert x * got == CycloNumber.one(order)


def test_quadratic_kernels_need_no_fold_and_no_euclid(monkeypatch):
    # products, sums of products, row updates and inverses over Q(zeta_3),
    # Q(i) and Q(zeta_6) take closed forms; order 8 is the control
    calls = []

    def counted(name):
        original = getattr(cyclo, name)

        def call(*args):
            calls.append(name)
            return original(*args)
        return call

    for name in ("_fold", "_bezout"):
        monkeypatch.setattr(cyclo, name, counted(name))
    half = CycloNumber.from_rational(Fraction(1, 2))
    for order in (3, 4, 6, 8):
        calls.clear()
        x, y = zeta(order) * Fraction(3, 2) - 1, zeta(order, 2) + Fraction(1, 3)
        m = Matrix(3, 3, [zeta(order, i * j) + i - j for i in range(3) for j in range(3)])
        m = m + Matrix.identity(3)
        (x * y, x.inverse(), _dot(order, [(x, y), (half, x), (half, half)]),
         _sub_mul(x, y, x), m * m, m.inverse(), m.apply([x, half, y]))
        assert (calls == []) == (order != 8), (order, calls)


def _schoolbook(order, a, b, op):
    """op on two coefficient vectors as polynomials, reduced by the constructor."""
    if op == "mul":
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
    else:
        out = [x + y if op == "add" else x - y for x, y in zip(a, b)]
    return CycloNumber(order, out)


def test_arithmetic_matches_schoolbook_polynomials():
    # Sparse values, rationals and zeros take the shortcuts that skip zero
    # coefficients; results must keep the canonical tuple of phi Fractions.
    for order in ORDERS:
        values = [CycloNumber.zero(order), CycloNumber.one(order),
                  CycloNumber.from_rational(Fraction(-3, 7), order), zeta(order, 1)]
        values += [rand_cyclo(order) for _ in range(8)]
        for a in values:
            for b in values:
                for op, got in (("add", a + b), ("sub", a - b), ("mul", a * b)):
                    want = _schoolbook(order, a.coeffs, b.coeffs, op)
                    assert got.order == order and got.coeffs == want.coeffs, (a, b, op)
                    assert len(got.coeffs) == euler_phi(order)
                    assert all(type(c) is Fraction for c in got.coeffs)
            assert (-a).coeffs == tuple(-c for c in a.coeffs)
            if not a.is_zero():
                assert a * a.inverse() == CycloNumber.one(order)
        assert CycloNumber.from_rational(4, order).inverse().coeffs == \
            (Fraction(1, 4),) + (Fraction(0),) * (euler_phi(order) - 1)


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        CycloNumber.zero(5).inverse()


def test_cross_order_equality_and_hash():
    # zeta_6 squared is zeta_3, across the two stored orders
    z6, z3 = zeta(6), zeta(3)
    assert z6 * z6 == z3
    assert hash(z6 * z6) == hash(z3)
    one_at_12 = CycloNumber.one(12)
    assert one_at_12 == CycloNumber.one(1)
    assert hash(one_at_12) == hash(CycloNumber.one(1))


@pytest.mark.parametrize("m, n", [(3, 4), (5, 8), (255, 249)])
def test_mixed_order_equality_agrees_with_the_reduced_values(m, n):
    # (255, 249) meet at order 21165, above MAX_JSON_ORDER, where equality
    # compares canonical forms instead of embedding both values there
    pick = random.Random(m * 1000 + n)
    common = gcd(m, n)

    def draw(order):
        x = CycloNumber.zero(order)
        for _ in range(4):
            x = x + zeta(order, pick.randrange(euler_phi(order))) * \
                Fraction(pick.randint(-5, 5), pick.randint(1, 4))
        return x

    for _ in range(6):
        shared = draw(common)
        pairs = [(shared.embed(m), shared.embed(n), True),
                 (shared.embed(m), shared.embed(n) + zeta(n), False),
                 (draw(m), draw(n), None)]
        for a, b, equal in pairs:
            ra, rb = a.reduced(), b.reduced()
            same = (ra.order, ra.nums, ra.den) == (rb.order, rb.nums, rb.den)
            assert equal is None or same == equal
            assert (a == b) == (b == a) == same, (m, n, a, b)
            if lcm(m, n) <= MAX_JSON_ORDER:
                assert (a == b) == (a - b).is_zero()


def test_rational_values_follow_pythons_number_rules():
    # a value of conductor 1 hashes as the int or Fraction it equals
    assert hash(zeta(3) ** 3) == hash(1)
    assert {1: "x"}.get(zeta(3) ** 3) == "x"
    assert len({CycloNumber.one(), 1}) == 1
    assert len({CycloNumber.from_rational(Fraction(-2, 3), 12), Fraction(-2, 3)}) == 1
    assert {Fraction(5, 2): "y"}.get(CycloNumber.from_rational(5, 4) * Fraction(1, 2)) == "y"
    assert hash(CycloNumber.from_rational(-1, 6)) == hash(-1)
    # zero is false, every other value true, at every order
    assert not CycloNumber.zero(3) and not CycloNumber.zero() and not zeta(4) - zeta(4)
    assert zeta(3) and CycloNumber.one(8) and CycloNumber.from_rational(Fraction(1, 7), 6)


def test_rational_values_descend_to_conductor_one():
    x = zeta(8) * 0 + Fraction(7, 3)
    assert x == CycloNumber.from_rational(Fraction(7, 3))
    assert sort_key(x)[0] == 1


def test_minimal_polynomial_identity_zeta5():
    # 1 + z + z^2 + z^3 + z^4 = 0 for z = zeta_5
    z = zeta(5)
    total = CycloNumber.one(5) + z + z * z + z * z * z + z * z * z * z
    assert total.is_zero()


def test_galois_conjugation_is_multiplicative():
    for _ in range(100):
        n = rng.choice((5, 8, 12))
        a, b = rand_cyclo(n), rand_cyclo(n)
        k = rng.choice([k for k in range(1, n) if __import__("math").gcd(k, n) == 1])
        assert (a * b).galois(k) == a.galois(k) * b.galois(k)
        assert (a + b).galois(k) == a.galois(k) + b.galois(k)


def test_conjugate_matches_complex_conjugation():
    for _ in range(80):
        a = rand_cyclo()
        assert abs(complex(a.conjugate()) - complex(a).conjugate()) < 1e-9


def test_complex_embedding_is_homomorphic():
    for _ in range(200):
        a, b = rand_cyclo(), rand_cyclo()
        assert abs(complex(a * b) - complex(a) * complex(b)) < 1e-9
        assert abs(complex(a + b) - (complex(a) + complex(b))) < 1e-9


def test_sort_key_total_order():
    xs = [rand_cyclo() for _ in range(60)]
    keys = [sort_key(x) for x in xs]
    for x, y, kx, ky in zip(xs, xs[1:], keys, keys[1:]):
        if kx == ky:
            assert x == y


def test_json_round_trip():
    for _ in range(60):
        a = rand_cyclo()
        assert CycloNumber.from_json(a.to_json()) == a


def test_repr_examples():
    assert repr(zeta(3)) == "z3"
    assert repr(CycloNumber.from_rational(Fraction(5, 3))) == "5/3"


def test_canonical_form_cache_stays_within_its_bound():
    from gradelab import cyclo
    bound = cyclo.CANONICAL_CACHE_SIZE
    cyclo._canonical_form.cache_clear()
    # k + zeta_12^4 = k + zeta_3 has conductor 3; k + zeta_12 has conductor 12
    values = [(k, CycloNumber.from_rational(k, 12) + zeta(12, 4)) for k in range(bound + 100)]
    for k, x in values:
        assert x.conductor() == 3
    assert cyclo._canonical_form.cache_info().currsize <= bound
    # the first values were evicted; their forms come out the same again
    for k, x in values[:50] + values[-50:]:
        assert x.conductor() == 3
        assert sort_key(x) == (3, ((k, 1), (1, 1)))
        assert hash(x) == hash(CycloNumber.from_rational(k, 3) + zeta(3))
        assert (x + zeta(12)).conductor() == 12
    assert cyclo._canonical_form.cache_info().currsize <= bound


def test_arithmetic_on_integer_numerators_builds_no_fraction(monkeypatch):
    values = [rand_cyclo(24) + zeta(24, k) for k in (1, 5, 7, 11)]
    others = [rand_cyclo(8) + zeta(8), zeta(3) * Fraction(2, 3) - zeta(3, 2)]
    assert not any(x.is_rational() for x in values + others)
    created = []
    original = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        created.append(args)
        return original(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    for _ in range(20):
        for a in values:
            for b in values + others:  # others are of orders 8 and 3: mixed orders embed
                (a * b, a + b, a - b, -a, b - a, a.embed(48), b.embed(b.order * 5),
                 hash(a * b))
    monkeypatch.undo()
    assert created == []
