"""Cyclotomic arithmetic against sympy: polynomials over QQ modulo Phi_n.

Each value of Q(zeta_n) is the polynomial sum c_k x^k of its power-basis
coordinates.  sympy reduces sums, products, inverses and substitutions
x -> x^t modulo its own `cyclotomic_poly(n)`, an independent route to the
same coordinates.
"""
from fractions import Fraction
from math import gcd

import pytest

pytest.importorskip("hypothesis")
sympy = pytest.importorskip("sympy")

from hypothesis import given, strategies as st  # noqa: E402

from gradelab.cyclo import CycloNumber, euler_phi  # noqa: E402

ORDERS = (1, 2, 3, 4, 5, 6, 8, 9, 12, 15, 24)
X = sympy.Symbol("x")

coefficients = st.one_of(st.just(Fraction(0)),
                         st.fractions(min_value=-30, max_value=30, max_denominator=12))


@st.composite
def elements(draw, n):
    """A value of Q(zeta_n), at times one of a subfield Q(zeta_d), written at order n.

    A subfield value is a polynomial in x^(n/d), reduced modulo Phi_n by
    sympy, so that lower conductors come up without `embed`.
    """
    d = draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    if draw(st.booleans()):
        d = n
    phi = euler_phi(d)
    cs = draw(st.lists(coefficients, min_size=phi, max_size=phi))
    if d == n:
        return CycloNumber(n, cs)
    poly = sum((sympy.Rational(c.numerator, c.denominator) * X ** (k * (n // d))
                for k, c in enumerate(cs)), sympy.Integer(0))
    return CycloNumber(n, coords(sympy.Poly(poly, X, domain="QQ"), n))


def phi_poly(n):
    return sympy.Poly(sympy.cyclotomic_poly(n, X), X, domain="QQ")


def to_poly(x):
    return sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(x.coeffs)],
                      X, domain="QQ")


def coords(poly, n):
    """Coordinates of a sympy polynomial reduced modulo Phi_n, as phi(n) Fractions."""
    out = [Fraction(int(c.p), int(c.q)) for c in reversed(poly.rem(phi_poly(n)).all_coeffs())]
    return tuple(out + [Fraction(0)] * (euler_phi(n) - len(out)))


def units(n):
    return [t for t in range(1, n + 1) if gcd(t, n) == 1]


@pytest.mark.parametrize("n", ORDERS)
@given(data=st.data())
def test_sum_difference_and_product_match_sympy(n, data):
    a, b = data.draw(elements(n)), data.draw(elements(n))
    pa, pb = to_poly(a), to_poly(b)
    assert (a + b).coeffs == coords(pa + pb, n)
    assert (a - b).coeffs == coords(pa - pb, n)
    assert (a * b).coeffs == coords(pa * pb, n)
    assert (-a).coeffs == coords(-pa, n)


@pytest.mark.parametrize("n", ORDERS)
@given(data=st.data())
def test_inverse_matches_sympy_invert(n, data):
    a = data.draw(elements(n))
    if a.is_zero():
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    assert a.inverse().coeffs == coords(sympy.invert(to_poly(a), phi_poly(n)), n)


@pytest.mark.parametrize("n", ORDERS)
@given(data=st.data())
def test_galois_matches_substitution(n, data):
    a, t = data.draw(elements(n)), data.draw(st.sampled_from(units(n)))
    image = to_poly(a).compose(sympy.Poly(X ** t, X, domain="QQ"))
    assert a.galois(t).coeffs == coords(image, n)


@pytest.mark.parametrize("n", ORDERS)
@given(data=st.data())
def test_embed_matches_substitution_and_reduce_order_inverts_it(n, data):
    a, step = data.draw(elements(n)), data.draw(st.sampled_from((1, 2, 3, 4, 5)))
    m = n * step
    up = a.embed(m)
    image = to_poly(a).compose(sympy.Poly(X ** step, X, domain="QQ"))
    assert up.order == m and up.coeffs == coords(image, m)
    down = up.reduce_order(n)
    assert down.order == n and down.coeffs == a.coeffs


@pytest.mark.parametrize("n", ORDERS)
@given(data=st.data())
def test_conductor_is_the_smallest_order_whose_fixing_group_fixes_the_value(n, data):
    a = data.draw(elements(n))
    want = next(d for d in range(1, n + 1) if n % d == 0 and
                all(a.galois(t) == a for t in units(n) if t % d == 1 % d))
    assert a.conductor() == want
    assert a.reduced().order == want and a.reduced() == a
