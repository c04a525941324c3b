"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as integer numerators over one common denominator: its
coordinates over the power basis 1, z, ..., z^(phi(N)-1) of Q(zeta_N) are
nums[k] / den, reduced eagerly modulo the N-th cyclotomic polynomial, which
is monic with integer coefficients, so arithmetic never leaves the integers.
Representation is canonical: den > 0 and gcd(den, *nums) == 1, so a value is
zero iff all numerators are zero (and then den == 1), and two values of the
same order are equal iff their numerators and denominators are equal.
`coeffs` gives the same coordinates as a tuple of Fractions.

A product is one convolution of numerators and one fold modulo Phi_N through
a table of the reductions of z^e built once per order (`_times`, `_fold`),
and an inverse is extended Euclid on integer polynomials (`_bezout`).  The
quadratic fields, orders 3, 4 and 6 (Phi_N = x^2 + p1 x + p0), take closed
forms instead: a product reduces by z^2 = -p1 z - p0, and an inverse is
conj(a) / N(a).  Two private kernels build on the product for the exact
linear algebra: `_dot` sums many products over one denominator, and
`_sub_mul` makes the row update v - f * w as one scalar.  Each reduces once,
so its result is canonical and equal to the one the operators give step by
step.  The catalog's scalars lie in the quadratic fields, g1's and g4's in
Q(zeta_3) and g2's AdH in Q(i), all but g3's: Q(zeta_8), like the orders 12
and 24 where mixed scalars meet, keeps the general kernels.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, isinf, lcm

# Canonical forms (conductor and coordinates there) kept for reuse; a bound
# far above what a run meets (a few hundred distinct values), so it costs no
# hits, while a long session cannot grow it without limit.
CANONICAL_CACHE_SIZE = 4096

# largest order a scalar read from JSON may name (the catalog needs 4), alone
# and in common with the other scalars of its document (`check_common_order`):
# arithmetic grows with phi(order).  `grading verify` on the g4 grading with
# one part scaled by a primitive 255th root of unity (order 255, phi = 128)
# takes about 0.4 s wall; scaled by a primitive 251st root, g4's Q(zeta_3)
# entries meet it at order 753, which is refused.
MAX_JSON_ORDER = 256


def check_common_order(orders) -> None:
    """ValueError if the orders of the scalars of one JSON document have a
    least common multiple above MAX_JSON_ORDER.  Their arithmetic embeds them
    all at that order, which the bound on each order alone leaves open:
    orders 255 and 256 meet at 65280."""
    common = 1
    for order in orders:
        common = lcm(common, order)
        if common > MAX_JSON_ORDER:
            raise ValueError(f"scalar order {order} raises the common order of the "
                             f"document's scalars to {common}, above {MAX_JSON_ORDER}")


def json_integer(value, key: str) -> int:
    """`value`, read from the JSON field `key`, if JSON read it as an integer.
    int() would truncate 3.7, read true as 1 and "3" as 3, so a float, a bool
    or a string is a ValueError; an infinity (JSON's reader accepts Infinity)
    is an OverflowError, as int() of it is."""
    if isinstance(value, float) and isinf(value):
        raise OverflowError(f"{key}: {value} is not an integer")
    if type(value) is not int:
        raise ValueError(f"{key}: {value!r} is not an integer")
    return value


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple[int, ...]:
    primes = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            primes.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        primes.append(n)
    return tuple(primes)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("order must be positive")
    result = n
    for p in _prime_factors(n):
        result -= result // p
    return result


def _poly_divmod_int(num: tuple[int, ...], den: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # den must be monic; exact integer division
    num_l = list(num)
    deg_d = len(den) - 1
    quot = [0] * max(1, len(num) - deg_d)
    for k in range(len(num) - 1, deg_d - 1, -1):
        c = num_l[k]
        if c:
            quot[k - deg_d] = c
            for j in range(deg_d + 1):
                num_l[k - deg_d + j] -= c * den[j]
    return tuple(quot), tuple(num_l[:deg_d])


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Monic integer coefficients of Phi_n, index = degree, length phi(n)+1."""
    if n == 1:
        return (-1, 1)
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d
    num = tuple([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            num, rem = _poly_divmod_int(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("cyclotomic division left a remainder")
    return num


@lru_cache(maxsize=None)
def _powers(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """z^e modulo Phi_order for e in range(order), each as its nonzero (k, c) terms.

    Phi_order divides x^order - 1, so z^e is entry e % order for every e.
    """
    phi_poly = cyclotomic_polynomial(order)
    phi = len(phi_poly) - 1
    vec = [1] + [0] * (phi - 1)
    out = []
    for _ in range(order):
        out.append(tuple((k, c) for k, c in enumerate(vec) if c))
        top = vec[-1]
        vec = [0] + vec[:-1]
        if top:
            for j in range(phi):
                vec[j] -= top * phi_poly[j]
    return tuple(out)


@lru_cache(maxsize=None)
def _fold_table(order: int) -> tuple[int, tuple[tuple[tuple[int, int], ...], ...]]:
    """(phi(order), rows): row e - phi is z^e modulo Phi_order for e from phi
    up to both a product's last degree 2 phi - 2 and a full period order - 1."""
    phi = euler_phi(order)
    powers = _powers(order)
    return phi, tuple([powers[e % order] for e in range(phi, max(order, 2 * phi - 1))])


def _fold(terms: list[int], order: int) -> list[int]:
    """An integer polynomial (index = degree) modulo Phi_order, as phi(order) ints."""
    phi, table = _fold_table(order)
    n = len(terms)
    if n <= phi:
        return terms + [0] * (phi - n)
    if n > phi + len(table):  # longer than the table: z^order = 1 first
        wrapped = terms[:order]
        for e in range(order, n):
            wrapped[e % order] += terms[e]
        terms, n = wrapped, order
    out = terms[:phi]
    e = phi
    for row in table[:n - phi]:
        c = terms[e]
        if c:
            for k, v in row:
                out[k] += c * v
        e += 1
    return out


def _times(an: tuple, bn: tuple, order: int) -> list[int]:
    """The numerators of the product of the values with numerators `an` and
    `bn` at `order`, over the product of their denominators; not in lowest
    terms.  A quadratic field (orders 3, 4 and 6, Phi = x^2 + p1 x + p0)
    takes the closed form z^2 = -p1 z - p0; any larger one, one
    convolution, which skips the zero numerators of the sparser factor, and
    one fold."""
    if len(an) == 1:  # a rational field: orders 1 and 2
        return [an[0] * bn[0]]
    if len(an) == 2:
        p0, p1, _ = cyclotomic_polynomial(order)
        x0, x1 = an
        y0, y1 = bn
        t = x1 * y1
        return [x0 * y0 - p0 * t, x0 * y1 + x1 * y0 - p1 * t]
    if an.count(0) < bn.count(0):  # the sparser factor drives the outer loop
        an, bn = bn, an
    out = [0] * (2 * len(an) - 1)
    i = 0
    for x in an:
        if x:
            k = i
            for y in bn:
                out[k] += x * y
                k += 1
        i += 1
    return _fold(out, order)


def _ratio(value) -> tuple[int, int]:
    """(numerator, denominator) of a rational, in lowest terms."""
    if type(value) is int:
        return value, 1
    if type(value) is not Fraction:
        value = Fraction(value)
    return value.numerator, value.denominator


class CycloNumber:
    """An element of Q(zeta_order): integer numerators `nums` over `den`, reduced."""

    __slots__ = ("order", "nums", "den", "_hash")

    def __init__(self, order: int, coeffs) -> None:
        """The value sum coeffs[k] z^k for any rationals, reduced modulo Phi_order."""
        pairs = [_ratio(c) for c in coeffs]
        den = lcm(*[d for _, d in pairs])
        nums = _fold([n * (den // d) for n, d in pairs], order)
        g = gcd(den, *nums)
        _set_order(self, order)
        _set_nums(self, tuple([a // g for a in nums]))
        _set_den(self, den // g)
        _set_hash(self, None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coordinates as Fractions."""
        den = self.den
        return tuple([Fraction(a, den) for a in self.nums])

    # --- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNumber":
        if type(value) is int and value in (0, 1):
            return _constant(value, order)
        num, den = _ratio(value)
        return _exact(order, (num,) + (0,) * (euler_phi(order) - 1), den)

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(1, order)

    # --- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.nums)

    def is_rational(self) -> bool:
        return not any(self.nums[1:])

    # --- order handling -------------------------------------------------

    def embed(self, target_order: int) -> "CycloNumber":
        """Reinterpret in Q(zeta_M) via zeta_N = zeta_M^(M/N); requires N | M."""
        if target_order == self.order:
            return self
        if target_order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {target_order}")
        if not any(self.nums):
            return _constant(0, target_order)
        return _substitute(self, target_order, target_order // self.order)

    def reduce_order(self, target_order: int) -> "CycloNumber":
        """Rewrite in Q(zeta_M) for M | N; ValueError if the value is not in that subfield."""
        if target_order == self.order:
            return self
        if self.order % target_order:
            raise ValueError(f"{target_order} does not divide order {self.order}")
        lower = _descend(self.order, target_order, self.nums, self.den)
        if lower is None:
            raise ValueError(f"value does not lie in Q(zeta_{target_order})")
        return _exact(target_order, *lower)

    def reduced(self) -> "CycloNumber":
        """Equal value rewritten at its conductor (smallest possible order)."""
        order, nums, den = _canonical_form(self.order, self.nums, self.den)
        if order == self.order:
            return self
        return _exact(order, nums, den)

    def conductor(self) -> int:
        return _canonical_form(self.order, self.nums, self.den)[0]

    def _coerce(self, other):
        if not isinstance(other, CycloNumber):
            if not isinstance(other, (int, Fraction)):
                return None, None
            other = CycloNumber.from_rational(other)
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        a, b = (self, other) if type(other) is CycloNumber and other.order == self.order \
            else self._coerce(other)
        if a is None:
            return NotImplemented
        return _merge(a.order, a.nums, a.den, b.nums, b.den, 1)

    __radd__ = __add__

    def __neg__(self):
        return _exact(self.order, tuple([-x for x in self.nums]), self.den)

    def __sub__(self, other):
        a, b = (self, other) if type(other) is CycloNumber and other.order == self.order \
            else self._coerce(other)
        if a is None:
            return NotImplemented
        return _merge(a.order, a.nums, a.den, b.nums, b.den, -1)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = (self, other) if type(other) is CycloNumber and other.order == self.order \
            else self._coerce(other)
        if a is None:
            return NotImplemented
        an, bn = a.nums, b.nums
        if not any(an) or not any(bn):
            return _constant(0, a.order)
        return _lowest(a.order, _times(an, bn, a.order), a.den * b.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        """1 / self.  A rational inverts its numerator; in a quadratic field
        1 / a = conj(a) / N(a), with conj(a0 + a1 z) = a0 - p1 a1 - a1 z and
        the norm a0^2 - p1 a0 a1 + p0 a1^2, positive as the three fields are
        imaginary; in a larger one, extended Euclid modulo Phi_order."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        order, nums, den = self.order, self.nums, self.den
        if not any(nums[1:]):
            c = nums[0]
            return _exact(order, (den if c > 0 else -den,) + nums[1:], abs(c))
        if len(nums) == 2:
            p0, p1, _ = cyclotomic_polynomial(order)
            a0, a1 = nums
            return _lowest(order, [den * (a0 - p1 * a1), -den * a1],
                           a0 * a0 - p1 * a0 * a1 + p0 * a1 * a1)
        s, c = _bezout(nums, cyclotomic_polynomial(order))
        # s * nums = c modulo Phi_order, so 1 / (nums / den) = den * s / c.
        if c < 0:
            den, c = -den, -c
        return _lowest(order, _fold([den * x for x in s], order), c)

    def __truediv__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, exponent: int):
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = CycloNumber.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # --- Galois ----------------------------------------------------------

    def galois(self, t: int) -> "CycloNumber":
        """Apply the automorphism zeta -> zeta^t; requires gcd(t, order) = 1."""
        n = self.order
        t %= n
        if n > 1 and gcd(t, n) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {n}")
        return _substitute(self, n, t)

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation: zeta_N -> zeta_N^(N-1)."""
        return self.galois(self.order - 1)

    # --- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if type(other) is CycloNumber and other.order != self.order \
                and lcm(self.order, other.order) > MAX_JSON_ORDER:
            # embedding both at a large common order (255 and 249 meet at
            # 21165) costs far more than the canonical forms `__hash__` reads
            return (_canonical_form(self.order, self.nums, self.den)
                    == _canonical_form(other.order, other.nums, other.den))
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return a.den == b.den and a.nums == b.nums

    def __hash__(self):
        h = self._hash
        if h is None:
            # equal values share one canonical (conductor, numerators, denominator)
            form = _canonical_form(self.order, self.nums, self.den)
            if form[0] == 1:  # a rational hashes as the int or Fraction it equals
                num, den = form[1][0], form[2]
                form = num if den == 1 else Fraction(num, den)
            h = hash(form)
            _set_hash(self, h)
        return h

    def __bool__(self):
        return any(self.nums)

    # --- conversions -------------------------------------------------------

    def evaluate(self) -> complex:
        """Floating-point value (for cross-checks only; never used in exact paths)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for k, a in enumerate(self.nums):
            if a:
                total += a / self.den * z ** k
        return total

    __complex__ = evaluate

    def to_json(self) -> dict:
        terms = [[*_fraction(a, self.den), k] for k, a in enumerate(self.nums) if a]
        return {"order": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "CycloNumber":
        """The value of `to_json`'s output; ValueError for an order or a term
        number that is not an integer (`json_integer`), an order outside
        1..MAX_JSON_ORDER or an exponent outside 0..phi(order)-1."""
        order = json_integer(data["order"], "order")
        if not 1 <= order <= MAX_JSON_ORDER:
            raise ValueError(f"scalar order {order} is outside 1..{MAX_JSON_ORDER}")
        phi = euler_phi(order)
        coeffs = [0] * phi
        for term in data["terms"]:
            num, den, exp = (json_integer(t, "terms") for t in term)
            if not 0 <= exp < phi:
                raise ValueError(f"exponent {exp} of a scalar of order {order} "
                                 f"is outside 0..{phi - 1}")
            coeffs[exp] = Fraction(num, den)
        return cls(order, coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            else:
                mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        out = parts[0]
        for p in parts[1:]:
            out += f" - {p[1:]}" if p.startswith("-") else f" + {p}"
        return out


# The slot setters, which get round the refusing __setattr__ at less cost
# than object.__setattr__.
_set_order, _set_nums, _set_den, _set_hash = \
    (getattr(CycloNumber, name).__set__ for name in CycloNumber.__slots__)


def _exact(order: int, nums: tuple, den: int) -> CycloNumber:
    """A CycloNumber from phi(order) reduced numerators already in lowest terms over den."""
    x = object.__new__(CycloNumber)
    _set_order(x, order)
    _set_nums(x, nums)
    _set_den(x, den)
    _set_hash(x, None)
    return x


def _lowest(order: int, nums: list, den: int) -> CycloNumber:
    """A CycloNumber from phi(order) reduced numerators over den > 0, put in lowest terms."""
    g = gcd(den, *nums)
    if g != 1:
        return _exact(order, tuple([a // g for a in nums]), den // g)
    return _exact(order, tuple(nums), den)


def _substitute(x: CycloNumber, order: int, t: int) -> CycloNumber:
    """x with zeta_(x.order) replaced by zeta_order^t, in Q(zeta_order)."""
    powers = _powers(order)
    out = [0] * euler_phi(order)
    for k, c in enumerate(x.nums):
        if c:
            for j, v in powers[k * t % order]:
                out[j] += c * v
    return _lowest(order, out, x.den)


def _fraction(a: int, den: int) -> tuple[int, int]:
    """(numerator, denominator) of a / den in lowest terms, as a Fraction has them."""
    g = gcd(a, den)
    return a // g, den // g


def _merge(order: int, an, da: int, bn, db: int, sign: int) -> CycloNumber:
    """an / da + sign * bn / db, sign 1 or -1, for the numerators of two
    values at `order`: the denominators merged by gcd, the sum put in lowest
    terms once."""
    g = gcd(da, db)
    ma, mb = db // g, da // g * sign
    return _lowest(order, [x * ma + y * mb for x, y in zip(an, bn)], da * ma)


def _sub_mul(v: CycloNumber, f: CycloNumber, w: CycloNumber) -> CycloNumber:
    """v - f * w for three scalars of one order, the update of an exact row.

    `_times` gives the product's numerators over f.den * w.den, and `_merge`
    subtracts them as `__sub__` subtracts a scalar, so the result is
    canonical and equals the two-operation `v - f * w`, without the scalar
    that operation builds, reduces and coerces for the product.
    """
    order = v.order
    return _merge(order, v.nums, v.den, _times(f.nums, w.nums, order), f.den * w.den, -1)


def _dot(order: int, pairs) -> CycloNumber:
    """The sum of a * b over `pairs`, each factor at `order` or rational.

    A rational factor (phi(its order) = 1: orders 1 and 2) is read as its
    one numerator, so it needs no embedding; every other factor must be at
    `order` already.  The integer products of all pairs accumulate in one
    list of 2 phi - 1 numerators over the least common multiple of their
    denominators, merged by gcd as `__add__` merges two, and only the sum
    is folded and put in lowest terms: canonical, so equal to the value a
    product-by-product sum gives, at `order`.  A quadratic field (orders 3,
    4 and 6) sums through `_quadratic_dot` instead, in three integers
    reduced once by a closed form.  Zero factors add nothing; no pairs give
    the shared zero of `order`, and one pair of factors at `order` is their
    product as `__mul__` makes it, which costs less to set up.
    """
    if not pairs:
        return _constant(0, order)
    if len(pairs) == 1:
        a, b = pairs[0]
        if a.order == order == b.order:  # one product, at the cost of `__mul__`
            return _lowest(order, _times(a.nums, b.nums, order), a.den * b.den)
    phi = euler_phi(order)
    if phi == 2:
        return _quadratic_dot(order, pairs)
    acc = [0] * (2 * phi - 1)
    den = 1
    for a, b in pairs:
        an, bn = a.nums, b.nums
        d = a.den * b.den
        if d != den:  # den becomes lcm(den, d); acc and this term scale to it
            g = gcd(den, d)
            s = d // g
            if s != 1:
                acc = [v * s for v in acc]
                den *= s
            if d != den:
                m = den // d
                an = [x * m for x in an]
        if len(an) == 1:
            an, bn = bn, an
        if len(bn) == 1:  # a rational factor: one integer scales the other
            y = bn[0]
            for i, x in enumerate(an):
                acc[i] += x * y
        else:
            i = 0
            for x in an:
                if x:
                    k = i
                    for y in bn:
                        acc[k] += x * y
                        k += 1
                i += 1
    return _lowest(order, _fold(acc, order), den)


def _quadratic_dot(order: int, pairs) -> CycloNumber:
    """`_dot` at order 3, 4 or 6: the integer products of the pairs add up
    in three accumulators, the coefficients of 1, z and z^2, over the
    merged denominator, and z^2 = -p1 z - p0 reduces the sum once."""
    c0 = c1 = c2 = 0
    den = 1
    for a, b in pairs:
        an, bn = a.nums, b.nums
        d = a.den * b.den
        if d != den:  # den becomes lcm(den, d), as in `_dot`
            g = gcd(den, d)
            s = d // g
            if s != 1:
                c0, c1, c2 = c0 * s, c1 * s, c2 * s
                den *= s
            if d != den:
                m = den // d
                an = [x * m for x in an]
        if len(an) == 1:
            an, bn = bn, an
        if len(bn) == 1:  # a rational factor; the other may be rational too
            y = bn[0]
            c0 += an[0] * y
            if len(an) == 2:
                c1 += an[1] * y
        else:
            x0, x1 = an
            y0, y1 = bn
            c0 += x0 * y0
            c1 += x0 * y1 + x1 * y0
            c2 += x1 * y1
    p0, p1, _ = cyclotomic_polynomial(order)
    return _lowest(order, [c0 - p0 * c2, c1 - p1 * c2], den)


@lru_cache(maxsize=None)
def _constant(value: int, order: int) -> CycloNumber:
    """The shared 0 or 1 of Q(zeta_order)."""
    return _exact(order, (value,) + (0,) * (euler_phi(order) - 1), 1)


def zeta(order: int, power: int = 1) -> CycloNumber:
    """The root of unity zeta_order^power."""
    nums = [0] * euler_phi(order)
    for k, c in _powers(order)[power % order]:
        nums[k] = c
    return _exact(order, tuple(nums), 1)


# --- integer-polynomial inverse ----------------------------------------------

def _bezout(nums, modulus) -> tuple[list[int], int]:
    """Integers s (a polynomial) and c != 0 with s * nums = c modulo `modulus`.

    Extended Euclid by pseudo-division on integer polynomials (index = degree),
    keeping s_i * nums = r_i modulo `modulus` for each remainder r_i; each
    step divides r_i and s_i by their common content.  `nums` must be nonzero
    and coprime to `modulus`, so the last nonzero remainder is the constant c.
    """
    r0, s0 = list(modulus), []
    r1, s1 = list(nums), [1]
    while not r1[-1]:
        r1.pop()
    while len(r1) > 1:
        lead = r1[-1]
        while len(r0) >= len(r1):
            top, shift = r0[-1], len(r0) - len(r1)
            r0 = [lead * x for x in r0]
            s0 = [lead * x for x in s0] + [0] * (len(s1) + shift - len(s0))
            for j, y in enumerate(r1):
                r0[shift + j] -= top * y
            for j, y in enumerate(s1):
                s0[shift + j] -= top * y
            while r0 and not r0[-1]:
                r0.pop()
        g = gcd(*r0, *s0)
        if g > 1:
            r0 = [x // g for x in r0]
            s0 = [x // g for x in s0]
        r0, s0, r1, s1 = r1, s1, r0, s0
    return s1, r1[0]


# --- subfield descent -------------------------------------------------------

def _sparse(row) -> tuple[tuple[int, int], ...]:
    return tuple((i, c) for i, c in enumerate(row) if c)


@lru_cache(maxsize=None)
def _subfield_solver(order: int, sub_order: int):
    """The power basis of Q(zeta_sub_order) at `order`, eliminated once for every right side.

    Integer Gauss-Jordan on [B | I], B the phi(order) x phi(sub_order) matrix
    whose columns are the embedded basis powers, gives integer rows T with
    T B in echelon form.  Returns (solve, scale, zero): the coordinates of a
    value v = nums / den in the subfield basis are (solve_k . nums) / (scale *
    den), and v lies in the subfield iff zero_r . nums == 0 for every r.  Each
    row is sparse, as (index, coefficient) terms.
    """
    cols = [zeta(sub_order, k).embed(order).nums for k in range(euler_phi(sub_order))]
    n_rows, n_cols = euler_phi(order), len(cols)
    aug = [[col[i] for col in cols] + [int(i == k) for k in range(n_rows)] for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if aug[r][col]), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        p = aug[row][col]
        for r in range(n_rows):
            f = aug[r][col]
            if r != row and f:
                new = [p * v - f * w for v, w in zip(aug[r], aug[row])]
                g = gcd(*new)
                aug[r] = [v // g for v in new]
        pivots.append(col)
        row += 1
    if pivots != list(range(n_cols)):
        raise ArithmeticError(f"power basis of Q(zeta_{sub_order}) is dependent at order {order}")
    scale = lcm(*[abs(aug[k][k]) for k in range(n_cols)])
    solve = tuple(_sparse([v * (scale // aug[k][k]) for v in aug[k][n_cols:]])
                  for k in range(n_cols))
    zero = tuple(_sparse(aug[r][n_cols:]) for r in range(n_cols, n_rows))
    return solve, scale, zero


def _descend(order: int, sub_order: int, nums, den: int) -> tuple[tuple[int, ...], int] | None:
    """Numerators and denominator of the value in the power basis of Q(zeta_sub_order)."""
    solve, scale, zero = _subfield_solver(order, sub_order)
    for row in zero:
        if sum([c * nums[i] for i, c in row]):
            return None  # inconsistent: value not in the subfield
    out = [sum([c * nums[i] for i, c in row]) for row in solve]
    den *= scale
    g = gcd(den, *out)
    return tuple([a // g for a in out]), den // g


@lru_cache(maxsize=CANONICAL_CACHE_SIZE)
def _canonical_form(order: int, nums: tuple, den: int) -> tuple[int, tuple[int, ...], int]:
    """(conductor, numerators, denominator) of the value, found by greedy prime descent."""
    descended = True
    while descended and order > 1:
        descended = False
        for p in _prime_factors(order):
            lower = _descend(order, order // p, nums, den)
            if lower is not None:
                order //= p
                nums, den = lower
                descended = True
                break
    return order, nums, den


def sort_key(x: CycloNumber) -> tuple:
    """Deterministic total-order key (conductor first, then coefficients)."""
    n, nums, den = _canonical_form(x.order, x.nums, x.den)
    return (n, tuple(_fraction(a, den) for a in nums))
