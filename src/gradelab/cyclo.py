"""Exact arithmetic in cyclotomic fields Q(zeta_N).

A value is stored as a vector of rational coefficients over the power basis
1, z, ..., z^(phi(N)-1) of Q(zeta_N), reduced eagerly modulo the N-th
cyclotomic polynomial.  Representation is canonical: a value is zero iff all
coefficients are zero, and two values of the same order are equal iff their
coefficient vectors are equal.
"""
from __future__ import annotations

import cmath
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

_ZERO = Fraction(0)
_ONE = Fraction(1)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("order must be positive")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
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


def _reduce(coeffs: list[Fraction], order: int) -> tuple[Fraction, ...]:
    """Remainder of the polynomial modulo Phi_order, padded to length phi(order)."""
    phi_poly = cyclotomic_polynomial(order)
    deg = len(phi_poly) - 1
    work = list(coeffs)
    for k in range(len(work) - 1, deg - 1, -1):
        c = work[k]
        if c:
            work[k] = _ZERO
            for j in range(deg):
                work[k - deg + j] -= c * phi_poly[j]
    work = work[:deg]
    work.extend([_ZERO] * (deg - len(work)))
    return tuple(work)


class CycloNumber:
    """An element of Q(zeta_order) in reduced power-basis form."""

    __slots__ = ("order", "coeffs", "_hash")

    def __init__(self, order: int, coeffs) -> None:
        phi = euler_phi(order)
        vec = [c if type(c) is Fraction else Fraction(c) for c in coeffs]
        if len(vec) > phi:
            tup = _reduce(vec, order)
        else:
            vec.extend([_ZERO] * (phi - len(vec)))
            tup = tuple(vec)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tup)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNumber is immutable")

    # --- constructors -------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNumber":
        if type(value) is int and value in (0, 1):
            return _constant(value, order)
        return _make(order, (Fraction(value),) + (_ZERO,) * (euler_phi(order) - 1))

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNumber":
        return cls.from_rational(1, order)

    # --- basic predicates ----------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_rational(self) -> bool:
        return not any(self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self!r} is not rational")
        return self.coeffs[0]

    # --- order handling -------------------------------------------------

    def embed(self, target_order: int) -> "CycloNumber":
        """Reinterpret in Q(zeta_M) via zeta_N = zeta_M^(M/N); requires N | M."""
        if target_order == self.order:
            return self
        if target_order % self.order:
            raise ValueError(f"cannot embed order {self.order} into {target_order}")
        if not any(self.coeffs):
            return _constant(0, target_order)
        step = target_order // self.order
        out = [_ZERO] * (len(self.coeffs) * step)
        for k, c in enumerate(self.coeffs):
            if c:
                out[k * step] = c
        return _make(target_order, _reduce(out, target_order))

    def reduce_order(self, target_order: int) -> "CycloNumber":
        """Rewrite in Q(zeta_M) for M | N; ValueError if the value is not in that subfield."""
        if target_order == self.order:
            return self
        if self.order % target_order:
            raise ValueError(f"{target_order} does not divide order {self.order}")
        coeffs = _descend(self.order, target_order, self.coeffs)
        if coeffs is None:
            raise ValueError(f"value does not lie in Q(zeta_{target_order})")
        return CycloNumber(target_order, coeffs)

    def reduced(self) -> "CycloNumber":
        """Equal value rewritten at its conductor (smallest possible order)."""
        order, coeffs = _canonical_form(self.order, self.coeffs)
        if order == self.order:
            return self
        return CycloNumber(order, coeffs)

    def conductor(self) -> int:
        return _canonical_form(self.order, self.coeffs)[0]

    def _coerce(self, other):
        if type(other) is CycloNumber:
            if other.order == self.order:
                return self, other
        elif isinstance(other, CycloNumber):
            pass
        elif isinstance(other, (int, Fraction)):
            other = CycloNumber.from_rational(other)
        else:
            return None, None
        if self.order == other.order:
            return self, other
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    # --- arithmetic -----------------------------------------------------

    # Zero coefficients are skipped rather than added: a Fraction sum costs
    # a gcd, a truth test does not.

    def __add__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return _make(a.order, tuple([(x + y if x else y) if y else x
                                     for x, y in zip(a.coeffs, b.coeffs)]))

    __radd__ = __add__

    def __neg__(self):
        return _make(self.order, tuple([-c if c else c for c in self.coeffs]))

    def __sub__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return _make(a.order, tuple([(x - y if x else -y) if y else x
                                     for x, y in zip(a.coeffs, b.coeffs)]))

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        if len(a.coeffs) == 1:  # a rational field: orders 1 and 2
            return _make(a.order, (a.coeffs[0] * b.coeffs[0],))
        xs = [(i, x) for i, x in enumerate(a.coeffs) if x]
        ys = [(j, y) for j, y in enumerate(b.coeffs) if y]
        if not xs or not ys:
            return _constant(0, a.order)
        out = [_ZERO] * (2 * len(a.coeffs) - 1)
        for i, x in xs:
            for j, y in ys:
                out[i + j] += x * y
        return _make(a.order, _reduce(out, a.order))

    __rmul__ = __mul__

    def inverse(self) -> "CycloNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        if not any(self.coeffs[1:]):
            return _make(self.order, (1 / self.coeffs[0],) + self.coeffs[1:])
        phi_poly = tuple(Fraction(c) for c in cyclotomic_polynomial(self.order))
        # extended Euclid on (self, Phi_N); gcd is a nonzero constant
        r0, r1 = list(self.coeffs), list(phi_poly)
        s0, s1 = [_ONE], [_ZERO]
        while any(r1):
            q, r = _frac_poly_divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _frac_poly_sub(s0, _frac_poly_mul(q, s1))
        const = next(c for c in r0 if c)  # r0 is the constant gcd
        inv = [c / const for c in s0]
        return _make(self.order, _reduce(inv, self.order))

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
        t %= self.order
        if self.order > 1 and gcd(t, self.order) != 1:
            raise ValueError(f"galois exponent {t} not coprime to {self.order}")
        out = [_ZERO] * self.order if self.order > 1 else [_ZERO]
        for k, c in enumerate(self.coeffs):
            if c:
                out[(k * t) % self.order] += c
        return CycloNumber(self.order, _reduce(out, self.order))

    def conjugate(self) -> "CycloNumber":
        """Complex conjugation: zeta_N -> zeta_N^(N-1)."""
        return self.galois(self.order - 1)

    # --- comparisons ------------------------------------------------------

    def __eq__(self, other):
        a, b = self._coerce(other)
        if a is None:
            return NotImplemented
        return a.coeffs == b.coeffs

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(_canonical_form(self.order, self.coeffs))
            object.__setattr__(self, "_hash", h)
        return h

    # --- conversions -------------------------------------------------------

    def evaluate(self) -> complex:
        """Floating-point value (for cross-checks only; never used in exact paths)."""
        z = cmath.exp(2j * cmath.pi / self.order)
        total = 0j
        for k, c in enumerate(self.coeffs):
            if c:
                total += float(c) * z ** k
        return total

    __complex__ = evaluate

    def to_json(self) -> dict:
        terms = [[c.numerator, c.denominator, k] for k, c in enumerate(self.coeffs) if c]
        return {"order": self.order, "terms": terms}

    @classmethod
    def from_json(cls, data: dict) -> "CycloNumber":
        order = int(data["order"])
        coeffs = [_ZERO] * euler_phi(order)
        for num, den, exp in data["terms"]:
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


def _make(order: int, coeffs: tuple) -> CycloNumber:
    """A CycloNumber from a reduced tuple of phi(order) Fractions, taken as is."""
    x = object.__new__(CycloNumber)
    object.__setattr__(x, "order", order)
    object.__setattr__(x, "coeffs", coeffs)
    object.__setattr__(x, "_hash", None)
    return x


@lru_cache(maxsize=None)
def _constant(value: int, order: int) -> CycloNumber:
    """The shared 0 or 1 of Q(zeta_order)."""
    return _make(order, (Fraction(value),) + (_ZERO,) * (euler_phi(order) - 1))


def zeta(order: int, power: int = 1) -> CycloNumber:
    """The root of unity zeta_order^power."""
    power %= order
    coeffs = [_ZERO] * (power + 1)
    coeffs[power] = _ONE
    return CycloNumber(order, _reduce(coeffs, order))


# --- rational-polynomial helpers (inverse) --------------------------------

def _frac_poly_divmod(num: list[Fraction], den: list[Fraction]):
    while den and den[-1] == 0:
        den = den[:-1]
    num = list(num)
    deg_d = len(den) - 1
    lead = den[-1]
    quot = [_ZERO] * max(1, len(num) - deg_d)
    for k in range(len(num) - 1, deg_d - 1, -1):
        c = num[k]
        if c:
            factor = c / lead
            quot[k - deg_d] = factor
            for j in range(deg_d + 1):
                num[k - deg_d + j] -= factor * den[j]
    rem = num[:deg_d] if deg_d > 0 else [_ZERO]
    return quot, rem


def _frac_poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] += x * y
    return out


def _frac_poly_sub(a, b):
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


# --- subfield descent -------------------------------------------------------

@lru_cache(maxsize=None)
def _subfield_basis(order: int, sub_order: int) -> tuple[tuple[Fraction, ...], ...]:
    """Coefficient vectors (at `order`) of the power basis of Q(zeta_sub_order)."""
    cols = []
    for k in range(euler_phi(sub_order)):
        cols.append(zeta(sub_order, k).embed(order).coeffs)
    return tuple(cols)


def _descend(order: int, sub_order: int, coeffs) -> tuple[Fraction, ...] | None:
    """Solve for coefficients of the value in the power basis of Q(zeta_sub_order)."""
    cols = _subfield_basis(order, sub_order)
    n_rows = euler_phi(order)
    n_cols = len(cols)
    # Gaussian elimination on [cols | coeffs]
    aug = [[cols[j][i] for j in range(n_cols)] + [coeffs[i]] for i in range(n_rows)]
    pivots = []
    row = 0
    for col in range(n_cols):
        pivot = next((r for r in range(row, n_rows) if aug[r][col] != 0), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [v * inv for v in aug[row]]
        for r in range(n_rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [v - factor * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n_rows):
        if aug[r][n_cols] != 0:
            return None  # inconsistent: value not in the subfield
    solution = [_ZERO] * n_cols
    for r, col in enumerate(pivots):
        solution[col] = aug[r][n_cols]
    return tuple(solution)


_canonical_cache: dict = {}


def _canonical_form(order: int, coeffs) -> tuple[int, tuple[Fraction, ...]]:
    """(conductor, coefficients) of the value, found by greedy prime descent."""
    key = (order, coeffs)
    cached = _canonical_cache.get(key)
    if cached is not None:
        return cached
    cur_order, cur = order, tuple(coeffs)
    changed = True
    while changed and cur_order > 1:
        changed = False
        m = cur_order
        p = 2
        primes = []
        while p * p <= m:
            if m % p == 0:
                primes.append(p)
                while m % p == 0:
                    m //= p
            p += 1
        if m > 1:
            primes.append(m)
        for p in primes:
            lower = _descend(cur_order, cur_order // p, cur)
            if lower is not None:
                cur_order //= p
                cur = lower
                changed = True
                break
    result = (cur_order, cur)
    _canonical_cache[key] = result
    return result


def sort_key(x: CycloNumber) -> tuple:
    """Deterministic total-order key (conductor first, then coefficients)."""
    n, coeffs = _canonical_form(x.order, x.coeffs)
    return (n, tuple((c.numerator, c.denominator) for c in coeffs))
