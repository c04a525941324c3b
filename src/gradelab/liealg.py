"""The special linear Lie algebra sl(n,C) as an exact structure-constant algebra.

Basis order: E_ij for i != j (row-major over the off-diagonal positions),
followed by H_k = E_kk - E_(k+1)(k+1) for k = 1..n-1.  Structure constants
are computed once per n and cached, for n up to MAX_ALGEBRA_N: the table
costs time like n^6, so every path that builds sl(n) (`special_linear`,
`Grading.from_json`, `Automorphism.from_json`, `make_ad`) goes through the
one refusal in `LieAlgebra`.  `StructureTable` is the one bracket
table type: sl(n) keeps its structure constants in one, and so do the
grading-adapted and contracted tables of `contractions`.  An element is a
coordinate tuple; `LieAlgebra.bracket_coords` is the bracket.
"""
from __future__ import annotations

import re

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .cyclo import CycloNumber, _dot
from .linalg import Matrix, _at, as_cyclo

# largest n of sl(n) that may be built: the bracket table grows like n^6
# (about 1 s of CPU for sl(8), 2 s for sl(9))
MAX_ALGEBRA_N = 8

# sparse bracket table entry: {target_index: coefficient}
SparseVec = dict


class StructureTable:
    """An immutable sparse antisymmetric bracket table on a basis b_0..b_(dim-1).

    Built from the brackets [b_i, b_j] with i < j; both orientations are
    stored, so calling `table(i, j)` for the sparse coordinates of
    [b_i, b_j] is one dict lookup (an empty dict when the bracket is zero).
    """

    __slots__ = ("dim", "_entries", "_factors")

    def __init__(self, dim: int, upper: dict):
        entries = {}
        for (i, j), entry in upper.items():
            if entry:
                entries[(i, j)] = entry
                entries[(j, i)] = {k: -c for k, c in entry.items()}
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "_entries", entries)
        object.__setattr__(self, "_factors", None)

    def __setattr__(self, name, value):
        raise AttributeError("StructureTable is immutable")

    def __call__(self, i: int, j: int) -> SparseVec:
        return self._entries.get((i, j), {})

    def _prepared(self) -> tuple:
        """(order, factors), made once per table: the least common multiple
        of the entries' orders above 2 (an entry at order 1 or 2 is rational
        and needs no embedding), and {(i, j): [(k, c), ...]} with each entry
        c of [b_i, b_j] at b_k a factor of `cyclo._dot` at that order
        (`linalg._at`)."""
        if self._factors is None:
            order = lcm(1, *{c.order for entry in self._entries.values()
                             for c in entry.values() if c.order > 2})
            object.__setattr__(self, "_factors", (order, {
                ij: [(k, _at(order, c)) for k, c in entry.items()]
                for ij, entry in self._entries.items()}))
        return self._factors

    def _restricted(self, keep) -> "StructureTable":
        """The brackets [b_i, b_j] with keep((i, j)), symmetric, sharing these
        entries and their prepared factors (`_prepared`)."""
        order, factors = self._prepared()
        entries = {ij: entry for ij, entry in self._entries.items() if keep(ij)}
        table = object.__new__(StructureTable)
        object.__setattr__(table, "dim", self.dim)
        object.__setattr__(table, "_entries", entries)
        object.__setattr__(table, "_factors", (order, {ij: factors[ij] for ij in entries}))
        return table

    @property
    def upper(self) -> dict:
        """The nonzero brackets [b_i, b_j] with i < j."""
        return {(i, j): entry for (i, j), entry in self._entries.items() if i < j}


class LieAlgebra:
    """sl(n,C) with a fixed ordered basis and cached structure constants.

    `structure_constant` is the algebra's `StructureTable`:
    `structure_constant(i, j)` is the sparse coordinates of [b_i, b_j].
    """

    __slots__ = ("n", "dim", "basis", "basis_names", "structure_constant")

    def __init__(self, n: int) -> None:
        if n < 2:
            raise ValueError("n must be at least 2")
        if n > MAX_ALGEBRA_N:
            raise ValueError(f"sl({n}) is above the limit of sl({MAX_ALGEBRA_N})")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "dim", n * n - 1)
        names = []
        basis = []
        for i in range(n):
            for j in range(n):
                if i != j:
                    names.append(f"E{i + 1}{j + 1}")
                    basis.append(Matrix(n, n, [1 if (r, c) == (i, j) else 0
                                               for r in range(n) for c in range(n)]))
        for k in range(n - 1):
            names.append(f"H{k + 1}")
            basis.append(Matrix(n, n, [(1 if r == k else -1 if r == k + 1 else 0)
                                       if r == c else 0
                                       for r in range(n) for c in range(n)]))
        object.__setattr__(self, "basis", tuple(basis))
        object.__setattr__(self, "basis_names", tuple(names))
        upper = {}
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                prod = basis[i] * basis[j] - basis[j] * basis[i]
                entry = self.from_matrix(prod)
                upper[(i, j)] = {k: c for k, c in enumerate(entry) if not c.is_zero()}
        object.__setattr__(self, "structure_constant", StructureTable(self.dim, upper))

    def __setattr__(self, name, value):
        raise AttributeError("LieAlgebra is immutable")

    def bracket_coords(self, x, y) -> tuple:
        """Bracket of two coordinate vectors, as a coordinate vector.

        Each product x_i y_j is formed once; coordinate k is then one
        `cyclo._dot` over the pairs (structure constant, x_i y_j), the
        constants rational and unembedded.  A coordinate's order is the
        least common multiple of the orders of its products x_i y_j, and a
        coordinate that no product reaches is the zero of order 1."""
        table = self.structure_constant
        ys = [(j, yj) for j, yj in enumerate(y) if any(yj.nums)]
        terms: dict[int, list] = {}
        for i, xi in enumerate(x):
            if not any(xi.nums):
                continue
            for j, yj in ys:
                entry = table(i, j)
                if entry:
                    coeff = xi * yj
                    for k, c in entry.items():
                        terms.setdefault(k, []).append((c, coeff))
        zero = CycloNumber.zero()
        out = []
        for k in range(self.dim):
            pairs = terms.get(k)
            if pairs is None:
                out.append(zero)
                continue
            order, *others = {b.order for _, b in pairs}
            if others:
                order = lcm(order, *others)
                pairs = [(c, _at(order, b)) for c, b in pairs]
            out.append(_dot(order, pairs))
        return tuple(out)

    def from_matrix(self, m: Matrix) -> tuple:
        """Coordinates of a traceless n x n matrix in the fixed basis."""
        if (m.rows, m.cols) != (self.n, self.n):
            raise ValueError("matrix has the wrong shape")
        if not m.trace().is_zero():
            raise ValueError("matrix is not traceless")
        return self._coords(m.entries, m.order)

    def _coords(self, flat, order: int) -> tuple:
        """Coordinates of a traceless matrix given as its n^2 entries,
        row-major, each of the given order; nothing is checked."""
        n = self.n
        coords = [flat[i * n + j] for i in range(n) for j in range(n) if i != j]
        # diagonal d decomposes over H_k with coefficients a_k = d_1 + ... + d_k
        partial = CycloNumber.zero(order)
        for k in range(n - 1):
            partial = partial + flat[k * (n + 1)]
            coords.append(partial)
        return tuple(coords)

    def to_matrix(self, coords) -> Matrix:
        coords = [as_cyclo(c) for c in coords]
        if len(coords) != self.dim:
            raise ValueError("coordinate length mismatch")
        acc = Matrix.zeros(self.n, self.n)
        for c, b in zip(coords, self.basis):
            if not c.is_zero():
                acc = acc + b.scale(c)
        return acc

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and other.n == self.n

    def __hash__(self):
        return hash(("sl", self.n))

    def __repr__(self):
        return f"sl({self.n})"


@lru_cache(maxsize=None)
def special_linear(n: int) -> LieAlgebra:
    return LieAlgebra(n)


@dataclass(frozen=True)
class AlgebraElement:
    """A parsed element: its algebra and its coordinate tuple."""

    algebra: LieAlgebra
    coords: tuple


def jacobi_table_holds(table: StructureTable) -> bool:
    """Exhaustive Jacobi check of a bracket table.

    Checks [[b_i,b_j],b_k] + [[b_j,b_k],b_i] + [[b_k,b_i],b_j] = 0 over all
    i<j<k (triples with a repeated index vanish by antisymmetry), and stops
    at the first triple that fails.  Coordinate n of a triple's residual is
    the sum of c * d over the entries c of [b_i, b_j] at b_m and d of
    [b_m, b_k] at b_n, and likewise for the other two double brackets: one
    `cyclo._dot` decides whether it is zero, at the order of the table's
    prepared factors (`StructureTable._prepared`).  They are made once per
    table, not once per call, and a restriction shares its table's: so the
    spot checks of one grading's contractions embed no entry again.
    """
    order, factors = table._prepared()
    dim = table.dim
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms: dict[int, list] = {}
                for first, outer in (((i, j), k), ((j, k), i), ((k, i), j)):
                    for m, c in factors.get(first, ()):
                        for n, d in factors.get((m, outer), ()):
                            terms.setdefault(n, []).append((c, d))
                if any(not _dot(order, pairs).is_zero() for pairs in terms.values()):
                    return False
    return True


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*(?:(?P<num>\d+)(?:/(?P<den>\d+))?\s*\*?\s*)?"
    r"(?P<name>[EH]\d+)\s*")


def parse_element(text: str, algebra: LieAlgebra | None = None) -> AlgebraElement:
    """Parse a named-basis expression such as "E12", "H1" or "E21+E12".

    Terms are signed, optionally scaled basis names ("2*E13", "1/2 H1").
    """
    if algebra is None:
        algebra = special_linear(3)
    index = {name: k for k, name in enumerate(algebra.basis_names)}
    coords = [as_cyclo(0) for _ in range(algebra.dim)]
    pos = 0
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if m is None or (not first and m.group("sign") is None):
            raise ValueError(f"cannot parse element expression at: {text[pos:]!r}")
        name = m.group("name")
        if name not in index:
            raise ValueError(f"unknown basis name {name!r}; "
                             f"expected one of {', '.join(algebra.basis_names)}")
        num = int(m.group("num")) if m.group("num") else 1
        den = int(m.group("den")) if m.group("den") else 1
        scalar = as_cyclo(Fraction(num, den))
        if m.group("sign") == "-":
            scalar = -scalar
        coords[index[name]] = coords[index[name]] + scalar
        pos = m.end()
        first = False
    if first:
        raise ValueError("empty element expression")
    return AlgebraElement(algebra, tuple(coords))
