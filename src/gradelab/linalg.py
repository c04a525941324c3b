"""Exact dense linear algebra over cyclotomic numbers.

Matrices are immutable with all entries embedded into one shared cyclotomic
order.  Products, transposes and inverses build their results through
`_exact`, which trusts that invariant instead of re-checking every entry.
Every sum of products here, an entry of a matrix product or a coordinate of
a matrix-vector product, is one call of the integer kernel `cyclo._dot`: it
accumulates the integer products of its pairs in one list over one common
denominator and reduces once, where a product-by-product sum would make,
fold and reduce a scalar per product and per addition.  Its factors are
at the sum's order or rational, so `_at` embeds any other factor first,
and a matrix product embeds a factor only if its order is neither the
product's nor 1 or 2.  A matrix product pays for nonzero entries only: it
lists each column's nonzero entries once and pairs each row with those
alone, so a monomial times a monomial makes one one-pair `_dot` per
nonzero entry of the result and none for a zero entry.
Every exact row update, in elimination (`_echelon`, `det`), in
`Subspace.contains` and in the sums of `Subspace.intersect`, replaces
row[j] by row[j] - f * w for the nonzero entries w of a pivot or basis row
(`_update`), each through the fused kernel `cyclo._sub_mul`: one product
and one difference made and reduced as one scalar, all three at one order,
so each caller embeds its rows once first.  (`cyclo._dot` is not that
kernel: a row update has one product per entry, and through `_dot` it made
8x8 rref over Q(zeta_24) slower.)
Subspaces are stored as canonical reduced-row-echelon bases, so two
equal subspaces always have identical basis tuples.
"""
from __future__ import annotations

import operator
from fractions import Fraction
from math import lcm

from .cyclo import CycloNumber, _dot, _sub_mul, check_common_order, json_integer


def as_cyclo(value) -> CycloNumber:
    if isinstance(value, CycloNumber):
        return value
    if isinstance(value, (int, Fraction)):
        return CycloNumber.from_rational(value)
    raise TypeError(f"cannot interpret {value!r} as a cyclotomic number")


class Matrix:
    __slots__ = ("rows", "cols", "entries", "order")

    def __init__(self, rows: int, cols: int, entries) -> None:
        flat = [as_cyclo(e) for e in entries]
        if len(flat) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(flat)}")
        order = 1
        for e in flat:
            order = lcm(order, e.order)
        flat = [e if e.order == order else e.embed(order) for e in flat]
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", tuple(flat))
        object.__setattr__(self, "order", order)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "Matrix":
        rows = [list(r) for r in rows]
        ncols = len(rows[0])
        if any(len(r) != ncols for r in rows):
            raise ValueError("ragged rows")
        return cls(len(rows), ncols, [e for r in rows for e in r])

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, [0] * (rows * cols))

    @classmethod
    def diagonal(cls, values) -> "Matrix":
        values = list(values)
        n = len(values)
        return cls(n, n, [values[i] if i == j else 0 for i in range(n) for j in range(n)])

    def __getitem__(self, key):
        i, j = key
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def row_list(self) -> list[list[CycloNumber]]:
        return [list(self.row(i)) for i in range(self.rows)]

    # --- arithmetic -----------------------------------------------------

    def __add__(self, other):
        return self._entrywise(operator.add, other)

    def __sub__(self, other):
        return self._entrywise(operator.sub, other)

    def _entrywise(self, op, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(self.rows, self.cols,
                      [op(a, b) for a, b in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.rows, self.cols, [-a for a in self.entries])

    def __mul__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("shape mismatch in product")
        order = lcm(self.order, other.order)
        left, right = self.entries, other.entries
        # a factor of order 1 or 2 is rational, which `_dot` reads unembedded
        if self.order not in (1, 2, order):
            left = [e.embed(order) for e in left]
        if other.order not in (1, 2, order):
            right = [e.embed(order) for e in right]
        n, m = self.cols, other.cols
        # the nonzero (k, entry) of each column of `other`, built once
        columns = [[] for _ in range(m)]
        for index, b in enumerate(right):
            if any(b.nums):
                columns[index % m].append((index // m, b))
        zero = CycloNumber.zero(order)
        out = []
        for i in range(0, self.rows * n, n):
            row = left[i:i + n]
            for column in columns:
                pairs = []
                for k, b in column:
                    if any((a := row[k]).nums):
                        pairs.append((a, b))
                out.append(_dot(order, pairs) if pairs else zero)
        return _exact(self.rows, m, tuple(out), order)

    def scale(self, scalar) -> "Matrix":
        scalar = as_cyclo(scalar)
        return Matrix(self.rows, self.cols, [scalar * a for a in self.entries])

    def transpose(self) -> "Matrix":
        entries, cols = self.entries, self.cols
        return _exact(cols, self.rows,
                      tuple([e for j in range(cols) for e in entries[j::cols]]), self.order)

    def apply(self, vector) -> tuple:
        """Matrix times column vector (a tuple of cyclotomic numbers).

        Only the vector's nonzero coordinates are multiplied, column by
        column in increasing order, so each coordinate of the result is the
        dense sum: its order is the least common multiple of this matrix's
        order and the orders of the terms it adds, and a row that meets no
        nonzero term gives zero at this matrix's order."""
        vec = [as_cyclo(v) for v in vector]
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        entries, n, order = self.entries, self.cols, self.order
        terms = [(j, v) for j, v in enumerate(vec) if any(v.nums)]
        mixed = lcm(order, *[v.order for _, v in terms]) != order
        if not mixed:
            # every row sums at this matrix's order: embed the vector once
            terms = [(j, _at(order, v)) for j, v in terms]
        out = []
        for i in range(0, self.rows * n, n):
            pairs = [(a, v) for j, v in terms if any((a := entries[i + j]).nums)]
            if mixed:  # this row sums at the order of the terms it adds
                at = lcm(order, *[v.order for _, v in pairs])
                out.append(_dot(at, [(_at(at, a), _at(at, v)) for a, v in pairs]))
            else:
                out.append(_dot(order, pairs))
        return tuple(out)

    def trace(self) -> CycloNumber:
        if self.rows != self.cols:
            raise ValueError("trace of non-square matrix")
        acc = CycloNumber.zero(self.order)
        for i in range(self.rows):
            acc = acc + self[i, i]
        return acc

    # --- elimination ------------------------------------------------------

    @staticmethod
    def _echelon(work: list, pivot_cols: int):
        """Row-reduce the row lists `work` in place, pivoting in the first
        `pivot_cols` columns only; returns (work, the pivot columns)."""
        rows = len(work)
        pivots = []
        r = 0
        for col in range(pivot_cols):
            pivot = next((i for i in range(r, rows) if not work[i][col].is_zero()), None)
            if pivot is None:
                continue
            if pivot != r:
                work[r], work[pivot] = work[pivot], work[r]
            inv = work[r][col].inverse()
            pivot_row = work[r] = [v if v.is_zero() else v * inv for v in work[r]]
            nonzero = [(j, w) for j, w in enumerate(pivot_row) if any(w.nums)]
            for i in range(rows):
                f = work[i][col]
                if i != r and any(f.nums):
                    _update(work[i], f, nonzero)
            pivots.append(col)
            r += 1
            if r == rows:
                break
        return work, pivots

    def rref(self) -> tuple["Matrix", tuple[int, ...]]:
        work, pivots = self._echelon(self.row_list(), self.cols)
        return Matrix.from_rows(work), tuple(pivots)

    def rank(self) -> int:
        return len(self._echelon(self.row_list(), self.cols)[1])

    def det(self) -> CycloNumber:
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        work = self.row_list()
        det = CycloNumber.one(self.order)
        for col in range(self.cols):
            pivot = next((i for i in range(col, self.rows) if not work[i][col].is_zero()), None)
            if pivot is None:
                return CycloNumber.zero(self.order)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                det = -det
            det = det * work[col][col]
            inv = work[col][col].inverse()
            nonzero = [(j, w) for j, w in enumerate(work[col]) if any(w.nums)]
            for i in range(col + 1, self.rows):
                if not work[i][col].is_zero():
                    _update(work[i], work[i][col] * inv, nonzero)
        return det

    def inverse(self) -> "Matrix":
        if self.rows != self.cols:
            raise ValueError("inverse of non-square matrix")
        n, order = self.rows, self.order
        zero, one = CycloNumber.zero(order), CycloNumber.one(order)
        # [A | I], eliminated in place: A's columns are pivots iff A is invertible
        work = [list(self.row(i)) + [one if j == i else zero for j in range(n)]
                for i in range(n)]
        work, pivots = self._echelon(work, n)
        if len(pivots) != n:
            raise ValueError("matrix is singular")
        return _exact(n, n, tuple([e for row in work for e in row[n:]]), order)

    def kernel(self) -> "Subspace":
        """Canonical basis of the right null space."""
        work, pivots = self._echelon(self.row_list(), self.cols)
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        zero = CycloNumber.zero(self.order)
        one = CycloNumber.one(self.order)
        for fc in free:
            vec = [zero] * self.cols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -work[r][fc]
            basis.append(vec)
        return Subspace.from_vectors(self.cols, basis)

    def is_zero(self) -> bool:
        return all(e.is_zero() for e in self.entries)

    # --- comparisons / io ---------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and \
            all(a == b for a, b in zip(self.entries, other.entries))

    def __hash__(self):
        return hash((self.rows, self.cols, tuple(self.entries)))

    def to_json(self) -> dict:
        return {"rows": self.rows, "cols": self.cols,
                "entries": [e.to_json() for e in self.entries]}

    @classmethod
    def from_json(cls, data: dict) -> "Matrix":
        """The matrix of a `to_json` document; its scalars' common order is
        checked (`check_common_order`) before `__init__` embeds them."""
        entries = [CycloNumber.from_json(e) for e in data["entries"]]
        check_common_order(e.order for e in entries)
        return cls(json_integer(data["rows"], "rows"),
                   json_integer(data["cols"], "cols"), entries)

    def __repr__(self):
        body = "; ".join(" ".join(repr(e) for e in self.row(i)) for i in range(self.rows))
        return f"Matrix[{body}]"


# The slot setters, which get round the refusing __setattr__ at less cost
# than object.__setattr__.
_set_rows, _set_cols, _set_entries, _set_order = \
    (getattr(Matrix, name).__set__ for name in Matrix.__slots__)


def _exact(rows: int, cols: int, entries: tuple, order: int) -> Matrix:
    """The matrix of `entries`, which all have order `order` already."""
    m = object.__new__(Matrix)
    _set_rows(m, rows)
    _set_cols(m, cols)
    _set_entries(m, entries)
    _set_order(m, order)
    return m


def _at(order: int, x: CycloNumber) -> CycloNumber:
    """`x` as a factor of `cyclo._dot` at `order`, a multiple of its own:
    embedded there unless it is there already or is rational."""
    return x if x.order == order or len(x.nums) == 1 else x.embed(order)


def _update(row: list, f: CycloNumber, nonzero) -> None:
    """row[j] -= f * w in place for the (j, w) of `nonzero`, the nonzero
    entries of a pivot or basis row, each through the fused `cyclo._sub_mul`:
    `row`, `f` and every w share one order."""
    for j, w in nonzero:
        row[j] = _sub_mul(row[j], f, w)


def vec_is_zero(vector) -> bool:
    return all(v.is_zero() for v in vector)


class Subspace:
    """A linear subspace of F^n held as a canonical RREF basis (rows)."""

    __slots__ = ("ambient_dim", "basis")

    def __init__(self, ambient_dim: int, basis) -> None:
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(row) for row in basis))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors) -> "Subspace":
        """The span of `vectors`, as the nonzero rows of their reduced row
        echelon form: the rows are embedded once at the common order of all
        their scalars and eliminated in place by `Matrix._echelon`, with no
        `Matrix` built around them."""
        vecs = [[as_cyclo(v) for v in vec] for vec in vectors]
        for vec in vecs:
            if len(vec) != ambient_dim:
                raise ValueError("vector length differs from ambient dimension")
        if not vecs:
            return cls(ambient_dim, [])
        order = lcm(*{v.order for vec in vecs for v in vec})
        work = [[v if v.order == order else v.embed(order) for v in vec] for vec in vecs]
        work, pivots = Matrix._echelon(work, ambient_dim)
        return cls(ambient_dim, work[:len(pivots)])

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, [])

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        ident = Matrix.identity(ambient_dim)
        return cls(ambient_dim, [ident.row(i) for i in range(ambient_dim)])

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def contains(self, vector) -> bool:
        vec = [as_cyclo(v) for v in vector]
        if len(vec) != self.ambient_dim:
            raise ValueError("vector length differs from ambient dimension")
        # the vector is embedded once at the order of its sum with the basis
        order = lcm(*{v.order for v in vec}, *{w.order for row in self.basis for w in row})
        vec = [v if v.order == order else v.embed(order) for v in vec]
        for row in self.basis:
            nonzero = [(j, w if w.order == order else w.embed(order))
                       for j, w in enumerate(row) if any(w.nums)]
            c = vec[nonzero[0][0]]  # the coordinate at the row's pivot
            if any(c.nums):
                _update(vec, c, nonzero)
        return vec_is_zero(vec)

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        return Subspace.from_vectors(self.ambient_dim, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch")
        if self.is_zero() or other.is_zero():
            return Subspace.zero(self.ambient_dim)
        p, q = self.dim, other.dim
        # columns: basis of self, then negated basis of other; kernel rows glue them
        cols = []
        for i in range(self.ambient_dim):
            cols.append([self.basis[r][i] for r in range(p)] +
                        [-other.basis[r][i] for r in range(q)])
        glue = Matrix.from_rows(cols)
        combos = glue.kernel()
        # self's basis, embedded once at the order of the combinations
        order = glue.order
        rows = [[(j, w if w.order == order else w.embed(order))
                 for j, w in enumerate(row) if any(w.nums)] for row in self.basis]
        vectors = []
        for combo in combos.basis:
            vec = [CycloNumber.zero(order)] * self.ambient_dim
            for c, nonzero in zip(combo, rows):
                if any(c.nums):
                    _update(vec, -c, nonzero)
            vectors.append(vec)
        return Subspace.from_vectors(self.ambient_dim, vectors)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        if self.ambient_dim != other.ambient_dim or self.dim != other.dim:
            return False
        return all(tuple(a) == tuple(b) for a, b in zip(self.basis, other.basis))

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def to_json(self) -> dict:
        return {"ambient_dim": self.ambient_dim,
                "basis": [[v.to_json() for v in row] for row in self.basis]}

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"
