"""Inner and outer automorphisms of sl(n,C) with exact linear actions.

An automorphism stores its kind and a projective representative matrix A
(no determinant normalization, so everything stays inside small cyclotomic
fields).  Its induced (n^2-1) x (n^2-1) action matrix on the fixed basis is
built from A the first time it is read, and kept; only the code that moves
vectors reads it (`apply_coords`, and `gradings.common_eigenspaces` for its
joint eigenspaces).

Inner:  Ad_A X = A^-1 X A.      Outer:  Out_A X = -(A^-1 X A)^T.

An automorphism's identity is its key: (kind, A scaled so that its first
nonzero entry is 1), built on first use and kept.  Equality, hashing,
`is_identity` and `order` read the key alone.  For n >= 3 no inner map is
outer and Ad_A = Ad_B iff A is a multiple of B (likewise Out), so equal keys
are exactly equal actions.  On sl(2) every automorphism is inner:
-X^T = J^-1 X J for traceless X, with J = [[0, 1], [-1, 0]], so
Out_A X = J^-1 (A^-1 X A) J = (AJ)^-1 X (AJ) and Out_A is keyed as Ad_(AJ).
`kind` and `rep` stay as built (a key never replaces them), so JSON output
keeps the representative it was given.

Composition and inversion work on representatives alone, never on actions:
  compose(f, g) applies g first; its representative is
  rep_g * rep_f            when g is inner,
  rep_g * rep_f^(-T)       when g is outer,
and the kind is inner iff the two kinds agree; inverse(f) has representative
rep_f^-1 when f is inner and rep_f^T when f is outer, and f's kind.  (Derived
by expanding the definitions; the tests check each rule against products and
inverses of the actions.)

Each automorphism also carries its inverse transpose rep^(-T), computed on
first use and kept.  Only an automorphism built from a bare representative
(a named one, one read from JSON, a `make_ad` or `make_out` result, a spec
element) eliminates, once.  A composition records its two factors instead,
and its inverse transpose is one 3x3 product of what they carry:
  rep_g^(-T) * rep_f^(-T)  when g is inner,
  rep_g^(-T) * rep_f       when g is outer,
the inverse transpose of the rules above.  The factors are dropped once the
product exists, and the rule is evaluated with an explicit stack, so a word
of any length is resolved without recursion.  inverse(f) eliminates nothing
once f carries its inverse transpose, and hands it over: the inverse of an
inner f has representative (rep_f^(-T))^T and carries rep_f^T; the inverse
of an outer f has representative rep_f^T and carries (rep_f^(-T))^T.  The
action reads rep^-1 as (rep^(-T))^T as well.
"""
from __future__ import annotations

from .cyclo import CycloNumber, json_integer, zeta
from .linalg import Matrix, _exact
from .liealg import LieAlgebra, special_linear

INNER = "inner"
OUTER = "outer"

DEFAULT_ORDER_CAP = 96
CLOSURE_CAP = 10000  # most elements that a closure (`_bfs`) may hold


class Automorphism:
    __slots__ = ("algebra", "kind", "rep", "_action", "_inv_t", "_factors", "_key")

    def __init__(self, algebra: LieAlgebra, kind: str, rep: Matrix):
        if kind not in (INNER, OUTER):
            raise ValueError(f"kind must be {INNER!r} or {OUTER!r}")
        if (rep.rows, rep.cols) != (algebra.n, algebra.n):
            raise ValueError("representative has the wrong shape")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "rep", rep)
        object.__setattr__(self, "_action", None)
        object.__setattr__(self, "_inv_t", None)
        object.__setattr__(self, "_factors", None)
        object.__setattr__(self, "_key", None)

    def __setattr__(self, name, value):
        raise AttributeError("Automorphism is immutable")

    @property
    def action(self) -> Matrix:
        """The action matrix on the basis, built on first use."""
        if self._action is None:
            object.__setattr__(self, "_action", _action_matrix(self))
        return self._action

    def _inverse_transpose(self) -> Matrix:
        """rep^(-T), computed on first use and kept: the product of what a
        composition's factors carry, or else the inverse of rep^T."""
        if self._inv_t is None:
            _resolve_inverse_transposes(self)
        return self._inv_t

    @property
    def key(self) -> tuple:
        """(kind, rep scaled so that its first nonzero entry is 1), on sl(2)
        with an outer map keyed as Ad_(AJ); built on first use and kept."""
        if self._key is None:
            kind, rep = self.kind, self.rep
            if kind == OUTER and rep.rows == 2:
                kind, rep = INNER, rep * _SL2_J
            lead = next(e for e in rep.entries if not e.is_zero())
            if lead != 1:
                rep = rep.scale(lead.inverse())
            object.__setattr__(self, "_key", (kind, rep))
        return self._key

    def apply_coords(self, coords) -> tuple:
        return self.action.apply(coords)

    def is_identity(self) -> bool:
        return self.key == (INNER, Matrix.identity(self.algebra.n))

    def __eq__(self, other):
        if not isinstance(other, Automorphism):
            return NotImplemented
        return self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def to_json(self) -> dict:
        return {"kind": self.kind, "rep": self.rep.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "Automorphism":
        # the algebra first: its size bound refuses sl(40) before the
        # 1600 entries of a 40x40 representative are parsed
        algebra = special_linear(json_integer(data["rep"]["rows"], "rows"))
        rep = Matrix.from_json(data["rep"])
        auto = cls(algebra, data["kind"], rep)
        auto._inverse_transpose()  # a singular representative fails here
        return auto

    def __repr__(self):
        tag = "Ad" if self.kind == INNER else "Out"
        return f"{tag}({self.rep!r})"


# -X^T = J^-1 X J on sl(2), so Out_A = Ad_(AJ) there
_SL2_J = Matrix.from_rows([[0, 1], [-1, 0]])


def _action_matrix(f: Automorphism) -> Matrix:
    """The action on the basis of `liealg` (E_ij for i != j row-major, then
    H_k = E_kk - E_(k+1)(k+1)): column c holds the coordinates of the image
    of basis element c.

    With S = rep^-1, Ad_A E_ij = S E_ij A is the outer product of column i
    of S and row j of A, and Ad_A H_k is the difference of two such
    products.  Out_A X = -(S X A)^T negates and transposes: Out_A E_ij is the
    outer product of column j of -A^T and row i of S^T = rep^(-T).  No matrix
    product is formed, and every scalar has the representative's order.
    """
    n, rep, inv_t = f.algebra.n, f.rep, f._inverse_transpose()
    if f.kind == INNER:
        left, right = inv_t.transpose().entries, rep.entries
    else:
        left, right = tuple([-e for e in rep.transpose().entries]), inv_t.entries
    zero = CycloNumber.zero(rep.order)

    def outer(a, b):
        """Column a of `left` times row b of `right`, flat and row-major."""
        row = right[b * n:(b + 1) * n]
        return [zero if x.is_zero() or y.is_zero() else x * y
                for x in left[a::n] for y in row]

    swap, coords = f.kind != INNER, f.algebra._coords
    cols = [coords(outer(j, i) if swap else outer(i, j), rep.order)
            for i in range(n) for j in range(n) if i != j]
    diag = [outer(k, k) for k in range(n)]
    cols += [coords([x - y for x, y in zip(diag[k], diag[k + 1])], rep.order)
             for k in range(n - 1)]
    dim = f.algebra.dim
    return _exact(dim, dim, tuple([cols[j][i] for i in range(dim) for j in range(dim)]),
                  rep.order)


def make_ad(a: Matrix) -> Automorphism:
    return Automorphism(special_linear(a.rows), INNER, a)


def make_out(a: Matrix) -> Automorphism:
    return Automorphism(special_linear(a.rows), OUTER, a)


def identity_automorphism(n: int = 3) -> Automorphism:
    return make_ad(Matrix.identity(n))


def compose(f: Automorphism, g: Automorphism) -> Automorphism:
    """The automorphism "apply g, then f"."""
    if f.algebra.n != g.algebra.n:
        raise ValueError("automorphisms of different algebras")
    if g.kind == INNER:
        rep = g.rep * f.rep
    else:
        rep = g.rep * f._inverse_transpose()
    kind = INNER if f.kind == g.kind else OUTER
    h = Automorphism(f.algebra, kind, rep)
    object.__setattr__(h, "_factors", (f, g))
    return h


def _resolve_inverse_transposes(h: Automorphism) -> None:
    """Give h its rep^(-T), and every factor of h's word that it needs.

    A depth-first walk over an explicit stack: a composition waits until
    the factors its rule reads carry theirs, then takes one product and
    drops its factors; an automorphism without factors is eliminated.
    """
    stack = [h]
    while stack:
        h = stack[-1]
        if h._inv_t is not None:
            stack.pop()
            continue
        if h._factors is None:
            inv_t = h.rep.transpose().inverse()
        else:
            f, g = h._factors  # h = compose(f, g); an outer g made f carry its own
            inner = g.kind == INNER
            pending = [x for x in ((g, f) if inner else (g,)) if x._inv_t is None]
            if pending:
                stack += pending
                continue
            inv_t = g._inv_t * (f._inv_t if inner else f.rep)
            object.__setattr__(h, "_factors", None)
        object.__setattr__(h, "_inv_t", inv_t)
        stack.pop()


def inverse(f: Automorphism) -> Automorphism:
    rep_inv, rep_t = f._inverse_transpose().transpose(), f.rep.transpose()
    if f.kind == INNER:
        return _carrying(f, rep_inv, rep_t)
    return _carrying(f, rep_t, rep_inv)


def _carrying(f: Automorphism, rep: Matrix, inv_t: Matrix) -> Automorphism:
    """An automorphism of f's algebra and kind that carries inv_t = rep^(-T)."""
    g = Automorphism(f.algebra, f.kind, rep)
    object.__setattr__(g, "_inv_t", inv_t)
    return g


def conjugate(h: Automorphism, g: Automorphism) -> Automorphism:
    """h^-1 . g . h (apply h, then g, then h^-1)."""
    return compose(inverse(h), compose(g, h))


def order(f: Automorphism) -> int:
    """Multiplicative order of f; InfiniteOrderError past DEFAULT_ORDER_CAP."""
    power = f
    for k in range(1, DEFAULT_ORDER_CAP + 1):
        if power.is_identity():
            return k
        power = compose(f, power)
    raise InfiniteOrderError(
        f"order exceeds cap {DEFAULT_ORDER_CAP}; pass finite-order separating generators")


class InfiniteOrderError(ValueError):
    pass


class ClosureCapExceeded(ValueError):
    def __init__(self, cap: int):
        super().__init__(f"group closure exceeded cap of {cap} elements")
        self.cap = cap


def _bfs(start, generators, step, key, audit=None) -> dict:
    """Breadth-first closure of start under step(generator, element).

    Returns {key(element): element} in discovery order.  Every candidate is
    first passed to audit(key, candidate, seen), if given; a candidate whose
    key is already seen is then dropped.  Raises ClosureCapExceeded rather
    than hold more than CLOSURE_CAP elements.
    """
    seen = {key(start): start}
    frontier = [start]
    while frontier:
        nxt = []
        for elem in frontier:
            for gen in generators:
                cand = step(gen, elem)
                k = key(cand)
                if audit is not None:
                    audit(k, cand, seen)
                if k in seen:
                    continue
                if len(seen) >= CLOSURE_CAP:
                    raise ClosureCapExceeded(CLOSURE_CAP)
                seen[k] = cand
                nxt.append(cand)
        frontier = nxt
    return seen


def automorphism_closure(generators) -> list[Automorphism]:
    """All products of the given automorphisms (a finite group), BFS order."""
    gens = list(generators)
    if not gens:
        return []
    start = identity_automorphism(gens[0].algebra.n)
    return list(_bfs(start, gens, compose, lambda f: f))


# --- the named 3x3 matrices used throughout the catalog ---------------------

def clock_matrix() -> Matrix:
    """diag(1, w, w^2) with w a primitive cube root of unity."""
    w = zeta(3)
    return Matrix.diagonal([1, w, w * w])


def shift_matrix() -> Matrix:
    """Cyclic shift: e1 -> e3 -> e2 -> e1 (rows (0,1,0),(0,0,1),(1,0,0))."""
    return Matrix.from_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])


def swap_matrix() -> Matrix:
    """Transposition of the last two coordinates."""
    return Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 1, 0]])


def quarter_phase_matrix() -> Matrix:
    """diag(1, i, i)."""
    i = zeta(4)
    return Matrix.diagonal([1, i, i])


def third_phase_matrix() -> Matrix:
    """diag(1, 1, w) with w a primitive cube root of unity."""
    return Matrix.diagonal([1, 1, zeta(3)])


def sylvester_matrix() -> Matrix:
    """The (unnormalized) Fourier matrix (w^(jk)); conjugates clock to shift."""
    w = zeta(3)
    return Matrix.from_rows([[w ** ((j * k) % 3) for k in range(3)] for j in range(3)])


NAMED_AUTOMORPHISMS = {
    "AdP": lambda: make_ad(clock_matrix()),
    "AdQ": lambda: make_ad(shift_matrix()),
    "AdB1": lambda: make_ad(shift_matrix()),
    "AdB2": lambda: make_ad(swap_matrix()),
    "AdH": lambda: make_ad(quarter_phase_matrix()),
    "AdD": lambda: make_ad(third_phase_matrix()),
    "AdS": lambda: make_ad(sylvester_matrix()),
    "OutI": lambda: make_out(Matrix.identity(3)),
}


def named_automorphism(name: str) -> Automorphism:
    try:
        factory = NAMED_AUTOMORPHISMS[name]
    except KeyError:
        known = ", ".join(sorted(NAMED_AUTOMORPHISMS))
        raise ValueError(f"unknown automorphism {name!r}; known: {known}") from None
    return factory()
