"""Gradings of sl(n,C): eigenspace construction, verification, labeling.

A grading is a direct-sum decomposition L = (+)_i L_i such that every
bracket [L_i, L_j] is zero or lands inside a single part.  Fine gradings
arise as common eigenspace decompositions of commuting diagonalizable
automorphism families; the four families for sl(3,C) live in `catalog`.
`Grading.from_json` is the one reader of a grading document, for the
library and for `grading verify --input` alike.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple

from . import cyclo
from .cyclo import CycloNumber, zeta
from .linalg import Matrix, Subspace
from .liealg import LieAlgebra, parse_element, special_linear
from .autgrp import (
    INNER,
    Automorphism,
    clock_matrix,
    compose,
    shift_matrix,
    eigenspaces,
    make_ad,
    make_out,
    swap_matrix,
)


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups; elements are reduced integer tuples."""

    cyclic_orders: tuple

    def __init__(self, cyclic_orders):
        orders = tuple(int(n) for n in cyclic_orders)
        if not orders or any(n < 1 for n in orders):
            raise ValueError("cyclic orders must be positive integers")
        object.__setattr__(self, "cyclic_orders", orders)

    @property
    def rank(self) -> int:
        return len(self.cyclic_orders)

    @property
    def order(self) -> int:
        total = 1
        for n in self.cyclic_orders:
            total *= n
        return total

    def zero(self) -> tuple:
        return (0,) * self.rank

    def reduce(self, element) -> tuple:
        if len(element) != self.rank:
            raise ValueError("element has the wrong number of components")
        return tuple(int(a) % n for a, n in zip(element, self.cyclic_orders))

    def add(self, a, b) -> tuple:
        return tuple((x + y) % n for x, y, n in zip(a, b, self.cyclic_orders))

    def elements(self) -> list:
        return list(itertools.product(*(range(n) for n in self.cyclic_orders)))

    def __str__(self):
        return " x ".join(f"Z{n}" for n in self.cyclic_orders)


def format_label(label) -> str:
    if len(label) == 1:
        return str(label[0])
    return "(" + ",".join(str(a) for a in label) + ")"


class Grading:
    """Direct-sum decomposition of a Lie algebra, optionally labeled."""

    __slots__ = ("algebra", "parts", "group", "labels", "_index")

    def __init__(self, algebra: LieAlgebra, parts, group: AbelianGroup | None = None,
                 labels=None):
        parts = tuple(parts)
        if not parts:
            raise ValueError("a grading needs at least one part")
        total = 0
        vectors = []
        for p in parts:
            if p.ambient_dim != algebra.dim:
                raise ValueError("part does not live in the algebra's coordinate space")
            if p.dim == 0:
                raise ValueError("grading parts must be nonzero")
            total += p.dim
            vectors.extend(p.basis)
        if total != algebra.dim:
            raise ValueError(f"part dimensions sum to {total}, expected {algebra.dim}")
        stacked = Matrix(len(vectors), algebra.dim,
                         [v[j] for v in vectors for j in range(algebra.dim)])
        if stacked.rank() != algebra.dim:
            raise ValueError("parts are not independent (not a direct sum)")
        if (group is None) != (labels is None):
            raise ValueError("group and labels must be supplied together")
        if labels is not None:
            labels = tuple(group.reduce(l) for l in labels)
            if len(labels) != len(parts):
                raise ValueError("one label per part required")
            if len(set(labels)) != len(labels):
                raise ValueError("labels must be injective")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(parts)})

    def __setattr__(self, name, value):
        raise AttributeError("Grading is immutable")

    @property
    def num_parts(self) -> int:
        return len(self.parts)

    @property
    def part_dims(self) -> tuple:
        return tuple(p.dim for p in self.parts)

    def part_index(self, subspace: Subspace) -> int | None:
        return self._index.get(subspace)

    def __eq__(self, other):
        if not isinstance(other, Grading):
            return NotImplemented
        return (self.algebra.n == other.algebra.n and self.parts == other.parts
                and self.group == other.group and self.labels == other.labels)

    def __hash__(self):
        return hash((self.algebra.n, self.parts, self.labels))

    def to_json(self) -> dict:
        data = {"n": self.algebra.n, "parts": [p.to_json() for p in self.parts]}
        if self.labels is not None:
            data["group"] = list(self.group.cyclic_orders)
            data["labels"] = [list(l) for l in self.labels]
        return data

    @classmethod
    def from_json(cls, data: dict) -> "Grading":
        """The grading of a `to_json` document, or of the {"grading": ...}
        wrapper that `grading coarsen --format json` writes.

        A basis vector is a named-basis string such as "E12 + E21" or a
        coordinate list whose entries are scalar dicts, ints or fraction
        strings such as "1/2"; a part's `ambient_dim` may be left out.
        """
        if "grading" in data and "parts" not in data:
            data = data["grading"]
        algebra = special_linear(int(data["n"]))
        bases = [(int(p.get("ambient_dim", algebra.dim)),
                  [_vector(row, algebra) for row in p["basis"]]) for p in data["parts"]]
        # before `Subspace.from_vectors` embeds any scalar
        cyclo.check_common_order(c.order for _, basis in bases for row in basis
                                 for c in row if isinstance(c, CycloNumber))
        parts = [Subspace.from_vectors(dim, basis) for dim, basis in bases]
        # `Grading` refuses labels without a group, or a group without labels
        group, labels = data.get("group"), data.get("labels")
        return cls(algebra, parts, None if group is None else AbelianGroup(group),
                   None if labels is None else [tuple(l) for l in labels])

    def __repr__(self):
        dims = ",".join(str(d) for d in self.part_dims)
        return f"Grading({self.num_parts} parts, dims [{dims}])"


def _vector(row, algebra: LieAlgebra):
    """One basis vector from JSON: a named-basis string or a coordinate list
    (ints and Fractions become scalars in `Subspace.from_vectors`)."""
    if isinstance(row, str):
        return parse_element(row, algebra).coords
    return [CycloNumber.from_json(c) if isinstance(c, dict)
            else Fraction(c) if isinstance(c, str) else c for c in row]


# --- construction from commuting automorphisms ------------------------------

def common_eigenspaces(gens) -> Grading:
    """Decompose the algebra into joint eigenspaces of commuting automorphisms.

    Parts are ordered lexicographically by their eigenvalue tuples, which
    makes the output independent of generator multiplicities and repeats.
    """
    gens = list(gens)
    if not gens:
        raise ValueError("need at least one automorphism")
    algebra = gens[0].algebra
    for f, g in itertools.combinations(gens, 2):
        if compose(f, g) != compose(g, f):
            raise ValueError("automorphisms do not commute")
    parts = [(Subspace.full(algebra.dim), ())]
    for g in gens:
        refined = []
        for space, tag in parts:
            for lam, eig in eigenspaces(g):
                meet = space.intersect(eig)
                if meet.dim:
                    refined.append((meet, tag + (lam,)))
        parts = refined
    parts.sort(key=lambda item: tuple(cyclo.sort_key(v) for v in item[1]))
    return Grading(algebra, [space for space, _ in parts])


# --- the grading axiom and labelings ----------------------------------------

@dataclass(frozen=True)
class GradingCertificate:
    """Outcome of verify_grading: the pair -> part map, or the failing pair."""

    ok: bool
    bracket_targets: dict
    violation: tuple | None = None

    def __bool__(self):
        return self.ok


def _bracket_span(algebra: LieAlgebra, left: Subspace, right: Subspace) -> Subspace:
    vectors = [algebra.bracket_coords(x, y) for x in left.basis for y in right.basis]
    return Subspace.from_vectors(algebra.dim, vectors)


@lru_cache(maxsize=8)
def verify_grading(g: Grading) -> GradingCertificate:
    """Check that every pairwise bracket span sits inside a single part.

    The certificate is cached for the last few gradings and shared between
    callers, who only read it."""
    targets = {}
    for i, j in itertools.product(range(g.num_parts), repeat=2):
        span = _bracket_span(g.algebra, g.parts[i], g.parts[j])
        if span.is_zero():
            targets[(i, j)] = None
            continue
        home = next((k for k, p in enumerate(g.parts) if p.contains_subspace(span)), None)
        if home is None:
            return GradingCertificate(False, targets, violation=(i, j))
        targets[(i, j)] = home
    return GradingCertificate(True, targets)


def verify_labeling(g: Grading, group: AbelianGroup, labels) -> bool:
    """Check [L_i, L_j] <= L_{labels(i)+labels(j)} for all bracket-active pairs."""
    labels = [group.reduce(l) for l in labels]
    if len(labels) != g.num_parts:
        raise ValueError("one label per part required")
    if len(set(labels)) != len(labels):
        raise ValueError("labels must be injective")
    cert = verify_grading(g)
    if not cert.ok:
        return False
    for (i, j), k in cert.bracket_targets.items():
        if k is not None and group.add(labels[i], labels[j]) != labels[k]:
            return False
    return True


def _part_maps(n: int, rules, candidates, combine):
    """Every injective map of parts 0..n-1 that keeps each rule, as a tuple.

    A rule (i, j, k) holds under phi when combine(phi(i), phi(j)) == phi(k),
    with phi(None) = None; part p takes its image from candidates[p].  Parts
    go by decreasing degree (occurrences in the rules), then by index, and
    images in candidate order.  A partial map is pruned as soon as a rule
    with both sources assigned contradicts an assigned target, or forces a
    target to None or to an image that another part already holds.
    """
    degree = [0] * n
    # rules whose consistency can change once a given part is assigned
    touching: list = [[] for _ in range(n)]
    for rule in rules:
        parts = [p for p in rule if p is not None]
        for p in parts:
            degree[p] += 1
        for p in set(parts):
            touching[p].append(rule)
    part_order = sorted(range(n), key=lambda p: (-degree[p], p))
    image: dict = {}
    used: set = set()

    def consistent(p: int) -> bool:
        for i, j, k in touching[p]:
            if i not in image or j not in image:
                continue
            want = combine(image[i], image[j])
            if k is None:
                if want is not None:
                    return False
            elif k in image:
                if image[k] != want:
                    return False
            elif want is None or want in used:
                return False  # k's forced image is None or another part's
        return True

    def extend(depth: int):
        if depth == n:
            yield tuple(image[p] for p in range(n))
            return
        p = part_order[depth]
        for q in candidates[p]:
            if q in used:
                continue
            image[p] = q
            used.add(q)
            if consistent(p):
                yield from extend(depth + 1)
            del image[p]
            used.discard(q)

    return extend(0)


def search_labeling(g: Grading, group: AbelianGroup):
    """Find an injective labeling satisfying the additivity rule, or None.

    The first additive map of parts into the group found by `_part_maps`,
    with the group elements in lexicographic order (the neutral element
    first: parts that bracket into themselves are forced to 0).
    """
    if group.order < g.num_parts:
        return None
    cert = verify_grading(g)
    if not cert.ok:
        return None
    rules = [(i, j, k) for (i, j), k in cert.bracket_targets.items() if k is not None]
    labels = next(_part_maps(g.num_parts, rules, [group.elements()] * g.num_parts,
                             group.add), None)
    return None if labels is None else list(labels)


def coarsen(g: Grading, partition) -> Grading:
    """Merge groups of parts; the result is NOT automatically a grading.

    `partition` is an iterable of index groups covering every part exactly
    once.  Run verify_grading on the result to decide whether the bracket
    axiom survived the merge.
    """
    groups = [list(block) for block in partition]
    flat = sorted(idx for block in groups for idx in block)
    if flat != list(range(g.num_parts)):
        raise ValueError("partition must cover every part index exactly once")
    merged = []
    for block in groups:
        space = g.parts[block[0]]
        for idx in block[1:]:
            space = space.add(g.parts[idx])
        merged.append(space)
    return Grading(g.algebra, merged)


# --- the sl(3,C) MAD-group catalog ------------------------------------------

@dataclass(frozen=True, eq=False)
class MadGroupSpec:
    """A maximal Abelian diagonalizable group, given by generators and shape.

    For infinite families the `membership` predicate encodes the defining
    matrix shape of the key's representative and `probes` carries generic
    family elements whose conjugates detect normalizer violations; finite
    families list their elements outright, and membership is lookup among
    them by key.

    A spec compares and hashes by identity: `mad_group_spec` builds each
    once, and its membership predicate has no value to compare.
    """

    name: str
    separating_generators: tuple
    membership: Callable[[Automorphism], bool]
    elements: tuple | None = None
    probes: tuple | None = None


def _diagonal_entries(m: Matrix):
    """The diagonal of m if every off-diagonal entry is zero, else None."""
    for i in range(m.rows):
        for j in range(m.cols):
            if i != j and not m[i, j].is_zero():
                return None
    return [m[i, i] for i in range(m.rows)]


def _g1_member(h: Automorphism) -> bool:
    kind, rep = h.key
    return kind == INNER and _diagonal_entries(rep) is not None


def _g3_member(h: Automorphism) -> bool:
    kind, m = h.key
    if kind == INNER:
        diag = _diagonal_entries(m)
        return diag is not None and diag[0] * diag[0] == diag[1] * diag[2]
    zero_pattern = all(m[i, j].is_zero()
                       for i in range(3) for j in range(3)
                       if (i, j) not in ((0, 0), (1, 2), (2, 1)))
    if not zero_pattern:
        return False
    p, q, r = m[0, 0], m[1, 2], m[2, 1]
    return not p.is_zero() and p * p == q * r


def _pauli_matrices() -> tuple:
    p, q = clock_matrix(), shift_matrix()
    out = []
    for k in range(3):
        for j in range(3):
            pk = Matrix.identity(3)
            for _ in range(k):
                pk = pk * p
            for _ in range(j):
                pk = pk * q
            out.append(pk)
    return tuple(out)


@lru_cache(maxsize=None)
def mad_group_spec(name: str) -> MadGroupSpec:
    if name == "g1":
        return MadGroupSpec(
            name="g1",
            separating_generators=(make_ad(Matrix.diagonal([1, zeta(3), 1])),
                                   make_ad(Matrix.diagonal([1, 1, zeta(3)]))),
            membership=_g1_member,
            probes=(make_ad(Matrix.diagonal([1, 2, 4])),),
        )
    if name == "g2":
        inner = [make_ad(Matrix.diagonal([1, 1, -1])),
                 make_ad(Matrix.diagonal([1, -1, 1]))]
        sign_diagonals = [Matrix.diagonal([1, 1, 1]), Matrix.diagonal([1, 1, -1]),
                          Matrix.diagonal([1, -1, 1]), Matrix.diagonal([1, -1, -1])]
        elements = tuple(make_ad(d) for d in sign_diagonals) + \
            tuple(make_out(d) for d in sign_diagonals)
        return MadGroupSpec(
            name="g2",
            separating_generators=tuple(inner) + (make_out(Matrix.identity(3)),),
            membership=frozenset(elements).__contains__,
            elements=elements,
        )
    if name == "g3":
        half = Fraction(1, 2)
        outer_probe = Matrix.from_rows([[1, 0, 0], [0, 0, 2], [0, half, 0]])
        return MadGroupSpec(
            name="g3",
            separating_generators=(make_ad(Matrix.diagonal([1, zeta(8), zeta(8, 7)])),
                                   make_out(swap_matrix())),
            membership=_g3_member,
            probes=(make_ad(Matrix.diagonal([1, 2, half])), make_out(outer_probe)),
        )
    if name == "g4":
        elements = tuple(make_ad(m) for m in _pauli_matrices())
        return MadGroupSpec(
            name="g4",
            separating_generators=(make_ad(clock_matrix()), make_ad(shift_matrix())),
            membership=frozenset(elements).__contains__,
            elements=elements,
        )
    raise ValueError(f"unknown MAD-group {name!r}; known: g1, g2, g3, g4")


def _span(algebra: LieAlgebra, matrices) -> Subspace:
    return Subspace.from_vectors(algebra.dim,
                                 [algebra.from_matrix(m) for m in matrices])


def _e(i: int, j: int) -> Matrix:
    entries = [[0] * 3 for _ in range(3)]
    entries[i - 1][j - 1] = 1
    return Matrix.from_rows(entries)


@lru_cache(maxsize=None)
def _expected_parts(name: str) -> tuple:
    """The published spanning matrices for each fine grading, in display order."""
    sl3 = special_linear(3)
    e = _e
    if name == "g1":
        cartan = _span(sl3, [Matrix.diagonal([1, -1, 0]), Matrix.diagonal([0, 1, -1])])
        singles = [e(1, 2), e(2, 3), e(1, 3), e(3, 1), e(3, 2), e(2, 1)]
        return (cartan,) + tuple(_span(sl3, [m]) for m in singles)
    if name == "g2":
        diag_part = _span(sl3, [Matrix.diagonal([1, -1, 0]), Matrix.diagonal([0, 1, -1])])
        singles = [e(2, 1) + e(1, 2), e(3, 1) + e(1, 3), e(2, 3) + e(3, 2),
                   e(2, 1) - e(1, 2), e(2, 3) - e(3, 2), e(3, 1) - e(1, 3)]
        return (diag_part,) + tuple(_span(sl3, [m]) for m in singles)
    if name == "g3":
        singles = [e(2, 2) - e(3, 3),
                   e(1, 2) - e(3, 1),
                   e(2, 3),
                   e(1, 3) + e(2, 1),
                   e(1, 1).scale(2) - e(2, 2) - e(3, 3),
                   e(1, 2) + e(3, 1),
                   e(3, 2),
                   e(1, 3) - e(2, 1)]
        return tuple(_span(sl3, [m]) for m in singles)
    if name == "g4":
        p, q = clock_matrix(), shift_matrix()
        monomials = [p, p * p, q, q * q, p * q, p * p * q, p * q * q, p * p * q * q]
        return tuple(_span(sl3, [m]) for m in monomials)
    raise ValueError(f"unknown grading {name!r}")


_CATALOG_LABELS = {
    "g2": ((2, 2, 2), [(0, 0, 1), (1, 1, 1), (1, 0, 1), (0, 1, 1),
                       (1, 1, 0), (0, 1, 0), (1, 0, 0)]),
    "g3": ((8,), [(0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,)]),
    "g4": ((3, 3), [(1, 0), (2, 0), (0, 1), (0, 2),
                    (1, 1), (2, 1), (1, 2), (2, 2)]),
}


class CatalogEntry(NamedTuple):
    """A catalog grading and the MAD-group spec it is built from."""

    spec: MadGroupSpec
    grading: Grading


CATALOG_NAMES = ("g1", "g2", "g3", "g4")


@lru_cache(maxsize=None)
def catalog(name: str) -> CatalogEntry:
    """Build one of the four fine gradings of sl(3,C) from its MAD-group.

    The parts are computed as common eigenspaces of the separating
    generators and then reordered to the published display order; a
    mismatch between computed and published spans raises immediately.
    """
    spec = mad_group_spec(name)
    computed = common_eigenspaces(spec.separating_generators)
    expected = _expected_parts(name)
    if len(expected) != computed.num_parts:
        raise ArithmeticError(
            f"{name}: computed {computed.num_parts} parts, published {len(expected)}")
    reordered = []
    for want in expected:
        idx = computed.part_index(want)
        if idx is None:
            raise ArithmeticError(f"{name}: a published part is not a computed eigenspace")
        reordered.append(computed.parts[idx])
    if name == "g1":
        group = AbelianGroup((3, 3))
        base = Grading(computed.algebra, reordered)
        labels = search_labeling(base, group)
        if labels is None:
            raise ArithmeticError("g1: no Z3 x Z3 labeling found")
    else:
        orders, labels = _CATALOG_LABELS[name]
        group = AbelianGroup(orders)
    grading = Grading(computed.algebra, reordered, group, labels)
    return CatalogEntry(spec, grading)
