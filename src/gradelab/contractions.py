"""Binary graded contractions: equation generation, solving, symmetry orbits.

Scaling each homogeneous block of a labeled grading by a parameter
eps_{ij} = eps_{ji} in {0,1} preserves the Jacobi identity iff the
parameters satisfy quadratic relations.  These are derived here from first
principles: for each basis triple the contracted Jacobi residual is
m1*T1 + m2*T2 + m3*T3 with T1+T2+T3 = 0, where each m is a product of two
eps variables, so exact rank analysis of the T vectors determines which
monomial relations are forced.  Over {0,1} every forced relation collapses
to an equality chain between monomials (a weighted relation a*m1 + b*m2 =
(a+b)*m3 with nonzero weights has only the constant binary solutions).
So an `Equation` is always an equality chain; no other relation is
generated.  Criterion 7 of `gradelab selfcheck` certifies that nothing is
lost: on all four catalog gradings the sweep of the equations agrees with
`sweep_oracle`, which reads only the Jacobi residuals, never the equations.

The independent ground truth is `jacobi_oracle`, a direct Jacobi check on
the contracted structure constants: the `liealg.StructureTable` of the
grading-adapted basis with the blocks switched off dropped
(`contracted_structure`).  The test suite verifies the generated system
against it exhaustively over the constrained variables.  An
assignment of the eps parameters is a bit mask: bit i is the value of
`ContractionSystem.variables[i]`.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import and_, xor
from typing import NamedTuple

import numpy as np

from .linalg import Matrix, vec_is_zero
from .liealg import StructureTable, jacobi_table_holds
from .gradings import Grading, format_label
from .normalizers import Permutation, PermutationGroup

DEFAULT_NODE_CAP = 2_000_000
NODE_CAP_ENV = "GRADELAB_NODE_CAP"
CHUNK_BITS = 20             # a sweep enumerates 2^CHUNK_BITS assignments at a time
MATERIALIZE_CAP = 1 << 22   # largest solution set that full-set orbits materialize


def pair_key(a, b):
    """Canonical unordered pair of labels."""
    return (a, b) if a <= b else (b, a)


def format_pair(pair) -> str:
    return f"{{{format_label(pair[0])},{format_label(pair[1])}}}"


@dataclass(frozen=True)
class Equation:
    """All listed monomials take a common value: an equality chain.

    A monomial is a pair (u, v) of variable indices, u <= v, standing for
    the product eps_u * eps_v.  Provenance records one basis triple that
    forced the relation and the pivot coordinates certifying the rank of
    its residual vectors.
    """

    monomials: tuple
    triple: tuple
    pivot_coords: tuple
    rank: int

    def __str__(self):
        return " = ".join(f"m({u},{v})" for u, v in self.monomials)


class ContractionSystem:
    """The quadratic relations of a labeled grading over named pair variables."""

    __slots__ = ("grading", "variables", "var_index", "equations",
                 "active", "free", "_combo_tables")

    def __init__(self, grading: Grading, variables, equations, combo_tables):
        object.__setattr__(self, "grading", grading)
        object.__setattr__(self, "variables", tuple(variables))
        object.__setattr__(self, "var_index",
                           {p: i for i, p in enumerate(variables)})
        object.__setattr__(self, "equations", tuple(equations))
        in_eq = set()
        for eq in equations:
            for u, v in eq.monomials:
                in_eq.add(u)
                in_eq.add(v)
        object.__setattr__(self, "active", tuple(sorted(in_eq)))
        object.__setattr__(self, "free",
                           tuple(i for i in range(len(self.variables))
                                 if i not in in_eq))
        object.__setattr__(self, "_combo_tables", combo_tables)

    def __setattr__(self, name, value):
        raise AttributeError("ContractionSystem is immutable")

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    def mask_to_assignment(self, mask: int) -> dict:
        """{pair: bit}: variable i reads bit i of the mask."""
        return {p: (mask >> i) & 1 for i, p in enumerate(self.variables)}

    def to_json(self) -> dict:
        return {
            "variables": [[list(a), list(b)] for a, b in self.variables],
            "free_variables": list(self.free),
            "equations": [{
                "monomials": [list(m) for m in eq.monomials],
                "rhs_zero": False,
                "triple": list(eq.triple),
                "pivot_coords": list(eq.pivot_coords),
                "rank": eq.rank,
            } for eq in self.equations],
        }

    def __repr__(self):
        return (f"ContractionSystem({self.num_variables} variables, "
                f"{len(self.equations)} equations, {len(self.free)} free)")


@dataclass(frozen=True)
class _ComboTable:
    """Per-triple oracle data: monomial factor variables and allowed codes.

    factor_vars holds three (u, v) pairs or None for a term whose T vector
    vanishes; allowed is an 8-bit mask over codes m1 | m2<<1 | m3<<2 of the
    binary combinations with zero residual.
    """

    factor_vars: tuple
    allowed: int


def _adapted_basis(g: Grading):
    """Flattened part bases: coordinate vectors, their part index, and names."""
    vectors, parts, names = [], [], []
    for i, part in enumerate(g.parts):
        for r, v in enumerate(part.basis):
            vectors.append(v)
            parts.append(i)
            suffix = f".{r}" if part.dim > 1 else ""
            names.append(f"L{format_label(g.labels[i])}{suffix}")
    return vectors, parts, names


def generate_equations(g: Grading) -> ContractionSystem:
    """Derive the monomial relations forced by Jacobi on the contracted bracket."""
    if g.labels is None:
        raise ValueError("grading must be labeled to generate contraction equations")
    algebra = g.algebra
    group = g.group
    labels = list(g.labels)
    realized = set(labels)
    variables = sorted(pair_key(a, b)
                       for i, a in enumerate(labels) for b in labels[i:])
    var_index = {p: i for i, p in enumerate(variables)}

    vectors, part_of, names = _adapted_basis(g)

    def term(li, lj, lk, t_vec):
        """Monomial of eps_{ij} eps_{i+j,k}, or None if its T vector is void."""
        total = group.add(li, lj)
        if total not in realized:
            if not vec_is_zero(t_vec):
                raise ArithmeticError(
                    "bracket lands outside the realized labels; grading is invalid")
            return None
        if vec_is_zero(t_vec):
            return None
        u = var_index[pair_key(li, lj)]
        v = var_index[pair_key(total, lk)]
        return (u, v) if u <= v else (v, u)

    seen = {}
    equations = []
    combo_tables = []
    for a, b, c in itertools.combinations(range(len(vectors)), 3):
        xa, xb, xc = vectors[a], vectors[b], vectors[c]
        la, lb, lc = (labels[part_of[a]], labels[part_of[b]], labels[part_of[c]])
        t1 = algebra.bracket_coords(algebra.bracket_coords(xa, xb), xc)
        t2 = algebra.bracket_coords(algebra.bracket_coords(xb, xc), xa)
        t3 = algebra.bracket_coords(algebra.bracket_coords(xc, xa), xb)
        terms = [(term(la, lb, lc, t1), t1),
                 (term(lb, lc, la, t2), t2),
                 (term(lc, la, lb, t3), t3)]

        combo_tables.append(_ComboTable(
            factor_vars=tuple(mono for mono, _ in terms),
            allowed=_allowed_mask((t1, t2, t3))))

        merged: dict = {}
        for mono, t_vec in terms:
            if mono is None:
                continue
            if mono in merged:
                merged[mono] = [x + y for x, y in zip(merged[mono], t_vec)]
            else:
                merged[mono] = list(t_vec)
        coeffs = {mono: vec for mono, vec in merged.items() if not vec_is_zero(vec)}
        if len(coeffs) <= 1:
            # an isolated nonzero coefficient is impossible since T1+T2+T3 = 0
            if coeffs:
                raise ArithmeticError("Jacobi residual with a single surviving term")
            continue
        monomials = tuple(sorted(coeffs))
        _, pivots = Matrix.from_rows(coeffs.values()).rref()
        key = monomials
        if key not in seen:
            eq = Equation(monomials=monomials,
                          triple=(names[a], names[b], names[c]),
                          pivot_coords=pivots, rank=len(pivots))
            seen[key] = eq
            equations.append(eq)
    return ContractionSystem(g, variables, equations, tuple(combo_tables))


def _allowed_mask(terms) -> int:
    """Bit `code` is set when the T vectors that `code` picks sum to zero."""
    nonzero = [not vec_is_zero(t) for t in terms]
    mask = 0
    for code in range(8):
        picked = [t for i, t in enumerate(terms) if code >> i & 1 and nonzero[i]]
        if len(picked) < 2:
            zero = not picked
        else:
            zero = vec_is_zero([sum(column[1:], column[0]) for column in zip(*picked)])
        if zero:
            mask |= 1 << code
    return mask


# --- the contracted algebra and its Jacobi oracle ----------------------------

@lru_cache(maxsize=8)
def _uncontracted_adapted(g: Grading):
    """Part index of each adapted basis vector, and the `StructureTable` of
    the adapted basis in its own coordinates."""
    vectors, part_of, _ = _adapted_basis(g)
    dim = g.algebra.dim
    basis_matrix = Matrix(dim, dim,
                          [vectors[r][c] for r in range(dim) for c in range(dim)])
    to_adapted = basis_matrix.inverse().transpose()
    upper = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            br = g.algebra.bracket_coords(vectors[i], vectors[j])
            coords = to_adapted.apply(br)
            upper[(i, j)] = {k: c for k, c in enumerate(coords) if not c.is_zero()}
    return part_of, StructureTable(dim, upper)


def contracted_structure(g: Grading, eps: dict) -> StructureTable:
    """Structure constants with each block (i,j) scaled by the bit of its
    label pair in `eps`, a {pair_key: bit} dict as `mask_to_assignment`
    returns: the blocks switched on are kept, the others dropped."""
    if g.labels is None:
        raise ValueError("grading must be labeled to contract it")
    part_of, table = _uncontracted_adapted(g)
    label_of = [g.labels[part] for part in part_of]
    return StructureTable(table.dim, {(i, j): entry for (i, j), entry in table.upper.items()
                                      if eps[pair_key(label_of[i], label_of[j])]})


def jacobi_oracle(candidate: StructureTable) -> bool:
    """Ground truth: does the scaled bracket satisfy the Jacobi identity."""
    return jacobi_table_holds(candidate)


# --- exhaustive binary sweeps (numpy) ----------------------------------------

_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
# Bit b of a sweep word is the assignment whose low six active variables are
# the bits of b: active position pos < 6 reads as the fixed pattern below.
_LOW_PATTERNS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> pos & 1))
                      for pos in range(6))


def _sweep(system: ContractionSystem, narrow) -> np.ndarray:
    """Sorted masks of the active assignments that `narrow` keeps.

    Enumerates the 2^len(active) assignments bit-sliced, 64 to a uint64 word
    (assignment number 64*w + b is bit b of word w), 2^CHUNK_BITS
    assignments at a time.  Active position pos < 6 is a fixed 64-bit
    pattern; a higher position is an all-ones or all-zeros word, bit pos - 6
    of the word index.  For each chunk, `narrow(cols, ok)` receives the word
    column of every active variable (keyed by variable index) and clears,
    in place, the bits of `ok` whose assignments fail.  Only the words of
    `ok` with a bit left are unpacked into assignment numbers.  The kept
    masks carry their bits at the variable indices, free bits zero.
    """
    active = system.active
    n = len(active)
    if n > 30:
        raise ValueError(f"brute-force sweep over 2^{n} assignments refused")
    keep = []
    total_words = 1 << max(n - 6, 0)
    chunk_words = 1 << max(CHUNK_BITS - 6, 0)
    # with fewer than six variables, one word holds every assignment and its
    # high bits stand for none
    tail = _ALL_ONES if n >= 6 else np.uint64((1 << (1 << n)) - 1)
    for start in range(0, total_words, chunk_words):
        words = np.arange(start, min(start + chunk_words, total_words),
                          dtype=np.uint64)
        cols = {v: _LOW_PATTERNS[pos] if pos < 6 else
                np.uint64(0) - ((words >> np.uint64(pos - 6)) & np.uint64(1))
                for pos, v in enumerate(active)}
        ok = np.full(words.shape, tail, dtype=np.uint64)
        narrow(cols, ok)
        hit = np.flatnonzero(ok)
        bits = np.flatnonzero(np.unpackbits(
            ok[hit].astype("<u8", copy=False).view(np.uint8), bitorder="little"))
        # bit b of the k-th surviving word is assignment 64*(start + hit[k]) + b;
        # int64 throughout, as n <= 30 keeps every number far below 2^63
        keep.append((hit[bits >> 6] + start) << 6 | bits & 63)
    # `active` is increasing, so the scatter keeps the masks sorted
    return apply_variable_permutation(np.concatenate(keep).astype(np.uint64), active)


def sweep_equations(system: ContractionSystem) -> np.ndarray:
    """All assignments of the active variables satisfying every equation.

    Enumerates 2^len(active) assignments by brute force; returns the sorted
    masks (bits positioned at the variable indices, free bits zero).
    """
    def narrow(cols, ok):
        for eq in system.equations:
            first, *rest = [cols[u] & cols[v] for u, v in eq.monomials]
            for val in rest:
                ok &= ~(first ^ val)
            if not ok.any():
                return

    return _sweep(system, narrow)


def _forbidden_products(factor_vars, allowed: int) -> frozenset:
    """The forbidden codes of a residual table in algebraic normal form.

    The codes outside `allowed` are a Boolean function of the three
    monomials m1, m2, m3 (code m1 | m2<<1 | m3<<2); its Moebius transform
    writes it as the XOR of products of monomials.  A product with a void
    term reads 0 and is dropped.  A product is returned as the frozenset of
    the variables it ANDs, so a repeated factor counts once (x*x = x), and
    two products on the same variables cancel (x ^ x = 0); the empty
    product is the constant 1.
    """
    coeff = [~allowed >> code & 1 for code in range(8)]
    for slot in range(3):
        for code in range(8):
            if code >> slot & 1:
                coeff[code] ^= coeff[code ^ 1 << slot]
    products = set()
    for code in range(8):
        slots = [slot for slot in range(3) if code >> slot & 1]
        if coeff[code] and all(factor_vars[slot] is not None for slot in slots):
            products ^= {frozenset(v for slot in slots for v in factor_vars[slot])}
    return frozenset(products)


def sweep_oracle(system: ContractionSystem, pin: int = 1) -> np.ndarray:
    """All active assignments passing the per-triple residual tables.

    Independent route: uses only exact residual evaluations of the Jacobi
    T vectors, never the generated equations.  Each table's forbidden codes
    are compiled once into XOR form (`_forbidden_products`); variables
    outside the active set are pinned to `pin` there, so a product drops
    them (pin 1) or vanishes (pin 0), and tables that compile alike are
    swept once.  Pinned-variable irrelevance is a structural fact (their
    blocks bracket to zero) asserted in the test suite.
    """
    active = frozenset(system.active)
    tables = {}  # insertion-ordered set of the compiled tables
    for ct in system._combo_tables:
        products = set()
        for product in _forbidden_products(ct.factor_vars, ct.allowed):
            if pin or product <= active:
                products ^= {product & active}
        if products:
            tables[frozenset(products)] = None

    def narrow(cols, ok):
        for products in tables:
            ok &= ~reduce(xor, [reduce(and_, [cols[v] for v in product])
                                if product else _ALL_ONES for product in products])
            if not ok.any():
                return

    return _sweep(system, narrow)


# --- backtracking over the equality chains ------------------------------------

class NodeCapExceeded(RuntimeError):
    def __init__(self, cap: int, nodes: int, solutions_so_far: int):
        super().__init__(
            f"solver exceeded the node cap of {cap} ({NODE_CAP_ENV}) at {nodes} nodes; "
            f"{solutions_so_far} solutions found before stopping")
        self.cap = cap
        self.nodes = nodes
        self.solutions_so_far = solutions_so_far


class SolutionSet:
    """The complete binary solution set, factored over unconstrained pairs.

    Stores one mask per solution of the constrained (active) variables; the
    free variables never occur in an equation, so the full set is the
    product of the stored masks with every free-bit pattern.  `masks` and
    `contains_mask` honor the full product set.
    """

    __slots__ = ("system", "active_masks")

    def __init__(self, system: ContractionSystem, active_masks: np.ndarray):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "active_masks", active_masks)

    def __setattr__(self, name, value):
        raise AttributeError("SolutionSet is immutable")

    @property
    def active_count(self) -> int:
        return int(self.active_masks.shape[0])

    def __len__(self) -> int:
        return self.active_count << len(self.system.free)

    def contains_mask(self, mask: int) -> bool:
        """Is `mask` a full solution; False for any int outside
        0..2^num_variables - 1, which no mask of the system reaches."""
        if not 0 <= mask < 1 << self.system.num_variables:
            return False
        free_bits = 0
        for f in self.system.free:
            free_bits |= 1 << f
        active_part = np.uint64(mask & ~free_bits)
        idx = np.searchsorted(self.active_masks, active_part)
        return bool(idx < self.active_masks.shape[0]
                    and self.active_masks[idx] == active_part)

    def free_cube(self) -> np.ndarray:
        """Every free-bit pattern, in binary counting order (first free bit
        lowest); [0] when no variable is free."""
        cube = [0]
        for f in self.system.free:
            cube += [bits | 1 << f for bits in cube]
        return np.array(cube, dtype=np.uint64)

    def masks(self):
        """Full solution masks, lazily, as Python ints: each active pattern in
        turn (row-major), combined with every pattern of `free_cube`."""
        cube = self.free_cube()
        return itertools.chain.from_iterable((base | cube).tolist()
                                             for base in self.active_masks)

    def __repr__(self):
        return (f"SolutionSet({self.active_count} constrained patterns x "
                f"2^{len(self.system.free)} free = {len(self)})")


def _node_cap_from_env() -> int:
    """The node budget set by GRADELAB_NODE_CAP, else the default."""
    env = os.environ.get(NODE_CAP_ENV)
    if not env:
        return DEFAULT_NODE_CAP
    try:
        cap = int(env)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"{NODE_CAP_ENV} must be a positive integer, not {env!r}")
    return cap


def solve_binary(system: ContractionSystem) -> SolutionSet:
    """Every binary solution, by backtracking over the equality chains.

    Branches on the constrained variables in a fixed greedy order (most
    monomials completed with the variables placed, then most occurrences,
    then lowest index) and checks only the chains of the variable just set:
    a monomial is known once a factor is 0 or both are 1, and a chain with
    two known monomials of different values kills the branch.  Free
    variables are carried symbolically by the returned SolutionSet.  Raises
    NodeCapExceeded past the node budget (GRADELAB_NODE_CAP, else
    DEFAULT_NODE_CAP), which covers the whole search.
    """
    node_cap = _node_cap_from_env()
    chains_of = {v: [] for v in system.active}
    for eq in system.equations:
        for v in {x for mono in eq.monomials for x in mono}:
            chains_of[v].append(eq.monomials)
    order: list = []
    for _ in chains_of:
        placed = set(order)
        order.append(max(chains_of.keys() - placed, key=lambda v: (
            sum(v in mono and set(mono) <= placed | {v}
                for chain in chains_of[v] for mono in chain),
            len(chains_of[v]), -v)))
    value = [-1] * system.num_variables
    solutions: list = []
    nodes = 0

    def holds(v) -> bool:
        for chain in chains_of[v]:
            common = -1
            for a, b in chain:
                x, y = value[a], value[b]
                m = 0 if x == 0 or y == 0 else 1 if x == y == 1 else -1
                if m != -1:
                    if common != -1 and common != m:
                        return False
                    common = m
        return True

    def dfs(depth, mask):
        nonlocal nodes
        nodes += 1
        if nodes > node_cap:
            raise NodeCapExceeded(node_cap, nodes, len(solutions))
        if depth == len(order):
            solutions.append(mask)
            return
        v = order[depth]
        for bit in (0, 1):
            value[v] = bit
            if holds(v):
                dfs(depth + 1, mask | bit << v)
        value[v] = -1

    dfs(0, 0)
    return SolutionSet(system, np.array(sorted(solutions), dtype=np.uint64))


# --- normalizer symmetry on solution sets -------------------------------------

def pair_variable_permutation(perm: Permutation, system: ContractionSystem) -> list:
    """How a part permutation pushes the pair variables around.

    Entry k is the index of the variable that position k maps to, i.e. the
    pushforward sends bit k of a solution mask to bit result[k].
    """
    g = system.grading
    if perm.degree != g.num_parts:
        raise ValueError("permutation degree does not match the grading")
    label_map = {g.labels[i]: g.labels[perm(i)] for i in range(g.num_parts)}
    result = []
    for a, b in system.variables:
        image = pair_key(label_map[a], label_map[b])
        result.append(system.var_index[image])
    return result


# Row b holds the eight bits of the byte b, lowest first.
_BYTE_BITS = ((np.arange(256, dtype=np.uint64)[:, None]
               >> np.arange(8, dtype=np.uint64)) & np.uint64(1))
_PUSH_BLOCK = 1 << 16  # masks pushed at a time, so that temporaries stay small


def apply_variable_permutation(masks: np.ndarray, varperm) -> np.ndarray:
    """Push an array of solution masks forward along a variable permutation.

    Bit k of a mask moves to bit varperm[k].  For each byte of the masks
    that varperm covers, a 256-entry table holds the pushed-forward bits of
    every byte value, so the whole push is one gather per byte.
    """
    n = len(varperm)
    weights = np.zeros(-(-n // 8) * 8, dtype=np.uint64)
    weights[:n] = np.uint64(1) << np.asarray(varperm, dtype=np.uint64)
    tables = (_BYTE_BITS * weights.reshape(-1, 1, 8)).sum(axis=2, dtype=np.uint64)
    data = np.ascontiguousarray(masks, dtype="<u8").view(np.uint8).reshape(-1, 8)
    out = np.zeros(data.shape[0], dtype=np.uint64)
    for lo in range(0, data.shape[0], _PUSH_BLOCK):
        block = out[lo:lo + _PUSH_BLOCK]
        for k, table in enumerate(tables):
            block |= np.take(table, data[lo:lo + _PUSH_BLOCK, k])
    return out.reshape(masks.shape)


class _NotInvariant(ValueError):
    """A symmetry maps the solution set off itself.  `is_invariant` catches
    only this, so a group of the wrong degree still raises."""


def _symmetries(solutions: SolutionSet, quotient: PermutationGroup) -> list:
    """(variable permutation, push of the constrained patterns) of each
    quotient element, once the solution set is known to be invariant.

    Raises ValueError if an element moves a free variable to a constrained
    one, or if its push of the constrained patterns, sorted, differs from
    them.  Otherwise the free bits are permuted among themselves and a bit
    permutation distributes over OR, so the element maps the product set
    onto itself: that is the whole invariance check.
    """
    system = solutions.system
    free = set(system.free)
    rows = solutions.active_masks
    symmetries = []
    for p in quotient.elements:
        vp = pair_variable_permutation(p, system)
        if any(vp[f] not in free for f in free):
            raise _NotInvariant("a symmetry moves a free variable to a constrained "
                                "one; the solution set is not invariant")
        pushed = apply_variable_permutation(rows, vp)
        if not np.array_equal(np.sort(pushed), rows):
            raise _NotInvariant("solution set is not invariant under the quotient")
        symmetries.append((vp, pushed))
    return symmetries


def is_invariant(solutions: SolutionSet, quotient: PermutationGroup) -> bool:
    """Exact check that every pushforward maps the solution set onto itself
    (`_symmetries` on every group element)."""
    try:
        _symmetries(solutions, quotient)
    except _NotInvariant:
        return False
    return True


class Orbit(NamedTuple):
    representative: int   # lexicographically least solution mask in the orbit
    size: int


def _block_orbits(masks: np.ndarray, images, order: int):
    """(representatives, orbit sizes) among one block of masks, from the
    block's image under each element of a group of `order` elements.

    A mask represents its orbit iff no image of it is smaller, and its orbit
    has order / |stabilizer| members, the stabilizer being the elements
    whose image of the mask is the mask itself.  Raises ValueError if a
    count is 0 or does not divide the order, which no group allows.
    """
    least = masks.copy()
    fixed = np.zeros(masks.shape, dtype=np.min_scalar_type(order))
    for image in images:
        np.minimum(least, image, out=least)
        fixed += image == masks
    if not fixed.all() or (order % fixed).any():
        raise ValueError(f"the {order} quotient elements are not a group: a mask's "
                         f"stabilizer count is 0 or does not divide {order}")
    first = least == masks
    return masks[first], order // fixed[first]


def symmetry_orbits(solutions: SolutionSet, quotient: PermutationGroup,
                    include_free: bool = True) -> list:
    """Partition the solution set into orbits of the quotient action.

    `quotient.elements` must be a whole group (closed under composition):
    each orbit is then labeled by its least mask.  Invariance is decided
    once per element on the constrained patterns (`_symmetries`; ValueError
    if it fails).  Each block of masks is compared with its image under
    every element (`_block_orbits`): a mask no image undercuts is a
    representative, and the elements that fix it give its orbit size by
    orbit-stabilizer.  Only the representatives are sorted.  Returns Orbit
    records sorted by representative mask.

    Without include_free the orbits are those of the constrained patterns,
    i.e. solutions with every unconstrained pair switched off, a subset
    closed under the action; the patterns are the one block.  On the
    catalog gradings every unconstrained pair scales a zero bracket, so
    these orbits are the distinct contracted algebras up to the quotient;
    `burnside_orbit_count` counts them by a second route.  With include_free
    (the default; perfbench's `contract` workload lists these) the orbits
    are those of the whole product set, taken in blocks of about
    _PUSH_BLOCK masks (whole rows of the free-bit cube): an element's image
    of a block is its push of the block's patterns OR-ed (row-major) with
    its push of the cube, since a bit permutation distributes over OR.  No
    array spans the whole set, but the records and the time grow with it,
    so sets beyond MATERIALIZE_CAP are refused.
    """
    symmetries = _symmetries(solutions, quotient)
    order = quotient.order
    patterns = solutions.active_masks
    if not include_free:
        found = [_block_orbits(patterns, (pushed for _, pushed in symmetries), order)]
    else:
        total = len(solutions)
        if total > MATERIALIZE_CAP:
            raise ValueError(
                f"solution set of size {total} exceeds the materialization cap "
                f"{MATERIALIZE_CAP}; pass include_free=False")
        cube = solutions.free_cube()
        pushed_cubes = [apply_variable_permutation(cube, vp) for vp, _ in symmetries]
        row = np.dtype((np.uint64, (cube.size,)))
        step = max(1, _PUSH_BLOCK // cube.size)
        found = []
        for lo in range(0, patterns.size, step):
            bases = patterns[lo:lo + step]
            # One np.fromiter row per pattern, not the broadcast bases[:, None] | cube:
            # perfbench counts the masks an orbit pass builds by the elements np.fromiter
            # returns (contractions.materialized_masks), and would not see a broadcast.
            masks = np.fromiter((base | cube for base in bases), dtype=row,
                                count=bases.size).ravel()
            images = ((pushed[lo:lo + step, None] | pushed_cube).ravel()
                      for (_, pushed), pushed_cube in zip(symmetries, pushed_cubes))
            found.append(_block_orbits(masks, images, order))
        if not found:
            return []
    reps = np.concatenate([r for r, _ in found])
    sizes = np.concatenate([n for _, n in found])
    by_rep = np.argsort(reps)
    return list(map(Orbit, reps[by_rep].tolist(), sizes[by_rep].tolist()))


def burnside_orbit_count(solutions: SolutionSet, quotient: PermutationGroup) -> int:
    """Number of orbits of the quotient on the constrained patterns, by Burnside.

    A second route to `len(symmetry_orbits(..., include_free=False))`: each
    element contributes the constrained patterns its push fixes, and the
    orbit count is the sum over the group divided by the order.  Nothing is
    listed or sorted.  Raises ValueError if the set is not invariant
    (`_symmetries`) or the sum is not divisible by the order.
    """
    rows = solutions.active_masks
    total = sum(int(np.count_nonzero(pushed == rows))
                for _, pushed in _symmetries(solutions, quotient))
    if total % quotient.order:
        raise ValueError(f"Burnside sum {total} is not divisible by the group "
                         f"order {quotient.order}")
    return total // quotient.order
