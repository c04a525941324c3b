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
Both sweep equality chains: the oracle reads each residual table as the
chain of its nonzero terms, the one shape T1+T2+T3 = 0 leaves, and refuses
a table of any other shape.

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
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType
from typing import NamedTuple

import numpy as np

# the node cap's exception lives in numpy-free autgrp, so the CLI catches it
# without importing this module; it stays importable from here
from .autgrp import NODE_CAP_ENV, NodeCapExceeded
from .linalg import Matrix, vec_is_zero
from .liealg import StructureTable, jacobi_table_holds
from .gradings import Grading, format_label
from .normalizers import Permutation, PermutationGroup

DEFAULT_NODE_CAP = 2_000_000
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
    binary combinations with zero residual, which `_table_chain` reads as
    an equality chain.
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


@lru_cache(maxsize=8)
def _adapted_brackets(g: Grading) -> MappingProxyType:
    """{(i, j): [x_i, x_j]} in the original coordinates, for each pair i < j
    of adapted basis vectors (`_adapted_basis`); shared by
    `generate_equations` and `_uncontracted_adapted`, so each is computed once."""
    vectors, _, _ = _adapted_basis(g)
    return MappingProxyType({(i, j): g.algebra.bracket_coords(vectors[i], vectors[j])
                             for i, j in itertools.combinations(range(len(vectors)), 2)})


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

    # each inner bracket [x_i, x_j], i < j, once; [x_c, x_a] is -[x_a, x_c]
    inner = _adapted_brackets(g)
    seen = set()
    equations = []
    combo_tables = []
    for a, b, c in itertools.combinations(range(len(vectors)), 3):
        xa, xb, xc = vectors[a], vectors[b], vectors[c]
        la, lb, lc = (labels[part_of[a]], labels[part_of[b]], labels[part_of[c]])
        t1 = algebra.bracket_coords(inner[a, b], xc)
        t2 = algebra.bracket_coords(inner[b, c], xa)
        t3 = algebra.bracket_coords([-x for x in inner[a, c]], xb)
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
        if monomials not in seen:
            seen.add(monomials)
            _, pivots = Matrix.from_rows(coeffs.values()).rref()
            equations.append(Equation(monomials=monomials,
                                      triple=(names[a], names[b], names[c]),
                                      pivot_coords=pivots, rank=len(pivots)))
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
    for (i, j), br in _adapted_brackets(g).items():
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
    return table._restricted(lambda i, j: eps[pair_key(label_of[i], label_of[j])])


def jacobi_oracle(candidate: StructureTable) -> bool:
    """Ground truth: does the scaled bracket satisfy the Jacobi identity."""
    return jacobi_table_holds(candidate)


# --- exhaustive binary sweeps (numpy) ----------------------------------------

MASK_BITS = 64  # a mask is one uint64: bit i is the value of variable i


def _require_mask_width(system: ContractionSystem) -> None:
    """Refuse a system whose variables do not all fit one uint64 mask, as
    numpy's uint64 shift by 64 or more is 0, not an error."""
    if system.num_variables > MASK_BITS:
        raise ValueError(f"{system.num_variables} pair variables exceed the "
                         f"{MASK_BITS}-variable limit of a uint64 mask")


_ALL_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_NO_BITS = np.uint64(0)
# Bit b of a sweep word is the assignment whose low six active variables are
# the bits of b: active position pos < 6 reads as the fixed pattern below.
_LOW_PATTERNS = tuple(np.uint64(sum(1 << b for b in range(64) if b >> pos & 1))
                      for pos in range(6))


def _sweep(system: ContractionSystem, chains, pin: int = 1) -> np.ndarray:
    """Sorted masks of the active assignments on which every chain holds,
    read-only.

    A chain is a sequence of monomials, (u, v) pairs standing for
    eps_u * eps_v, that must all take one value: the equations' chains
    (`sweep_equations`) or the residual tables' (`sweep_oracle`).  Each
    link, a chain's first monomial against a further one, compiles to the
    XOR {first} ^ {mono} of two products, each the frozenset of the
    variables it ANDs: it forbids the assignments where the two differ.  A
    variable outside the active set is pinned to `pin`, so a product drops
    it (pin 1) or reads 0 (pin 0); a product left with no variable is the
    constant 1.  Links that cancel force nothing, and equal ones are swept once.

    The active variables and the links are the whole constraint, so
    `_swept` sweeps them and keeps the last result, as criterion 7 and
    perfbench's `contract` sweep one grading's routes back to back: a route
    with the links just swept reads that array, exactly what a second sweep
    would compute.  The refusals and the compilation, with `_table_chain`'s
    shape check, run on every call.
    """
    _require_mask_width(system)
    active = system.active
    n = len(active)
    if n > 30:
        raise ValueError(f"brute-force sweep over 2^{n} assignments refused")
    active_set = frozenset(active)
    links = set()
    for chain in chains:
        monos = [frozenset(mono) for mono in chain]
        for mono in monos[1:]:
            link = set()
            for product in {monos[0]} ^ {mono}:
                if pin or product <= active_set:
                    link ^= {product & active_set}
            if link:
                links.add(frozenset(link))
    return _swept(active, frozenset(links))


@lru_cache(maxsize=1)
def _swept(active: tuple, links: frozenset) -> np.ndarray:
    """Sorted masks of the assignments of the `active` variables that every
    link allows (see `_sweep`), read-only.

    The 2^len(active) assignments are swept bit-sliced, 64 to a uint64 word
    (assignment 64*w + b is bit b of word w), 2^CHUNK_BITS at a time.  Active
    position pos < 6 reads a fixed 64-bit pattern; the next `varying` read
    arrays of all-ones and zero words, one per sweep; a higher one is an
    np.uint64 scalar, constant over a chunk.  The inner links, reading only
    the first two kinds, are ANDed once per sweep into `base`, and each chunk
    starts from `base` and ANDs in the other links: every assignment meets
    every link.  Only the words with a bit left are unpacked; the kept masks
    carry their bits at the variable indices, free bits zero.
    """
    n = len(active)
    keep = []
    total_words = 1 << max(n - 6, 0)
    # both counts are powers of two, so every chunk is whole and starts at a
    # multiple of chunk_words: the low `varying` bits of a word index are
    # those of its place in the chunk, the higher ones those of the start
    chunk_words = min(1 << max(CHUNK_BITS - 6, 0), total_words)
    varying = chunk_words.bit_length() - 1
    places = np.arange(chunk_words, dtype=np.uint64)
    cols = {v: _LOW_PATTERNS[pos] if pos < 6 else
            _NO_BITS - ((places >> np.uint64(pos - 6)) & np.uint64(1))
            for pos, v in enumerate(active[:6 + varying])}
    inner = frozenset(cols)
    base, ok, acc, spare = (np.empty(chunk_words, dtype=np.uint64) for _ in range(4))
    # with fewer than six variables, one word holds every assignment and its
    # high bits stand for none
    base.fill(_ALL_ONES if n >= 6 else np.uint64((1 << (1 << n)) - 1))
    outer = []
    for link in links:
        if all(product <= inner for product in link):
            _forbid(base, link, cols, acc, spare)
        else:
            outer.append(link)
    for start in range(0, total_words, chunk_words):
        cols.update((v, _ALL_ONES if start >> pos & 1 else _NO_BITS)
                    for pos, v in enumerate(active[6 + varying:], varying))
        np.copyto(ok, base)
        for link in outer:
            _forbid(ok, link, cols, acc, spare)
        hit = np.flatnonzero(ok)
        bits = np.flatnonzero(np.unpackbits(
            ok[hit].astype("<u8", copy=False).view(np.uint8), bitorder="little"))
        # bit b of the k-th surviving word is assignment 64*(start + hit[k]) + b;
        # int64 throughout, as n <= 30 keeps every number far below 2^63
        keep.append((hit[bits >> 6] + start) << 6 | bits & 63)
    # the assignment numbers are nonnegative, so their int64 bits read alike
    # as uint64; the chunks' arrays go before the scatter makes its result,
    # so at most two arrays of the result's size are alive at once
    masks = np.concatenate(keep).view(np.uint64)
    del keep
    # `active` is increasing, so the scatter keeps the masks sorted
    masks = apply_variable_permutation(masks, active)
    masks.setflags(write=False)
    return masks


def _forbid(ok, link, cols, acc, spare) -> None:
    """ok &= ~(the XOR of the link's products), in the buffers acc and spare."""
    # the XOR of the array products, in `acc`, and of the scalar ones
    scalar, term = _NO_BITS, None
    for product in link:
        value = _and_columns(cols, product, acc if term is None else spare)
        if not isinstance(value, np.ndarray):
            scalar ^= value
        elif term is None:
            term = value
        else:
            term = np.bitwise_xor(term, value, out=acc)
    # ok &= ~(term ^ scalar), as ok &= term ^ ~scalar
    if term is not None:
        np.bitwise_and(ok, np.bitwise_xor(term, ~scalar, out=acc), out=ok)
    elif scalar:
        np.bitwise_and(ok, ~scalar, out=ok)


def _and_columns(cols, variables, out):
    """The AND of the columns of `variables` (distinct; all ones for none),
    folding the np.uint64 scalar columns first: a scalar if every column is
    one, else `out`, or the one array column itself when the scalars fold
    to all ones."""
    scalar = _ALL_ONES
    words = []
    for v in variables:
        if isinstance(cols[v], np.ndarray):
            words.append(cols[v])
        else:
            scalar &= cols[v]
    if not words or not scalar:
        return scalar
    if scalar != _ALL_ONES:
        words.append(scalar)
    if len(words) == 1:
        return words[0]
    np.bitwise_and(words[0], words[1], out=out)
    for column in words[2:]:
        np.bitwise_and(out, column, out=out)
    return out


def sweep_equations(system: ContractionSystem) -> np.ndarray:
    """All assignments of the active variables satisfying every equation.

    Enumerates 2^len(active) assignments by brute force, each equation's
    equality chain compiled into links by `_sweep`; returns the sorted
    masks (bits positioned at the variable indices, free bits zero),
    read-only.
    """
    return _sweep(system, (eq.monomials for eq in system.equations))


def _table_chain(ct: _ComboTable) -> tuple:
    """The non-void monomials of a residual table, as the equality chain
    that its allowed codes are.

    As T1 + T2 + T3 = 0, the nonzero T vectors that a code picks sum to zero
    iff it picks all of them or none: one alone is nonzero, and two of three
    sum to minus the third.  So a table allows exactly the codes on which
    its non-void monomials all agree.  That reading is checked, not
    assumed: a one-line ValueError names a table whose `allowed` differs.
    """
    on = sum(1 << slot for slot, mono in enumerate(ct.factor_vars) if mono is not None)
    agree = sum(1 << code for code in range(8) if code & on in (0, on))
    if ct.allowed != agree:
        raise ValueError(f"residual table {ct.factor_vars} allows codes "
                         f"{ct.allowed:#010b}, not its equality chain's {agree:#010b}")
    return tuple(mono for mono in ct.factor_vars if mono is not None)


def sweep_oracle(system: ContractionSystem, pin: int = 1) -> np.ndarray:
    """All active assignments passing the per-triple residual tables.

    Independent route: uses only exact residual evaluations of the Jacobi
    T vectors, never the generated equations.  Each table is read as the
    equality chain of its non-void monomials (`_table_chain`, which refuses
    a table of any other shape) and swept by the same kernel as the
    equations (`_sweep`), the variables outside the active set pinned to
    `pin`.  Pinned-variable irrelevance is a structural fact (their blocks
    bracket to zero) asserted in the test suite.  On the catalog gradings
    both pins compile to the same links (on g4 the equations' too), so they
    share one sweep's read-only array.
    """
    if type(pin) is not int or pin not in (0, 1):
        raise ValueError(f"pin must be the int 0 or 1, not {pin!r}")
    return _sweep(system, map(_table_chain, system._combo_tables), pin)


# --- level-by-level search over the equality chains ---------------------------

class SolutionSet:
    """The complete binary solution set, factored over unconstrained pairs.

    Stores one mask per solution of the constrained (active) variables; the
    free variables never occur in an equation, so the full set is the
    product of the stored masks with every free-bit pattern.  `masks` and
    `contains_mask` honor the full product set.
    """

    __slots__ = ("system", "active_masks")

    def __init__(self, system: ContractionSystem, active_masks: np.ndarray):
        # read-only, as the symmetry pass kept for this set (`_symmetries`) reads it
        active_masks.setflags(write=False)
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


def _chain_conflicts(chains, placed):
    """(fulls, unions): the uint64 masks that tell which children the chains
    of the variable just placed drop.

    With the variables of `placed` set, a monomial with both factors placed
    is known, x & y; one with a single factor placed is known 0 where that
    bit is 0; one with neither is unknown.  A chain drops a child when it
    holds a known 1 and a known 0: when, for some k, the child sets both
    bits of fulls[k] (a monomial of the chain with both factors placed) but
    not every bit of unions[k] (the placed factors of the chain).
    """
    fulls, unions = [], []
    for chain in chains:
        known = [mono for mono in chain if not placed.isdisjoint(mono)]
        full = [1 << a | 1 << b for a, b in known if a in placed and b in placed]
        if full and len(known) > 1:
            fulls += full
            union = sum(1 << x for x in placed & {f for mono in known for f in mono})
            unions += [union] * len(full)
    return np.array(fulls, dtype=np.uint64), np.array(unions, dtype=np.uint64)


def solve_binary(system: ContractionSystem) -> SolutionSet:
    """Every binary solution, searching the equality chains level by level.

    Places the constrained variables in a fixed greedy order (most monomials
    completed with the variables placed, then most occurrences, then lowest
    index), the completed counts kept up to date as each is placed.  The
    frontier of depth d is an array of the partial masks that place the
    first d; its children give the next variable the value 0 and 1, and
    only the chains of that variable are checked (`_chain_conflicts`).
    The children are built and checked _PUSH_BLOCK at a time, so the
    temporaries stay small.  Free variables are carried symbolically by the
    returned SolutionSet.

    The nodes are the root and every child kept, the same tree a
    depth-first backtracking over the same order visits.  Past the node
    budget (GRADELAB_NODE_CAP, else DEFAULT_NODE_CAP), which covers the
    whole search, it raises NodeCapExceeded as soon as the running count
    passes the budget, so the frontier never holds more masks than the
    budget; its `nodes` is the count at that block, and its
    `solutions_so_far` the complete assignments kept when the search
    stopped, 0 unless the last level was under way.
    """
    _require_mask_width(system)
    node_cap = _node_cap_from_env()
    chains_of = {v: [] for v in system.active}
    # completed[v]: the monomials of v's chains that placing v would complete,
    # raised by partners[w][v] (the monomials on v and w) as each w is placed
    completed = dict.fromkeys(system.active, 0)
    partners = {v: Counter() for v in system.active}
    for eq in system.equations:
        for v in {x for mono in eq.monomials for x in mono}:
            chains_of[v].append(eq.monomials)
        for u, w in eq.monomials:
            if u == w:
                completed[u] += 1
            else:
                partners[u][w] += 1
                partners[w][u] += 1
    order: list = []
    while completed:
        v = max(completed, key=lambda u: (completed[u], len(chains_of[u]), -u))
        order.append(v)
        del completed[v]
        for w, count in partners[v].items():
            if w in completed:
                completed[w] += count
    frontier = np.zeros(1, dtype=np.uint64)
    nodes = 1
    step = _PUSH_BLOCK // 2
    for depth, v in enumerate(order):
        fulls, unions = _chain_conflicts(chains_of[v], set(order[:depth + 1]))
        bit = np.uint64(1 << v)
        kept = []
        for lo in range(0, frontier.size, step):
            parents = frontier[lo:lo + step]
            children = np.concatenate((parents, parents | bit))
            column = children[:, None]
            conflict = ((column & fulls) == fulls) & ((column & unions) != unions)
            children = children[~conflict.any(axis=1)]
            kept.append(children)
            nodes += children.size
            if nodes > node_cap:
                complete = sum(k.size for k in kept) if depth == len(order) - 1 else 0
                raise NodeCapExceeded(node_cap, nodes, complete)
        # the all-zero mask satisfies every chain, so no level is empty
        frontier = np.concatenate(kept)
    return SolutionSet(system, np.sort(frontier))


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


# Each catalog grading's solution set with its quotient, twice over, fits.
@lru_cache(maxsize=8)
def _symmetries(solutions: SolutionSet, quotient: PermutationGroup) -> tuple:
    """(variable permutation, push of the constrained patterns) of each
    quotient element, once the solution set is known to be invariant.

    Raises ValueError if an element moves a free variable to a constrained
    one, or if its push of the constrained patterns, sorted, differs from
    them.  Otherwise the free bits are permuted among themselves and a bit
    permutation distributes over OR, so the element maps the product set
    onto itself: that is the whole invariance check.

    The pass is kept, with a bound, per solution set and quotient (both
    hash by identity), so `is_invariant`, `symmetry_orbits` and
    `burnside_orbit_count` share one; its permutations are tuples and its
    pushes read-only.  A pass that raises is not kept, so it raises again
    on the next call.
    """
    system = solutions.system
    free = set(system.free)
    rows = solutions.active_masks
    symmetries = []
    for p in quotient.elements:
        vp = tuple(pair_variable_permutation(p, system))
        if any(vp[f] not in free for f in free):
            raise _NotInvariant("a symmetry moves a free variable to a constrained "
                                "one; the solution set is not invariant")
        pushed = apply_variable_permutation(rows, vp)
        if not np.array_equal(np.sort(pushed), rows):
            raise _NotInvariant("solution set is not invariant under the quotient")
        pushed.setflags(write=False)
        symmetries.append((vp, pushed))
    return tuple(symmetries)


def is_invariant(solutions: SolutionSet, quotient: PermutationGroup) -> bool:
    """Exact check that every pushforward maps the solution set onto itself
    (`_symmetries`, a pass over every group element kept per set and quotient)."""
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
    once per element on the constrained patterns, in the pass `_symmetries`
    keeps per set and quotient (ValueError if it fails).  Each block of
    masks is compared with its image under every element (`_block_orbits`):
    a mask no image undercuts is a representative, and the elements that
    fix it give its orbit size by orbit-stabilizer.  Only the
    representatives are sorted.  Returns Orbit records sorted by
    representative mask.

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
    listed or sorted.  Raises ValueError if the set is not invariant (the
    kept `_symmetries` pass) or the sum is not divisible by the order.
    """
    rows = solutions.active_masks
    total = sum(int(np.count_nonzero(pushed == rows))
                for _, pushed in _symmetries(solutions, quotient))
    if total % quotient.order:
        raise ValueError(f"Burnside sum {total} is not divisible by the group "
                         f"order {quotient.order}")
    return total // quotient.order
