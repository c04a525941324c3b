"""Normalizer membership and quotient groups acting on grading parts.

For a MAD-group G with fine grading Gamma, every normalizer element permutes
the parts of Gamma, and two elements permute them identically iff they lie in
the same coset of G.  The quotient N(G)/G is therefore computed here as an
explicit permutation group, with the coset-vs-permutation identification
audited rather than assumed: every closure collision produces a word with
trivial permutation whose G-membership is checked structurally.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

# ClosureCapExceeded is raised by _closure and stays importable from here
from .autgrp import (Automorphism, ClosureCapExceeded, _bfs, compose,
                     conjugate, identity_automorphism, inverse,
                     named_automorphism)
from .gradings import Grading, MadGroupSpec, _part_maps, verify_grading
from .linalg import Subspace


class Permutation:
    """Bijection on {0..n-1}, stored as the image tuple."""

    __slots__ = ("mapping",)

    def __init__(self, mapping):
        mapping = tuple(int(i) for i in mapping)
        if sorted(mapping) != list(range(len(mapping))):
            raise ValueError("mapping is not a bijection")
        object.__setattr__(self, "mapping", mapping)

    def __setattr__(self, name, value):
        raise AttributeError("Permutation is immutable")

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls(range(degree))

    @property
    def degree(self) -> int:
        return len(self.mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i]

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        return Permutation(self.mapping[j] for j in other.mapping)

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, j in enumerate(self.mapping):
            inv[j] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.mapping))

    def order(self) -> int:
        return math.lcm(*map(len, self.cycles()))

    def cycles(self) -> list:
        """Nontrivial cycles, each rotated to start at its least element."""
        seen, out = set(), []
        for start in range(self.degree):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = self.mapping[start]
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = self.mapping[nxt]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_notation(self) -> str:
        cycles = self.cycles()
        if not cycles:
            return "()"
        return "".join("(" + " ".join(str(i) for i in c) + ")" for c in cycles)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __repr__(self):
        return f"Permutation{self.mapping}"


@dataclass(frozen=True)
class QuotientElement:
    """One coset of the quotient: its permutation, parity, and a witness word."""

    permutation: Permutation
    parity: int  # 0 = inner word, 1 = outer word
    witness: Automorphism


class PermutationGroup:
    """A closed set of permutations with the generators that produced it."""

    __slots__ = ("degree", "generators", "elements", "records")

    def __init__(self, degree: int, generators, elements, records=None):
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "generators", tuple(generators))
        object.__setattr__(self, "elements",
                           tuple(sorted(elements, key=lambda p: p.mapping)))
        object.__setattr__(self, "records", tuple(records) if records else ())

    def __setattr__(self, name, value):
        raise AttributeError("PermutationGroup is immutable")

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_order_profile(self) -> dict:
        profile: dict = {}
        for p in self.elements:
            k = p.order()
            profile[k] = profile.get(k, 0) + 1
        return profile

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        return f"PermutationGroup(degree={self.degree}, order={self.order})"


class NormalizerDiscrepancy(RuntimeError):
    """A word induced the trivial permutation but failed G-membership.

    If this fires, cosets and permutations cannot be identified and no
    quotient order can be reported.
    """

    def __init__(self, witness: Automorphism, detail: str):
        super().__init__(detail)
        self.witness = witness


def normalizes(h: Automorphism, spec: MadGroupSpec) -> bool:
    """True iff h^-1 G h lies inside G.

    Finite groups are checked element by element.  The infinite families are
    checked on generic probe elements: a probe with pairwise distinct
    diagonal forces any successful conjugator into the monomial matrices,
    and the outer-family probe then pins the residual diagonal freedom, so
    probe membership of the conjugates is equivalent to normalizing the
    whole family.
    """
    targets = spec.elements if spec.elements is not None else spec.probes
    if not targets:
        raise ValueError(f"spec {spec.name} carries neither elements nor probes")
    return all(spec.membership(conjugate(h, g)) for g in targets)


def induced_permutation(h: Automorphism, g: Grading) -> Permutation:
    """The permutation of g's parts effected by h."""
    mapping = []
    for i, part in enumerate(g.parts):
        image = Subspace.from_vectors(
            g.algebra.dim, [h.apply_coords(v) for v in part.basis])
        j = g.part_index(image)
        if j is None:
            raise ValueError(f"automorphism does not map part {i} onto a part")
        mapping.append(j)
    return Permutation(mapping)


def _closure(spec: MadGroupSpec, g: Grading, normalizer_gens):
    """BFS closure of induced permutations with parity and witness tracking.

    Every collision yields a word with trivial permutation (a Schreier
    generator of the kernel); its membership in G is checked, which is
    exactly the audit that the permutation representation is faithful on
    cosets.  Mixed-parity repeats of one permutation are checked the same
    way before being admitted as separate states.
    """
    gens = list(normalizer_gens)
    for h in gens:
        if not normalizes(h, spec):
            raise ValueError(f"generator {h!r} does not normalize {spec.name}")
    gen_data = [(h, induced_permutation(h, g), 0 if h.kind == "inner" else 1)
                for h in gens]
    ident = identity_automorphism(g.algebra.n)
    start = (Permutation.identity(g.num_parts), 0, ident)

    def check(candidate: Automorphism, context: str):
        if not spec.membership(candidate):
            raise NormalizerDiscrepancy(
                candidate,
                f"{spec.name}: a word acting trivially on the grading is not in the "
                f"group ({context}); cosets and permutations do not match")

    def audit(key, state, seen):
        witness = state[2]
        existing = seen.get(key)
        if existing is not None:
            check(compose(inverse(existing[2]), witness), "closure collision")
            return
        sibling = seen.get((key[0], 1 - key[1]))
        if sibling is not None:
            check(compose(inverse(sibling[2]), witness),
                  "same permutation from both parities")

    def step(gen, state):
        h, hperm, hparity = gen
        perm, parity, witness = state
        return hperm.compose(perm), parity ^ hparity, compose(h, witness)

    seen = _bfs(start, gen_data, step, lambda state: state[:2], audit)
    states = {key: state[2] for key, state in seen.items()}
    return states, gen_data


def _quotient_and_inner(spec: MadGroupSpec, g: Grading, normalizer_gens) -> tuple:
    """The quotient and its inner subquotient, both from one closure.

    The inner subquotient is the parity-0 slice of the closure's states,
    generated by the parity-0 generators.
    """
    states, gen_data = _closure(spec, g, normalizer_gens)

    def group(parities):
        records = [QuotientElement(perm, parity, witness)
                   for (perm, parity), witness in states.items() if parity in parities]
        perms = {perm for perm, parity in states if parity in parities}
        gens = [p for _, p, parity in gen_data if parity in parities]
        return PermutationGroup(g.num_parts, gens, perms, records)

    return group((0, 1)), group((0,))


def quotient_group(spec: MadGroupSpec, g: Grading, normalizer_gens) -> PermutationGroup:
    """The quotient N(G)/G as a permutation group on grading parts."""
    return _quotient_and_inner(spec, g, normalizer_gens)[0]


def inner_subquotient(spec: MadGroupSpec, g: Grading, normalizer_gens) -> PermutationGroup:
    """The subgroup of the quotient reachable by inner words (parity 0)."""
    return _quotient_and_inner(spec, g, normalizer_gens)[1]


def support_group(g: Grading) -> PermutationGroup:
    """Part permutations preserving part dimensions and the bracket support.

    A normalizer element maps parts onto parts and brackets onto brackets, so
    its permutation p satisfies dim L_p(i) = dim L_i and [L_p(i), L_p(j)] lies
    in L_p(k) whenever [L_i, L_j] lies in L_k, with zero brackets kept zero.
    These permutations form a group that contains N(G)/G whatever generator
    words are chosen, so its order is an upper bound on the quotient order.

    The permutations are the maps `gradings._part_maps` yields when every
    part pair is a rule, its target None for a zero bracket.
    """
    cert = verify_grading(g)
    if not cert.ok:
        raise ValueError(f"not a grading: the bracket of parts {cert.violation} "
                         "is not inside one part")
    targets = cert.bracket_targets
    n, dims = g.num_parts, g.part_dims
    rules = [(i, j, k) for (i, j), k in targets.items()]
    candidates = [[q for q in range(n) if dims[q] == dims[p]] for p in range(n)]
    found = _part_maps(n, rules, candidates, lambda a, b: targets[(a, b)])
    return PermutationGroup(n, (), [Permutation(m) for m in found])


def linearize_on_labels(p: Permutation, g: Grading):
    """The 2x2 matrix M over Z3 with M . label(i) = label(p(i)), or None.

    Requires a Z3 x Z3 labeled grading whose labels avoid the neutral
    element, as for the Pauli grading.  All 81 matrices are tried; M is
    returned only when exactly one fits, so labels that span Z3 x Z3 fix
    it and collinear labels (0 or 9 fits) give None.
    """
    if g.labels is None or g.group.cyclic_orders != (3, 3):
        raise ValueError("grading must carry Z3 x Z3 labels")
    if g.group.zero() in g.labels:
        raise ValueError("labels must avoid the neutral element")
    if p.degree != g.num_parts:
        raise ValueError("permutation degree does not match the grading")
    images = [g.labels[p(i)] for i in range(g.num_parts)]
    rows = list(itertools.product(range(3), repeat=2))
    fits = [m for m in itertools.product(rows, repeat=2)
            if all(((m[0][0] * a + m[0][1] * b) % 3,
                    (m[1][0] * a + m[1][1] * b) % 3) == image
                   for (a, b), image in zip(g.labels, images))]
    return fits[0] if len(fits) == 1 else None


def det_mod3(matrix) -> int:
    return (matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0]) % 3


# Generator words in the normalizer of each catalog MAD-group, by the names
# registered in autgrp.NAMED_AUTOMORPHISMS.  Each list generates the full
# quotient; the parity-0 sublist generates the inner subquotient.
CATALOG_NORMALIZER_GENERATORS = {
    "g1": ("OutI", "AdB1", "AdB2"),
    "g2": ("AdB1", "AdB2", "AdH"),
    "g3": ("AdB2", "AdH"),
    "g4": ("OutI", "AdS", "AdD"),
}


def catalog_normalizer_generators(name: str):
    try:
        gen_names = CATALOG_NORMALIZER_GENERATORS[name]
    except KeyError:
        raise ValueError(f"unknown catalog grading {name!r}") from None
    return [named_automorphism(n) for n in gen_names]
