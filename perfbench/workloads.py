"""The three benchmark workloads, each a fixed list of checked operations.

Every operation goes through `Ledger.op`, which times it under a named stage,
compares its result with a known exact value and counts it as failed on a
mismatch or an exception.  Random inputs come from `random.Random(seed)`, so
one seed always gives the same inputs; the program only ever sees the inputs.

The layer modules are reached through their module objects (`cyclo.zeta`,
never a name imported from them), so that a traced run, which rebinds the
public functions in the module namespaces, sees every call.
"""
from __future__ import annotations

import itertools
import math
import random
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from fractions import Fraction

import numpy as np

from gradelab import autgrp, contractions, cyclo, gradings, liealg, linalg, normalizers

CATALOG = ("g1", "g2", "g3", "g4")

# Known exact values.  g2's quotient order is the computed 24 (its element of
# order 4 rules out the published 18); everything else matches the paper.
QUOTIENT_ORDER = {"g1": 12, "g2": 24, "g3": 4, "g4": 48}
INNER_ORDER = {"g1": 6, "g2": 24, "g3": 4, "g4": 24}
CONSTRAINED_PATTERNS = {"g1": 255, "g2": 779, "g3": 2091, "g4": 6784}
TOTAL_SOLUTIONS = {"g1": 2_088_960, "g2": 99_712, "g3": 68_517_888, "g4": 27_787_264}
PATTERN_ORBITS = {"g1": 47, "g2": 75, "g3": 643, "g4": 188}
FULL_ORBITS = {"g1": 179_664, "g2": 5_350}
FULL_SET_CAP = 1 << 22
SWEPT = ("g2", "g4")

# The stage times the workloads record, as per-layer metrics.
STAGES = ("gradings.catalog_s",
          *(f"normalizers.{kind}_s.{g}" for g in CATALOG for kind in ("quotient", "inner")),
          *(f"contractions.{name}" for name in (
              "generate_s", "solve_s", "invariant_s", "orbits_s", "orbits_full_s.g1",
              "orbits_full_s.g2", "sweep_eq_s", "sweep_oracle_s.g2", "sweep_oracle_s.g4",
              "jacobi_spot_s")))

CYCLO_ORDERS = (1, 3, 4, 5, 6, 8, 12, 24)
# Matrix entries stay in Q(zeta_24): elimination over Q(zeta_120) grows its
# rational coefficients until one 8x8 determinant takes seconds.
MATRIX_ORDERS = (1, 3, 4, 8)


class Ledger:
    """Counts checked operations and their failures; times named stages.

    `stages` maps a stage name (a per-layer metric such as
    `contractions.solve_s`) to the seconds its operations took, by
    `perf_counter`.  Stage times are read from an untraced child, so they
    hold no tracing overhead.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.stages = {}

    @contextmanager
    def stage(self, name):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = self.stages.get(name, 0.0) + time.perf_counter() - t0

    def op(self, label, compute, expect=lambda value: True, stage=None):
        """Run one operation; return its value, or None if it raised."""
        self.attempted += 1
        try:
            with self.stage(stage) if stage else nullcontext():
                value = compute()
            ok = expect(value)
        except Exception:  # an operation that raises is a failed operation
            self.failed += 1
            print(f"perfbench: {label} raised", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        if not ok:
            self.failed += 1
            print(f"perfbench: {label} does not match its known value", file=sys.stderr)
        return value


def setup():
    """What every invocation pays before its first answer: the four catalog gradings."""
    return {name: gradings.catalog(name) for name in CATALOG}


# --- symmetry ----------------------------------------------------------------

def _random_word(rng, pool):
    """A product of two random letters; a fixed length keeps the cost alike across seeds."""
    return autgrp.compose(rng.choice(pool), rng.choice(pool))


def _permutation_or_none(h, grading):
    """The part permutation of h, or None when h does not map parts onto parts."""
    try:
        return normalizers.induced_permutation(h, grading)
    except ValueError:
        return None


def symmetry(ledger: Ledger, seed: int, tiny: bool = False) -> None:
    """Normalizer quotients, inner subquotients and seeded normalizer queries."""
    rng = random.Random(seed)
    names = ("g1", "g3") if tiny else CATALOG
    queries, pairs = (2, 1) if tiny else (3, 2)
    named = [autgrp.named_automorphism(n) for n in sorted(autgrp.NAMED_AUTOMORPHISMS)]
    for name in names:
        entry = gradings.catalog(name)
        spec, grading = entry.spec, entry.grading
        gens = normalizers.catalog_normalizer_generators(name)
        q = ledger.op(f"{name} quotient_group",
                      lambda: normalizers.quotient_group(spec, grading, gens),
                      lambda q: q.order == QUOTIENT_ORDER[name],
                      stage=f"normalizers.quotient_s.{name}")
        ledger.op(f"{name} inner_subquotient",
                  lambda: normalizers.inner_subquotient(spec, grading, gens),
                  lambda inner: inner.order == INNER_ORDER[name],
                  stage=f"normalizers.inner_s.{name}")
        elements = set(q.elements) if q is not None else set()
        # A fine grading's automorphisms are exactly the normalizer of its MAD
        # group, so "normalizes" must agree with "permutes the parts", and the
        # permutation must lie in the quotient.
        for _ in range(queries):
            h = _random_word(rng, named)
            ledger.op(f"{name} normalizes",
                      lambda: (normalizers.normalizes(h, spec),
                               _permutation_or_none(h, grading)),
                      lambda r: r[0] == (r[1] is not None) and
                      (r[1] is None or r[1] in elements))
        for _ in range(pairs):
            a, b = rng.choice(gens), _random_word(rng, gens)
            ledger.op(f"{name} induced_permutation functoriality",
                      lambda: (normalizers.induced_permutation(autgrp.compose(a, b), grading),
                               normalizers.induced_permutation(a, grading).compose(
                                   normalizers.induced_permutation(b, grading))),
                      lambda r: r[0] == r[1] and r[0] in elements)


# --- contract ----------------------------------------------------------------

def _arrays_equal(*arrays):
    return all(np.array_equal(arrays[0], other) for other in arrays[1:])


def _orbits_ok(orbits, total, group_order):
    return sum(o.size for o in orbits) == total and \
        all(group_order % o.size == 0 for o in orbits)


def contract(ledger: Ledger, seed: int, tiny: bool = False) -> None:
    """Equations, solving, invariance, orbits, exhaustive sweeps and Jacobi spot checks."""
    rng = random.Random(seed)
    names = ("g2",) if tiny else CATALOG
    spots = 4 if tiny else 64
    for name in names:
        entry = gradings.catalog(name)
        spec, grading = entry.spec, entry.grading
        q = ledger.op(f"{name} quotient_group",
                      lambda: normalizers.quotient_group(
                          spec, grading, normalizers.catalog_normalizer_generators(name)),
                      lambda q: q.order == QUOTIENT_ORDER[name],
                      stage=f"normalizers.quotient_s.{name}")
        system = ledger.op(f"{name} generate_equations",
                           lambda: contractions.generate_equations(grading),
                           stage="contractions.generate_s")
        solved = ledger.op(f"{name} solve_binary",
                           lambda: contractions.solve_binary(system),
                           lambda s: s.active_count == CONSTRAINED_PATTERNS[name] and
                           len(s) == TOTAL_SOLUTIONS[name],
                           stage="contractions.solve_s")
        ledger.op(f"{name} is_invariant",
                  lambda: contractions.is_invariant(solved, q),
                  lambda ok: ok is True,
                  stage="contractions.invariant_s")
        ledger.op(f"{name} constrained-pattern orbits",
                  lambda: contractions.symmetry_orbits(solved, q, include_free=False),
                  lambda orbits: len(orbits) == PATTERN_ORBITS[name] and
                  _orbits_ok(orbits, CONSTRAINED_PATTERNS[name], q.order),
                  stage="contractions.orbits_s")
        if TOTAL_SOLUTIONS[name] <= FULL_SET_CAP:
            ledger.op(f"{name} full-set orbits",
                      lambda: contractions.symmetry_orbits(solved, q, include_free=True),
                      lambda orbits: len(orbits) == FULL_ORBITS[name] and
                      _orbits_ok(orbits, TOTAL_SOLUTIONS[name], q.order),
                      stage=f"contractions.orbits_full_s.{name}")
        if name in SWEPT:
            by_equations = ledger.op(f"{name} sweep_equations",
                                     lambda: contractions.sweep_equations(system),
                                     lambda masks: _arrays_equal(masks, solved.active_masks),
                                     stage="contractions.sweep_eq_s")
            for pin in (0, 1):
                ledger.op(f"{name} sweep_oracle pin {pin}",
                          lambda: contractions.sweep_oracle(system, pin=pin),
                          lambda masks: _arrays_equal(masks, by_equations, solved.active_masks),
                          stage=f"contractions.sweep_oracle_s.{name}")
        # Half the spot checks draw a solution (a constrained pattern plus
        # random free bits), half a uniform mask, so both verdicts occur.
        for k in range(spots):
            if k % 2 == 0 and solved is not None:
                mask = int(solved.active_masks[rng.randrange(solved.active_count)])
                for f in system.free:
                    mask |= rng.getrandbits(1) << f
            else:
                mask = rng.getrandbits(system.num_variables)
            ledger.op(f"{name} jacobi spot check",
                      lambda: contractions.jacobi_oracle(contractions.contracted_structure(
                          grading, system.mask_to_assignment(mask))),
                      lambda holds: holds == solved.contains_mask(mask),
                      stage="contractions.jacobi_spot_s")


# --- substrate ---------------------------------------------------------------

def _rand_cyclo(rng, orders):
    """A sum of rational multiples of primitive roots of unity, one of each given order.

    Only values are drawn from the seed.  The orders, and so the field each
    value lives in, are fixed by the caller, as are the sizes below (nonzero
    matrix entries, spanning vectors), so that the work varies little from
    seed to seed.
    """
    x = cyclo.CycloNumber.zero()
    for n in orders:
        k = rng.choice([k for k in range(n) if math.gcd(k, n) == 1])
        coefficient = Fraction(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 4))
        x = x + cyclo.zeta(n, k) * coefficient
    return x


def _rand_matrix(rng, rows, cols, density):
    """Entries at a fixed number of random places, their orders taken in turn."""
    nonzero = sorted(rng.sample(range(rows * cols), round(density * rows * cols)))
    entries = [0] * (rows * cols)
    for j, k in enumerate(nonzero):
        entries[k] = _rand_cyclo(rng, (MATRIX_ORDERS[j % len(MATRIX_ORDERS)],))
    return linalg.Matrix(rows, cols, entries)


def _invertible_matrix(rng, n, density):
    while True:
        m = _rand_matrix(rng, n, n, density)
        if not m.det().is_zero():
            return m


def _rand_subspace(rng, dim, vectors, nonzero=5, orders=(1, 3, 4)):
    rows = []
    for _ in range(vectors):
        row = [0] * dim
        for j, k in enumerate(rng.sample(range(dim), nonzero)):
            row[k] = _rand_cyclo(rng, (orders[j % len(orders)],))
        rows.append(row)
    return linalg.Subspace.from_vectors(dim, rows)


def _rand_element_text(rng, algebra):
    """Named-basis text and the coordinates it denotes."""
    coords = [Fraction(0)] * algebra.dim
    terms = []
    for index in rng.sample(range(algebra.dim), rng.randint(1, 5)):
        value = Fraction(rng.randint(1, 9), rng.randint(1, 3))
        sign = rng.choice("+-")
        coords[index] = value if sign == "+" else -value
        scale = "" if value == 1 else f"{value} "
        terms.append(f"{sign} {scale}{algebra.basis_names[index]}")
    text = " ".join(terms)
    return (text[2:] if text.startswith("+") else text), coords


def _merge_is_grading(cert, blocks):
    """Whether merging parts keeps the grading axiom, from the unmerged bracket table."""
    home = {part: b for b, block in enumerate(blocks) for part in block}
    for x in blocks:
        for y in blocks:
            targets = {home[cert.bracket_targets[(i, j)]] for i in x for j in y
                       if cert.bracket_targets[(i, j)] is not None}
            if len(targets) > 1:
                return False
    return True


LABEL_GROUPS = ((7,), (8,), (2, 2, 2), (3, 3), (2, 4))


def substrate(ledger: Ledger, seed: int, tiny: bool = False) -> None:
    """Mixed-order scalars, exact 8x8 matrices, subspaces, the action, parsing, merges."""
    rng = random.Random(seed)
    scalars, matrices, spaces, actions, texts, merges = \
        (20, 1, 2, 2, 4, 4) if tiny else (128, 4, 12, 20, 75, 30)
    one = cyclo.CycloNumber.one()
    # Every seed meets the same order triples, so the same fields.
    triples = itertools.cycle(itertools.product(CYCLO_ORDERS, repeat=3))
    for _ in range(scalars):
        a, b, c = (_rand_cyclo(rng, next(triples)) for _ in range(3))
        ledger.op("field axioms",
                  lambda: ((a + b) * c - a * c - b * c, a * b - b * a, (a * b) * c - a * (b * c)),
                  lambda r: all(v.is_zero() for v in r))
        if not a.is_zero():
            ledger.op("a * a^-1 = 1", lambda: a * a.inverse(), lambda r: r == one)
        ledger.op("reduced and sort_key",
                  lambda: (a.reduced(), cyclo.sort_key(a), cyclo.sort_key(a.embed(120))),
                  lambda r: r[0] == a and r[0].order == a.conductor() and r[1] == r[2])

    for _ in range(matrices):
        m1 = _invertible_matrix(rng, 8, 0.35)
        m2 = _rand_matrix(rng, 8, 8, 0.35)
        ledger.op("det(AB) = det A det B",
                  lambda: ((m1 * m2).det(), m1.det() * m2.det()),
                  lambda r: r[0] == r[1])
        singular = _rand_matrix(rng, 8, 3, 0.6) * _rand_matrix(rng, 3, 8, 0.6)
        for m in (m1, singular):
            ledger.op("rank + nullity",
                      lambda: (len(m.rref()[1]), m.kernel()),
                      lambda r: r[0] + r[1].dim == 8 and
                      all(linalg.vec_is_zero(m.apply(v)) for v in r[1].basis))
        ledger.op("A A^-1 = I", lambda: m1 * m1.inverse(),
                  lambda r: r == linalg.Matrix.identity(8))
    for _ in range(spaces):
        # Two spans of five vectors in dimension 8 meet in at least a plane.
        u, w = _rand_subspace(rng, 8, 5), _rand_subspace(rng, 8, 5)
        ledger.op("dimension formula", lambda: (u.add(w).dim, u.intersect(w).dim),
                  lambda r: r[0] + r[1] == u.dim + w.dim)

    algebra = liealg.special_linear(3)
    for k in range(actions):
        rep = _invertible_matrix(rng, 3, 0.7)
        f = (autgrp.make_ad, autgrp.make_out)[k % 2](rep)
        x = tuple(_rand_cyclo(rng, (1, 3, 4)) for _ in range(algebra.dim))
        y = tuple(_rand_cyclo(rng, (1, 3, 4)) for _ in range(algebra.dim))
        ledger.op("bracket equivariance",
                  lambda: (f.apply_coords(algebra.bracket_coords(x, y)),
                           algebra.bracket_coords(f.apply_coords(x), f.apply_coords(y))),
                  lambda r: r[0] == r[1])
    for _ in range(texts):
        text, coords = _rand_element_text(rng, algebra)
        ledger.op("parse_element", lambda: liealg.parse_element(text, algebra).coords,
                  lambda parsed: parsed == tuple(cyclo.CycloNumber.from_rational(c)
                                                 for c in coords))

    certificates = {}
    for _ in range(merges):
        name = rng.choice(CATALOG)
        grading = gradings.catalog(name).grading
        i, j = sorted(rng.sample(range(grading.num_parts), 2))
        blocks = [[i, j]] + [[k] for k in range(grading.num_parts) if k not in (i, j)]
        group = gradings.AbelianGroup(rng.choice(LABEL_GROUPS))
        if name not in certificates:
            certificates[name] = gradings.verify_grading(grading)
        cert = certificates[name]
        merged = ledger.op("coarsen + verify_grading",
                           lambda: gradings.coarsen(grading, blocks),
                           lambda m: bool(gradings.verify_grading(m)) ==
                           _merge_is_grading(cert, blocks))
        ledger.op("search_labeling",
                  lambda: gradings.search_labeling(merged, group),
                  lambda labels: labels is None or
                  gradings.verify_labeling(merged, group, labels))


WORKLOADS = {"symmetry": symmetry, "contract": contract, "substrate": substrate}


def run(workload: str, seed: int, ledger: Ledger, tiny: bool = False) -> None:
    """Run one workload's operation list."""
    WORKLOADS[workload](ledger, seed, tiny)
