"""Graded contraction systems: generation, solving, symmetry reduction."""
import itertools
import random
from collections import Counter

import numpy as np
import pytest

from gradelab import contractions, selfcheck
from gradelab.contractions import (ContractionSystem, Equation, NodeCapExceeded,
                                   SolutionSet, _ComboTable,
                                   _symmetries, _table_chain, _uncontracted_adapted,
                                   apply_variable_permutation,
                                   burnside_orbit_count, contracted_structure, generate_equations,
                                   is_invariant, jacobi_oracle, pair_key,
                                   pair_variable_permutation, solve_binary,
                                   sweep_equations, sweep_oracle,
                                   symmetry_orbits)
from gradelab.cyclo import CycloNumber
from gradelab.gradings import (AbelianGroup, Grading, _adapted_basis, catalog,
                               format_label, verify_grading)
from gradelab.liealg import LieAlgebra, StructureTable, special_linear
from gradelab.linalg import Matrix, Subspace, vec_is_zero
from gradelab.normalizers import (Permutation, PermutationGroup, quotient_group,
                                  catalog_normalizer_generators)

rng = random.Random(61909)

_systems: dict = {}
_solutions: dict = {}


def system(name):
    if name not in _systems:
        _systems[name] = generate_equations(catalog(name).grading)
    return _systems[name]


def solutions(name):
    if name not in _solutions:
        _solutions[name] = solve_binary(system(name))
    return _solutions[name]


def quotient(name):
    entry = catalog(name)
    return quotient_group(entry.spec, entry.grading,
                          catalog_normalizer_generators(name))


def test_pair_key_is_order_free():
    assert pair_key((0, 1), (2, 2)) == pair_key((2, 2), (0, 1))
    assert pair_key((1,), (1,)) == ((1,), (1,))


def test_variable_and_equation_counts():
    expected = {"g1": (28, 15, 13, 23), "g2": (28, 21, 7, 28),
                "g3": (36, 21, 15, 37), "g4": (36, 24, 12, 48)}
    for name, (n_vars, n_active, n_free, n_eqs) in expected.items():
        s = system(name)
        assert s.num_variables == n_vars, name
        assert len(s.active) == n_active, name
        assert len(s.free) == n_free, name
        assert len(s.equations) == n_eqs, name


def test_every_equation_is_an_equality_chain():
    for name in ("g1", "g2", "g3", "g4"):
        for eq in system(name).equations:
            assert len(eq.monomials) >= 2
            assert eq.rank >= 1
            text = str(eq)
            assert " = " in text and not text.endswith("0")


def test_a_variable_is_free_iff_its_pair_brackets_to_zero():
    # the certificate of criterion 8, read from the grading certificate and
    # from the adapted structure table: an unconstrained pair scales a zero
    # bracket, so the constrained patterns are the distinct contracted algebras
    for name in ("g1", "g2", "g3", "g4"):
        s, grading = system(name), catalog(name).grading
        labels = grading.labels
        for a, b in s.variables:
            assert a in labels and b in labels
            assert pair_key(a, b) == (a, b)
        assert len(set(s.variables)) == s.num_variables
        zero = {pair_key(labels[i], labels[j])
                for (i, j), k in verify_grading(grading).bracket_targets.items()
                if k is None}
        _, part_of, *_ = _adapted_basis(grading)
        _, table = _uncontracted_adapted(grading)
        nonzero = {pair_key(labels[part_of[i]], labels[part_of[j]]) for i, j in table.upper}
        assert zero == set(s.variables) - nonzero, name
        assert {s.variables[f] for f in s.free} == zero, name


def test_mask_assignment_round_trip():
    s = system("g2")
    for _ in range(50):
        mask = rng.getrandbits(s.num_variables)
        eps = s.mask_to_assignment(mask)
        assert list(eps) == list(s.variables)
        for i, pair in enumerate(s.variables):
            assert eps[pair] == (mask >> i) & 1
        assert sum(eps[pair] << i for i, pair in enumerate(s.variables)) == mask


def test_solution_counts_match_the_exhaustive_sweeps():
    expected = {"g1": 255, "g2": 779, "g3": 2091, "g4": 6784}
    for name, count in expected.items():
        solved = solutions(name)
        assert solved.active_count == count, name
        assert len(solved) == count << len(system(name).free), name


def test_solver_agrees_with_equation_sweep():
    for name in ("g1", "g2", "g3", "g4"):
        swept = sweep_equations(system(name))
        assert np.array_equal(solutions(name).active_masks, swept), name


def test_sweeps_refuse_more_than_30_active_variables():
    chain = Equation(monomials=tuple((i, i) for i in range(31)),
                     triple=(), pivot_coords=(), rank=0)
    wide = ContractionSystem(None, [(i, i) for i in range(31)], [chain], ())
    assert len(wide.active) == 31
    for sweep in (sweep_equations, sweep_oracle):
        for _ in range(2):  # refused on every call, never read from a kept sweep
            with pytest.raises(ValueError, match="2\\^31"):
                sweep(wide)
    # criterion 7 reports the refusal as its failure, not as a traceback
    bench = selfcheck._Workbench()
    bench.system = lambda name: wide
    result = selfcheck.run_check(7, bench)
    assert not result.passed
    assert result.detail.startswith("g1: ") and "2^31" in result.detail


def test_oracle_sweep_agrees_and_ignores_free_pins():
    for name in ("g1", "g2", "g3", "g4"):
        s = system(name)
        pinned_1 = sweep_oracle(s, pin=1)
        pinned_0 = sweep_oracle(s, pin=0)
        assert np.array_equal(pinned_1, pinned_0), name
        assert np.array_equal(pinned_1, sweep_equations(s)), name


def _equality_codes(factor_vars) -> int:
    """The codes m1 | m2<<1 | m3<<2 on which the non-void slots all read alike."""
    slots = [slot for slot, mono in enumerate(factor_vars) if mono is not None]
    return sum(1 << code for code in range(8)
               if len({code >> slot & 1 for slot in slots}) <= 1)


def _small_system(n_active, seed):
    """A hand-built system over n_active + 2 variables, two of them inactive.

    Each active variable occurs in an equality chain of one or two
    monomials, and the oracle tables, each shaped as the residual tables
    are (every non-void term on, or every one off), mix active and inactive
    factors with a void term.
    """
    pick = random.Random(seed)
    active = sorted(pick.sample(range(n_active + 2), n_active))
    inactive = [v for v in range(n_active + 2) if v not in active]

    def mono(u, v):
        return (u, v) if u <= v else (v, u)

    equations = [Equation(monomials=tuple(sorted({mono(v, pick.choice(active)),
                                                  mono(*pick.choices(active, k=2))})),
                          triple=(), pivot_coords=(), rank=0)
                 for v in active]
    everyone = active + inactive
    layouts = [(mono(*pick.choices(everyone, k=2)),
                None if k == 0 else mono(pick.choice(inactive), pick.choice(everyone)),
                mono(*pick.choices(everyone, k=2)))
               for k in range(3)] + [(None, None, None)]
    tables = [_ComboTable(factor_vars=layout, allowed=_equality_codes(layout))
              for layout in layouts]
    variables = [(v, v) for v in range(n_active + 2)]
    s = ContractionSystem(None, variables, equations, tuple(tables))
    assert list(s.active) == active
    return s


def _brute_force(s, holds):
    masks = []
    for bits in itertools.product((0, 1), repeat=len(s.active)):
        value = dict(zip(s.active, bits))
        if holds(value):
            masks.append(sum(bit << v for v, bit in value.items()))
    return np.array(sorted(masks), dtype=np.uint64)


def _assert_sweeps_match_brute_force(s, case):
    def equations_hold(value):
        for eq in s.equations:
            vals = {value[u] & value[v] for u, v in eq.monomials}
            if len(vals) > 1:
                return False
        return True

    by_equations = _brute_force(s, equations_hold)
    contractions._swept.cache_clear()  # every sweep below a cold one, at this chunk size
    assert np.array_equal(sweep_equations(s), by_equations), case
    assert np.array_equal(solve_binary(s).active_masks, by_equations), case
    for pin in (0, 1):
        def tables_hold(value):
            full = {v: value.get(v, pin) for v in range(s.num_variables)}
            for ct in s._combo_tables:
                code = sum((full[m[0]] & full[m[1]]) << slot
                           for slot, m in enumerate(ct.factor_vars)
                           if m is not None)
                if not (ct.allowed >> code) & 1:
                    return False
            return True

        contractions._swept.cache_clear()
        assert np.array_equal(sweep_oracle(s, pin=pin),
                              _brute_force(s, tables_hold)), (case, pin)


def test_sweeps_of_systems_smaller_than_two_words_match_brute_force():
    for n_active in range(9):  # below 64 assignments, one word, two and four
        for seed in range(4):
            _assert_sweeps_match_brute_force(_small_system(n_active, seed), (n_active, seed))


def test_sweeps_of_every_column_kind_match_brute_force(monkeypatch):
    # four words to a chunk: positions 6 and 7 vary within a chunk, and the
    # 1 to 4 positions above are constant over it, 2 to 16 chunks in all
    monkeypatch.setattr(contractions, "CHUNK_BITS", 8)
    for n_active in range(9, 13):
        for seed in range(3):
            _assert_sweeps_match_brute_force(_small_system(n_active, seed), (n_active, seed))


@pytest.mark.parametrize("chunk_bits", [6, 7, 10])
def test_sweeps_in_chunks_of_one_and_two_words_match_the_default(monkeypatch, chunk_bits):
    # one, two or sixteen words to a chunk: the survivors of every chunk
    # start and of bit 63 must land on the same assignment numbers; on g1 at
    # 10 bits that is 32 chunks, with 4 columns varying within a chunk and 5
    # constant over it
    cases = [system("g1")] + [_small_system(n_active, seed)
                              for n_active in range(9) for seed in range(4)]
    default = [(sweep_equations(s), sweep_oracle(s, pin=0), sweep_oracle(s, pin=1))
               for s in cases]
    monkeypatch.setattr(contractions, "CHUNK_BITS", chunk_bits)
    for s, (by_equations, pinned_0, pinned_1) in zip(cases, default):
        solved = solve_binary(s).active_masks
        assert np.array_equal(by_equations, solved)
        # each re-chunked sweep a cold one, not the kept default-size result
        contractions._swept.cache_clear()
        assert np.array_equal(sweep_equations(s), solved)
        contractions._swept.cache_clear()
        assert np.array_equal(sweep_oracle(s, pin=0), pinned_0)
        contractions._swept.cache_clear()
        assert np.array_equal(sweep_oracle(s, pin=1), pinned_1)
    # on g1 the residual tables and the equations have the same solutions
    assert np.array_equal(default[0][1], default[0][0])
    assert np.array_equal(default[0][2], default[0][0])


def _link_evaluations(monkeypatch, run):
    """What `run()` returns, and how often the sweeps it makes ANDed each
    compiled link into a buffer, the kept sweep dropped first."""
    counts = Counter()
    forbid = contractions._forbid

    def counting(ok, link, *buffers):
        counts[link] += 1
        forbid(ok, link, *buffers)

    contractions._swept.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(contractions, "_forbid", counting)
        return run(), counts


def _chunk_invariant(s, link, chunk_bits):
    """Whether a link reads only the positions below 6 + varying, those that
    take the same columns in every chunk; and the number of chunks."""
    n = len(s.active)
    in_chunk = max(min(chunk_bits, n), 6)
    position = {v: pos for pos, v in enumerate(s.active)}
    inner = all(position[v] < in_chunk for product in link for v in product)
    return inner, 1 << max(n - in_chunk, 0)


_ROUTES = [(sweep_equations, {}), (sweep_oracle, {"pin": 0}), (sweep_oracle, {"pin": 1})]


def test_g4_sweeps_evaluate_each_chunk_invariant_link_once(monkeypatch):
    # g4 sweeps 2^24 assignments in 16 chunks of 2^20; 24 of its 48 links
    # read only active positions 0..19, whose columns are the same in every
    # chunk, so each is evaluated once per sweep, the other 24 once per chunk
    s = system("g4")
    for sweep, kwargs in _ROUTES:
        masks, counts = _link_evaluations(monkeypatch, lambda: sweep(s, **kwargs))
        assert np.array_equal(masks, solutions("g4").active_masks), kwargs
        assert sorted(Counter(counts.values()).items()) == [(1, 24), (16, 24)], kwargs
        for link, evaluations in counts.items():
            inner, chunks = _chunk_invariant(s, link, contractions.CHUNK_BITS)
            assert chunks == 16 and evaluations == (1 if inner else 16), (kwargs, link)


def test_g4_routes_share_one_sweep(monkeypatch):
    # on g4 the equations and the tables at either pin compile to the same 48
    # links, so the three routes together evaluate each link as often as one
    # sweep does, and all three read the one read-only array it made
    s = system("g4")
    arrays, counts = _link_evaluations(
        monkeypatch, lambda: [sweep(s, **kwargs) for sweep, kwargs in _ROUTES])
    assert sorted(Counter(counts.values()).items()) == [(1, 24), (16, 24)]
    for masks in arrays:
        assert np.array_equal(masks, solutions("g4").active_masks)
        assert not masks.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        arrays[0][0] = 0


def _bitset_brute_force(s, constraints):
    """The masks of the active assignments that every constraint allows, by
    Python-int bitsets over all 2^n of them: bit x of a set is assignment x,
    whose active variable at position p reads bit p of x.  A constraint is a
    (monomials, allowed) pair; a monomial None reads 0, and `allowed` has bit
    `code` set for each code sum(value of monomial t << t) that it allows."""
    size = 1 << len(s.active)
    full = (1 << size) - 1
    column = {}
    for p, v in enumerate(s.active):
        bits, width = ((1 << (1 << p)) - 1) << (1 << p), 2 << p
        while width < size:
            bits |= bits << width
            width *= 2
        column[v] = bits
    ok = full
    for monomials, allowed in constraints:
        values = [0 if mono is None else column[mono[0]] & column[mono[1]]
                  for mono in monomials]
        for code in range(1 << len(values)):
            if not allowed >> code & 1:
                hit = full
                for t, value in enumerate(values):
                    hit &= value if code >> t & 1 else full ^ value
                ok &= full ^ hit
    x = np.flatnonzero(np.unpackbits(np.frombuffer(ok.to_bytes(size // 8, "little"), np.uint8),
                                     bitorder="little"))
    masks = np.zeros(x.size, dtype=np.uint64)
    for p, v in enumerate(s.active):
        masks |= ((x >> p) & 1).astype(np.uint64) << np.uint64(v)
    return masks


def test_a_kept_sweep_answers_only_for_the_same_links():
    # g2's tables compile to other links than its equations, so the oracle is
    # swept again after the equations, and its second pin reads that sweep
    contractions._swept.cache_clear()
    s = system("g2")
    by_equations = sweep_equations(s)
    pinned_1, pinned_0 = sweep_oracle(s, pin=1), sweep_oracle(s, pin=0)
    assert contractions._swept.cache_info()[:2] == (1, 2)  # (hits, misses)
    assert pinned_0 is pinned_1 and np.array_equal(pinned_1, by_equations)
    # g4 with one equation or one table chain dropped is another constraint:
    # swept again, after g4 itself, and equal to brute force over 2^24.
    # Equation 7 and table 7 are the first whose drop lets more through.
    g4 = system("g4")
    fewer_equations = ContractionSystem(g4.grading, g4.variables,
                                        g4.equations[:7] + g4.equations[8:], g4._combo_tables)
    fewer_tables = ContractionSystem(g4.grading, g4.variables, g4.equations,
                                     g4._combo_tables[:7] + g4._combo_tables[8:])
    cases = [(sweep_equations, {}, fewer_equations,
              [(eq.monomials, 1 | 1 << (1 << len(eq.monomials)) - 1)  # all off or all on
               for eq in fewer_equations.equations]),
             (sweep_oracle, {"pin": 1}, fewer_tables,
              [(ct.factor_vars, ct.allowed) for ct in fewer_tables._combo_tables])]
    for sweep, kwargs, dropped, constraints in cases:
        whole = sweep(g4, **kwargs)
        misses = contractions._swept.cache_info().misses
        masks = sweep(dropped, **kwargs)
        assert contractions._swept.cache_info().misses == misses + 1, kwargs
        assert masks.size > whole.size, kwargs
        assert np.array_equal(masks, _bitset_brute_force(dropped, constraints)), kwargs
        assert contractions._swept.cache_info().currsize <= 1


@pytest.mark.parametrize("chunk_bits", [6, 8, 20])
def test_sweeps_match_brute_force_whatever_links_are_chunk_invariant(monkeypatch, chunk_bits):
    # at 6 and 8 chunk bits the 9 and 12 active variables span 2 to 64
    # chunks, so no link, some or all read only in-chunk positions; at 20 one
    # chunk holds every assignment and every link is chunk-invariant.  Two
    # tables are added: one whose first monomial pins to the constant 1 at
    # pin 1 (a link {{}, {top}}, or {{top}} at pin 0) and one whose two
    # monomials both pin away, a link that cancels
    monkeypatch.setattr(contractions, "CHUNK_BITS", chunk_bits)
    splits = {route: set() for route in range(len(_ROUTES))}
    for n_active, seed in itertools.product((9, 12), range(4)):
        s = _small_system(n_active, seed)
        i0, i1 = (v for v in range(s.num_variables) if v not in s.active)
        top = s.active[-1]
        extra = [((i0, i1), None, (top, top)), ((i0, i0), (i0, i1), None)]
        s = ContractionSystem(None, s.variables, s.equations, s._combo_tables + tuple(
            _ComboTable(factor_vars=layout, allowed=_equality_codes(layout)) for layout in extra))
        _assert_sweeps_match_brute_force(s, (n_active, seed))
        for route, (sweep, kwargs) in enumerate(_ROUTES):
            _, counts = _link_evaluations(monkeypatch, lambda: sweep(s, **kwargs))
            kinds = set()
            for link, evaluations in counts.items():
                inner, chunks = _chunk_invariant(s, link, chunk_bits)
                assert evaluations == (1 if inner else chunks), (n_active, seed, kwargs, link)
                kinds.add(inner)
            splits[route].add(frozenset(kinds))
            if kwargs:  # the first added table's link, (i0, i1) pinned to 1 or 0
                pinned = {frozenset(), frozenset({top})} if kwargs["pin"] else {frozenset({top})}
                assert frozenset(pinned) in counts, (n_active, seed, kwargs)
    expected = {frozenset({True})} if chunk_bits == 20 else {frozenset({False}),
                                                             frozenset({False, True})}
    for route, seen in splits.items():
        assert expected <= seen, (route, seen)


def test_oracle_pin_is_the_int_0_or_1():
    s = system("g1")
    for pin in (2, -1, True, False, 1.0, None, "1", np.int64(1)):
        with pytest.raises(ValueError, match="^pin must be the int 0 or 1, not ") as exc:
            sweep_oracle(s, pin=pin)
        assert "\n" not in str(exc.value), pin


def test_each_sweep_route_reads_only_its_own_input():
    # the equation sweep never reads the residual tables, nor the oracle the
    # equations; a self-link ((v, v), (v, v)) forces nothing, so over the
    # same active variables its equation sweep keeps all 2^n assignments
    # (checked up to 2^21: g4's 2^24 masks would take 128 MiB an array)
    cases = [system(name) for name in ("g1", "g2", "g3", "g4")] + [
        _small_system(n_active, seed) for n_active in range(9) for seed in range(4)]
    for s in cases:
        case = (s.active, len(s.equations))
        untabled = ContractionSystem(s.grading, s.variables, s.equations, ())
        assert np.array_equal(sweep_equations(untabled), sweep_equations(s)), case
        self_links = [Equation(monomials=((v, v), (v, v)), triple=(), pivot_coords=(), rank=0)
                      for v in s.active]
        relinked = ContractionSystem(s.grading, s.variables, self_links, s._combo_tables)
        assert relinked.active == s.active
        for pin in (0, 1):
            assert np.array_equal(sweep_oracle(relinked, pin=pin), sweep_oracle(s, pin=pin)), case
        if len(s.active) <= 21:
            every = np.arange(1 << len(s.active), dtype=np.uint64)
            assert np.array_equal(sweep_equations(relinked),
                                  apply_variable_permutation(every, s.active)), case


def test_every_residual_table_is_an_equality_chain():
    # since T1 + T2 + T3 = 0, a table allows exactly the codes on which its
    # non-void terms agree; (void, two-term, three-term) tables per grading
    expected = {"g1": (18, 24, 14), "g2": (10, 6, 40),
                "g3": (19, 25, 12), "g4": (8, 48, 0)}
    for name, counts in expected.items():
        shapes = [0, 0, 0, 0]
        for ct in system(name)._combo_tables:
            non_void = tuple(mono for mono in ct.factor_vars if mono is not None)
            shapes[len(non_void)] += 1
            assert ct.allowed == _equality_codes(ct.factor_vars), (name, ct)
            assert _table_chain(ct) == non_void, (name, ct)
        assert shapes[1] == 0 and tuple(shapes[i] for i in (0, 2, 3)) == counts, name


def _with_table_bit_flipped(s, index, bit):
    tables = list(s._combo_tables)
    ct = tables[index]
    tables[index] = _ComboTable(factor_vars=ct.factor_vars, allowed=ct.allowed ^ 1 << bit)
    return ContractionSystem(s.grading, s.variables, s.equations, tuple(tables))


def test_a_table_that_is_not_an_equality_chain_is_refused():
    # one g4 table (two terms, one void) and one three-term g1 table: every
    # one-bit change of its allowed codes leaves the chain shape
    cases = []
    for name, terms in (("g4", 2), ("g1", 3)):
        s = system(name)
        index = next(i for i, ct in enumerate(s._combo_tables)
                     if sum(mono is not None for mono in ct.factor_vars) == terms)
        cases.append((name, s, index))
    for name, s, index in cases:
        for bit in range(8):
            broken = _with_table_bit_flipped(s, index, bit)
            for pin in (0, 1):
                with pytest.raises(ValueError, match="^residual table ") as exc:
                    sweep_oracle(broken, pin=pin)
                assert "\n" not in str(exc.value), (name, bit)
                assert str(s._combo_tables[index].factor_vars) in str(exc.value)
    # criterion 7 reports the refusal as its one-line failure, not as a traceback
    _, s, index = cases[1]
    broken = _with_table_bit_flipped(s, index, 0)
    bench = selfcheck._Workbench()
    bench.system = lambda name: broken
    result = selfcheck.run_check(7, bench)
    assert not result.passed
    assert result.detail.startswith("g1: residual table ") and "\n" not in result.detail


def test_variable_permutation_matches_a_per_bit_reference():
    def reference(masks, varperm):
        out = np.zeros(masks.shape, dtype=np.uint64)
        for src, dst in enumerate(varperm):
            out |= ((masks >> np.uint64(src)) & np.uint64(1)) << np.uint64(dst)
        return out

    draw = np.random.default_rng(61909)
    size = 150_000  # more than two blocks of the byte-table push
    for name in ("g1", "g2", "g3", "g4"):
        s = system(name)
        masks = draw.integers(0, 1 << s.num_variables, size=size, dtype=np.uint64)
        for p in quotient(name).elements:
            vp = pair_variable_permutation(p, s)
            assert np.array_equal(apply_variable_permutation(masks, vp),
                                  reference(masks, vp)), (name, p)
        # the injective scatter of the sweeps: compact bit pos -> active[pos]
        compact = draw.integers(0, 1 << len(s.active), size=size, dtype=np.uint64)
        assert np.array_equal(apply_variable_permutation(compact, s.active),
                              reference(compact, s.active)), name
    empty = np.zeros(0, dtype=np.uint64)
    assert apply_variable_permutation(empty, system("g4").active).shape == (0,)


def test_direct_jacobi_spot_checks():
    grading = catalog("g2").grading
    s, solved = system("g2"), solutions("g2")
    for _ in range(30):
        mask = rng.getrandbits(s.num_variables)
        eps = s.mask_to_assignment(mask)
        direct = jacobi_oracle(contracted_structure(grading, eps))
        assert direct == solved.contains_mask(mask)


def test_all_ones_recovers_the_original_bracket():
    for name in ("g1", "g4"):
        ones = (1 << system(name).num_variables) - 1
        assert solutions(name).contains_mask(ones), name
    assert solutions("g1").contains_mask(0)  # the fully Abelian contraction


def test_contracted_structure_keeps_the_blocks_switched_on():
    for name in ("g1", "g2", "g3", "g4"):
        grading, s = catalog(name).grading, system(name)
        vectors, part_of, *_ = _adapted_basis(grading)
        _, table = _uncontracted_adapted(grading)
        # all ones is the uncontracted bracket of the adapted basis
        all_on = s.mask_to_assignment((1 << s.num_variables) - 1)
        ones = contracted_structure(grading, all_on)
        assert ones.upper == table.upper, name
        for i in range(grading.algebra.dim):
            for j in range(grading.algebra.dim):
                entry = ones(i, j)
                combo = [sum((c * vectors[k][r] for k, c in entry.items()), CycloNumber.zero())
                         for r in range(grading.algebra.dim)]
                assert tuple(combo) == grading.algebra.bracket_coords(vectors[i], vectors[j])
        # all zeros is the Abelian bracket
        zero = contracted_structure(grading, s.mask_to_assignment(0))
        assert zero.upper == {} and jacobi_oracle(zero), name
        # any other mask keeps exactly the blocks whose pair bit is set
        mask = random.Random(name).getrandbits(s.num_variables)
        bit = {pair: (mask >> v) & 1 for v, pair in enumerate(s.variables)}
        labels = [grading.labels[part] for part in part_of]
        kept = contracted_structure(grading, s.mask_to_assignment(mask))
        assert kept.upper == {ij: entry for ij, entry in table.upper.items()
                              if bit[pair_key(labels[ij[0]], labels[ij[1]])]}, name


def test_contracted_structure_shares_the_uncontracted_entries():
    # both orientations of a kept block are the uncontracted table's own
    # entries, not negated again; a dropped one reads as a zero bracket
    for name in ("g1", "g4"):
        grading, s = catalog(name).grading, system(name)
        _, part_of, *_ = _adapted_basis(grading)
        _, table = _uncontracted_adapted(grading)
        labels = [grading.labels[part] for part in part_of]
        mask = random.Random(name).getrandbits(s.num_variables)
        eps = s.mask_to_assignment(mask)
        kept = contracted_structure(grading, eps)
        for i, j in itertools.permutations(range(grading.algebra.dim), 2):
            if eps[pair_key(labels[i], labels[j])] and table(i, j):
                assert kept(i, j) is table(i, j), (name, i, j)
            else:
                assert kept(i, j) == {}, (name, i, j)


def _dense_route(g):
    """The equations, residual tables and adapted table by the dense route,
    as the reference: each T vector formed by `bracket_coords` in the
    algebra's coordinates, the pivot coordinates by an rref there, and the
    table by the inverse of the matrix of the adapted basis."""
    algebra, group, labels = g.algebra, g.group, list(g.labels)
    dim = algebra.dim
    vectors, part_of, _ = _adapted_basis(g)
    names = [f"L{format_label(labels[i])}" + (f".{r}" if part.dim > 1 else "")
             for i, part in enumerate(g.parts) for r in range(part.dim)]
    variables = sorted(pair_key(a, b) for i, a in enumerate(labels) for b in labels[i:])
    var_index = {p: i for i, p in enumerate(variables)}
    inner = {(i, j): algebra.bracket_coords(vectors[i], vectors[j])
             for i, j in itertools.combinations(range(dim), 2)}

    def term(li, lj, lk, t_vec):
        total = group.add(li, lj)
        assert total in labels or vec_is_zero(t_vec)
        if vec_is_zero(t_vec):
            return None
        u, v = var_index[pair_key(li, lj)], var_index[pair_key(total, lk)]
        return (u, v) if u <= v else (v, u)

    def sums_to_zero(picked):
        return vec_is_zero([sum(column[1:], column[0]) for column in zip(*picked)])

    seen, equations, combo_tables = set(), [], []
    for a, b, c in itertools.combinations(range(dim), 3):
        la, lb, lc = (labels[part_of[a]], labels[part_of[b]], labels[part_of[c]])
        ts = (algebra.bracket_coords(inner[a, b], vectors[c]),
              algebra.bracket_coords(inner[b, c], vectors[a]),
              algebra.bracket_coords([-x for x in inner[a, c]], vectors[b]))
        monos = (term(la, lb, lc, ts[0]), term(lb, lc, la, ts[1]), term(lc, la, lb, ts[2]))
        nonzero = [not vec_is_zero(t) for t in ts]
        allowed = 0
        for code in range(8):
            picked = [t for slot, t in enumerate(ts) if code >> slot & 1 and nonzero[slot]]
            if not picked if len(picked) < 2 else sums_to_zero(picked):
                allowed |= 1 << code
        combo_tables.append(_ComboTable(factor_vars=monos, allowed=allowed))
        merged = {}
        for mono, t_vec in zip(monos, ts):
            if mono is not None:
                merged[mono] = [x + y for x, y in zip(merged[mono], t_vec)] \
                    if mono in merged else list(t_vec)
        coeffs = {mono: vec for mono, vec in merged.items() if not vec_is_zero(vec)}
        assert len(coeffs) != 1
        monomials = tuple(sorted(coeffs))
        if len(coeffs) > 1 and monomials not in seen:
            seen.add(monomials)
            _, pivots = Matrix.from_rows(coeffs.values()).rref()
            equations.append(Equation(monomials=monomials, triple=(names[a], names[b], names[c]),
                                      pivot_coords=pivots, rank=len(pivots)))
    to_adapted = Matrix.from_rows(vectors).inverse().transpose()
    upper = {}
    for ij, br in inner.items():
        coords = to_adapted.apply(br)
        upper[ij] = {k: x for k, x in enumerate(coords) if not x.is_zero()}
    return (ContractionSystem(g, variables, equations, tuple(combo_tables)),
            StructureTable(dim, upper))


def test_sparse_route_matches_the_dense_route():
    # the equations, the residual tables and the adapted table all come from
    # one sparse adapted table; the dense route in the algebra's coordinates
    # gives the same equations, tables and entry values
    for name in ("g1", "g2", "g3", "g4"):
        grading = catalog(name).grading
        dense, dense_table = _dense_route(grading)
        s = system(name)
        assert s.to_json() == dense.to_json(), name
        assert s._combo_tables == dense._combo_tables, name
        assert _uncontracted_adapted(grading)[1].upper == dense_table.upper, name


def test_generate_equations_forms_each_bracket_of_the_adapted_basis_once(monkeypatch):
    # 28 brackets [x_i, x_j], i < j, all formed by `verify_grading`, and
    # none more: every T vector is read off the adapted table, not formed
    # by two more brackets
    real = LieAlgebra.bracket_coords
    calls = []

    def counted(self, x, y):
        calls.append(1)
        return real(self, x, y)

    for name in ("g1", "g2", "g3", "g4"):
        grading = catalog(name).grading
        _uncontracted_adapted.cache_clear()
        verify_grading.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(LieAlgebra, "bracket_coords", counted)
            calls.clear()
            generate_equations(grading)
        assert len(calls) == 28, name


def test_parts_that_are_not_a_labeled_grading_are_refused():
    # the 8 coordinate lines of sl(3) are no grading: [E13, E31] = H1 + H2
    # lies in no single line; g4 with the labels of parts 0 and 1 swapped is
    # a grading whose labels do not add along its brackets
    lines = Grading(special_linear(3),
                    [Subspace.from_vectors(8, [[int(k == i) for k in range(8)]])
                     for i in range(8)], AbelianGroup((8,)), [(i,) for i in range(8)])
    g4 = catalog("g4").grading
    labels = list(g4.labels)
    labels[0], labels[1] = labels[1], labels[0]
    swapped = Grading(g4.algebra, g4.parts, g4.group, labels)
    assert verify_grading(lines).violation == (1, 4)
    refusals = ((lines, "the bracket of parts 1 and 4 lies in no single part"),
                (swapped, "the bracket of parts 0 and 2 lies in part 4, labeled (1,1), "
                          "not (2,1)"))
    for grading, message in refusals:
        for build in (generate_equations, lambda g: contracted_structure(g, {})):
            with pytest.raises(ValueError) as exc:
                build(grading)
            assert str(exc.value) == message


def test_trivial_grading_has_one_free_variable():
    sl3 = special_linear(3)
    z1 = AbelianGroup((1,))
    trivial = Grading(sl3, [Subspace.full(8)], z1, [(0,)])
    s = generate_equations(trivial)
    assert s.num_variables == 1
    assert s.equations == ()
    assert s.free == (0,)
    assert len(solve_binary(s)) == 2


def test_membership_and_iteration_are_consistent():
    solved = solutions("g2")
    listed = list(itertools.islice(solved.masks(), 300))
    assert len(listed) == 300
    assert all(solved.contains_mask(m) for m in listed)


def test_masks_outside_the_variable_range_are_not_solutions():
    solved = solutions("g2")
    n = solved.system.num_variables
    member = int(solved.active_masks[-1])
    assert member and solved.contains_mask(member)
    for mask in (-1, 1 << n, 1 << 64, (1 << 70) | member):
        assert solved.contains_mask(mask) is False, mask


def test_masks_enumerate_free_bits_in_binary_counting_order():
    solved = solutions("g2")
    free = solved.system.free
    expected = []
    for base in solved.active_masks:
        for bits in range(1 << len(free)):
            mask = int(base)
            for pos, f in enumerate(free):
                mask |= ((bits >> pos) & 1) << f
            expected.append(mask)
    assert list(solved.masks()) == expected
    assert len(expected) == len(solved)


def test_node_cap_aborts_the_search(monkeypatch):
    monkeypatch.setenv("GRADELAB_NODE_CAP", "50")
    with pytest.raises(NodeCapExceeded) as info:
        solve_binary(system("g4"))
    assert info.value.cap == 50
    assert info.value.nodes > 50
    # stopped before the last level, so no complete assignment was held
    assert info.value.solutions_so_far == 0


@pytest.mark.parametrize("name,nodes", [("g1", 1099), ("g2", 4516),
                                        ("g3", 7819), ("g4", 32729)])
def test_node_cap_pins_the_search_tree(monkeypatch, name, nodes):
    # the root and every child kept, the tree of a depth-first backtracking in
    # the same greedy order: a budget of exactly that many nodes solves, one
    # less stops the search
    monkeypatch.setenv("GRADELAB_NODE_CAP", str(nodes))
    assert solve_binary(system(name)).active_count == solutions(name).active_count
    monkeypatch.setenv("GRADELAB_NODE_CAP", str(nodes - 1))
    with pytest.raises(NodeCapExceeded) as info:
        solve_binary(system(name))
    assert info.value.nodes > nodes - 1


def test_search_in_blocks_of_a_few_masks_matches_one_block(monkeypatch):
    # blocks of two children: every level spans many blocks on the catalog
    default = {name: solutions(name).active_masks for name in ("g1", "g2")}
    monkeypatch.setattr(contractions, "_PUSH_BLOCK", 4)
    for name, masks in default.items():
        assert np.array_equal(solve_binary(system(name)).active_masks, masks), name
    # g1: 1,099 nodes, the last 255 of them its complete assignments; a budget
    # of 1,000 is passed during the last level, by at most one block of two
    monkeypatch.setenv("GRADELAB_NODE_CAP", "1000")
    with pytest.raises(NodeCapExceeded) as info:
        solve_binary(system("g1"))
    assert 1000 < info.value.nodes <= 1002
    assert info.value.solutions_so_far == info.value.nodes - (1099 - 255)


def test_systems_past_64_variables_are_refused_before_any_mask_is_built():
    # numpy's uint64 shift by 64 is 0: variable 64 would alias the empty mask
    variables = [(v, v) for v in range(65)]
    eq = Equation(monomials=((0, 64), (1, 2)), triple=(), pivot_coords=(), rank=0)
    s = ContractionSystem(None, variables, [eq], ())
    for solver in (solve_binary, sweep_equations, sweep_oracle):
        with pytest.raises(ValueError, match="64-variable limit"):
            solver(s)


def test_catalog_solves_stay_well_inside_a_small_node_cap(monkeypatch):
    # about three times the largest catalog search (g4, 32729 nodes): a worse
    # branch order or a lost pruning rule runs past it
    monkeypatch.setenv("GRADELAB_NODE_CAP", "100000")
    for name, count in {"g1": 255, "g2": 779, "g3": 2091, "g4": 6784}.items():
        assert solve_binary(system(name)).active_count == count, name


def test_quotient_action_permutes_variables():
    s = system("g4")
    for p in quotient("g4").elements:
        vp = pair_variable_permutation(p, s)
        assert sorted(vp) == list(range(s.num_variables))
        free = set(s.free)
        assert {vp[i] for i in free} == free


def test_solution_sets_are_invariant_under_their_quotients():
    for name in ("g1", "g2", "g3", "g4"):
        assert is_invariant(solutions(name), quotient(name)), name


def _crippled(name):
    """The solution set cut down to one pattern with a nontrivial orbit."""
    s, q = system(name), quotient(name)
    for mask in solutions(name).active_masks:
        row = np.array([mask], dtype=np.uint64)
        if any(apply_variable_permutation(row, pair_variable_permutation(p, s))[0] != mask
               for p in q.elements):
            return SolutionSet(s, row)
    raise AssertionError("no mask with a nontrivial orbit found")


def test_invariance_detects_a_broken_set():
    for name in ("g1", "g2"):
        crippled, q = _crippled(name), quotient(name)
        assert not is_invariant(crippled, q)
        for include_free in (False, True):
            with pytest.raises(ValueError, match="not invariant"):
                symmetry_orbits(crippled, q, include_free=include_free)
        with pytest.raises(ValueError, match="not invariant"):
            burnside_orbit_count(crippled, q)


def test_a_symmetry_moving_a_free_variable_is_refused():
    # swapping parts 5 and 6 of g1 sends free pair variables to constrained ones
    degree = catalog("g1").grading.num_parts
    mapping = list(range(degree))
    mapping[5], mapping[6] = 6, 5
    swap = Permutation(mapping)
    group = PermutationGroup(degree, [swap], [Permutation.identity(degree), swap])
    s = system("g1")
    assert set(pair_variable_permutation(swap, s)[f] for f in s.free) != set(s.free)
    # the all-zero pattern alone is fixed by the swap, so only the check on
    # the free variables refuses that set
    zero = SolutionSet(s, np.zeros(1, dtype=np.uint64))
    for solved in (solutions("g1"), zero):
        assert not is_invariant(solved, group)
        for include_free in (False, True):
            with pytest.raises(ValueError, match="not invariant"):
                symmetry_orbits(solved, group, include_free=include_free)
        with pytest.raises(ValueError, match="not invariant"):
            burnside_orbit_count(solved, group)


def test_constrained_orbit_counts():
    expected = {"g1": 47, "g2": 75, "g3": 643, "g4": 188}
    for name, count in expected.items():
        orbits = symmetry_orbits(solutions(name), quotient(name),
                                 include_free=False)
        assert len(orbits) == count, name
        total = sum(o.size for o in orbits)
        assert total == solutions(name).active_count, name
        q_order = quotient(name).order
        assert all(q_order % o.size == 0 for o in orbits), name
        assert all(solutions(name).contains_mask(int(o.representative))
                   for o in orbits), name


def test_full_orbit_count_for_the_orthogonal_grading():
    orbits = symmetry_orbits(solutions("g2"), quotient("g2"),
                             include_free=True)
    assert len(orbits) == 5350
    assert sum(o.size for o in orbits) == len(solutions("g2"))


def test_full_orbit_count_for_the_cartan_grading():
    q = quotient("g1")
    orbits = symmetry_orbits(solutions("g1"), q, include_free=True)
    assert len(orbits) == 179_664
    assert sum(o.size for o in orbits) == len(solutions("g1"))
    assert all(q.order % o.size == 0 for o in orbits)


def test_orbits_match_the_least_pushes_of_the_materialized_set():
    # a second route: push every mask of the materialized set through every
    # element, take the least image and count the distinct ones
    for name in ("g1", "g2"):
        solved, s, q = solutions(name), system(name), quotient(name)
        for include_free in (True, False):
            masks = (np.fromiter(solved.masks(), dtype=np.uint64, count=len(solved))
                     if include_free else solved.active_masks)
            least = masks.copy()
            for p in q.elements:
                np.minimum(least, apply_variable_permutation(
                    masks, pair_variable_permutation(p, s)), out=least)
            reps, sizes = np.unique(least, return_counts=True)
            orbits = symmetry_orbits(solved, q, include_free=include_free)
            assert [(o.representative, o.size) for o in orbits] == \
                list(zip(reps.tolist(), sizes.tolist())), (name, include_free)
    rep, size = orbit = orbits[0]
    assert (rep, size) == (orbit.representative, orbit.size)
    with pytest.raises(AttributeError):
        orbit.size = 1


def test_orbits_do_not_depend_on_the_block_size(monkeypatch):
    # one cube row per block, and blocks that leave a ragged last one
    # (g1: 255 patterns in blocks of 2 rows; g2: 779 in blocks of 128)
    default = {(name, include_free): symmetry_orbits(solutions(name), quotient(name),
                                                     include_free=include_free)
               for name in ("g1", "g2") for include_free in (True, False)}
    for block in (1, 2 * 8192):
        monkeypatch.setattr(contractions, "_PUSH_BLOCK", block)
        contractions._symmetries.cache_clear()  # push the patterns in these blocks too
        for (name, include_free), orbits in default.items():
            assert symmetry_orbits(solutions(name), quotient(name),
                                   include_free=include_free) == orbits, \
                (block, name, include_free)


def test_one_symmetry_pass_serves_every_orbit_routine(monkeypatch):
    # a fresh g2 set: is_invariant, both orbit listings and Burnside read one
    # kept pass of 24 pattern pushes; the full-set listing adds 24 cube pushes
    solved, q = solve_binary(system("g2")), quotient("g2")
    pushed_sizes, push = [], contractions.apply_variable_permutation
    monkeypatch.setattr(contractions, "apply_variable_permutation",
                        lambda masks, vp: pushed_sizes.append(masks.size) or push(masks, vp))
    assert is_invariant(solved, q)
    assert len(symmetry_orbits(solved, q, include_free=False)) == 75
    assert burnside_orbit_count(solved, q) == 75
    assert len(symmetry_orbits(solved, q, include_free=True)) == 5350
    assert q.order == 24 and len(pushed_sizes) == 48
    assert pushed_sizes.count(solved.active_count) == 24
    assert pushed_sizes.count(solved.free_cube().size) == 24
    # the kept pass cannot go stale: the patterns and their pushes are read-only
    assert not solved.active_masks.flags.writeable
    assert all(type(vp) is tuple and not pushed.flags.writeable
               for vp, pushed in _symmetries(solved, q))
    assert contractions._symmetries.cache_info().maxsize == 8


def test_orbits_refuse_an_element_list_that_is_not_a_group():
    q = quotient("g1")
    degree = q.degree
    identity = Permutation.identity(degree)
    rest = [p for p in q.elements if p != identity]
    assert len(rest) == q.order - 1
    broken = PermutationGroup(degree, q.generators, rest)
    assert len(_symmetries(solutions("g1"), broken)) == len(rest)
    for include_free in (False, True):
        with pytest.raises(ValueError, match="not a group") as info:
            symmetry_orbits(solutions("g1"), broken, include_free=include_free)
        assert "\n" not in str(info.value)


def test_burnside_counts_the_constrained_pattern_orbits():
    expected = {"g1": 47, "g2": 75, "g3": 643, "g4": 188}
    for name, count in expected.items():
        assert burnside_orbit_count(solutions(name), quotient(name)) == count, name


def test_criterion_8_reports_a_burnside_miscount(monkeypatch):
    count = contractions.burnside_orbit_count
    monkeypatch.setattr(contractions, "burnside_orbit_count",
                        lambda solved, q: count(solved, q) + 1)
    result = selfcheck.run_check(8)
    assert not result.passed
    assert result.detail == "g1: Burnside counts 48 orbits, not 47"


def test_factored_images_equal_the_push_of_the_materialized_set():
    for name in ("g1", "g2"):
        solved, s = solutions(name), system(name)
        materialized = np.fromiter(solved.masks(), dtype=np.uint64,
                                   count=len(solved))
        cube = solved.free_cube()
        for p, (vp, pushed) in zip(quotient(name).elements,
                                   _symmetries(solved, quotient(name))):
            assert vp == tuple(pair_variable_permutation(p, s))
            factored = pushed[:, None] | apply_variable_permutation(cube, vp)[None, :]
            assert np.array_equal(factored.ravel(),
                                  apply_variable_permutation(materialized, vp)), (name, p)


def test_oversized_full_orbit_request_is_refused():
    with pytest.raises(ValueError):
        symmetry_orbits(solutions("g3"), quotient("g3"), include_free=True)


def test_system_json_shape():
    s = system("g1")
    data = s.to_json()
    assert len(data["variables"]) == 28
    assert len(data["equations"]) == 23
    assert data["free_variables"] == list(s.free)
    # every equation is an equality chain; the key stays for readers of the JSON
    assert all(eq["rhs_zero"] is False for eq in data["equations"])
