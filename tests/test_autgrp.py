"""Automorphisms of sl(3): composition algebra, eigenspaces, closures."""
import itertools
import random
import time
from fractions import Fraction

import pytest

from gradelab.autgrp import (NAMED_AUTOMORPHISMS, Automorphism, _action_matrix,
                             automorphism_closure, compose, conjugate,
                             identity_automorphism, inverse, make_ad, make_out,
                             named_automorphism, order)
from gradelab.cyclo import CycloNumber, euler_phi, zeta
from gradelab.gradings import common_eigenspaces, mad_group_spec
from gradelab.liealg import special_linear
from gradelab.linalg import Matrix, as_cyclo

rng = random.Random(77003)

sl3 = special_linear(3)


def rand_vec():
    return tuple(as_cyclo(Fraction(rng.randint(-3, 3))) for _ in range(8))


def rand_invertible(n=3):
    while True:
        m = Matrix(n, n, [as_cyclo(rng.randint(-2, 2)) for _ in range(n * n)])
        if not m.det().is_zero():
            return m


def rand_automorphism(n=3):
    m = rand_invertible(n)
    return make_ad(m) if rng.random() < 0.5 else make_out(m)


def test_named_list():
    assert sorted(NAMED_AUTOMORPHISMS) == \
        ["AdB1", "AdB2", "AdD", "AdH", "AdP", "AdQ", "AdS", "OutI"]


def test_identity_fixes_everything():
    e = identity_automorphism()
    for _ in range(10):
        v = rand_vec()
        assert tuple(e.apply_coords(v)) == v


def test_orders_of_named_automorphisms():
    expected = {"AdP": 3, "AdQ": 3, "AdB1": 3, "AdB2": 2, "AdH": 4,
                "AdD": 3, "AdS": 4, "OutI": 2}
    for name, k in expected.items():
        assert order(named_automorphism(name)) == k, name


def test_compose_matches_pointwise_application():
    for _ in range(40):
        f, g = rand_automorphism(), rand_automorphism()
        h = compose(f, g)
        v = rand_vec()
        # g acts first
        assert tuple(h.apply_coords(v)) == \
            tuple(f.apply_coords(g.apply_coords(v)))


def test_compose_kind_parity():
    ad, out = make_ad(rand_invertible()), make_out(rand_invertible())
    assert compose(ad, ad).kind == "inner"
    assert compose(out, out).kind == "inner"
    assert compose(ad, out).kind == "outer"
    assert compose(out, ad).kind == "outer"


def test_inverse_round_trip():
    for _ in range(30):
        f = rand_automorphism()
        assert compose(f, inverse(f)).is_identity()
        assert compose(inverse(f), f).is_identity()


def rand_word(n=3):
    """A product of 1-4 random inner and outer automorphisms of sl(n)."""
    word = rand_automorphism(n)
    for _ in range(rng.randint(0, 3)):
        word = compose(word, rand_automorphism(n))
    return word


def test_representative_rules_match_the_actions():
    # compose, inverse and conjugate work on 3x3 representatives only; the
    # products and inverses of the factors' own actions are the oracle
    for _ in range(25):
        f, g, h = rand_word(), rand_word(), rand_word()
        assert compose(f, g).action == f.action * g.action
        assert inverse(f).action == f.action.inverse()
        assert conjugate(h, g).action == h.action.inverse() * g.action * h.action


def test_carried_inverse_transposes_are_exact():
    # compose reads the factor's carried rep^(-T), and inverse hands it over
    # without eliminating: each carried matrix must be rep^(-T) exactly,
    # scalar order included, and inverse must keep the representative rule
    def carried(f):
        inv_t = f._inverse_transpose()
        expected = f.rep.transpose().inverse()
        assert inv_t.to_json() == expected.to_json()
        return f

    for _ in range(25):
        f, g, h = rand_word(), rand_word(), rand_word()
        fg = carried(compose(f, g))
        f_inv = inverse(f)
        assert f_inv._inv_t is not None  # handed over, not recomputed
        carried(f_inv)
        rule = f.rep.inverse() if f.kind == "inner" else f.rep.transpose()
        assert f_inv.rep.to_json() == rule.to_json()
        carried(inverse(fg))
        carried(conjugate(h, g))
        carried(inverse(f_inv))


def test_conjugate_preserves_kind_of_middle():
    for _ in range(20):
        h, g = rand_automorphism(), rand_automorphism()
        assert conjugate(h, g).kind == g.kind


def test_action_respects_bracket():
    for _ in range(200):
        f = rand_automorphism()
        x, y = rand_vec(), rand_vec()
        lhs = f.apply_coords(sl3.bracket_coords(x, y))
        rhs = sl3.bracket_coords(f.apply_coords(x), f.apply_coords(y))
        assert tuple(lhs) == tuple(rhs)


def test_projective_equality():
    m = rand_invertible()
    scaled = m.scale(Fraction(7, 2))
    assert make_ad(m) == make_ad(scaled)
    assert hash(make_ad(m)) == hash(make_ad(scaled))
    # on sl(2) Out_A is keyed as Ad_(AJ): Out_J is Ad_(-I), the identity
    out_j = make_out(Matrix.from_rows([[0, 1], [-1, 0]]))
    assert out_j == identity_automorphism(2) and out_j.is_identity()
    assert hash(out_j) == hash(identity_automorphism(2))
    assert order(out_j) == 1


def test_key_equality_is_action_equality():
    # the key decides equality; the actions are the oracle.  The words hold
    # scaled representatives, compose(f, inverse(f)), and on sl(2) each
    # Out_A beside Ad_(AJ)
    j = Matrix.from_rows([[0, 1], [-1, 0]])
    equal_pairs = 0
    for n in (2, 3):
        words = []
        for _ in range(8):
            f = rand_word(n)
            scaled = Automorphism(f.algebra, f.kind, f.rep.scale(zeta(8) * Fraction(-5, 3)))
            words += [f, scaled, compose(f, inverse(f))]
            if n == 2:
                a = rand_invertible(2)
                words += [make_out(a), make_ad(a * j)]
        for f, g in itertools.combinations(words, 2):
            assert (f == g) == (f.action == g.action), (f, g)
            if f == g:
                equal_pairs += 1
                assert hash(f) == hash(g)
    # at least the pairs built equal: 8 scalings and 28 pairs of identities
    # on each algebra, and 8 Out_A, Ad_(AJ) pairs on sl(2)
    assert equal_pairs >= 2 * (8 + 28) + 8


def test_eigenspace_dimensions_sum():
    for name in ("AdP", "AdQ", "AdH", "OutI", "AdB1"):
        spaces = common_eigenspaces([named_automorphism(name)])
        assert sum(spaces.part_dims) == 8, name


def test_adp_adq_closure_is_the_pauli_group():
    close = automorphism_closure([named_automorphism("AdP"),
                                  named_automorphism("AdQ")])
    assert len(close) == 9
    assert all(a.kind == "inner" for a in close)


def test_g2_generators_close_to_eight():
    spec = mad_group_spec("g2")
    close = automorphism_closure(spec.separating_generators)
    assert len(close) == 8
    assert set(close) == set(spec.elements)


def test_adding_sylvester_grows_closure_to_36():
    gens = [named_automorphism(n) for n in ("AdP", "AdQ", "AdS")]
    assert len(automorphism_closure(gens)) == 36


def test_json_round_trip():
    for name in NAMED_AUTOMORPHISMS:
        f = named_automorphism(name)
        g = Automorphism.from_json(f.to_json())
        assert f == g and f.kind == g.kind


def test_outer_is_not_inner():
    out_i = named_automorphism("OutI")
    for name in ("AdP", "AdQ", "AdB1", "AdB2", "AdH", "AdS", "AdD"):
        assert named_automorphism(name) != out_i


def product_built_action(f):
    """The action through 3x3 products: rep^-1 b rep per basis element b,
    negated and transposed for an outer f, read back by `from_matrix`."""
    algebra, rep = f.algebra, f.rep
    rep_inv = rep.inverse()
    cols = []
    for b in algebra.basis:
        image = rep_inv * b * rep
        if f.kind == "outer":
            image = -image.transpose()
        cols.append(algebra.from_matrix(image))
    dim = algebra.dim
    return Matrix(dim, dim, [cols[j][i] for i in range(dim) for j in range(dim)])


def rand_cyclo_invertible(n, orders):
    while True:
        entries = [0 if rng.random() < 0.4 else
                   CycloNumber(order, [rng.randint(-2, 2) for _ in range(euler_phi(order))])
                   for order in (rng.choice(orders) for _ in range(n * n))]
        m = Matrix(n, n, entries)
        if not m.det().is_zero():
            return m


def test_outer_product_actions_match_the_products():
    # field for field, the scalars' orders included, on sl(2), sl(3), sl(4)
    for n in (2, 3, 4):
        for orders in ((1,), (1, 3), (1, 4, 8)):
            for kind in ("inner", "outer"):
                for _ in range(2):
                    f = Automorphism(special_linear(n), kind,
                                     rand_cyclo_invertible(n, orders))
                    got, want = _action_matrix(f), product_built_action(f)
                    assert got.to_json() == want.to_json()
                    assert got.order == want.order


LETTERS = [named_automorphism(name) for name in sorted(NAMED_AUTOMORPHISMS)]
LETTERS += [inverse(f) for f in LETTERS]


def test_words_carry_their_inverse_transposes_without_elimination(monkeypatch):
    # a composition's rep^(-T) is the product of what its factors carry: once
    # the letters carry theirs, no word over them eliminates again, and the
    # carried matrix equals the eliminated one in entries and order
    word_rng = random.Random(90321)
    assert {f.kind for f in LETTERS} == {"inner", "outer"}
    for f in LETTERS:
        f._inverse_transpose()
    eliminated, matrix_inverse = [], Matrix.inverse
    monkeypatch.setattr(Matrix, "inverse",
                        lambda a: eliminated.append(a) or matrix_inverse(a))
    for length in range(1, 25):
        word = word_rng.choice(LETTERS)
        for _ in range(length - 1):
            letter = word_rng.choice(LETTERS)
            word = compose(letter, word) if word_rng.random() < 0.5 else compose(word, letter)
        inv_t, inv = word._inverse_transpose(), inverse(word)
        assert eliminated == [], length
        assert word._factors is None  # dropped once the product exists
        expected = matrix_inverse(word.rep.transpose())
        assert inv_t.to_json() == expected.to_json() and inv_t.order == expected.order
        assert compose(inv, word).is_identity()


def test_a_long_word_inverts_without_recursion():
    # 5,000 letters composed on the left: resolving the word's rep^(-T)
    # walks the whole chain of factors, on an explicit stack
    word_rng = random.Random(90322)
    word = identity_automorphism()
    for _ in range(5000):
        word = compose(word_rng.choice(LETTERS), word)
    start = time.perf_counter()
    inv = inverse(word)
    assert time.perf_counter() - start < 1.0
    assert compose(inv, word).is_identity()
