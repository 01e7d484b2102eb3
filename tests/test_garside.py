"""Greedy normalization, heads, family recognition, symmetric forms."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from garsidekit.core import concat, empty_word
from garsidekit.errors import HeadUndefined
from garsidekit.garside import (
    GarsideFamily,
    is_garside_family,
    symmetric_normalize,
    word_problem,
)
from garsidekit.bounded import gcd
from garsidekit.conjugacy import signed_equal

import oracles
from oracles import B3_RELS


# --- is_greedy ---------------------------------------------------------------


def test_is_greedy_fixtures(b3_family, n2_family, b3_ctx, n2_ctx):
    assert b3_family.is_greedy(b3_ctx.parse("aba"), b3_ctx.parse("b")) is True
    assert b3_family.is_greedy(b3_ctx.parse("ab"), b3_ctx.parse("ab")) is False
    assert n2_family.is_greedy(n2_ctx.parse("x"), n2_ctx.parse("y")) is False


def test_is_greedy_matches_divisor_definition(b3_family, b3_ctx):
    """greedy(s1, s2) iff every family element dividing s1 s2 divides s1."""
    shorts = [b3_ctx.parse(s) for s in oracles.words_up_to("ab", 3) if s]
    for s1, s2 in itertools.product(shorts, repeat=2):
        whole = concat(s1, s2)
        want = all(
            b3_ctx.left_divides(e, s1)
            for e in b3_family.elements
            if b3_ctx.left_divides(e, whole)
        )
        assert b3_family.is_greedy(s1, s2) is want


# --- head ---------------------------------------------------------------------


def test_head_fixtures(b3_family, n2_family, b3_ctx, n2_ctx):
    h = b3_family.head(b3_ctx.parse("abab"))
    assert b3_ctx.show(b3_family.elements[h]) == "aba"
    h2 = b3_family.head(b3_ctx.parse("baab"))
    assert b3_ctx.show(b3_family.elements[h2]) == "ba"
    h3 = n2_family.head(n2_ctx.parse("xxy"))
    assert n2_ctx.show(n2_family.elements[h3]) == "xy"


def test_head_is_greatest_divisor(b3_family, b3_ctx):
    for s in oracles.words_up_to("ab", 5):
        if not s:
            continue
        g = b3_ctx.parse(s)
        h = b3_family.elements[b3_family.head(g)]
        assert b3_ctx.left_divides(h, g)
        for e in b3_family.elements:
            if b3_ctx.left_divides(e, g):
                assert b3_ctx.left_divides(e, h), (s, b3_ctx.show(e))


def test_head_nontrivial_for_nontrivial_input(b3_family, b3_ctx):
    for s in ("a", "b", "ba", "bab"):
        assert b3_family.head(b3_ctx.parse(s)) is not None


def test_head_undefined_without_garside_family(n2_ctx):
    fam = GarsideFamily(n2_ctx, [n2_ctx.parse("x"), n2_ctx.parse("y")])
    with pytest.raises(HeadUndefined):
        fam.head(n2_ctx.parse("xy"))


# --- normalize ------------------------------------------------------------------


def test_normalize_fixtures(b3_family, b3_ctx):
    assert b3_family.normalize(b3_ctx.parse("abab")).display() == "aba.b"
    assert b3_family.normalize(b3_ctx.parse("baab")).display() == "ba.ab"
    empty = b3_family.normalize(empty_word(0))
    assert empty.factors == ()
    assert empty.display() == "1"


def test_normalize_factors_multiply_back(b3_family, b3_ctx):
    for s in oracles.words_up_to("ab", 6):
        nd = b3_family.normalize(b3_ctx.parse(s))
        assert b3_ctx.equal(nd.word(), b3_ctx.parse(s))


def test_normalize_junctions_greedy_and_nontrivial(b3_family, b3_ctx):
    for s in oracles.words_up_to("ab", 6):
        nd = b3_family.normalize(b3_ctx.parse(s))
        factors = [b3_family.elements[i] for i in nd.factors]
        assert all(not f.is_empty for f in factors)
        for f1, f2 in zip(factors, factors[1:]):
            assert b3_family.is_greedy(f1, f2)


def test_normal_forms_unique_across_classes(b3_family, b3_ctx):
    seen = {}
    for s in oracles.words_up_to("ab", 6):
        key = oracles.canon(s, B3_RELS)
        factors = b3_family.normalize(b3_ctx.parse(s)).factors
        if key in seen:
            assert seen[key] == factors, s
        else:
            seen[key] = factors
    # distinct classes get distinct factor sequences
    assert len(set(seen.values())) == len(seen)


def test_check_normal_matches_pairwise_greediness(b3_family, b3_ctx):
    simples = [s for s in ("a", "b", "ab", "ba", "aba")]
    for pair in itertools.product(simples, repeat=2):
        nd = b3_family.normalize(b3_ctx.parse("".join(pair)))
        factors = [b3_family.elements[i] for i in nd.factors]
        flags = b3_family.check_normal(nd)
        assert len(flags) == max(len(factors) - 1, 0)
        assert all(flags)
        assert list(flags) == [
            b3_family.is_greedy(f1, f2) for f1, f2 in zip(factors, factors[1:])
        ]


# --- left_multiply_normal (domino rule) -----------------------------------------


def test_domino_fixture(b3_family, b3_ctx):
    nd = b3_family.left_multiply_normal(
        b3_ctx.parse("a"), b3_family.normalize(b3_ctx.parse("b"))
    )
    assert nd.display() == "ab"


def test_domino_on_empty_decomposition(b3_family, b3_ctx):
    nd = b3_family.left_multiply_normal(
        b3_ctx.parse("ba"), b3_family.normalize(empty_word(0))
    )
    assert nd.display() == "ba"


@pytest.mark.parametrize(
    "key", ["braid:3", "braid:4", "free_abelian:2", "dual_braid:3"]
)
def test_domino_agrees_with_batch_normalize(entry, key):
    ent = entry(key)
    ctx, fam = ent.context, ent.family
    rng = random.Random(20260814)
    atoms = ctx.atoms()
    for _ in range(1000):
        s = fam.elements[rng.randrange(len(fam.elements))]
        w = empty_word(0)
        for _ in range(rng.randrange(6)):
            w = concat(w, atoms[rng.randrange(len(atoms))])
        nd = fam.normalize(w)
        via_domino = fam.left_multiply_normal(s, nd)
        batch = fam.normalize(concat(s, w))
        assert via_domino.factors == batch.factors


def test_memos_stay_bounded_over_long_words(b4_ctx, b4_family):
    """Long words are not memoised, so the memos stop growing with use."""
    fam = GarsideFamily(b4_ctx, b4_family.elements)
    bound = 2 * max(len(e) for e in fam.elements)
    rng = random.Random(20261018)
    seen = set()
    while len(seen) < 200:
        seen.add("".join(rng.choice("abc") for _ in range(40)))
    for text in sorted(seen):
        nd = fam.normalize(b4_ctx.parse(text))
        fam.left_multiply_normal(fam.elements[rng.randrange(len(fam))], nd)
    for memo in (fam._head_memo, fam._index_memo):
        assert memo
        assert max(len(k) for k in memo) <= bound
        assert len(memo) <= sum(3**k for k in range(bound + 1))


# --- is_garside_family ------------------------------------------------------------


def test_family_recognition_n2(n2_ctx, n2_family):
    assert is_garside_family(n2_ctx, n2_family).ok


def test_family_recognition_rejects_open_family(n2_ctx):
    fam = GarsideFamily(n2_ctx, [n2_ctx.parse("x"), n2_ctx.parse("y")])
    v = is_garside_family(n2_ctx, fam)
    assert not v.ok
    assert v.reason == "not closed under right-lcm"
    assert v.witness == ("x", "y", "xy")


def test_family_recognition_b3(b3_ctx, b3_family):
    assert is_garside_family(b3_ctx, b3_family).ok


def test_family_recognition_b4(b4_ctx, b4_family):
    assert is_garside_family(b4_ctx, b4_family).ok


def test_family_missing_divisor_rejected(b3_ctx):
    fam = GarsideFamily(
        b3_ctx, [b3_ctx.parse(w) for w in ("a", "b", "aba")]
    )
    v = is_garside_family(b3_ctx, fam)
    assert not v.ok


# --- word problem ------------------------------------------------------------------


def test_word_problem_fixtures(b3_family, b3_ctx):
    assert word_problem(
        b3_family, b3_ctx.parse("abaa"), b3_ctx.parse("baba")
    )
    assert not word_problem(b3_family, b3_ctx.parse("ab"), b3_ctx.parse("ba"))
    w = b3_ctx.parse("bab")
    assert word_problem(b3_family, w, w)


def test_word_problem_matches_oracle(b3_family, b3_ctx):
    words = list(oracles.words_up_to("ab", 5))
    for su, sv in itertools.product(words, repeat=2):
        got = word_problem(b3_family, b3_ctx.parse(su), b3_ctx.parse(sv))
        assert got is oracles.equal_words(su, sv, B3_RELS), (su, sv)


# --- symmetric normalization ---------------------------------------------------------


def test_symmetric_fixture_left_disjoint(b3_family, b3_ctx):
    sn = symmetric_normalize(
        b3_family, b3_ctx.presentation.parse_signed("a^-1 b")
    )
    assert [b3_ctx.show(b3_family.elements[i]) for i in sn.negatives.factors] == ["a"]
    assert [b3_ctx.show(b3_family.elements[i]) for i in sn.positives.factors] == ["b"]
    assert sn.display() == "(a)^-1 . b"


def test_symmetric_identity(b3_family, b3_ctx):
    sn = symmetric_normalize(
        b3_family, b3_ctx.presentation.parse_signed("a a^-1")
    )
    assert sn.negatives.factors == () and sn.positives.factors == ()
    assert sn.display() == "1"


def test_symmetric_strips_common_head(b3_family, b3_ctx, b3_gm):
    pres = b3_ctx.presentation
    sn = symmetric_normalize(b3_family, pres.parse_signed("b^-1 a^-1 b a"))
    # round trip: the fraction equals the input in the enveloping groupoid
    assert signed_equal(b3_gm, sn.signed_word(), pres.parse_signed("b^-1 a^-1 b a"))
    # innermost pair is left-disjoint
    if sn.negatives.factors and sn.positives.factors:
        t1 = b3_family.elements[sn.negatives.factors[0]]
        s1 = b3_family.elements[sn.positives.factors[0]]
        assert gcd(b3_gm, t1, s1).is_empty


@given(
    st.lists(
        st.tuples(st.sampled_from("ab"), st.sampled_from([1, -1])),
        max_size=8,
    )
)
@settings(deadline=None, max_examples=60)
def test_symmetric_round_trip_random(pairs):
    from conftest import monoid_presentation
    from garsidekit.contexts import PresentedContext
    from garsidekit.bounded import build_garside_map

    ctx = PresentedContext(monoid_presentation("ab", [("aba", "bab")]))
    fam = GarsideFamily(
        ctx, [ctx.parse(w) for w in ("a", "b", "ab", "ba", "aba")]
    )
    gm = build_garside_map(ctx, fam)
    text = " ".join(ch if s > 0 else f"{ch}^-1" for ch, s in pairs)
    sw = ctx.presentation.parse_signed(text)
    sn = symmetric_normalize(fam, sw)
    assert signed_equal(gm, sn.signed_word(), sw)
    for half in (sn.negatives, sn.positives):
        assert all(fam.check_normal(half))
