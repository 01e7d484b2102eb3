"""Bounded rewriting closure: the fallback equality/divisibility backend."""

from __future__ import annotations

import dataclasses

import pytest

from garsidekit.config import DEFAULT_LIMITS
from garsidekit.contexts import PresentedContext
from garsidekit.errors import INCONCLUSIVE
from garsidekit.rewriting import RewriteSystem

import oracles
from conftest import monoid_presentation
from oracles import B3_RELS


@pytest.fixture(scope="module")
def rw():
    return RewriteSystem(monoid_presentation("ab", [("aba", "bab")]), DEFAULT_LIMITS)


@pytest.fixture(scope="module")
def ctx():
    return PresentedContext(monoid_presentation("ab", [("aba", "bab")]))


def test_closure_matches_oracle_class(rw, ctx):
    for s in oracles.words_up_to("ab", 6):
        seen, complete = rw.closure(ctx.parse(s))
        assert complete
        got = {t for t in seen}
        want = {
            tuple("ab".index(c) for c in m)
            for m in oracles.congruence_class(s, B3_RELS)
        }
        assert got == want, s


def test_equal_definite_within_budget(rw, ctx):
    assert rw.equal(ctx.parse("abaa"), ctx.parse("baba")) is True
    assert rw.equal(ctx.parse("ab"), ctx.parse("ba")) is False
    assert rw.equal(ctx.parse("a"), ctx.parse("ab")) is False


def test_left_divides_and_quotient(rw, ctx):
    assert rw.left_divides(ctx.parse("ab"), ctx.parse("aba")) is True
    q = rw.left_quotient(ctx.parse("ab"), ctx.parse("aba"))
    assert ctx.show(q) == "a"
    assert rw.left_quotient(ctx.parse("b"), ctx.parse("ab")) is None


def test_left_divides_agrees_with_left_quotient():
    """Divisibility is whether a quotient was found, INCONCLUSIVE included;
    on B3 the answers are exact."""
    klein = monoid_presentation("ab", [("a", "bab")])
    tight = dataclasses.replace(DEFAULT_LIMITS, rewrite_states=5, rewrite_slack=2)
    b3 = monoid_presentation("ab", [("aba", "bab")])
    undecided = 0
    for p, limits in ((klein, tight), (b3, DEFAULT_LIMITS)):
        rw = RewriteSystem(p, limits)
        ctx = PresentedContext(p, limits=limits)
        for s in oracles.words_up_to("ab", 3):
            for t in oracles.words_up_to("ab", 3):
                u, v = ctx.parse(s), ctx.parse(t)
                q = rw.left_quotient(u, v)
                got = rw.left_divides(u, v)
                if q is INCONCLUSIVE:
                    assert got is INCONCLUSIVE, (s, t)
                    undecided += 1
                else:
                    assert got is (q is not None), (s, t)
                if p is b3:
                    assert got is oracles.left_divides(s, t, B3_RELS), (s, t)
    assert undecided > 0


def test_homogeneous_classes_always_complete(ctx):
    tight = dataclasses.replace(DEFAULT_LIMITS, rewrite_states=10)
    rw = RewriteSystem(ctx.presentation, tight)
    seen, complete = rw.closure(ctx.parse("abaaba"))
    if not complete:
        assert rw.equal(ctx.parse("abaaba"), ctx.parse("aabbaa")) in (
            True,
            False,
            INCONCLUSIVE,
        )


def test_inconclusive_past_budget_is_not_a_boolean():
    klein = monoid_presentation("ab", [("a", "bab")])
    tight = dataclasses.replace(DEFAULT_LIMITS, rewrite_states=5, rewrite_slack=2)
    rw = RewriteSystem(klein, tight)
    ctx = PresentedContext(klein, limits=tight)
    verdict = rw.equal(ctx.parse("abababab"), ctx.parse("bbbbbbbb"))
    if verdict is INCONCLUSIVE:
        with pytest.raises(Exception):
            bool(verdict)
    else:
        assert verdict is False


def test_nonhomogeneous_closure_reports_incompleteness():
    klein = monoid_presentation("ab", [("a", "bab")])
    rw = RewriteSystem(klein, DEFAULT_LIMITS)
    ctx = PresentedContext(klein)
    # every b^k (ab)b^k rewrites into a; class of "a" is infinite
    seen, complete = rw.closure(ctx.parse("a"))
    assert not complete or len(seen) > 1
    assert rw.equal(ctx.parse("a"), ctx.parse("bab")) is True


def test_klein_depth_limited_equal_agrees_with_value_map():
    klein = monoid_presentation("ab", [("a", "bab")])
    rw = RewriteSystem(klein, DEFAULT_LIMITS)
    ctx = PresentedContext(klein)
    for s in oracles.words_up_to("ab", 4):
        for t in oracles.words_up_to("ab", 4):
            verdict = rw.equal(ctx.parse(s), ctx.parse(t))
            if verdict is INCONCLUSIVE:
                continue
            assert verdict is oracles.klein_equal(s, t), (s, t)


def test_homogeneous_closure_is_not_depth_capped():
    # dual braid monoid of rank 3; these classes need more rewriting steps
    # than word length + slack, but are finite because the relations are
    # length-preserving
    rels = (("ab", "bc"), ("bc", "ca"))
    ctx = PresentedContext(monoid_presentation("abc", list(rels)))
    assert ctx.equal(ctx.parse("aaaaaaba"), ctx.parse("aaaaaaaa")) is False
    assert not oracles.equal_words("aaaaaaba", "aaaaaaaa", rels)
    assert ctx.left_divides(ctx.parse("cc"), ctx.parse("aaaaaaaba")) is True
    assert oracles.left_divides("cc", "aaaaaaaba", rels)
