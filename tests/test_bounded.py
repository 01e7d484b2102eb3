"""Garside maps: Δ, the complement ∂, φ, Δ-normal forms, gcd/lcm."""

from __future__ import annotations

import itertools
import random

import pytest

from garsidekit.bounded import (
    Unbounded,
    build_garside_map,
    delta_normalize,
    gcd,
    lcm_left,
    lcm_right,
)
from garsidekit.core import empty_word, mirror_word
from garsidekit.errors import GarsideError, NotADivisor
from garsidekit.garside import GarsideFamily
from garsidekit.conjugacy import signed_equal

import oracles
from oracles import B3_RELS


# --- build --------------------------------------------------------------------


def test_build_b3(b3_ctx, b3_gm):
    assert b3_ctx.show(b3_gm.delta_word(0)) == "aba"
    assert len(b3_gm.divisors[0]) == 5  # plus the implicit identity


def test_build_n2(n2_ctx, n2_gm):
    assert n2_ctx.show(n2_gm.delta_word(0)) == "xy"


def test_build_b4(b4_ctx, b4_gm):
    delta = b4_gm.delta_word(0)
    assert len(delta.letters) == 6
    assert len(b4_gm.divisors[0]) == 23


def test_klein_atom_family_unbounded():
    import dataclasses

    from garsidekit import catalog

    ctx = catalog.build("klein").context
    # a tight enumeration cap keeps the certificate cheap; any cap works
    # because the divisor set genuinely grows without bound
    ctx.limits = dataclasses.replace(ctx.limits, divisor_search_bound=24)
    fam = GarsideFamily(ctx, [ctx.parse("a"), ctx.parse("b")])
    got = build_garside_map(ctx, fam)
    assert isinstance(got, Unbounded)
    assert got.witness  # the growing divisor enumeration is the certificate


def test_div_delta_that_is_not_a_germ_is_unbounded():
    """
    In <a, b | aba = bb> the right divisor ba of Δ = aba does not divide Δ
    on the left, so a·b·a is defined in Div(Δ) while b·a is not: the
    compiled Div(Δ) fails the germ axioms and the validator's reason is
    returned.
    """
    from conftest import monoid_presentation
    from garsidekit.contexts import PresentedContext

    ctx = PresentedContext(monoid_presentation("ab", [("aba", "bb")]))
    fam = GarsideFamily(ctx, [ctx.parse(w) for w in ("a", "b", "ab", "aba")])
    got = build_garside_map(ctx, fam)
    assert isinstance(got, Unbounded)
    assert got.reason == "associativity"
    assert got.witness == ("a", "b", "a")


# --- complement ----------------------------------------------------------------


def test_complement_fixtures(b3_ctx, b3_gm):
    pairs = {"a": "ba", "b": "ab", "ba": "b", "ab": "a", "aba": ""}
    for g, want in pairs.items():
        got = b3_gm.complement(b3_ctx.parse(g))
        assert b3_ctx.equal(got, b3_ctx.parse(want)), g


def test_complement_of_identity_is_delta(b3_ctx, b3_gm):
    assert b3_ctx.equal(b3_gm.complement(empty_word(0)), b3_ctx.parse("aba"))


def test_complement_law(b3_ctx, b3_gm, b3_family):
    from garsidekit.core import concat

    for g in b3_family.elements:
        assert b3_ctx.equal(
            concat(g, b3_gm.complement(g)), b3_gm.delta_word(0)
        )


def test_complement_rejects_non_divisor(b3_ctx, b3_gm):
    with pytest.raises(NotADivisor):
        b3_gm.complement(b3_ctx.parse("aa"))


def test_complement_is_a_bijection(b3_ctx, b3_gm, b3_family):
    divisors = list(b3_family.elements) + [empty_word(0)]
    images = {b3_ctx.show(b3_gm.complement(g)) for g in divisors}
    assert len(images) == len(divisors)


def test_complement_reverses_divisibility(b3_ctx, b3_gm, b3_family):
    """g left-divides h iff ∂h right-divides ∂g (Δ = g·∂g = g·e·∂h)."""

    def plain(w):
        return "" if w.is_empty else b3_ctx.show(w)

    divisors = list(b3_family.elements) + [empty_word(0)]
    for g, h in itertools.product(divisors, repeat=2):
        lhs = b3_ctx.left_divides(g, h)
        rhs = oracles.right_divides(
            plain(b3_gm.complement(h)), plain(b3_gm.complement(g)), B3_RELS
        )
        assert bool(lhs) is rhs, (b3_ctx.show(g), b3_ctx.show(h))


# --- phi -------------------------------------------------------------------------


def test_phi_fixtures(b3_ctx, b3_gm):
    assert b3_ctx.show(b3_gm.phi(b3_ctx.parse("a"))) == "b"
    assert b3_ctx.show(b3_gm.phi(b3_ctx.parse("b"))) == "a"
    delta = b3_ctx.parse("aba")
    assert b3_ctx.equal(b3_gm.phi(delta), delta)


def test_phi_identity_on_commutative(n2_ctx, n2_gm):
    for w in ("x", "y", "xy", "xxyy"):
        parsed = n2_ctx.parse(w)
        assert n2_ctx.equal(n2_gm.phi(parsed), parsed)


def test_phi_is_square_of_complement(b3_ctx, b3_gm, b3_family):
    for g in b3_family.elements:
        twice = b3_gm.complement(b3_gm.complement(g))
        assert b3_ctx.equal(b3_gm.phi(g), twice)


def test_phi_conjugation_law_exhaustive(b3_ctx, b3_gm, b3_family):
    from garsidekit.core import concat

    delta = b3_gm.delta_word(0)
    for g in list(b3_family.elements) + [empty_word(0)]:
        assert b3_ctx.equal(concat(delta, b3_gm.phi(g)), concat(g, delta))


def test_phi_extends_multiplicatively(b3_ctx, b3_gm):
    from garsidekit.core import concat

    for s in oracles.words_up_to("ab", 4):
        w = b3_ctx.parse(s)
        delta = b3_gm.delta_word(0)
        assert b3_ctx.equal(concat(delta, b3_gm.phi(w)), concat(w, delta))


def test_phi_negative_power_inverts(b3_ctx, b3_gm):
    for s in ("a", "b", "ab", "aba"):
        w = b3_ctx.parse(s)
        assert b3_ctx.equal(b3_gm.phi(b3_gm.phi(w, -1)), w)


# --- delta normal -----------------------------------------------------------------


def test_delta_normalize_positive_fixture(b3_ctx, b3_gm, b3_family):
    dn = delta_normalize(b3_gm, b3_ctx.parse("abab"))
    assert dn.m == 1
    assert [b3_ctx.show(b3_family.elements[i]) for i in dn.factors] == ["b"]
    assert dn.display() == "D^1 . b"
    assert (dn.inf, dn.sup) == (1, 2)


def test_delta_normalize_negative_letter(b3_ctx, b3_gm, b3_family):
    pres = b3_ctx.presentation
    dn = delta_normalize(b3_gm, pres.parse_signed("a^-1"))
    assert dn.m == -1
    assert [b3_ctx.show(b3_family.elements[i]) for i in dn.factors] == ["ab"]
    # groupoid equality: D^-1 . ab == a^-1
    assert signed_equal(b3_gm, dn.signed_word(), pres.parse_signed("a^-1"))


def test_delta_normalize_empty(b3_gm):
    dn = delta_normalize(b3_gm, empty_word(0))
    assert dn.m == 0 and dn.factors == ()
    assert dn.display() == "1"


def test_delta_normalize_pure_power(b3_ctx, b3_gm):
    dn = delta_normalize(b3_gm, b3_ctx.parse("abaaba"))
    assert dn.m == 2 and dn.factors == ()
    assert dn.display() == "D^2"


def test_delta_factors_match_greedy_normal_form(b3_ctx, b3_gm, b3_family):
    """Prefixing m copies of Δ to the Δ-normal tail is the greedy form."""
    delta_idx = b3_family.index(b3_ctx.parse("aba"))
    for s in oracles.words_up_to("ab", 6):
        dn = delta_normalize(b3_gm, b3_ctx.parse(s))
        assert dn.m >= 0
        want = b3_family.normalize(b3_ctx.parse(s)).factors
        assert (delta_idx,) * dn.m + dn.factors == want, s


def test_delta_normal_factors_are_proper(b3_ctx, b3_gm, b3_family):
    delta_idx = b3_family.index(b3_ctx.parse("aba"))
    for s in oracles.words_up_to("ab", 6):
        dn = delta_normalize(b3_gm, b3_ctx.parse(s))
        assert delta_idx not in dn.factors


def test_delta_normalize_signed_round_trip(b3_ctx, b3_gm):
    pres = b3_ctx.presentation
    for text in ("a^-1 b", "b^-1 a^-1 b a", "a b^-1", "a^-1 a", "b a b^-1 a^-1"):
        sw = pres.parse_signed(text)
        dn = delta_normalize(b3_gm, sw)
        assert signed_equal(b3_gm, dn.signed_word(), sw), text


def test_inf_sup_bookkeeping(b3_ctx, b3_gm):
    dn = delta_normalize(b3_gm, b3_ctx.parse("abaab"))
    assert dn.sup - dn.inf == len(dn.factors)


# --- gcd / lcm -------------------------------------------------------------------


def test_gcd_fixtures(b3_ctx, b3_gm):
    got = gcd(b3_gm, b3_ctx.parse("ab"), b3_ctx.parse("aba"))
    assert b3_ctx.equal(got, b3_ctx.parse("ab"))
    assert gcd(b3_gm, b3_ctx.parse("a"), b3_ctx.parse("b")).is_empty
    assert gcd(b3_gm, b3_ctx.parse("bab"), empty_word(0)).is_empty


def test_gcd_matches_exhaustive_divisor_search(b3_gm, b3_ctx):
    for su in oracles.words_up_to("ab", 4):
        for sv in oracles.words_up_to("ab", 4):
            got = gcd(b3_gm, b3_ctx.parse(su), b3_ctx.parse(sv))
            want = oracles.left_gcd(su, sv, B3_RELS)
            shown = "" if got.is_empty else b3_ctx.show(got)
            assert oracles.equal_words(shown, want, B3_RELS), (su, sv)


def test_lcm_right_matches_reversing(b3_ctx, b3_gm):
    for su in oracles.words_up_to("ab", 3):
        for sv in oracles.words_up_to("ab", 3):
            via_gm = lcm_right(b3_gm, b3_ctx.parse(su), b3_ctx.parse(sv))
            via_rev = b3_ctx.right_lcm(b3_ctx.parse(su), b3_ctx.parse(sv))
            assert b3_ctx.equal(via_gm, via_rev), (su, sv)


def test_lcm_left_is_mirror_of_lcm_right(b3_ctx, b3_gm):
    for su in oracles.words_up_to("ab", 3):
        for sv in oracles.words_up_to("ab", 3):
            left = lcm_left(b3_gm, b3_ctx.parse(su), b3_ctx.parse(sv))
            mirrored = lcm_right(
                b3_gm,
                mirror_word(b3_ctx.parse(su)),
                mirror_word(b3_ctx.parse(sv)),
            )
            assert b3_ctx.equal(left, mirror_word(mirrored)), (su, sv)


def test_lattice_laws_sample(b3_ctx, b3_gm):
    words = [b3_ctx.parse(s) for s in oracles.words_up_to("ab", 3)]
    for u, v in itertools.product(words, repeat=2):
        guv, gvu = gcd(b3_gm, u, v), gcd(b3_gm, v, u)
        assert b3_ctx.equal(guv, gvu)
        assert b3_ctx.equal(gcd(b3_gm, u, u), u)
        # absorption
        assert b3_ctx.equal(gcd(b3_gm, u, lcm_right(b3_gm, u, v)), u)
        luv = lcm_right(b3_gm, u, guv)
        assert b3_ctx.equal(luv, u)


# --- the Div(Δ) table against the word-level arms ---------------------------------


@pytest.mark.parametrize("name", ["b3", "b4", "n2", "n3"])
def test_table_matches_word_arms(request, name):
    gm = request.getfixturevalue(f"{name}_gm")
    family = gm.family
    divs = [i for obj in sorted(gm.divisors) for i in gm.divisors[obj]]
    for i in divs:
        assert gm.compl[i] == oracles.word_complement_index(gm, i)
        assert gm.phi_index(i, 1) == oracles.word_phi_index(gm, i)
    for i, j in itertools.product(divs, repeat=2):
        assert gm.meet(i, j) == oracles.word_meet(gm, i, j), (i, j)
        assert gm.normal_factors((i, j)) == oracles.word_normal_factors(gm, (i, j))
        if family._divides(i, j):
            assert gm.left_quotient_index(i, j) == oracles.word_quotient_index(gm, i, j)
        else:
            with pytest.raises(GarsideError):
                gm.left_quotient_index(i, j)
    rng = random.Random(name)
    for _ in range(40):
        seq = tuple(rng.choice(divs) for _ in range(rng.randint(3, 6)))
        assert gm.normal_factors(seq) == oracles.word_normal_factors(gm, seq), seq
