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
from garsidekit.core import SignedWord, empty_word, mirror_word
from garsidekit.errors import GarsideError, NotADivisor, UnsupportedError
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


# --- Δ-forms from the table against the padded word route ---------------------------

AC_GAR = """\
[generators]
a
c

[relations]
c = a a

[garside]
delta: a
"""

B3C_GAR = """\
[generators]
a
b
c

[relations]
a b a = b a b
c = a b a b

[garside]
delta: a b a
"""


def _form(d):
    return (d.m, d.factors, d.source, d.target)


def _signed_words(ctx, n):
    """Every composable signed word of at most n letters, empty words included."""
    steps = []
    for g in ctx.presentation.generators:
        steps += [((g.id, 1), g.source, g.target), ((g.id, -1), g.target, g.source)]
    frontier = [SignedWord((), o.id, o.id) for o in ctx.presentation.objects]
    out = list(frontier)
    for _ in range(n):
        frontier = [
            SignedWord(w.letters + (x,), w.source if w.letters else a, b)
            for w in frontier
            for x, a, b in steps
            if not w.letters or a == w.target
        ]
        out += frontier
    return out


def _random_signed(ctx, rng, lo, hi):
    n = len(ctx.presentation.generators)
    letters = tuple(
        (rng.randrange(n), rng.choice((1, -1))) for _ in range(rng.randint(lo, hi))
    )
    return SignedWord(letters, 0, 0)


def _outcome(fn, gm, w):
    """The Δ-form, or the type and message of the error raised."""
    try:
        return _form(fn(gm, w))
    except GarsideError as e:
        return type(e), str(e)


def _assert_same_forms(gm, words):
    for w in words:
        got = _outcome(delta_normalize, gm, w)
        want = _outcome(oracles.padded_delta_normalize, gm, w)
        assert got == want, gm.ctx.presentation.display_signed(w)


def _map(request, entry, name):
    """A catalog key's map, or the presented fixture `name`_gm."""
    return entry(name).garside_map if ":" in name else request.getfixturevalue(f"{name}_gm")


@pytest.mark.parametrize(
    "name, n, count",
    [("braid:3", 4, 11111), ("b3", 4, 341), ("dual_braid:4", 3, 18279), ("free_abelian:3", 3, 2955)],
)
def test_delta_forms_match_padded_route_on_short_words(request, entry, name, n, count):
    gm = _map(request, entry, name)
    words = _signed_words(gm.ctx, n)
    assert len(words) == count
    _assert_same_forms(gm, words)


@pytest.mark.parametrize("name", ["braid:4", "dual_braid:4", "b4"])
def test_delta_forms_match_padded_route_on_long_words(request, entry, name):
    gm = _map(request, entry, name)
    rng = random.Random(name)
    count = 15 if name == "b4" else 40
    _assert_same_forms(gm, [_random_signed(gm.ctx, rng, 50, 200) for _ in range(count)])


def test_delta_forms_match_padded_route_on_a3_ribbon_walks():
    from garsidekit.bounded import germ_family
    from garsidekit.germs import GermContext
    from test_conjugacy import _random_path, a3_ribbon_germ

    germ, _, _ = a3_ribbon_germ()
    ctx = GermContext(germ)
    _, gm = germ_family(ctx)
    rng = random.Random("a3-ribbon-forms")
    gens = ctx.presentation.generators
    starts = [o.id for o in germ.objects if any(g.source == o.id for g in gens)]
    assert len(starts) == 7  # every object but {a, b, c}, where nothing starts
    walks = [
        _random_path(ctx, rng, obj, rng.randint(1, 10)) for obj in starts for _ in range(40)
    ]
    _assert_same_forms(gm, walks)


@pytest.mark.parametrize("text", [AC_GAR, B3C_GAR], ids=["ac", "b3c"])
def test_delta_forms_with_a_generator_outside_div_delta(text):
    from garsidekit import io_formats as iof

    gm = iof.load_text(text).garside_map
    words = _signed_words(gm.ctx, 4)
    _assert_same_forms(gm, words)
    if text == B3C_GAR:
        sw = gm.ctx.presentation.parse_signed("b^-1 c a^-1")
        with pytest.raises(UnsupportedError, match="no fraction available"):
            delta_normalize(gm, sw)


def test_delta_normalize_reads_no_word_route(b4_gm, monkeypatch):
    """Signed Δ-forms come from the table alone: no context quotient, no
    family head or normal form, no word-level φ or Δ."""
    rng = random.Random("table-only")
    words = [_random_signed(b4_gm.ctx, rng, 1, 30) for _ in range(30)]
    want = [_form(oracles.padded_delta_normalize(b4_gm, w)) for w in words]

    def refuse(*args, **kwargs):
        raise AssertionError("word-level route used")

    monkeypatch.setattr(b4_gm.ctx, "left_quotient", refuse)
    monkeypatch.setattr(b4_gm.family, "normalize", refuse)
    monkeypatch.setattr(b4_gm.family, "head", refuse)
    monkeypatch.setattr(b4_gm, "phi", refuse)
    monkeypatch.setattr(b4_gm, "delta_word", refuse)
    assert [_form(delta_normalize(b4_gm, w)) for w in words] == want


def test_phi_of_a_generator_outside_div_delta_maps_its_normal_factors():
    from garsidekit import io_formats as iof
    from garsidekit.core import concat

    for text in (AC_GAR, B3C_GAR):
        gm = iof.load_text(text).garside_map
        ctx = gm.ctx
        c = ctx.parse("c")
        assert gm.family.index(c) is None
        with pytest.raises(NotADivisor):
            gm.complement(c)
        factors = gm.family.normalize(c).factors
        for power in (1, -1, 2):
            by_table = by_phi = empty_word(0)
            for f in factors:
                by_table = concat(by_table, gm.family.elements[gm.phi_index(f, power)])
                by_phi = concat(by_phi, gm.phi(gm.family.elements[f], power))
            assert gm.phi(c, power) == by_table
            assert ctx.equal(gm.phi(c, power), by_phi)
        delta = gm.delta_word(0)
        assert ctx.equal(concat(delta, gm.phi(c)), concat(c, delta))
