"""Subword reversing: complements, grids, lcm, equality, cube condition."""

from __future__ import annotations

import itertools
import random

import pytest

from garsidekit import reversing
from garsidekit.config import DEFAULT_LIMITS
from garsidekit.core import SignedWord, Word, empty_word
from garsidekit.errors import INCONCLUSIVE
from garsidekit.reversing import (
    Complement,
    NoCommonMultiple,
    Complete,
    CounterExample,
    Diverged,
    NotComplemented,
    Reversed,
    Stuck,
    check_cube_condition,
    extract_complement,
    reverse,
    reverse_word_pair,
    reverses_to_empty,
    word_complement,
)

import oracles
from conftest import monoid_presentation
from oracles import B3_RELS, B4_RELS, N3_RELS


@pytest.fixture(scope="module")
def b3_comp(request):
    pres = monoid_presentation("ab", [("aba", "bab")])
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    return comp


def fuel_for(u: str, v: str) -> int:
    length = len(u) + len(v)
    return 16 * length * length


# --- complement extraction --------------------------------------------------


def test_extract_complement_b3():
    pres = monoid_presentation("ab", [("aba", "bab")])
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    assert pres.tokens(comp.entry(0, 1)) == "b a"  # a \ b
    assert pres.tokens(comp.entry(1, 0)) == "a b"  # b \ a
    assert comp.entry(0, 0).is_empty and comp.entry(1, 1).is_empty


def test_extract_complement_n2():
    pres = monoid_presentation("xy", [("xy", "yx")])
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    assert pres.tokens(comp.entry(0, 1)) == "y"  # x \ y
    assert pres.tokens(comp.entry(1, 0)) == "x"  # y \ x


def test_extract_complement_duplicate_head_pair():
    pres = monoid_presentation("ab", [("ab", "ba"), ("ab", "bb")])
    got = extract_complement(pres)
    assert isinstance(got, NotComplemented)
    assert got.pair == (0, 1)


def test_extract_complement_klein():
    # a = bab contributes (a, b) -> empty continuation handling: the relation
    # a = b·(ab) gives a\b undefined? read-off is from heads: a vs b.
    pres = monoid_presentation("ab", [("a", "bab")])
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    # heads a, b: a\b = ab (rest of rhs), b\a ... relation read right-to-left
    assert comp.entry(0, 1) is not None and comp.entry(1, 0) is not None


# --- reverse ----------------------------------------------------------------


def test_reverse_single_cell(b3_comp):
    pres = b3_comp.presentation
    out = reverse(b3_comp, pres.parse_signed("a^-1 b"), fuel=64)
    assert isinstance(out, Reversed)
    assert pres.tokens(out.pos) == "b a"
    assert pres.tokens(out.neg) == "a b"


def test_reverse_diagonal_is_trivial(b3_comp):
    pres = b3_comp.presentation
    out = reverse(b3_comp, pres.parse_signed("a^-1 a"), fuel=64)
    assert isinstance(out, Reversed)
    assert out.pos.is_empty and out.neg.is_empty


def test_reverse_no_negative_positive_pattern_left(b3_comp):
    pres = b3_comp.presentation
    for u in oracles.words_up_to("ab", 3):
        for v in oracles.words_up_to("ab", 3):
            text = " ".join(
                [f"{c}^-1" for c in reversed(u)] + list(v)
            )
            out = reverse(b3_comp, pres.parse_signed(text), fuel=fuel_for(u, v))
            assert isinstance(out, Reversed)
            signs = [s for _, s in out.grid.input.letters]
            # output is pos then neg^-1: once sign drops it never rises
            out_signs = [1] * len(out.pos.letters) + [-1] * len(out.neg.letters)
            assert all(
                not (a < 0 and b > 0)
                for a, b in zip(out_signs, out_signs[1:])
            )


def test_reverse_stuck_on_undefined_pair():
    # three generators, complement defined only for the (a, b) pair
    pres = monoid_presentation("abc", [("ab", "ba")])
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    out = reverse(comp, pres.parse_signed("a^-1 c"), fuel=64)
    assert isinstance(out, Stuck)
    assert out.pair == (0, 2)


def test_reverse_diverges_on_tiny_fuel(b3_comp):
    pres = b3_comp.presentation
    out = reverse(b3_comp, pres.parse_signed("a^-1 a^-1 b b"), fuel=1)
    assert isinstance(out, (Diverged, Reversed))
    if isinstance(out, Diverged):
        assert out.cells >= 1


def test_reverse_soundness_b3(b3_comp):
    """u·pos = v·neg for all |u|+|v| <= 6, against the closure oracle."""
    pres = b3_comp.presentation
    for u in oracles.words_up_to("ab", 6):
        for v in oracles.words_up_to("ab", 6 - len(u)):
            out = reverse_word_pair(
                b3_comp, pres.parse_word(u), pres.parse_word(v), fuel_for(u, v)
            )
            assert isinstance(out, Reversed)
            pos = "".join("ab"[i] for i in out.pos.letters)
            neg = "".join("ab"[i] for i in out.neg.letters)
            assert oracles.equal_words(u + pos, v + neg, B3_RELS), (u, v)


@pytest.mark.parametrize(
    "letters,rels,relpairs",
    [
        ("abc", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")], B4_RELS),
        ("xyz", [("xy", "yx"), ("xz", "zx"), ("yz", "zy")], N3_RELS),
    ],
)
def test_reverse_soundness_three_generators(letters, rels, relpairs):
    pres = monoid_presentation(letters, rels)
    comp = extract_complement(pres)
    assert isinstance(comp, Complement)
    for u in oracles.words_up_to(letters, 3):
        for v in oracles.words_up_to(letters, 6 - len(u) if len(u) <= 3 else 0):
            out = reverse_word_pair(
                comp, pres.parse_word(u), pres.parse_word(v), fuel_for(u, v)
            )
            assert isinstance(out, Reversed)
            pos = "".join(letters[i] for i in out.pos.letters)
            neg = "".join(letters[i] for i in out.neg.letters)
            assert oracles.equal_words(u + pos, v + neg, relpairs), (u, v)


def test_grid_cell_count_stays_under_fuel(b3_comp):
    pres = b3_comp.presentation
    for u in oracles.words_up_to("ab", 4):
        for v in oracles.words_up_to("ab", 4):
            if not u and not v:
                continue
            out = reverse_word_pair(
                b3_comp, pres.parse_word(u), pres.parse_word(v), fuel_for(u, v)
            )
            assert isinstance(out, Reversed)
            assert out.grid.cell_count <= fuel_for(u, v)


# --- two-stack kernel against the list-splice oracle -------------------------


def _presented_complement(letters, rels):
    comp = extract_complement(monoid_presentation(letters, rels))
    assert isinstance(comp, Complement)
    return comp


KERNEL_CORPORA = {
    "B3": lambda entry: _presented_complement("ab", [("aba", "bab")]),
    "B4": lambda entry: _presented_complement(
        "abc", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")]
    ),
    "N3": lambda entry: _presented_complement(
        "xyz", [("xy", "yx"), ("xz", "zx"), ("yz", "zy")]
    ),
    # dual braid of rank 3 read off as a presentation: incomplete, hits Stuck
    "D3": lambda entry: _presented_complement("abc", [("ab", "bc"), ("bc", "ca")]),
    "braid:3": lambda entry: entry("braid:3").context.germ_complement(),
    "braid:4": lambda entry: entry("braid:4").context.germ_complement(),
    "dual_braid:4": lambda entry: entry("dual_braid:4").context.germ_complement(),
    "artin:B3": lambda entry: entry("artin:B3").context.germ_complement(),
}


def _same_as_oracle(comp, w, fuel):
    got = reverse(comp, w, fuel)
    want = oracles.splice_reverse(comp, w, fuel)
    if not isinstance(want, tuple):
        assert got == want
        return type(want).__name__
    pos, neg, cells = want
    assert isinstance(got, Reversed)
    assert (got.pos, got.neg) == (pos, neg)
    assert got.grid.cell_count == len(cells)
    assert got.grid.cells == cells
    return "Reversed"


@pytest.mark.parametrize("name", sorted(KERNEL_CORPORA))
def test_reverse_matches_splice_oracle(entry, name):
    comp = KERNEL_CORPORA[name](entry)
    n = len(comp.presentation.generators)
    rng = random.Random(f"kernel:{name}")
    kinds = set()
    for _ in range(90):
        length = rng.randint(1, 20)
        letters = tuple(
            (rng.randrange(n), rng.choice((-1, 1))) for _ in range(length)
        )
        w = SignedWord(letters, 0, 0)
        for fuel in (1, 3, 10, DEFAULT_LIMITS.fuel(length)):
            kinds.add(_same_as_oracle(comp, w, fuel))
    assert {"Reversed", "Diverged"} <= kinds
    if name == "D3":
        assert "Stuck" in kinds


def test_grid_cells_built_on_demand(b3_comp, monkeypatch):
    pres = b3_comp.presentation
    for u in oracles.words_up_to("ab", 3):
        for v in oracles.words_up_to("ab", 3):
            text = " ".join([f"{c}^-1" for c in reversed(u)] + list(v))
            w = pres.parse_signed(text)
            _, _, cells = oracles.splice_reverse(b3_comp, w, fuel_for(u, v))
            out = reverse(b3_comp, w, fuel_for(u, v))
            assert out.grid.cells == cells, text

    scans = []
    real_scan = reversing._scan

    def counting_scan(*args):
        scans.append(args)
        return real_scan(*args)

    w = pres.parse_signed("a^-1 a^-1 b b")
    _, _, cells = oracles.splice_reverse(b3_comp, w, 1024)
    monkeypatch.setattr(reversing, "_scan", counting_scan)
    out = reverse(b3_comp, w, fuel=1024)
    assert len(scans) == 1
    assert out.grid.cell_count == len(cells) == 6
    assert len(scans) == 1
    first = out.grid.cells
    assert first == cells and len(scans) == 2
    assert out.grid.cells is first and len(scans) == 2
    cell = first[0]
    assert (cell.neg, cell.pos) == (0, 1)
    assert pres.tokens(cell.emitted_pos) == "b a"
    assert pres.tokens(cell.emitted_neg) == "a b"


# --- cube condition ---------------------------------------------------------


def test_cube_complete_b3(b3_comp):
    got = check_cube_condition(b3_comp, depth=1)
    assert isinstance(got, Complete)
    assert got.triples_checked >= 8


def test_cube_complete_b4_and_n3():
    for letters, rels in (
        ("abc", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")]),
        ("xyz", [("xy", "yx"), ("xz", "zx"), ("yz", "zy")]),
    ):
        comp = extract_complement(monoid_presentation(letters, rels))
        assert isinstance(comp, Complement)
        assert isinstance(check_cube_condition(comp, depth=1), Complete)


def test_cube_counterexample():
    """A hand-built complement whose cube fails on a mixed triple."""
    pres = monoid_presentation("abc", [])
    table = {
        (0, 1): pres.parse_word("b"),
        (1, 0): pres.parse_word("a"),
        (0, 2): pres.parse_word(""),
        (2, 0): pres.parse_word(""),
        (1, 2): pres.parse_word(""),
        (2, 1): pres.parse_word(""),
    }
    comp = Complement(pres, table)
    got = check_cube_condition(comp, depth=1)
    assert isinstance(got, CounterExample)
    names = tuple("abc"[w.letters[0]] for w in got.triple)
    assert names == ("a", "c", "b")


def test_cube_depth_two_on_b3(b3_comp):
    assert isinstance(check_cube_condition(b3_comp, depth=2), Complete)


# --- lcm and equality via reversing ------------------------------------------


def test_right_lcm_fixtures(b3_ctx, n2_ctx):
    lcm = b3_ctx.right_lcm(b3_ctx.parse("a"), b3_ctx.parse("b"))
    assert b3_ctx.equal(lcm, b3_ctx.parse("aba"))
    lcm2 = n2_ctx.right_lcm(n2_ctx.parse("x"), n2_ctx.parse("xy"))
    assert n2_ctx.equal(lcm2, n2_ctx.parse("xy"))
    u = b3_ctx.parse("ab")
    assert b3_ctx.equal(b3_ctx.right_lcm(u, empty_word(0)), u)


def test_right_lcm_laws_b3(b3_ctx):
    words = [b3_ctx.parse(s) for s in oracles.words_up_to("ab", 3)]
    for u, v in itertools.product(words, repeat=2):
        lcm_uv = b3_ctx.right_lcm(u, v)
        lcm_vu = b3_ctx.right_lcm(v, u)
        assert b3_ctx.equal(lcm_uv, lcm_vu)
        assert b3_ctx.left_divides(u, lcm_uv)
        assert b3_ctx.left_divides(v, lcm_uv)
        assert b3_ctx.equal(b3_ctx.right_lcm(u, u), u)


def test_right_lcm_matches_exhaustive_search(b3_ctx):
    for su in oracles.words_up_to("ab", 3):
        for sv in oracles.words_up_to("ab", 3):
            got = b3_ctx.right_lcm(b3_ctx.parse(su), b3_ctx.parse(sv))
            # lcm(aaa, bbb) already has length 9, so search up to 10
            want = oracles.right_lcm(su, sv, "ab", B3_RELS, 10)
            shown = "".join("ab"[i] for i in got.letters)
            assert oracles.equal_words(shown, want, B3_RELS), (su, sv)


def test_no_common_multiple_in_free_monoid():
    from garsidekit.contexts import PresentedContext

    ctx = PresentedContext(monoid_presentation("ab", []))
    got = ctx.right_lcm(ctx.parse("a"), ctx.parse("b"))
    assert isinstance(got, NoCommonMultiple)


def test_stuck_lcm_is_inconclusive_without_completeness():
    from garsidekit.contexts import PresentedContext

    # dual braid monoid of rank 3: a·b = c·a, so a and c have a common multiple
    ctx = PresentedContext(monoid_presentation("abc", [("ab", "bc"), ("bc", "ca")]))
    assert not ctx.complete
    assert ctx.right_lcm(ctx.parse("a"), ctx.parse("c")) is INCONCLUSIVE


def test_word_equal_via_reversing_fixtures(b3_ctx):
    assert b3_ctx.word_equal_via_reversing(
        b3_ctx.parse("abaa"), b3_ctx.parse("baba")
    )
    assert not b3_ctx.word_equal_via_reversing(
        b3_ctx.parse("ab"), b3_ctx.parse("ba")
    )
    w = b3_ctx.parse("abab")
    assert b3_ctx.word_equal_via_reversing(w, w)


def test_word_equal_agrees_with_oracle_everywhere(b3_ctx):
    words = list(oracles.words_up_to("ab", 6))
    canon_of = {s: oracles.canon(s, B3_RELS) for s in words}
    reps = sorted(set(canon_of.values()))
    # member ~ representative, and distinct representatives differ
    for s in words:
        assert b3_ctx.word_equal_via_reversing(
            b3_ctx.parse(s), b3_ctx.parse(canon_of[s])
        )
    for r1, r2 in itertools.combinations(reps, 2):
        assert not b3_ctx.word_equal_via_reversing(
            b3_ctx.parse(r1), b3_ctx.parse(r2)
        ), (r1, r2)


def test_word_complement_quotient(b3_comp):
    pres = b3_comp.presentation
    uv, vu = word_complement(
        b3_comp, pres.parse_word("a"), pres.parse_word("ab"), 64
    )
    # a \ ab = b (the quotient), ab \ a = empty
    assert pres.tokens(uv) == "b"
    assert vu.is_empty


def test_reverses_to_empty(b3_comp):
    pres = b3_comp.presentation
    assert reverses_to_empty(
        b3_comp, pres.parse_word("abaa"), pres.parse_word("baba"), 1024
    )
    assert not reverses_to_empty(
        b3_comp, pres.parse_word("ab"), pres.parse_word("ba"), 1024
    )
