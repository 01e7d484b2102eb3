"""Cycling, decycling, sliding circuits, and the conjugacy decision."""

from __future__ import annotations

import dataclasses
import itertools
import random

import pytest

import garsidekit.conjugacy as conjugacy
from garsidekit.bounded import build_garside_map, delta_normalize, germ_family
from garsidekit.conjugacy import (
    No,
    SlideMemo,
    Yes,
    are_conjugate,
    conj,
    cycling,
    cyclic_sliding,
    decycling,
    preferred_prefix,
    signed_equal,
    slide_to_circuit,
    sliding_circuit_set,
)
from garsidekit.contexts import PresentedContext
from garsidekit.core import (
    ObjectId,
    SignedWord,
    concat,
    empty_word,
    signed_from_word,
)
from garsidekit.errors import ExplosionGuard
from garsidekit.garside import GarsideFamily
from garsidekit.germs import FiniteGroup, Germ, GermContext, GermElement

import oracles
from conftest import monoid_presentation
from test_germs import sym_group

DIV_COUNT = 6  # divisors of aba, identity included


def _signed(ctx, text):
    return ctx.presentation.parse_signed(text)


def _chars(ctx, sw):
    gens = ctx.presentation.generators
    return tuple((gens[g].name, s) for g, s in sw.letters)


def _key(d):
    return (d.m, d.factors, d.source)


def _word_of(gm, d):
    return gm.ctx.show(d.word())


# --- conj -----------------------------------------------------------------------


def test_conj_by_delta_is_phi(b3_ctx, b3_gm):
    got = conj(b3_ctx, _signed(b3_ctx, "a"), _signed(b3_ctx, "a b a"))
    assert signed_equal(b3_gm, got, _signed(b3_ctx, "b"))


def test_conj_by_identity(b3_ctx, b3_gm):
    g = _signed(b3_ctx, "a b a^-1")
    assert signed_equal(b3_gm, conj(b3_ctx, g, _signed(b3_ctx, "")), g)


def test_conj_matches_raw_product(b3_ctx, b3_gm):
    got = conj(b3_ctx, _signed(b3_ctx, "a b"), _signed(b3_ctx, "b"))
    assert signed_equal(b3_gm, got, _signed(b3_ctx, "b^-1 a b b"))


def test_conj_composes(b3_ctx, b3_gm):
    g = _signed(b3_ctx, "a b")
    c1, c2 = _signed(b3_ctx, "b a^-1"), _signed(b3_ctx, "a b a")
    from garsidekit.core import concat_signed, free_reduce

    lhs = conj(b3_ctx, conj(b3_ctx, g, c1), c2)
    rhs = conj(b3_ctx, g, free_reduce(concat_signed(c1, c2)))
    assert signed_equal(b3_gm, lhs, rhs)


def test_signed_equal_fixtures(b3_ctx, b3_gm):
    assert signed_equal(b3_gm, _signed(b3_ctx, "a b a"), _signed(b3_ctx, "b a b"))
    assert not signed_equal(b3_gm, _signed(b3_ctx, "a"), _signed(b3_ctx, "b"))
    assert signed_equal(b3_gm, _signed(b3_ctx, "a a^-1"), _signed(b3_ctx, ""))


# --- cycling / decycling ---------------------------------------------------------


def test_pure_power_is_fixed(b3_ctx, b3_gm):
    d = delta_normalize(b3_gm, b3_ctx.parse("abaaba"))
    assert d.factors == ()
    assert _key(cycling(b3_gm, d)) == _key(d)
    assert _key(decycling(b3_gm, d)) == _key(d)
    assert preferred_prefix(b3_gm, d).is_empty
    assert _key(cyclic_sliding(b3_gm, d)) == _key(d)


def test_operations_preserve_class_and_never_worsen(b3_ctx, b3_gm):
    for s in oracles.words_up_to("ab", 5):
        if not s:
            continue
        d = delta_normalize(b3_gm, b3_ctx.parse(s))
        for op in (cycling, decycling, cyclic_sliding):
            e = op(b3_gm, d)
            assert oracles.b3_conjugate_oracle(s, _word_of(b3_gm, e)), (s, op)
            assert e.inf >= d.inf, (s, op)
            assert e.sup <= d.sup, (s, op)


def test_iterated_cycling_reaches_maximal_inf(b3_ctx, b3_gm):
    for s in oracles.words_up_to("ab", 5):
        if not s:
            continue
        d = delta_normalize(b3_gm, b3_ctx.parse(s))
        bound = DIV_COUNT * (d.sup - d.inf + 1)
        infs = [d.inf]
        for _ in range(bound):
            d = cycling(b3_gm, d)
            infs.append(d.inf)
        assert infs == sorted(infs), s
        want = max(
            delta_normalize(b3_gm, b3_ctx.parse(m)).inf
            for m in oracles.b3_conjugacy_orbit(s)
        )
        assert d.inf == want, s


def test_iterated_decycling_reaches_minimal_sup(b3_ctx, b3_gm):
    for s in oracles.words_up_to("ab", 5):
        if not s:
            continue
        d = delta_normalize(b3_gm, b3_ctx.parse(s))
        bound = DIV_COUNT * (d.sup - d.inf + 1)
        sups = [d.sup]
        for _ in range(bound):
            d = decycling(b3_gm, d)
            sups.append(d.sup)
        assert sups == sorted(sups, reverse=True), s
        want = min(
            delta_normalize(b3_gm, b3_ctx.parse(m)).sup
            for m in oracles.b3_conjugacy_orbit(s)
        )
        assert d.sup == want, s


def test_negative_representative_reaches_circuit(b3_ctx, b3_gm):
    d = delta_normalize(b3_gm, _signed(b3_ctx, "a^-1 b a"))
    assert d.m < 0
    seen = {_key(d)}
    for step in range(1, DIV_COUNT + 1):
        d = cycling(b3_gm, d)
        if _key(d) in seen:
            break
        seen.add(_key(d))
    else:
        pytest.fail("no circuit within the divisor-count bound")


# --- sliding ---------------------------------------------------------------------


def test_sliding_reaches_circuit_within_bound(b3_ctx, b3_gm):
    for s in oracles.words_up_to("ab", 5):
        if not s:
            continue
        d = delta_normalize(b3_gm, b3_ctx.parse(s))
        cap = DIV_COUNT * (d.sup - d.inf + 1)
        seen = set()
        steps = 0
        while _key(d) not in seen:
            seen.add(_key(d))
            d = cyclic_sliding(b3_gm, d)
            steps += 1
            assert steps <= cap, s


def test_slide_to_circuit_conjugator_verifies(b3_ctx, b3_gm):
    for s in ("a", "ab", "aabb", "babaa", "abbab"):
        d = delta_normalize(b3_gm, b3_ctx.parse(s))
        lim, c = slide_to_circuit(b3_gm, d)
        assert signed_equal(
            b3_gm, conj(b3_ctx, d.signed_word(), c), lim.signed_word()
        ), s


# --- sliding-circuit sets ---------------------------------------------------------


def test_scs_of_atom(b3_ctx, b3_gm):
    scs = sliding_circuit_set(b3_gm, b3_ctx.parse("a"))
    assert scs.keys() == {(0, (0,), 0), (0, (1,), 0)}
    assert {n.element.display() for n in scs.nodes} == {"a", "b"}


def test_scs_of_central_power_is_singleton(b3_ctx, b3_gm):
    # centrality of Δ²: it commutes with both generators
    for g in "ab":
        assert oracles.equal_words("abaaba" + g, g + "abaaba", oracles.B3_RELS)
    scs = sliding_circuit_set(b3_gm, b3_ctx.parse("abaaba"))
    assert len(scs.nodes) == 1
    assert scs.keys() == {(2, (), 0)}


def test_scs_commutative_singletons(n2_ctx, n2_gm):
    for s in ("x", "y", "xy", "xxy", "xyyy"):
        scs = sliding_circuit_set(n2_gm, n2_ctx.parse(s))
        assert len(scs.nodes) == 1, s
        assert _key(delta_normalize(n2_gm, n2_ctx.parse(s))) in scs.keys()


def test_scs_invariants(b3_ctx, b3_gm):
    for s in ("a", "ab", "aab", "abab", "aabab"):
        scs = sliding_circuit_set(b3_gm, b3_ctx.parse(s))
        keys = scs.keys()
        pairs = [(n.element.inf, n.element.sup) for n in scs.nodes]
        assert len(set(pairs)) == 1, s

        # (inf, sup) is extremal for the class
        inf0, sup0 = pairs[0]
        orbit = oracles.b3_conjugacy_orbit(s)
        dns = [delta_normalize(b3_gm, b3_ctx.parse(m)) for m in orbit]
        assert inf0 == max(d.inf for d in dns), s
        assert sup0 == min(d.sup for d in dns), s

        # closed under sliding, and the edge map is the sliding successor
        for n in scs.nodes:
            nxt = cyclic_sliding(b3_gm, n.element)
            assert _key(nxt) in keys, s
            assert scs.edges[_key(n.element)] == _key(nxt), s
        assert set(scs.edges) == keys
        assert set(scs.edges.values()) == keys

        # recorded conjugators all map the root onto their node
        for n in scs.nodes:
            assert oracles.b3_conjugates_to(
                s, _word_of(b3_gm, n.element), _chars(b3_ctx, n.conjugator)
            ), s

        # nodes are mutually conjugate
        for n, p in itertools.combinations(scs.nodes, 2):
            assert oracles.b3_conjugate_oracle(
                _word_of(b3_gm, n.element), _word_of(b3_gm, p.element)
            ), s


# --- are_conjugate ----------------------------------------------------------------


def test_are_conjugate_fixtures(b3_ctx, b3_gm):
    got = are_conjugate(b3_gm, b3_ctx.parse("a"), b3_ctx.parse("b"))
    assert isinstance(got, Yes)
    assert oracles.b3_conjugates_to("a", "b", _chars(b3_ctx, got.witness))

    assert isinstance(
        are_conjugate(b3_gm, b3_ctx.parse("a"), b3_ctx.parse("aa")), No
    )

    got = are_conjugate(b3_gm, b3_ctx.parse("ab"), b3_ctx.parse("ba"))
    assert isinstance(got, Yes)
    assert oracles.b3_conjugates_to("ab", "ba", _chars(b3_ctx, got.witness))


def test_conjugation_does_not_preserve_letter_counts(b3_ctx, b3_gm):
    got = are_conjugate(b3_gm, b3_ctx.parse("aab"), b3_ctx.parse("bba"))
    assert isinstance(got, Yes)
    assert oracles.b3_conjugates_to("aab", "bba", _chars(b3_ctx, got.witness))
    assert oracles.letter_counts("aab", "ab") != oracles.letter_counts("bba", "ab")


def test_are_conjugate_agrees_with_orbit_oracle(b3_ctx, b3_gm):
    reps = sorted(
        {oracles.canon(s, oracles.B3_RELS) for s in oracles.words_up_to("ab", 4)}
    )
    for g, h in itertools.combinations_with_replacement(reps, 2):
        got = are_conjugate(b3_gm, b3_ctx.parse(g), b3_ctx.parse(h))
        want = oracles.b3_conjugate_oracle(g, h)
        assert isinstance(got, Yes) is want, (g, h)
        if want:
            assert oracles.b3_conjugates_to(g, h, _chars(b3_ctx, got.witness))


def test_are_conjugate_signed_inputs(b3_ctx, b3_gm):
    g = _signed(b3_ctx, "a b a^-1")
    h = _signed(b3_ctx, "b")
    got = are_conjugate(b3_gm, g, h)
    assert isinstance(got, Yes)
    assert signed_equal(b3_gm, conj(b3_ctx, g, got.witness), h)

    g, h = _signed(b3_ctx, "a^-1"), _signed(b3_ctx, "b^-1")
    got = are_conjugate(b3_gm, g, h)
    assert isinstance(got, Yes)
    assert signed_equal(b3_gm, conj(b3_ctx, g, got.witness), h)


def test_node_budget_guard():
    ctx = PresentedContext(monoid_presentation("ab", [("aba", "bab")]))
    ctx.limits = dataclasses.replace(ctx.limits, node_budget=1)
    fam = GarsideFamily(ctx, [ctx.parse(w) for w in ("a", "b", "ab", "ba", "aba")])
    gm = build_garside_map(ctx, fam)
    with pytest.raises(ExplosionGuard):
        sliding_circuit_set(gm, ctx.parse("a"))


# --- factor-table engine against the word-level oracle ----------------------------


def _random_reduced_words(ctx, rng, count, max_len):
    """Freely reduced signed words over the generators of a monoid."""
    assert ctx.presentation.is_monoid
    n = len(ctx.presentation.generators)
    out = []
    for _ in range(count):
        letters = []
        length = rng.randint(1, max_len)
        while len(letters) < length:
            letter = (rng.randrange(n), rng.choice((1, -1)))
            if not letters or letters[-1] != (letter[0], -letter[1]):
                letters.append(letter)
        out.append(SignedWord(tuple(letters), 0, 0))
    return out


@pytest.mark.parametrize(
    "key", ["braid:3", "braid:4", "dual_braid:4", "artin:B3", "artin:G2", "b3_gm"]
)
def test_sliding_circuits_match_word_level_oracle(key, entry, b3_gm):
    gm = b3_gm if key == "b3_gm" else entry(key).garside_map
    rng = random.Random(f"sliding-circuits:{key}")
    for g in _random_reduced_words(gm.ctx, rng, 20, 6):
        scs = sliding_circuit_set(gm, g)
        keys, edges = oracles.word_sliding_circuits(gm, g)
        assert scs.keys() == keys, gm.ctx.presentation.display_signed(g)
        assert scs.edges == edges, gm.ctx.presentation.display_signed(g)


# --- the shared slide memo and the one-set "yes" -----------------------------------


CORPUS_KEYS = ["braid:3", "braid:4", "dual_braid:4", "artin:B3", "artin:G2", "b3_gm"]


def _gm_for(key, entry, b3_gm):
    return b3_gm if key == "b3_gm" else entry(key).garside_map


def _corpus_states(gm, key):
    """Δ-normal forms of the corpus words and of their divisor conjugates."""
    rng = random.Random(f"sliding-circuits:{key}")
    elements = gm.family.elements
    states = []
    for g in _random_reduced_words(gm.ctx, rng, 20, 6):
        states.append(delta_normalize(gm, g))
        for s in gm.divisors.get(g.source, ()):
            sw = signed_from_word(elements[s])
            states.append(delta_normalize(gm, conj(gm.ctx, g, sw)))
    rng.shuffle(states)
    return states


def _slid(gm, d, memo):
    """(entry key, conjugator letters) or "guard" through a shared memo."""
    try:
        lim, prefixes = slide_to_circuit(gm, d, memo)
    except ExplosionGuard:
        return "guard"
    letters = tuple(g for i in prefixes for g in gm.family.elements[i].letters)
    return _key(lim), letters


def _plain(gm, d):
    try:
        lim, letters = oracles.plain_slide_to_circuit(gm, d)
    except ExplosionGuard:
        return "guard"
    return _key(lim), letters


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_slide_memo_matches_plain_walk(key, entry, b3_gm):
    gm = _gm_for(key, entry, b3_gm)
    states = _corpus_states(gm, key)
    memo = SlideMemo()
    for d in states:
        want = _plain(gm, d)
        assert _slid(gm, d, memo) == want, d.display()
        # without a memo the conjugator comes back as a signed word
        lim, c = slide_to_circuit(gm, d)
        assert (_key(lim), tuple(g for g, _ in c.letters)) == want, d.display()
    assert len(memo.entry) >= len({_key(d) for d in states})


@pytest.mark.parametrize("key", CORPUS_KEYS)
def test_slide_memo_guard_fires_on_the_same_states(key, entry, b3_gm, monkeypatch):
    gm = _gm_for(key, entry, b3_gm)
    states = _corpus_states(gm, key)
    fired = {}
    # one memo per budget, and one carried from larger budgets to smaller
    carried = SlideMemo()
    for budget in (5, 3, 2, 1):
        limits = dataclasses.replace(gm.ctx.limits, node_budget=budget)
        monkeypatch.setattr(gm.ctx, "limits", limits)
        want = [_plain(gm, d) for d in states]
        memo = SlideMemo()
        assert [_slid(gm, d, memo) for d in states] == want, budget
        assert [_slid(gm, d, carried) for d in states] == want, budget
        fired[budget] = want.count("guard")
    # the guard both fires and stays silent on these corpora
    assert fired[1] > 0 and fired[5] < len(states), fired


@pytest.mark.parametrize("key", ["braid:4", "dual_braid:4", "b3_gm"])
def test_each_state_is_slid_once_per_set(key, entry, b3_gm, monkeypatch):
    gm = _gm_for(key, entry, b3_gm)
    slid = []
    real = conjugacy.cyclic_sliding

    def counting(gm, d, *args):
        slid.append(_key(d))
        return real(gm, d, *args)

    monkeypatch.setattr(conjugacy, "cyclic_sliding", counting)
    rng = random.Random(f"slid-once:{key}")
    for g in _random_reduced_words(gm.ctx, rng, 5, 6):
        slid.clear()
        scs = sliding_circuit_set(gm, g)
        assert slid, gm.ctx.presentation.display_signed(g)
        assert len(slid) == len(set(slid)), gm.ctx.presentation.display_signed(g)
        assert scs.keys() <= set(slid)


def test_are_conjugate_builds_one_set_for_yes(entry, monkeypatch):
    gm = entry("braid:4").garside_map
    ctx = gm.ctx
    rng = random.Random("one-set-yes")
    real = conjugacy.sliding_circuit_set
    calls = []

    def counting(gm, g):
        calls.append(g)
        return real(gm, g)

    monkeypatch.setattr(conjugacy, "sliding_circuit_set", counting)
    answers = []
    for _ in range(50):
        g, c, other = _random_reduced_words(ctx, rng, 3, 5)
        for h in (conj(ctx, g, c), other):
            want = oracles.two_set_conjugate(gm, g, h)
            calls.clear()
            got = are_conjugate(gm, g, h)
            assert isinstance(got, Yes) is (want is not None)
            assert len(calls) == (1 if want is not None else 2)
            if want is not None:
                assert signed_equal(gm, conj(ctx, g, got.witness), h)
            answers.append(want is not None)
    assert 50 <= answers.count(True) < 100


def test_sliding_circuit_set_reads_only_the_table(b3_ctx, b3_gm, monkeypatch):
    """
    Apart from Δ-normalising its input and re-verifying its nodes, a set on
    a presented context slides and conjugates without normalising words or
    dividing them in the context.
    """
    depth = [0]
    calls = []
    real_dnf = conjugacy.delta_normalize

    def dnf(gm, w):
        depth[0] += 1
        try:
            return real_dnf(gm, w)
        finally:
            depth[0] -= 1

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not depth[0]:
                calls.append(name)
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(conjugacy, "delta_normalize", dnf)
    monkeypatch.setattr(
        GarsideFamily, "normalize", counted("normalize", GarsideFamily.normalize)
    )
    monkeypatch.setattr(
        PresentedContext,
        "left_quotient",
        counted("left_quotient", PresentedContext.left_quotient),
    )
    scs = sliding_circuit_set(b3_gm, _signed(b3_ctx, "a b^-1 b^-1 a"))
    assert len(scs.nodes) > 1
    assert calls == []


# --- several objects: the ribbon groupoid of A3 ------------------------------------


def a3_ribbon_germ() -> tuple[Germ, list[int], FiniteGroup]:
    """
    Ribbons of W(A3) = S4: one object per subset I of {a, b, c}, and as
    elements I -> J the left-I-reduced w with w⁻¹·I·w = J.  A product is
    defined when the lengths add.  Returns the germ, the group element of
    each germ element, and the group.
    """
    group, lengths, _ = sym_group(4, "abc")
    mult, inv, names = group.mult, group.inv, group.names
    simple = {ch: names.index(ch) for ch in "abc"}
    subsets = [frozenset(c) for k in range(4) for c in itertools.combinations("abc", k)]
    objects = [ObjectId(i, "".join(sorted(s)) or "0") for i, s in enumerate(subsets)]
    found = []  # (source object, group element, target object)
    for i, I in enumerate(subsets):
        for w in range(group.size):
            if any(lengths[mult[simple[s]][w]] < lengths[w] for s in I):
                continue
            J = {names[mult[mult[inv[w]][simple[s]]][w]] for s in I}
            if J <= set("abc"):
                found.append((i, w, subsets.index(frozenset(J))))
    at = {(i, w): k for k, (i, w, _) in enumerate(found)}
    elements = [
        GermElement(k, f"{names[w]}_{objects[i].name}", i, j)
        for k, (i, w, j) in enumerate(found)
    ]
    product = {}
    for r, (i, w, j) in enumerate(found):
        for s, (j2, v, _) in enumerate(found):
            if j2 == j and lengths[mult[w][v]] == lengths[w] + lengths[v]:
                product[(r, s)] = at[(i, mult[w][v])]
    identities = [at[(i, group.identity)] for i in range(len(subsets))]
    germ = Germ(objects, elements, identities, product, [lengths[w] for _, w, _ in found])
    return germ, [w for _, w, _ in found], group


def _random_path(ctx, rng, start: int, length: int) -> SignedWord:
    gens = ctx.presentation.generators
    letters, cur = [], start
    for _ in range(length):
        steps = [(g.id, 1) for g in gens if g.source == cur]
        steps += [(g.id, -1) for g in gens if g.target == cur]
        g, e = rng.choice(steps)
        letters.append((g, e))
        cur = gens[g].target if e > 0 else gens[g].source
    return SignedWord(tuple(letters), start, cur)


def test_conjugacy_on_the_a3_ribbon_groupoid():
    germ, value, group = a3_ribbon_germ()
    assert (germ.size, len(germ.objects)) == (49, 8)
    ctx = GermContext(germ)
    _, gm = germ_family(ctx)
    gens = ctx.presentation.generators

    def image(sw):
        """The element of S4 a signed word maps to."""
        x = group.identity
        for g, e in sw.letters:
            v = value[ctx.elem_of_gen[g]]
            x = group.mult[x][v if e > 0 else group.inv[v]]
        return x

    component = list(range(len(germ.objects)))
    for e in germ.elements:
        a, b = component[e.source], component[e.target]
        component = [a if c == b else c for c in component]

    rng = random.Random("a3-ribbons")
    loops = []
    for obj in range(len(germ.objects)):
        if not any(g.source == obj for g in gens):
            continue  # {a, b, c}: only the identity starts there
        for _ in range(60):
            w = _random_path(ctx, rng, obj, rng.randint(1, 4))
            if w.target == obj and w not in loops:
                loops.append(w)
    assert len(loops) > 100
    for g in loops:
        shown = ctx.presentation.display_signed(g)
        scs = sliding_circuit_set(gm, g)
        for node in scs.nodes:
            assert component[node.element.source] == component[g.source], shown
        c = _random_path(ctx, rng, g.source, rng.randint(1, 3))
        h = conj(ctx, g, c)
        got = are_conjugate(gm, g, h)
        assert isinstance(got, Yes), shown
        x = got.witness
        assert (x.source, x.target) == (g.source, h.source), shown
        assert image(conj(ctx, g, x)) == image(h), shown
        assert signed_equal(gm, conj(ctx, g, x), h), shown


def test_delta_is_the_empty_word_where_only_the_identity_starts():
    germ, _, _ = a3_ribbon_germ()
    _, gm = germ_family(GermContext(germ))
    for obj in range(len(germ.objects)):
        d = gm.delta_word(obj)
        assert (d.source, d.target) == (obj, gm.phi_object(obj, 1))
        assert gm.complement(empty_word(obj)) == d
    top = [o.name for o in germ.objects].index("abc")
    assert gm.delta_word(top) == empty_word(top)


def test_delta_powers_at_two_objects_are_two_nodes():
    """Δ² is a loop at each of {a}, {b} and {c}, and the three are
    conjugate by ribbons: one sliding-circuit set with a node at each."""
    germ, _, _ = a3_ribbon_germ()
    ctx = GermContext(germ)
    _, gm = germ_family(ctx)
    names = [o.name for o in germ.objects]
    delta = gm.delta_word(names.index("a"))
    d2 = concat(delta, gm.delta_word(delta.target))
    scs = sliding_circuit_set(gm, d2)
    assert [n.element.display() for n in scs.nodes] == ["D^2"] * 3
    assert sorted(names[n.element.source] for n in scs.nodes) == ["a", "b", "c"]
