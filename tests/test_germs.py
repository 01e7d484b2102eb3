"""Germs: validation, recognition, generated category, group-derived germs."""

from __future__ import annotations

import itertools
import random

import pytest

from garsidekit import catalog, germs
from garsidekit.core import ObjectId, Word
from garsidekit.errors import GarsideError, ValidationError
from garsidekit.garside import GarsideFamily
from garsidekit.germs import (
    FiniteGroup,
    Germ,
    GermContext,
    GermElement,
    Valid,
    Violation,
    germ_category,
    germ_from_groupoid,
    germ_heights,
    is_garside_germ,
    validate_germ,
)

import oracles
from conftest import SMALL_GERM_KEYS


def add_identity_rows(size: int, ident: int, prod: dict) -> dict:
    """Identity products are part of the table; fill the implied ones."""
    out = dict(prod)
    out[(ident, ident)] = ident
    for z in range(size):
        if z != ident:
            out[(ident, z)] = z
            out[(z, ident)] = z
    return out


def n2_divisor_germ() -> Germ:
    """{1, x, y, xy} with product = coordinate addition capped at (1, 1)."""
    objs = (ObjectId(0, "*"),)
    els = tuple(
        GermElement(i, n, 0, 0) for i, n in enumerate(["1", "x", "y", "xy"])
    )
    vec = {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
    back = {v: k for k, v in vec.items()}
    prod = {}
    for i, j in itertools.product(range(4), repeat=2):
        s = (vec[i][0] + vec[j][0], vec[i][1] + vec[j][1])
        if s in back:
            prod[(i, j)] = back[s]
    return Germ(objs, els, (0,), prod, [0, 1, 1, 2])


def sym_group(n: int, letters: str) -> tuple[FiniteGroup, list[int], dict]:
    """S_n with shortlex names over adjacent transpositions; lengths by
    inversion count, all computed with the test-side oracle helpers."""
    gens = []
    for i in range(n - 1):
        p = list(range(n))
        p[i], p[i + 1] = p[i + 1], p[i]
        gens.append(tuple(p))
    identity = tuple(range(n))
    words = {identity: ""}
    frontier = [identity]
    while frontier:
        nxt = []
        for p in frontier:
            for ch, g in zip(letters, gens):
                q = oracles.perm_compose(p, g)
                if q not in words:
                    words[q] = words[p] + ch
                    nxt.append(q)
        frontier = nxt
    plist = sorted(words, key=lambda p: (len(words[p]), words[p]))
    names = [words[p] or "1" for p in plist]
    group = FiniteGroup.from_permutations(plist, names)
    lengths = [oracles.perm_inversions(p) for p in plist]
    return group, lengths, {words[p] or "1": p for p in plist}


def s3_germ() -> Germ:
    group, lengths, _ = sym_group(3, "ab")
    return germ_from_groupoid(group, lengths)


# --- validation -------------------------------------------------------------


def test_n2_divisor_germ_valid():
    got = validate_germ(n2_divisor_germ())
    assert got == Valid(triples_checked=64)


def test_s3_germ_valid():
    got = validate_germ(s3_germ())
    assert got == Valid(triples_checked=216)


def test_tampered_s3_table_violates_associativity():
    g = s3_germ()
    # drop a . b (both atoms; their product ab is in the germ)
    ia, ib = g.by_name("a"), g.by_name("b")
    assert (ia, ib) in g.product
    broken = dict(g.product)
    del broken[(ia, ib)]
    tampered = Germ(g.objects, g.elements, g.identities, broken, g.lengths)
    got = validate_germ(tampered)
    assert isinstance(got, Violation)
    assert got.kind.startswith("associativity")


def test_identity_must_be_neutral():
    objs = (ObjectId(0, "*"),)
    els = (GermElement(0, "1", 0, 0), GermElement(1, "x", 0, 0))
    bad = Germ(objs, els, (0,), {(0, 1): 0})  # 1 . x = 1, not neutral
    got = validate_germ(bad)
    assert isinstance(got, Violation)


def test_product_respects_endpoints():
    objs = (ObjectId(0, "p"), ObjectId(1, "q"))
    els = (
        GermElement(0, "1p", 0, 0),
        GermElement(1, "1q", 1, 1),
        GermElement(2, "f", 0, 1),
    )
    bad = Germ(objs, els, (0, 1), {(2, 2): 2})  # f . f not composable
    got = validate_germ(bad)
    assert isinstance(got, Violation)
    assert got.kind == "product of non-composable pair"


def _nontrivial_products(g: Germ) -> list[tuple[int, int]]:
    return [
        (r, s)
        for (r, s) in g.product
        if not g.is_identity(r) and not g.is_identity(s)
    ]


def redirected(g: Germ, rng: random.Random) -> Germ | None:
    """g with one nontrivial product r.s = t sent to another element of the
    same length as t; None when no product has such an element."""
    by_length: dict[int, list[int]] = {}
    for e in g.elements:
        by_length.setdefault(g.lengths[e.id], []).append(e.id)
    pairs = [
        rs
        for rs in _nontrivial_products(g)
        if len(by_length[g.lengths[g.product[rs]]]) > 1
    ]
    if not pairs:
        return None
    rs = rng.choice(pairs)
    t = g.product[rs]
    product = dict(g.product)
    product[rs] = rng.choice([x for x in by_length[g.lengths[t]] if x != t])
    return Germ(g.objects, g.elements, g.identities, product, g.lengths)


def deleted(g: Germ, rng: random.Random) -> Germ | None:
    """g without one nontrivial product; None when it has none."""
    pairs = _nontrivial_products(g)
    if not pairs:
        return None
    product = dict(g.product)
    del product[rng.choice(pairs)]
    return Germ(g.objects, g.elements, g.identities, product, g.lengths)


@pytest.mark.parametrize("key", SMALL_GERM_KEYS)
def test_sparse_validation_matches_dense_oracle(entry, key):
    """Same verdict as the all-triples loop, on each catalog germ and on
    seeded mutations of it; the reported triple may differ."""
    germ = entry(key).context.germ
    rng = random.Random(key)
    corpus = [germ]
    for mutate in (redirected, redirected, deleted, deleted):
        mutated = mutate(germ, rng)
        if mutated is not None:
            corpus.append(mutated)
    for g in corpus:
        got, want = validate_germ(g), oracles.dense_validate_germ(g)
        assert type(got) is type(want), (key, got, want)
        if isinstance(want, Valid):
            assert got == want
        else:
            assert got.kind == want.kind, (key, got, want)


def test_sparse_validation_counts_triples_across_objects():
    """Catalog germs have one object; here f: p -> q and g: q -> r compose
    to h, so the composable triples depend on the endpoints."""
    objs = tuple(ObjectId(i, n) for i, n in enumerate("pqr"))
    ends = [(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)]
    names = ["1p", "1q", "1r", "f", "g", "h"]
    els = tuple(GermElement(i, names[i], s, t) for i, (s, t) in enumerate(ends))
    prod = {(s, i): i for i, (s, _) in enumerate(ends)}
    prod.update({(i, t): i for i, (_, t) in enumerate(ends)})
    prod[(3, 4)] = 5
    g = Germ(objs, els, (0, 1, 2), prod)
    assert validate_germ(g) == oracles.dense_validate_germ(g) == Valid(15)


def test_every_catalog_germ_rejects_a_redirected_product(entry):
    """No size cap: on every germ, braid:6 and free_abelian:8 included, one
    product sent to another element of the same length is caught."""
    rejected, small = [], []
    for key in catalog.keys():
        ctx = entry(key).context
        if not isinstance(ctx, GermContext):
            continue
        if ctx.germ.size <= 132:
            small.append(key)
        rng = random.Random(key)
        for _ in range(3):
            mutated = redirected(ctx.germ, rng)
            if mutated is None:
                break
            with pytest.raises((ValidationError, GarsideError)):
                GermContext(mutated)
            rejected.append(key)
    assert {"braid:6", "free_abelian:8", "dual_braid:6"} <= set(rejected)
    assert sorted(small) == sorted(SMALL_GERM_KEYS)


def test_large_germs_are_validated(entry, monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.size)
        return validate_germ(g)

    monkeypatch.setattr(germs, "validate_germ", counting)
    GermContext(entry("braid:6").context.germ)
    assert calls == [720]


# --- generated category -----------------------------------------------------


def test_germ_category_n2():
    p = germ_category(n2_divisor_germ())
    assert [g.name for g in p.generators] == ["x", "y", "xy"]
    rels = {(p.tokens(l), p.tokens(r)) for l, r in p.relations}
    assert rels == {("x y", "xy"), ("y x", "xy")}


def test_germ_category_s3_has_five_generators():
    p = germ_category(s3_germ())
    assert len(p.generators) == 5


def test_germ_category_free():
    objs = (ObjectId(0, "*"),)
    els = tuple(GermElement(i, n, 0, 0) for i, n in enumerate(["1", "u", "v"]))
    free = Germ(objs, els, (0,), add_identity_rows(3, 0, {}))
    p = germ_category(free)
    assert [g.name for g in p.generators] == ["u", "v"]
    assert p.relations == ()


def test_s3_category_word_problem_matches_closure_oracle():
    """The germ-generated category decides words like the Artin relations."""
    ctx = GermContext(s3_germ())
    # the right lcm of the atoms goes through reversing, which reads the limits
    lcm = ctx.right_lcm(ctx.parse("a"), ctx.parse("b"))
    assert ctx.equal(lcm, ctx.parse("a b a")) is True
    # atoms a, b exist in both contexts under the same names
    for su in oracles.words_up_to("ab", 4):
        for sv in oracles.words_up_to("ab", 4):
            want = oracles.equal_words(su, sv, oracles.B3_RELS)
            got = ctx.equal(ctx.parse(" ".join(su)), ctx.parse(" ".join(sv)))
            assert got is want, (su, sv)


# --- recognition ------------------------------------------------------------


def test_s3_germ_is_garside():
    w = is_garside_germ(s3_germ())
    assert w.is_garside


def test_n2_divisor_germ_is_garside():
    assert is_garside_germ(n2_divisor_germ()).is_garside


def test_free_germ_is_garside():
    """{1, x, y} with no nontrivial products generates the free monoid on
    {x, y}, and is a Garside germ of it: every I(s, t) is {identity}."""
    objs = (ObjectId(0, "*"),)
    els = tuple(GermElement(i, n, 0, 0) for i, n in enumerate(["1", "x", "y"]))
    free = Germ(objs, els, (0,), add_identity_rows(3, 0, {}))
    assert validate_germ(free) == Valid(triples_checked=27)
    assert is_garside_germ(free).is_garside


def test_incomparable_maximal_divisors_not_garside():
    """I(a, m) = {1, y1, y2} has two maximal elements and no greatest."""
    objs = (ObjectId(0, "*"),)
    names = ["1", "a", "y1", "y2", "m", "p", "q"]
    els = tuple(GermElement(i, n, 0, 0) for i, n in enumerate(names))
    ix = {n: i for i, n in enumerate(names)}
    prod = add_identity_rows(
        7,
        0,
        {
            (ix["y1"], ix["y2"]): ix["m"],
            (ix["y2"], ix["y1"]): ix["m"],
            (ix["a"], ix["y1"]): ix["p"],
            (ix["a"], ix["y2"]): ix["q"],
        },
    )
    g = Germ(objs, els, (0,), prod, [0, 1, 1, 1, 2, 2, 2])
    assert isinstance(validate_germ(g), Valid)
    w = is_garside_germ(g)
    assert not w.is_garside


# --- germs from groups ------------------------------------------------------


def test_s3_coxeter_germ_has_six_elements():
    g = s3_germ()
    assert g.size == 6
    assert is_garside_germ(g).is_garside


def test_s3_reflection_length_bounded_germ_is_nc3():
    group, _, perm_of = sym_group(3, "ab")
    n = 3
    lengths = [
        n - oracles.perm_cycle_count(perm_of[name]) for name in group.names
    ]
    delta = group.names.index("ab")  # the 3-cycle: a then b
    assert oracles.perm_compose(perm_of["a"], perm_of["b"]) == perm_of["ab"]
    g = germ_from_groupoid(group, lengths, bound=delta)
    assert g.size == 5  # noncrossing partitions of 3 points
    assert is_garside_germ(g).is_garside


def test_length_additivity_of_derived_products():
    g = s3_germ()
    for (r, s), t in g.product.items():
        assert g.lengths[t] == g.lengths[r] + g.lengths[s]


def test_length_validation_errors():
    group, lengths, _ = sym_group(3, "ab")
    bad = list(lengths)
    bad[group.identity] = 1
    with pytest.raises(ValidationError):
        germ_from_groupoid(group, bad)
    with pytest.raises(ValidationError):
        germ_from_groupoid(group, [0] * group.size)
    sup = list(lengths)
    sup[group.names.index("aba")] = 99  # breaks subadditivity
    with pytest.raises(ValidationError):
        germ_from_groupoid(group, sup)


def test_germ_heights_match_lengths():
    g = s3_germ()
    assert germ_heights(g) == list(g.lengths)


# --- head transport ---------------------------------------------------------


def test_witness_head_matches_family_head_on_pairs(entry):
    """The germ structure's heads of pairs, read through the generated
    category, are the garside module's head on two-letter words."""
    ent = entry("braid:3")
    ctx, fam = ent.context, ent.family
    germ = ctx.germ
    nontrivial = [x for x in range(germ.size) if not germ.is_identity(x)]
    for s, t in itertools.product(nontrivial, repeat=2):
        if not germ.composable(s, t):
            continue
        h = ctx.structure.head_of_pair(s, t)
        w = ctx.parse(f"{germ.elements[s].name} {germ.elements[t].name}")
        head_idx = fam.head(w)
        got = fam.elements[head_idx]
        # head of s.t is s composed with the greatest of I(s, t)
        combined = germ.product[(s, h)] if not germ.is_identity(h) else s
        assert ctx.show(got) == germ.elements[combined].name, (s, t)


def test_exhaustive_head_agrees_with_germ_fast_path(entry):
    """Two head computation strategies cross-validate on short words."""
    ent = entry("braid:3")
    ctx, fast = ent.context, ent.family
    slow = GarsideFamily(ctx, list(reversed(fast.elements)))
    for letters in itertools.product(range(len(ctx.elem_of_gen)), repeat=2):
        w = Word(tuple(letters), 0, 0)
        hf = fast.head(w)
        hs = slow.head(w)
        assert ctx.equal(fast.elements[hf], slow.elements[hs]), letters


def test_normalize_agrees_between_strategies_on_longer_words(entry):
    ent = entry("braid:3")
    ctx, fast = ent.context, ent.family
    slow = GarsideFamily(ctx, list(reversed(fast.elements)))
    for letters in itertools.product(range(2), repeat=5):
        w = ctx.parse(" ".join("ab"[i] for i in letters))
        nf = fast.normalize(w)
        ns = slow.normalize(w)
        assert [
            ctx.show(fast.elements[i]) for i in nf.factors
        ] == [ctx.show(slow.elements[i]) for i in ns.factors]


# --- heads on demand ----------------------------------------------------------


@pytest.mark.parametrize("key", SMALL_GERM_KEYS)
def test_head_of_pair_matches_dense_head(entry, key):
    """Heads read from the divisor masks agree with a search over the
    product table, on every composable pair of the germ and its mirror."""
    ctx = entry(key).context
    for c in (ctx, ctx.mirror()):
        g = c.germ
        for s, t in itertools.product(range(g.size), repeat=2):
            if not g.composable(s, t):
                continue
            want = oracles.dense_germ_head(g, s, t)
            assert c.structure.head_of_pair(s, t) == want, (key, s, t)


def test_head_of_pair_matches_dense_head_on_braid6(entry):
    ctx = entry("braid:6").context
    rng = random.Random(6)
    n = ctx.germ.size
    # one object, so every pair is composable
    pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(2000)]
    for c in (ctx, ctx.mirror()):
        for s, t in pairs:
            want = oracles.dense_germ_head(c.germ, s, t)
            assert c.structure.head_of_pair(s, t) == want, (s, t)


def _reference_sweep(g: Germ, seq):
    """The normalization sweep on dense heads; (result, pairs visited)."""
    quot = {(r, t): x for (r, x), t in g.product.items()}
    factors = [x for x in seq if not g.is_identity(x)]
    visited = set()
    i = 0
    while i < len(factors) - 1:
        s, t = factors[i], factors[i + 1]
        visited.add((s, t))
        h = oracles.dense_germ_head(g, s, t)
        if g.is_identity(h):
            i += 1
            continue
        factors[i] = g.product[(s, h)]
        if h == t:
            del factors[i + 1]
        else:
            factors[i + 1] = quot[(h, t)]
        i = max(i - 1, 0)
    return tuple(factors), visited


def test_head_memo_fills_only_with_visited_pairs(entry):
    germ = entry("braid:4").context.germ
    st = GermContext(germ).structure
    assert st._head_memo == {}
    rng = random.Random(4)
    seq = [rng.randrange(germ.size) for _ in range(40)]
    want, visited = _reference_sweep(germ, seq)
    assert st.normalize(seq) == want
    assert st._head_memo == {
        s * germ.size + t: oracles.dense_germ_head(germ, s, t) for s, t in visited
    }
