"""The presentation a germ generates: relations built on first read."""

from __future__ import annotations

import random

import pytest

from garsidekit import catalog, germs
from garsidekit.bounded import germ_family
from garsidekit.core import ObjectId
from garsidekit.errors import ValidationError
from garsidekit.germs import Germ, GermContext, GermElement, germ_category

import oracles
from conftest import SMALL_GERM_KEYS
from test_conjugacy import a3_ribbon_germ


def _germs(entry):
    """(label, germ): every small catalog germ and its mirror, the A3
    ribbon germ and braid:6."""
    out = []
    for key in SMALL_GERM_KEYS:
        ctx = entry(key).context
        out.append((key, ctx.germ))
        out.append((key + " mirror", ctx.mirror().germ))
    out.append(("a3 ribbons", a3_ribbon_germ()[0]))
    out.append(("braid:6", entry("braid:6").context.germ))
    return out


def test_lazy_relations_match_the_eager_presentation(entry):
    for label, g in _germs(entry):
        lazy = germ_category(g)
        eager = oracles.eager_germ_category(g)
        assert lazy.objects == eager.objects, label
        assert lazy.generators == eager.generators, label
        assert lazy.homogeneous == eager.homogeneous, label
        assert "relations" not in vars(lazy), label
        assert lazy.relations == eager.relations, label
        assert lazy.homogeneous == eager.homogeneous, label
        assert [(lazy.tokens(l), lazy.tokens(r)) for l, r in lazy.relations] == [
            (eager.tokens(l), eager.tokens(r)) for l, r in eager.relations
        ], label


def test_relations_are_built_on_first_read():
    ctx = catalog.build("braid:6").context
    mirror = ctx.mirror()
    germ_family(ctx)
    for p in (ctx.presentation, mirror.presentation):
        assert "relations" not in vars(p)
    for c in (ctx, mirror):
        p = c.presentation
        rels = p.relations
        assert len(rels) == sum(
            1
            for r, s in c.germ.product
            if not (c.germ.is_identity(r) or c.germ.is_identity(s))
        )
        assert p.relations is rels


def _endpoint_breaking_redirections(g: Germ, count: int, seed: str):
    """Copies of g with one nontrivial product r.s sent to a nontrivial
    element whose endpoints differ from (source of r, target of s)."""
    rng = random.Random(seed)
    pairs = sorted(
        (r, s)
        for r, s in g.product
        if not (g.is_identity(r) or g.is_identity(s))
    )
    nontrivial = [e for e in g.elements if not g.is_identity(e.id)]
    out = []
    for _ in range(count):
        r, s = rng.choice(pairs)
        ends = (g.elements[r].source, g.elements[s].target)
        t = rng.choice([e.id for e in nontrivial if (e.source, e.target) != ends])
        product = dict(g.product)
        product[(r, s)] = t
        out.append(Germ(g.objects, g.elements, g.identities, product, g.lengths))
    return out


def _failure(make):
    with pytest.raises(Exception) as info:
        make()
    return type(info.value), str(info.value)


def test_unvalidated_context_raises_the_eager_errors(monkeypatch):
    germ, _, _ = a3_ribbon_germ()
    broken = _endpoint_breaking_redirections(germ, 40, "a3-redirect")
    got = [_failure(lambda g=g: GermContext(g, validate=False)) for g in broken]
    monkeypatch.setattr(germs, "germ_category", oracles.eager_germ_category)
    want = [_failure(lambda g=g: GermContext(g, validate=False)) for g in broken]
    assert got == want
    # some redirections pass recognition, so only the relations catch them
    assert any(msg == "relation sides have different endpoints" for _, msg in want)


def test_invertible_pair_raises_at_the_call():
    # Z/2: x.x = 1, so x is a nontrivial invertible element
    elements = (GermElement(0, "1", 0, 0), GermElement(1, "x", 0, 0))
    product = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    g = Germ((ObjectId(0, "*"),), elements, (0,), product)
    with pytest.raises(ValidationError, match="nontrivial invertible pair"):
        germ_category(g)
    assert _failure(lambda: germ_category(g)) == _failure(
        lambda: oracles.eager_germ_category(g)
    )
