"""Shared fixtures: contexts built once per session, CLI runner, corpora."""

from __future__ import annotations

import functools
import subprocess
import sys

import pytest

from garsidekit import catalog
from garsidekit.bounded import build_garside_map
from garsidekit.contexts import PresentedContext
from garsidekit.core import Generator, ObjectId, Presentation, Word
from garsidekit.garside import GarsideFamily

import oracles


def monoid_presentation(
    letters: str, relations: list[tuple[str, str]]
) -> Presentation:
    """One-object presentation with single-character generator names."""
    objects = (ObjectId(0, "*"),)
    gens = tuple(Generator(i, ch, 0, 0) for i, ch in enumerate(letters))
    idx = {ch: i for i, ch in enumerate(letters)}
    rels = tuple(
        (
            Word(tuple(idx[c] for c in lhs), 0, 0),
            Word(tuple(idx[c] for c in rhs), 0, 0),
        )
        for lhs, rhs in relations
    )
    return Presentation(objects, gens, rels)


def shortlex_coset_words(n: int, letters: str) -> list[str]:
    """Shortlex-least words for the elements of S_n over adjacent
    transpositions; computed here from scratch so the family handed to the
    presentation-route fixtures does not depend on the package."""
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
    return sorted(words.values(), key=lambda w: (len(w), w))


@pytest.fixture(scope="session")
def b3_ctx() -> PresentedContext:
    return PresentedContext(monoid_presentation("ab", [("aba", "bab")]))


@pytest.fixture(scope="session")
def b3_family(b3_ctx) -> GarsideFamily:
    words = ["a", "b", "ab", "ba", "aba"]
    return GarsideFamily(b3_ctx, [b3_ctx.parse(w) for w in words])


@pytest.fixture(scope="session")
def b3_gm(b3_ctx, b3_family):
    gm = build_garside_map(b3_ctx, b3_family)
    assert not isinstance(gm, tuple)
    return gm


@pytest.fixture(scope="session")
def b4_ctx() -> PresentedContext:
    return PresentedContext(
        monoid_presentation(
            "abc", [("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")]
        )
    )


@pytest.fixture(scope="session")
def b4_family(b4_ctx) -> GarsideFamily:
    words = [w for w in shortlex_coset_words(4, "abc") if w]
    assert len(words) == 23
    return GarsideFamily(b4_ctx, [b4_ctx.parse(w) for w in words])


@pytest.fixture(scope="session")
def b4_gm(b4_ctx, b4_family):
    return build_garside_map(b4_ctx, b4_family)


@pytest.fixture(scope="session")
def n2_ctx() -> PresentedContext:
    return PresentedContext(monoid_presentation("xy", [("xy", "yx")]))


@pytest.fixture(scope="session")
def n2_family(n2_ctx) -> GarsideFamily:
    return GarsideFamily(n2_ctx, [n2_ctx.parse(w) for w in ("x", "y", "xy")])


@pytest.fixture(scope="session")
def n2_gm(n2_ctx, n2_family):
    return build_garside_map(n2_ctx, n2_family)


@pytest.fixture(scope="session")
def n3_ctx() -> PresentedContext:
    return PresentedContext(
        monoid_presentation("xyz", [("xy", "yx"), ("xz", "zx"), ("yz", "zy")])
    )


@pytest.fixture(scope="session")
def n3_family(n3_ctx) -> GarsideFamily:
    words = ["x", "y", "z", "xy", "xz", "yz", "xyz"]
    return GarsideFamily(n3_ctx, [n3_ctx.parse(w) for w in words])


@pytest.fixture(scope="session")
def n3_gm(n3_ctx, n3_family):
    return build_garside_map(n3_ctx, n3_family)


# every germ-backed catalog key with at most 132 elements: small enough for
# the dense validation oracle (n^3 triples) and the quadratic family check
SMALL_GERM_KEYS = (
    [f"free_abelian:{n}" for n in range(1, 8)]
    + [f"braid:{n}" for n in range(2, 6)]
    + [f"dual_braid:{n}" for n in range(2, 7)]
    + [f"artin:{t}" for t in ("A1", "A2", "A3", "A4", "B2", "B3", "G2")]
)


@functools.lru_cache(maxsize=None)
def _entry(key: str):
    return catalog.build(key)


@pytest.fixture(scope="session")
def entry():
    """Memoized catalog access: entry('braid:3') etc."""
    return _entry


def run_gk(*args: str, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "garsidekit.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


B3_GAR = """\
[generators]
a
b

[relations]
a b a = b a b

[garside]
delta: a b a
"""

N2_GAR = """\
[generators]
x
y

[relations]
x y = y x

[garside]
family: x, y, x y
"""

KLEIN_GAR = """\
[generators]
a
b

[relations]
a = b a b
"""


@pytest.fixture()
def b3_file(tmp_path):
    p = tmp_path / "b3.gar"
    p.write_text(B3_GAR)
    return str(p)


@pytest.fixture()
def n2_file(tmp_path):
    p = tmp_path / "n2.gar"
    p.write_text(N2_GAR)
    return str(p)


@pytest.fixture()
def klein_file(tmp_path):
    p = tmp_path / "klein.gar"
    p.write_text(KLEIN_GAR)
    return str(p)
