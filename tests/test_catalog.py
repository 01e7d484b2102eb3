"""Built-in example contexts: counts, cross-checks, and the coxeter helper."""

from __future__ import annotations

import itertools

import pytest

from garsidekit import catalog
from garsidekit.coxeter import (
    QONE,
    check_coxeter_matrix,
    enumerate_coxeter,
    qadd,
    qmul,
    qneg,
    reflection_matrices,
)
from garsidekit.errors import GarsideError, ValidationError
from garsidekit.garside import is_garside_family

import oracles
from conftest import SMALL_GERM_KEYS


# --- simple counts ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_abelian_counts(entry, n):
    e = entry(f"free_abelian:{n}")
    assert len(e.family.elements) + 1 == 2**n  # subsets of the generator set


def test_free_abelian_delta(entry):
    e = entry("free_abelian:2")
    assert e.context.show(e.garside_map.delta_word(0)) == "xy"
    assert len(e.garside_map.divisors[0]) + 1 == 4


@pytest.mark.parametrize(
    "n,count", [(2, 2), (3, 6), (4, 24), (5, 120)]
)
def test_braid_counts(entry, n, count):
    e = entry(f"braid:{n}")
    assert len(e.family.elements) + 1 == count
    delta = e.garside_map.delta_word(0)
    assert e.context.height(delta) == n * (n - 1) // 2
    assert len(e.context.atoms()) == n - 1


def test_braid_2_is_a_single_atom(entry):
    e = entry("braid:2")
    assert [e.context.show(w) for w in e.family.elements] == ["a"]
    assert e.context.show(e.garside_map.delta_word(0)) == "a"


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dual_braid_counts(entry, n):
    e = entry(f"dual_braid:{n}")
    assert len(e.family.elements) + 1 == oracles.catalan(n)
    # atoms are the transpositions
    assert len(e.context.atoms()) == n * (n - 1) // 2


def test_dual_braid_3_shape(entry):
    e = entry("dual_braid:3")
    shown = {e.context.show(w) for w in e.family.elements}
    assert shown == {"c12", "c13", "c23", "c123"}
    assert e.context.show(e.garside_map.delta_word(0)) == "c123"


@pytest.mark.parametrize(
    "key,size,delta_len",
    [
        ("artin:A1", 2, 1),
        ("artin:A2", 6, 3),
        ("artin:A3", 24, 6),
        ("artin:B2", 8, 4),
        ("artin:B3", 48, 9),
        ("artin:G2", 12, 6),
    ],
)
def test_artin_counts(entry, key, size, delta_len):
    e = entry(key)
    assert len(e.family.elements) + 1 == size
    assert e.context.height(e.garside_map.delta_word(0)) == delta_len


# --- klein -----------------------------------------------------------------------


def test_klein_word_problem(entry):
    ctx = entry("klein").context
    assert ctx.equal(ctx.parse("a"), ctx.parse("bab"))
    assert not ctx.equal(ctx.parse("ab"), ctx.parse("ba"))


def test_klein_every_power_of_b_divides_a(entry):
    ctx = entry("klein").context
    for k in (1, 2, 3):
        assert ctx.left_divides(ctx.parse("b" * k), ctx.parse("a"))


def test_klein_ships_without_garside_data(entry):
    e = entry("klein")
    assert e.family is None and e.garside_map is None
    assert e.kind == "presentation"


# --- cross-construction agreement ---------------------------------------------------


def _spaced(w: str) -> str:
    # germ contexts name their generators after germ elements ("ab", "aba"),
    # so dense juxtaposition is ambiguous there; spaced tokens are not
    return " ".join(w)


def test_artin_a2_matches_braid_3(entry):
    germ_ctx = entry("braid:3").context
    artin_ctx = entry("artin:A2").context
    corpus = list(oracles.words_up_to("ab", 5))
    for u, v in itertools.product(corpus, repeat=2):
        lhs = germ_ctx.equal(germ_ctx.parse(_spaced(u)), germ_ctx.parse(_spaced(v)))
        rhs = artin_ctx.equal(artin_ctx.parse(_spaced(u)), artin_ctx.parse(_spaced(v)))
        assert bool(lhs) is bool(rhs), (u, v)


def test_artin_a3_matches_braid_4_sampled(entry):
    germ_ctx = entry("braid:4").context
    artin_ctx = entry("artin:A3").context
    corpus = [w for w in oracles.words_up_to("abc", 4) if w]
    by_len: dict[int, list[str]] = {}
    for w in corpus:
        by_len.setdefault(len(w), []).append(w)
    for words in by_len.values():
        for u, v in itertools.product(words, repeat=2):
            lhs = germ_ctx.equal(
                germ_ctx.parse(_spaced(u)), germ_ctx.parse(_spaced(v))
            )
            rhs = artin_ctx.equal(
                artin_ctx.parse(_spaced(u)), artin_ctx.parse(_spaced(v))
            )
            assert bool(lhs) is bool(rhs), (u, v)


def test_artin_atilde1_is_presentation_only(entry):
    e = entry("artin:Atilde1")
    assert e.family is None and e.garside_map is None
    ctx = e.context
    # no relation at all: the free monoid word problem is letterwise identity
    assert ctx.equal(ctx.parse("ab"), ctx.parse("ab"))
    assert not ctx.equal(ctx.parse("ab"), ctx.parse("ba"))


# --- construction-time invariants -----------------------------------------------------


# every germ up to 132 elements: the catalog certifies them through the germ
# recognizer alone, and the quadratic family check must agree with it
@pytest.mark.parametrize("key", SMALL_GERM_KEYS)
def test_entry_garside_data_is_consistent(entry, key):
    e = entry(key)
    ctx, fam, gm = e.context, e.family, e.garside_map
    assert fam is not None and gm is not None
    verdict = is_garside_family(ctx, fam)
    assert verdict.ok, (key, verdict.reason)
    # the family is exactly the nontrivial divisors of Delta
    assert sorted(gm.divisors[0]) == list(range(len(fam.elements)))
    delta = gm.delta_word(0)
    for g in fam.elements:
        assert ctx.left_divides(g, delta), (key, ctx.show(g))


def test_all_catalog_keys_build():
    for key in catalog.keys():
        e = catalog.build(key)
        assert e.key == key
        assert e.context is not None


def test_unknown_key_reports_available():
    with pytest.raises(GarsideError) as err:
        catalog.build("abelian:2")
    assert "free_abelian:1" in str(err.value)
    with pytest.raises(GarsideError):
        catalog.build("braid:nine")


@pytest.mark.parametrize(
    "fn,bad",
    [
        (catalog.free_abelian, 0),
        (catalog.free_abelian, 9),
        (catalog.braid_classical, 1),
        (catalog.braid_classical, 7),
        (catalog.braid_dual, 1),
        (catalog.braid_dual, 7),
    ],
)
def test_parameter_range_validation(fn, bad):
    with pytest.raises(ValidationError):
        fn(bad)


# --- coxeter helper ---------------------------------------------------------------


SQRT2 = (0, 1, 0, 0)
SQRT3 = (0, 0, 1, 0)
SQRT6 = (0, 0, 0, 1)


def test_quad_arithmetic():
    assert qmul(SQRT2, SQRT2) == (2, 0, 0, 0)
    assert qmul(SQRT3, SQRT3) == (3, 0, 0, 0)
    assert qmul(SQRT2, SQRT3) == SQRT6
    assert qmul(SQRT6, SQRT6) == (6, 0, 0, 0)
    assert qmul((1, 1, 0, 0), (1, -1, 0, 0)) == (-1, 0, 0, 0)
    assert qadd(QONE, qneg(QONE)) == (0, 0, 0, 0)
    for x, y in itertools.product([QONE, SQRT2, SQRT3, SQRT6, (1, 2, 0, -1)], repeat=2):
        assert qmul(x, y) == qmul(y, x)


@pytest.mark.parametrize(
    "matrix,size",
    [
        (((1, 3), (3, 1)), 6),
        (((1, 4), (4, 1)), 8),
        (((1, 6), (6, 1)), 12),
        (((1, 2), (2, 1)), 4),
        (((1, 3, 2), (3, 1, 3), (2, 3, 1)), 24),
    ],
)
def test_enumerate_coxeter_counts(matrix, size):
    got = enumerate_coxeter(matrix, 1024)
    assert got is not None
    group, lengths, names = got
    assert group.size == size
    assert lengths[0] == 0 and names[0] == "1"


def test_enumerate_coxeter_longest_element():
    group, lengths, names = enumerate_coxeter(((1, 3), (3, 1)), 1024)
    assert max(lengths) == 3
    assert names[lengths.index(3)] in ("aba", "bab")


def test_enumerate_coxeter_infinite_returns_none():
    # all labels finite but the group is not (the affine triangle group)
    affine = ((1, 3, 3), (3, 1, 3), (3, 3, 1))
    assert enumerate_coxeter(affine, 256) is None


def test_check_coxeter_matrix_normalizes_infinity():
    norm = check_coxeter_matrix(((1, 0), (0, 1)))
    assert norm == ((1, None), (None, 1))


@pytest.mark.parametrize(
    "matrix",
    [
        ((1, 3),),  # not square
        ((1, 3), (4, 1)),  # not symmetric
        ((2, 3), (3, 1)),  # diagonal must be 1
        ((1, 5), (5, 1)),  # unsupported label
        (),
    ],
)
def test_check_coxeter_matrix_rejects(matrix):
    with pytest.raises(ValidationError):
        check_coxeter_matrix(matrix)


def test_reflection_matrices_reject_infinite_labels():
    with pytest.raises(ValidationError):
        reflection_matrices(((1, 0), (0, 1)))
