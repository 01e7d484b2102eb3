"""
Built-in example contexts, fully wired: construction, Garside family, and
bounded structure where one exists.

Keys, as accepted by `gk catalog`:

    free_abelian:N   1 <= N <= 8     subset germ, Delta = product of all
    braid:N          2 <= N <= 6     permutation germ, Coxeter length
    dual_braid:N     2 <= N <= 6     permutation germ, reflection length,
                                     simples = noncrossing partitions
    artin:TYPE       A1..A4, B2, B3, G2, Atilde1
    klein                            <a, b | a = b a b>, presentation only

Germ entries are validated and certified by the germ recognizer at
construction, whatever their size.  A germ whose every I(s, t) has a
greatest element is a Garside germ, and its elements form a Garside family
of the category it generates (Foundations of Garside Theory, ch. VI), so
no quadratic family check follows.  Presentation-only entries (klein,
artin:Atilde1) ship without family or map.
"""

from __future__ import annotations

import dataclasses

from .bounded import GarsideMap, Unbounded, germ_family
from .config import DEFAULT_LIMITS, Limits
from .contexts import PresentedContext
from .core import CategoryContext, Generator, ObjectId, Presentation, Word
from .coxeter import check_coxeter_matrix, enumerate_coxeter
from .errors import GarsideError, ValidationError
from .garside import GarsideFamily
from .germs import (
    FiniteGroup,
    Germ,
    GermContext,
    GermElement,
    germ_from_groupoid,
)
from .permutations import (
    all_permutations,
    cycles_of,
    inversions,
    long_cycle,
    reflection_length,
    shortlex_word,
)

_ABELIAN_LETTERS = "xyzwuvst"
_BRAID_LETTERS = "abcde"


@dataclasses.dataclass(frozen=True)
class CatalogEntry:
    key: str
    context: CategoryContext
    family: GarsideFamily | None
    garside_map: GarsideMap | None
    notes: str

    @property
    def kind(self) -> str:
        return "germ" if isinstance(self.context, GermContext) else "presentation"


def _wire_germ(key: str, germ: Germ, limits: Limits, notes: str) -> CatalogEntry:
    ctx = GermContext(germ, limits)
    family, gm = germ_family(ctx)
    if isinstance(gm, Unbounded):
        raise GarsideError(f"catalog entry {key}: expected a bounded family")
    return CatalogEntry(key, ctx, family, gm, notes)


def free_abelian(n: int, limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    """N^n: the germ of subsets of the generator set under disjoint union."""
    if not 1 <= n <= 8:
        raise ValidationError("free_abelian expects 1 <= n <= 8")
    letters = _ABELIAN_LETTERS[:n]
    masks = sorted(range(1 << n), key=lambda m: (m.bit_count(), m))
    index = {m: i for i, m in enumerate(masks)}

    def name(mask: int) -> str:
        if mask == 0:
            return "1"
        return "".join(letters[i] for i in range(n) if mask >> i & 1)

    elements = tuple(GermElement(i, name(m), 0, 0) for i, m in enumerate(masks))
    product = {
        (index[a], index[b]): index[a | b]
        for a in range(1 << n)
        for b in range(1 << n)
        if a & b == 0
    }
    lengths = [m.bit_count() for m in masks]
    germ = Germ((ObjectId(0, "*"),), elements, (0,), product, lengths)
    return _wire_germ(
        f"free_abelian:{n}",
        germ,
        limits,
        f"free abelian monoid of rank {n}; generators commute, the bound is "
        f"the product of all {n} generators and its divisors are the 2^{n} "
        "subsets",
    )


def braid_classical(n: int, limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    """
    Positive braids on n strands via the permutation germ: elements of S_n
    named by shortlex words, product defined when inversion counts add.
    """
    if not 2 <= n <= 6:
        raise ValidationError("braid_classical expects 2 <= n <= 6")
    perms = all_permutations(n)
    names = [
        "".join(_BRAID_LETTERS[i] for i in shortlex_word(p)) or "1" for p in perms
    ]
    lengths = [inversions(p) for p in perms]
    group = FiniteGroup.from_permutations(perms, names)
    germ = germ_from_groupoid(group, lengths)
    return _wire_germ(
        f"braid:{n}",
        germ,
        limits,
        f"positive braid monoid on {n} strands; simples are the {len(perms)} "
        "permutations (length = inversion count), the bound is the half-twist",
    )


def braid_dual(n: int, limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    """
    Dual braid monoid on n strands: the interval below the n-cycle for
    reflection length; simples are the noncrossing partitions.
    """
    if not 2 <= n <= 6:
        raise ValidationError("braid_dual expects 2 <= n <= 6")
    perms = all_permutations(n)

    def name(p) -> str:
        cycles = cycles_of(p)
        if not cycles:
            return "1"
        return "".join("c" + "".join(str(i + 1) for i in cyc) for cyc in cycles)

    names = [name(p) for p in perms]
    lengths = [reflection_length(p) for p in perms]
    group = FiniteGroup.from_permutations(perms, names)
    bound = perms.index(long_cycle(n))
    germ = germ_from_groupoid(group, lengths, bound=bound)
    return _wire_germ(
        f"dual_braid:{n}",
        germ,
        limits,
        f"dual braid monoid on {n} strands; atoms are all transpositions, "
        "simples are the permutations below the long cycle in reflection "
        "length (noncrossing partitions), named by their cycles",
    )


_ARTIN_TYPES: dict[str, tuple[tuple[int, ...], ...]] = {
    "A1": ((1,),),
    "A2": ((1, 3), (3, 1)),
    "A3": ((1, 3, 2), (3, 1, 3), (2, 3, 1)),
    "A4": ((1, 3, 2, 2), (3, 1, 3, 2), (2, 3, 1, 3), (2, 2, 3, 1)),
    "B2": ((1, 4), (4, 1)),
    "B3": ((1, 4, 2), (4, 1, 3), (2, 3, 1)),
    "G2": ((1, 6), (6, 1)),
    "Atilde1": ((1, 0), (0, 1)),
}


def _alternating(first: int, second: int, m: int) -> Word:
    ids = tuple(first if k % 2 == 0 else second for k in range(m))
    return Word(ids, 0, 0)


def artin_tits(
    matrix, limits: Limits = DEFAULT_LIMITS, key: str = "artin:custom"
) -> CatalogEntry:
    """
    The positive monoid of the Artin system for a Coxeter matrix.  Finite
    Coxeter group: germ route with full Garside data.  Infinite (or larger
    than the configured group-size bound): presentation-only context.
    """
    norm = check_coxeter_matrix(matrix)
    n = len(norm)
    if n > 8:
        raise ValidationError("matrix rank too large for the letter pool")
    closed = None
    if all(e is not None for row in norm for e in row):
        closed = enumerate_coxeter(norm, limits.group_size_bound)
    if closed is not None:
        group, lengths, _names = closed
        germ = germ_from_groupoid(group, lengths)
        return _wire_germ(
            key,
            germ,
            limits,
            "Artin monoid of a finite Coxeter group "
            f"({group.size} elements); simples are the group elements with "
            "length-additive products",
        )

    objects = (ObjectId(0, "*"),)
    gens = tuple(Generator(i, "abcdefgh"[i], 0, 0) for i in range(n))
    relations = []
    for i in range(n):
        for j in range(i + 1, n):
            m = norm[i][j]
            if m is None:
                continue
            relations.append((_alternating(i, j, m), _alternating(j, i, m)))
    pres = Presentation(objects, gens, tuple(relations))
    ctx = PresentedContext(pres, limits=limits)
    return CatalogEntry(
        key,
        ctx,
        None,
        None,
        "Artin monoid of an infinite Coxeter group; reversing and rewriting "
        "work on the presentation, no finite Garside data is attempted",
    )


def artin_tits_named(type_name: str, limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    if type_name not in _ARTIN_TYPES:
        known = ", ".join(sorted(_ARTIN_TYPES))
        raise ValidationError(f"unknown Artin type {type_name!r} (known: {known})")
    return artin_tits(_ARTIN_TYPES[type_name], limits, key=f"artin:{type_name}")


def klein_bottle(limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    """
    The monoid <a, b | a = b a b>.  Not Noetherian (every power of b divides
    a), so no finite Garside family is shipped; the complement is still
    usable for reversing, with completeness assumed rather than certified.
    """
    objects = (ObjectId(0, "*"),)
    gens = (Generator(0, "a", 0, 0), Generator(1, "b", 0, 0))
    a, b = 0, 1
    rel = (Word((a,), 0, 0), Word((b, a, b), 0, 0))
    pres = Presentation(objects, gens, (rel,))
    ctx = PresentedContext(
        pres, limits=limits, noetherian=False, assume_complete=True
    )
    return CatalogEntry(
        "klein",
        ctx,
        None,
        None,
        "Klein bottle monoid <a, b | a = b a b>; every b^k left-divides a, "
        "so the monoid is not Noetherian and no finite Garside family "
        "exists; negative word-problem answers rest on assumed completeness "
        "of the reversing complement",
    )


def keys() -> list[str]:
    out = [f"free_abelian:{n}" for n in range(1, 9)]
    out += [f"braid:{n}" for n in range(2, 7)]
    out += [f"dual_braid:{n}" for n in range(2, 7)]
    out += [f"artin:{t}" for t in sorted(_ARTIN_TYPES)]
    out.append("klein")
    return out


def build(key: str, limits: Limits = DEFAULT_LIMITS) -> CatalogEntry:
    """Build the entry for a catalog key; raises on unknown keys."""
    head, _, arg = key.partition(":")
    try:
        if head == "free_abelian" and arg:
            return free_abelian(int(arg), limits)
        if head == "braid" and arg:
            return braid_classical(int(arg), limits)
        if head == "dual_braid" and arg:
            return braid_dual(int(arg), limits)
        if head == "artin" and arg:
            return artin_tits_named(arg, limits)
        if key == "klein":
            return klein_bottle(limits)
    except ValueError:
        pass
    raise GarsideError(
        f"unknown catalog key {key!r}; available: {', '.join(keys())}"
    )


__all__ = [
    "CatalogEntry",
    "free_abelian",
    "braid_classical",
    "braid_dual",
    "artin_tits",
    "artin_tits_named",
    "klein_bottle",
    "keys",
    "build",
]
