"""
Bounded Garside families: the Garside map Δ, the complement ∂, the functor
φ, Δ-normal forms with inf/sup, and the gcd/lcm operations boundedness
guarantees.

A family S is bounded by Δ (one element per object) when S is exactly the
set of left-divisors of Δ.  The complement ∂g is the witness g·∂g = Δ;
applying it twice gives the functor φ = ∂∂ which satisfies Δ·φ(g) = g·Δ and
permutes the divisors.  Every element of the enveloping groupoid then has a
unique expression Δ^m·x₁⋯x_k with the xᵢ proper nontrivial divisors forming
a normal sequence; m is the inf, m+k the sup.

Every `GarsideMap` reads one table, the germ Div(Δ) with s·t defined when
s·t divides Δ (Foundations of Garside Theory, ch. VI).  A germ context's
family already is that germ; for any other context Div(Δ) is enumerated
once, compiled into a germ, and certified by the germ recognizer.  ∂, φ,
quotients, meets and normal forms of divisor sequences then make no
context call.

Δ-normal forms are read from the same table: a word is one germ sweep over
its generators' divisors.  A signed word is first written d⁻¹·n; when d is
normal as d₁⋯d_p, d⁻¹ = Δ⁻ᵖ·φ⁻ᵖ(∂d_p)⋯φ⁻¹(∂d₁) (ElRifai & Morton, Quart. J.
Math. 45, 1994), so the sweep runs over those divisors, then n's.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .core import (
    CategoryContext,
    SignedWord,
    Word,
    concat,
    empty_word,
    _true,
    mirror_word,
    signed_from_word,
)
from .errors import INCONCLUSIVE, GarsideError, NotADivisor, UnsupportedError
from .garside import GarsideFamily, left_fraction
from .germs import (
    Germ,
    GermContext,
    GermElement,
    GermStructure,
    Violation,
    is_garside_germ,
    validate_germ,
)
from . import reversing as rev


@dataclasses.dataclass(frozen=True)
class Unbounded:
    """Certificate that the bounded-map search failed, with the evidence."""

    reason: str
    witness: tuple = ()


class GarsideMap:
    """
    Δ, its divisors, and the ∂/φ tables over a family that is exactly
    Div(Δ), read from the germ: family index i is germ element elem[i],
    generator g is germ element letter_elem[g] (None outside Div(Δ)).
    """

    def __init__(
        self,
        ctx: CategoryContext,
        family: GarsideFamily,
        structure: GermStructure,
        elem: Sequence[int],
        letter_elem: Sequence[int | None],
        delta: dict[int, int],
    ):
        self.ctx = ctx
        self.family = family
        self.structure = structure
        self.delta = delta  # object -> family index of Δ(object), none where Δ = 1
        elements = family.elements
        by_source: dict[int, list[int]] = {}
        for i, e in enumerate(elements):
            by_source.setdefault(e.source, []).append(i)
        # object -> nontrivial divisor indices
        self.divisors = {obj: tuple(idxs) for obj, idxs in sorted(by_source.items())}
        self._elem = list(elem)
        # family index of each germ element, None for the identities
        self._gen: list[int | None] = [None] * structure.germ.size
        for i, e in enumerate(self._elem):
            self._gen[e] = i
        self.compl = [
            self._gen[structure.quot(e, self._elem[delta[w.source]])]
            for e, w in zip(self._elem, elements)
        ]
        self._phi = [0] * len(elements)
        self._phi_inv = [0] * len(elements)
        for i, c in enumerate(self.compl):
            j = delta[elements[i].target] if c is None else self.compl[c]
            self._phi[i] = j
            self._phi_inv[j] = i
        # φ on objects: Δ(x) runs from x to φ(x); an object without Δ is fixed
        self._phi_obj = {x: elements[i].target for x, i in delta.items()}
        self._phi_obj_inv = {y: x for x, y in self._phi_obj.items()}
        # divisor indices of each generator: (i,) inside Div(Δ); outside it,
        # None until `_divisors_of` first reads its family normal form
        self._letter_divs: list[tuple[int, ...] | None] = [
            None if e is None else (self._gen[e],) for e in letter_elem
        ]

    # -- word-level API ----------------------------------------------------------

    def delta_word(self, obj: int) -> Word:
        """Δ(obj); the empty word where only the identity starts (Δ = 1)."""
        i = self.delta.get(obj)
        return empty_word(obj) if i is None else self.family.elements[i]

    def complement(self, g: Word) -> Word:
        """∂g with g·∂g = Δ(source of g)."""
        if g.is_empty:
            return self.delta_word(g.source)
        i = self.family.index(g)
        if i is None:
            raise NotADivisor(self.ctx.show(g))
        c = self.compl[i]
        if c is None:
            return empty_word(self.family.elements[i].target)
        return self.family.elements[c]

    def phi(self, g: Word, power: int = 1) -> Word:
        """
        φ^power(g): φ is a functor and permutes the divisors, so mapping each
        of g's divisors through the index table suffices.
        """
        if power == 0:
            return g
        elements = self.family.elements
        divs = [elements[self.phi_index(i, power)] for i in self._divisors_of(g)]
        letters = tuple(x for e in divs for x in e.letters)
        return Word(letters, self.phi_object(g.source, power), self.phi_object(g.target, power))

    def phi_object(self, obj: int, power: int) -> int:
        """φ^power of an object."""
        table = self._phi_obj if power > 0 else self._phi_obj_inv
        for _ in range(abs(power)):
            obj = table.get(obj, obj)
        return obj

    # -- index-level API: divisors as family indices, None the identity --------

    def _divisors_of(self, w: Word) -> list[int]:
        """Divisor indices whose product is w, one run per letter."""
        table = self._letter_divs
        out: list[int] = []
        for g in w.letters:
            run = table[g]
            if run is None:
                # a letter outside Div(Δ): its family normal form, read once
                word = self.ctx.presentation.word([g])
                run = table[g] = self.family.normalize(word).factors
            out += run
        return out

    def phi_index(self, i: int, power: int) -> int:
        """φ^power of the divisor with index i."""
        table = self._phi if power > 0 else self._phi_inv
        for _ in range(abs(power)):
            i = table[i]
        return i

    def left_quotient_index(self, i: int, j: int) -> int | None:
        """The divisor i\\j with i·(i\\j) = j; raises when i does not divide j."""
        return self._gen[self.structure.quot(self._elem[i], self._elem[j])]

    def strip_delta(self, factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(number of leading Δ factors, the factors after them)."""
        lead = 0
        compl = self.compl
        while lead < len(factors) and compl[factors[lead]] is None:
            lead += 1
        return lead, factors[lead:]

    def normal_factors(self, seq: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """Normalise divisor indices by one germ sweep; strip the leading Δs."""
        elem = self._elem
        gen = self._gen
        swept = self.structure.normalize([elem[i] for i in seq])
        return self.strip_delta(tuple([gen[e] for e in swept]))

    def meet(self, i: int, j: int) -> int | None:
        """Greatest common divisor of two divisors; None is the identity."""
        return self._gen[self.structure.meet(self._elem[i], self._elem[j])]


def build_garside_map(
    ctx: CategoryContext, family: GarsideFamily
) -> GarsideMap | Unbounded:
    """
    Find Δ per object as the right-lcm of the family members at that object,
    then verify the family is exactly Div(Δ).  Divisor enumeration past the
    configured bound, a missing lcm, a divisor outside the family, or a
    compiled Div(Δ) that is not a Garside germ all yield an Unbounded
    certificate.  A germ context's own family is read from its germ.
    """
    if family._germ is None:
        return _compile(ctx, family, {})
    elem = family._germ.elem_of_gen
    return _germ_map(ctx, family, family._germ.structure, elem, elem)


def _divisor_family(
    ctx: CategoryContext, delta: Word
) -> tuple[GarsideFamily, GarsideMap | Unbounded]:
    """The family Div(Δ) of a given bound and its map, from one enumeration."""
    found = _enumerate_divisors(ctx, delta, delta.source)
    if isinstance(found, Unbounded):
        raise UnsupportedError(found.reason)
    family = GarsideFamily(ctx, found[0])
    return family, _compile(ctx, family, {delta.source: found})


def germ_family(ctx: GermContext) -> tuple[GarsideFamily, GarsideMap | Unbounded]:
    """A germ context's generators as its Garside family, and that family's map."""
    family = GarsideFamily(
        ctx, [ctx.presentation.word([g.id]) for g in ctx.presentation.generators]
    )
    return family, build_garside_map(ctx, family)


def _enumerate_divisors(ctx: CategoryContext, dw: Word, obj: int):
    """
    Left-divisors of dw by breadth-first letter extension, the identity
    first, with their step table: steps[k][g] is the index of the divisor
    equal to words[k]·g, present when that product divides dw.
    """
    bound = ctx.limits.divisor_search_bound
    words: list[Word] = [empty_word(obj)]
    steps: list[dict[int, int]] = [{}]
    frontier = [0]
    # relations that keep length leave only this level's words to compare
    homogeneous = ctx.presentation.homogeneous
    while frontier:
        first = len(words) if homogeneous else 1
        new = []
        for j in frontier:
            w = words[j]
            for gen in ctx.presentation.generators:
                if gen.source != w.target:
                    continue
                cand = Word(w.letters + (gen.id,), w.source, gen.target)
                d = ctx.left_divides(cand, dw)
                if d is INCONCLUSIVE:
                    return Unbounded("divisor search inconclusive", (ctx.show(cand),))
                if not d:
                    continue
                k = next(
                    (k for k in range(first, len(words)) if _true(ctx.equal(cand, words[k]))),
                    None,
                )
                if k is None:
                    k = len(words)
                    words.append(cand)
                    steps.append({})
                    new.append(k)
                    if k > bound:
                        return Unbounded(
                            "divisor enumeration exceeded the bound",
                            tuple(ctx.show(x) for x in words[1:7]) + ("...",),
                        )
                steps[j][gen.id] = k
        frontier = new
    return words, steps


def _compile(ctx: CategoryContext, family: GarsideFamily, tables) -> GarsideMap | Unbounded:
    """
    Δ per object as the right-lcm of the family members there, then the
    germ Div(Δ) from the divisor enumeration of each Δ (`tables` holds those
    already made, by object): element i is family element i, then one
    identity per object.  s·t is defined when folding the step table over
    t's letters, from s, stays in Div(Δ).  The germ is validated and
    certified before use.
    """
    elements = family.elements
    by_source: dict[int, list[Word]] = {}
    for e in elements:
        by_source.setdefault(e.source, []).append(e)
    for obj, members in sorted(by_source.items()):
        dw = members[0]
        for e in members[1:]:
            z = ctx.right_lcm(dw, e)
            if isinstance(z, rev.NoCommonMultiple):
                return Unbounded(
                    "family members with no common right-multiple",
                    (ctx.show(dw), ctx.show(e)),
                )
            if z is INCONCLUSIVE:
                return Unbounded("lcm search inconclusive", (ctx.show(dw), ctx.show(e)))
            dw = z
        if family.index(dw) is None:
            return Unbounded("right-lcm of the family lies outside it", (ctx.show(dw),))
        if obj not in tables:
            found = _enumerate_divisors(ctx, dw, obj)
            if isinstance(found, Unbounded):
                return found
            tables[obj] = found

    n = len(elements)
    objects = ctx.presentation.objects
    words = list(elements) + [empty_word(o.id) for o in objects]
    at_letters = {e.letters: i for i, e in enumerate(elements)}
    product: dict[tuple[int, int], int] = {}
    letter_elem: list[int | None] = [None] * len(ctx.presentation.generators)
    for o in objects:
        divisors, steps = tables.get(o.id, ((), [{}]))
        row_elem = [n + o.id]  # germ element of each row of steps
        for w in divisors[1:]:
            i = at_letters.get(w.letters)
            if i is None:
                i = family.index(w)
            if i is None:
                return Unbounded("divisor of the bound lies outside the family", (ctx.show(w),))
            row_elem.append(i)
        for g, k in steps[0].items():
            letter_elem[g] = row_elem[k]
        for k, s in enumerate(row_elem):
            for t, wt in enumerate(words):
                if wt.source != words[s].target:
                    continue
                r = k
                for g in wt.letters:
                    r = steps[r].get(g)
                    if r is None:
                        break
                else:
                    product[(s, t)] = row_elem[r]
    germ = Germ(
        objects,
        [GermElement(i, str(i), w.source, w.target) for i, w in enumerate(words)],
        [n + o.id for o in objects],
        product,
    )
    valid = validate_germ(germ)
    if isinstance(valid, Violation):
        return Unbounded(valid.kind, tuple(ctx.show(words[x]) for x in valid.data))
    witness = is_garside_germ(germ)
    if not witness.is_garside:
        return Unbounded(witness.reason, tuple(ctx.show(words[x]) for x in witness.data))
    return _germ_map(ctx, family, GermStructure(germ, witness), range(n), letter_elem)


def _germ_map(
    ctx: CategoryContext,
    family: GarsideFamily,
    st: GermStructure,
    elem: Sequence[int],
    letter_elem: Sequence[int | None],
) -> GarsideMap | Unbounded:
    """
    Δ per object as the greatest family member there, which every member
    must divide; family index i is germ element elem[i].
    """
    m = st.masks
    by_source: dict[int, int] = {}
    for i, w in enumerate(family.elements):
        by_source[w.source] = by_source.get(w.source, 0) | 1 << m.pos[elem[i]]
    delta: dict[int, int] = {}
    for obj, mask in sorted(by_source.items()):
        top = m.greatest(mask)
        if top is None:
            return Unbounded(
                "no greatest element among the germ members at an object",
                (ctx.presentation.objects[obj].name,),
            )
        delta[obj] = elem.index(m.order[top])
        if (m.div[top] & ~m.idmask).bit_count() != mask.bit_count():
            return Unbounded(
                "germ members at the object are not all divisors of the top element",
                (ctx.show(family.elements[delta[obj]]),),
            )
    return GarsideMap(ctx, family, st, elem, letter_elem, delta)


@dataclasses.dataclass(frozen=True)
class DeltaNormal:
    """Δ^m · x₁⋯x_k with the xᵢ proper nontrivial divisors, normal."""

    gm: GarsideMap
    m: int
    factors: tuple[int, ...]
    source: int
    target: int

    @property
    def inf(self) -> int:
        return self.m

    @property
    def sup(self) -> int:
        return self.m + len(self.factors)

    def display(self) -> str:
        parts = []
        if self.m != 0 or not self.factors:
            if self.m == 0 and not self.factors:
                return "1"
            parts.append(f"D^{self.m}")
        parts.extend(
            self.gm.ctx.show(self.gm.family.elements[i]) for i in self.factors
        )
        return " . ".join(parts)

    def word(self) -> Word:
        """Positive word when m >= 0; raises otherwise."""
        if self.m < 0:
            raise GarsideError("negative power has no positive word")
        w = empty_word(self.source)
        for _ in range(self.m):
            w = concat(w, self.gm.delta_word(w.target))
        for i in self.factors:
            w = concat(w, self.gm.family.elements[i])
        return w

    def signed_word(self) -> SignedWord:
        if self.m >= 0:
            return signed_from_word(self.word())
        # Δ^m is Δ^-m read backwards; Δ^-m runs from φ^m(source) to source
        dpow = empty_word(self.gm.phi_object(self.source, self.m))
        for _ in range(-self.m):
            dpow = concat(dpow, self.gm.delta_word(dpow.target))
        tail = empty_word(dpow.source)
        for i in self.factors:
            tail = concat(tail, self.gm.family.elements[i])
        letters = tuple((g, -1) for g in reversed(dpow.letters)) + tuple(
            (g, +1) for g in tail.letters
        )
        return SignedWord(letters, self.source, self.target)


def delta_normalize(gm: GarsideMap, w: SignedWord | Word) -> DeltaNormal:
    """
    Maximal-inf Δ-normal form by one germ sweep.  Positive input: the sweep
    runs over its letters' divisors.  Signed input: express it as d⁻¹·n and
    normalise d to Δ^l·d₁⋯d_q; with p = l + q,
    d⁻¹ = Δ⁻ᵖ·φ^{−p}(∂d_q)⋯φ^{−l−1}(∂d₁), so the sweep runs over those
    divisors followed by n's, and m starts at −p.
    """
    if isinstance(w, Word):
        w = signed_from_word(w)
    if w.is_positive:
        shift, seq = 0, gm._divisors_of(w.positive_part())
    else:
        fr = left_fraction(gm.ctx, w)
        if isinstance(fr, rev.Stuck):
            raise UnsupportedError("no fraction available: missing common multiples")
        if isinstance(fr, rev.Diverged):
            raise UnsupportedError("fraction search ran out of fuel")
        d, n = fr
        lead, dfac = gm.normal_factors(gm._divisors_of(d))
        shift = -(lead + len(dfac))
        seq = [gm.phi_index(gm.compl[f], k + shift) for k, f in enumerate(reversed(dfac))]
        seq += gm._divisors_of(n)
    lead, factors = gm.normal_factors(seq)
    return DeltaNormal(gm, shift + lead, factors, w.source, w.target)


def gcd(gm: GarsideMap, u: Word, v: Word) -> Word:
    """
    Greatest common left-divisor by head iteration: peel the meet of the two
    heads, recurse on the quotients.
    """
    ctx = gm.ctx
    family = gm.family
    out = empty_word(u.source)
    while True:
        if u.is_empty or v.is_empty:
            return out
        hu = family.head(u)
        hv = family.head(v)
        if hu is None or hv is None:
            return out
        mi = gm.meet(hu, hv)
        if mi is None:
            return out
        mw = family.elements[mi]
        u2 = ctx.left_quotient(mw, u)
        v2 = ctx.left_quotient(mw, v)
        if u2 is None or v2 is None or u2 is INCONCLUSIVE or v2 is INCONCLUSIVE:
            raise GarsideError("meet of heads failed to divide")
        out = concat(out, mw)
        u, v = u2, v2


def lcm_right(gm: GarsideMap, u: Word, v: Word) -> Word:
    z = gm.ctx.right_lcm(u, v)
    if isinstance(z, rev.NoCommonMultiple) or z is INCONCLUSIVE:
        raise GarsideError("right-lcm unavailable in a bounded context")
    return z


def lcm_left(gm: GarsideMap, u: Word, v: Word) -> Word:
    """Least common left-multiple, via the mirror context."""
    mctx = gm.ctx.mirror()
    z = mctx.right_lcm(mirror_word(u), mirror_word(v))
    if isinstance(z, rev.NoCommonMultiple) or z is INCONCLUSIVE:
        raise GarsideError("left-lcm unavailable in a bounded context")
    return mirror_word(z)


__all__ = [
    "GarsideMap",
    "Unbounded",
    "DeltaNormal",
    "build_garside_map",
    "germ_family",
    "delta_normalize",
    "gcd",
    "lcm_right",
    "lcm_left",
]
