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

Negative input is handled by the fraction route: a signed word is first
expressed as d⁻¹·n, d is padded into a power of Δ, and the Δ⁻ᵖ is commuted
to the front through φ⁻ᵖ, letterwise.
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
from .germs import GermContext, _bits
from . import reversing as rev


@dataclasses.dataclass(frozen=True)
class Unbounded:
    """Certificate that the bounded-map search failed, with the evidence."""

    reason: str
    witness: tuple = ()


class GarsideMap:
    """Δ, its divisors, and the ∂/φ tables over a family bounded by Δ."""

    def __init__(
        self,
        ctx: CategoryContext,
        family: GarsideFamily,
        delta: dict[int, int],
        divisors: dict[int, tuple[int, ...]],
    ):
        self.ctx = ctx
        self.family = family
        self.delta = dict(delta)          # object -> family index of Δ(object)
        self.divisors = dict(divisors)    # object -> nontrivial divisor indices
        self.compl: dict[int, int | None] = {}
        for obj, idxs in self.divisors.items():
            dw = family.elements[self.delta[obj]]
            for i in idxs:
                q = ctx.left_quotient(family.elements[i], dw)
                if q is None or q is INCONCLUSIVE:
                    raise GarsideError("divisor fails to divide its bound")
                self.compl[i] = None if q.is_empty else family.index(q)
                if not q.is_empty and self.compl[i] is None:
                    raise GarsideError("complement left the family")
        self._phi: dict[int, int] = {}
        self._phi_inv: dict[int, int] = {}
        for obj, idxs in self.divisors.items():
            for i in idxs:
                j = self._phi_of(i)
                self._phi[i] = j
                self._phi_inv[j] = i
        # divisor index of each generator, None for letters outside Div(Δ)
        self._gen_divisor: list[int | None] = []
        for letter in range(len(ctx.presentation.generators)):
            i = family.index(ctx.presentation.word([letter]))
            self._gen_divisor.append(i if i in self.compl else None)
        self._meet_memo: dict[tuple[int, int], int | None] = {}
        self._quot_memo: dict[tuple[int, int], int | None] = {}
        # germ arm: family index i is the generator of germ element elem[i]
        self._germ = family._germ
        if self._germ is not None:
            self._elem = self._germ.elem_of_gen
            self._gen: list[int | None] = [None] * self._germ.germ.size
            for e, i in self._germ.gen_of_elem.items():
                self._gen[e] = i

    def _phi_of(self, i: int) -> int:
        c = self.compl[i]
        if c is None:  # i is Delta itself; phi(Delta(x)) = Delta(target)
            return self.delta[self.family.elements[i].target]
        c2 = self.compl[c]
        if c2 is None:
            raise GarsideError("complement chain escaped the divisors")
        return c2

    # -- word-level API ----------------------------------------------------------

    def delta_word(self, obj: int) -> Word:
        return self.family.elements[self.delta[obj]]

    def is_divisor(self, g: Word) -> bool:
        if g.is_empty:
            return True
        i = self.family.index(g)
        return i is not None and i in self.compl

    def complement(self, g: Word) -> Word:
        """∂g with g·∂g = Δ(source of g)."""
        if g.is_empty:
            return self.delta_word(g.source)
        i = self.family.index(g)
        if i is None or i not in self.compl:
            raise NotADivisor(self.ctx.show(g))
        c = self.compl[i]
        if c is None:
            return empty_word(self.family.elements[i].target)
        return self.family.elements[c]

    def phi(self, g: Word, power: int = 1) -> Word:
        """
        φ^power(g), extended letterwise: φ is a functor and permutes the
        divisors, so mapping each letter through the index table suffices.
        """
        if power == 0 or g.is_empty:
            return g
        gens = self.ctx.presentation.generators
        elements = self.family.elements
        letters: list[int] = []
        for letter in g.letters:
            i = self._gen_divisor[letter]
            if i is None:
                raise NotADivisor(gens[letter].name)
            letters.extend(elements[self.phi_index(i, power)].letters)
        src = gens[letters[0]].source if letters else g.source
        tgt = gens[letters[-1]].target if letters else g.target
        return Word(tuple(letters), src, tgt)

    # -- index-level API: divisors as family indices, None the identity --------

    def phi_index(self, i: int, power: int) -> int:
        """φ^power of the divisor with index i."""
        table = self._phi if power > 0 else self._phi_inv
        for _ in range(abs(power)):
            i = table[i]
        return i

    def left_quotient_index(self, i: int, j: int) -> int | None:
        """The divisor i\\j with i·(i\\j) = j; raises when i does not divide j."""
        if i == j:
            return None
        if self._germ is not None:
            q = self._germ.structure.quot(self._elem[i], self._elem[j])
            return self._gen[q]
        key = (i, j)
        if key in self._quot_memo:
            return self._quot_memo[key]
        elements = self.family.elements
        q = self.ctx.left_quotient(elements[i], elements[j])
        if q is None or q is INCONCLUSIVE:
            raise GarsideError("divisor does not divide: " + self.ctx.show(elements[j]))
        out = None if q.is_empty else self.family.index(q)
        if out is None and not q.is_empty:
            raise GarsideError("quotient of two divisors left the family")
        self._quot_memo[key] = out
        return out

    def strip_delta(self, factors: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
        """(number of leading Δ factors, the factors after them)."""
        lead = 0
        compl = self.compl
        while lead < len(factors) and compl.get(factors[lead], 0) is None:
            lead += 1
        return lead, factors[lead:]

    def normal_factors(self, seq: Sequence[int]) -> tuple[int, tuple[int, ...]]:
        """
        Normalise a sequence of divisor indices and strip its leading Δs:
        one germ sweep over element ids, or the family's normal form of the
        concatenated word.
        """
        if self._germ is not None:
            elem = self._elem
            gen = self._gen
            swept = self._germ.structure.normalize([elem[i] for i in seq])
            return self.strip_delta(tuple([gen[e] for e in swept]))
        if not seq:
            return 0, ()
        elements = self.family.elements
        letters: list[int] = []
        for i in seq:
            letters.extend(elements[i].letters)
        w = Word(tuple(letters), elements[seq[0]].source, elements[seq[-1]].target)
        return self.strip_delta(self.family.normalize(w).factors)

    def meet(self, i: int, j: int) -> int | None:
        """
        Greatest common divisor of two divisors, as a family index; None is
        the identity.  Uses the germ lattice when available, else the
        divisor-list order.
        """
        key = (i, j) if i <= j else (j, i)
        if key in self._meet_memo:
            return self._meet_memo[key]
        out: int | None
        if self._germ is not None:
            out = self._gen[self._germ.structure.meet(self._elem[i], self._elem[j])]
        else:
            obj = self.family.elements[i].source
            common = [
                d
                for d in self.divisors[obj]
                if self.family._divides(d, i) and self.family._divides(d, j)
            ]
            out = None
            for c in common:
                if all(self.family._divides(d, c) for d in common):
                    out = c
                    break
            if out is None and common:
                raise GarsideError("common divisors have no greatest element")
        self._meet_memo[key] = out
        return out


def build_garside_map(
    ctx: CategoryContext, family: GarsideFamily
) -> GarsideMap | Unbounded:
    """
    Find Δ per object as the right-lcm of the family members at that object,
    then verify the family is exactly Div(Δ).  Divisor enumeration past the
    configured bound, a missing lcm, or a divisor outside the family all
    yield an Unbounded certificate.
    """
    if isinstance(ctx, GermContext) and family._germ is not None:
        return _germ_map(ctx, family)

    delta: dict[int, int] = {}
    divisors: dict[int, tuple[int, ...]] = {}
    by_source: dict[int, list[int]] = {}
    for i, e in enumerate(family.elements):
        by_source.setdefault(e.source, []).append(i)
    for obj, members in sorted(by_source.items()):
        dw = family.elements[members[0]]
        for i in members[1:]:
            z = ctx.right_lcm(dw, family.elements[i])
            if isinstance(z, rev.NoCommonMultiple):
                return Unbounded(
                    "family members with no common right-multiple",
                    (ctx.show(dw), ctx.show(family.elements[i])),
                )
            if z is INCONCLUSIVE:
                return Unbounded(
                    "lcm search inconclusive",
                    (ctx.show(dw), ctx.show(family.elements[i])),
                )
            dw = z
        di = family.index(dw)
        if di is None:
            return Unbounded("right-lcm of the family lies outside it", (ctx.show(dw),))
        delta[obj] = di

        found = _enumerate_divisors(ctx, dw, obj)
        if isinstance(found, Unbounded):
            return found
        idxs: list[int] = []
        for w in found:
            fi = family.index(w)
            if fi is None:
                return Unbounded(
                    "divisor of the bound lies outside the family",
                    (ctx.show(w), ctx.show(dw)),
                )
            idxs.append(fi)
        for i in members:
            if i not in idxs:
                idxs.append(i)
        divisors[obj] = tuple(sorted(set(idxs)))
    return GarsideMap(ctx, family, delta, divisors)


def _enumerate_divisors(ctx: CategoryContext, dw: Word, obj: int):
    """Nontrivial left-divisors of dw by breadth-first letter extension."""
    bound = ctx.limits.divisor_search_bound
    out: list[Word] = []
    frontier: list[Word] = [empty_word(obj)]
    while frontier:
        new: list[Word] = []
        for w in frontier:
            for gen in ctx.presentation.generators:
                if gen.source != w.target:
                    continue
                cand = Word(w.letters + (gen.id,), w.source, gen.target)
                d = ctx.left_divides(cand, dw)
                if d is INCONCLUSIVE:
                    return Unbounded("divisor search inconclusive", (ctx.show(cand),))
                if not d:
                    continue
                if any(_true(ctx.equal(cand, seen)) for seen in out):
                    continue
                out.append(cand)
                new.append(cand)
                if len(out) > bound:
                    return Unbounded(
                        "divisor enumeration exceeded the bound",
                        tuple(ctx.show(x) for x in out[:6]) + ("...",),
                    )
        frontier = new
    return out


def _germ_map(ctx: GermContext, family: GarsideFamily) -> GarsideMap | Unbounded:
    st = ctx.structure
    m = st.masks
    delta: dict[int, int] = {}
    divisors: dict[int, tuple[int, ...]] = {}
    by_source: dict[int, int] = {}
    for i in range(ctx.germ.size):
        obj = m.src[i]
        by_source[obj] = by_source.get(obj, 0) | (1 << i)
    for obj, mask in sorted(by_source.items()):
        top = m.greatest(mask)
        if top is None:
            return Unbounded(
                "no greatest element among the germ members at an object",
                (ctx.germ.objects[obj].name,),
            )
        delta_elem = m.order[top]
        if ctx.germ.is_identity(delta_elem):
            continue  # no nontrivial members at this object
        delta[obj] = ctx.gen_of_elem[delta_elem]
        idxs = [
            ctx.gen_of_elem[m.order[b]]
            for b in _bits(m.div[top])
            if not ctx.germ.is_identity(m.order[b])
        ]
        divisors[obj] = tuple(sorted(idxs))
        # the family must be exactly the divisors of delta
        member_count = sum(
            1 for b in _bits(mask) if not ctx.germ.is_identity(m.order[b])
        )
        if member_count != len(idxs):
            return Unbounded(
                "germ members at the object are not all divisors of the top element",
                (ctx.germ.elements[delta_elem].name,),
            )
    return GarsideMap(ctx, family, delta, divisors)


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
        dpow = empty_word(self.source)
        for _ in range(-self.m):
            dpow = concat(dpow, self.gm.delta_word(dpow.target))
        tail = empty_word(dpow.target)
        for i in self.factors:
            tail = concat(tail, self.gm.family.elements[i])
        letters = tuple((g, -1) for g in reversed(dpow.letters)) + tuple(
            (g, +1) for g in tail.letters
        )
        return SignedWord(letters, self.source, self.target)


def delta_normalize(gm: GarsideMap, w: SignedWord | Word) -> DeltaNormal:
    """
    Maximal-inf Δ-normal form.  Positive input: normalize and strip leading
    Δ factors.  Signed input: express as d⁻¹·n, pad d to Δ^p, and commute
    Δ⁻ᵖ to the front through φ⁻ᵖ.
    """
    if isinstance(w, Word):
        w = signed_from_word(w)
    ctx = gm.ctx
    family = gm.family
    if w.is_positive:
        pos = w.positive_part()
        shift = 0
        n = pos
    else:
        fr = left_fraction(ctx, w)
        if isinstance(fr, rev.Stuck):
            raise UnsupportedError("no fraction available: missing common multiples")
        if isinstance(fr, rev.Diverged):
            raise UnsupportedError("fraction search ran out of fuel")
        d, npart = fr
        p = len(family.normalize(d).factors)
        if p == 0:
            shift = 0
            n = npart
        else:
            dpow = empty_word(d.source)
            for _ in range(p):
                dpow = concat(dpow, gm.delta_word(dpow.target))
            e = ctx.left_quotient(d, dpow)
            if e is None or e is INCONCLUSIVE:
                raise GarsideError("padding failed: d does not divide its Δ-power")
            shift = -p
            n = concat(gm.phi(e, -p), npart)
    lead, factors = gm.strip_delta(family.normalize(n).factors)
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
    "delta_normalize",
    "gcd",
    "lcm_right",
    "lcm_left",
]
