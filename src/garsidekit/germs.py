"""
Finite germs: validation, Garside-germ recognition, the generated category,
and germs derived from a group with a length function.

A germ is a finite family with identities and a partial product that is
associative wherever defined.  It generates a category (one generator per
nontrivial element, one relation r*s = t per defined product r.s = t).
Queries run on the product table, not on those relations, so
`germ_category` builds and validates them on first read; the checks that
can fail still run at the call.  The germ is a *Garside germ* when that
category admits the germ as a Garside family.  The recognition criterion
implemented here is exhaustive greatest-element search: for every
composable pair (s, t), the family

    I(s, t) = { x : s.x is defined and x left-divides t in the germ }

must have a greatest element H(s, t) under germ divisibility.  These
greatest elements are the head function of the generated category and drive
normalization by local sweeps:

    (s, t)  ->  (s.H, H\\t)     until every junction has H = identity.

Divisor sets are kept as bitmasks over a length-sorted reindexing of the
elements.  Because any grading is strictly monotone along proper division,
the greatest element of a downward-closed family, when it exists, is simply
the family's highest bit, which keeps recognition quadratic rather than
cubic and lets meets and joins run in constant time per pair.  Recognition
stores no heads: a sweep computes H(s, t) from the masks the first time it
meets the pair and caches it under the key s*size + t.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import Counter
from operator import itemgetter
from typing import Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .core import (
    CategoryContext,
    Generator,
    ObjectId,
    Presentation,
    Word,
    empty_word,
)
from .errors import INCONCLUSIVE, GarsideError, UnsupportedError, ValidationError
from . import reversing as rev


@dataclasses.dataclass(frozen=True)
class GermElement:
    id: int
    name: str
    source: int
    target: int


class Germ:
    """Finite indexed family with identities and a partial product table."""

    def __init__(
        self,
        objects: Sequence[ObjectId],
        elements: Sequence[GermElement],
        identities: Sequence[int],
        product: dict[tuple[int, int], int],
        lengths: Sequence[int] | None = None,
    ):
        self.objects = tuple(objects)
        self.elements = tuple(elements)
        self.identities = tuple(identities)  # identities[obj] = element id
        self.product = dict(product)
        self.lengths = tuple(lengths) if lengths is not None else None
        if len(self.identities) != len(self.objects):
            raise ValidationError("one identity per object required")
        names = [e.name for e in self.elements]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate element names")
        self.identity_set = frozenset(self.identities)

    @property
    def size(self) -> int:
        return len(self.elements)

    def is_identity(self, x: int) -> bool:
        return x in self.identity_set

    def composable(self, r: int, s: int) -> bool:
        return self.elements[r].target == self.elements[s].source

    def by_name(self, name: str) -> int:
        for e in self.elements:
            if e.name == name:
                return e.id
        raise GarsideError(f"no germ element named {name!r}")


@dataclasses.dataclass(frozen=True)
class Valid:
    triples_checked: int


@dataclasses.dataclass(frozen=True)
class Violation:
    kind: str
    data: tuple


def validate_germ(g: Germ) -> Valid | Violation:
    """
    Check the germ axioms: products respect endpoints, identities are
    neutral on every element, and associativity holds in both mixed forms
    (if r.s and (r.s).t are defined then s.t and r.(s.t) are defined and
    agree, and symmetrically).

    Associativity is checked over defined products only: each r.s = rs
    meets every defined rs.t, and each s.t = st every defined r.st, so the
    work follows the triples whose outer product is defined.
    `triples_checked` counts the composable triples (r, s, t), all decided
    by those two rules, from the elements ending and starting at each object.
    """
    prod = g.product
    for (r, s), t in prod.items():
        er, es, et = g.elements[r], g.elements[s], g.elements[t]
        if er.target != es.source:
            return Violation("product of non-composable pair", (r, s))
        if et.source != er.source or et.target != es.target:
            return Violation("product endpoints wrong", (r, s))

    for e in g.elements:
        left_id = g.identities[e.source]
        right_id = g.identities[e.target]
        if prod.get((left_id, e.id)) != e.id:
            return Violation("identity not neutral on the left", (left_id, e.id))
        if prod.get((e.id, right_id)) != e.id:
            return Violation("identity not neutral on the right", (e.id, right_id))

    right: list[dict[int, int]] = [{} for _ in g.elements]  # right[r][s] = r.s
    left: list[dict[int, int]] = [{} for _ in g.elements]   # left[s][r] = r.s
    for (r, s), t in prod.items():
        right[r][s] = t
        left[s][r] = t
    for (r, s), rs in prod.items():
        r_row, s_row = right[r], right[s]
        for t, rst in right[rs].items():
            st = s_row.get(t)
            if st is None or r_row.get(st) != rst:
                return Violation("associativity", (r, s, t))
    for (s, t), st in prod.items():
        for r, r_st in left[st].items():
            rs = right[r].get(s)
            if rs is None or right[rs].get(t) != r_st:
                return Violation("associativity", (r, s, t))

    ending = Counter(e.target for e in g.elements)
    starting = Counter(e.source for e in g.elements)
    return Valid(sum(ending[e.source] * starting[e.target] for e in g.elements))


def germ_heights(g: Germ) -> list[int]:
    """
    A grading that is strictly monotone along proper divisibility: the
    declared lengths when they qualify, else longest-divisor-chain heights.
    """
    if g.lengths is not None:
        lam = list(g.lengths)
        ok = all(l == 0 for i, l in enumerate(lam) if g.is_identity(i)) and all(
            l > 0 for i, l in enumerate(lam) if not g.is_identity(i)
        )
        if ok:
            ok = all(
                lam[t] > lam[r]
                for (r, s), t in g.product.items()
                if not g.is_identity(s)
            ) and all(
                lam[t] > lam[s]
                for (r, s), t in g.product.items()
                if not g.is_identity(r)
            )
        if ok:
            return lam
    div = [1 << t for t in range(g.size)]
    for (r, _), t in g.product.items():
        div[t] |= 1 << r
    lam = [0] * g.size
    # divisor sets grow along divisibility, so popcount order is a linear
    # extension of the divisor order
    for x in sorted(range(g.size), key=lambda x: bin(div[x]).count("1")):
        if g.is_identity(x):
            continue
        best = 1
        for d in _bits(div[x] & ~(1 << x)):
            if not g.is_identity(d):
                best = max(best, lam[d] + 1)
        lam[x] = best
    return lam


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class _Masks:
    """
    Bitmask tables over a length-sorted reindexing.  `order[i]` is the
    element with new index i; rows are indexed and populated in new indices.
    """

    def __init__(self, g: Germ):
        n = g.size
        self.germ = g
        self.lam = germ_heights(g)
        self.order = sorted(range(n), key=lambda x: (self.lam[x], x))
        self.pos = [0] * n
        for i, x in enumerate(self.order):
            self.pos[x] = i
        div_old = [1 << t for t in range(n)]
        rdef_old = [0] * n
        for (r, x), t in g.product.items():
            div_old[t] |= 1 << r
            rdef_old[r] |= 1 << x
        pos = self.pos
        self.div = [0] * n   # div[i]: new-index mask of left divisors
        self.rdef = [0] * n  # rdef[i]: new-index mask of defined right factors
        self.mult = [0] * n  # mult[i]: new-index mask of left multiples
        for i, x in enumerate(self.order):
            m = 0
            for b in _bits(div_old[x]):
                m |= 1 << pos[b]
            self.div[i] = m
            m = 0
            for b in _bits(rdef_old[x]):
                m |= 1 << pos[b]
            self.rdef[i] = m
        for i in range(n):
            for d in _bits(self.div[i]):
                self.mult[d] |= 1 << i
        self.src = [g.elements[x].source for x in self.order]
        self.tgt = [g.elements[x].target for x in self.order]
        self.id_of_obj = [pos[e] for e in g.identities]
        self.idmask = 0
        for i in self.id_of_obj:
            self.idmask |= 1 << i

    def greatest(self, family: int) -> int | None:
        """Greatest element of a downward-closed family, as a new index."""
        if family == 0:
            return None
        hi = family.bit_length() - 1
        if family & ~self.div[hi] == 0:
            return hi
        return None

    def least_upper(self, bounds: int) -> int | None:
        """Least member of an upward-closed set of bounds, as a new index."""
        if bounds == 0:
            return None
        lo = (bounds & -bounds).bit_length() - 1
        if bounds & ~self.mult[lo] == 0:
            return lo
        return None

    def i_family(self, si: int, ti: int) -> int:
        """I(s, t) for new indices: defined right factors of s dividing t."""
        idbit = 1 << self.id_of_obj[self.tgt[si]]
        return (self.rdef[si] | idbit) & self.div[ti]


@dataclasses.dataclass(frozen=True)
class GermWitness:
    verdict: str  # "garside" | "not-garside"
    reason: str = ""
    data: tuple = ()
    masks: _Masks | None = dataclasses.field(default=None, repr=False, compare=False)

    @property
    def is_garside(self) -> bool:
        return self.verdict == "garside"


def is_garside_germ(g: Germ) -> GermWitness:
    """
    Exhaustive Garside-germ recognition.  Also enforces the engine-wide
    restrictions the rest of the pipeline needs: left-cancellativity and no
    nontrivial invertible elements.
    """
    for (r, s), t in g.product.items():
        if g.is_identity(t) and not g.is_identity(r):
            return GermWitness("not-garside", "nontrivial invertible pair", (r, s))
    seen: dict[tuple[int, int], int] = {}
    for (r, s), t in g.product.items():
        key = (r, t)
        other = seen.get(key)
        if other is not None and other != s:
            return GermWitness("not-garside", "not left-cancellative", (r, other, s))
        seen[key] = s

    m = _Masks(g)
    n = g.size
    by_source: dict[int, list[int]] = {}
    for i in range(n):
        by_source.setdefault(m.src[i], []).append(i)
    div, order = m.div, m.order
    for si in range(n):
        # I(s, t) = (right factors of s, identity) & div[t]; see _Masks.greatest
        right_of_s = m.rdef[si] | 1 << m.id_of_obj[m.tgt[si]]
        for ti in by_source.get(m.tgt[si], ()):
            family = right_of_s & div[ti]
            if not family or family & ~div[family.bit_length() - 1]:
                return GermWitness(
                    "not-garside",
                    "family I(s,t) has no greatest element",
                    (order[si], order[ti]),
                )
    return GermWitness("garside", masks=m)


class _GermPresentation(Presentation):
    """
    The presentation `germ_category` returns.  Objects and generators are
    built with it; the relations, one per defined nontrivial product, are
    built the first time `relations` is read and then checked as any
    presentation's are.
    """

    def __init__(
        self,
        germ: Germ,
        generators: Sequence[Generator],
        gen_of_elem: dict[int, int],
        homogeneous: bool,
    ):
        self._set_generators(germ.objects, generators)
        self._germ = germ
        self.gen_of_elem = gen_of_elem  # germ element -> generator id
        self._homogeneous = homogeneous

    @property
    def homogeneous(self) -> bool:
        # relations read r*s = t, two letters against one, so the
        # presentation is homogeneous exactly when it has none
        return self._homogeneous

    @functools.cached_property
    def relations(self) -> tuple[tuple[Word, Word], ...]:
        g = self._germ
        gen_of_elem = self.gen_of_elem
        rels: list[tuple[Word, Word]] = []
        for (r, s), t in sorted(g.product.items()):
            if g.is_identity(r) or g.is_identity(s):
                continue
            if g.is_identity(t):
                raise ValidationError(
                    "germ has a nontrivial invertible pair; not supported"
                )
            lhs = Word(
                (gen_of_elem[r], gen_of_elem[s]),
                g.elements[r].source,
                g.elements[s].target,
            )
            rhs = Word((gen_of_elem[t],), g.elements[t].source, g.elements[t].target)
            rels.append((lhs, rhs))
        return self._checked_relations(rels)


def germ_category(g: Germ) -> Presentation:
    """
    The category presented by the germ: one generator per nontrivial
    element, one relation r*s = t per defined nontrivial product.

    Objects and generators are built here; the relations are built and
    validated when `relations` is first read.  The checks that can fail
    still run here: one scan of the product table, which builds no word,
    finds any nontrivial invertible pair and any product whose relation
    would have sides with different endpoints or a left side that does not
    compose, and then building the relations raises the error they raise.
    """
    gen_of_elem: dict[int, int] = {}
    gens: list[Generator] = []
    for e in g.elements:
        if not g.is_identity(e.id):
            gen_of_elem[e.id] = len(gens)
            gens.append(Generator(len(gens), e.name, e.source, e.target))
    elements = g.elements
    identities = g.identity_set
    homogeneous = True
    defective = False
    for (r, s), t in g.product.items():
        if r in identities or s in identities:
            continue
        homogeneous = False
        er, es, et = elements[r], elements[s], elements[t]
        if (
            t in identities
            or er.target != es.source
            or er.source != et.source
            or es.target != et.target
        ):
            defective = True
            break
    p = _GermPresentation(g, gens, gen_of_elem, homogeneous)
    if defective:
        p.relations  # building and checking the relations raises
    return p


class GermStructure:
    """
    Operational tables over a certified Garside germ: divisibility, heads of
    pairs, quotients, meets/joins, and the normalization sweep.  Heads are
    computed on demand from the divisor masks and cached in `_head_memo`
    under the key s*size + t, the only head cache.
    """

    def __init__(self, germ: Germ, witness: GermWitness):
        if not witness.is_garside:
            raise GarsideError("germ is not a Garside germ: " + witness.reason)
        self.germ = germ
        self.witness = witness
        self.masks = witness.masks
        self.lam = self.masks.lam
        self.prod = germ.product
        self._size = size = germ.size
        # r*size + t -> the x with r.x = t
        self.left_quot = {r * size + t: x for (r, x), t in germ.product.items()}
        self.graded = all(
            self.lam[t] == self.lam[r] + self.lam[s]
            for (r, s), t in germ.product.items()
        )
        self._head_memo: dict[int, int] = {}  # s*size + t -> head
        self._is_identity = [False] * germ.size
        for e in germ.identities:
            self._is_identity[e] = True

    # -- divisibility --------------------------------------------------------

    def divides(self, r: int, t: int) -> bool:
        m = self.masks
        return bool(m.div[m.pos[t]] >> m.pos[r] & 1)

    def quot(self, r: int, t: int) -> int:
        """The x with r.x = t; r must divide t."""
        if r == t:
            return self.germ.identities[self.germ.elements[t].target]
        if self.germ.is_identity(r):
            return t
        try:
            return self.left_quot[r * self._size + t]
        except KeyError:
            raise GarsideError(f"element {r} does not divide {t}") from None

    def atoms(self) -> list[int]:
        m = self.masks
        out = []
        for i in range(self.germ.size):
            x = m.order[i]
            if self.germ.is_identity(x):
                continue
            if m.div[i] & ~(1 << i) & ~m.idmask == 0:
                out.append(x)
        return sorted(out)

    def meet(self, s: int, t: int) -> int:
        """Greatest common left divisor inside the germ."""
        m = self.masks
        common = m.div[m.pos[s]] & m.div[m.pos[t]]
        gst = m.greatest(common)
        if gst is None:
            raise GarsideError("common divisors have no greatest element")
        return m.order[gst]

    def join(self, s: int, t: int) -> int | None:
        """Least common upper bound inside the germ, or None."""
        m = self.masks
        bounds = m.mult[m.pos[s]] & m.mult[m.pos[t]]
        lo = m.least_upper(bounds)
        return None if lo is None else m.order[lo]

    # -- head and normalization ------------------------------------------------

    def head_of_pair(self, s: int, t: int) -> int:
        """Greatest x with s.x defined and x dividing t."""
        key = s * self._size + t
        cached = self._head_memo.get(key)
        if cached is None:
            m = self.masks
            gst = m.greatest(m.i_family(m.pos[s], m.pos[t]))
            if gst is None:
                raise GarsideError("head of pair does not exist")
            cached = m.order[gst]
            self._head_memo[key] = cached
        return cached

    def normalize(self, seq: Iterable[int]) -> tuple[int, ...]:
        """
        Left-to-right sweep with backtracking: at each junction move the
        greatest movable divisor of the right factor into the left one.
        Terminates because each move strictly grows the left factor.
        """
        is_id = self._is_identity
        memo = self._head_memo
        size = self._size
        prod = self.prod
        left_quot = self.left_quot
        factors = [x for x in seq if not is_id[x]]
        last = len(factors) - 1
        i = 0
        while i < last:
            s, t = factors[i], factors[i + 1]
            h = memo.get(s * size + t)
            if h is None:
                h = self.head_of_pair(s, t)
            if is_id[h]:
                i += 1
                continue
            factors[i] = prod[(s, h)]
            if h == t:
                del factors[i + 1]
                last -= 1
            else:
                factors[i + 1] = left_quot[h * size + t]
            if i:
                i -= 1
        return tuple(factors)


class _LazyGermComplement:
    """
    Duck-typed stand-in for a reversing complement whose entries are germ
    quotients into joins, computed on demand: t\\s = t-quotient of join(t,s).
    The only cache is `push`, which the reversing kernel fills.
    """

    def __init__(self, ctx: "GermContext"):
        self.presentation = ctx.presentation
        self.n = len(ctx.elem_of_gen)
        self.push: dict[int, tuple[int, ...]] = {}
        self._ctx = ctx

    def entry(self, t: int, s: int) -> Word | None:
        """t\\s as a word, or None when t and s have no join."""
        ctx = self._ctx
        target = self.presentation.generators[t].target
        if t == s:
            return empty_word(target)
        et, es = ctx.elem_of_gen[t], ctx.elem_of_gen[s]
        if ctx.germ.elements[et].source != ctx.germ.elements[es].source:
            return None
        j = ctx.structure.join(et, es)
        if j is None:
            return None
        return ctx.word_of([ctx.structure.quot(et, j)], source=target)


class GermContext(CategoryContext):
    """
    Category generated by a Garside germ.  Equality is decided by comparing
    normalization sweeps, so the base oracles are exact.
    """

    def __init__(
        self, germ: Germ, limits: Limits = DEFAULT_LIMITS, validate: bool = True
    ):
        if validate:
            v = validate_germ(germ)
            if isinstance(v, Violation):
                raise ValidationError(f"germ axiom violation: {v.kind} at {v.data}")
        witness = is_garside_germ(germ)
        if not witness.is_garside:
            raise GarsideError(
                f"not a Garside germ ({witness.reason} at {witness.data})"
            )
        self.germ = germ
        self.structure = GermStructure(germ, witness)
        self.limits = limits
        self.presentation = germ_category(germ)
        # germ_category makes one generator per nontrivial element, in order
        self.gen_of_elem = self.presentation.gen_of_elem
        self.elem_of_gen = list(self.gen_of_elem)
        lam = self.structure.lam
        self.noetherian = all(
            lam[e.id] > 0 for e in germ.elements if not germ.is_identity(e.id)
        )
        self.completeness = "certified"
        self._germ_complement: _LazyGermComplement | None = None
        self._mirror: GermContext | None = None

    @property
    def complete(self) -> bool:
        return True

    def mirror(self) -> "GermContext":
        """Context of the opposite germ; its own mirror is this one."""
        if self._mirror is None:
            g = self.germ
            elems = tuple(
                GermElement(e.id, e.name, e.target, e.source) for e in g.elements
            )
            prod = {(s, r): t for (r, s), t in g.product.items()}
            opg = Germ(g.objects, elems, g.identities, prod, g.lengths)
            m = GermContext(opg, self.limits, validate=False)
            m._mirror = self
            self._mirror = m
        return self._mirror

    # -- word <-> factor conversions -------------------------------------------

    def letters_of(self, w: Word) -> list[int]:
        return [self.elem_of_gen[g] for g in w.letters]

    def word_of(self, factors: Sequence[int], source: int | None = None) -> Word:
        g = self.germ
        ids = tuple(self.gen_of_elem[e] for e in factors if not g.is_identity(e))
        if not ids:
            return empty_word(source if source is not None else g.objects[0].id)
        src = self.presentation.generators[ids[0]].source
        tgt = self.presentation.generators[ids[-1]].target
        return Word(ids, src, tgt)

    def normal_factors(self, w: Word) -> tuple[int, ...]:
        return self.structure.normalize(self.letters_of(w))

    # -- oracles -----------------------------------------------------------------

    def equal(self, u: Word, v: Word) -> bool:
        if u.source != v.source or u.target != v.target:
            return False
        return self.normal_factors(u) == self.normal_factors(v)

    def left_divides(self, u: Word, v: Word) -> bool:
        return self._strip(u, v) is not None

    def left_quotient(self, u: Word, v: Word):
        rest = self._strip(u, v)
        if rest is None:
            return None
        return self.word_of(rest, source=v.target)

    def _strip(self, u: Word, v: Word):
        """Divide v by u one germ letter at a time; None if not divisible."""
        if u.source != v.source:
            return None
        st = self.structure
        g = self.germ
        rest = list(self.normal_factors(v))
        for s in self.letters_of(u):
            if g.is_identity(s):
                continue
            if not rest:
                return None
            h = rest[0]
            if not st.divides(s, h):
                return None
            q = st.quot(s, h)
            if g.is_identity(q):
                rest = list(st.normalize(rest[1:]))
            else:
                rest = list(st.normalize([q] + rest[1:]))
        return tuple(rest)

    # -- atoms / height ------------------------------------------------------------

    def atoms(self) -> tuple[Word, ...]:
        if not self.noetherian:
            raise UnsupportedError("atoms are only defined for Noetherian contexts")
        return tuple(self.word_of([x]) for x in self.structure.atoms())

    def _grading(self):
        if self.structure.graded:
            return {
                gid: self.structure.lam[self.elem_of_gen[gid]]
                for gid in range(len(self.presentation.generators))
            }
        return None

    # -- reversing over the germ -----------------------------------------------------

    def germ_complement(self) -> _LazyGermComplement:
        if self._germ_complement is None:
            self._germ_complement = _LazyGermComplement(self)
        return self._germ_complement

    def reverse(self, w, fuel: int | None = None):
        return rev.reverse(
            self.germ_complement(), w, fuel or self.limits.fuel(len(w))
        )

    def right_lcm(self, u: Word, v: Word):
        r = rev.reverse_word_pair(
            self.germ_complement(), u, v, self.limits.fuel(len(u) + len(v) + 2)
        )
        if isinstance(r, rev.Stuck):
            return rev.NoCommonMultiple((u, v))
        if isinstance(r, rev.Diverged):
            return INCONCLUSIVE
        return Word(u.letters + r.pos.letters, u.source, r.pos.target)


# -- germs from groups ----------------------------------------------------------


class FiniteGroup:
    """A finite group given by an explicit multiplication table."""

    def __init__(
        self,
        mult: Sequence[Sequence[int]],
        names: Sequence[str],
        identity: int = 0,
    ):
        self.mult = [list(row) for row in mult]
        self.names = list(names)
        self.identity = identity
        n = len(self.mult)
        if any(len(row) != n for row in self.mult) or len(self.names) != n:
            raise ValidationError(
                "multiplication table must be square, one name per row"
            )
        if any(identity not in row for row in self.mult):
            raise ValidationError("table has a non-invertible row; not a group")
        self.inv = [row.index(identity) for row in self.mult]

    @property
    def size(self) -> int:
        return len(self.mult)

    @staticmethod
    def from_permutations(
        perms: Sequence[tuple[int, ...]], names: Sequence[str]
    ) -> "FiniteGroup":
        """Permutations in one-line notation; product applies left then right."""
        index = {p: i for i, p in enumerate(perms)}
        mult = []
        for p in perms:
            # q after p; itemgetter gives a bare item, not a tuple, for one index
            compose = itemgetter(*p) if len(p) > 1 else lambda q, p=p: (q[p[0]],)
            mult.append([index[compose(q)] for q in perms])
        ident = index[tuple(range(len(perms[0])))]
        return FiniteGroup(mult, list(names), ident)


def germ_from_groupoid(
    group: FiniteGroup,
    lengths: Sequence[int],
    bound: int | None = None,
    object_name: str = "*",
) -> Germ:
    """
    The germ of the pair (group, length): elements are the group elements
    (or the interval below `bound` when given), with f.g defined exactly
    when the length is additive and the product stays among the members.
    """
    lam = list(lengths)
    if len(lam) != group.size:
        raise ValidationError("length table size mismatch")
    if lam[group.identity] != 0:
        raise ValidationError("length of the identity must be 0")
    if any(l <= 0 and i != group.identity for i, l in enumerate(lam)):
        raise ValidationError("every non-identity element needs positive length")
    for f in range(group.size):
        for g in range(group.size):
            if lam[group.mult[f][g]] > lam[f] + lam[g]:
                raise ValidationError("length function is not subadditive")

    if bound is None:
        members = list(range(group.size))
    else:
        members = [
            x
            for x in range(group.size)
            if lam[x] + lam[group.mult[group.inv[x]][bound]] == lam[bound]
        ]
    member_set = set(members)
    reindex = {x: i for i, x in enumerate(members)}
    objects = (ObjectId(0, object_name),)
    elements = tuple(
        GermElement(i, group.names[x], 0, 0) for i, x in enumerate(members)
    )
    product: dict[tuple[int, int], int] = {}
    for f in members:
        for g in members:
            fg = group.mult[f][g]
            if lam[fg] == lam[f] + lam[g] and fg in member_set:
                product[(reindex[f], reindex[g])] = reindex[fg]
    lengths_out = [lam[x] for x in members]
    return Germ(objects, elements, (reindex[group.identity],), product, lengths_out)


__all__ = [
    "Germ",
    "GermElement",
    "GermWitness",
    "GermStructure",
    "GermContext",
    "FiniteGroup",
    "Valid",
    "Violation",
    "validate_germ",
    "is_garside_germ",
    "germ_category",
    "germ_from_groupoid",
    "germ_heights",
]
