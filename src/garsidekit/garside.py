"""
Garside families over a context: greediness tests, head computation, greedy
normalization, incremental (domino) renormalization, the word-problem
decision procedure, and symmetric normalization of signed words.

A family S is kept as a finite list of words, deduplicated up to context
equality; factors of decompositions are stored as indices into that list so
factorwise comparison is cheap.  The head of a word is its greatest left
divisor lying in S.  Two computation paths exist: exhaustive
maximal-divisor search (any context), and the germ sweep (germ-backed
contexts), which tests cross-validate against each other.

A pair (s1, s2) is S-greedy when every member of S dividing s1*s2 already
divides s1; a decomposition is normal when every junction is greedy.  If the
exhaustive head search finds two incomparable maximal divisors the family is
not a Garside family and HeadUndefined is raised rather than picking one.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

from .core import (
    CategoryContext,
    SignedWord,
    Word,
    concat,
    _true,
    mirror_signed,
    mirror_word,
)
from .errors import (
    INCONCLUSIVE,
    GarsideError,
    HeadUndefined,
    UnsupportedError,
)
from . import reversing as rev
from .germs import GermContext


class GarsideFamily:
    """A finite candidate Garside family over a context."""

    def __init__(self, ctx: CategoryContext, elements: Sequence[Word]):
        self.ctx = ctx
        listed = [w for w in elements if not w.is_empty]  # identities are implicit
        # germ fast path: family is exactly the germ's nontrivial elements,
        # in generator order, and those are distinct by construction
        self._germ: GermContext | None = None
        if (
            isinstance(ctx, GermContext)
            and len(listed) == len(ctx.elem_of_gen)
            and all(w.letters == (i,) for i, w in enumerate(listed))
        ):
            self._germ = ctx
            self.elements: list[Word] = listed
        else:
            self.elements = []
            for w in listed:
                if not any(_true(ctx.equal(w, prev)) for prev in self.elements):
                    self.elements.append(w)
        # Memos keyed by letters, for words of at most twice the longest
        # element: the junction products `left_multiply_normal` repeats.
        # Longer words are rarely seen twice and would grow them with use.
        self._index_memo: dict[tuple[int, ...], int | None] = {}
        self._head_memo: dict[tuple[int, ...], int | None] = {}
        self._memo_len = 2 * max((len(w) for w in self.elements), default=0)
        self._div_matrix: list[list[bool]] | None = None

    def __len__(self) -> int:
        return len(self.elements)

    def index(self, w: Word) -> int | None:
        """Index of the family element equal to w, or None."""
        if w.is_empty:
            return None
        key = w.letters
        memo = self._index_memo if len(key) <= self._memo_len else {}
        if key in memo:
            return memo[key]
        found: int | None = None
        if self._germ is not None:
            factors = self._germ.normal_factors(w)
            if len(factors) == 1:
                found = self._germ.gen_of_elem[factors[0]]
        else:
            for i, e in enumerate(self.elements):
                if _true(self.ctx.equal(e, w)):
                    found = i
                    break
        memo[key] = found
        return found

    def _divides(self, i: int, j: int) -> bool:
        """Whether element i left-divides element j inside the category."""
        if self._div_matrix is None:
            n = len(self.elements)
            self._div_matrix = [
                [
                    _true(self.ctx.left_divides(self.elements[a], self.elements[b]))
                    for b in range(n)
                ]
                for a in range(n)
            ]
        return self._div_matrix[i][j]

    # -- head -----------------------------------------------------------------

    def head(self, w: Word) -> int | None:
        """
        Index of the greatest family divisor of w; None when no member
        divides w.  Raises HeadUndefined on incomparable maximal divisors,
        which doubles as a runtime Garside-family check.
        """
        key = w.letters
        memo = self._head_memo if len(key) <= self._memo_len else {}
        if key in memo:
            return memo[key]
        if self._germ is not None:
            factors = self._germ.normal_factors(w)
            out = self._germ.gen_of_elem[factors[0]] if factors else None
            memo[key] = out
            return out
        divisors = [
            i
            for i, e in enumerate(self.elements)
            if _true(self.ctx.left_divides(e, w))
        ]
        if not divisors:
            memo[key] = None
            return None
        greatest = None
        for i in divisors:
            if all(self._divides(d, i) for d in divisors):
                greatest = i
                break
        if greatest is None:
            maximals = [
                i
                for i in divisors
                if not any(self._divides(i, j) and not self._divides(j, i) for j in divisors)
            ]
            raise HeadUndefined(
                "incomparable maximal divisors: "
                + ", ".join(self.ctx.show(self.elements[i]) for i in maximals[:4])
            )
        memo[key] = greatest
        return greatest

    # -- greediness and normalization ------------------------------------------

    def is_greedy(self, s1: Word, s2: Word):
        """Every family member dividing s1*s2 already divides s1."""
        z = concat(s1, s2)
        for e in self.elements:
            d = self.ctx.left_divides(e, z)
            if d is INCONCLUSIVE:
                raise UnsupportedError("divisibility search inconclusive")
            if d and not _true(self.ctx.left_divides(e, s1)):
                return False
        return True

    def normalize(self, w: Word) -> "NormalDecomposition":
        """Iterated head extraction."""
        if self._germ is not None:
            factors = tuple(
                self._germ.gen_of_elem[e] for e in self._germ.normal_factors(w)
            )
            return NormalDecomposition(self, factors, w.source, w.target)
        factors: list[int] = []
        rest = w
        cap = (
            self.ctx.height(w)
            if self.ctx.noetherian
            else len(w) + self.ctx.limits.rewrite_slack
        )
        while not rest.is_empty:
            if len(factors) > cap:
                raise GarsideError("normalization exceeded its height bound")
            h = self.head(rest)
            if h is None:
                raise HeadUndefined(
                    "no family divisor of a nontrivial element: "
                    + self.ctx.show(rest)
                )
            q = self.ctx.left_quotient(self.elements[h], rest)
            if q is None or q is INCONCLUSIVE:
                raise GarsideError("head does not divide its own word")
            factors.append(h)
            rest = q
        return NormalDecomposition(self, tuple(factors), w.source, w.target)

    def left_multiply_normal(
        self, s: Word, nd: "NormalDecomposition"
    ) -> "NormalDecomposition":
        """
        Normal form of s*nd by a single left-to-right sweep: the carried
        element is pair-normalized against each factor in turn.  The carry
        stays in the family because Garside families are closed under right
        divisor; a carry that leaves the family raises.
        """
        if s.is_empty:
            return nd
        carry = self.index(s)
        if carry is None:
            raise GarsideError("left factor must be a family element")
        out: list[int] = []
        factors = list(nd.factors)
        for pos, f in enumerate(factors):
            z = concat(self.elements[carry], self.elements[f])
            h = self.head(z)
            if h is None:
                raise HeadUndefined("no family divisor of a junction product")
            q = self.ctx.left_quotient(self.elements[h], z)
            if q is None or q is INCONCLUSIVE:
                raise GarsideError("head does not divide its own word")
            out.append(h)
            if q.is_empty:
                out.extend(factors[pos + 1 :])
                return NormalDecomposition(self, tuple(out), s.source, nd.target)
            carry = self.index(q)
            if carry is None:
                raise GarsideError(
                    "carry left the family; family is not closed under right divisor"
                )
        out.append(carry)
        return NormalDecomposition(self, tuple(out), s.source, nd.target)

    def check_normal(self, nd: "NormalDecomposition"):
        """Greediness flags, one per junction."""
        words = [self.elements[i] for i in nd.factors]
        return tuple(
            self.is_greedy(words[i], words[i + 1]) for i in range(len(words) - 1)
        )


@dataclasses.dataclass(frozen=True)
class NormalDecomposition:
    """
    Greedy decomposition; factors index into the family.  Junction flags are
    all "greedy" by construction (the constructors only emit greedy output);
    `GarsideFamily.check_normal` recomputes them for scrutiny.
    """

    family: GarsideFamily
    factors: tuple[int, ...]
    source: int
    target: int

    @property
    def flags(self) -> tuple[str, ...]:
        return ("greedy",) * max(0, len(self.factors) - 1)

    def word(self) -> Word:
        w = Word((), self.source, self.source)
        for i in self.factors:
            w = concat(w, self.family.elements[i])
        return Word(w.letters, self.source, self.target)

    def display(self) -> str:
        if not self.factors:
            return "1"
        return ".".join(
            self.family.ctx.show(self.family.elements[i]) for i in self.factors
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NormalDecomposition)
            and self.factors == other.factors
            and self.source == other.source
            and self.target == other.target
        )

    def __hash__(self):
        return hash((self.factors, self.source, self.target))


@dataclasses.dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    witness: tuple = ()


def is_garside_family(ctx: CategoryContext, family: GarsideFamily) -> Verdict:
    """
    Decidable specialization for Noetherian contexts with right-lcms: the
    family must contain the atoms (hence generate), be closed under
    right-lcm, and be closed under right divisor.
    """
    if not ctx.noetherian:
        raise UnsupportedError(
            "family recognition needs a Noetherian context with right-lcms"
        )
    atoms = ctx.atoms()
    for a in atoms:
        if family.index(a) is None:
            return Verdict(False, "does not contain every atom", (ctx.show(a),))

    for i, s in enumerate(family.elements):
        for t in family.elements[i + 1 :]:
            if s.source != t.source:
                continue
            z = ctx.right_lcm(s, t)
            if isinstance(z, rev.NoCommonMultiple):
                continue
            if z is INCONCLUSIVE:
                raise UnsupportedError("right-lcm search inconclusive")
            if family.index(z) is None and not z.is_empty:
                return Verdict(
                    False,
                    "not closed under right-lcm",
                    (ctx.show(s), ctx.show(t), ctx.show(z)),
                )

    for s in family.elements:
        for a in atoms:
            d = ctx.left_divides(a, s)
            if d is INCONCLUSIVE:
                raise UnsupportedError("divisibility search inconclusive")
            if not d:
                continue
            q = ctx.left_quotient(a, s)
            if q is None or q is INCONCLUSIVE:
                continue
            if not q.is_empty and family.index(q) is None:
                return Verdict(
                    False,
                    "not closed under right divisor",
                    (ctx.show(s), ctx.show(q)),
                )
    return Verdict(True)


def word_problem(family: GarsideFamily, u: Word, v: Word) -> bool:
    """Factorwise comparison of the two normal forms."""
    if u.source != v.source or u.target != v.target:
        return False
    return family.normalize(u).factors == family.normalize(v).factors


# -- signed words and fractions ---------------------------------------------------


def left_fraction(ctx: CategoryContext, w: SignedWord, fuel: int | None = None):
    """
    Express w as d^-1 * n with d, n positive, by right-reversing the mirror
    of w in the mirror context.  Returns (d, n) or the reversing failure.
    """
    mctx = ctx.mirror()
    m = mirror_signed(w)
    r = mctx.reverse(m, fuel)
    if isinstance(r, (rev.Stuck, rev.Diverged)):
        return r
    d = mirror_word(r.neg)
    n = mirror_word(r.pos)
    return d, n


@dataclasses.dataclass(frozen=True)
class SymmetricNormal:
    """w == (t_1...t_l)^-1 * (s_1...s_k) with both halves normal."""

    negatives: NormalDecomposition
    positives: NormalDecomposition

    def display(self) -> str:
        if not self.negatives.factors:
            return self.positives.display()
        return f"({self.negatives.display()})^-1 . {self.positives.display()}"

    def signed_word(self) -> SignedWord:
        d = self.negatives.word()
        n = self.positives.word()
        letters = tuple((g, -1) for g in reversed(d.letters)) + tuple(
            (g, +1) for g in n.letters
        )
        return SignedWord(letters, d.target, n.target)


def symmetric_normalize(
    family: GarsideFamily, w: SignedWord, fuel: int | None = None
) -> SymmetricNormal:
    """
    Left fraction of w with the common head stripped: the innermost pair of
    the result is left-disjoint (no common nontrivial divisor).
    """
    ctx = family.ctx
    fr = left_fraction(ctx, w, fuel)
    if isinstance(fr, rev.Stuck):
        raise UnsupportedError("no common multiple available for the fraction")
    if isinstance(fr, rev.Diverged):
        raise UnsupportedError("fraction search ran out of fuel")
    d, n = fr
    # strip the common left gcd atom by atom
    atoms = ctx.atoms()
    stripped = True
    while stripped:
        stripped = False
        for a in atoms:
            if a.source != d.source:
                continue
            da = ctx.left_divides(a, d)
            na = ctx.left_divides(a, n)
            if da is INCONCLUSIVE or na is INCONCLUSIVE:
                raise UnsupportedError("divisibility search inconclusive")
            if da and na:
                d2 = ctx.left_quotient(a, d)
                n2 = ctx.left_quotient(a, n)
                if d2 is None or n2 is None:
                    raise GarsideError("divisor failed to divide")
                d, n = d2, n2
                stripped = True
                break
    return SymmetricNormal(family.normalize(d), family.normalize(n))


__all__ = [
    "GarsideFamily",
    "NormalDecomposition",
    "SymmetricNormal",
    "Verdict",
    "is_garside_family",
    "word_problem",
    "left_fraction",
    "symmetric_normalize",
]
