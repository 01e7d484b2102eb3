"""
core: objects, generators, words and signed words of the free category,
presentations, and the context interface shared by every other module.

A Word is a composable path of generator ids together with its endpoints;
the empty path carries source = target.  A SignedWord additionally allows
formally inverted letters (a negative letter is traversed backwards).  Words
are dumb data: all semantic questions (equality modulo the relations,
divisibility, atoms, height) go through a context object, which dispatches
to one of three backends:

  * a germ backend (exact normal forms, see germs.py),
  * a reversing backend (complete complemented presentation, see reversing.py),
  * a bounded rewriting closure (fallback; returns INCONCLUSIVE past budget).

The engine-wide restriction that identities are the only invertible elements
is assumed throughout; it makes normal forms strictly unique and holds for
every shipped catalog instance.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Sequence

from .config import DEFAULT_LIMITS, Limits
from .errors import (
    INCONCLUSIVE,
    CompositionError,
    GarsideError,
    ParseError,
    UnsupportedError,
)

NAME_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


@dataclasses.dataclass(frozen=True)
class ObjectId:
    id: int
    name: str = "*"


@dataclasses.dataclass(frozen=True)
class Generator:
    id: int
    name: str
    source: int
    target: int

    def __post_init__(self):
        if not self.name or not set(self.name) <= NAME_CHARS:
            raise GarsideError(f"bad generator name {self.name!r}")


@dataclasses.dataclass(frozen=True, slots=True)
class Word:
    """A path in the free category: generator ids plus endpoints."""

    # slots: contexts keep many words in lazy tables and memos

    letters: tuple[int, ...]
    source: int
    target: int

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_empty(self) -> bool:
        return not self.letters


@dataclasses.dataclass(frozen=True, slots=True)
class SignedWord:
    """A path in the free groupoid: (generator id, sign) pairs plus endpoints."""

    letters: tuple[tuple[int, int], ...]
    source: int
    target: int

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "SignedWord":
        return SignedWord(
            tuple((g, -e) for g, e in reversed(self.letters)),
            self.target,
            self.source,
        )

    @property
    def is_positive(self) -> bool:
        return all(e > 0 for _, e in self.letters)

    def positive_part(self) -> Word:
        if not self.is_positive:
            raise GarsideError("signed word has negative letters")
        return Word(tuple(g for g, _ in self.letters), self.source, self.target)


def empty_word(obj: int = 0) -> Word:
    return Word((), obj, obj)


def concat(u: Word, v: Word) -> Word:
    """Free-category composition; endpoints must match."""
    if u.target != v.source:
        raise CompositionError(
            f"cannot compose: target object {u.target} != source object {v.source}"
        )
    return Word(u.letters + v.letters, u.source, v.target)


def concat_signed(u: SignedWord, v: SignedWord) -> SignedWord:
    if u.target != v.source:
        raise CompositionError(
            f"cannot compose: target object {u.target} != source object {v.source}"
        )
    return SignedWord(u.letters + v.letters, u.source, v.target)


def signed_from_word(u: Word) -> SignedWord:
    return SignedWord(tuple((g, +1) for g in u.letters), u.source, u.target)


def free_reduce(w: SignedWord) -> SignedWord:
    """Cancel adjacent g g^-1 / g^-1 g pairs (free groupoid reduction)."""
    out: list[tuple[int, int]] = []
    for letter in w.letters:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return SignedWord(tuple(out), w.source, w.target)


class Presentation:
    """
    Generators with endpoints plus positive relations.  Also owns the token
    syntax: parsing words from space-separated tokens (with single-letter
    juxtaposition allowed only when every generator name is one character)
    and rendering them back.
    """

    def __init__(
        self,
        objects: Sequence[ObjectId],
        generators: Sequence[Generator],
        relations: Sequence[tuple[Word, Word]],
    ):
        self._set_generators(objects, generators)
        self.relations = self._checked_relations(relations)

    def _set_generators(
        self, objects: Sequence[ObjectId], generators: Sequence[Generator]
    ):
        self.objects = tuple(objects)
        self.generators = tuple(generators)
        names = [g.name for g in self.generators]
        if len(set(names)) != len(names):
            raise GarsideError("duplicate generator names")
        self.by_name = {g.name: g for g in self.generators}
        self.single_char = all(len(n) == 1 for n in names)

    def _checked_relations(
        self, relations: Iterable[tuple[Word, Word]]
    ) -> tuple[tuple[Word, Word], ...]:
        """The relations as a tuple, once both sides of each share their
        endpoints and every side composes over the generators."""
        relations = tuple(relations)
        for lhs, rhs in relations:
            if lhs.source != rhs.source or lhs.target != rhs.target:
                raise GarsideError("relation sides have different endpoints")
        for lhs, rhs in relations:
            for w in (lhs, rhs):
                self.validate_word(w)
        return relations

    def validate_word(self, w: Word):
        at = w.source
        for g in w.letters:
            gen = self.generators[g]
            if gen.source != at:
                raise CompositionError(f"letter {gen.name} does not compose at object {at}")
            at = gen.target
        if at != w.target:
            raise CompositionError("word target does not match its letters")

    @property
    def is_monoid(self) -> bool:
        return len(self.objects) == 1

    @property
    def homogeneous(self) -> bool:
        """All relations length-preserving (so word length is a grading)."""
        return all(len(l) == len(r) for l, r in self.relations)

    def word(self, letters: Iterable[int]) -> Word:
        ids = tuple(letters)
        if not ids:
            return empty_word(self.objects[0].id)
        src = self.generators[ids[0]].source
        tgt = self.generators[ids[-1]].target
        w = Word(ids, src, tgt)
        self.validate_word(w)
        return w

    # -- token syntax ------------------------------------------------------

    def _resolve_token(self, tok: str) -> list[int]:
        if tok in self.by_name:
            return [self.by_name[tok].id]
        if self.single_char and len(tok) > 1 and all(c in self.by_name for c in tok):
            return [self.by_name[c].id for c in tok]
        raise ParseError(f"unknown generator {tok!r}")

    def parse_word(self, text: str) -> Word:
        toks = text.split()
        if toks == ["1"] or not toks:
            return empty_word(self.objects[0].id)
        ids: list[int] = []
        for tok in toks:
            ids.extend(self._resolve_token(tok))
        return self.word(ids)

    def parse_signed(self, text: str) -> SignedWord:
        toks = text.split()
        if toks == ["1"] or not toks:
            return SignedWord((), self.objects[0].id, self.objects[0].id)
        letters: list[tuple[int, int]] = []
        for tok in toks:
            sign = +1
            if tok.endswith("^-1"):
                sign, tok = -1, tok[:-3]
            ids = self._resolve_token(tok)
            if sign < 0:
                letters.extend((g, -1) for g in reversed(ids))
            else:
                letters.extend((g, +1) for g in ids)
        # endpoints: a negative letter is traversed backwards
        def src_of(letter):
            g, e = letter
            gen = self.generators[g]
            return gen.source if e > 0 else gen.target

        def tgt_of(letter):
            g, e = letter
            gen = self.generators[g]
            return gen.target if e > 0 else gen.source

        at = src_of(letters[0])
        w = SignedWord(tuple(letters), at, tgt_of(letters[-1]))
        for letter in letters:
            if src_of(letter) != at:
                raise CompositionError("signed word does not compose")
            at = tgt_of(letter)
        return w

    def display_word(self, w: Word) -> str:
        if not w.letters:
            return "1"
        names = [self.generators[g].name for g in w.letters]
        return "".join(names) if self.single_char else " ".join(names)

    def tokens(self, w: Word) -> str:
        """Space-separated token rendering (used by lcm/gcd/reverse output)."""
        if not w.letters:
            return "1"
        return " ".join(self.generators[g].name for g in w.letters)

    def display_signed(self, w: SignedWord) -> str:
        if not w.letters:
            return "1"
        parts = []
        for g, e in w.letters:
            name = self.generators[g].name
            parts.append(name if e > 0 else name + "^-1")
        return " ".join(parts)

    def mirror(self) -> "Presentation":
        """
        Reverse every word (and swap endpoints).  Right-reversing over the
        mirror is left-reversing over the original.
        """
        gens = tuple(
            Generator(g.id, g.name, g.target, g.source) for g in self.generators
        )

        def rev(w: Word) -> Word:
            return Word(tuple(reversed(w.letters)), w.target, w.source)

        rels = tuple((rev(l), rev(r)) for l, r in self.relations)
        return Presentation(self.objects, gens, rels)


def mirror_word(w: Word) -> Word:
    return Word(tuple(reversed(w.letters)), w.target, w.source)


def mirror_signed(w: SignedWord) -> SignedWord:
    return SignedWord(tuple(reversed(w.letters)), w.target, w.source)


class CategoryContext:
    """
    Interface against which all queries run.  Subclasses provide `equal`,
    `left_divides` and `left_quotient`; the generic helpers here implement
    atoms and height for Noetherian contexts.

    Contexts are immutable after construction (caches excepted) and words
    are only comparable within the context that created them.
    """

    presentation: Presentation
    noetherian: bool
    limits: Limits

    # -- abstract ----------------------------------------------------------

    def equal(self, u: Word, v: Word):
        raise NotImplementedError

    def left_divides(self, u: Word, v: Word):
        """True iff u w == v for some positive w; may return INCONCLUSIVE."""
        raise NotImplementedError

    def left_quotient(self, u: Word, v: Word):
        """A word w with u w == v, or None if u does not left-divide v."""
        raise NotImplementedError

    # -- generic -----------------------------------------------------------

    def parse(self, text: str) -> Word:
        return self.presentation.parse_word(text)

    def show(self, w: Word) -> str:
        return self.presentation.display_word(w)

    def atoms(self) -> tuple[Word, ...]:
        """
        Elements with no proper nontrivial left divisor.  A generator fails
        to be an atom only if some other generator properly divides it, which
        the pairwise check below detects at desk scale.
        """
        if not self.noetherian:
            raise UnsupportedError("atoms are only defined for Noetherian contexts")
        gens = [self.presentation.word([g.id]) for g in self.presentation.generators]
        out: list[Word] = []
        for i, g in enumerate(gens):
            is_atom = True
            for j, h in enumerate(gens):
                if i == j:
                    continue
                d = self.left_divides(h, g)
                if d is INCONCLUSIVE:
                    raise UnsupportedError("divisibility search inconclusive")
                if d and not _true(self.equal(h, g)):
                    is_atom = False
                    break
            if is_atom and not any(_true(self.equal(g, prev)) for prev in out):
                out.append(g)
        return tuple(out)

    def height(self, g: Word) -> int:
        """Longest factorization of g into nontrivial elements."""
        if not self.noetherian:
            raise UnsupportedError("height is only defined for Noetherian contexts")
        if g.is_empty:
            return 0
        grading = self._grading()
        if grading is not None:
            return sum(grading[l] for l in g.letters)
        return self._height_search(g)

    def _grading(self):
        """
        Per-generator weights additive across the relations, with every atom
        of weight 1, when such exist.  For homogeneous presentations over
        atomic generators this is the constant weight 1.
        """
        if self.presentation.homogeneous:
            return {g.id: 1 for g in self.presentation.generators}
        return None

    def _height_search(self, g: Word) -> int:
        # In an atomic context any maximal factorization refines to atoms,
        # and atoms are generators, so stripping generator divisors suffices.
        memo: dict[tuple[int, ...], int] = {}

        def h(w: Word) -> int:
            if w.is_empty:
                return 0
            key = w.letters
            if key in memo:
                return memo[key]
            best = 1
            for d in self._proper_divisor_candidates(w):
                rest = self.left_quotient(d, w)
                if rest is not None and not rest.is_empty:
                    best = max(best, 1 + h(rest))
            memo[key] = best
            return best

        return h(g)

    def _proper_divisor_candidates(self, w: Word) -> list[Word]:
        out = []
        for gen in self.presentation.generators:
            a = self.presentation.word([gen.id])
            d = self.left_divides(a, w)
            if d is INCONCLUSIVE:
                raise UnsupportedError("divisibility search inconclusive")
            if d and not _true(self.equal(a, w)):
                out.append(a)
        return out


def _true(value) -> bool:
    if value is INCONCLUSIVE:
        raise UnsupportedError("oracle inconclusive")
    return bool(value)


__all__ = [
    "ObjectId",
    "Generator",
    "Word",
    "SignedWord",
    "Presentation",
    "CategoryContext",
    "concat",
    "concat_signed",
    "empty_word",
    "signed_from_word",
    "free_reduce",
    "mirror_word",
    "mirror_signed",
]
