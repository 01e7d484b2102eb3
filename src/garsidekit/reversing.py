"""
Subword reversing for complemented presentations.

Right-reversing repeatedly replaces a factor t^-1 s (negative letter
followed by positive letter, same source) with (t\\s)(s\\t)^-1, where the
words t\\s are read from a complement table.  On input u^-1 v the procedure,
when it terminates, yields a word pos * neg^-1 with

    u * pos  ==  v * neg        (as positive words, unconditionally),

and u * pos is then a common right-multiple of u and v; when the
presentation is complete for reversing it is the least one, and equality of
positive words reduces to "u^-1 v reverses to the empty pair".

Completeness itself is certified through the cube condition: for every
triple (u, v, w), the words (u\\v)\\(u\\w) and (v\\u)\\(v\\w) must reverse to
the empty pair against each other.  Checking it on generator triples
(depth 1) suffices for presentations with a length grading; deeper checks
enumerate generated words up to the requested length.

Each elementary replacement is one grid cell; a fuel budget bounds the cell
count and exhaustion is reported as Diverged, never as a wrong answer.

The kernel is a two-stack scan over int letters: generator g reads as g,
its inverse as ~g.  The left stack holds the scanned prefix, which never
contains a -+ pattern, so it has the shape pos* neg*; the right stack holds
the unread suffix, next letter on top.  A positive letter s meeting a
negative top ~t on the left is one cell: ~t is popped and the cell's "push"
tuple, the letters of (s\\t)^-1 followed by t\\s reversed, goes onto the right
stack, so t\\s is read next.  This reduces the leftmost -+ pattern first,
the order in which cells are counted, checked against the fuel and listed
in the grid.  Push tuples live in a dict keyed by t*n + s (n generators)
that the complement owns: a presentation's Complement compiles every
defined entry up front, the germ complement starts empty.  On a miss the
scan reads the two entries through `entry` and stores their push tuple;
an undefined entry stops the scan Stuck.

The ReversingGrid of a result knows its cell count; its cells are built
only when read, by replaying the scan with a cell log.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable

from .core import Presentation, SignedWord, Word, empty_word
from .errors import GarsideError


def _fill(comp, t: int, s: int) -> tuple[int, ...] | None:
    """
    Push tuple of the cell (t, s), read through `comp.entry`: the letters of
    (s\\t)^-1, then t\\s reversed.  None when an entry is undefined.
    """
    ts, st = comp.entry(t, s), comp.entry(s, t)
    if ts is None or st is None:
        return None
    return tuple(~g for g in st.letters) + ts.letters[::-1]


@dataclasses.dataclass(frozen=True)
class Complement:
    """
    Partial map (s, t) -> s\\t on generator pairs with common source.  The
    diagonal (s, s) -> empty is implicit and always defined.  Entries come in
    pairs: (s, t) is defined iff (t, s) is, and s*(s\\t) == t*(t\\s) is the
    relation they encode.  `push` is the kernel's compiled table.
    """

    presentation: Presentation
    table: dict[tuple[int, int], Word]
    n: int = dataclasses.field(init=False, repr=False, compare=False)
    push: dict[int, tuple[int, ...]] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        n = len(self.presentation.generators)
        push = {}
        for t, s in [(t, t) for t in range(n)] + list(self.table):
            p = _fill(self, t, s)
            if p is not None:
                push[t * n + s] = p
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "push", push)

    def entry(self, t: int, s: int) -> Word | None:
        """t\\s, with the implicit diagonal; None when undefined."""
        if t == s:
            gen = self.presentation.generators[t]
            return empty_word(gen.target)
        return self.table.get((t, s))


@dataclasses.dataclass(frozen=True)
class ReversingCell:
    neg: int            # generator id of the negative letter consumed
    pos: int            # generator id of the positive letter consumed
    emitted_pos: Word   # neg \ pos
    emitted_neg: Word   # pos \ neg


class ReversingGrid:
    """
    The cells of a finished reversing, in the order the scan reduced them.
    `cell_count` is known up front; `cells` replays the scan once, on first
    read.
    """

    __slots__ = ("input", "pos", "neg", "cell_count", "_complement", "_cells")

    def __init__(
        self, input: SignedWord, pos: Word, neg: Word, cell_count: int, complement
    ):
        self.input = input
        self.pos = pos
        self.neg = neg
        self.cell_count = cell_count
        self._complement = complement
        self._cells: tuple[ReversingCell, ...] | None = None

    @property
    def cells(self) -> tuple[ReversingCell, ...]:
        if self._cells is None:
            comp = self._complement
            log: list[tuple[int, int]] = []
            _scan(comp, _int_letters(self.input), self.cell_count, log)
            self._cells = tuple(
                ReversingCell(t, s, comp.entry(t, s), comp.entry(s, t)) for t, s in log
            )
        return self._cells


@dataclasses.dataclass(frozen=True)
class Reversed:
    pos: Word
    neg: Word
    grid: ReversingGrid = dataclasses.field(compare=False)


@dataclasses.dataclass(frozen=True)
class Stuck:
    """An undefined complement entry was needed."""

    pair: tuple[int, int]


@dataclasses.dataclass(frozen=True)
class Diverged:
    """Fuel ran out before the word was fully reversed."""

    cells: int


@dataclasses.dataclass(frozen=True)
class NotComplemented:
    """Two relations share a head pair, so no complement can be read off."""

    pair: tuple[int, int]
    reason: str = "duplicate head pair"


@dataclasses.dataclass(frozen=True)
class Complete:
    depth: int
    triples_checked: int


@dataclasses.dataclass(frozen=True)
class CounterExample:
    triple: tuple[Word, Word, Word]
    reason: str


@dataclasses.dataclass(frozen=True)
class NoCommonMultiple:
    pair: tuple[Word, Word]


def extract_complement(p: Presentation) -> Complement | NotComplemented:
    """
    Read a complement off the relations: a relation s*u = t*v contributes
    the entries s\\t = u and t\\s = v.  Fails when some generator pair heads
    two relations (or a relation is degenerate: empty side, or both sides
    starting with the same generator).
    """
    table: dict[tuple[int, int], Word] = {}
    for lhs, rhs in p.relations:
        if lhs.is_empty or rhs.is_empty:
            return NotComplemented((-1, -1), reason="relation with an empty side")
        s, t = lhs.letters[0], rhs.letters[0]
        if s == t:
            return NotComplemented((s, t), reason="relation sides share their head letter")
        for key, rest, base in (((s, t), lhs, s), ((t, s), rhs, t)):
            word = Word(rest.letters[1:], p.generators[base].target, rest.target)
            if key in table:
                return NotComplemented(key)
            table[key] = word
    # parity: the loop above always inserts both orientations together
    return Complement(p, table)


def _int_letters(w: SignedWord) -> list[int]:
    """The right stack of w: int letters, first letter on top."""
    return [g if e > 0 else ~g for g, e in reversed(w.letters)]


def _scan(comp, right: list[int], fuel: int, log: list | None = None):
    """
    The reversing kernel.  Consumes `right`; returns the left stack
    (pos* neg*) and the cell count, or Stuck / Diverged.  With a `log`,
    appends each cell's (t, s) to it.
    """
    push = comp.push
    n = comp.n
    left: list[int] = []
    cells = 0
    while right:
        s = right.pop()
        if s < 0 or not left or left[-1] >= 0:
            left.append(s)
            continue
        t = ~left.pop()
        k = t * n + s
        try:
            p = push[k]
        except KeyError:
            p = _fill(comp, t, s)
            if p is None:
                return Stuck((t, s))
            push[k] = p
        if cells >= fuel:
            return Diverged(cells)
        cells += 1
        if log is not None:
            log.append((t, s))
        right += p
    return left, cells


def reverse(comp: Complement, w: SignedWord, fuel: int) -> Reversed | Stuck | Diverged:
    """
    Right-reverse w until no negative-positive pattern remains.  The result
    reads off as pos * neg^-1.
    """
    out = _scan(comp, _int_letters(w), fuel)
    if type(out) is not tuple:
        return out
    left, cells = out
    split = len(left)
    while split and left[split - 1] < 0:
        split -= 1
    pos_ids = tuple(left[:split])
    neg_ids = tuple(~x for x in reversed(left[split:]))
    mid = comp.presentation.generators[pos_ids[-1]].target if pos_ids else w.source
    pos = Word(pos_ids, w.source, mid)
    neg = Word(neg_ids, w.target, mid)
    return Reversed(pos, neg, ReversingGrid(w, pos, neg, cells, comp))


def reverse_word_pair(comp: Complement, u: Word, v: Word, fuel: int):
    """Reverse u^-1 v; convenience wrapper building the signed input."""
    if u.source != v.source:
        raise GarsideError("words must share their source")
    letters = [(g, -1) for g in reversed(u.letters)] + [(g, +1) for g in v.letters]
    return reverse(comp, SignedWord(tuple(letters), u.target, v.target), fuel)


def word_complement(comp: Complement, u: Word, v: Word, fuel: int):
    """
    (u\\v, v\\u) extended to words, or Stuck/Diverged.  Defined whenever the
    reversing of u^-1 v terminates.
    """
    r = reverse_word_pair(comp, u, v, fuel)
    if isinstance(r, Reversed):
        return r.pos, r.neg
    return r


def reverses_to_empty(comp: Complement, u: Word, v: Word, fuel: int):
    """True/False when reversing of u^-1 v terminates, else the failure."""
    r = reverse_word_pair(comp, u, v, fuel)
    if isinstance(r, Reversed):
        return r.pos.is_empty and r.neg.is_empty
    return r


def _words_up_to(p: Presentation, depth: int, source: int) -> Iterable[Word]:
    """Nonempty positive words of length <= depth starting at `source`."""
    frontier: list[Word] = [empty_word(source)]
    for _ in range(depth):
        new: list[Word] = []
        for w in frontier:
            for g in p.generators:
                if g.source == w.target:
                    new.append(Word(w.letters + (g.id,), w.source, g.target))
        for w in new:
            yield w
        frontier = new


def check_cube_condition(
    comp: Complement, depth: int, fuel_factor: int = 16
) -> Complete | CounterExample:
    """
    Check, for every ordered triple (u, v, w) of candidate words with common
    source, that (u\\v)\\(u\\w) and (v\\u)\\(v\\w) reverse to the empty pair
    against each other (both undefined also passes).  depth 1 checks
    generator triples; depth d checks all generated words of length <= d.
    """
    p = comp.presentation
    checked = 0
    per_source: dict[int, list[Word]] = {}
    for obj in p.objects:
        if depth <= 1:
            cands = [
                Word((g.id,), g.source, g.target)
                for g in p.generators
                if g.source == obj.id
            ]
        else:
            cands = list(_words_up_to(p, depth, obj.id))
        per_source[obj.id] = cands

    def comp_or_none(a: Word, b: Word):
        fuel = fuel_factor * max(1, len(a) + len(b)) ** 2
        r = word_complement(comp, a, b, fuel)
        if isinstance(r, Stuck):
            return None
        if isinstance(r, Diverged):
            return r
        return r  # (a\b, b\a)

    for cands in per_source.values():
        for u, v, w in itertools.product(cands, repeat=3):
            checked += 1
            uv = comp_or_none(u, v)
            if isinstance(uv, Diverged):
                return CounterExample((u, v, w), "reversing diverged")
            uw = comp_or_none(u, w)
            if isinstance(uw, Diverged):
                return CounterExample((u, v, w), "reversing diverged")
            vw = comp_or_none(v, w)
            if isinstance(vw, Diverged):
                return CounterExample((u, v, w), "reversing diverged")

            side_a = side_b = None
            if uv is not None and uw is not None:
                side_a = comp_or_none(uv[0], uw[0])
                if isinstance(side_a, Diverged):
                    return CounterExample((u, v, w), "reversing diverged")
            if uv is not None and vw is not None:
                side_b = comp_or_none(uv[1], vw[0])
                if isinstance(side_b, Diverged):
                    return CounterExample((u, v, w), "reversing diverged")

            a_defined = side_a is not None
            b_defined = side_b is not None
            if a_defined != b_defined:
                return CounterExample((u, v, w), "one side of the cube is undefined")
            if not a_defined:
                continue
            a_word, b_word = side_a[0], side_b[0]
            fuel = fuel_factor * max(1, len(a_word) + len(b_word)) ** 2
            eq = reverses_to_empty(comp, a_word, b_word, fuel)
            if eq is not True:
                return CounterExample((u, v, w), "cube sides do not reverse to empty")
    return Complete(depth, checked)


__all__ = [
    "Complement",
    "ReversingGrid",
    "ReversingCell",
    "Reversed",
    "Stuck",
    "Diverged",
    "NotComplemented",
    "Complete",
    "CounterExample",
    "NoCommonMultiple",
    "extract_complement",
    "reverse",
    "reverse_word_pair",
    "word_complement",
    "reverses_to_empty",
    "check_cube_condition",
]
