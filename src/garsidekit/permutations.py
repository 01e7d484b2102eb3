"""
Symmetric-group helpers.

Permutations are tuples in one-line notation over 0..n-1, and words act left
to right: compose(f, g) applies f first.  Two length functions matter here:
inversion count (length over adjacent transpositions) and n minus the number
of cycles (length over all transpositions).
"""

from __future__ import annotations

import itertools


def identity(n: int) -> tuple[int, ...]:
    return tuple(range(n))


def compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Apply f first, then g."""
    return tuple(g[f[i]] for i in range(len(f)))


def inverse(f: tuple[int, ...]) -> tuple[int, ...]:
    out = [0] * len(f)
    for i, v in enumerate(f):
        out[v] = i
    return tuple(out)


def all_permutations(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(n))]


def inversions(f: tuple[int, ...]) -> int:
    n = len(f)
    return sum(1 for i in range(n) for j in range(i + 1, n) if f[i] > f[j])


def cycle_count(f: tuple[int, ...]) -> int:
    seen = [False] * len(f)
    cycles = 0
    for i in range(len(f)):
        if seen[i]:
            continue
        cycles += 1
        j = i
        while not seen[j]:
            seen[j] = True
            j = f[j]
    return cycles


def reflection_length(f: tuple[int, ...]) -> int:
    """Minimal number of transpositions multiplying to f."""
    return len(f) - cycle_count(f)


def long_cycle(n: int) -> tuple[int, ...]:
    """The n-cycle 0 -> 1 -> ... -> n-1 -> 0."""
    return tuple((i + 1) % n for i in range(n))


def shortlex_word(f: tuple[int, ...]) -> tuple[int, ...]:
    """
    Lexicographically smallest reduced word for f over adjacent
    transpositions, as a tuple of positions.  With words acting left to
    right, s_i can open a reduced word of w exactly when w[i] > w[i+1],
    and peeling it off swaps those two entries; greedily taking the
    smallest such i gives the lex-minimal word.
    """
    w = list(f)
    word: list[int] = []
    n = len(f)
    while True:
        for i in range(n - 1):
            if w[i] > w[i + 1]:
                word.append(i)
                w[i], w[i + 1] = w[i + 1], w[i]
                break
        else:
            return tuple(word)


def cycles_of(f: tuple[int, ...]) -> list[tuple[int, ...]]:
    """Nontrivial cycles, each rotated to start at its minimum, sorted."""
    seen = [False] * len(f)
    out: list[tuple[int, ...]] = []
    for i in range(len(f)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = f[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = f[j]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return sorted(out)


__all__ = [
    "identity",
    "compose",
    "inverse",
    "all_permutations",
    "inversions",
    "cycle_count",
    "reflection_length",
    "long_cycle",
    "shortlex_word",
    "cycles_of",
]
