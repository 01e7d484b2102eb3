"""
Bounded breadth-first closure of a word under single relation applications.

This is the fallback decision procedure for presented contexts without a
certified-complete complement: sound in both directions only when the
closure is fully enumerated, INCONCLUSIVE once a budget is hit.  For
homogeneous presentations the congruence class of a word is finite (all
members share its length), so exhaustion is the common case and answers
are exact.
"""

from __future__ import annotations

from collections import deque

from .config import Limits
from .core import Presentation, Word
from .errors import INCONCLUSIVE


class RewriteSystem:
    """Symmetric rewriting: each relation applies left-to-right and back."""

    def __init__(self, p: Presentation, limits: Limits):
        self.presentation = p
        self.limits = limits
        self.homogeneous = p.homogeneous
        self.rules: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
        for lhs, rhs in p.relations:
            self.rules.append((lhs.letters, rhs.letters))
            self.rules.append((rhs.letters, lhs.letters))

    def neighbours(self, letters: tuple[int, ...]):
        for old, new in self.rules:
            n = len(old)
            if n == 0:
                continue
            for i in range(len(letters) - n + 1):
                if letters[i : i + n] == old:
                    yield letters[:i] + new + letters[i + n :]

    def closure(self, w: Word, depth: int | None = None):
        """
        (words, complete): all words reachable from w within `depth` relation
        applications.  complete=True means the whole congruence class was
        enumerated (frontier emptied before any budget was hit).  Homogeneous
        classes are finite, so there only the state budget applies.
        """
        if self.homogeneous:
            depth = None
        elif depth is None:
            depth = len(w) + self.limits.rewrite_slack
        seen = {w.letters}
        frontier = deque([(w.letters, 0)])
        complete = True
        while frontier:
            current, d = frontier.popleft()
            if depth is not None and d >= depth:
                complete = False
                continue
            for nxt in self.neighbours(current):
                if nxt in seen:
                    continue
                if len(seen) >= self.limits.rewrite_states:
                    return seen, False
                seen.add(nxt)
                frontier.append((nxt, d + 1))
        return seen, complete

    def equal(self, u: Word, v: Word):
        if u.source != v.source or u.target != v.target:
            return False
        if u.letters == v.letters:
            return True
        depth = max(len(u), len(v)) + self.limits.rewrite_slack
        words, complete = self.closure(u, depth)
        if v.letters in words:
            return True
        return False if complete else INCONCLUSIVE

    def left_divides(self, u: Word, v: Word):
        """u divides v iff some member of v's class starts with a member of u's."""
        q = self.left_quotient(u, v)
        return q if q is INCONCLUSIVE else q is not None

    def left_quotient(self, u: Word, v: Word):
        if u.is_empty:
            return v
        depth = (len(u) + len(v)) + self.limits.rewrite_slack
        u_words, u_complete = self.closure(u, depth)
        v_words, v_complete = self.closure(v, depth)
        prefixes = set(u_words)
        for z in v_words:
            for k in range(1, len(z) + 1):
                if z[:k] in prefixes:
                    rest = z[k:]
                    tgt_src = self.presentation.generators[z[k - 1]].target if k else v.source
                    return Word(rest, tgt_src, v.target)
        if u_complete and v_complete:
            return None
        return INCONCLUSIVE
