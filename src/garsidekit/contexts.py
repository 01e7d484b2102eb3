"""
Realized contexts over a presentation.

A PresentedContext decides equality and divisibility through the strongest
backend available:

  * reversing, when a complement exists and is trusted complete
    (completeness "certified" by homogeneity + cube condition at depth 1,
    or "assumed" for curated instances);
  * bounded rewriting closure otherwise (INCONCLUSIVE past budget).

Positive answers from reversing (equal words, found quotient) are sound
even without completeness; negative answers are only trusted when the
presentation is complete, and degrade to the rewriting fallback otherwise.
"""

from __future__ import annotations

from .config import DEFAULT_LIMITS, Limits
from .core import CategoryContext, Presentation, Word
from .errors import INCONCLUSIVE, GarsideError
from .rewriting import RewriteSystem
from . import reversing as rev

COMPLETENESS_CERTIFIED = "certified"
COMPLETENESS_ASSUMED = "assumed"
COMPLETENESS_NONE = "none"


class PresentedContext(CategoryContext):
    def __init__(
        self,
        presentation: Presentation,
        limits: Limits = DEFAULT_LIMITS,
        noetherian: bool | None = None,
        assume_complete: bool = False,
    ):
        self.presentation = presentation
        self.limits = limits
        self.rewriting = RewriteSystem(presentation, limits)
        self.complement: rev.Complement | None = None
        self.cube_result = None
        self.completeness = COMPLETENESS_NONE

        extracted = rev.extract_complement(presentation)
        if isinstance(extracted, rev.Complement):
            self.complement = extracted
            if assume_complete:
                self.completeness = COMPLETENESS_ASSUMED
            elif presentation.homogeneous:
                self.cube_result = rev.check_cube_condition(
                    extracted, limits.cube_depth, limits.fuel_factor
                )
                if isinstance(self.cube_result, rev.Complete):
                    self.completeness = COMPLETENESS_CERTIFIED

        # Homogeneous presentations are graded by word length, hence
        # Noetherian.  Anything else must say so explicitly.
        if noetherian is None:
            noetherian = presentation.homogeneous
        self.noetherian = noetherian
        self._mirror: PresentedContext | None = None

    # -- plumbing ------------------------------------------------------------

    @property
    def complete(self) -> bool:
        return self.completeness in (COMPLETENESS_CERTIFIED, COMPLETENESS_ASSUMED)

    def mirror(self) -> "PresentedContext":
        """Context of the mirror presentation; its own mirror is this one."""
        if self._mirror is None:
            m = PresentedContext(
                self.presentation.mirror(),
                limits=self.limits,
                noetherian=self.noetherian,
                assume_complete=self.completeness == COMPLETENESS_ASSUMED,
            )
            m._mirror = self
            self._mirror = m
        return self._mirror

    def _fuel(self, n: int) -> int:
        return self.limits.fuel(n)

    # -- oracles ---------------------------------------------------------------

    def equal(self, u: Word, v: Word):
        if u.source != v.source or u.target != v.target:
            return False
        if u.letters == v.letters:
            return True
        if self.complement is not None:
            r = rev.reverses_to_empty(
                self.complement, u, v, self._fuel(len(u) + len(v))
            )
            if r is True:
                return True
            if r is False and self.complete:
                return False
            if isinstance(r, rev.Stuck) and self.complete:
                return False
        return self.rewriting.equal(u, v)

    def left_divides(self, u: Word, v: Word):
        if u.source != v.source:
            return False
        if u.is_empty:
            return True
        if self.complement is not None:
            r = rev.reverse_word_pair(
                self.complement, u, v, self._fuel(len(u) + len(v))
            )
            if isinstance(r, rev.Reversed):
                if r.neg.is_empty:
                    return True
                if self.complete:
                    return False
            if isinstance(r, rev.Stuck) and self.complete:
                return False
        return self.rewriting.left_divides(u, v)

    def left_quotient(self, u: Word, v: Word):
        if u.is_empty:
            return v
        if self.complement is not None:
            r = rev.reverse_word_pair(
                self.complement, u, v, self._fuel(len(u) + len(v))
            )
            if isinstance(r, rev.Reversed):
                if r.neg.is_empty:
                    return r.pos
                if self.complete:
                    return None
            if isinstance(r, rev.Stuck) and self.complete:
                return None
        q = self.rewriting.left_quotient(u, v)
        if q is INCONCLUSIVE:
            raise GarsideError("left_quotient inconclusive within budget")
        return q

    # -- reversing-level operations -------------------------------------------

    def reverse(self, w, fuel: int | None = None):
        if self.complement is None:
            raise GarsideError("context has no complement")
        return rev.reverse(self.complement, w, fuel or self._fuel(len(w)))

    def right_lcm(self, u: Word, v: Word):
        """
        u * (u\\v), least common right-multiple when complete.  A stuck
        reversing proves there is no common multiple only when the
        complement is complete; otherwise the answer is INCONCLUSIVE.
        """
        if self.complement is None:
            raise GarsideError("context has no complement")
        r = rev.reverse_word_pair(self.complement, u, v, self._fuel(len(u) + len(v)))
        if isinstance(r, rev.Stuck):
            return rev.NoCommonMultiple((u, v)) if self.complete else INCONCLUSIVE
        if isinstance(r, rev.Diverged):
            return INCONCLUSIVE
        return Word(u.letters + r.pos.letters, u.source, r.pos.target)

    def word_equal_via_reversing(self, u: Word, v: Word):
        if self.complement is None:
            raise GarsideError("context has no complement")
        r = rev.reverses_to_empty(self.complement, u, v, self._fuel(len(u) + len(v)))
        if r is True:
            return True
        if isinstance(r, rev.Diverged):
            return INCONCLUSIVE
        if not self.complete:
            return INCONCLUSIVE
        return False
