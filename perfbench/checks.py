"""
Properties every answer must have, judged with the oracles alone.

Inputs and answers arrive as generator names: a word is a list of
(name, ±1) letters, a normal form a list of factors, each factor a list of
names.  Each check returns None when the answer holds and a short reason
when it does not.  No saved output is compared against: normal forms must
multiply back to their input and be left-weighted at every junction,
divisors must divide, lcms and gcds must be least and greatest, and
conjugators must conjugate.
"""

from __future__ import annotations

import oracles as O


def pos(names) -> list:
    return [(n, 1) for n in names]


def inverse(signed) -> list:
    return [(n, -s) for n, s in reversed(signed)]


class Judge:
    """Checks over one Garside model, with `values` deciding group equality."""

    def __init__(self, model: O.GarsideModel, values: O.Values):
        self.m = model
        self.v = values
        self.opp = model.opposite()

    # -- helpers ------------------------------------------------------------------

    def factor_elem(self, names):
        """Element of a factor word; None unless it is a nontrivial simple."""
        m = self.m
        e = self.v.element([(self.v.letter(n), 1) for n in names])
        if e == m.ident or not m.is_simple(e):
            return None
        if sum(m.length(self.v.letter(n)) for n in names) != m.length(e):
            return None
        return e

    def nf_of(self, names) -> list[int]:
        return self.m.normal_form([self.v.letter(n) for n in names])

    def _opp_nf(self, names) -> list[int]:
        return self.opp.normal_form([self.v.letter(n) for n in reversed(names)])

    def _right_atoms(self, nf: list[int]) -> int:
        return self.opp.head_atoms(self.opp.normal_form([self.m.elems[i] for i in reversed(nf)]))

    def _left_atoms(self, opp_nf: list[int]) -> int:
        return self.m.head_atoms(self.m.normal_form([self.opp.elems[i] for i in reversed(opp_nf)]))

    def _junctions(self, elems) -> str | None:
        for k in range(len(elems) - 1):
            if not self.m.normal_pair(elems[k], elems[k + 1]):
                return f"junction {k} is not left-weighted"
        return None

    # -- normal forms -----------------------------------------------------------------

    def nf(self, word, factors) -> str | None:
        elems = [self.factor_elem(f) for f in factors]
        if any(e is None for e in elems):
            return "a factor is not a nontrivial simple"
        if self.v.of_elems([(e, 1) for e in elems]) != self.v.of(word):
            return "factors do not multiply back to the input"
        return self._junctions(elems)

    def dnf(self, word, m: int, factors, positive: bool) -> str | None:
        elems = [self.factor_elem(f) for f in factors]
        if any(e is None or e == self.m.delta for e in elems):
            return "a factor is not a proper simple"
        if positive and m < 0:
            return "negative inf for a positive input"
        seq = [(self.m.delta, 1 if m > 0 else -1)] * abs(m) + [(e, 1) for e in elems]
        if self.v.of_elems(seq) != self.v.of(word):
            return "Δ-normal form does not multiply back to the input"
        return self._junctions(elems)

    # -- word problem and divisibility ---------------------------------------------------

    def eq(self, u, v, answer) -> str | None:
        expected = self.v.of(u) == self.v.of(v)
        if answer is not expected:
            return f"equal answered {answer!r}, oracle says {expected}"
        return None

    def divides(self, u, v, answer) -> str | None:
        expected = self.m.strip(self.nf_of(v), self.nf_of(u)) is not None
        if answer is not expected:
            return f"left_divides answered {answer!r}, oracle says {expected}"
        return None

    def quotient(self, u, v, w) -> str | None:
        if w is None:
            if self.m.strip(self.nf_of(v), self.nf_of(u)) is not None:
                return "no quotient returned although u divides v"
            return None
        if self.v.of(pos(u) + pos(w)) != self.v.of(pos(v)):
            return "u·quotient differs from v"
        return None

    def gcd(self, u, v, g) -> str | None:
        ng = self.nf_of(g)
        qu = self.m.strip(self.nf_of(u), ng)
        qv = self.m.strip(self.nf_of(v), ng)
        if qu is None or qv is None:
            return "gcd does not divide both inputs"
        if self.m.head_atoms(qu) & self.m.head_atoms(qv):
            return "gcd is not greatest: the quotients share an atom"
        return None

    def lcm_right(self, u, v, z) -> str | None:
        nz = self.nf_of(z)
        pu = self.m.strip(nz, self.nf_of(u))
        pv = self.m.strip(nz, self.nf_of(v))
        if pu is None or pv is None:
            return "right lcm is not a common right multiple"
        if self._right_atoms(pu) & self._right_atoms(pv):
            return "right lcm is not least: the cofactors share a right atom"
        return None

    def lcm_left(self, u, v, z) -> str | None:
        oz = self._opp_nf(z)
        pu = self.opp.strip(oz, self._opp_nf(u))
        pv = self.opp.strip(oz, self._opp_nf(v))
        if pu is None or pv is None:
            return "left lcm is not a common left multiple"
        if self._left_atoms(pu) & self._left_atoms(pv):
            return "left lcm is not least: the cofactors share a left atom"
        return None

    # -- conjugacy -------------------------------------------------------------------------

    def conjugates(self, g, c, h) -> bool:
        return self.v.of(inverse(c) + g + c) == self.v.of(h)

    def conj(self, g, h, expect_yes: bool, witness) -> str | None:
        if not expect_yes:
            return "answered yes on a pair with different conjugacy invariants" if witness is not None else None
        if witness is None:
            return "answered no on a pair built as conjugates"
        if not self.conjugates(g, witness, h):
            return "witness does not conjugate g to h"
        return None

    def sss(self, g, nodes) -> str | None:
        """nodes: (m, factors, conjugator) per node of the sliding-circuit set."""
        if not nodes:
            return "empty sliding-circuit set"
        windows = {(m, m + len(f)) for m, f, _ in nodes}
        if len(windows) != 1:
            return f"nodes do not share one (inf, sup): {sorted(windows)}"
        for m, factors, c in nodes:
            bad = self.dnf(inverse(c) + g + c, m, factors, positive=False)
            if bad:
                return "node: " + bad
        return None


class KleinJudge:
    """Checks for <a, b | a = b a b> through its embedding in Z x| Z."""

    def __init__(self):
        self.k = O.KleinModel()

    def eq(self, u, v, answer):
        expected = self.k.of(u) == self.k.of(v)
        return None if answer is expected else f"equal answered {answer!r}, oracle says {expected}"

    def divides(self, u, v, answer):
        expected = self.k.divides(self.k.of(pos(u)), self.k.of(pos(v)))
        return None if answer is expected else f"left_divides answered {answer!r}, oracle says {expected}"

    def quotient(self, u, v, w):
        if w is None:
            return "no quotient returned although u divides v" if self.k.divides(
                self.k.of(pos(u)), self.k.of(pos(v))
            ) else None
        return None if self.k.of(pos(u) + pos(w)) == self.k.of(pos(v)) else "u·quotient differs from v"

    def lcm_right(self, u, v, z):
        a, b = self.k.of(pos(u)), self.k.of(pos(v))
        top = max(a, b, key=self.k.key)
        return None if self.k.of(pos(z)) == top else "right lcm is not the larger of the two"
