"""
Independent oracles for checking garsidekit answers.

Nothing here imports garsidekit.  Every model is built from first
principles: permutation groups, Burau matrices over a prime field, letter
counts, the Klein bottle group as Z x| Z, and an uncapped congruence
closure.  Conventions: words act left to right, so `mul(x, y)` means "x
first, then y", and a germ element is named the way the catalog names it
(shortlex generator words for Coxeter types, cycle notation for the dual
braid monoid, letter subsets for free abelian monoids).

A Garside model exposes the simple elements of a balanced Garside monoid
(atoms, length, Δ) and derives from them everything the checks need: left
normal forms by pair sliding, left division by a simple, and the opposite
model for right division.  `values` maps signed words to group elements
(Burau image applied to random vectors plus the permutation image), so
equal answers compare equal and distinct answers differ with probability
at least 1 - len/p.
"""

from __future__ import annotations

import itertools
import random

P = (1 << 61) - 1  # prime modulus of the Burau field


# -- permutations -------------------------------------------------------------


def pmul(x: tuple, y: tuple) -> tuple:
    """x first, then y (one-line notation)."""
    return tuple(y[i] for i in x)


def pinv(x: tuple) -> tuple:
    out = [0] * len(x)
    for i, v in enumerate(x):
        out[v] = i
    return tuple(out)


def cycles(x: tuple) -> list[tuple[int, ...]]:
    seen = [False] * len(x)
    out = []
    for i in range(len(x)):
        if seen[i]:
            continue
        cyc = [i]
        seen[i] = True
        j = x[i]
        while j != i:
            seen[j] = True
            cyc.append(j)
            j = x[j]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return sorted(out)


def cycle_type(x: tuple) -> tuple[int, ...]:
    return tuple(sorted(len(c) for c in cycles(x)))


def swap(n: int, i: int, j: int) -> tuple:
    out = list(range(n))
    out[i], out[j] = out[j], out[i]
    return tuple(out)


# -- Burau representation -------------------------------------------------------


class Burau:
    """
    Unreduced Burau image of braids on `strands` strands at a random t in
    F_P.  A braid is a list of signed generators (i, ±1), σ_i swapping
    strands i and i+1 (0-based).  `apply` right-multiplies row vectors,
    touching two coordinates per letter.
    """

    def __init__(self, strands: int, rng: random.Random):
        self.n = strands
        self.t = rng.randrange(2, P - 1)
        self.ti = pow(self.t, P - 2, P)
        self.probes = [
            tuple(rng.randrange(P) for _ in range(strands)) for _ in range(2)
        ]

    def apply(self, vec, braid) -> tuple:
        v = list(vec)
        t, ti = self.t, self.ti
        for i, e in braid:
            a, b = v[i], v[i + 1]
            if e > 0:
                v[i], v[i + 1] = ((1 - t) * a + b) % P, (t * a) % P
            else:
                v[i], v[i + 1] = (ti * b) % P, (a + (1 - ti) * b) % P
        return tuple(v)

    def image(self, braid) -> tuple:
        return tuple(self.apply(p, braid) for p in self.probes)

    def matrix(self, braid) -> list[tuple]:
        rows = []
        for k in range(self.n):
            e = [0] * self.n
            e[k] = 1
            rows.append(self.apply(e, braid))
        return rows


def mat_mul(a, b):
    n = len(a)
    return [
        tuple(sum(a[i][k] * b[k][j] for k in range(n)) % P for j in range(n))
        for i in range(n)
    ]


def trace(m) -> int:
    return sum(m[i][i] for i in range(len(m))) % P


def invert_braid(braid) -> list:
    return [(i, -e) for i, e in reversed(braid)]


# -- Garside models ---------------------------------------------------------------


class GarsideModel:
    """
    Simple elements of a balanced Garside monoid inside a group.  Subclasses
    give `mul`, `inv`, `ident`, `length`, `delta`, `atoms`, `is_simple` and
    `simples()`.  Normal-form work runs on integer ids of the simples with
    per-atom tables: `below[x]` and `ext[x]` are bitmasks of the atoms that
    left-divide x and that x can absorb, `mul_at`/`div_at` give x·t and t⁻¹·x.
    """

    _tables_built = False

    def _tables(self) -> None:
        if self._tables_built:
            return
        elems = self.simples()
        idx = {e: i for i, e in enumerate(elems)}
        na = len(self.atoms)
        below = [0] * len(elems)
        ext = [0] * len(elems)
        mul_at = [[-1] * na for _ in elems]
        div_at = [[-1] * len(elems) for _ in range(na)]
        for x, e in enumerate(elems):
            lx = self.length(e)
            for k, a in enumerate(self.atoms):
                xa = self.mul(e, a)
                if xa in idx and self.length(xa) == lx + 1:
                    ext[x] |= 1 << k
                    mul_at[x][k] = idx[xa]
                q = self.mul(self.inv(a), e)
                if q in idx and self.length(q) == lx - 1:
                    below[x] |= 1 << k
                    div_at[k][x] = idx[q]
        self.elems, self.idx = elems, idx
        self.below, self.ext, self.mul_at, self.div_at = below, ext, mul_at, div_at
        self.ident_id = idx[self.ident]
        self._tables_built = True

    def atoms_below(self, y) -> frozenset:
        """Atoms left-dividing the simple y."""
        self._tables()
        m = self.below[self.idx[y]]
        return frozenset(a for k, a in enumerate(self.atoms) if m >> k & 1)

    def normal_pair(self, x, y) -> bool:
        """Left-weighted junction: no atom of y can move into x."""
        self._tables()
        return not (self.below[self.idx[y]] & self.ext[self.idx[x]])

    def _slide(self, x: int, y: int):
        below, ext, mul_at, div_at = self.below, self.ext, self.mul_at, self.div_at
        m = below[y] & ext[x]
        while m:
            k = (m & -m).bit_length() - 1
            x, y = mul_at[x][k], div_at[k][y]
            m = below[y] & ext[x]
        return x, y

    def normal_form(self, simples) -> list[int]:
        """Left normal form (as ids) of a product of simples (as elements)."""
        self._tables()
        one = self.ident_id
        out: list[int] = []
        for s in simples:
            s = self.idx[s]
            if s == one:
                continue
            out.append(s)
            j = len(out) - 2
            while j >= 0:
                x, y = self._slide(out[j], out[j + 1])
                if x == out[j]:
                    break
                out[j], out[j + 1] = x, y
                if y == one:
                    del out[j + 1]
                    out = self._settle(out)
                    break
                j -= 1
        return out

    def _settle(self, seq: list[int]) -> list[int]:
        """Slide every junction until none moves; drop identities."""
        one = self.ident_id
        seq = [s for s in seq if s != one]
        changed = True
        while changed:
            changed = False
            for j in range(len(seq) - 1):
                x, y = self._slide(seq[j], seq[j + 1])
                if x != seq[j]:
                    seq[j], seq[j + 1] = x, y
                    changed = True
            if one in seq:
                seq = [s for s in seq if s != one]
                changed = True
        return seq

    def divide(self, nf: list[int], s: int):
        """Normal form of s⁻¹·w for w with normal form nf, or None if s ∤ w."""
        if s == self.ident_id:
            return nf
        if not nf:
            return None
        head = self.elems[nf[0]]
        q = self.mul(self.inv(self.elems[s]), head)
        if q not in self.idx or self.length(q) != self.length(head) - self.length(self.elems[s]):
            return None
        return self._settle([self.idx[q]] + list(nf[1:]))

    def strip(self, nf: list[int], divisor_nf: list[int]):
        """s⁻¹·w for s = product of divisor_nf, or None if s ∤ w."""
        for s in divisor_nf:
            nf = self.divide(nf, s)
            if nf is None:
                return None
        return nf

    def head_atoms(self, nf: list[int]) -> int:
        """Bitmask of the atoms left-dividing the element with normal form nf."""
        return self.below[nf[0]] if nf else 0

    def opposite(self) -> "GarsideModel":
        return Opposite(self)


class Opposite(GarsideModel):
    """Same simples, product reversed: right division of the original."""

    def __init__(self, base: GarsideModel):
        self.base = base
        self.ident = base.ident
        self.atoms = base.atoms
        self.delta = base.delta

    def mul(self, x, y):
        return self.base.mul(y, x)

    def inv(self, x):
        return self.base.inv(x)

    def length(self, x) -> int:
        return self.base.length(x)

    def is_simple(self, x) -> bool:
        return self.base.is_simple(x)

    def simples(self) -> list:
        return self.base.simples()


class CoxeterModel(GarsideModel):
    """
    Artin monoid of a finite Coxeter group W given by permutation images of
    its generators.  Simples are the elements of W, named by their shortlex
    generator words; length is the word length found by breadth-first search.
    `braid_of_letter[i]` embeds generator i into a braid group (for the
    Burau image).
    """

    def __init__(self, letters: str, gens: list[tuple], braid_of_letter, strands: int):
        self.letters = letters
        self.gens = gens
        self.strands = strands
        self.braid_of_letter = braid_of_letter
        self.ident = tuple(range(len(gens[0])))
        self.atoms = tuple(gens)
        self.len: dict[tuple, int] = {self.ident: 0}
        self.name_of: dict[tuple, str] = {self.ident: ""}
        frontier = [self.ident]
        while frontier:
            nxt = []
            for w in frontier:
                for i, g in enumerate(gens):
                    u = pmul(w, g)
                    if u not in self.len:
                        self.len[u] = self.len[w] + 1
                        self.name_of[u] = self.name_of[w] + letters[i]
                        nxt.append(u)
            frontier = nxt
        self.delta = max(self.len, key=self.len.get)
        self.elem_of = {n: e for e, n in self.name_of.items()}

    def mul(self, x, y):
        return pmul(x, y)

    def inv(self, x):
        return pinv(x)

    def length(self, x) -> int:
        return self.len[x]

    def is_simple(self, x) -> bool:
        return x in self.len

    def simples(self) -> list:
        return list(self.len)

    def descents(self, x) -> tuple[frozenset, frozenset]:
        """(left, right) descent sets as generator indices."""
        lx = self.len[x]
        left = frozenset(i for i, g in enumerate(self.gens) if self.len[pmul(g, x)] < lx)
        right = frozenset(i for i, g in enumerate(self.gens) if self.len[pmul(x, g)] < lx)
        return left, right

    def normal_pair(self, x, y) -> bool:
        # Elrifai–Morton: x·y is left-weighted iff L(y) ⊆ R(x)
        return self.descents(y)[0] <= self.descents(x)[1]

    def element(self, name: str):
        """Product of the letters of a name; "1" is the identity."""
        e = self.ident
        for ch in "" if name == "1" else name:
            e = pmul(e, self.gens[self.letters.index(ch)])
        return e

    def braid(self, name: str) -> list:
        out: list = []
        for ch in name:
            out.extend(self.braid_of_letter[self.letters.index(ch)])
        return out

    def name(self, elem) -> str:
        return self.name_of[elem] or "1"


def _sigma(*idx) -> list:
    return [(i, 1) for i in idx]


def braid_model(n: int, letters: str = "abcde") -> CoxeterModel:
    gens = [swap(n, i, i + 1) for i in range(n - 1)]
    return CoxeterModel(letters[: n - 1], gens, [_sigma(i) for i in range(n - 1)], n)


def b3_artin_model() -> CoxeterModel:
    """
    W(B3) as signed permutations of {±1, ±2, ±3} on six points (2k, 2k+1).
    a (m(a,b) = 4) flips the sign of coordinate 1, b and c swap adjacent
    coordinates.  The Artin group embeds in B_4 by a ↦ σ₁², b ↦ σ₂, c ↦ σ₃.
    """
    a = (1, 0, 2, 3, 4, 5)
    b = (2, 3, 0, 1, 4, 5)
    c = (0, 1, 4, 5, 2, 3)
    return CoxeterModel("abc", [a, b, c], [_sigma(0, 0), _sigma(1), _sigma(2)], 4)


def g2_artin_model() -> CoxeterModel:
    """
    W(G2) as the symmetries of a hexagon.  The Artin group embeds in B_6 by
    the bipartite folding a ↦ σ₁σ₃σ₅, b ↦ σ₂σ₄ (Coxeter number 6).
    """
    a = tuple((-i) % 6 for i in range(6))
    b = tuple((1 - i) % 6 for i in range(6))
    return CoxeterModel("ab", [a, b], [_sigma(0, 2, 4), _sigma(1, 3)], 6)


class DualModel(GarsideModel):
    """
    Dual braid monoid on n strands: simples are the permutations below the
    long cycle c (i ↦ i+1) for reflection length, named by their cycles.
    Atoms are the transpositions; transposition (i j) maps to the
    Birman–Ko–Lee band generator σ_{j-1}⋯σ_{i+1}·σ_i·σ_{i+1}⁻¹⋯σ_{j-1}⁻¹.
    """

    def __init__(self, n: int):
        self.n = n
        self.strands = n
        self.ident = tuple(range(n))
        self.delta = tuple((i + 1) % n for i in range(n))
        self.atoms = tuple(swap(n, i, j) for i, j in itertools.combinations(range(n), 2))
        self._braid: dict = {}

    def mul(self, x, y):
        return pmul(x, y)

    def inv(self, x):
        return pinv(x)

    def length(self, x) -> int:
        """Reflection length: n minus the number of cycles, fixed points included."""
        seen = [False] * self.n
        count = 0
        for i in range(self.n):
            if not seen[i]:
                count += 1
                j = i
                while not seen[j]:
                    seen[j] = True
                    j = x[j]
        return self.n - count

    def is_simple(self, x) -> bool:
        return self.length(x) + self.length(pmul(pinv(x), self.delta)) == self.n - 1

    def simples(self) -> list:
        return [p for p in itertools.permutations(range(self.n)) if self.is_simple(p)]

    def element(self, name: str):
        if name == "1":
            return self.ident
        parts = name.split("c")
        if parts[0] or not all(p.isdigit() for p in parts[1:]):
            raise ValueError(f"not a cycle name: {name!r}")
        out = list(range(self.n))
        for part in parts[1:]:
            pts = [int(ch) - 1 for ch in part]
            for k, p in enumerate(pts):
                out[p] = pts[(k + 1) % len(pts)]
        return tuple(out)

    def name(self, elem) -> str:
        cyc = cycles(elem)
        if not cyc:
            return "1"
        return "".join("c" + "".join(str(i + 1) for i in c) for c in cyc)

    @staticmethod
    def band(i: int, j: int) -> list:
        up = [(k, 1) for k in range(j - 1, i, -1)]
        return up + [(i, 1)] + invert_braid(up)

    def braid_of(self, elem) -> list:
        got = self._braid.get(elem)
        if got is None:
            got = []
            rest = elem
            while rest != self.ident:
                t = min(self.atoms_below(rest))
                i, j = [k for k in range(self.n) if t[k] != k]
                got.extend(self.band(i, j))
                rest = pmul(pinv(t), rest)
            self._braid[elem] = got
        return got

    def braid(self, name: str) -> list:
        return self.braid_of(self.element(name))


class AbelianModel(GarsideModel):
    """Free abelian monoid: simples are 0/1 count vectors named by letter subsets."""

    def __init__(self, letters: str):
        self.letters = letters
        n = len(letters)
        self.ident = (0,) * n
        self.delta = (1,) * n
        self.atoms = tuple(tuple(int(k == i) for k in range(n)) for i in range(n))

    def mul(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def inv(self, x):
        return tuple(-a for a in x)

    def length(self, x) -> int:
        return sum(abs(a) for a in x)

    def is_simple(self, x) -> bool:
        return all(a in (0, 1) for a in x)

    def simples(self) -> list:
        return list(itertools.product((0, 1), repeat=len(self.atoms)))

    def element(self, name: str):
        if name == "1":
            return self.ident
        if not set(name) <= set(self.letters):
            raise ValueError(f"not a subset name: {name!r}")
        return tuple(name.count(ch) for ch in self.letters)

    def name(self, elem) -> str:
        return "".join(ch for ch, a in zip(self.letters, elem) if a) or "1"


# -- values: group elements of signed words ----------------------------------------


class Values:
    """
    Group element of a signed word: permutation image and Burau probes for
    braid-type models, counts for the abelian one.  `letter` maps a
    generator name to its simple element (default: the model's naming).
    """

    def __init__(self, model: GarsideModel, rng: random.Random, letter=None):
        self.model = model
        self.abelian = isinstance(model, AbelianModel)
        self.burau = None if self.abelian else Burau(model.strands, rng)
        self.letter = letter or model.element
        self._braid: dict = {}

    def _braid_of(self, e) -> list:
        got = self._braid.get(e)
        if got is None:
            m = self.model
            if e == m.ident:
                got = []
            elif isinstance(m, DualModel):
                got = m.braid_of(e)
            else:
                got = m.braid(m.name(e))
            self._braid[e] = got
        return got

    def braid(self, seq) -> list:
        out: list = []
        for e, s in seq:
            b = self._braid_of(e)
            out.extend(b if s > 0 else invert_braid(b))
        return out

    def element(self, seq):
        m = self.model
        acc = m.ident
        for e, s in seq:
            acc = m.mul(acc, e if s > 0 else m.inv(e))
        return acc

    def elems(self, signed) -> list:
        """(name, ±1) letters as (element, ±1)."""
        return [(self.letter(n), s) for n, s in signed]

    def of_elems(self, seq):
        if self.abelian:
            return self.element(seq)
        return (self.element(seq), self.burau.image(self.braid(seq)))

    def of(self, signed):
        """Comparable value of a sequence of (name, ±1)."""
        return self.of_elems(self.elems(signed))

    def invariants(self, signed):
        """Conjugacy invariants: cycle type, Burau traces of M and M²."""
        seq = self.elems(signed)
        m = self.burau.matrix(self.braid(seq))
        return (cycle_type(self.element(seq)), trace(m), trace(mat_mul(m, m)))


# -- Klein bottle group --------------------------------------------------------------


class KleinModel:
    """
    <a, b | a = b a b> inside Z x| Z: b^x a^y ↦ (x, y) with
    (x, y)(x', y') = (x + (-1)^y x', y + y').  Left divisibility is the
    total order (y, (-1)^y x), so lcm = max and gcd = min.
    """

    @staticmethod
    def mul(u, v):
        (x, y), (x2, y2) = u, v
        return (x + (x2 if y % 2 == 0 else -x2), y + y2)

    @staticmethod
    def inv(u):
        x, y = u
        return ((-x if y % 2 == 0 else x), -y)

    def of(self, letters) -> tuple:
        acc = (0, 0)
        for name, e in letters:
            g = (0, 1) if name == "a" else (1, 0)
            acc = self.mul(acc, g if e > 0 else self.inv(g))
        return acc

    @staticmethod
    def positive(u) -> bool:
        x, y = u
        return y > 0 or (y == 0 and x >= 0)

    def key(self, u):
        x, y = u
        return (y, x if y % 2 == 0 else -x)

    def divides(self, u, v) -> bool:
        return self.positive(self.mul(self.inv(u), v))


# -- congruence closure ---------------------------------------------------------------


def congruence_class(word: str, rels, cap: int = 400_000) -> frozenset[str]:
    """All words equal to `word` under homogeneous relations, no depth cap."""
    seen = {word}
    frontier = [word]
    pairs = [(l, r) for l, r in rels] + [(r, l) for l, r in rels]
    while frontier:
        w = frontier.pop()
        for pat, sub in pairs:
            start = w.find(pat)
            while start >= 0:
                out = w[:start] + sub + w[start + len(pat):]
                if out not in seen:
                    seen.add(out)
                    frontier.append(out)
                    if len(seen) > cap:
                        raise RuntimeError("congruence class larger than the oracle cap")
                start = w.find(pat, start + 1)
    return frozenset(seen)


def closure_equal(u: str, v: str, rels) -> bool:
    return len(u) == len(v) and v in congruence_class(u, rels)


def closure_divides(u: str, v: str, rels) -> bool:
    if len(u) > len(v):
        return False
    cls_u = congruence_class(u, rels)
    return any(w[: len(u)] in cls_u for w in congruence_class(v, rels))


# -- start-up self-tests -----------------------------------------------------------------


def self_test(rng: random.Random) -> None:
    """Raise RuntimeError when an oracle disagrees with the theory it models."""

    def need(cond, what):
        if not cond:
            raise RuntimeError("oracle self-test failed: " + what)

    for n in (3, 4, 5, 6):
        bu = Burau(n, rng)
        for i in range(n - 1):
            need(bu.image([(i, 1), (i, -1)]) == tuple(bu.probes), "σσ⁻¹ = 1")
            if i + 1 < n - 1:
                need(
                    bu.matrix(_sigma(i, i + 1, i)) == bu.matrix(_sigma(i + 1, i, i + 1)),
                    f"braid relation σ{i}σ{i+1}σ{i} on {n} strands",
                )
            for j in range(i + 2, n - 1):
                need(bu.matrix(_sigma(i, j)) == bu.matrix(_sigma(j, i)), "far commutation")
        half = [(i, 1) for k in range(n - 1, 0, -1) for i in range(k)]
        d2 = half + half
        for i in range(n - 1):
            need(
                bu.matrix(d2 + _sigma(i)) == bu.matrix(_sigma(i) + d2),
                f"Δ² central on {n} strands",
            )
        need(bu.image(_sigma(0, 1)) != bu.image(_sigma(1, 0)), "σ1σ2 ≠ σ2σ1")

    models = [braid_model(n) for n in (3, 4, 5, 6)] + [b3_artin_model(), g2_artin_model()]
    models += [DualModel(n) for n in (3, 4, 5, 6)] + [AbelianModel("xyz")]
    for m in models:
        vals = Values(m, rng)
        simples = m.simples()
        # every length-additive product of simples maps to one group element
        for _ in range(200):
            x, y = rng.choice(simples), rng.choice(simples)
            z = m.mul(x, y)
            if m.is_simple(z) and m.length(z) == m.length(x) + m.length(y):
                need(
                    vals.of([(m.name(x), 1), (m.name(y), 1)]) == vals.of([(m.name(z), 1)]),
                    f"germ relation {m.name(x)}·{m.name(y)} in {type(m).__name__}",
                )
        # Δ² is central in a Coxeter-type monoid, δⁿ in the dual one
        central = [(m.name(m.delta), 1)] * (m.n if isinstance(m, DualModel) else 2)
        for a in m.atoms:
            an = [(m.name(a), 1)]
            need(
                vals.of(central + an) == vals.of(an + central),
                f"power of Δ central in {type(m).__name__}",
            )
        if len(m.atoms) > 1 and not vals.abelian:
            a0, a1 = m.name(m.atoms[0]), m.name(m.atoms[1])
            need(
                vals.of([(a0, 1), (a1, 1)]) != vals.of([(a1, 1), (a0, 1)])
                or m.mul(m.atoms[0], m.atoms[1]) == m.mul(m.atoms[1], m.atoms[0]),
                "a known-distinct pair differs",
            )
    kl = KleinModel()
    need(kl.of([("a", 1)]) == kl.of([("b", 1), ("a", 1), ("b", 1)]), "Klein relation")
    need(kl.of([("a", 1), ("b", 1)]) != kl.of([("b", 1), ("a", 1)]), "Klein ab ≠ ba")
    need(closure_equal("aba", "bab", [("aba", "bab")]), "closure relation")
