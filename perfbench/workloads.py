"""
The four workloads: inputs drawn from the seed, one closure per library
call, and a check per answer.

A run executes whole rounds.  Round r draws its inputs from
Random("<seed>:<workload>:<r>"), so a round always holds the same mix of
operations (entry, kind, length) and only the random words differ; the
seed alone fixes every input.  Inputs are generated with the oracles, never
with garsidekit: known-equal words come from rewriting by germ products or
relations, known-distinct and non-conjugate words are confirmed distinct by
the oracles before use.

Library functions are looked up through their modules at call time, so the
tracer's wrappers see every call.
"""

from __future__ import annotations

import os
import random

import garsidekit.bounded as bounded
import garsidekit.conjugacy as conjugacy
from garsidekit.core import SignedWord, Word
from garsidekit.errors import INCONCLUSIVE
from garsidekit.reversing import NoCommonMultiple

import checks as C
import oracles as O
import setups

F1 = "F1-lcm-stuck-incomplete"
F2 = "F2-homogeneous-depth-cap"

# lengths per (entry, kind) are fixed by position in these ladders, so every
# round has exactly the same mix of entries, kinds and lengths
LONG = (50, 100, 200, 400, 800)
LATTICE = (50, 100, 200)  # gcd/lcm: the oracle's normal forms bound their cost
SHORT = (4, 6, 8, 10)
PRESENTED = (6, 12, 20, 30, 40)


class Op:
    """One timed library call and the check of its answer."""

    __slots__ = ("kind", "entry", "call", "check", "fault", "result", "seconds", "cause", "reason")

    def __init__(self, kind, entry, call, check, fault=None):
        self.kind = kind
        self.entry = entry
        self.call = call
        self.check = check
        self.fault = fault
        self.result = None
        self.seconds = 0.0
        self.cause = None
        self.reason = ""


# -- models -------------------------------------------------------------------------


def germ_model(key: str) -> O.GarsideModel:
    head, _, arg = key.partition(":")
    if head == "braid":
        return O.braid_model(int(arg))
    if head == "dual_braid":
        return O.DualModel(int(arg))
    if key == "artin:B3":
        return O.b3_artin_model()
    if key == "artin:G2":
        return O.g2_artin_model()
    if head == "free_abelian":
        return O.AbelianModel("xyzwuvst"[: int(arg)])
    raise ValueError(key)


DUAL3_LETTERS = {"a": "c12", "b": "c13", "c": "c23"}  # a b = b c = c a = δ

RELATIONS = {
    "B3": (("aba", "bab"),),
    "B4": (("aba", "bab"), ("bcb", "cbc"), ("ac", "ca")),
    "N3": (("xy", "yx"), ("xz", "zx"), ("yz", "zy")),
    "D3": (("ab", "bc"), ("bc", "ca")),
    "klein": (("a", "bab"),),
}


def presented_judge(name: str, rng: random.Random):
    if name == "klein":
        return C.KleinJudge()
    if name == "D3":
        m = O.DualModel(3)
        letter = {k: m.element(v) for k, v in DUAL3_LETTERS.items()}
        return C.Judge(m, O.Values(m, rng, letter.__getitem__))
    m = {"B3": lambda: O.braid_model(3), "B4": lambda: O.braid_model(4),
         "N3": lambda: O.AbelianModel("xyz")}[name]()
    return C.Judge(m, O.Values(m, rng))


# -- word generation (oracle side) ------------------------------------------------------


class Gen:
    """Random words over named simples, with known-equal and -distinct variants."""

    def __init__(self, judge: C.Judge, pool_atoms, pool_all):
        self.j = judge
        self.m = judge.m
        self.atoms = list(pool_atoms)
        self.all = list(pool_all)
        self.by_len: dict[int, list[str]] = {}
        for n in self.all:
            self.by_len.setdefault(self.m.length(self.j.v.letter(n)), []).append(n)

    def word(self, rng, n, simples: bool) -> list[str]:
        pool = self.all if simples else self.atoms
        return [rng.choice(pool) for _ in range(n)]

    def signed(self, rng, n, simples: bool) -> list:
        return [(x, rng.choice((1, -1))) for x in self.word(rng, n, simples)]

    def _split(self, rng, e):
        """e = y·z with y, z nontrivial, walking atoms down from e."""
        m = self.m
        steps = rng.randrange(1, m.length(e))
        y, rest = m.ident, e
        for _ in range(steps):
            t = rng.choice(sorted(m.atoms_below(rest)))
            y, rest = m.mul(y, t), m.mul(m.inv(t), rest)
        return y, rest

    def equal_variant(self, rng, word, signed: bool, steps: int) -> list:
        """Rewrite by germ products (and free cancellation when signed)."""
        m, name = self.m, self.m.name
        letter = self.j.v.letter
        w = list(word) if signed else [(x, 1) for x in word]
        for _ in range(steps):
            r = rng.random()
            i = rng.randrange(len(w))
            if signed and r < 0.2:
                x = rng.choice(self.atoms)
                s = rng.choice((1, -1))
                w[i:i] = [(x, s), (x, -s)]
            elif r < 0.6:
                x, s = w[i]
                e = letter(x)
                if m.length(e) < 2:
                    continue
                y, z = self._split(rng, e)
                w[i:i + 1] = [(name(y), 1), (name(z), 1)] if s > 0 else [(name(z), -1), (name(y), -1)]
            elif i + 1 < len(w) and w[i][1] == w[i + 1][1]:
                (x, s), (y, _) = w[i], w[i + 1]
                a, b = (letter(x), letter(y)) if s > 0 else (letter(y), letter(x))
                ab = m.mul(a, b)
                if m.is_simple(ab) and m.length(ab) == m.length(a) + m.length(b):
                    w[i:i + 2] = [(name(ab), s)]
        return w if signed else [x for x, _ in w]

    def distinct_variant(self, rng, word, signed: bool) -> list:
        """Replace one letter by another of the same length; confirmed distinct."""
        v = self.j.v
        w = list(word) if signed else [(x, 1) for x in word]
        while True:
            i = rng.randrange(len(w))
            x, s = w[i]
            same = [y for y in self.by_len[self.m.length(v.letter(x))] if y != x]
            if not same:
                continue
            out = w[:i] + [(rng.choice(same), s)] + w[i + 1:]
            if v.of(out) != v.of(w):
                return out if signed else [y for y, _ in out]

    def conj_pair(self, rng, n, simples: bool, yes: bool):
        """(g, h): h built as a conjugate of g, or differing in an invariant."""
        v = self.j.v
        while True:
            g = self.signed(rng, n, simples)
            if yes:
                c = self.signed(rng, rng.randint(1, 3), simples)
                return g, free_reduce(C.inverse(c) + g + c)
            inv = v.invariants(g)
            for _ in range(20):
                i = rng.randrange(n)
                x, s = g[i]
                same = [y for y in self.by_len[self.m.length(v.letter(x))] if y != x]
                if not same:
                    continue
                h = g[:i] + [(rng.choice(same), s)] + g[i + 1:]
                if v.invariants(h) != inv:
                    return g, h


def free_reduce(signed) -> list:
    out: list = []
    for x, s in signed:
        if out and out[-1] == (x, -s):
            out.pop()
        else:
            out.append((x, s))
    return out


def rewrite(rng, word: str, rels, steps: int) -> str:
    """Apply random relations (either direction) to a word of one-letter names."""
    pairs = [(l, r) for l, r in rels] + [(r, l) for l, r in rels]
    for _ in range(steps):
        spots = [(i, pat, sub) for pat, sub in pairs for i in _find_all(word, pat)]
        if not spots:
            break
        i, pat, sub = rng.choice(spots)
        word = word[:i] + sub + word[i + len(pat):]
    return word


def _find_all(word: str, pat: str):
    i = word.find(pat)
    while i >= 0:
        yield i
        i = word.find(pat, i + 1)


# -- library side ---------------------------------------------------------------------------


class Lib:
    """Names ↔ library words for one built context."""

    def __init__(self, built: setups.Built):
        self.b = built
        self.ctx = built.ctx
        self.gid = {g.name: g.id for g in built.ctx.presentation.generators}
        self.gname = [g.name for g in built.ctx.presentation.generators]

    def word(self, names) -> Word:
        return Word(tuple(self.gid[n] for n in names), 0, 0)

    def sword(self, signed) -> SignedWord:
        return SignedWord(tuple((self.gid[n], s) for n, s in signed), 0, 0)

    def names(self, w: Word) -> list[str]:
        return [self.gname[g] for g in w.letters]

    def snames(self, w: SignedWord) -> list:
        return [(self.gname[g], s) for g, s in w.letters]

    def factors(self, family, idxs) -> list[list[str]]:
        return [self.names(family.elements[i]) for i in idxs]


# -- shared op builders --------------------------------------------------------------------


def op_nf(lib, judge, entry, names):
    w = lib.word(names)
    return Op("nf", entry, lambda: lib.b.family.normalize(w),
              lambda r: judge.nf(C.pos(names), lib.factors(r.family, r.factors)))


def op_dnf(lib, judge, entry, signed, kind, twin=None):
    w = lib.sword(signed)
    positive = all(s > 0 for _, s in signed)
    op = Op(kind, entry, lambda: bounded.delta_normalize(lib.b.gm, w), None)

    def check(r):
        bad = judge.dnf(signed, r.m, lib.factors(lib.b.family, r.factors), positive)
        if bad or twin is None:
            return bad
        t = twin.result
        if t is None or twin.cause is not None:
            return None
        if (t.m, t.factors) != (r.m, r.factors):
            return "Δ-normal forms of known-equal inputs differ"
        return None

    op.check = check
    return op


def op_eq(lib, judge, entry, u, v, kind, fault=None):
    U, V = lib.word(u), lib.word(v)
    return Op(kind, entry, lambda: lib.ctx.equal(U, V),
              lambda r: judge.eq(C.pos(u), C.pos(v), r) or _closure_check(entry, u, v, r, O.closure_equal),
              fault)


def op_gcd(lib, judge, entry, u, v):
    U, V = lib.word(u), lib.word(v)
    return Op("gcd", entry, lambda: bounded.gcd(lib.b.gm, U, V), lambda r: judge.gcd(u, v, lib.names(r)))


def op_lcm(lib, judge, entry, u, v, side):
    U, V = lib.word(u), lib.word(v)
    if side == "right":
        return Op("lcm_right", entry, lambda: bounded.lcm_right(lib.b.gm, U, V),
                  lambda r: judge.lcm_right(u, v, lib.names(r)))
    return Op("lcm_left", entry, lambda: bounded.lcm_left(lib.b.gm, U, V),
              lambda r: judge.lcm_left(u, v, lib.names(r)))


def op_conj(lib, judge, entry, g, h, yes):
    G, H = lib.sword(g), lib.sword(h)

    def check(r):
        witness = lib.snames(r.witness) if isinstance(r, conjugacy.Yes) else None
        return judge.conj(g, h, yes, witness)

    return Op("conj_yes" if yes else "conj_no", entry,
              lambda: conjugacy.are_conjugate(lib.b.gm, G, H), check)


def op_sss(lib, judge, entry, g):
    G = lib.sword(g)

    def check(r):
        nodes = [
            (n.element.m, lib.factors(lib.b.family, n.element.factors), lib.snames(n.conjugator))
            for n in r.nodes
        ]
        return judge.sss(g, nodes)

    return Op("sss", entry, lambda: conjugacy.sliding_circuit_set(lib.b.gm, G), check)


# -- workloads ----------------------------------------------------------------------------------


class Workload:
    name = ""

    def __init__(self, built, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.oracle_rng = random.Random(f"{seed}:oracle")

    def rng(self, r: int) -> random.Random:
        return random.Random(f"{self.seed}:{self.name}:{r}")

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError


class GermWorkload(Workload):
    def __init__(self, built, seed, workdir):
        super().__init__(built, seed, workdir)
        self.entries = []
        for key, b in built.items():
            m = germ_model(key)
            judge = C.Judge(m, O.Values(m, self.oracle_rng))
            names = [g.name for g in b.ctx.presentation.generators]
            atoms = [n for n in names if m.length(m.element(n)) == 1]
            self.entries.append((key, Lib(b), judge, Gen(judge, atoms, names)))


class NfGerm(GermWorkload):
    """Normal forms, word problem and lattice operations on long words."""

    name = "nf_germ"

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for e, (key, lib, judge, gen) in enumerate(self.entries):
            def n(k, ladder=LONG):
                return ladder[(e + k) % len(ladder)]

            ops.append(op_nf(lib, judge, key, gen.word(rng, n(0), simples=True)))
            u = gen.word(rng, n(1), simples=False)
            first = op_dnf(lib, judge, key, C.pos(u), "dnf_pos")
            u2 = gen.equal_variant(rng, u, False, n(1) // 4)
            ops += [first, op_dnf(lib, judge, key, C.pos(u2), "dnf_pos", twin=first)]
            s = gen.signed(rng, n(2), simples=False)
            first = op_dnf(lib, judge, key, s, "dnf_signed")
            s2 = gen.equal_variant(rng, s, True, n(2) // 4)
            ops += [first, op_dnf(lib, judge, key, s2, "dnf_signed", twin=first)]
            u = gen.word(rng, n(3), simples=True)
            ops.append(op_eq(lib, judge, key, u, gen.equal_variant(rng, u, False, n(3) // 4), "eq_equal"))
            ops.append(op_eq(lib, judge, key, u, gen.distinct_variant(rng, u, False), "eq_distinct"))
            k = n(4, LATTICE)
            p = gen.word(rng, k // 4, simples=False)
            ops.append(op_gcd(lib, judge, key, p + gen.word(rng, k, False), p + gen.word(rng, k, False)))
            ops.append(op_lcm(lib, judge, key, gen.word(rng, n(5, LATTICE), False),
                              gen.word(rng, n(5, LATTICE), False), "right"))
            ops.append(op_lcm(lib, judge, key, gen.word(rng, n(6, LATTICE), False),
                              gen.word(rng, n(6, LATTICE), False), "left"))
        return ops


# per entry: (answer kind, words over all simples?) and the length ladder;
# braid:5 and dual_braid:4 carry the heavy tail, so they run fewer and
# shorter cases (see README)
CONJ_MIX = (("yes", False), ("yes", True), ("no", False), ("sss", True))
CONJ_PLAN = {
    "braid:5": ((("yes", False), ("sss", False), ("sss", True)), (4,)),
    "dual_braid:4": (CONJ_MIX, (4,)),
}


class ConjGerm(GermWorkload):
    """
    Conjugacy decisions and sliding-circuit sets on short signed words.

    The cost of a conjugacy decision is set by the conjugacy class (the size
    of its sliding-circuit set), and spans three orders of magnitude.  The
    classes therefore come from a corpus drawn once from a fixed seed, one
    class per (entry, slot); the run's seed draws the representatives that
    are handed to the library, as random conjugates of those classes.
    """

    name = "conj_germ"

    def __init__(self, built, seed, workdir):
        super().__init__(built, seed, workdir)
        corpus_rng = random.Random("conj_germ:classes")
        self.classes = {}
        for e, (key, lib, judge, gen) in enumerate(self.entries):
            mix, ladder = CONJ_PLAN.get(key, (CONJ_MIX, SHORT))
            for k, (kind, simples) in enumerate(mix):
                n = ladder[(e + k) % len(ladder)]
                if kind == "sss":
                    self.classes[key, k] = (gen.signed(corpus_rng, n, simples), None)
                else:
                    self.classes[key, k] = gen.conj_pair(corpus_rng, n, simples, yes=False)

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for e, (key, lib, judge, gen) in enumerate(self.entries):
            mix = CONJ_PLAN.get(key, (CONJ_MIX, SHORT))[0]
            for k, (kind, simples) in enumerate(mix):
                g, other = self.classes[key, k]

                def rep(w):
                    c = gen.signed(rng, rng.randint(1, 2), simples=False)
                    return free_reduce(C.inverse(c) + w + c)

                if kind == "sss":
                    ops.append(op_sss(lib, judge, key, rep(g)))
                else:
                    yes = kind == "yes"
                    ops.append(op_conj(lib, judge, key, rep(g), rep(g if yes else other), yes))
        return ops


class Presented(Workload):
    """Presented contexts: complements, the rewriting closure, generic heads."""

    name = "presented"

    # D3 words stay at 6 letters or fewer, products of two words included:
    # every such word's closure is complete, so seeded D3 queries never meet
    # F2 (see README); the fixed probes show F1 and F2 in every round
    D3_LENGTHS = (4, 5, 6)
    D3_HALVES = (2, 3)

    def __init__(self, built, seed, workdir):
        super().__init__(built, seed, workdir)
        self.libs = {name: Lib(b) for name, b in built.items()}
        self.judges = {name: presented_judge(name, self.oracle_rng) for name in built}
        self.gens = {}
        for name, j in self.judges.items():
            if name != "klein":
                letters = list(self.libs[name].gname)
                self.gens[name] = Gen(j, letters, letters)
        self.probes = self._probes()

    def _probes(self):
        d3, j = self.libs["D3"], self.judges["D3"]
        return [
            lambda: self._lcm(d3, "D3", "a", "c", fault=F1),
            lambda: op_eq(d3, j, "D3", "aaaaaaba", "aaaaaaaa", "equal", fault=F2),
            lambda: self._div(d3, j, "D3", "cc", "aaaaaaaba", fault=F2),
        ]

    def _lcm_check(self, name, u, v, r):
        if isinstance(r, NoCommonMultiple):
            return "answered 'no common multiple' in a monoid where every pair has one"
        return self.judges[name].lcm_right(list(u), list(v), self.libs[name].names(r))

    def round(self, r):
        rng = self.rng(r)
        ops = [make() for make in self.probes]
        for e, name in enumerate(("B3", "B4", "N3", "D3", "klein")):
            lib, j = self.libs[name], self.judges[name]
            letters = "".join(lib.gname)

            def word(k, half=False):
                ladder = PRESENTED
                if name == "D3":
                    ladder = self.D3_HALVES if half else self.D3_LENGTHS
                n = ladder[(e + k) % len(ladder)]
                return "".join(rng.choice(letters) for _ in range(n))

            u = word(0)
            ops.append(op_eq(lib, j, name, u, rewrite(rng, u, RELATIONS[name], len(u)), "equal"))
            ops.append(op_eq(lib, j, name, u, word(0), "equal"))
            p = word(1, True)
            ops.append(self._div(lib, j, name, p, rewrite(rng, p + word(2, True), RELATIONS[name], len(p))))
            ops.append(self._div(lib, j, name, word(1), word(2)))
            q = word(3, True)
            ops.append(self._quot(lib, j, name, q, rewrite(rng, q + word(4, True), RELATIONS[name], len(q))))
            if name != "D3":
                ops.append(self._lcm(lib, name, word(5), word(5)))
            if name == "klein":
                continue
            ops.append(op_nf(lib, j, name, list(word(6))))
            if name == "D3":
                continue
            gen = self.gens[name]
            s = gen.signed(rng, len(word(7)), False)
            first = op_dnf(lib, j, name, s, "dnf_signed")
            s2 = free_reduce(s)
            ops += [first, op_dnf(lib, j, name, s2 + [(letters[0], 1), (letters[0], -1)],
                                  "dnf_signed", twin=first)]
            g = word(8)
            ops.append(op_gcd(lib, j, name, list(g + word(9)), list(g + word(9))))
            if name == "B3":
                for yes in (True, False):
                    g, h = gen.conj_pair(rng, SHORT[e % len(SHORT)], False, yes)
                    ops.append(op_conj(lib, j, name, g, h, yes))
        return ops

    @staticmethod
    def _div(lib, j, name, u, v, fault=None):
        U, V = lib.word(u), lib.word(v)
        return Op("left_divides", name, lambda: lib.ctx.left_divides(U, V),
                  lambda r: j.divides(list(u), list(v), r) or _closure_check(name, u, v, r, O.closure_divides),
                  fault)

    @staticmethod
    def _quot(lib, j, name, u, v):
        U, V = lib.word(u), lib.word(v)
        return Op("left_quotient", name, lambda: lib.ctx.left_quotient(U, V),
                  lambda r: j.quotient(list(u), list(v), None if r is None else lib.names(r)))

    def _lcm(self, lib, name, u, v, fault=None):
        U, V = lib.word(u), lib.word(v)
        return Op("right_lcm", name, lambda: lib.ctx.right_lcm(U, V),
                  lambda r: self._lcm_check(name, u, v, r), fault)


CLOSURE_LETTERS = 12  # the uncapped closure checks presented words up to this length


def _closure_check(name, u, v, answer, decide):
    """Second opinion from the uncapped congruence closure on short presented words."""
    # klein is not homogeneous: its congruence classes are infinite
    if name not in RELATIONS or name == "klein" or max(len(u), len(v)) > CLOSURE_LETTERS:
        return None
    expected = decide(u, v, RELATIONS[name])
    return None if answer is expected else f"answered {answer!r}, the uncapped closure says {expected}"


def classify(op: Op) -> None:
    """Run the check and set op.cause (None when the answer holds)."""
    if op.cause is not None:
        return
    if op.result is INCONCLUSIVE:
        op.cause = "inconclusive"
        return
    try:
        reason = op.check(op.result)
    except Exception as e:  # a check that cannot read the answer is a wrong answer
        reason = f"unreadable answer: {type(e).__name__}: {e}"
    if reason:
        op.cause = "wrong"
        op.reason = reason


# -- cli ------------------------------------------------------------------------------------------


class Cli(Workload):
    """`gk` subcommands, one child process at a time."""

    name = "cli"

    FILES = {
        "b3.gar": (lambda: O.braid_model(3), True),
        "n3.gar": (lambda: O.AbelianModel("xyz"), True),
        "braid_3.germ": (lambda: O.braid_model(3), False),
        "braid_4.germ": (lambda: O.braid_model(4), False),
        "dual_braid_4.germ": (lambda: O.DualModel(4), False),
        "free_abelian_3.germ": (lambda: O.AbelianModel("xyz"), False),
    }
    # (file, subcommand) per round; one operation is one gk call
    MIX = (
        ("b3.gar", "nf"), ("b3.gar", "nf_delta"), ("b3.gar", "eq"), ("b3.gar", "lcm"),
        ("b3.gar", "gcd"), ("b3.gar", "reverse"), ("b3.gar", "conj"), ("b3.gar", "sss"),
        ("b3.gar", "check"),
        ("braid_4.germ", "nf"), ("braid_4.germ", "nf_delta"), ("braid_4.germ", "eq"),
        ("braid_4.germ", "gcd"), ("braid_4.germ", "conj"),
        ("dual_braid_4.germ", "nf_delta"), ("dual_braid_4.germ", "eq"),
        ("dual_braid_4.germ", "lcm"), ("dual_braid_4.germ", "sss"),
        ("free_abelian_3.germ", "nf"), ("free_abelian_3.germ", "gcd"),
        ("free_abelian_3.germ", "check"),
        ("n3.gar", "nf"), ("n3.gar", "eq"), ("n3.gar", "lcm"),
        ("klein.gar", "eq"), ("klein.gar", "lcm"), ("klein.gar", "reverse"), ("klein.gar", "check"),
        ("braid_3.germ", "catalog"),
    )

    def __init__(self, built, seed, workdir, runner):
        super().__init__(built, seed, workdir)
        self.paths = built
        self.run_gk = runner
        self.judges = {}
        self.gens = {}
        for f, (make, _) in self.FILES.items():
            m = make()
            j = C.Judge(m, O.Values(m, self.oracle_rng))
            names = self._names(f, m)
            atoms = [n for n in names if m.length(m.element(n)) == 1]
            self.judges[f] = j
            self.gens[f] = Gen(j, atoms, names)
        self.judges["klein.gar"] = C.KleinJudge()

    def _names(self, f, m):
        if f.endswith(".gar"):
            return list(m.letters)
        with open(self.paths[f], encoding="utf-8") as fh:
            doc = fh.read().split("[identity]")[0]
        return [ln.split(":")[0].strip() for ln in doc.splitlines()[1:] if ":" in ln
                and ln.split(":")[0].strip() != "1"]

    def round(self, r):
        rng = self.rng(r)
        ops = []
        for k, (f, cmd) in enumerate(self.MIX):
            ops.append(self._op(rng, f, cmd, SHORT[k % len(SHORT)], k, r))
        return ops

    def _op(self, rng, f, cmd, n, k, r):
        path = self.paths[f]
        j = self.judges[f]
        single = f.endswith(".gar")

        def toks(names):
            return " ".join(names) or "1"

        def stoks(signed):
            return " ".join(x if s > 0 else x + "^-1" for x, s in signed) or "1"

        def factors(text):
            return [list(t) if single else [t] for t in text.split(".")] if text != "1" else []

        def call(args):
            return lambda: self.run_gk(args)

        if f == "klein.gar":
            return self._klein_op(rng, path, cmd, n)
        gen = self.gens[f]
        if cmd == "nf":
            u = gen.word(rng, n, simples=not single)
            return Op("gk nf", f, call(["nf", path, "-w", toks(u)]),
                      lambda res: _ok(res) or j.nf(C.pos(u), factors(res[1].strip())))
        if cmd == "nf_delta":
            s = gen.signed(rng, n, simples=False)
            return Op("gk nf --delta", f, call(["nf", path, "-w", stoks(s), "--delta"]),
                      lambda res: _ok(res) or _dnf_text(j, s, res[1].strip(), single))
        if cmd == "eq":
            u = gen.word(rng, n, simples=not single)
            v = gen.equal_variant(rng, u, False, n) if k % 2 == 0 else gen.distinct_variant(rng, u, False)
            return Op("gk eq", f, call(["eq", path, "-w", toks(u), "-w", toks(v)]),
                      lambda res: _eq_text(j, u, v, res))
        if cmd == "lcm":
            u, v = gen.word(rng, n, False), gen.word(rng, n, False)
            return Op("gk lcm", f, call(["lcm", path, "-w", toks(u), "-w", toks(v)]),
                      lambda res: _ok(res) or j.lcm_right(u, v, _tokens(res[1])))
        if cmd == "gcd":
            p = gen.word(rng, 2, False)
            u, v = p + gen.word(rng, n, False), p + gen.word(rng, n, False)
            return Op("gk gcd", f, call(["gcd", path, "-w", toks(u), "-w", toks(v)]),
                      lambda res: _ok(res) or j.gcd(u, v, _tokens(res[1])))
        if cmd == "reverse":
            u, v = gen.word(rng, n // 2, False), gen.word(rng, n // 2, False)
            w = C.inverse(C.pos(u)) + C.pos(v)
            return Op("gk reverse", f, call(["reverse", path, "-w", stoks(w)]),
                      lambda res: _ok(res) or _reverse_text(j.v.of, w, res[1]))
        if cmd == "conj":
            yes = k % 2 == 0
            g, h = gen.conj_pair(rng, n, False, yes)
            return Op("gk conj", f, call(["conj", path, "-w", stoks(g), "-w", stoks(h)]),
                      lambda res: _conj_text(j, g, h, yes, res))
        if cmd == "sss":
            g = gen.signed(rng, n, False)
            return Op("gk sss", f, call(["sss", path, "-w", stoks(g)]),
                      lambda res: _ok(res) or _sss_text(j, g, res[1], single))
        if cmd == "check":
            expect = ["PASS", "PASS", "PASS", "PASS" if single else "N/A"]
            return Op("gk check", f, call(["check", path]), lambda res: _check_text(res, expect))
        if cmd == "catalog":
            out = os.path.join(self.workdir, f"emit-{r}.germ")
            return Op("gk catalog --emit", "braid:3", call(["catalog", "braid:3", "--emit", out]),
                      lambda res: _ok(res) or _emitted(j.m, out))
        raise ValueError(cmd)

    def _klein_op(self, rng, path, cmd, n):
        j = self.judges["klein.gar"]
        u = "".join(rng.choice("ab") for _ in range(n))
        v = "".join(rng.choice("ab") for _ in range(n))
        if cmd == "eq":
            # known-equal pairs only: klein.gar has no completeness
            # certificate, so gk rightly answers "inconclusive" on distinct words
            v = rewrite(rng, u, RELATIONS["klein"], n)
            return Op("gk eq", "klein.gar", lambda: self.run_gk(["eq", path, "-w", " ".join(u), "-w", " ".join(v)]),
                      lambda res: _eq_text(j, u, v, res))
        if cmd == "lcm":
            return Op("gk lcm", "klein.gar", lambda: self.run_gk(["lcm", path, "-w", " ".join(u), "-w", " ".join(v)]),
                      lambda res: _ok(res) or j.lcm_right(list(u), list(v), _tokens(res[1])))
        if cmd == "reverse":
            w = C.inverse(C.pos(u)) + C.pos(v)
            text = " ".join(x if s > 0 else x + "^-1" for x, s in w)
            return Op("gk reverse", "klein.gar", lambda: self.run_gk(["reverse", path, "-w", text]),
                      lambda res: _ok(res) or _reverse_text(j.k.of, w, res[1]))
        if cmd == "check":
            return Op("gk check", "klein.gar", lambda: self.run_gk(["check", path]),
                      lambda res: _check_text(res, ["PASS", "N/A", "N/A", "PASS"]))
        raise ValueError(cmd)


# -- cli output parsing ------------------------------------------------------------------------


def _ok(res):
    code, out = res
    return None if code == 0 else f"exit code {code}"


def _tokens(text: str) -> list[str]:
    text = text.strip()
    return [] if text == "1" else text.split()


def _dnf_text(j, s, text, single):
    parts = text.split(" . ") if text != "1" else []
    m = 0
    if parts and parts[0].startswith("D^"):
        m = int(parts.pop(0)[2:])
    factors = [list(p) if single else [p] for p in parts]
    return j.dnf(s, m, factors, positive=False)


def _eq_text(j, u, v, res):
    code, out = res
    answer = {(0, "equal"): True, (1, "distinct"): False}.get((code, out.strip()))
    if answer is None:
        return f"unexpected output {out.strip()!r} with exit code {code}"
    return j.eq(C.pos(u), C.pos(v), answer)


def _reverse_text(value, w, text):
    pos_text, _, neg_text = text.strip().partition(" | ")
    p, q = _tokens(pos_text), _tokens(neg_text)
    if value(C.pos(p) + C.inverse(C.pos(q))) != value(w):
        return "pos·neg⁻¹ differs from the input"
    return None


def _signed_tokens(text: str) -> list:
    if text.strip() == "1":
        return []
    return [(t[:-3], -1) if t.endswith("^-1") else (t, 1) for t in text.split()]


def _conj_text(j, g, h, yes, res):
    code, out = res
    out = out.strip()
    if code == 0 and out.startswith("yes witness: "):
        return j.conj(g, h, yes, _signed_tokens(out[len("yes witness: "):]))
    if code == 1 and out == "no":
        return j.conj(g, h, yes, None)
    return f"unexpected output {out!r} with exit code {code}"


def _sss_text(j, g, text, single):
    lines = text.strip().splitlines()
    nodes = [ln for ln in lines if not ln.startswith("witness: ")]
    wits = [ln[len("witness: "):] for ln in lines if ln.startswith("witness: ")]
    if len(nodes) != len(wits):
        return "node and witness counts differ"
    parsed = []
    for node, wit in zip(nodes, wits):
        parts = node.split(" . ") if node != "1" else []
        m = int(parts.pop(0)[2:]) if parts and parts[0].startswith("D^") else 0
        parsed.append((m, [list(p) if single else [p] for p in parts], _signed_tokens(wit)))
    return j.sss(g, parsed)


def _check_text(res, expect):
    code, out = res
    got = [ln.partition(": ")[2] for ln in out.strip().splitlines()]
    if got != expect:
        return f"check printed {got}, expected {expect}"
    return None if code == 0 else f"exit code {code}"


def _emitted(model, path):
    """The emitted germ's products are exactly the length-additive ones."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    names = set()
    products = 0
    section = None
    for ln in text.splitlines():
        ln = ln.strip()
        if ln.startswith("["):
            section = ln
        elif ln and section == "[elements]":
            names.add(ln.split(":")[0].strip())
        elif ln and section == "[product]":
            lhs, _, t = ln.partition(" = ")
            r, _, s = lhs.partition(" * ")
            x, y, z = model.element(r), model.element(s), model.element(t)
            if model.mul(x, y) != z or model.length(z) != model.length(x) + model.length(y):
                return f"product {ln!r} is not a length-additive product"
            products += 1
    simples = model.simples()
    if names != {model.name(e) for e in simples}:
        return "emitted elements are not the simples"
    expected = sum(
        1 for x in simples for y in simples
        if x != model.ident and y != model.ident and model.length(model.mul(x, y)) == model.length(x) + model.length(y)
        and model.is_simple(model.mul(x, y))
    )
    return None if products == expected else f"{products} products emitted, {expected} exist"


WORKLOADS = {"nf_germ": NfGerm, "conj_germ": ConjGerm, "presented": Presented, "cli": Cli}
