"""
Independent reference implementations used to cross-check the library.

Everything here but the last section works on plain strings (one character
per generator) and explicit relation lists and imports nothing from the
package under test.  The closure routines require homogeneous relations
(equal-length sides), which holds for every corpus they are applied to, and
compute full congruence classes at fixed length by exhaustive rewriting, so
answers are exact.

The last six sections import the package.  One is the word-level
sliding-circuit BFS that `garsidekit.conjugacy` used before it moved to
factor tables.  It goes through words, `GarsideMap.phi`, context left
quotients and the signed `delta_normalize` for every slide and candidate,
and serves as the reference the index-level engine is compared against.
Next to it are the memo-free walk to a sliding circuit and the two-set
conjugacy decision, the references for the shared slide memo and for the
one-set "yes" of `are_conjugate`.
Another is the list-splice reversing that `garsidekit.reversing.reverse`
used before its two-stack scan: it reads every cell through
`Complement.entry` and serves as the reference for results and grids.
Next is the dense germ validation that `garsidekit.germs.validate_germ`
ran before it checked associativity over defined products only: it visits
every composable triple and serves as the reference for its verdicts.
Beside it, the head of a pair is found by search over the product table,
without the divisor bitmasks, as the reference for
`GermStructure.head_of_pair`.
Then comes the word-level arm of `GarsideMap` from before every map read
the germ Div(Δ): complements, φ, quotients, meets and normal forms of
divisor sequences, all through context quotients, divisibility and the
family's head extraction.  It is the reference for the table.
Beside it is the padded Δ-normal form that `delta_normalize` computed
before it read the table: d⁻¹·n with d divided into a Δ-power word, the
quotient mapped through φ letter by letter, and the family's normal form.
The last is the eager `germ_category`, which built and checked every
relation at the call: the reference for the presentation that builds its
relations on first read.
"""

from __future__ import annotations

import functools
import itertools

Rel = tuple[str, str]

B3_RELS: tuple[Rel, ...] = (("aba", "bab"),)
B4_RELS: tuple[Rel, ...] = (("aba", "bab"), ("bcb", "cbc"), ("ac", "ca"))
N2_RELS: tuple[Rel, ...] = (("xy", "yx"),)
N3_RELS: tuple[Rel, ...] = (("xy", "yx"), ("xz", "zx"), ("yz", "zy"))


@functools.lru_cache(maxsize=None)
def congruence_class(word: str, rels: tuple[Rel, ...]) -> frozenset[str]:
    """All positive words equal to `word` under the relations."""
    for lhs, rhs in rels:
        if len(lhs) != len(rhs):
            raise ValueError("closure oracle needs homogeneous relations")
    seen = {word}
    frontier = [word]
    while frontier:
        w = frontier.pop()
        for lhs, rhs in rels:
            for pat, sub in ((lhs, rhs), (rhs, lhs)):
                start = w.find(pat)
                while start >= 0:
                    out = w[:start] + sub + w[start + len(pat):]
                    if out not in seen:
                        seen.add(out)
                        frontier.append(out)
                    start = w.find(pat, start + 1)
    return frozenset(seen)


def canon(word: str, rels: tuple[Rel, ...]) -> str:
    """Lexicographically least member of the congruence class."""
    return min(congruence_class(word, rels))


def equal_words(u: str, v: str, rels: tuple[Rel, ...]) -> bool:
    return len(u) == len(v) and v in congruence_class(u, rels)


def left_divides(u: str, w: str, rels: tuple[Rel, ...]) -> bool:
    """u is a prefix of w up to the congruence."""
    if len(u) > len(w):
        return False
    cls_u = congruence_class(u, rels)
    return any(m[: len(u)] in cls_u for m in congruence_class(w, rels))


def right_divides(u: str, w: str, rels: tuple[Rel, ...]) -> bool:
    if len(u) > len(w):
        return False
    cls_u = congruence_class(u, rels)
    return any(m[len(m) - len(u):] in cls_u for m in congruence_class(w, rels))


def left_quotient(u: str, w: str, rels: tuple[Rel, ...]) -> str | None:
    """Some v with u·v = w, or None; unique up to the congruence."""
    if len(u) > len(w):
        return None
    cls_u = congruence_class(u, rels)
    for m in congruence_class(w, rels):
        if m[: len(u)] in cls_u:
            return m[len(u):]
    return None


def left_divisors(w: str, rels: tuple[Rel, ...]) -> frozenset[str]:
    """Canonical representatives of every left-divisor of w."""
    out = set()
    for m in congruence_class(w, rels):
        for k in range(len(m) + 1):
            out.add(canon(m[:k], rels))
    return frozenset(out)


def words_up_to(alphabet: str, n: int):
    for k in range(n + 1):
        for tup in itertools.product(alphabet, repeat=k):
            yield "".join(tup)


def right_lcm(
    u: str, v: str, alphabet: str, rels: tuple[Rel, ...], bound: int
) -> str | None:
    """Least common right-multiple by exhaustive search; None if absent
    within the bound.  Raises if minimal common multiples are ambiguous,
    which would invalidate using this as an lcm oracle."""
    for length in range(bound + 1):
        hits = [
            "".join(tup)
            for tup in itertools.product(alphabet, repeat=length)
            if left_divides(u, "".join(tup), rels)
            and left_divides(v, "".join(tup), rels)
        ]
        if hits:
            reps = {canon(h, rels) for h in hits}
            if len(reps) != 1:
                raise AssertionError(
                    f"ambiguous minimal common multiple of {u!r}, {v!r}: {reps}"
                )
            return reps.pop()
    return None


def left_gcd(u: str, v: str, rels: tuple[Rel, ...]) -> str:
    """Greatest common left-divisor; raises if no greatest one exists."""
    common = left_divisors(u, rels) & left_divisors(v, rels)
    best = max(common, key=len)
    top = [d for d in common if len(d) == len(best)]
    if len(top) != 1:
        raise AssertionError(f"no greatest common divisor of {u!r}, {v!r}: {top}")
    if not all(left_divides(d, best, rels) for d in common):
        raise AssertionError(f"maximal common divisor of {u!r}, {v!r} not greatest")
    return best


# --- Klein bottle monoid <a, b | a = b a b> ------------------------------

def klein_value(word: str) -> tuple[int, int]:
    """Image of a word over {a, b} in Z ⋊ Z, where b ↦ (1, 0), a ↦ (0, 1)
    and (m, n)·(p, q) = (m + (−1)^n p, n + q).

    The map respects a = bab ((1,0)(0,1)(1,0) = (1,1)(1,0) = (0,1)) and is
    injective on the monoid, so it decides the word problem.
    """
    m, n = 0, 0
    for ch in word:
        p, q = (1, 0) if ch == "b" else (0, 1)
        m, n = m + (p if n % 2 == 0 else -p), n + q
    return (m, n)


def klein_equal(u: str, v: str) -> bool:
    return klein_value(u) == klein_value(v)


# --- free abelian --------------------------------------------------------

def letter_counts(word: str, alphabet: str) -> tuple[int, ...]:
    return tuple(word.count(ch) for ch in alphabet)


# --- conjugacy in the 3-strand braid group -------------------------------

B3_DELTA = "aba"
B3_PARTNER = {"a": "ba", "b": "ab"}  # x · partner(x) = Δ
B3_SIMPLES = ("a", "b", "ab", "ba", "aba")
_B3_SWAP = str.maketrans("ab", "ba")


def b3_phi(word: str) -> str:
    """Conjugation by Δ on positive words (an involution: Δ² is central)."""
    return word.translate(_B3_SWAP)


def b3_positive_form(signed: tuple[tuple[str, int], ...]) -> tuple[int, str]:
    """Rewrite a signed word over {a, b} as Δ^(−k)·P with P positive.

    Uses x⁻¹ = partner(x)·Δ⁻¹ and Q·Δ⁻¹ = Δ⁻¹·φ(Q).
    """
    k, pos = 0, ""
    for ch, sign in signed:
        if sign > 0:
            pos += ch
        else:
            pos = b3_phi(pos + B3_PARTNER[ch])
            k += 1
    return k, pos


def b3_conjugates_to(g: str, h: str, witness: tuple[tuple[str, int], ...]) -> bool:
    """Does c⁻¹·g·c = h hold for the signed witness c?

    With c = Δ^(−k)·P this reduces to the positive-word identity
    φ^k(g)·P = P·h, decided by the closure oracle.
    """
    k, pos = b3_positive_form(witness)
    lhs = (b3_phi(g) if k % 2 else g) + pos
    return equal_words(lhs, pos + h, B3_RELS)


@functools.lru_cache(maxsize=None)
def b3_conjugacy_orbit(g: str) -> frozenset[str]:
    """Canonical forms of every positive word conjugate to g in the group.

    Breadth-first closure under (i) conjugation by a simple element when
    the outcome is positive and (ii) the letter-swap automorphism φ.
    Summit-set theory makes this complete for positive elements: cycling
    is edge (i) with the leading simple; decycling by the final factor t
    factors as edge (i) with ∂t followed by φ; and super-summit elements
    (all positive) are connected inside the summit set by edges of
    type (i).  All edges preserve word length.
    """
    start = canon(g, B3_RELS)
    seen = {start}
    frontier = [start]
    while frontier:
        w = frontier.pop()
        gen = {canon(b3_phi(w), B3_RELS)}
        for s in B3_SIMPLES:
            cls_s = congruence_class(s, B3_RELS)
            for m in congruence_class(w + s, B3_RELS):
                if m[: len(s)] in cls_s:
                    gen.add(canon(m[len(s):], B3_RELS))
        for r in gen:
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    return frozenset(seen)


def b3_conjugate_oracle(g: str, h: str) -> bool:
    """Are the positive words g and h conjugate in the 3-strand braid group?"""
    if len(g) != len(h):
        return False  # exponent sum is a class invariant
    return canon(h, B3_RELS) in b3_conjugacy_orbit(canon(g, B3_RELS))


def b3_positive_conjugator(g: str, h: str, bound: int) -> str | None:
    """Plain search: positive c with g·c = c·h, |c| ≤ bound, else None."""
    if len(g) != len(h):
        return None
    for c in words_up_to("ab", bound):
        if equal_words(g + c, c + h, B3_RELS):
            return c
    return None


# --- permutations (for the symmetric-group germs) -------------------------

def perm_compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """f then g, acting on positions 0..n-1."""
    return tuple(g[f[k]] for k in range(len(f)))


def perm_inversions(p: tuple[int, ...]) -> int:
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


def perm_cycle_count(p: tuple[int, ...]) -> int:
    seen = [False] * len(p)
    count = 0
    for i in range(len(p)):
        if not seen[i]:
            count += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
    return count


def catalan(n: int) -> int:
    out = 1
    for i in range(n):
        out = out * (2 * n - i) // (i + 1)
    return out // (n + 1)


# --- word-level sliding circuits ------------------------------------------


def _word_slide(gm, d):
    """One cyclic slide of a Δ-normal form, rebuilt through words."""
    from garsidekit.bounded import DeltaNormal
    from garsidekit.core import concat

    if not d.factors:
        return d
    elements = gm.family.elements
    x1 = elements[d.factors[0]]
    f1 = gm.family.index(gm.phi(x1, -d.m))
    f2 = gm.family.index(gm.complement(elements[d.factors[-1]]))
    p = None if f2 is None else gm.meet(f1, f2)
    if p is None:
        return d
    w = gm.ctx.left_quotient(gm.phi(elements[p], d.m), x1)
    for i in d.factors[1:] + (p,):
        w = concat(w, elements[i])
    factors = gm.family.normalize(w).factors
    lead = 0
    while lead < len(factors) and gm.compl[factors[lead]] is None:
        lead += 1
    return DeltaNormal(gm, d.m + lead, factors[lead:], d.source, d.target)


def word_sliding_circuits(gm, g):
    """
    (keys, edges) of the sliding-circuit set of the signed word g: slide to
    a circuit, then conjugate every node by every nontrivial divisor of Δ as
    a signed word, Δ-normalize, re-slide, and keep the extremal layer.
    """
    from garsidekit.bounded import delta_normalize
    from garsidekit.core import concat_signed, free_reduce, signed_from_word

    def key(d):
        return (d.m, d.factors, d.source)

    def to_circuit(d):
        seen = set()
        while key(d) not in seen:
            seen.add(key(d))
            d = _word_slide(gm, d)
        return d

    edges = {}
    nodes = {}

    def add_circuit(d):
        added = []
        while key(d) not in nodes:
            nxt = _word_slide(gm, d)
            nodes[key(d)] = d
            edges[key(d)] = key(nxt)
            added.append(key(d))
            d = nxt
        return added

    limit = to_circuit(delta_normalize(gm, g))
    bounds = (limit.inf, limit.sup)
    frontier = add_circuit(limit)
    while frontier:
        nxt_frontier = []
        for k in sorted(frontier):
            node = nodes[k]
            for s in gm.divisors.get(node.source, ()):
                sw = signed_from_word(gm.family.elements[s])
                cand = free_reduce(
                    concat_signed(concat_signed(sw.inverse(), node.signed_word()), sw)
                )
                lim = to_circuit(delta_normalize(gm, cand))
                if (lim.inf, lim.sup) == bounds and key(lim) not in nodes:
                    nxt_frontier.extend(add_circuit(lim))
        frontier = nxt_frontier
    return set(nodes), edges


def plain_slide_to_circuit(gm, d):
    """
    The memo-free walk that `garsidekit.conjugacy.slide_to_circuit` made
    before it shared slides: iterate sliding until a state repeats.  Returns
    (circuit entry, conjugator letters); raises `ExplosionGuard` once the
    trail has more distinct states than the node budget.
    """
    from garsidekit.conjugacy import cyclic_sliding, preferred_prefix
    from garsidekit.errors import ExplosionGuard

    budget = gm.ctx.limits.node_budget
    seen = {}
    trail = [d]
    prefixes = []
    cur = d
    while (cur.m, cur.factors) not in seen:
        seen[(cur.m, cur.factors)] = len(trail) - 1
        if len(trail) > budget:
            raise ExplosionGuard("sliding did not reach a circuit within budget")
        prefixes.append(preferred_prefix(gm, cur).letters)
        cur = cyclic_sliding(gm, cur)
        trail.append(cur)
    entry = seen[(cur.m, cur.factors)]
    return trail[entry], tuple(g for p in prefixes[:entry] for g in p)


def two_set_conjugate(gm, g, h):
    """
    Conjugacy as `garsidekit.conjugacy.are_conjugate` decided it before it
    answered "yes" from one set: build both sliding-circuit sets and
    intersect their keys.  Returns a witness for the least common key, or
    None when the sets are disjoint.
    """
    from garsidekit.conjugacy import sliding_circuit_set
    from garsidekit.core import concat_signed, free_reduce

    sg = sliding_circuit_set(gm, g)
    sh = sliding_circuit_set(gm, h)
    common = sg.keys() & sh.keys()
    if not common:
        return None
    key = min(common)
    cg = sg.node_for(key).conjugator
    ch = sh.node_for(key).conjugator
    return free_reduce(concat_signed(cg, ch.inverse()))


# --- list-splice reversing ------------------------------------------------


def splice_reverse(comp, w, fuel):
    """
    Right-reverse the signed word w by splicing each cell's output into a
    letter list, leftmost -+ pattern first.  Returns (pos, neg, cells) with
    cells a tuple of ReversingCell, or the Stuck / Diverged failure.
    """
    from garsidekit.core import Word
    from garsidekit.reversing import Diverged, ReversingCell, Stuck

    letters = list(w.letters)
    cells = []
    i = 0
    while True:
        while i < len(letters) - 1 and not (letters[i][1] < 0 and letters[i + 1][1] > 0):
            i += 1
        if i >= len(letters) - 1:
            break
        t, s = letters[i][0], letters[i + 1][0]
        ts = comp.entry(t, s)
        st = comp.entry(s, t)
        if ts is None or st is None:
            return Stuck((t, s))
        if len(cells) >= fuel:
            return Diverged(len(cells))
        cells.append(ReversingCell(t, s, ts, st))
        replacement = [(g, +1) for g in ts.letters]
        replacement += [(g, -1) for g in reversed(st.letters)]
        letters[i : i + 2] = replacement
        i = max(0, i - 1)
    split = len(letters)
    for k, (_, e) in enumerate(letters):
        if e < 0:
            split = k
            break
    pos_ids = tuple(g for g, _ in letters[:split])
    neg_ids = tuple(g for g, _ in reversed(letters[split:]))
    mid = w.source
    if pos_ids:
        mid = comp.presentation.generators[pos_ids[-1]].target
    return Word(pos_ids, w.source, mid), Word(neg_ids, w.target, mid), tuple(cells)


# --- dense germ validation ------------------------------------------------


def dense_validate_germ(g):
    """
    Check the germ axioms over all pairs and all composable triples:
    identities are neutral, products respect endpoints, and associativity
    holds in both mixed forms.  Returns the package's Valid / Violation.
    """
    from garsidekit.germs import Valid, Violation

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

    checked = 0
    n = g.size
    for r in range(n):
        for s in range(n):
            if not g.composable(r, s):
                continue
            rs = prod.get((r, s))
            for t in range(n):
                if not g.composable(s, t):
                    continue
                checked += 1
                st = prod.get((s, t))
                if rs is not None:
                    rst = prod.get((rs, t))
                    if rst is not None:
                        if st is None or prod.get((r, st)) != rst:
                            return Violation("associativity", (r, s, t))
                if st is not None:
                    r_st = prod.get((r, st))
                    if r_st is not None:
                        if rs is None or prod.get((rs, t)) != r_st:
                            return Violation("associativity", (r, s, t))
    return Valid(checked)


@functools.lru_cache(maxsize=8)
def _dense_left_divisors(g) -> list[frozenset[int]]:
    """left[t]: every x with x·y = t for some y, read off the product table."""
    left: list[set[int]] = [set() for _ in range(g.size)]
    for (x, _), t in g.product.items():
        left[t].add(x)
    return [frozenset(d) for d in left]


def dense_germ_head(g, s, t):
    """
    H(s, t) by search over the product table: the x with s·x defined and x
    dividing t that every other such x divides; None when there is none.
    """
    left = _dense_left_divisors(g)
    family = [x for x in left[t] if (s, x) in g.product]
    if not family:
        return None
    # a greatest element has every member below it, so the most divisors
    top = max(family, key=lambda x: len(left[x]))
    return top if left[top].issuperset(family) else None


# --- word-level Garside-map arms --------------------------------------------


def word_complement_index(gm, i):
    """∂ of divisor i through a context left quotient into Δ and a family lookup."""
    from garsidekit.errors import INCONCLUSIVE, GarsideError

    elements = gm.family.elements
    q = gm.ctx.left_quotient(elements[i], gm.delta_word(elements[i].source))
    if q is None or q is INCONCLUSIVE:
        raise GarsideError("divisor fails to divide its bound")
    out = None if q.is_empty else gm.family.index(q)
    if out is None and not q.is_empty:
        raise GarsideError("complement left the family")
    return out


def word_phi_index(gm, i):
    """φ(i) = ∂∂i, with φ(Δ(x)) = Δ(target of Δ(x))."""
    c = word_complement_index(gm, i)
    if c is None:
        return gm.delta[gm.family.elements[i].target]
    return word_complement_index(gm, c)


def word_quotient_index(gm, i, j):
    """The divisor i\\j through a context left quotient; raises when i does not divide j."""
    from garsidekit.errors import INCONCLUSIVE, GarsideError

    if i == j:
        return None
    elements = gm.family.elements
    q = gm.ctx.left_quotient(elements[i], elements[j])
    if q is None or q is INCONCLUSIVE:
        raise GarsideError("divisor does not divide: " + gm.ctx.show(elements[j]))
    out = None if q.is_empty else gm.family.index(q)
    if out is None and not q.is_empty:
        raise GarsideError("quotient of two divisors left the family")
    return out


def word_normal_factors(gm, seq):
    """
    (leading Δ count, remaining factors) of a sequence of divisors, from the
    family's head-extraction normal form of the concatenated word.
    """
    from garsidekit.core import Word

    if not seq:
        return 0, ()
    elements = gm.family.elements
    letters = tuple(g for i in seq for g in elements[i].letters)
    w = Word(letters, elements[seq[0]].source, elements[seq[-1]].target)
    factors = gm.family.normalize(w).factors
    lead = 0
    while lead < len(factors) and word_complement_index(gm, factors[lead]) is None:
        lead += 1
    return lead, factors[lead:]


def word_meet(gm, i, j):
    """Greatest common divisor of divisors i and j in the divisor-list order."""
    from garsidekit.errors import GarsideError

    family = gm.family
    obj = family.elements[i].source
    common = [
        d for d in gm.divisors[obj] if family._divides(d, i) and family._divides(d, j)
    ]
    for c in common:
        if all(family._divides(d, c) for d in common):
            return c
    if common:
        raise GarsideError("common divisors have no greatest element")
    return None


def _letterwise_phi(gm, g, power):
    """φ^power(g) letter by letter; a letter outside Div(Δ) raises NotADivisor."""
    from garsidekit.core import Word, empty_word
    from garsidekit.errors import NotADivisor

    if g.is_empty:
        return empty_word(gm.phi_object(g.source, power))
    gens = gm.ctx.presentation.generators
    elements = gm.family.elements
    letters: list[int] = []
    for letter in g.letters:
        i = gm.family.index(gm.ctx.presentation.word([letter]))
        if i is None:
            raise NotADivisor(gens[letter].name)
        letters.extend(elements[gm.phi_index(i, power)].letters)
    return Word(tuple(letters), gens[letters[0]].source, gens[letters[-1]].target)


def padded_delta_normalize(gm, w):
    """
    Maximal-inf Δ-normal form through words: express w as d⁻¹·n, pad d to
    Δ^p with p the length of d's normal form, divide Δ^p by d in the
    context, and commute Δ⁻ᵖ to the front through φ⁻ᵖ.
    """
    from garsidekit import reversing as rev
    from garsidekit.bounded import DeltaNormal
    from garsidekit.core import Word, concat, empty_word, signed_from_word
    from garsidekit.errors import INCONCLUSIVE, GarsideError, UnsupportedError
    from garsidekit.garside import left_fraction

    if isinstance(w, Word):
        w = signed_from_word(w)
    ctx = gm.ctx
    family = gm.family
    if w.is_positive:
        shift = 0
        n = w.positive_part()
    else:
        fr = left_fraction(ctx, w)
        if isinstance(fr, rev.Stuck):
            raise UnsupportedError("no fraction available: missing common multiples")
        if isinstance(fr, rev.Diverged):
            raise UnsupportedError("fraction search ran out of fuel")
        d, npart = fr
        p = len(family.normalize(d).factors)
        if p == 0:
            shift = 0
            n = npart
        else:
            dpow = empty_word(d.source)
            for _ in range(p):
                dpow = concat(dpow, gm.delta_word(dpow.target))
            e = ctx.left_quotient(d, dpow)
            if e is None or e is INCONCLUSIVE:
                raise GarsideError("padding failed: d does not divide its Δ-power")
            shift = -p
            n = concat(_letterwise_phi(gm, e, -p), npart)
    lead, factors = gm.strip_delta(family.normalize(n).factors)
    return DeltaNormal(gm, shift + lead, factors, w.source, w.target)


# --- eager germ presentation ---------------------------------------------------


def eager_germ_category(g):
    """
    The category presented by the germ, with every relation r*s = t built
    as words and checked by the `Presentation` constructor at the call.
    """
    from garsidekit.core import Generator, Presentation, Word
    from garsidekit.errors import ValidationError

    nontrivial = [e for e in g.elements if not g.is_identity(e.id)]
    gen_of_elem: dict[int, int] = {}
    gens: list[Generator] = []
    for e in nontrivial:
        gen_of_elem[e.id] = len(gens)
        gens.append(Generator(len(gens), e.name, e.source, e.target))
    rels = []
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
    return Presentation(g.objects, gens, rels)
