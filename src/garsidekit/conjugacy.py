"""
Conjugacy over a bounded Garside context: cycling, decycling, cyclic
sliding, sliding-circuit sets, and the conjugacy decision procedure.

Conventions (they differ across the literature; this engine fixes one and
tests assert only convention-independent facts): for g = Δ^m·x₁⋯x_k,

    cycling    conjugates by ι(g) = φ^{-m}(x₁), giving Δ^m·x₂⋯x_k·φ^{-m}(x₁);
    decycling  conjugates by x_k^{-1},         giving Δ^m·φ^m(x_k)·x₁⋯x_{k-1};
    sliding    conjugates by the preferred prefix p = gcd(φ^{-m}(x₁), ∂x_k).

All three run on the factor table: an element is the pair (m, factors) of
family indices, and each operation renormalises one short index sequence
(`GarsideMap.normal_factors`) and strips its leading Δs.  A slide uses
Δ·φ(g) = g·Δ to move p across Δ^m,

    p⁻¹·Δ^m·x₁⋯x_k·p = Δ^m·(φ^m(p)\\x₁)·x₂⋯x_k·p,

which stays positive because p divides φ^{-m}(x₁).  All three stay inside
the conjugacy class; iterated sliding reaches a circuit because the state
space (Δ-normal keys at fixed inf/sup window) is finite.  In a category
with several objects, conjugating a loop at x by c: x → y gives a loop at
y, so each operation moves the state to its conjugator's other end, and a
state's key (m, factors, object) keeps Δ^m at two objects apart.

The sliding-circuit set is closed under conjugation by divisors of Δ, so a
BFS over divisor conjugations that slides every candidate to its circuit and
keeps the extremal (inf, sup) layer enumerates it.  With s⁻¹ = ∂s·Δ⁻¹ the
candidate for a divisor s is again positive after Δ^{m-1}:

    s⁻¹·Δ^m·x₁⋯x_k·s = Δ^{m-1}·∂φ^{m-1}(s)·x₁⋯x_k·s.

Candidates of one set land on the same states again and again, so the BFS
shares a slide memo (`SlideMemo`) among them.  `step` maps a state's key
(m, factors) to its slide and its preferred prefix, so each state is slid
at most once per set.  `entry` maps a state whose walk has finished to its
entry, the first state on its sliding trail that lies on a circuit, and to
the number of distinct states on that trail.  A walk stops at the first
state whose entry is known; the node budget still counts the whole trail,
and the conjugator is replayed from the prefixes in `step`.  It becomes a
signed word only when the candidate's circuit is new.

Conjugators are positive products of divisors; each node's conjugator is
assembled as a signed word once, when the node is added, and every one is
re-verified against the root before the set is returned.

`are_conjugate` builds the set of g only, then slides h to its circuit
entry.  Sliding from any element ends in its sliding-circuit set, so g and
h are conjugate exactly when that entry is a node of SC(g); a "yes" is
certified by its re-verified witness.  Otherwise SC(h) is built as well and
the two sets are intersected, so every "no" rests on both sets and their
checks.
"""

from __future__ import annotations

import dataclasses
from collections.abc import KeysView

from .bounded import DeltaNormal, GarsideMap, delta_normalize
from .core import (
    SignedWord,
    Word,
    concat_signed,
    empty_word,
    free_reduce,
    signed_from_word,
)
from .errors import ExplosionGuard, GarsideError


def conj(ctx, g: SignedWord, c: SignedWord) -> SignedWord:
    """c^-1 * g * c, freely reduced."""
    return free_reduce(concat_signed(concat_signed(c.inverse(), g), c))


def signed_equal(gm: GarsideMap, u: SignedWord, v: SignedWord) -> bool:
    """Groupoid equality via Δ-normal forms."""
    du = delta_normalize(gm, u)
    dv = delta_normalize(gm, v)
    return du.source == dv.source and du.m == dv.m and du.factors == dv.factors


def _renormalized(gm: GarsideMap, obj: int, m: int, seq) -> DeltaNormal:
    """Δ^m·seq as a Δ-normal form of a loop at obj."""
    lead, factors = gm.normal_factors(seq)
    return DeltaNormal(gm, m + lead, factors, obj, obj)


def cycling(gm: GarsideMap, d: DeltaNormal) -> DeltaNormal:
    """Conjugate by ι(d) = φ^{-m}(x₁); fixed point when there are no factors."""
    if not d.factors:
        return d
    iota = gm.phi_index(d.factors[0], -d.m)
    obj = gm.family.elements[iota].target
    return _renormalized(gm, obj, d.m, d.factors[1:] + (iota,))


def decycling(gm: GarsideMap, d: DeltaNormal) -> DeltaNormal:
    """Conjugate by x_k^{-1}; fixed point when there are no factors."""
    if not d.factors:
        return d
    head = gm.phi_index(d.factors[-1], d.m)
    obj = gm.family.elements[d.factors[-1]].source
    return _renormalized(gm, obj, d.m, (head,) + d.factors[:-1])


def _prefix(gm: GarsideMap, d: DeltaNormal) -> int | None:
    """Index of the preferred prefix; None is the identity."""
    if not d.factors:
        return None
    f2 = gm.compl[d.factors[-1]]
    if f2 is None:  # ∂x_k trivial would mean x_k = Δ, excluded from factors
        return None
    return gm.meet(gm.phi_index(d.factors[0], -d.m), f2)


def preferred_prefix(gm: GarsideMap, d: DeltaNormal) -> Word:
    """gcd of φ^{-m}(x₁) and ∂x_k; the empty word when there are no factors."""
    p = _prefix(gm, d)
    return empty_word(d.source) if p is None else gm.family.elements[p]


_UNSET = object()


def cyclic_sliding(gm: GarsideMap, d: DeltaNormal, p=_UNSET) -> DeltaNormal:
    """
    Conjugate by the preferred prefix; `p` is its index when the caller
    already has it (None for the identity).
    """
    if p is _UNSET:
        p = _prefix(gm, d)
    if p is None:
        return d
    # p divides φ^{-m}(x₁), so q = φ^m(p)\x₁ exists (a GarsideError otherwise)
    q = gm.left_quotient_index(gm.phi_index(p, d.m), d.factors[0])
    head = () if q is None else (q,)
    obj = gm.family.elements[p].target
    return _renormalized(gm, obj, d.m, head + d.factors[1:] + (p,))


# (m, factors, object): Δ^m with no factors is one state per object
Key = tuple[int, tuple[int, ...], int]


def _key(d: DeltaNormal) -> Key:
    return (d.m, d.factors, d.source)


def _product(gm: GarsideMap, idxs, source: int) -> SignedWord:
    """The positive signed word of a product of divisors, from `source`."""
    elements = gm.family.elements
    letters = tuple((g, +1) for i in idxs for g in elements[i].letters)
    target = elements[idxs[-1]].target if idxs else source
    return SignedWord(letters, source, target)


class SlideMemo:
    """
    Slides shared by the walks of one sliding-circuit set.  `step` maps a
    key to (its slide, its preferred prefix); `entry` maps a key whose walk
    has finished to (the key of the first state on its trail that lies on a
    circuit, the number of distinct states on that trail).  Every state on
    the trail of a key in `entry` is in `entry` as well.
    """

    __slots__ = ("step", "entry")

    def __init__(self) -> None:
        self.step: dict[Key, tuple[DeltaNormal, int | None]] = {}
        self.entry: dict[Key, tuple[Key, int]] = {}

    def slide(self, gm: GarsideMap, d: DeltaNormal) -> tuple[DeltaNormal, int | None]:
        """(slide of d, preferred prefix of d); slides d only on a miss."""
        key = _key(d)
        got = self.step.get(key)
        if got is None:
            p = _prefix(gm, d)
            got = self.step[key] = (cyclic_sliding(gm, d, p), p)
        return got


def _walk(gm: GarsideMap, d: DeltaNormal, memo: SlideMemo) -> tuple[Key, int]:
    """
    Slide from d until a state repeats or has a known entry, record the
    entry of every state passed, and return d's.  Raises when the trail
    from d has more distinct states than the node budget.
    """
    budget = gm.ctx.limits.node_budget
    entry = memo.entry
    trail: list[Key] = []
    pos: dict[Key, int] = {}
    cur, key = d, _key(d)
    while key not in entry and key not in pos:
        pos[key] = len(trail)
        trail.append(key)
        if len(trail) > budget:
            raise ExplosionGuard("sliding did not reach a circuit within budget")
        cur = memo.slide(gm, cur)[0]
        key = _key(cur)
    if key in pos:  # the trail closed on itself at its circuit entry
        first, states = pos[key], len(trail)
        for i, k in enumerate(trail):
            entry[k] = (key, states - i) if i < first else (k, states - first)
    else:
        stop, states = entry[key]
        states += len(trail)
        if states > budget:
            raise ExplosionGuard("sliding did not reach a circuit within budget")
        for i, k in enumerate(trail):
            entry[k] = (stop, states - i)
    return entry[trail[0]]


def slide_to_circuit(gm: GarsideMap, d: DeltaNormal, memo: SlideMemo | None = None):
    """
    Iterate sliding until a repeat; returns (circuit entry, conjugator from
    d to it).  The conjugator collects the preferred prefixes used.

    With a shared memo the walk stops at the first state whose entry is
    known, and the conjugator comes back as the tuple of prefix indices
    (`_product` builds the word).  Either way the node budget bounds the
    distinct states on the whole trail from d.
    """
    shared = memo is not None
    if not shared:
        memo = SlideMemo()
    key = _key(d)
    known = memo.entry.get(key)
    if known is None:
        known = _walk(gm, d, memo)
    elif known[1] > gm.ctx.limits.node_budget:
        raise ExplosionGuard("sliding did not reach a circuit within budget")
    # replay from d; a trivial prefix is a fixed point, so it never shows here
    stop = known[0]
    step = memo.step
    prefixes = []
    cur = d
    while key != stop:
        cur, p = step[key]
        prefixes.append(p)
        key = _key(cur)
    if shared:
        return cur, tuple(prefixes)
    return cur, _product(gm, prefixes, d.source)


def circuit_of(gm: GarsideMap, d: DeltaNormal, memo: SlideMemo | None = None):
    """
    The sliding circuit through a point known to lie on one: iterate sliding
    back around to the start, collecting (node, conjugator-from-d) pairs.
    """
    if memo is None:
        memo = SlideMemo()
    out = [(d, signed_from_word(empty_word(d.source)))]
    prefixes: list[int] = []
    cur = d
    while True:
        nxt, p = memo.slide(gm, cur)
        if _key(nxt) == _key(d):
            return out
        prefixes.append(p)
        out.append((nxt, _product(gm, prefixes, d.source)))
        cur = nxt


@dataclasses.dataclass(frozen=True)
class ConjugacyOrbitNode:
    element: DeltaNormal
    conjugator: SignedWord  # from the root element to this node

    @property
    def inf(self) -> int:
        return self.element.inf

    @property
    def sup(self) -> int:
        return self.element.sup


@dataclasses.dataclass(frozen=True)
class SlidingCircuitSet:
    root: SignedWord
    nodes: tuple[ConjugacyOrbitNode, ...]
    edges: dict[Key, Key]
    _by_key: dict[Key, ConjugacyOrbitNode] = dataclasses.field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        by_key = {_key(n.element): n for n in self.nodes}
        object.__setattr__(self, "_by_key", by_key)

    def keys(self) -> KeysView[Key]:
        return self._by_key.keys()

    def node_for(self, key) -> ConjugacyOrbitNode:
        return self._by_key[key]


def sliding_circuit_set(gm: GarsideMap, g: SignedWord | Word) -> SlidingCircuitSet:
    """
    BFS closure: slide g to a circuit, then conjugate every node by each
    nontrivial divisor of Δ, slide, and keep nodes on circuits with the
    same (inf, sup).  All walks share one slide memo.  Deterministic order;
    every stored conjugator is verified against the root before the set is
    returned.
    """
    if isinstance(g, Word):
        g = signed_from_word(g)
    ctx = gm.ctx
    budget = ctx.limits.node_budget
    elements = gm.family.elements
    memo = SlideMemo()
    d0 = delta_normalize(gm, g)
    limit, prefixes = slide_to_circuit(gm, d0, memo)
    inf0, sup0 = limit.inf, limit.sup

    nodes: dict[Key, ConjugacyOrbitNode] = {}
    edges: dict[Key, Key] = {}

    # nothing to seed into memo.entry: the walk that returned `point`
    # recorded its whole circuit there
    def add_circuit(point: DeltaNormal, c_to_point: SignedWord) -> list:
        added = []
        circuit = circuit_of(gm, point, memo)
        for pos, (node, c_extra) in enumerate(circuit):
            key = _key(node)
            edges[key] = _key(circuit[(pos + 1) % len(circuit)][0])
            if key in nodes:
                continue
            nodes[key] = ConjugacyOrbitNode(node, concat_signed(c_to_point, c_extra))
            added.append(key)
            if len(nodes) > budget:
                raise ExplosionGuard("sliding-circuit set exceeded the node budget")
        return added

    frontier = add_circuit(limit, _product(gm, prefixes, d0.source))
    while frontier:
        next_frontier: list = []
        for key in sorted(frontier):
            node = nodes[key]
            m, factors, _ = key
            for s in gm.divisors.get(node.element.source, ()):
                # s⁻¹·Δ^m·x₁⋯x_k·s = Δ^{m-1}·∂φ^{m-1}(s)·x₁⋯x_k·s
                ds = gm.compl[gm.phi_index(s, m - 1)]
                seq = factors + (s,) if ds is None else (ds,) + factors + (s,)
                obj = elements[s].target
                lead, cfactors = gm.normal_factors(seq)
                dcand = DeltaNormal(gm, m - 1 + lead, cfactors, obj, obj)
                lim, prefixes = slide_to_circuit(gm, dcand, memo)
                if (lim.inf, lim.sup) != (inf0, sup0):
                    if lim.inf > inf0 or lim.sup < sup0:
                        raise GarsideError(
                            "sliding circuits disagree on extremal inf/sup"
                        )
                    continue
                if _key(lim) in nodes:
                    continue
                c_to_s = signed_from_word(elements[s])
                c_slide = _product(gm, prefixes, obj)
                c_to_lim = concat_signed(concat_signed(node.conjugator, c_to_s), c_slide)
                next_frontier.extend(add_circuit(lim, c_to_lim))
        frontier = next_frontier

    for node in nodes.values():
        if not signed_equal(
            gm, conj(ctx, g, node.conjugator), node.element.signed_word()
        ):
            raise GarsideError("recorded conjugator failed verification")

    ordered = tuple(
        sorted(nodes.values(), key=lambda n: n.element.display())
    )
    return SlidingCircuitSet(g, ordered, edges)


@dataclasses.dataclass(frozen=True)
class Yes:
    witness: SignedWord


@dataclasses.dataclass(frozen=True)
class No:
    pass


def are_conjugate(gm: GarsideMap, g: SignedWord | Word, h: SignedWord | Word):
    """
    Decide conjugacy by sliding-circuit sets: "yes" when h's circuit entry
    is a node of SC(g), otherwise by intersecting SC(g) and SC(h).  The
    witness is assembled from the recorded conjugators and re-verified on
    every call.
    """
    if isinstance(g, Word):
        g = signed_from_word(g)
    if isinstance(h, Word):
        h = signed_from_word(h)
    sg = sliding_circuit_set(gm, g)
    lim, ch = slide_to_circuit(gm, delta_normalize(gm, h))
    if _key(lim) in sg.keys():
        cg = sg.node_for(_key(lim)).conjugator
    else:
        sh = sliding_circuit_set(gm, h)
        common = sg.keys() & sh.keys()
        if not common:
            return No()
        key = min(common)
        cg = sg.node_for(key).conjugator
        ch = sh.node_for(key).conjugator
    witness = free_reduce(concat_signed(cg, ch.inverse()))
    if not signed_equal(gm, conj(gm.ctx, g, witness), h):
        raise GarsideError("assembled conjugacy witness failed verification")
    return Yes(witness)


__all__ = [
    "ConjugacyOrbitNode",
    "SlideMemo",
    "SlidingCircuitSet",
    "Yes",
    "No",
    "conj",
    "signed_equal",
    "cycling",
    "decycling",
    "preferred_prefix",
    "cyclic_sliding",
    "slide_to_circuit",
    "circuit_of",
    "sliding_circuit_set",
    "are_conjugate",
]
