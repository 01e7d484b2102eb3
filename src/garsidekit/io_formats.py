"""
Text formats for contexts.

Structure files describe a presentation, with an optional [garside]
directive for the family:

    [objects]          optional; omitted means one object named *
    [generators]       "name : src -> tgt", or a bare name (single object)
    [relations]        "lhs = rhs", sides are space-separated tokens
    [garside]          one of "auto" | "family: w1, w2, ..." | "delta: word"

Germ files describe a finite partial product table:

    [elements]         "name : src -> tgt"
    [identity]         one element name per object
    [product]          "r * s = t"; pairs not listed are undefined
                       (identity products are implied and omitted on output)

Both formats reject unknown sections and report line numbers on every
error.  Emission is canonical: parse -> emit -> parse is the identity and a
second emit is byte-identical.
"""

from __future__ import annotations

import dataclasses
import re

from . import reversing as rev
from .bounded import (
    GarsideMap,
    Unbounded,
    _divisor_family,
    build_garside_map,
    germ_family,
)
from .config import DEFAULT_LIMITS, Limits
from .contexts import PresentedContext
from .core import (
    CategoryContext,
    Generator,
    ObjectId,
    Presentation,
    Word,
    _true,
)
from .errors import INCONCLUSIVE, ParseError, UnsupportedError, ValidationError
from .garside import GarsideFamily
from .germs import Germ, GermContext, GermElement

_NAME = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
# germ element names also allow "1" and friends; only the nontrivial
# elements become generators and must satisfy _NAME (checked at build)
_ELEMENT_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_]*$")

_STRUCTURE_SECTIONS = ("objects", "generators", "relations", "garside")
_GERM_SECTIONS = ("elements", "identity", "product")


@dataclasses.dataclass(frozen=True)
class StructureDoc:
    objects: tuple[str, ...]
    generators: tuple[tuple[str, str, str], ...]  # (name, src, tgt)
    relations: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...]
    garside: tuple | None  # ("auto",) | ("family", words) | ("delta", word)


@dataclasses.dataclass(frozen=True)
class GermDoc:
    elements: tuple[tuple[str, str, str], ...]  # (name, src, tgt)
    identities: tuple[str, ...]
    products: tuple[tuple[str, str, str], ...]  # (r, s, t)


# -- low-level line scanning -----------------------------------------------------


def _sections(text: str, allowed) -> dict[str, list[tuple[int, str]]]:
    """Split into sections; values are (line_number, stripped_line) pairs."""
    out: dict[str, list[tuple[int, str]]] = {}
    current: str | None = None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ParseError("malformed section header", line=ln)
            name = line[1:-1].strip()
            if name not in allowed:
                raise ParseError(f"unknown section [{name}]", line=ln)
            if name in out:
                raise ParseError(f"duplicate section [{name}]", line=ln)
            out[name] = []
            current = name
            continue
        if current is None:
            raise ParseError("content before the first section header", line=ln)
        out[current].append((ln, line))
    return out


def sniff(text: str) -> str:
    """'germ' or 'structure', from the first section header."""
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if name in _GERM_SECTIONS:
                return "germ"
            if name in _STRUCTURE_SECTIONS:
                return "structure"
            raise ParseError(f"unknown section [{name}]", line=ln)
        raise ParseError("expected a section header", line=ln)
    raise ParseError("empty file", line=1)


def _check_name(tok: str, ln: int, what: str) -> str:
    if not _NAME.match(tok):
        raise ParseError(f"invalid {what} name {tok!r}", line=ln)
    return tok


def _split_endpoints(body: str, ln: int) -> tuple[str, str]:
    if "->" not in body:
        raise ParseError("expected 'src -> tgt'", line=ln)
    src, _, tgt = body.partition("->")
    src, tgt = src.strip(), tgt.strip()
    if not src or not tgt or " " in src or " " in tgt:
        raise ParseError("expected 'src -> tgt'", line=ln)
    return src, tgt


# -- structure files ---------------------------------------------------------------


def parse_structure(text: str) -> StructureDoc:
    secs = _sections(text, _STRUCTURE_SECTIONS)
    if "generators" not in secs:
        raise ParseError("missing [generators] section", line=1)

    objects: list[str] = []
    for ln, line in secs.get("objects", []):
        if " " in line:
            raise ParseError("one object name per line", line=ln)
        name = _check_name(line, ln, "object")
        if name in objects:
            raise ParseError(f"duplicate object {name!r}", line=ln)
        objects.append(name)
    if not objects:
        objects = ["*"]

    generators: list[tuple[str, str, str]] = []
    seen_gens: set[str] = set()
    for ln, line in secs["generators"]:
        if ":" in line:
            name, _, rest = line.partition(":")
            name = name.strip()
            src, tgt = _split_endpoints(rest.strip(), ln)
        else:
            if " " in line:
                raise ParseError("one generator per line", line=ln)
            if len(objects) != 1:
                raise ParseError(
                    "bare generator name needs a single object", line=ln
                )
            name, src, tgt = line, objects[0], objects[0]
        _check_name(name, ln, "generator")
        if name == "1" or name in seen_gens:
            raise ParseError(f"bad or duplicate generator {name!r}", line=ln)
        for obj in (src, tgt):
            if obj not in objects:
                raise ParseError(f"unknown object {obj!r}", line=ln)
        seen_gens.add(name)
        generators.append((name, src, tgt))
    if not generators:
        raise ParseError("at least one generator required", line=1)

    def side(toks: list[str], ln: int) -> tuple[str, ...]:
        if not toks:
            raise ParseError("relation side must be a nonempty word", line=ln)
        for pos, t in enumerate(toks, start=1):
            if t not in seen_gens:
                raise ParseError(
                    f"unknown generator {t!r} (token {pos})", line=ln
                )
        return tuple(toks)

    relations: list[tuple[tuple[str, ...], tuple[str, ...]]] = []
    for ln, line in secs.get("relations", []):
        if line.count("=") != 1:
            raise ParseError("relation must contain exactly one '='", line=ln)
        lhs, _, rhs = line.partition("=")
        relations.append((side(lhs.split(), ln), side(rhs.split(), ln)))

    garside: tuple | None = None
    glines = secs.get("garside", [])
    if len(glines) > 1:
        raise ParseError("the [garside] section takes a single line", line=glines[1][0])
    if glines:
        ln, line = glines[0]
        if line == "auto":
            garside = ("auto",)
        elif line.startswith("family:"):
            words = []
            for part in line[len("family:") :].split(","):
                toks = part.split()
                if not toks:
                    raise ParseError("empty word in family list", line=ln)
                words.append(side(toks, ln))
            garside = ("family", tuple(words))
        elif line.startswith("delta:"):
            garside = ("delta", side(line[len("delta:") :].split(), ln))
        else:
            raise ParseError(
                "expected 'auto', 'family: ...' or 'delta: ...'", line=ln
            )

    return StructureDoc(
        tuple(objects), tuple(generators), tuple(relations), garside
    )


def structure_presentation(doc: StructureDoc) -> Presentation:
    obj_ids = {name: i for i, name in enumerate(doc.objects)}
    objects = tuple(ObjectId(i, name) for name, i in obj_ids.items())
    gens = tuple(
        Generator(i, name, obj_ids[src], obj_ids[tgt])
        for i, (name, src, tgt) in enumerate(doc.generators)
    )
    gen_ids = {g.name: g.id for g in gens}

    def word(tokens: tuple[str, ...]) -> Word:
        ids = tuple(gen_ids[t] for t in tokens)
        return Word(ids, gens[ids[0]].source, gens[ids[-1]].target)

    relations = tuple((word(l), word(r)) for l, r in doc.relations)
    return Presentation(objects, gens, relations)


def emit_structure(doc: StructureDoc) -> str:
    lines: list[str] = []
    monoid = doc.objects == ("*",)
    if not monoid:
        lines.append("[objects]")
        lines.extend(doc.objects)
        lines.append("")
    lines.append("[generators]")
    for name, src, tgt in doc.generators:
        lines.append(name if monoid else f"{name} : {src} -> {tgt}")
    if doc.relations:
        lines.append("")
        lines.append("[relations]")
        for lhs, rhs in doc.relations:
            lines.append(f"{' '.join(lhs)} = {' '.join(rhs)}")
    if doc.garside is not None:
        lines.append("")
        lines.append("[garside]")
        if doc.garside[0] == "auto":
            lines.append("auto")
        elif doc.garside[0] == "family":
            lines.append(
                "family: " + ", ".join(" ".join(w) for w in doc.garside[1])
            )
        else:
            lines.append("delta: " + " ".join(doc.garside[1]))
    return "\n".join(lines) + "\n"


# -- germ files ---------------------------------------------------------------------


def parse_germ(text: str) -> GermDoc:
    secs = _sections(text, _GERM_SECTIONS)
    for required in ("elements", "identity"):
        if required not in secs:
            raise ParseError(f"missing [{required}] section", line=1)

    elements: list[tuple[str, str, str]] = []
    seen: set[str] = set()
    for ln, line in secs["elements"]:
        if ":" not in line:
            raise ParseError("expected 'name : src -> tgt'", line=ln)
        name, _, rest = line.partition(":")
        name = name.strip()
        if not _ELEMENT_NAME.match(name):
            raise ParseError(f"invalid element name {name!r}", line=ln)
        if name in seen:
            raise ParseError(f"duplicate element {name!r}", line=ln)
        src, tgt = _split_endpoints(rest.strip(), ln)
        seen.add(name)
        elements.append((name, src, tgt))
    if not elements:
        raise ParseError("at least one element required", line=1)

    identities: list[str] = []
    for ln, line in secs["identity"]:
        if " " in line:
            raise ParseError("one identity name per line", line=ln)
        if line not in seen:
            raise ParseError(f"unknown element {line!r}", line=ln)
        if line in identities:
            raise ParseError(f"duplicate identity {line!r}", line=ln)
        identities.append(line)

    products: list[tuple[str, str, str]] = []
    for ln, line in secs.get("product", []):
        m = re.match(r"^(\S+)\s*\*\s*(\S+)\s*=\s*(\S+)$", line)
        if not m:
            raise ParseError("expected 'r * s = t'", line=ln)
        r, s, t = m.group(1), m.group(2), m.group(3)
        for tok in (r, s, t):
            if tok not in seen:
                raise ParseError(f"unknown element {tok!r}", line=ln)
        products.append((r, s, t))

    return GermDoc(tuple(elements), tuple(identities), tuple(products))


def germ_from_doc(doc: GermDoc) -> Germ:
    objects: list[str] = []
    for _, src, tgt in doc.elements:
        for obj in (src, tgt):
            if obj not in objects:
                objects.append(obj)
    obj_ids = {name: i for i, name in enumerate(objects)}
    elem_ids = {name: i for i, (name, _, _) in enumerate(doc.elements)}
    elements = tuple(
        GermElement(i, name, obj_ids[src], obj_ids[tgt])
        for i, (name, src, tgt) in enumerate(doc.elements)
    )

    identities = [-1] * len(objects)
    for name in doc.identities:
        e = elements[elem_ids[name]]
        if e.source != e.target:
            raise ValidationError(f"identity {name!r} must be an endomorphism")
        if identities[e.source] != -1:
            raise ValidationError(f"two identities declared at {objects[e.source]!r}")
        identities[e.source] = e.id
    missing = [objects[i] for i, e in enumerate(identities) if e == -1]
    if missing:
        raise ValidationError(f"missing identity for object(s) {missing}")
    ident_ids = set(identities)
    for e in elements:
        if e.id not in ident_ids and not _NAME.match(e.name):
            raise ValidationError(
                f"non-identity element {e.name!r} needs a generator-style name"
            )

    product: dict[tuple[int, int], int] = {}
    for r, s, t in doc.products:
        key = (elem_ids[r], elem_ids[s])
        if key in product and product[key] != elem_ids[t]:
            raise ValidationError(f"conflicting products for {r!r} * {s!r}")
        product[key] = elem_ids[t]
    # identity products are implied by the format
    for e in elements:
        li = identities[e.source]
        ri = identities[e.target]
        for key, val in (((li, e.id), e.id), ((e.id, ri), e.id)):
            if key in product and product[key] != val:
                raise ValidationError(
                    f"product table contradicts identity at {elements[key[0]].name!r}"
                )
            product[key] = val
    return Germ(
        tuple(ObjectId(i, name) for name, i in obj_ids.items()),
        elements,
        tuple(identities),
        product,
    )


def emit_germ(doc: GermDoc) -> str:
    lines = ["[elements]"]
    for name, src, tgt in doc.elements:
        lines.append(f"{name} : {src} -> {tgt}")
    lines.append("")
    lines.append("[identity]")
    lines.extend(doc.identities)
    if doc.products:
        lines.append("")
        lines.append("[product]")
        for r, s, t in doc.products:
            lines.append(f"{r} * {s} = {t}")
    return "\n".join(lines) + "\n"


def germ_doc(germ: Germ) -> GermDoc:
    """Canonical document for a germ: identity products left implicit."""
    obj_names = {o.id: o.name for o in germ.objects}
    elements = tuple(
        (e.name, obj_names[e.source], obj_names[e.target]) for e in germ.elements
    )
    identities = tuple(germ.elements[i].name for i in germ.identities)
    products = tuple(
        (
            germ.elements[r].name,
            germ.elements[s].name,
            germ.elements[t].name,
        )
        for (r, s), t in sorted(germ.product.items())
        if not (germ.is_identity(r) or germ.is_identity(s))
    )
    return GermDoc(elements, identities, products)


def structure_doc(
    presentation: Presentation, garside: tuple | None = None
) -> StructureDoc:
    obj_names = tuple(o.name for o in presentation.objects)
    gens = tuple(
        (
            g.name,
            presentation.objects[g.source].name,
            presentation.objects[g.target].name,
        )
        for g in presentation.generators
    )

    def toks(w: Word) -> tuple[str, ...]:
        return tuple(presentation.generators[g].name for g in w.letters)

    rels = tuple((toks(l), toks(r)) for l, r in presentation.relations)
    return StructureDoc(obj_names, gens, rels, garside)


# -- wiring: doc -> context (+ family, map) ---------------------------------------


@dataclasses.dataclass
class Loaded:
    kind: str  # "structure" | "germ"
    ctx: CategoryContext
    family: GarsideFamily | None
    garside_map: GarsideMap | None
    doc: StructureDoc | GermDoc
    unbounded: Unbounded | None = None


def _auto_family(ctx: PresentedContext, bound: int) -> GarsideFamily:
    """
    Smallest candidate closed under right-lcm and right divisors, grown from
    the atoms; gives up past the bound.
    """
    members: list[Word] = list(ctx.atoms())
    changed = True
    while changed:
        changed = False
        snapshot = list(members)
        for i, u in enumerate(snapshot):
            for v in snapshot[i + 1 :]:
                if u.source != v.source:
                    continue
                z = ctx.right_lcm(u, v)
                if isinstance(z, rev.NoCommonMultiple):
                    continue
                if z is INCONCLUSIVE:
                    raise UnsupportedError("right-lcm search inconclusive")
                if not any(_true(ctx.equal(z, f)) for f in members):
                    members.append(z)
                    changed = True
        # close under right divisors via atom quotients
        for w in list(members):
            for a in ctx.atoms():
                if a.source != w.source:
                    continue
                q = ctx.left_quotient(a, w)
                if q is INCONCLUSIVE:
                    raise UnsupportedError("quotient search inconclusive")
                if q is None or q.is_empty:
                    continue
                if not any(_true(ctx.equal(q, f)) for f in members):
                    members.append(q)
                    changed = True
        if len(members) > bound:
            raise UnsupportedError(
                "family search exceeded the configured bound"
            )
    return GarsideFamily(ctx, members)


def build_structure(doc: StructureDoc, limits: Limits = DEFAULT_LIMITS) -> Loaded:
    return _structure_on(PresentedContext(structure_presentation(doc), limits=limits), doc)


def _structure_on(ctx: PresentedContext, doc: StructureDoc) -> Loaded:
    """The file's Garside data wired on a context over its presentation."""
    pres = ctx.presentation
    family: GarsideFamily | None = None
    gm: GarsideMap | None = None
    unbounded: Unbounded | None = None
    if doc.garside is not None:
        if doc.garside[0] == "family":
            words = [pres.parse_word(" ".join(t)) for t in doc.garside[1]]
            family = GarsideFamily(ctx, words)
            built = build_garside_map(ctx, family)
        elif doc.garside[0] == "delta":
            delta = pres.parse_word(" ".join(doc.garside[1]))
            family, built = _divisor_family(ctx, delta)
        else:
            family = _auto_family(ctx, ctx.limits.family_search_bound)
            built = build_garside_map(ctx, family)
        if isinstance(built, Unbounded):
            unbounded = built
        else:
            gm = built
    return Loaded("structure", ctx, family, gm, doc, unbounded)


def build_germ(doc: GermDoc, limits: Limits = DEFAULT_LIMITS) -> Loaded:
    germ = germ_from_doc(doc)
    ctx = GermContext(germ, limits)
    family, built = germ_family(ctx)
    gm, unbounded = (None, built) if isinstance(built, Unbounded) else (built, None)
    return Loaded("germ", ctx, family, gm, doc, unbounded)


def parse_any(text: str) -> StructureDoc | GermDoc:
    return parse_germ(text) if sniff(text) == "germ" else parse_structure(text)


def build_any(doc: StructureDoc | GermDoc, limits: Limits = DEFAULT_LIMITS) -> Loaded:
    if isinstance(doc, GermDoc):
        return build_germ(doc, limits)
    return build_structure(doc, limits)


def emit_any(doc: StructureDoc | GermDoc) -> str:
    return emit_germ(doc) if isinstance(doc, GermDoc) else emit_structure(doc)


def load_text(text: str, limits: Limits = DEFAULT_LIMITS) -> Loaded:
    return build_any(parse_any(text), limits)


__all__ = [
    "StructureDoc",
    "GermDoc",
    "Loaded",
    "sniff",
    "parse_structure",
    "parse_germ",
    "parse_any",
    "emit_structure",
    "emit_germ",
    "emit_any",
    "structure_presentation",
    "structure_doc",
    "germ_from_doc",
    "germ_doc",
    "build_structure",
    "build_germ",
    "build_any",
    "load_text",
]
