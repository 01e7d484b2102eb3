"""
Command-line front end.

    gk check FILE              validation / family / bound / cube report
    gk nf FILE -w WORD         greedy normal form (--delta for the Δ form)
    gk eq FILE -w W1 -w W2     word problem; exit 0 equal, 1 distinct
    gk lcm FILE -w W1 -w W2    right-lcm, or "none"
    gk gcd FILE -w W1 -w W2    left-gcd (needs a bounded family)
    gk reverse FILE -w WORD    reversing: prints "pos | neg"
    gk conj FILE -w G -w H     conjugacy; exit 0 yes, 1 no
    gk sss FILE -w G           sliding-circuit set and witnesses
    gk catalog KEY [--emit P]  built-in contexts; optionally write the file

Results go to stdout, diagnostics to stderr; every error path exits 2.
Output ordering is deterministic (sets sorted by their Δ-normal display).
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import catalog as catalog_mod
from . import io_formats as iof
from . import reversing as rev
from .bounded import Unbounded, delta_normalize, gcd as gcd_of, germ_family
from .config import DEFAULT_LIMITS, Limits
from .conjugacy import Yes, are_conjugate, sliding_circuit_set
from .contexts import PresentedContext
from .errors import GarsideError, INCONCLUSIVE, ParseError, UnsupportedError
from .garside import is_garside_family, word_problem
from .germs import GermContext, Valid, validate_germ
from .io_formats import Loaded

_LIMIT_FLAGS = (
    ("fuel-factor", "fuel_factor"),
    ("rewrite-slack", "rewrite_slack"),
    ("rewrite-states", "rewrite_states"),
    ("cube-depth", "cube_depth"),
    ("node-budget", "node_budget"),
    ("family-search-bound", "family_search_bound"),
    ("divisor-search-bound", "divisor_search_bound"),
    ("group-size-bound", "group_size_bound"),
)


def _limit_parent() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(add_help=False)
    for flag, field in _LIMIT_FLAGS:
        default = getattr(DEFAULT_LIMITS, field)
        p.add_argument(
            f"--limit-{flag}",
            dest=f"limit_{field}",
            type=int,
            default=None,
            metavar="N",
            help=f"override {field} (default {default})",
        )
    return p


def _limits(args: argparse.Namespace) -> Limits:
    overrides = {}
    for _, field in _LIMIT_FLAGS:
        v = getattr(args, f"limit_{field}", None)
        if v is not None:
            overrides[field] = v
    return dataclasses.replace(DEFAULT_LIMITS, **overrides) if overrides else DEFAULT_LIMITS


def _build_parser() -> argparse.ArgumentParser:
    parent = _limit_parent()
    parser = argparse.ArgumentParser(
        prog="gk", description="Garside calculus for presented monoids and germs"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def cmd(name: str, words: int = 0, **kwargs):
        sp = sub.add_parser(name, parents=[parent], **kwargs)
        if name != "catalog":
            sp.add_argument("file", metavar="FILE")
        if words:
            sp.add_argument(
                "-w",
                dest="words",
                action="append",
                required=True,
                metavar="WORD",
                help="input word (space-separated tokens, a^-1 for inverses)",
            )
        return sp

    cmd("check", help="run validation, family, bound and cube checks")
    nf = cmd("nf", words=1, help="greedy normal form")
    nf.add_argument("--delta", action="store_true", help="Δ-normal display")
    cmd("eq", words=1, help="decide equality of two words")
    cmd("lcm", words=1, help="right least common multiple")
    cmd("gcd", words=1, help="left greatest common divisor")
    cmd("reverse", words=1, help="reverse a signed word to pos/neg parts")
    cmd("conj", words=1, help="decide conjugacy of two elements")
    cmd("sss", words=1, help="sliding-circuit set of an element")
    cat = sub.add_parser(
        "catalog", parents=[parent], help="build a built-in example context"
    )
    cat.add_argument("key", metavar="KEY")
    cat.add_argument("--emit", metavar="PATH", default=None)
    return parser


def _load(args: argparse.Namespace, limits: Limits) -> Loaded:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    return iof.load_text(text, limits)


def _need_words(args: argparse.Namespace, n: int) -> list[str]:
    words = args.words or []
    if len(words) != n:
        raise GarsideError(f"expected exactly {n} -w argument(s), got {len(words)}")
    return words


def _need_family(loaded: Loaded):
    if loaded.family is None:
        raise GarsideError(
            "this command needs Garside data; add a [garside] section"
        )
    return loaded.family


def _need_map(loaded: Loaded):
    if loaded.garside_map is None:
        if loaded.unbounded is not None:
            raise GarsideError(
                f"family is not bounded: {loaded.unbounded.reason}"
            )
        raise GarsideError(
            "this command needs a bounded family; add a [garside] section"
        )
    return loaded.garside_map


def _tokens(ctx, w) -> str:
    return ctx.presentation.tokens(w)


def _out(line: str) -> None:
    sys.stdout.write(line + "\n")


# -- subcommands --------------------------------------------------------------------


def _run_check(args, limits: Limits) -> int:
    with open(args.file, encoding="utf-8") as fh:
        text = fh.read()
    kind = iof.sniff(text)
    lines: dict[str, str] = {}
    notes: list[str] = []

    if kind == "germ":
        doc = iof.parse_germ(text)
        germ = None
        try:
            germ = iof.germ_from_doc(doc)
            v = validate_germ(germ)
            if isinstance(v, Valid):
                lines["validate"] = "PASS"
            else:
                lines["validate"] = "FAIL"
                notes.append(f"validate: {v.kind} at {v.data}")
        except GarsideError as e:
            lines["validate"] = "FAIL"
            notes.append(f"validate: {e}")
        if germ is not None and lines["validate"] == "PASS":
            try:
                ctx = GermContext(germ, limits, validate=False)
            except GarsideError as e:
                lines["is_garside_family"] = "FAIL"
                notes.append(f"is_garside_family: {e}")
            else:
                lines["is_garside_family"] = "PASS"
                _, built = germ_family(ctx)
                if isinstance(built, Unbounded):
                    lines["build_garside_map"] = "FAIL"
                    notes.append(f"build_garside_map: {built.reason}")
                else:
                    lines["build_garside_map"] = "PASS"
        lines.setdefault("is_garside_family", "N/A")
        lines.setdefault("build_garside_map", "N/A")
        # germ contexts decide words through the product table, not through
        # a reversing complement, so the cube check does not apply
        lines["cube-condition"] = "N/A"
    else:
        doc = iof.parse_structure(text)
        ctx = None
        try:
            pres = iof.structure_presentation(doc)
            ctx = PresentedContext(pres, limits=limits)
            lines["validate"] = "PASS"
        except GarsideError as e:
            lines["validate"] = "FAIL"
            notes.append(f"validate: {e}")
        if ctx is not None and doc.garside is not None:
            try:
                loaded = iof._structure_on(ctx, doc)
                verdict = is_garside_family(ctx, loaded.family)
                if verdict.ok:
                    lines["is_garside_family"] = "PASS"
                else:
                    lines["is_garside_family"] = "FAIL"
                    detail = (
                        f" (witness: {', '.join(verdict.witness)})"
                        if verdict.witness
                        else ""
                    )
                    notes.append(f"is_garside_family: {verdict.reason}{detail}")
                if loaded.garside_map is not None:
                    lines["build_garside_map"] = "PASS"
                elif loaded.unbounded is not None:
                    lines["build_garside_map"] = "FAIL"
                    notes.append(f"build_garside_map: {loaded.unbounded.reason}")
            except GarsideError as e:
                lines.setdefault("is_garside_family", "FAIL")
                notes.append(f"is_garside_family: {e}")
        lines.setdefault("is_garside_family", "N/A")
        lines.setdefault("build_garside_map", "N/A")
        if ctx is not None and ctx.complement is not None:
            result = ctx.cube_result
            if result is None:
                result = rev.check_cube_condition(
                    ctx.complement, limits.cube_depth, limits.fuel_factor
                )
            if isinstance(result, rev.Complete):
                lines["cube-condition"] = "PASS"
            else:
                lines["cube-condition"] = "FAIL"
                notes.append(f"cube-condition: {result}")
        else:
            lines["cube-condition"] = "N/A"
            if ctx is not None:
                notes.append("cube-condition: no complement extracted")

    for name in ("validate", "is_garside_family", "build_garside_map", "cube-condition"):
        _out(f"{name}: {lines[name]}")
    for note in notes:
        sys.stderr.write(note + "\n")
    return 1 if any(v == "FAIL" for v in lines.values()) else 0


def _run_nf(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    (raw,) = _need_words(args, 1)
    family = _need_family(loaded)
    ctx = loaded.ctx
    if args.delta or "^-1" in raw:
        gm = _need_map(loaded)
        if not args.delta:
            raise GarsideError("words with inverses need --delta")
        w = (
            ctx.presentation.parse_signed(raw)
            if "^-1" in raw
            else ctx.parse(raw)
        )
        _out(delta_normalize(gm, w).display())
        return 0
    nd = family.normalize(ctx.parse(raw))
    _out(nd.display())
    return 0


def _run_eq(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    w1, w2 = _need_words(args, 2)
    ctx = loaded.ctx
    u, v = ctx.parse(w1), ctx.parse(w2)
    if loaded.family is not None:
        same = word_problem(loaded.family, u, v)
    else:
        r = ctx.equal(u, v)
        if r is INCONCLUSIVE:
            raise UnsupportedError("equality inconclusive at current limits")
        same = bool(r)
    _out("equal" if same else "distinct")
    return 0 if same else 1


def _run_lcm(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    w1, w2 = _need_words(args, 2)
    ctx = loaded.ctx
    z = ctx.right_lcm(ctx.parse(w1), ctx.parse(w2))
    if isinstance(z, rev.NoCommonMultiple):
        _out("none")
        return 0
    if z is INCONCLUSIVE:
        raise UnsupportedError("lcm search inconclusive at current limits")
    _out(_tokens(ctx, z))
    return 0


def _run_gcd(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    w1, w2 = _need_words(args, 2)
    gm = _need_map(loaded)
    ctx = loaded.ctx
    g = gcd_of(gm, ctx.parse(w1), ctx.parse(w2))
    _out(_tokens(ctx, g))
    return 0


def _run_reverse(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    (raw,) = _need_words(args, 1)
    ctx = loaded.ctx
    sw = ctx.presentation.parse_signed(raw)
    r = ctx.reverse(sw)
    if isinstance(r, rev.Reversed):
        _out(f"{_tokens(ctx, r.pos)} | {_tokens(ctx, r.neg)}")
        return 0
    raise GarsideError(f"reversing did not terminate cleanly: {r}")


def _run_conj(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    w1, w2 = _need_words(args, 2)
    gm = _need_map(loaded)
    ctx = loaded.ctx
    g = ctx.presentation.parse_signed(w1)
    h = ctx.presentation.parse_signed(w2)
    outcome = are_conjugate(gm, g, h)
    if isinstance(outcome, Yes):
        _out(f"yes witness: {ctx.presentation.display_signed(outcome.witness)}")
        return 0
    _out("no")
    return 1


def _run_sss(args, limits: Limits) -> int:
    loaded = _load(args, limits)
    (raw,) = _need_words(args, 1)
    gm = _need_map(loaded)
    ctx = loaded.ctx
    g = ctx.presentation.parse_signed(raw)
    s = sliding_circuit_set(gm, g)
    for node in s.nodes:
        _out(node.element.display())
    for node in s.nodes:
        _out(f"witness: {ctx.presentation.display_signed(node.conjugator)}")
    return 0


def _run_catalog(args, limits: Limits) -> int:
    entry = catalog_mod.build(args.key, limits)
    _out(f"key: {entry.key}")
    _out(f"kind: {entry.kind}")
    _out(f"generators: {len(entry.context.presentation.generators)}")
    if entry.family is not None:
        _out(f"simples: {len(entry.family) + 1}")
    if entry.garside_map is not None:
        gm = entry.garside_map
        deltas = sorted(
            entry.context.show(gm.delta_word(obj)) for obj in gm.delta
        )
        _out("delta: " + ", ".join(deltas))
    _out(f"notes: {entry.notes}")
    if args.emit:
        if entry.kind == "germ":
            text = iof.emit_germ(iof.germ_doc(entry.context.germ))
        else:
            text = iof.emit_structure(
                iof.structure_doc(entry.context.presentation)
            )
        with open(args.emit, "w", encoding="utf-8") as fh:
            fh.write(text)
        _out(f"emitted: {args.emit}")
    return 0


_RUNNERS = {
    "check": _run_check,
    "nf": _run_nf,
    "eq": _run_eq,
    "lcm": _run_lcm,
    "gcd": _run_gcd,
    "reverse": _run_reverse,
    "conj": _run_conj,
    "sss": _run_sss,
    "catalog": _run_catalog,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    limits = _limits(args)
    try:
        return _RUNNERS[args.command](args, limits)
    except ParseError as e:
        sys.stderr.write(f"gk: parse error: {e}\n")
        return 2
    except GarsideError as e:
        sys.stderr.write(f"gk: error: {e}\n")
        return 2
    except OSError as e:
        sys.stderr.write(f"gk: {e}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
