"""
Mutation test of the answer checks.

    python3 perfbench/mutation_check.py

For every operation kind of every workload it takes a real answer from
garsidekit, requires the check to accept it, corrupts it in a way that
makes it wrong, and requires the check to reject the corruption.  The
fixed probes of the named faults are skipped: their genuine answers are
wrong.  Exits 1
if any kind's corruption goes unnoticed or a genuine answer is rejected.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import setups  # noqa: E402
import workloads as W  # noqa: E402
from garsidekit.conjugacy import No, Yes  # noqa: E402
from garsidekit.core import SignedWord, Word  # noqa: E402


def _append(w: Word) -> Word:
    return Word(w.letters + (w.letters[0] if w.letters else 0,), w.source, w.target)


def _prepend(w: Word) -> Word:
    return Word((w.letters[-1] if w.letters else 0,) + w.letters, w.source, w.target)


def _drop_factor(nd):
    return dataclasses.replace(nd, factors=nd.factors[:-1])


def _bump_inf(dn):
    return dataclasses.replace(dn, m=dn.m + 1)


def _conj(res):
    if isinstance(res, Yes):
        return No()
    return Yes(SignedWord(((0, 1),), 0, 0))


def _sss(res):
    node = res.nodes[0]
    element = dataclasses.replace(node.element, m=node.element.m + 1)
    return dataclasses.replace(res, nodes=(dataclasses.replace(node, element=element),) + res.nodes[1:])


def _maybe_none(res):
    return None if res is not None else Word((0,), 0, 0)


# library answers: operation kind -> corruption
LIBRARY = {
    "nf": _drop_factor,
    "dnf_pos": _bump_inf,
    "dnf_signed": _bump_inf,
    "eq_equal": lambda r: not r,
    "eq_distinct": lambda r: not r,
    "equal": lambda r: not r,
    "left_divides": lambda r: not r,
    "left_quotient": lambda r: _append(r) if r is not None else _maybe_none(r),
    "gcd": _append,
    "lcm_right": _append,
    "lcm_left": _prepend,
    "right_lcm": _append,
    "conj_yes": _conj,
    "conj_no": _conj,
    "sss": _sss,
}


def _text(fn):
    return lambda res: (res[0], fn(res[1]))


# gk answers (exit code, stdout) -> corruption
CLI = {
    "gk nf": _text(lambda out: out.strip().rsplit(".", 1)[0] + "\n" if "." in out else "1\n"),
    "gk nf --delta": _text(lambda out: "D^7 . " + out if not out.startswith("D^") else "D^7" + out[out.find(" "):]),
    "gk eq": lambda res: (1 - res[0], "distinct\n" if res[0] == 0 else "equal\n"),
    "gk lcm": _text(lambda out: out.strip() + " " + out.split()[0] + "\n"),
    "gk gcd": _text(lambda out: (out.strip() + " " + out.split()[0] + "\n") if out.strip() != "1" else "a\n"),
    "gk reverse": _text(lambda out: out.split(" | ")[0] + " " + out.split()[0] + " | " + out.split(" | ")[1]),
    "gk conj": lambda res: (1, "no\n") if res[0] == 0 else (0, "yes witness: 1\n"),
    "gk sss": _text(lambda out: "D^9 . " + out if not out.startswith("D^") else "D^9" + out[out.find(" "):]),
    "gk check": _text(lambda out: out.replace("PASS", "FAIL", 1)),
}


def check_ops(ops, corruptions, seen, failures):
    for op in ops:
        key = f"{op.kind} ({op.entry})"
        if key in seen or op.kind not in corruptions or op.fault:
            continue
        result = op.call()
        genuine = op.check(result)
        if genuine:
            failures.append(f"{key}: genuine answer rejected: {genuine}")
            continue
        bad = op.check(corruptions[op.kind](result))
        seen[key] = bad
        if not bad:
            failures.append(f"{key}: corrupted answer accepted")


def main() -> int:
    work = os.path.join(HERE, ".work", f"mutation-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    seen: dict[str, str] = {}
    failures: list[str] = []
    try:
        for name in ("nf_germ", "conj_germ", "presented"):
            built = setups.setup(name, work)
            wl = W.WORKLOADS[name](built, 1, work)
            check_ops(wl.round(0) + wl.round(1), LIBRARY, seen, failures)
        built = setups.setup("cli", os.path.join(work, "inputs"))
        gk = run.GkRunner(work)
        wl = W.Cli(built, 1, work, gk)
        ops = wl.round(0) + wl.round(1)
        check_ops(ops, CLI, seen, failures)
        emit = next(op for op in ops if op.kind == "gk catalog --emit")
        res = emit.call()
        if emit.check(res):
            failures.append("gk catalog --emit: genuine answer rejected")
        out_path = res[1].strip().splitlines()[-1].split(": ", 1)[1]
        with open(out_path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[:-1]) + "\n")
        seen["gk catalog --emit (braid:3)"] = emit.check(res)
        if not seen["gk catalog --emit (braid:3)"]:
            failures.append("gk catalog --emit: corrupted file accepted")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for key, reason in sorted(seen.items()):
        print(f"flagged  {key}: {reason}")
    for f in failures:
        print(f"FAILED   {f}")
    print(f"{len(seen)} operation kinds corrupted, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
