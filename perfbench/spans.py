"""
Spans around garsidekit's layer boundaries, recorded from outside the
library by wrapping its public functions and methods.

A module function is replaced in every garsidekit module that holds it,
under whatever name it was imported (`cli` imports `gcd` as `gcd_of`); a
method is replaced on its class.  Each span records its name, start, end,
parent span and operation id; spans stay in memory and are written out at
the end.  Per-name aggregates (calls, self time, counts read from return
values) are kept separately for the phase the span ran in, so metrics do
not need a second pass over the spans.
"""

from __future__ import annotations

import array
import importlib
import json
import sys
import time

# (span name, module, attribute path)
TARGETS = (
    ("catalog.build", "catalog", "build"),
    ("coxeter.enumerate", "coxeter", "enumerate_coxeter"),
    ("germs.validate", "germs", "validate_germ"),
    ("germs.recognize", "germs", "is_garside_germ"),
    ("germs.sweep", "germs", "GermStructure.normalize"),
    ("germs.strip", "germs", "GermContext._strip"),
    ("reversing.reverse", "reversing", "reverse"),
    ("rewriting.closure", "rewriting", "RewriteSystem.closure"),
    ("contexts.equal", "contexts", "PresentedContext.equal"),
    ("contexts.divides", "contexts", "PresentedContext.left_divides"),
    ("garside.normalize", "garside", "GarsideFamily.normalize"),
    ("garside.head", "garside", "GarsideFamily.head"),
    ("garside.index", "garside", "GarsideFamily.index"),
    ("garside.fraction", "garside", "left_fraction"),
    ("bounded.dnf", "bounded", "delta_normalize"),
    ("bounded.phi", "bounded", "GarsideMap.phi"),
    ("bounded.meet", "bounded", "GarsideMap.meet"),
    ("bounded.gcd", "bounded", "gcd"),
    ("bounded.build_map", "bounded", "build_garside_map"),
    ("conjugacy.slide", "conjugacy", "cyclic_sliding"),
    ("conjugacy.circuit", "conjugacy", "slide_to_circuit"),
    ("conjugacy.sc", "conjugacy", "sliding_circuit_set"),
    ("conjugacy.verify", "conjugacy", "signed_equal"),
    ("io_formats.load", "io_formats", "load_text"),
    ("cli.call", "cli", "main"),
)

MODULES = (
    "catalog", "coxeter", "germs", "reversing", "rewriting", "contexts", "garside",
    "bounded", "conjugacy", "io_formats", "cli", "core",
)


class Stats:
    """Per-name aggregates for one phase."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.incl_s: dict[str, float] = {}
        self.counts: dict[str, float] = {}

    def add_count(self, key: str, n) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def merge(self, data: dict) -> None:
        for k, v in data["calls"].items():
            self.calls[k] = self.calls.get(k, 0) + v
        for k, v in data["self_s"].items():
            self.self_s[k] = self.self_s.get(k, 0.0) + v
        for k, v in data["incl_s"].items():
            self.incl_s[k] = self.incl_s.get(k, 0.0) + v
        for k, v in data["counts"].items():
            self.add_count(k, v)

    def as_dict(self) -> dict:
        return {
            "calls": self.calls, "self_s": self.self_s, "incl_s": self.incl_s, "counts": self.counts
        }


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self.span_parent = array.array("i")
        self.span_op = array.array("i")
        self.stack: list[list] = []  # [span index, name, child time, fell back]
        self.op = -1
        self.phases: dict[str, Stats] = {}
        self.stats = self.phase("setup")
        self._patches: list[tuple[object, str, object, object]] = []

    def phase(self, name: str) -> Stats:
        self.stats = self.phases.setdefault(name, Stats())
        return self.stats

    def _nid(self, name: str) -> int:
        got = self._name_id.get(name)
        if got is None:
            got = self._name_id[name] = len(self.names)
            self.names.append(name)
        return got

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, name: str, fn):
        nid = self._nid(name)
        clock = time.perf_counter
        tracer = self
        counter = _COUNTERS.get(name)

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            idx = len(tracer.span_name)
            tracer.span_name.append(nid)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            tracer.span_parent.append(stack[-1][0] if stack else -1)
            tracer.span_op.append(tracer.op)
            frame = [idx, name, 0.0, False]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                tracer.span_start[idx] = t0
                tracer.span_end[idx] = t1
                if stack:
                    stack[-1][2] += dur
                st = tracer.stats
                st.calls[name] = st.calls.get(name, 0) + 1
                st.self_s[name] = st.self_s.get(name, 0.0) + dur - frame[2]
                st.incl_s[name] = st.incl_s.get(name, 0.0) + dur
                if frame[3]:
                    st.add_count(name + ".fallback", 1)
            if counter is not None:
                counter(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Replace every target in every garsidekit module that holds it."""
        mods = {m: importlib.import_module("garsidekit." + m) for m in MODULES}
        mods["__init__"] = importlib.import_module("garsidekit")
        for name, mod_name, path in TARGETS:
            owner = mods[mod_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[attr]
                self._patch(cls, attr, orig, self._wrap(name, orig))
                continue
            orig = getattr(owner, path)
            wrapped = self._wrap(name, orig)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, attr, orig, wrapped)

    def _patch(self, owner, attr, orig, wrapped) -> None:
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, orig, wrapped))

    def uninstall(self) -> None:
        for owner, attr, orig, _ in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def mark_fallback(self) -> None:
        for frame in self.stack:
            if frame[1].startswith("contexts."):
                frame[3] = True

    # -- output -----------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as five little-endian arrays after a one-line JSON header."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:i32", "start:f64", "end:f64", "parent:i32", "op:i32"],
            "phases": {k: v.as_dict() for k, v in self.phases.items()},
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (
                self.span_name, self.span_start, self.span_end, self.span_parent, self.span_op
            ):
                if sys.byteorder != "little":
                    arr = array.array(arr.typecode, arr)
                    arr.byteswap()
                arr.tofile(fh)


# -- counts read from return values ------------------------------------------------


def _count_sweep(tracer, args, result):
    seq = args[1] if len(args) > 1 else ()
    tracer.stats.add_count("germs.sweep_letters", len(seq) if hasattr(seq, "__len__") else 0)


def _count_reverse(tracer, args, result):
    kind = type(result).__name__
    st = tracer.stats
    if kind == "Reversed":
        st.add_count("reversing.cells", result.grid.cell_count)
    elif kind == "Stuck":
        st.add_count("reversing.stuck", 1)
    elif kind == "Diverged":
        st.add_count("reversing.diverged", 1)
        st.add_count("reversing.cells", result.cells)


def _count_closure(tracer, args, result):
    words, complete = result
    tracer.stats.add_count("rewriting.closure_states", len(words))
    if not complete:
        tracer.stats.add_count("rewriting.incomplete", 1)
    tracer.mark_fallback()


def _count_circuit(tracer, args, result):
    # a slide_to_circuit run directly inside sliding_circuit_set is one candidate
    if tracer.stack and tracer.stack[-1][1] == "conjugacy.sc":
        tracer.stats.add_count("conjugacy.circuit_in_sc", 1)


def _count_sc(tracer, args, result):
    tracer.stats.add_count("conjugacy.sc_nodes", len(result.nodes))


_COUNTERS = {
    "germs.sweep": _count_sweep,
    "reversing.reverse": _count_reverse,
    "rewriting.closure": _count_closure,
    "conjugacy.circuit": _count_circuit,
    "conjugacy.sc": _count_sc,
}
