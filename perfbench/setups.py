"""
What each workload builds before its first timed operation.

Everything a query needs is built here, including the lazily built
`mirror()` contexts, so that their cost shows in `setup_s` rather than in
the first operation that touches them.  Imports only garsidekit and the
standard library, so a fresh interpreter running `setup_probe.py` measures
the set-up a user of the library pays.
"""

from __future__ import annotations

import os

from garsidekit import catalog
from garsidekit import io_formats as iof

NF_GERM_KEYS = ("braid:4", "braid:5", "braid:6", "dual_braid:6", "artin:B3", "free_abelian:8")
CONJ_GERM_KEYS = ("braid:3", "braid:4", "braid:5", "dual_braid:4", "artin:B3", "artin:G2")

STRUCTURES = {
    "B3": "[generators]\na\nb\n\n[relations]\na b a = b a b\n\n[garside]\ndelta: a b a\n",
    "B4": (
        "[generators]\na\nb\nc\n\n[relations]\na b a = b a b\nb c b = c b c\na c = c a\n\n"
        "[garside]\ndelta: a b a c b a\n"
    ),
    "N3": (
        "[generators]\nx\ny\nz\n\n[relations]\nx y = y x\nx z = z x\ny z = z y\n\n"
        "[garside]\nfamily: x, y, z, x y, x z, y z, x y z\n"
    ),
    # dual braid monoid on three strands; its complement is incomplete
    "D3": "[generators]\na\nb\nc\n\n[relations]\na b = b c\nb c = c a\n\n[garside]\ndelta: a b\n",
}
KLEIN_GAR = "[generators]\na\nb\n\n[relations]\na = b a b\n"

CLI_STRUCTURES = {"b3.gar": STRUCTURES["B3"], "n3.gar": STRUCTURES["N3"], "klein.gar": KLEIN_GAR}
CLI_GERMS = ("braid:3", "braid:4", "dual_braid:4", "free_abelian:3")


class Built:
    """One ready context: the context, its Garside family and map (or None)."""

    def __init__(self, key: str, ctx, family, gm):
        self.key = key
        self.ctx = ctx
        self.family = family
        self.gm = gm


def germ_file(key: str) -> str:
    return key.replace(":", "_") + ".germ"


def _catalog(key: str) -> Built:
    e = catalog.build(key)
    e.context.mirror()
    return Built(key, e.context, e.family, e.garside_map)


def setup(workload: str, workdir: str) -> dict[str, Built] | dict[str, str]:
    """Build the contexts of a workload; `cli` writes its input files instead."""
    if workload == "nf_germ":
        return {key: _catalog(key) for key in NF_GERM_KEYS}
    if workload == "conj_germ":
        return {key: _catalog(key) for key in CONJ_GERM_KEYS}
    if workload == "presented":
        out = {}
        for name, text in STRUCTURES.items():
            loaded = iof.load_text(text)
            loaded.ctx.mirror()
            out[name] = Built(name, loaded.ctx, loaded.family, loaded.garside_map)
        out["klein"] = _catalog("klein")
        return out
    if workload == "cli":
        os.makedirs(workdir, exist_ok=True)
        paths = {}
        for name, text in CLI_STRUCTURES.items():
            paths[name] = _write(workdir, name, text)
        for key in CLI_GERMS:
            entry = catalog.build(key)
            text = iof.emit_germ(iof.germ_doc(entry.context.germ))
            paths[germ_file(key)] = _write(workdir, germ_file(key), text)
        return paths
    raise ValueError(f"unknown workload {workload!r}")


def _write(workdir: str, name: str, text: str) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path
