"""
garsidekit benchmark: one command for every workload.

    python3 perfbench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is nf_germ, conj_germ, presented, cli, or all (each in its own
process, one after another).  Run from the root of a checkout: the library
is imported from ./src.  The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`; the lines
before it give the same figures by name and unit, the failures split by
cause and by named fault.

--trace 0 measures the end-to-end metrics.  --trace 1 reports per-layer
metrics instead: it traces the set-up and every second round of the timed
phase, and writes the spans to perfbench/.work/spans-WORKLOAD.bin.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
NAMES = ("nf_germ", "conj_germ", "presented", "cli")

MIN_OPS = 100          # at least ten samples lie beyond the 90th percentile
SETUP_RUNS = 3         # fresh interpreters timed for setup_s
CHILD_TIMEOUT = 120
REFERENCE_S = 0.020    # nominal time of one Reference.measure()
REFERENCE_PROCESS_S = 0.170  # nominal time of one Reference.measure_process()

END_TO_END = (
    ("setup_s", "s"), ("ops_per_s", "op/s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# per-layer metrics: (name, unit, phase, how)
#   phase "setup": seconds in one traced set-up; "ops": per traced operation
PER_LAYER = (
    ("catalog.build_s", "s", "setup", ("self", "catalog.build")),
    ("coxeter.enumerate_s", "s", "setup", ("self", "coxeter.enumerate")),
    ("germs.validate_s", "s", "setup", ("self", "germs.validate")),
    ("germs.recognize_s", "s", "setup", ("self", "germs.recognize")),
    ("bounded.build_map_s", "s", "setup", ("self", "bounded.build_map")),
    ("germs.sweep_calls", "count/op", "ops", ("calls", "germs.sweep")),
    ("germs.sweep_letters", "count/op", "ops", ("count", "germs.sweep_letters")),
    ("germs.sweep_s", "s/op", "ops", ("self", "germs.sweep")),
    ("germs.strip_s", "s/op", "ops", ("self", "germs.strip")),
    ("reversing.calls", "count/op", "ops", ("calls", "reversing.reverse")),
    ("reversing.cells", "count/op", "ops", ("count", "reversing.cells")),
    ("reversing.s", "s/op", "ops", ("self", "reversing.reverse")),
    ("reversing.cells_per_s", "1/s", "ops", ("rate", "reversing.cells", "reversing.reverse")),
    ("reversing.stuck", "count/op", "ops", ("count", "reversing.stuck")),
    ("reversing.diverged", "count/op", "ops", ("count", "reversing.diverged")),
    ("rewriting.closure_calls", "count/op", "ops", ("calls", "rewriting.closure")),
    ("rewriting.closure_states", "count/op", "ops", ("count", "rewriting.closure_states")),
    ("rewriting.closure_s", "s/op", "ops", ("self", "rewriting.closure")),
    ("rewriting.incomplete", "count/op", "ops", ("count", "rewriting.incomplete")),
    ("contexts.equal_s", "s/op", "ops", ("self", "contexts.equal")),
    ("contexts.divides_s", "s/op", "ops", ("self", "contexts.divides")),
    ("contexts.calls", "count/op", "ops", ("calls", "contexts.equal", "contexts.divides")),
    ("contexts.fallback_ratio", "ratio", "ops", ("fallback",)),
    ("garside.normalize_calls", "count/op", "ops", ("calls", "garside.normalize")),
    ("garside.normalize_s", "s/op", "ops", ("self", "garside.normalize")),
    ("garside.head_s", "s/op", "ops", ("self", "garside.head")),
    ("garside.index_s", "s/op", "ops", ("self", "garside.index")),
    ("garside.fraction_s", "s/op", "ops", ("self", "garside.fraction")),
    ("bounded.dnf_calls", "count/op", "ops", ("calls", "bounded.dnf")),
    ("bounded.dnf_s", "s/op", "ops", ("self", "bounded.dnf")),
    ("bounded.phi_s", "s/op", "ops", ("self", "bounded.phi")),
    ("bounded.meet_s", "s/op", "ops", ("self", "bounded.meet")),
    ("bounded.gcd_s", "s/op", "ops", ("self", "bounded.gcd")),
    ("conjugacy.slides", "count/op", "ops", ("calls", "conjugacy.slide")),
    ("conjugacy.circuit_calls", "count/op", "ops", ("calls", "conjugacy.circuit")),
    ("conjugacy.candidates", "count/op", "ops", ("candidates",)),
    ("conjugacy.sc_nodes", "count/op", "ops", ("count", "conjugacy.sc_nodes")),
    ("conjugacy.node_yield", "ratio", "ops", ("yield",)),
    ("conjugacy.sc_s", "s/op", "ops", ("self", "conjugacy.sc")),
    ("conjugacy.verify_s", "s/op", "ops", ("self", "conjugacy.verify")),
    ("io_formats.load_s", "s/op", "ops", ("self", "io_formats.load")),
    ("cli.import_s", "s/op", "ops", ("incl", "cli.import")),
    ("cli.call_s", "s/op", "ops", ("incl", "cli.call")),
)


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# -- host speed ------------------------------------------------------------------------------


class Reference:
    """
    A fixed pure-Python task owned by the benchmark (oracle normal forms,
    Burau values, a congruence closure), timed before and after every round
    and every set-up.  The host this benchmark runs on slows memory-heavy
    Python by up to 40% for tens of seconds at a time; the task slows with
    it, so times are reported in reference seconds: raw time × nominal /
    (task time).  Library changes cannot move the task, so they still show.
    `cli` times whole processes, so its task runs in a fresh interpreter.
    """

    def __init__(self):
        import random

        import oracles as O

        self.O = O
        self.model = O.braid_model(4)
        rng = random.Random("reference")
        self.word = [rng.choice(self.model.atoms) for _ in range(300)]
        self.values = O.Values(self.model, rng)
        names = [self.model.name(a) for a in self.model.atoms]
        self.signed = [(rng.choice(names), rng.choice((1, -1))) for _ in range(1200)]
        self.measure()

    def measure(self) -> float:
        """Best of two runs of the task, with the collector off."""
        gc.disable()
        try:
            best = float("inf")
            for _ in range(2):
                t0 = time.perf_counter()
                self.model.normal_form(self.word)
                self.values.of(self.signed)
                self.O.congruence_class("abababbaab", (("aba", "bab"),))
                best = min(best, time.perf_counter() - t0)
        finally:
            gc.enable()
        return best

    def measure_process(self) -> float:
        """Start to exit of a fresh interpreter that imports and runs the task."""
        code = f"import sys; sys.path.insert(0, {HERE!r}); import run; run.Reference()"
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                       timeout=CHILD_TIMEOUT)
        return time.perf_counter() - t0

    def slowdown(self, process: bool) -> float:
        """Task time over its nominal time: 1.0 on a quiet host."""
        if process:
            return self.measure_process() / REFERENCE_PROCESS_S
        return self.measure() / REFERENCE_S


# -- set-up ---------------------------------------------------------------------------------


def time_setup(workload: str, workdir: str, ref: Reference) -> float:
    """Median time, in reference seconds, from interpreter start to "ready"."""
    samples = []
    process = workload == "cli"
    for k in range(SETUP_RUNS):
        before = ref.slowdown(process)
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "setup_probe.py"), workload,
             os.path.join(workdir, f"setup-{k}")],
            stdout=subprocess.PIPE, cwd=ROOT, env=child_env(),
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            proc.wait(timeout=CHILD_TIMEOUT)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up of {workload} failed in a fresh interpreter")
        samples.append(elapsed * 2 / (before + ref.slowdown(process)))
    return statistics.median(samples)


class GkRunner:
    """Runs one `gk` child at a time and keeps the largest child RSS."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.env = child_env()
        self.peak_kb = 0
        self.tracer = None  # set while a traced round runs
        self.calls = 0

    def __call__(self, args):
        if self.tracer is None:
            cmd = [sys.executable, "-m", "garsidekit.cli", *args]
            env = self.env
        else:
            self.calls += 1
            stats_path = os.path.join(self.workdir, f"gk-stats-{self.calls}.json")
            cmd = [sys.executable, os.path.join(HERE, "gk_traced.py"), *args]
            env = dict(self.env, GK_TRACE_OUT=stats_path)
        with open(os.path.join(self.workdir, "gk-stderr.txt"), "wb") as err:
            proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, cwd=ROOT, env=env)
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode == 2:  # gk's error exit, "inconclusive" included
            with open(os.path.join(self.workdir, "gk-stderr.txt"), encoding="utf-8") as fh:
                raise RuntimeError(fh.read().strip())
        if self.tracer is not None:
            with open(stats_path, encoding="utf-8") as fh:
                data = json.load(fh)
            os.remove(stats_path)
            ops = self.tracer.phases["ops"]
            ops.merge(data["ops"])
            ops.calls["cli.import"] = ops.calls.get("cli.import", 0) + 1
            ops.incl_s["cli.import"] = ops.incl_s.get("cli.import", 0.0) + data["import_s"]
        return proc.returncode, out.decode()


# -- timed phase -------------------------------------------------------------------------------


def run_rounds(wl, seconds: float, ref: Reference, tracer=None, gk=None):
    """
    Whole rounds until the op time reaches `seconds` and MIN_OPS ran.  With
    a tracer, odd rounds are traced and even rounds are not.  Each op's time
    is scaled to reference seconds by the task timed around its round;
    returns the ops and the host slowdown of every round.
    """
    import workloads as W

    done, traced, plain = [], [], []
    if not isinstance(wl, W.Cli):
        # untimed warm-up on inputs of its own: fills the contexts' lazy
        # tables (germ complement, heads, meets) that any long-lived caller
        # has filled; word-keyed memos see none of the timed inputs
        for op in wl.round(-1):
            try:
                op.call()
            except Exception:  # failures are counted in the timed rounds
                pass
    total = 0.0
    r = 0
    slowdown = []
    process = gk is not None
    before = ref.slowdown(process)
    while total < seconds or len(done) < MIN_OPS or (tracer and r < 2):
        ops = wl.round(r)
        on = tracer is not None and r % 2 == 1
        if on:
            tracer.install()
            tracer.phase("ops")
            if gk is not None:
                gk.tracer = tracer
        gc.collect()
        base = len(done)
        clock = time.perf_counter
        for k, op in enumerate(ops):
            if on:
                tracer.op = base + k
            t0 = clock()
            try:
                op.result = op.call()
            except Exception as e:  # a failure: INCONCLUSIVE turned error, or raised
                op.cause = "inconclusive" if "inconclusive" in str(e) else "raised"
                op.reason = f"{type(e).__name__}: {e}"
            op.seconds = clock() - t0
        if on:
            tracer.uninstall()
            if gk is not None:
                gk.tracer = None
        total += sum(op.seconds for op in ops)
        after = ref.slowdown(process)
        slowdown.append((before + after) / 2)
        for op in ops:
            op.seconds /= slowdown[-1]
        before = after
        for op in ops:
            W.classify(op)
        for op in ops:
            op.result = op.call = op.check = None  # keep only what the report needs
        done += ops
        (traced if on else plain).extend(ops)
        r += 1
    return done, traced, plain, slowdown


def summarize(ops):
    failed = [op for op in ops if op.cause is not None]
    by_cause: dict[str, int] = {}
    by_fault: dict[str, int] = {}
    for op in failed:
        by_cause[op.cause] = by_cause.get(op.cause, 0) + 1
        if op.fault:
            by_fault[op.fault] = by_fault.get(op.fault, 0) + 1
    unexpected = [op for op in failed if not op.fault]
    return failed, by_cause, by_fault, unexpected


def end_to_end(ops, setup_s: float, peak_mb: float) -> dict:
    lat = [op.seconds for op in ops]
    ok = sum(1 for op in ops if op.cause is None)
    p90 = statistics.quantiles(lat, n=10, method="inclusive")[8]
    values = (setup_s, ok / sum(lat), statistics.median(lat) * 1000, p90 * 1000, peak_mb)
    return {name: (v, unit) for (name, unit), v in zip(END_TO_END, values)}


def per_layer(tracer, traced, plain) -> dict:
    setup = tracer.phases["setup"]
    ops = tracer.phases.get("ops")
    n = len(traced)

    def value(phase, how):
        st = setup if phase == "setup" else ops
        kind, *keys = how
        if st is None:
            return 0.0
        if kind == "self":
            v = sum(st.self_s.get(k, 0.0) for k in keys)
        elif kind == "incl":
            v = sum(st.incl_s.get(k, 0.0) for k in keys)
        elif kind == "calls":
            v = sum(st.calls.get(k, 0) for k in keys)
        elif kind == "count":
            v = sum(st.counts.get(k, 0) for k in keys)
        elif kind == "rate":
            secs = st.self_s.get(keys[1], 0.0)
            return st.counts.get(keys[0], 0) / secs if secs else 0.0
        elif kind == "fallback":
            calls = st.calls.get("contexts.equal", 0) + st.calls.get("contexts.divides", 0)
            fell = st.counts.get("contexts.equal.fallback", 0) + st.counts.get("contexts.divides.fallback", 0)
            return fell / calls if calls else 0.0
        elif kind in ("candidates", "yield"):
            cands = st.counts.get("conjugacy.circuit_in_sc", 0) - st.calls.get("conjugacy.sc", 0)
            if kind == "yield":
                return st.counts.get("conjugacy.sc_nodes", 0) / cands if cands else 0.0
            v = cands
        return v if phase == "setup" else v / n

    out = {name: (value(phase, how), unit) for name, unit, phase, how in PER_LAYER}
    rate = [len(x) / sum(op.seconds for op in x) for x in (traced, plain)]
    out["trace.overhead_pct"] = (100.0 * (1.0 - rate[0] / rate[1]), "%")
    return out


def run_one(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import random

    import oracles

    oracles.self_test(random.Random(args.seed))
    os.makedirs(WORK, exist_ok=True)
    workdir = os.path.join(WORK, f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure(args, workdir: str) -> dict:
    ref = Reference()
    setup_s = time_setup(args.workload, workdir, ref) if not args.trace else 0.0
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    import setups

    built = setups.setup(args.workload, os.path.join(workdir, "inputs"))
    if tracer is not None:
        tracer.uninstall()
    import workloads as W

    gk = None
    if args.workload == "cli":
        gk = GkRunner(workdir)
        wl = W.Cli(built, args.seed, workdir, gk)
    else:
        wl = W.WORKLOADS[args.workload](built, args.seed, workdir)
    done, traced, plain, slowdown = run_rounds(wl, args.seconds, ref, tracer, gk)

    failed, by_cause, by_fault, unexpected = summarize(done)
    if args.trace:
        metrics = per_layer(tracer, traced, plain)
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.bin"))
    else:
        peak_kb = gk.peak_kb if gk else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = end_to_end(done, setup_s, peak_kb / 1024)
    report(args.workload, done, failed, by_cause, by_fault, unexpected, metrics)
    print(f"{args.workload}: host slowdown over rounds (reference task time / nominal): "
          f"median {statistics.median(slowdown):.3f}, min {min(slowdown):.3f}, max {max(slowdown):.3f}")
    return {
        "correct": not unexpected,
        "attempted": len(done),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def report(name, done, failed, by_cause, by_fault, unexpected, metrics) -> None:
    causes = ", ".join(f"{c} {by_cause.get(c, 0)}" for c in ("wrong", "inconclusive", "raised"))
    print(f"{name}: attempted {len(done)}, failed {len(failed)} ({causes})")
    for fault in ("F1-lcm-stuck-incomplete", "F2-homogeneous-depth-cap"):
        if name == "presented" or by_fault.get(fault):
            print(f"{name}: {fault} failed {by_fault.get(fault, 0)}")
    for op in unexpected[:10]:
        print(f"{name}: UNEXPECTED {op.cause} {op.kind} on {op.entry}: {op.reason}")
    for k, (v, unit) in metrics.items():
        print(f"{name}: {k} = {v:.6g} {unit}")


def run_all(args) -> dict:
    """Each workload in its own process; prints one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=1800,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} failed")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    return combined


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "garsidekit")):
        sys.stderr.write("run.py: no src/garsidekit here; run from the root of a checkout\n")
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
