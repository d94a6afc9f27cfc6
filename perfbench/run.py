"""chanpolar benchmark: one command, three workloads, every output checked.

    python3 perfbench/run.py --workload verify|sweep|characterize \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke            # quick self-check
    python3 perfbench/run.py --make-reference   # rewrite reference.json

Run from the repository root.  The package is imported from ``src/`` of the
checkout this file sits in; nothing is installed.  Each workload is a
closed loop: one client in this process issues units one after another.
With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it runs the same units untraced and then traced and prints the per-layer
metrics.  The last stdout line is one JSON object; the exit code is 0 only
when every unit matched ``reference.json``.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracer as tracing
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
REFERENCE = HERE / "reference.json"
# A run times every unit in PASSES passes (slots in workloads.TIMED_ONCE in
# the first only) and keeps each unit's best time, so that a burst of load
# from other tenants -- on a shared VM these last from one to a few seconds
# -- is not taken for the program's latency.  Pass p runs the client thread
# on the p-th allowed CPU: such load often slows one vCPU and not the other.
PASSES = 2
# Setup probes per probe point: before, between and after the passes.
SETUP_PROBES = 1
TAIL_LEVELS = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
SMOKE_SEED = 1

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "unit_ms_p50": "ms", "unit_ms_tail": "ms",
    "peak_rss_mb": "MB",
}


class SetupError(Exception):
    """The checkout cannot be benchmarked (no package, no reference)."""


def load_package():
    """Import chanpolar from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "chanpolar" / "__init__.py").is_file():
        raise SetupError(f"no chanpolar package under {SRC}")
    sys.path.insert(0, str(SRC))
    import chanpolar
    import chanpolar.cli  # the package __init__ does not import the CLI

    if SRC not in Path(chanpolar.__file__).resolve().parents:
        raise SetupError(f"chanpolar was imported from {chanpolar.__file__}, not {SRC}")
    return chanpolar


def load_reference(workload: str) -> dict:
    if not REFERENCE.is_file():
        raise SetupError(f"missing {REFERENCE}")
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)[workload]


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name.endswith(".evals"):
        return "count"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("gen_per_element"):
        return "calls/call"
    if name.endswith("bytes_out"):
        return "bytes"
    return "ratio"


def environment() -> dict:
    """nproc, CPU model, Python/numpy/OpenBLAS versions, BLAS threads."""
    cpu = "unknown"
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(lib, sym):
                fn = getattr(lib, sym)
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
    }


# ---------------------------------------------------------------------------
# set-up and the timed loop
# ---------------------------------------------------------------------------


def prepare(workload: str, seed: int, seconds: float, mix=None):
    """Everything before the first timed unit: import, inputs, warm-up."""
    cp = load_package()
    reference = load_reference(workload)
    if mix is None:
        reps = wl.reps_for(workload, seconds / PASSES)
        units = wl.schedule(workload, seed, wl.MIXES[workload], reps)
    else:
        units = wl.schedule(workload, seed, mix, 1)
    workdir = WORK / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = wl.Runner(cp, workload, units, str(workdir))
    runner.warm_up()
    return cp, runner, reference


def measure_setup(workload: str, seed: int, seconds: float, probes: int) -> list:
    """Wall times from spawning a fresh interpreter to its first timed
    unit, for ``probes`` sequential child processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
           "--setup-probe"]
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - t0)
            proc.stdout.read()
            proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SetupError(f"setup probe failed (exit {proc.returncode})")
    return times


@contextlib.contextmanager
def client_on_cpu(index: int):
    """Run the calling thread (not the BLAS threads) on one allowed CPU."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {sorted(allowed)[index % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


@dataclass
class Loop:
    latencies: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    bytes_out: int = 0
    wall: float = 0.0
    cpu: float = 0.0


def run_loop(runner: wl.Runner, reference: dict, tracer=None, skip=frozenset()) -> Loop:
    """Run every unit once, in order, and check each against the reference.
    Units of a slot in ``skip`` are not run; their latency reads None."""
    loop = Loop()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for i, (slot, k) in enumerate(runner.units):
        key = f"{slot}/{k}"
        if slot in skip:
            loop.latencies.append(None)
            continue
        if tracer is not None:
            tracer.current_unit = i
        u0 = time.perf_counter()
        try:
            out = runner.run(i)
        except Exception as exc:  # a unit that raises is a failed unit
            loop.latencies.append(time.perf_counter() - u0)
            loop.mismatches.append(f"{key}: raised {exc!r}")
            continue
        loop.latencies.append(out.seconds)
        loop.bytes_out += out.bytes_out
        if reference.get(key) != [out.code, out.digest]:
            loop.mismatches.append(
                f"{key}: got exit {out.code} sha256 {out.digest}, "
                f"expected {reference.get(key)}"
            )
    loop.wall = time.perf_counter() - t0
    loop.cpu = time.process_time() - cpu0
    return loop


def tail(latencies):
    """(level, value, units beyond): the highest of TAIL_LEVELS with at least
    ten units beyond it (nearest rank); the maximum when there are too few."""
    xs = sorted(latencies)
    n = len(xs)
    for level in TAIL_LEVELS:
        rank = math.ceil(level / 100.0 * n - 1e-9)
        if n - rank >= 10:
            return level, xs[rank - 1], n - rank
    return 100.0, xs[-1], 0


def execute(workload: str, seed: int, seconds: float, trace: bool, mix=None,
            probes: int = SETUP_PROBES) -> dict:
    """One benchmark run.  Returns the result object plus printable notes."""
    cp, runner, reference = prepare(workload, seed, seconds, mix)
    setup = []
    loops = []
    try:
        if not trace:
            for p in range(PASSES):
                setup += measure_setup(workload, seed, seconds, probes)
                with client_on_cpu(p):
                    loops.append(run_loop(runner, reference,
                                          skip=wl.TIMED_ONCE if p else frozenset()))
            setup += measure_setup(workload, seed, seconds, probes)
        else:
            loops.append(run_loop(runner, reference))
            tr = tracing.Tracer(cp)
            tr.install()
            try:
                loops.append(run_loop(runner, reference, tr))
            finally:
                tr.uninstall()
            tr.save(WORK / f"trace-{workload}.npz")
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    attempted = sum(t is not None for lp in loops for t in lp.latencies)
    mismatches = [m for lp in loops for m in lp.mismatches]
    notes = [f"units {len(runner.units)} per pass, {len(loops)} pass(es)"]
    if trace:
        base, traced = loops
        metrics = tr.layer_metrics()
        metrics["cli.bytes_out"] = traced.bytes_out
        metrics["proc.cpu_s"] = base.cpu
        metrics["trace.overhead"] = traced.wall / base.wall - 1.0
        units = {k: per_layer_unit(k) for k in metrics}
        labels = {}
        notes.append(f"spans {len(tr.fid)} written to {WORK / f'trace-{workload}.npz'}")
    else:
        best = [min(t for t in ts if t is not None)
                for ts in zip(*(lp.latencies for lp in loops))]
        level, value, beyond = tail(best)
        notes.append("pass walls " + ", ".join(f"{lp.wall:.4g} s" for lp in loops)
                     + "; setup probes " + ", ".join(f"{t:.3g}" for t in setup) + " s")
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(best),
            "unit_ms_p50": statistics.median(best) * 1e3,
            "unit_ms_tail": value * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END_UNITS)
        labels = {"unit_ms_tail": f"(p{level:g}; {beyond} of {len(best)} units beyond)"}
    return {
        "result": {
            "correct": not mismatches,
            "attempted": attempted,
            "failed": len(mismatches),
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "notes": notes,
        "labels": labels,
        "mismatches": mismatches,
    }


def report(workload: str, seed: int, run: dict):
    """Human-readable lines, then the result object as the last line."""
    print(f"# chanpolar benchmark: workload {workload}, seed {seed}")
    print("# env " + json.dumps(environment(), sort_keys=True))
    for note in run["notes"]:
        print(f"# {note}")
    for m in run["mismatches"]:
        print(f"# MISMATCH {m}")
    res = run["result"]
    for name, m in res["metrics"].items():
        print(f"{name:48s} {m['value']:.6g} {m['unit']} {run['labels'].get(name, '')}".rstrip())
    print(f"{'fail_frac':48s} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} units)")
    print(json.dumps(res), flush=True)


# ---------------------------------------------------------------------------
# reference and self-check
# ---------------------------------------------------------------------------


def make_reference():
    """Run every pool unit of every workload once and record its exit code
    and output digest."""
    cp = load_package()
    out = {}
    for workload in wl.WORKLOADS:
        slots = sorted(set(wl.MIXES[workload]))
        units = [(s, k) for s in slots for k in range(wl.pool_size(workload, s))]
        workdir = WORK / f"ref-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            runner = wl.Runner(cp, workload, units, str(workdir))
            table = {}
            for i, (slot, k) in enumerate(units):
                o = runner.run(i)
                table[f"{slot}/{k}"] = [o.code, o.digest]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        codes = sorted({v[0] for v in table.values()})
        print(f"{workload}: {len(table)} units, exit codes {codes}", flush=True)
        out[workload] = table
    write_reference(out)


def write_reference(table: dict):
    """One unit per line, so that a diff shows which units changed."""
    lines = []
    for workload in sorted(table):
        entries = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table[workload].items())]
        lines.append(f"  {json.dumps(workload)}: {{\n" + ",\n".join(entries) + "\n  }")
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


COUNT_UNITS = ("count", "bytes", "calls/call")


def smoke() -> int:
    """Quick self-check on a few units per workload with a fixed seed."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared_e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []

    def expect(cond, msg):
        if not cond:
            problems.append(msg)

    for workload in wl.WORKLOADS:
        mix = wl.SMOKE_MIXES[workload]
        plain = execute(workload, SMOKE_SEED, 1, False, mix=mix, probes=1)["result"]
        traced = [execute(workload, SMOKE_SEED, 1, True, mix=mix)["result"] for _ in range(2)]
        for res in [plain] + traced:
            expect(res["correct"] and res["failed"] == 0, f"{workload}: unit failed")
        got = {k: v["unit"] for k, v in plain["metrics"].items()}
        expect(got == declared_e2e, f"{workload}: end-to-end metrics {got} != {declared_e2e}")
        got = {k: v["unit"] for k, v in traced[0]["metrics"].items()}
        expect(got == declared_layer,
               f"{workload}: per-layer metrics differ: "
               f"{sorted(set(got.items()) ^ set(declared_layer.items()))}")
        for name, m in traced[0]["metrics"].items():
            if m["unit"] in COUNT_UNITS or name.endswith("_ratio"):
                again = traced[1]["metrics"][name]["value"]
                expect(m["value"] == again,
                       f"{workload}: {name} {m['value']} then {again}")
        print(f"smoke {workload}: checked", flush=True)

    _, runner, reference = prepare("verify", SMOKE_SEED, 1, wl.SMOKE_MIXES["verify"])
    slot, k = runner.units[0]
    code, digest = reference[f"{slot}/{k}"]
    wrong = dict(reference)
    wrong[f"{slot}/{k}"] = [code, ("0" if digest[0] != "0" else "1") + digest[1:]]
    try:
        loop = run_loop(runner, wrong)
    finally:
        shutil.rmtree(runner.workdir, ignore_errors=True)
    expect(len(loop.mismatches) == 1,
           f"a wrong digest was not reported as one failure: {loop.mismatches}")
    for p in problems:
        print(f"SMOKE FAIL {p}")
    print("smoke ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--make-reference", action="store_true")
    args = ap.parse_args(argv)
    try:
        if args.smoke:
            return smoke()
        if args.make_reference:
            make_reference()
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        if args.setup_probe:
            _, runner, _ = prepare(args.workload, args.seed, args.seconds)
            shutil.rmtree(runner.workdir, ignore_errors=True)
            print("ready", flush=True)
            return 0
        run = execute(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report(args.workload, args.seed, run)
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
