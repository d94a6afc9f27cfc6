"""The three workloads: unit pools, per-seed schedules and unit execution.

A unit is one closed-loop request to chanpolar.  Each workload has a small
set of *slots* (a unit shape, e.g. "coherence_mix d=2 at level 0.01, depth
1500"); slot ``s`` with pool index ``k`` always builds the same input, and
``reference.json`` holds the expected exit code and output digest of every
(slot, k) pair.  A run's seed only picks pool indices and the order, so
every unit of every run is checked against a committed reference while the
mix of unit shapes -- and hence the cost of a run -- stays the same from
seed to seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
import zlib
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("verify", "sweep", "characterize")

VERIFY_TRIALS = 5
VERIFY_POOL = 256

# (slot name, family spec without params, max_depth)
SWEEP_SLOTS = (
    ("coh-l0.1", {"family": "coherence_mix", "dim": 2, "level": 0.1}, 1000),
    ("coh-l0.01", {"family": "coherence_mix", "dim": 2, "level": 0.01}, 1500),
    ("coh-l1e-4", {"family": "coherence_mix", "dim": 2, "level": 1e-4}, 2000),
    ("psd-d3", {"family": "psd_lk_decoherent", "dim": 3}, 1500),
    ("psd-d4", {"family": "psd_lk_decoherent", "dim": 4}, 2000),
    ("psd-d8", {"family": "psd_lk_decoherent", "dim": 8}, 1000),
    ("weyl-d2", {"family": "stochastic_weyl", "dim": 2}, 2000),
    ("weyl-d3", {"family": "stochastic_weyl", "dim": 3}, 1000),
    ("weyl-d4", {"family": "stochastic_weyl", "dim": 4}, 1500),
)
SWEEP_POOL = 16

SMALL_FAMILIES = (
    ("amplitude_damping", 2), ("amplitude_damping", 3),
    ("depolarizing", 2), ("depolarizing", 3),
    ("dephasing", 2), ("dephasing", 3),
    ("stochastic_weyl", 2), ("stochastic_weyl", 3),
    ("random_unitary_error", 2), ("random_unitary_error", 3),
    ("rotation", 2), ("rotation", 3),
    ("coherence_mix", 2), ("spiral", 3),
)
SMALL_POOL = 8
MC_SAMPLES = 100_000
MC_MAX_DIM = 8
CHARACTERIZE_POOL = {"random_cptp-d32": 16, "extremal_dephaser-d64": 16,
                     "extremal_dephaser-d1024": 1}
CHARACTERIZE_POOL.update({f"{f}-d{d}": SMALL_POOL for f, d in SMALL_FAMILIES})

# One repetition of each workload's mix; a pass over a run's units repeats
# the mix round(pass seconds / MIX_SECONDS) times (at least once).
# MIX_SECONDS is the cost of one mix at the seed commit on a 2-core Xeon,
# fixed here so that the work in a run depends only on --seconds, never on
# the program's speed.
MIXES = {
    "verify": ("verify",),
    "sweep": tuple(name for name, _, _ in SWEEP_SLOTS),
    "characterize": ("extremal_dephaser-d1024",)
    + ("random_cptp-d32",) * 3
    + ("extremal_dephaser-d64",) * 8
    + tuple(f"{f}-d{d}" for f, d in SMALL_FAMILIES) * 3,
}
MIX_SECONDS = {"verify": 0.3, "sweep": 2.5, "characterize": 26.0}
# Slots timed in the first pass only.  The d = 1024 unit alone takes about
# as long as the rest of a characterize pass; timing it twice would make a
# characterize run half again as long.
TIMED_ONCE = frozenset({"extremal_dephaser-d1024"})
# The quick mixes of the self-check: a few units, none of the slow ones.
SMOKE_MIXES = {
    "verify": ("verify", "verify"),
    "sweep": ("coh-l0.01", "psd-d8", "weyl-d3"),
    "characterize": ("amplitude_damping-d2", "spiral-d3", "coherence_mix-d2",
                     "extremal_dephaser-d64"),
}


def pool_size(workload: str, slot: str) -> int:
    if workload == "verify":
        return VERIFY_POOL
    if workload == "sweep":
        return SWEEP_POOL
    return CHARACTERIZE_POOL[slot]


def _rng(*words) -> np.random.Generator:
    return np.random.default_rng(
        [zlib.crc32(w.encode()) if isinstance(w, str) else int(w) for w in words]
    )


def schedule(workload: str, seed: int, mix, reps: int) -> list[tuple[str, int]]:
    """(slot, pool index) of every unit of a run, in order."""
    rng = _rng(workload, seed)
    out = []
    for _ in range(reps):
        for j in rng.permutation(len(mix)):
            slot = mix[j]
            out.append((slot, int(rng.integers(pool_size(workload, slot)))))
    return out


def reps_for(workload: str, pass_seconds: float) -> int:
    return max(1, round(pass_seconds / MIX_SECONDS[workload]))


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def sweep_config(slot: str, k: int) -> dict:
    spec, depth = next((s, d) for name, s, d in SWEEP_SLOTS if name == slot)
    rng = _rng("sweep", slot, k)
    fam = {"family": spec["family"], "dim": spec["dim"]}
    if spec["family"] == "coherence_mix":
        fam["params"] = {
            "infidelity": float(10 ** rng.uniform(np.log10(5e-5), np.log10(2e-4))),
            "level": spec["level"],
        }
    elif spec["family"] == "psd_lk_decoherent":
        fam["params"] = {"strength": float(rng.uniform(0.005, 0.05))}
        fam["seed"] = int(rng.integers(2**31))
    else:
        fam["params"] = {"p": float(rng.uniform(0.995, 0.9999))}
        fam["seed"] = int(rng.integers(2**31))
    return {"mode": "composition", "family": fam, "max_depth": depth}


def characterize_channel(genlib, slot: str, k: int):
    """The channel of a characterize unit, generated by chanpolar.genlib."""
    family, dim = slot.rsplit("-d", 1)
    d = int(dim)
    rng = _rng("characterize", slot, k)
    seed = int(rng.integers(2**31))
    u = rng.uniform
    if family == "random_cptp":
        return genlib.random_cptp(d, 4, seed, strength=float(u(0.05, 0.2)))
    if family == "extremal_dephaser":
        if d == 1024:
            return genlib.extremal_dephaser(d)
        return genlib.extremal_dephaser(
            d, base_scale=float(u(0.002, 0.05)), n_outliers=int(rng.integers(1, 9)),
            outlier_depth=float(u(0.1, 0.45)), seed=seed,
        )
    if family == "amplitude_damping":
        return genlib.amplitude_damping(d, float(u(0.01, 0.3)))
    if family == "depolarizing":
        return genlib.depolarizing(d, float(u(0.8, 0.99)))
    if family == "dephasing":
        return genlib.dephasing(d, float(u(0.01, 0.2)))
    if family == "stochastic_weyl":
        return genlib.stochastic_weyl(d, float(u(0.8, 0.99)), seed)
    if family == "random_unitary_error":
        return genlib.random_unitary_error(d, float(u(0.05, 0.5)), seed)
    if family == "rotation":
        return genlib.rotation(d, float(u(0.05, 0.5)))
    if family == "coherence_mix":
        return genlib.coherence_mix(float(10 ** u(-4, -2)), float(u(0.0, 1.0)), d)
    if family == "spiral":
        return genlib.spiral(float(u(0.1, 1.2)))
    raise ValueError(f"unknown characterize slot {slot}")


# ---------------------------------------------------------------------------
# execution
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, str):
        return x
    return format(float(x), ".17g")


def tour_bytes(results: dict) -> bytes:
    """``.17g`` serialization of the figures and spectra of a tour unit."""
    lines = []
    for key, val in results.items():
        if isinstance(val, dict):
            lines += [f"{key}.{k}={_fmt(v)}" for k, v in val.items()]
        elif isinstance(val, np.ndarray):
            lines.append(f"{key}=" + " ".join(_fmt(v) for v in val.ravel()))
        else:
            lines.append(f"{key}={_fmt(val)}")
    return ("\n".join(lines) + "\n").encode()


@dataclass
class Outcome:
    code: int
    digest: str
    bytes_out: int
    seconds: float


class Runner:
    """Builds the inputs of a schedule and executes its units."""

    def __init__(self, package, workload: str, units, workdir: str):
        self.cp = package
        self.workload = workload
        self.units = list(units)
        self.workdir = workdir
        self._sink = io.StringIO()
        self.inputs = [self._make_input(slot, k) for slot, k in self.units]

    def _make_input(self, slot: str, k: int):
        if self.workload == "verify":
            return ["verify", "--suite", "all", "--dims", "2,3",
                    "--trials", str(VERIFY_TRIALS), "--seed", str(k)]
        if self.workload == "sweep":
            path = os.path.join(self.workdir, f"sweep-{slot}-{k}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(sweep_config(slot, k), fh)
            return ["sweep", "--config", path]
        ch = characterize_channel(self.cp.genlib, slot, k)
        return (ch.dim, ch.kraus, zlib.crc32(f"{slot}/{k}".encode()))

    def warm_up(self):
        """One small unit of the workload's kind, not timed and not checked."""
        if self.workload == "characterize":
            self._tour((2, self.cp.genlib.amplitude_damping(2, 0.1).kraus, 1), 1000)
            return
        if self.workload == "verify":
            argv = ["verify", "--suite", "all", "--dims", "2", "--trials", "1"]
        else:
            path = os.path.join(self.workdir, "warmup.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump({"family": {"family": "coherence_mix", "dim": 2, "params":
                           {"infidelity": 1e-3, "level": 0.1}}, "max_depth": 20}, fh)
            argv = ["sweep", "--config", path]
        self._cli(argv)

    def run(self, i: int) -> Outcome:
        """Execute unit ``i``; its time excludes digesting the output."""
        inp = self.inputs[i]
        if self.workload == "characterize":
            t0 = time.perf_counter()
            results = self._tour(inp, MC_SAMPLES)
            dt = time.perf_counter() - t0
            payload = tour_bytes(results)
            return Outcome(0, hashlib.sha256(payload).hexdigest(), 0, dt)
        t0 = time.perf_counter()
        code, out = self._cli(inp)
        dt = time.perf_counter() - t0
        with open(out, "rb") as fh:
            payload = fh.read()
        os.remove(out)
        os.remove(out + ".manifest.json")
        return Outcome(code, hashlib.sha256(payload).hexdigest(), len(payload), dt)

    def _cli(self, argv):
        out = os.path.join(self.workdir, "out.csv")
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stderr(self._sink):
            code = self.cp.cli.main(argv + ["--out", out])
        return code, out

    def _tour(self, inp, mc_samples: int) -> dict:
        """The library quick-tour path on one channel."""
        cp = self.cp
        d, kraus, mc_seed = inp
        ch = cp.channel.KrausChannel(dim=d, kraus=kraus)  # a new object: empty caches
        self._sink.seek(0)
        self._sink.truncate()
        with contextlib.redirect_stderr(self._sink):
            rep = cp.metrics.report(ch)
            pol = cp.polar.channel_polar(ch)
            eq = cp.polar.equability(ch)
            split = cp.polar.infidelity_split(ch)
            cls = cp.polar.classify(ch)
            out = {
                "report": rep.as_dict(),
                "polar.singular_values": pol.singular_values,
                "polar.phase_fixed": pol.phase_fixed,
                "polar.unique": pol.unique,
                "equability.sigma": eq.sigma,
                "equability.lambda_re": eq.lambda_re,
                "equability": {k: getattr(eq, k) for k in (
                    "Gamma_decoh", "Gamma_coh", "gamma_decoh", "gamma_coh",
                    "sse_ok", "wse_ok")},
                "split": split.as_dict(),
                "classify": cls.as_dict(),
            }
            if d <= MC_MAX_DIM:
                f = cp.metrics.haar_fidelity_mc(ch, n_samples=mc_samples, seed=mc_seed)
                u = cp.metrics.haar_unitarity_mc(ch, n_samples=mc_samples, seed=mc_seed)
                out["mc"] = {"fidelity": f.estimate, "fidelity_stderr": f.stderr,
                             "unitarity": u.estimate, "unitarity_stderr": u.stderr}
        return out
