"""Golden outputs: every data output of the CLI, byte for byte.

Each case runs one ``chanpolar`` command on committed inputs and compares
the data file it writes (JSON or CSV; never the manifest sidecar, which
carries the wall clock) and its exit code with the files in
``tests/golden/``.  Regenerate them only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
import math
import pathlib

import pytest

from chanpolar import channel as chn
from chanpolar import genlib
from chanpolar.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

# output file -> (argv with an {inputs} placeholder, expected exit code)
CASES = {
    "decompose-amplitude_damping-d2.json": (
        ["decompose", "--in", "{inputs}/amplitude_damping-d2.json"], 0),
    "decompose-depolarizing-d2.json": (
        ["decompose", "--in", "{inputs}/depolarizing-d2.json"], 0),
    "decompose-spiral-d3.json": (
        ["decompose", "--in", "{inputs}/spiral-d3.json"], 0),
    "decompose-rotation-d2.json": (
        ["decompose", "--in", "{inputs}/rotation-d2.json"], 0),
    "decompose-random_cptp-d2-choi.json": (
        ["decompose", "--in", "{inputs}/random_cptp-d2-choi.json"], 0),
    "metrics-random_unitary_error-d3-target.json": (
        ["metrics", "--in", "{inputs}/random_unitary_error-d3.json",
         "--target", "{inputs}/target-d3.json"], 0),
    "compose-amplitude_damping-rotation-d2.json": (
        ["compose", "--in", "{inputs}/amplitude_damping-d2.json",
         "--in", "{inputs}/rotation-d2.json"], 0),
    "verify-all-d2-3-t20-s1.csv": (
        ["verify", "--suite", "all", "--dims", "2,3", "--trials", "20",
         "--seed", "1"], 0),
    "sweep-composition-psd_lk_decoherent-d3.csv": (
        ["sweep", "--config", "{inputs}/sweep-composition-psd_lk_decoherent-d3.json"],
        0),
    "sweep-composition-spiral-d3.csv": (
        ["sweep", "--config", "{inputs}/sweep-composition-spiral-d3.json"], 0),
    # deeper than one block of the sweep's stacked eigvalsh (256 depths)
    "sweep-composition-rotation-d2-depth600.csv": (
        ["sweep", "--config", "{inputs}/sweep-composition-rotation-d2-depth600.json"],
        3),
    "sweep-composition-psd_lk_decoherent-d5-depth700.csv": (
        ["sweep", "--config",
         "{inputs}/sweep-composition-psd_lk_decoherent-d5-depth700.json"], 0),
    "sweep-composition-coherence_mix-d2-depth777.csv": (
        ["sweep", "--config",
         "{inputs}/sweep-composition-coherence_mix-d2-depth777.json"], 3),
    "sweep-sigma_profile-extremal_dephaser-d16.csv": (
        ["sweep", "--config", "{inputs}/sweep-sigma_profile-extremal_dephaser-d16.json"],
        0),
}


def _inputs() -> dict:
    """The committed input files, as written by :func:`regenerate`."""
    return {
        "amplitude_damping-d2.json": chn.channel_to_json(
            genlib.amplitude_damping(2, 0.19)),
        "depolarizing-d2.json": chn.channel_to_json(genlib.depolarizing(2, 0.9)),
        "spiral-d3.json": chn.channel_to_json(genlib.spiral(0.7)),
        "rotation-d2.json": chn.channel_to_json(genlib.rotation(2, 0.1)),
        "random_cptp-d2-choi.json": chn.choi_to_json(
            chn.to_choi(genlib.random_cptp(2, 3, seed=5, strength=0.2))),
        "random_unitary_error-d3.json": chn.channel_to_json(
            genlib.random_unitary_error(3, 0.2, seed=3)),
        "target-d3.json": chn.unitary_to_json(genlib.random_unitary(3, seed=4)),
        "sweep-composition-psd_lk_decoherent-d3.json": {
            "mode": "composition",
            "family": {"family": "psd_lk_decoherent", "dim": 3,
                       "params": {"strength": 0.03}, "seed": 11},
            "max_depth": 200,
        },
        "sweep-composition-spiral-d3.json": {
            "mode": "composition",
            "family": {"family": "spiral", "dim": 3, "params": {"alpha": 0.1}},
            "max_depth": 150,
        },
        # V^m is traceless at m = 3 (mod 6): the gamma_coh = 0 path
        "sweep-composition-rotation-d2-depth600.json": {
            "mode": "composition",
            "family": {"family": "rotation", "dim": 2,
                       "params": {"theta": math.pi / 6}},
            "max_depth": 600,
        },
        "sweep-composition-psd_lk_decoherent-d5-depth700.json": {
            "mode": "composition",
            "family": {"family": "psd_lk_decoherent", "dim": 5,
                       "params": {"strength": 0.02}, "seed": 3},
            "max_depth": 700,
        },
        "sweep-composition-coherence_mix-d2-depth777.json": {
            "mode": "composition",
            "family": {"family": "coherence_mix", "dim": 2,
                       "params": {"infidelity": 1e-4, "level": 0.5}},
            "max_depth": 777,
        },
        "sweep-sigma_profile-extremal_dephaser-d16.json": {
            "mode": "sigma_profile",
            "family": {"family": "extremal_dephaser", "dim": 16,
                       "params": {"base_scale": 2.5e-3, "n_outliers": 2,
                                  "outlier_depth": 0.02},
                       "seed": 9},
            "max_depth": 1,
        },
    }


def _run(name: str, out: pathlib.Path) -> int:
    argv, _ = CASES[name]
    argv = [a.replace("{inputs}", str(INPUTS)) for a in argv]
    return main(argv + ["--out", str(out)])


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    out = tmp_path / name
    code = _run(name, out)
    capsys.readouterr()
    assert code == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


def regenerate():
    INPUTS.mkdir(parents=True, exist_ok=True)
    for fname, obj in _inputs().items():
        (INPUTS / fname).write_text(json.dumps(obj, indent=1) + "\n")
    for name in sorted(CASES):
        out = GOLDEN / name
        code = _run(name, out)
        (GOLDEN / (name + ".manifest.json")).unlink()
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        print(f"{name}: {out.stat().st_size} bytes")


if __name__ == "__main__":
    regenerate()
