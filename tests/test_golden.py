"""Golden outputs: every data output of the CLI, byte for byte.

Each case runs one ``chanpolar`` command on committed inputs and compares
the data file it writes (JSON or CSV; never the manifest sidecar, which
carries the wall clock) and its exit code with the files in
``tests/golden/``.  Regenerate them only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py

Before that, ``--diff`` regenerates every input and output into a temporary
directory and prints, per golden file, the largest absolute change of each
numeric field.  It exits 1 if an exit code or a non-numeric field changes,
or if a number moves by more than ``DIFF_BOUND``:

    PYTHONPATH=src python tests/test_golden.py --diff
"""

import csv
import hashlib
import importlib.util
import io
import json
import math
import pathlib
import sys
import tempfile
from dataclasses import fields

import pytest

import chanpolar
from chanpolar import channel as chn
from chanpolar import cli, genlib, matcore, suites
from chanpolar.cli import main
from wire_format import choi_to_json, per_cell_csv, unitary_to_json

GOLDEN = pathlib.Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"
BENCH_REFERENCE = pathlib.Path(__file__).parents[1] / "perfbench" / "reference.json"

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
    # tr V = 0: the equability error object, classify's undefined phase
    "decompose-rotation-d2-tracezero.json": (
        ["decompose", "--in", "{inputs}/rotation-d2-tracezero.json"], 0),
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
        "rotation-d2-tracezero.json": chn.channel_to_json(
            genlib.rotation(2, math.pi / 2)),
        "random_cptp-d2-choi.json": choi_to_json(
            chn.to_choi(genlib.random_cptp(2, 3, seed=5, strength=0.2))),
        "random_unitary_error-d3.json": chn.channel_to_json(
            genlib.random_unitary_error(3, 0.2, seed=3)),
        "target-d3.json": unitary_to_json(genlib.random_unitary(3, seed=4)),
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


def _run(name: str, out: pathlib.Path, inputs: pathlib.Path = INPUTS) -> int:
    argv, _ = CASES[name]
    argv = [a.replace("{inputs}", str(inputs)) for a in argv]
    return main(argv + ["--out", str(out)])


def _write_inputs(inputs: pathlib.Path):
    inputs.mkdir(parents=True, exist_ok=True)
    for fname, obj in _inputs().items():
        (inputs / fname).write_text(json.dumps(obj, indent=1) + "\n")


# ---------------------------------------------------------------------------
# the regenerate diff report
# ---------------------------------------------------------------------------

DIFF_BOUND = 1e-12  # absolute: cancellation gaps near 1e-9 move far more relatively
# CSV columns written as 0/1 flags, compared as labels
FLAG_COLUMNS = {f.name for rec in (matcore.BoundReport, suites.SweepRow, suites.SigmaProfile)
                for f in fields(rec) if f.type == "bool"}


def _json_fields(obj, path=""):
    """(field, value) of every leaf; a field is its path of object keys, so
    the entries of a list (matrices, [re, im] pairs, spectra) share one."""
    if isinstance(obj, dict):
        for key, val in obj.items():
            yield from _json_fields(val, f"{path}.{key}" if path else key)
    elif isinstance(obj, list):
        for val in obj:
            yield from _json_fields(val, path)
    else:
        yield path, obj


def _csv_fields(text: str):
    """(column, cell) of every cell after a header field; a cell is a float
    where it parses as one, outside the flag columns."""
    header, *rows = csv.reader(io.StringIO(text))
    yield "header", ",".join(header)
    for row in rows:
        for col, cell in zip(header, row):
            try:
                yield col, cell if col in FLAG_COLUMNS else float(cell)
            except ValueError:
                yield col, cell


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def compare_fields(old, new) -> tuple[dict, list]:
    """``({field: largest |new - old|}, [fields whose non-numeric value
    changed])`` of two ``(field, value)`` sequences; a different field
    layout is reported as the change ``"layout"``."""
    old, new = list(old), list(new)
    if [f for f, _ in old] != [f for f, _ in new]:
        return {}, ["layout"]
    moves, changed = {}, []
    for (name, a), (_, b) in zip(old, new):
        if _is_number(a) and _is_number(b):
            move = 0.0 if a == b or (math.isnan(a) and math.isnan(b)) else abs(a - b)
            moves[name] = max(moves.get(name, 0.0), math.inf if math.isnan(move) else move)
        elif type(a) is not type(b) or a != b:
            changed.append(name)
    return moves, changed


def _file_fields(path: pathlib.Path):
    text = path.read_text()
    return _csv_fields(text) if path.suffix == ".csv" else _json_fields(json.loads(text))


def diff_report() -> int:
    """Print the regenerate diff report; 1 if any change is out of bounds."""
    failed = False
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        _write_inputs(tmp / "inputs")
        pairs = [(f"inputs/{f}", None, None) for f in sorted(_inputs())]
        for name in sorted(CASES):
            code = _run(name, tmp / name, tmp / "inputs")
            pairs.append((name, code, CASES[name][1]))
        for name, code, expected in pairs:
            moves, changed = compare_fields(_file_fields(GOLDEN / name),
                                            _file_fields(tmp / name))
            if code != expected:
                changed.insert(0, f"exit code {expected} -> {code}")
            bad = changed + [f for f, m in moves.items() if not m <= DIFF_BOUND]
            failed = failed or bool(bad)
            print(f"{name}: {'CHANGED ' + ', '.join(bad) if bad else 'ok'}")
            for field, move in moves.items():
                print(f"  {field}: {move:.3g}")
    print("FAIL" if failed else f"every golden within {DIFF_BOUND:g}")
    return int(failed)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name, tmp_path, capsys):
    out = tmp_path / name
    code = _run(name, out)
    capsys.readouterr()
    assert code == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize(
    "name", sorted(n for n in CASES if n.startswith(("verify-", "sweep-composition-")))
)
def test_golden_csv_per_cell_route(name, tmp_path, capsys, monkeypatch):
    """The verify and composition-sweep goldens are also the bytes of the
    per-cell reference route, which the %-format writer replaced."""
    monkeypatch.setattr(cli, "_records_csv", lambda _, columns, records: per_cell_csv(
        columns, records))
    out = tmp_path / name
    code = _run(name, out)
    capsys.readouterr()
    assert code == CASES[name][1]
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("seed, ordered", [*((seed, 0) for seed in range(10)), (219, 2)])
def test_verify_benchmark_units(seed, ordered, tmp_path, capsys, monkeypatch):
    """Exit code and SHA-256 of ``verify`` pool units against the
    benchmark's committed reference, which this test only reads: a moved bit
    in any suite's rows fails here.  Pool seed 219 holds a d = 3 Choi matrix
    with a degenerate block above the drop floor (kept eigenvalues 1.25e-10
    and 9.5e-11), so its stacked canonical form sorts that block's two
    columns."""
    code, digest = json.loads(BENCH_REFERENCE.read_text())["verify"][f"verify/{seed}"]
    calls = []
    lex_key = matcore._lex_key
    monkeypatch.setattr(matcore, "_lex_key", lambda col: calls.append(col.size) or lex_key(col))
    out = tmp_path / "verify.csv"
    argv = ["verify", "--suite", "all", "--dims", "2,3", "--trials", "5",
            "--seed", str(seed), "--out", str(out)]
    assert main(argv) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    assert calls == [9] * ordered


@pytest.mark.parametrize("unit", ["extremal_dephaser-d64/0", "extremal_dephaser-d64/1",
                                  "depolarizing-d2/0", "random_unitary_error-d3/0", "spiral-d3/0"])
def test_characterize_benchmark_units(unit, tmp_path, monkeypatch):
    """SHA-256 of ``characterize`` pool units (the library quick tour on one
    channel) against the benchmark's committed reference, through the
    benchmark's own runner; both are only read.  The d = 32 units are left
    out, since their digests follow the BLAS thread count, and so is the
    1 s d = 1024 unit."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", BENCH_REFERENCE.parent / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    slot, k = unit.split("/")
    runner = workloads.Runner(chanpolar, "characterize", [(slot, int(k))], str(tmp_path))
    outcome = runner.run(0)
    want = json.loads(BENCH_REFERENCE.read_text())["characterize"][unit]
    assert [outcome.code, outcome.digest] == want


class TestDiffComparator:
    """The field comparator of the ``--diff`` report on synthetic pairs."""

    OLD = {"phi": 0.5, "pairs": [[1.0, -0.0], [0.25, 1e-9]], "holds": True, "label": "A"}

    def compare(self, **changes):
        return compare_fields(_json_fields(self.OLD), _json_fields(dict(self.OLD, **changes)))

    def test_move_within_the_bound(self):
        moves, changed = self.compare(pairs=[[1.0, 0.0], [0.25, 1e-9 + 5e-13]])
        assert changed == [] and moves["phi"] == 0.0
        assert 0.0 < moves["pairs"] <= DIFF_BOUND

    def test_move_over_the_bound(self):
        moves, changed = self.compare(phi=0.5 + 2e-12)
        assert changed == [] and moves["phi"] > DIFF_BOUND

    def test_flipped_bool(self):
        assert self.compare(holds=False)[1] == ["holds"]
        assert self.compare(holds=1)[1] == ["holds"]  # not a number: its type moved

    def test_changed_label_and_layout(self):
        assert self.compare(label="B")[1] == ["label"]
        assert self.compare(pairs=[[1.0, 0.0]])[1] == ["layout"]

    def test_csv_flags_compare_as_labels(self):
        text = "case_id,observed,holds\nx,0.5,1\n"
        moves, changed = compare_fields(_csv_fields(text),
                                        _csv_fields(text.replace(",1\n", ",0\n")))
        assert changed == ["holds"] and moves == {"observed": 0.0}


def regenerate():
    _write_inputs(INPUTS)
    for name in sorted(CASES):
        out = GOLDEN / name
        code = _run(name, out)
        (GOLDEN / (name + ".manifest.json")).unlink()
        if code != CASES[name][1]:
            raise SystemExit(f"{name}: exit {code}, expected {CASES[name][1]}")
        print(f"{name}: {out.stat().st_size} bytes")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        raise SystemExit(diff_report())
    regenerate()
