import csv
import dataclasses
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import cli, genlib, polar, suites
from chanpolar.cli import main
from chanpolar.matcore import BoundReport
from wire_format import choi_to_json, fmt_cell, per_cell_csv, unitary_to_json


def write_channel(path, ch):
    path.write_text(json.dumps(chn.channel_to_json(ch)))
    return str(path)


def csv_header(path):
    with open(path, newline="") as fh:
        return next(csv.reader(fh))


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestDecompose:
    def test_identity_report(self, tmp_path, capsys):
        p = write_channel(tmp_path / "id.json", genlib.identity_channel(2))
        assert main(["decompose", "--in", p]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["metrics"]["phi"] == pytest.approx(1.0)
        assert rep["metrics"]["upsilon"] == pytest.approx(1.0)
        unit = np.array(rep["polar"]["unitary"])
        assert np.allclose(unit[:, 0] + 1j * unit[:, 1], np.eye(2).flatten())

    def test_amplitude_damping_report(self, tmp_path, capsys):
        p = write_channel(tmp_path / "ad.json", genlib.amplitude_damping(2, 0.19))
        assert main(["decompose", "--in", p]) == 0
        rep = json.loads(capsys.readouterr().out)
        a1 = np.array(rep["lk"]["a1"])
        a1 = (a1[:, 0] + 1j * a1[:, 1]).reshape(2, 2)
        assert np.allclose(a1, np.diag([1.0, 0.9]), atol=1e-9)
        assert rep["decoherent"] is True

    def test_kappa_flag(self, tmp_path, capsys):
        p = write_channel(tmp_path / "ad.json", genlib.amplitude_damping(2, 0.19))
        assert main(["decompose", "--in", p, "--kappa", "0.25"]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["equability"]["kappa"] == 0.25

    def test_malformed_json_exit_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        assert main(["decompose", "--in", str(p)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "parse"

    def test_cptp_violation_exit_3(self, tmp_path, capsys):
        ch = chn.KrausChannel.from_ops([np.eye(2), np.eye(2)])
        p = write_channel(tmp_path / "notp.json", ch)
        assert main(["decompose", "--in", str(p)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"

    def test_non_cp_choi_exit_3(self, tmp_path, capsys):
        bad = np.diag([1.5, 1.0, -0.5, 0.0]).astype(complex)
        p = tmp_path / "badchoi.json"
        p.write_text(json.dumps(choi_to_json(bad)))
        assert main(["decompose", "--in", str(p)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"

    def test_one_decoherence_check(self, tmp_path, monkeypatch, capsys):
        # the "decoherent" field is classify's verdict, not a second check
        calls = []
        is_decoherent = polar.is_decoherent
        monkeypatch.setattr(
            polar, "is_decoherent", lambda ch: calls.append(ch) or is_decoherent(ch)
        )
        for ch, expected in ((genlib.amplitude_damping(2, 0.19), True),
                             (genlib.rotation(2, 0.3), False)):
            calls.clear()
            p = write_channel(tmp_path / "in.json", ch)
            assert main(["decompose", "--in", p]) == 0
            assert json.loads(capsys.readouterr().out)["decoherent"] is expected
            assert len(calls) == 1

    def test_output_file_and_manifest(self, tmp_path):
        p = write_channel(tmp_path / "dep.json", genlib.depolarizing(2, 0.9))
        out = tmp_path / "report.json"
        assert main(["decompose", "--in", p, "--out", str(out)]) == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "report.json.manifest.json").read_text())
        assert manifest["tool"] == "chanpolar"
        assert manifest["command"] == "decompose"


class TestMetricsCmd:
    def test_with_target(self, tmp_path, capsys):
        u = genlib.rotation_matrix(2, 0.1)
        ch = chn.KrausChannel(dim=2, kraus=u[np.newaxis])
        p = write_channel(tmp_path / "rot.json", ch)
        t = tmp_path / "target.json"
        t.write_text(json.dumps(unitary_to_json(u)))
        assert main(["metrics", "--in", p, "--target", str(t)]) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["phi"] == pytest.approx(1.0)


class TestComposeCmd:
    def test_rotations_add(self, tmp_path, capsys):
        p1 = write_channel(tmp_path / "r1.json", genlib.rotation(2, 0.1))
        p2 = write_channel(tmp_path / "r2.json", genlib.rotation(2, 0.2))
        assert main(["compose", "--in", p1, "--in", p2]) == 0
        obj = json.loads(capsys.readouterr().out)
        back = chn.channel_from_json(obj)
        expect = genlib.rotation_matrix(2, 0.3)
        overlap = abs(np.trace(expect.conj().T @ back.kraus[0])) / 2
        assert overlap == pytest.approx(1.0, abs=1e-9)


class TestVerifyCmd:
    def test_lemma_suite_passes(self, tmp_path):
        out = tmp_path / "lemmas.csv"
        code = main(
            ["verify", "--suite", "lemmas", "--dims", "2", "--trials", "20",
             "--seed", "42", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 40
        assert set(rows[0]) == {
            "case_id", "theorem", "observed", "lower", "upper", "slack", "holds",
        }
        assert all(r["holds"] == "1" for r in rows)

    def test_appendix_suite_passes(self, tmp_path):
        out = tmp_path / "app.csv"
        assert (
            main(
                ["verify", "--suite", "appendix", "--dims", "2,3", "--trials", "50",
                 "--seed", "1", "--out", str(out)]
            )
            == 0
        )

    def test_zero_trials_usage_error(self, capsys):
        assert main(["verify", "--suite", "lemmas", "--trials", "0"]) == 64
        err = json.loads(capsys.readouterr().err.splitlines()[-1])
        assert err["error"] == "usage"

    def test_no_case_selected_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--suite", "theorems", "--dims", "16",
                     "--out", "rows.csv"]) == 64
        cap = capsys.readouterr()
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        assert "d <= 8" in json.loads(lines[0])["detail"]
        assert cap.out == "" and list(tmp_path.iterdir()) == []

    def test_all_above_the_theorem_cap_runs_lemmas_and_appendix(self, tmp_path):
        out = tmp_path / "rows.csv"
        assert main(["verify", "--suite", "all", "--dims", "16", "--trials", "1",
                     "--out", str(out)]) == 0
        theorems = {r["theorem"] for r in read_csv(out)}
        assert theorems == {"lemma1", "lemma2", "appendix_trace", "appendix_vn",
                            "appendix_norm"}

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = tmp_path / "v1.csv", tmp_path / "v2.csv"
        args = ["verify", "--suite", "appendix", "--dim", "2", "--trials", "25",
                "--seed", "3"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_violation_exits_1_csv_still_written(self, tmp_path, monkeypatch):
        from chanpolar import suites as suites_mod

        fake = [
            BoundReport(case_id="fake/0", theorem="thm1", observed=2.0, lower=0.0,
                        upper=1.0, slack=-1.0, holds=False),
            BoundReport(case_id="fake/1", theorem="thm1", observed=0.5, lower=0.0,
                        upper=1.0, slack=0.5, holds=True),
        ]
        monkeypatch.setattr(suites_mod, "run_suite", lambda *a, **k: fake)
        out = tmp_path / "viol.csv"
        assert main(["verify", "--suite", "lemmas", "--trials", "1",
                     "--out", str(out)]) == 1
        rows = read_csv(out)
        assert len(rows) == 2 and rows[0]["holds"] == "0"

    def test_unknown_flag_usage_error(self):
        assert main(["verify", "--nope"]) == 64

    def test_header_is_the_record_column_order(self, tmp_path):
        out = tmp_path / "v.csv"
        assert main(["verify", "--suite", "appendix", "--dim", "2", "--trials", "2",
                     "--out", str(out)]) == 0
        header = csv_header(out)
        assert header == ["case_id", "theorem", "observed", "lower", "upper",
                          "slack", "holds"]
        assert header == [f.name for f in dataclasses.fields(BoundReport)][:7]


class TestParserState:
    def test_consecutive_calls_share_no_state(self, tmp_path, monkeypatch):
        """The parser is built once per process; each call still parses into
        a namespace of its own, with the defaults of a fresh parser."""
        seen = []
        monkeypatch.setattr(cli, "_COMMANDS", dict(
            cli._COMMANDS, verify=lambda args: seen.append(args) or cli._Result("", {})))
        first = ["verify", "--suite", "lemmas", "--dims", "2,3", "--trials", "3", "--seed", "5"]
        second = ["verify", "--out", str(tmp_path / "v.csv")]
        assert main(first) == 0 and main(second) == 0
        assert seen[0] is not seen[1]
        assert (seen[0].seed, seen[0].trials, seen[0].dims, seen[0].out) == (5, 3, (2, 3), None)
        for args, argv in zip(seen, (first, second)):
            assert vars(args) == vars(cli._build_parser().parse_args(argv))


class TestSweepCmd:
    def _config(self, tmp_path, family, max_depth=3, mode="composition"):
        cfg = {
            "mode": mode,
            "family": family,
            "max_depth": max_depth,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        return str(p)

    def test_rotation_sweep_phi_column(self, tmp_path):
        cfg = self._config(
            tmp_path, {"family": "rotation", "dim": 2, "params": {"theta": 0.1}}, 3
        )
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        rows = read_csv(out)
        assert float(rows[2]["phi"]) == pytest.approx(np.cos(0.3) ** 2, abs=1e-12)

    def test_depth_one_matches_metrics(self, tmp_path, capsys):
        fam = {"family": "amplitude_damping", "dim": 2, "params": {"gamma": 0.19}}
        cfg = self._config(tmp_path, fam, 1)
        out = tmp_path / "one.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        row = read_csv(out)[0]
        p = write_channel(tmp_path / "ad.json", genlib.amplitude_damping(2, 0.19))
        main(["metrics", "--in", p])
        rep = json.loads(capsys.readouterr().out)
        assert float(row["phi"]) == pytest.approx(rep["phi"], abs=1e-12)
        assert float(row["upsilon_envelope"]) == pytest.approx(rep["upsilon"], abs=1e-12)

    def test_byte_identical_reruns(self, tmp_path):
        fam = {"family": "coherence_mix", "dim": 2,
               "params": {"infidelity": 1e-4, "level": 0.01}}
        cfg = self._config(tmp_path, fam, 50)
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", cfg, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert any("infidelity" in note for note in manifest["notes"])

    def test_catastrophic_sweep_exit_3_rows_flagged(self, tmp_path, capsys):
        cfg = self._config(
            tmp_path, {"family": "rotation", "dim": 2, "params": {"theta": 0.3}}, 10
        )
        out = tmp_path / "cat.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        rows = read_csv(out)
        assert len(rows) == 10  # rows still emitted
        assert any(r["non_catastrophic"] == "0" for r in rows)
        # one error line, written by main as for a raised domain error
        assert [json.loads(line) for line in capsys.readouterr().err.splitlines()] == [
            {"error": "domain",
             "detail": "composition left the non-catastrophic regime mid-sweep"}
        ]
        manifest = json.loads(Path(str(out) + ".manifest.json").read_text())
        assert manifest["command"] == "sweep" and manifest["seed"] is None
        assert manifest["config"] == json.loads(Path(cfg).read_text())

    def test_seed_flag_is_the_config_seed(self, tmp_path):
        fam = {"family": "psd_lk_decoherent", "dim": 2, "params": {"strength": 0.1},
               "seed": 1}
        cfg = self._config(tmp_path, fam, 5)
        out = [tmp_path / f"{name}.csv" for name in ("flag", "config", "seed1")]
        assert main(["sweep", "--config", cfg, "--seed", "7", "--out", str(out[0])]) == 0
        assert main(["sweep", "--config", self._config(tmp_path, dict(fam, seed=7), 5),
                     "--out", str(out[1])]) == 0
        assert main(["sweep", "--config", self._config(tmp_path, fam, 5),
                     "--out", str(out[2])]) == 0
        assert out[0].read_bytes() == out[1].read_bytes()
        assert out[0].read_bytes() != out[2].read_bytes()

    def test_ratio_at_most_half_gives_no_coherent_bound(self, tmp_path):
        # Phi / Upsilon = cos^2(1.2) < 1/2 is outside the envelope's domain
        cfg = self._config(
            tmp_path, {"family": "rotation", "dim": 2, "params": {"theta": 1.2}}, 3
        )
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 3
        assert [float(r["coherent_lower"]) for r in read_csv(out)] == [0.0] * 3

    def test_sigma_profile_mode(self, tmp_path):
        fam = {
            "family": "extremal_dephaser", "dim": 16,
            "params": {"base_scale": 2.5e-3, "n_outliers": 2, "outlier_depth": 0.02},
            "seed": 9,
        }
        cfg = self._config(tmp_path, fam, mode="sigma_profile")
        out = tmp_path / "prof.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "row_type"
        sigma_rows = [r for r in rows[1:] if r[0] == "sigma"]
        summary = [r for r in rows[1:] if r[0] == "summary"]
        assert len(sigma_rows) == 16 and len(summary) == 1

    def test_sigma_profile_of_unperturbed_element(self, tmp_path):
        """An unperturbed spectrum's summary has zero cells and an infinite
        threshold; every cell equals the per-cell reference route."""
        fam = {"family": "rotation", "dim": 2, "params": {"theta": 0.3}}
        out = tmp_path / "prof.csv"
        cfg = self._config(tmp_path, fam, mode="sigma_profile")
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[-1] == "summary,,,0.99999999999999978,0,0,0,inf,1,1"
        prof = suites.sigma_profile(genlib.rotation(2, 0.3))
        assert lines[-1] == "summary,,," + per_cell_csv(
            cli._PROFILE_SUMMARY, [prof]).splitlines()[1]
        blank = "," * len(cli._PROFILE_SUMMARY)
        assert lines[1:-1] == [f"sigma,{i},{fmt_cell(x)}{blank}" for i, x in enumerate(prof.sigma)]

    def test_missing_family_exit_2(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": "composition", "max_depth": 2}))
        assert main(["sweep", "--config", str(p)]) == 2

    def test_missing_family_param_exit_2(self, tmp_path):
        cfg = self._config(tmp_path, {"family": "depolarizing", "dim": 2}, 2)
        assert main(["sweep", "--config", cfg]) == 2

    def test_unknown_metric_name_exit_2(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(
            json.dumps(
                {
                    "family": {"family": "rotation", "dim": 2, "params": {"theta": 0.1}},
                    "max_depth": 2,
                    "metrics": ["phi", "nope"],
                }
            )
        )
        assert main(["sweep", "--config", str(p)]) == 2

    def test_metrics_key_selects_columns(self, tmp_path):
        fam = {"family": "coherence_mix", "dim": 2,
               "params": {"infidelity": 1e-4, "level": 0.5}}
        full = tmp_path / "full.csv"
        assert main(["sweep", "--config", self._config(tmp_path, fam, 20),
                     "--out", str(full)]) == 0
        p = tmp_path / "pick.json"
        p.write_text(json.dumps({"family": fam, "max_depth": 20,
                                 "metrics": ["coherent_lower", "phi"]}))
        pick = tmp_path / "pick.csv"
        assert main(["sweep", "--config", str(p), "--out", str(pick)]) == 0
        header = csv_header(pick)
        # depth first, then the named columns in table order
        assert header == ["depth", "phi", "coherent_lower"]
        assert read_csv(pick) == [{k: r[k] for k in header} for r in read_csv(full)]

    def test_header_is_the_sweep_row_fields(self, tmp_path):
        fam = {"family": "rotation", "dim": 2, "params": {"theta": 0.1}}
        names = [f.name for f in dataclasses.fields(suites.SweepRow)]
        out = tmp_path / "rows.csv"
        assert main(["sweep", "--config", self._config(tmp_path, fam, 2),
                     "--out", str(out)]) == 0
        assert csv_header(out) == names
        p = tmp_path / "pick.json"
        p.write_text(json.dumps({"family": fam, "max_depth": 2,
                                 "metrics": ["contained", "thm8_lower", "phi"]}))
        assert main(["sweep", "--config", str(p), "--out", str(out)]) == 0
        assert csv_header(out) == [
            n for n in names if n in ("depth", "phi", "thm8_lower", "contained")
        ]

    @pytest.mark.parametrize("metrics", ["phi", [1], {"phi": 1}])
    def test_metrics_not_a_list_of_names_exit_2(self, tmp_path, metrics):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "family": {"family": "rotation", "dim": 2, "params": {"theta": 0.1}},
            "max_depth": 2, "metrics": metrics,
        }))
        assert main(["sweep", "--config", str(p)]) == 2

    @pytest.mark.parametrize("out", [7, "", None, ["rows.csv"]])
    def test_out_key_not_a_path_exit_2(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "family": {"family": "rotation", "dim": 2, "params": {"theta": 0.1}},
            "max_depth": 2, "out": out,
        }))
        assert main(["sweep", "--config", str(p)]) == 2
        cap = capsys.readouterr()
        assert cap.out == ""  # nothing written, not even to stdout
        assert json.loads(cap.err)["error"] == "parse"
        assert sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]

    def test_out_key_writes_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "family": {"family": "rotation", "dim": 2, "params": {"theta": 0.1}},
            "max_depth": 2, "out": "rows.csv",
        }))
        assert main(["sweep", "--config", str(p)]) == 0
        assert [r["depth"] for r in read_csv(tmp_path / "rows.csv")] == ["1", "2"]
        assert (tmp_path / "rows.csv.manifest.json").exists()


@dataclasses.dataclass
class _Cells:
    name: str
    count: int
    value: float
    flag: bool


_CellsTyped = dataclasses.make_dataclass(  # field types as classes, not strings
    "_CellsTyped", [("name", str), ("count", int), ("value", float), ("flag", bool)]
)
# field types as strings, as BoundReport's and SweepRow's are in modules
# that import annotations from __future__ (this module does not)
_CellsNamed = dataclasses.make_dataclass(
    "_CellsNamed", [("name", "str"), ("count", "int"), ("value", "float"), ("flag", "bool")]
)


class TestRecordsCsv:
    """The %-format CSV writer equals the per-cell reference route, for str,
    int, float and bool fields and str cells like the program's: none holds
    a comma, a quote, CR or LF, and none is empty."""

    RECORDS = [
        ("a", 3, 0.1, True),
        ("b/c", np.int64(-7), np.float64(-2.5e-300), np.bool_(False)),
        ("q'uote", np.int32(0), float("inf"), np.True_),
        ("lemma1/d2/t0", 10**17, np.float64("nan"), False),
        ("x y", np.uint8(255), -0.0, np.bool_(True)),
        ("1e5", True, np.float64(1.0) / 3.0, True),
        ("n", 2, 7, np.False_),  # an int in a float column
        ("m", 4, True, False),  # a bool in a float column
        ("thm4a/d3/m32/t99", np.int64(2**62), float("-inf"), np.bool_(True)),
        ("sigma", -(2**70), 5e-324, False),
        ("summary", 0, 1.7976931348623157e308, True),
        ("'", np.int64(-1), np.float64(-0.0), np.True_),
        ("100%s", 1, np.float64(np.nan), False),
        ("e", np.int64(5), np.int64(-3), np.bool_(False)),  # numpy ints and bools
        (" ", 6, np.bool_(True), True),  # in the float column
    ]

    @pytest.mark.parametrize("record_type", [_Cells, _CellsTyped, _CellsNamed])
    @pytest.mark.parametrize("columns", [
        ("name", "count", "value", "flag"), ("flag", "value"), ("count",),
        ("name",), ("value",), ("flag",), ("value", "name"),
    ])
    def test_equals_per_cell_fmt(self, record_type, columns):
        records = [record_type(*cells) for cells in self.RECORDS]
        assert cli._records_csv(record_type, columns, records) == per_cell_csv(columns, records)

    @pytest.mark.parametrize("x", [
        float("inf"), float("-inf"), float("nan"), -0.0, 0.0, 5e-324, -5e-324,
        2.2250738585072014e-308, 1.7976931348623157e308, 0.1, 1 / 3, 1e16, 1e17,
        123456789012345680.0, np.float64(2.5e-300), np.int64(-7), np.bool_(True),
    ])
    def test_float_cell_format(self, x):
        assert "%.17g" % float(x) == format(float(x), ".17g") == fmt_cell(float(x))

    def test_field_types_take_both_branches(self):
        assert {f.type for f in dataclasses.fields(_Cells)} == {str, int, float, bool}
        assert {f.type for f in dataclasses.fields(_CellsNamed)} == {
            "str", "int", "float", "bool"}
        assert {type(f.type) for f in dataclasses.fields(suites.SweepRow)} == {str}

    def test_no_records_is_the_header(self):
        assert cli._records_csv(_Cells, ("name", "value"), []) == "name,value\n"

    def test_profile_table_is_csv_writer_bytes(self, tmp_path):
        # the sigma-profile rows take the same writer, through str cells
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": "sigma_profile", "family": {
            "family": "extremal_dephaser", "dim": 4,
            "params": {"base_scale": 2.5e-3, "n_outliers": 1, "outlier_depth": 0.02},
        }}))
        out = tmp_path / "prof.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows(rows)
        assert out.read_text() == buf.getvalue()
        assert rows[0] == list(cli._PROFILE_COLUMNS) and rows[-1][0] == "summary"


class TestSweepConfigTypes:
    """max_depth is a non-bool int in [1, MAX_SWEEP_DEPTH] and kappa a
    finite number; anything else exits 2 before a file is written."""

    ROTATION = {"family": "rotation", "dim": 2, "params": {"theta": 0.1}}
    DEPHASER = {"family": "extremal_dephaser", "dim": 4,
                "params": {"base_scale": 2.5e-3, "n_outliers": 1,
                           "outlier_depth": 0.02}, "seed": 9}

    def run(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(text)
        code = main(["sweep", "--config", "cfg.json", "--out", "rows.csv"])
        cap = capsys.readouterr()
        return code, cap, sorted(f.name for f in tmp_path.iterdir())

    @pytest.mark.parametrize(
        "max_depth", ["1180591620717411303424", "1e308", "true", "2.7", '"5"',
                      "0", "-3", "100001", "null"],
        ids=["2**70", "1e308", "true", "2.7", "str5", "0", "-3", "cap+1", "null"],
    )
    def test_bad_max_depth_exit_2(self, tmp_path, monkeypatch, capsys, max_depth):
        family = json.dumps(self.ROTATION)
        text = f'{{"family": {family}, "max_depth": {max_depth}}}'
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert "max_depth" in json.loads(cap.err)["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize(
        "kappa", ["NaN", "Infinity", "-Infinity", '"0.1"', "true", "null", "1" + "0" * 400],
        ids=["NaN", "inf", "-inf", "str", "true", "null", "huge-int"],
    )
    def test_bad_kappa_exit_2(self, tmp_path, monkeypatch, capsys, kappa):
        family = json.dumps(self.DEPHASER)
        text = f'{{"mode": "sigma_profile", "family": {family}, "kappa": {kappa}}}'
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert cap.out == "" and files == ["cfg.json"]

    def test_int_kappa_reads_as_float(self, tmp_path, monkeypatch, capsys):
        family = json.dumps(self.DEPHASER)
        outputs = []
        for kappa in ("1", "1.0"):
            text = f'{{"mode": "sigma_profile", "family": {family}, "kappa": {kappa}}}'
            code, _, _ = self.run(tmp_path, monkeypatch, capsys, text)
            assert code == 0
            outputs.append((tmp_path / "rows.csv").read_bytes())
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "dim", ['"2"', "2.9", "2.0", "true", "0", "-1", "null", "[2]"],
        ids=["str2", "2.9", "2.0", "true", "0", "-1", "null", "list"],
    )
    def test_bad_family_dim_exit_2(self, tmp_path, monkeypatch, capsys, dim):
        family = json.dumps(self.ROTATION).replace('"dim": 2', f'"dim": {dim}')
        text = f'{{"family": {family}, "max_depth": 3}}'
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert "'dim'" in json.loads(cap.err)["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize(
        "seed", ["true", "false", "-1", "1.5", "9.0", '"9"', "null", "[9]"],
        ids=["true", "false", "-1", "1.5", "9.0", "str9", "null", "list"],
    )
    def test_bad_family_seed_exit_2(self, tmp_path, monkeypatch, capsys, seed):
        family = json.dumps(self.DEPHASER).replace('"seed": 9', f'"seed": {seed}')
        text = f'{{"mode": "sigma_profile", "family": {family}}}'
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert "'seed'" in json.loads(cap.err)["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize(
        "params", ['[["p", 0.9]]', '"p"', "0.9", "null", "true"],
        ids=["pairs", "str", "number", "null", "true"],
    )
    def test_family_params_not_object_exit_2(self, tmp_path, monkeypatch, capsys, params):
        family = {"family": "depolarizing", "dim": 2, "params": "PARAMS"}
        text = json.dumps({"family": family}).replace('"PARAMS"', params)
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert "'params'" in json.loads(cap.err)["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize("family, key, value", [
        ("random_cptp", "kraus_rank", "2.9"),
        ("random_cptp", "kraus_rank", "2.0"),
        ("random_cptp", "kraus_rank", '"2"'),
        ("random_cptp", "kraus_rank", "true"),
        ("psd_lk_decoherent", "kraus_rank", "2.0"),
        ("extremal_dephaser", "n_outliers", "1.0"),
        ("depolarizing", "p", "true"),
        ("depolarizing", "p", '"0.9"'),
        ("depolarizing", "p", "null"),
        ("depolarizing", "p", "[0.9]"),
    ], ids=lambda x: str(x))
    def test_bad_family_param_exit_2(self, tmp_path, monkeypatch, capsys,
                                     family, key, value):
        params = {"random_cptp": {"strength": 0.1}, "psd_lk_decoherent": {"strength": 0.1},
                  "extremal_dephaser": dict(self.DEPHASER["params"]),
                  "depolarizing": {}}[family]
        params[key] = "VALUE"
        fam = {"family": family, "dim": 4, "params": params, "seed": 9}
        text = json.dumps({"family": fam, "max_depth": 3}).replace('"VALUE"', value)
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, text)
        assert code == 2
        assert json.loads(cap.err)["error"] == "parse"
        assert f"'{key}'" in json.loads(cap.err)["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    def test_spiral_off_its_dimension_exit_2(self, tmp_path, monkeypatch, capsys):
        fam = {"family": "spiral", "dim": 2, "params": {"alpha": 0.5}}
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, json.dumps({"family": fam}))
        assert code == 2
        assert json.loads(cap.err) == {
            "error": "parse", "detail": "cannot parse cfg.json: spiral is a d = 3 construction"}
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize("family", ["random_cptp", "psd_lk_decoherent"])
    def test_generator_beyond_the_eigensolver_size_exit_2(
            self, tmp_path, monkeypatch, capsys, family):
        """d * kraus_rank = 64 * 4096 would draw a 262144 x 262144 generator;
        it is refused before anything is drawn or written."""
        def draw(*args):
            raise RuntimeError("drew a generator")  # would exit 70

        monkeypatch.setattr(genlib, "_gue_eig", draw)
        monkeypatch.setattr(genlib, "random_unitary", draw)
        params = {"kraus_rank": 4096, "strength": 0.1}
        fam = {"family": family, "dim": 64, "params": params, "seed": 0}
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, json.dumps({"family": fam}))
        assert code == 2
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "parse"
        assert "kraus_rank" in json.loads(lines[0])["detail"]
        assert cap.out == "" and files == ["cfg.json"]

    @pytest.mark.parametrize("command", ["sweep", "verify"])
    def test_negative_seed_flag_exit_64(self, tmp_path, monkeypatch, capsys, command):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"family": self.ROTATION}))
        argv = ["sweep", "--config", "cfg.json"] if command == "sweep" else ["verify"]
        assert main(argv + ["--seed", "-1", "--out", "rows.csv"]) == 64
        cap = capsys.readouterr()
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        assert "--seed" in json.loads(lines[0])["detail"]
        assert cap.out == "" and sorted(f.name for f in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("flag", ["nan", "inf", "abc"])
    def test_non_finite_kappa_flag_exit_64(self, tmp_path, capsys, flag):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"mode": "sigma_profile", "family": self.DEPHASER}))
        assert main(["sweep", "--config", str(p), "--kappa", flag]) == 64
        assert json.loads(capsys.readouterr().err)["error"] == "usage"


class TestStrictLk:
    def test_degenerate_leading_strict_exit_3(self, tmp_path, capsys):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        ch = chn.KrausChannel.from_ops([x / np.sqrt(2), y / np.sqrt(2)])
        p = write_channel(tmp_path / "deg.json", ch)
        assert main(["decompose", "--in", p, "--strict-lk"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"


def choi_of(ch):
    """Choi matrix sum_i col(A_i) col(A_i)^dag, built here from the Kraus list."""
    cols = [a.flatten(order="F") for a in ch.kraus]
    return sum(np.outer(c, c.conj()) for c in cols)


def write_choi(path, d, m):
    pairs = [[float(z.real), float(z.imag)] for z in np.asarray(m).flatten()]
    path.write_text(json.dumps({"dim": d, "choi": pairs}))
    return str(path)


class TestChoiFileErrors:
    """A bad Choi file exits with a typed code and a fixed message."""

    @staticmethod
    def _bad(case):
        good = choi_of(genlib.amplitude_damping(2, 0.2))
        if case == "nan":
            good[1, 1] = np.nan
        elif case == "non_hermitian":
            good[0, 3] += 0.3
        elif case == "wrong_size":
            return np.eye(3)
        elif case == "zero":
            return np.zeros((4, 4))
        elif case == "not_tp":
            return 2.0 * good
        return good

    @pytest.mark.parametrize("case, code, detail", [
        ("nan", 2, "cannot parse {p}: choi contains non-finite entries"),
        ("non_hermitian", 3, "{p}: matrix is not Hermitian within tolerance"),
        ("wrong_size", 2,
         "cannot parse {p}: choi must be a flat row-major list of 16 [re, im] pairs"),
        ("zero", 3, "{p}: Choi matrix is numerically zero"),
        ("not_tp", 3, "{p} is not CPTP (cp_slack=0.000e+00, tp_slack=1.414e+00)"),
    ])
    def test_exit_code_and_message(self, tmp_path, capsys, case, code, detail):
        p = write_choi(tmp_path / f"{case}.json", 2, self._bad(case))
        assert main(["decompose", "--in", p]) == code
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert json.loads(err) == {
            "error": "parse" if code == 2 else "domain",
            "detail": detail.format(p=p),
        }

    def test_overflowing_norms_still_not_hermitian(self, tmp_path, capsys):
        """An imaginary part of -1e308 on the last diagonal entry makes both
        norms of the Hermiticity check overflow; the file is refused before the
        Hermiticity verdict, as a matrix beyond the float range, in a message that
        names the file."""
        inputs = Path(__file__).parent / "golden" / "inputs"
        doc = json.loads((inputs / "random_cptp-d2-choi.json").read_text())
        doc["choi"][15][1] = -1e308
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["decompose", "--in", str(p)]) == 3
        assert [str(w.message) for w in caught] == []
        assert json.loads(capsys.readouterr().err) == {
            "error": "domain", "detail": f"{p}: matrix has a norm beyond the float range",
        }


    @pytest.mark.parametrize("scale, tp", [
        (1e150, "1.414e+150"), (1e300, "1.414e+300"), (1e306, "1.414e+306"),
        (1e308, "1.414e+308"),
    ])
    def test_huge_finite_choi_is_not_trace_preserving(self, tmp_path, capsys,
                                                      scale, tp):
        """A CPTP Choi file scaled by ``scale`` is ``tp`` away from trace
        preserving.  It exits 3 without a numpy warning: for trace preservation
        while its norm is finite (1e150), and above about 1e154, where the
        norm overflows, as a matrix beyond the float range.  Both messages name
        the file."""
        inputs = Path(__file__).parent / "golden" / "inputs"
        doc = json.loads((inputs / "random_cptp-d2-choi.json").read_text())
        doc["choi"] = [[re * scale, im * scale] for re, im in doc["choi"]]
        p = tmp_path / "huge.json"
        p.write_text(json.dumps(doc))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metrics", "--in", str(p)]) == 3
        assert [str(w.message) for w in caught] == []
        detail = (f"{p} is not CPTP (cp_slack=0.000e+00, tp_slack={tp})" if scale < 1e154
                  else f"{p}: matrix has a norm beyond the float range")
        assert json.loads(capsys.readouterr().err) == {"error": "domain", "detail": detail}

    @pytest.mark.parametrize("entries, detail", [
        ([1e160, 1e160, 1e160, -1e160], "{p}: kraus operator has a norm beyond the float range"),
        ([1e160, 0.0, 0.0, 0.0], "{p}: kraus operator has a norm beyond the float range"),
        ([1e10, 0.0, 0.0, 0.0], "{p} is not CPTP (cp_slack=0.000e+00, tp_slack=1.000e+20)"),
    ], ids=["inf-minus-inf", "norm-overflows", "norm-finite"])
    def test_huge_kraus_file(self, tmp_path, capsys, entries, detail):
        """A Kraus file whose operator's norm overflows exits 3 under the float-range
        rule, before the CPTP check, whose sum of A^dag A would hold inf - inf (a NaN
        tp_slack) or inf; a finite norm still meets the CPTP check."""
        p = tmp_path / "n.json"
        p.write_text(json.dumps({"dim": 2, "kraus": [[[x, 0.0] for x in entries]]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["metrics", "--in", str(p)]) == 3
        assert [str(w.message) for w in caught] == []
        assert json.loads(capsys.readouterr().err) == {
            "error": "domain", "detail": detail.format(p=p)}


class TestErrorPaths:
    """Every failure ends in a typed exit code and one JSON line on stderr,
    never in a traceback or in exit 1 (the bound-violation code)."""

    def _err(self, capsys):
        err = capsys.readouterr().err
        assert "Traceback" not in err
        return json.loads(err.strip().splitlines()[-1])

    @pytest.mark.parametrize("command", ["metrics", "decompose"])
    def test_d1_channel_exit_3(self, tmp_path, capsys, command):
        p = write_channel(tmp_path / "d1.json", chn.KrausChannel(dim=1, kraus=[[[1.0]]]))
        assert main([command, "--in", p]) == 3
        assert self._err(capsys)["error"] == "domain"

    def test_verify_dims_not_integers_exit_64(self, capsys):
        assert main(["verify", "--dims", "abc"]) == 64
        assert self._err(capsys)["error"] == "usage"

    @pytest.mark.parametrize("dims", ["1", "2,65", "2,2", "3,2,3"])
    def test_verify_dims_out_of_range_exit_64(self, tmp_path, capsys, dims):
        """A dimension out of range, or a repeated one (whose cases would be
        written twice), is refused before any case runs."""
        out = tmp_path / "v.csv"
        assert main(["verify", "--suite", "lemmas", "--dims", dims, "--trials", "2",
                     "--out", str(out)]) == 64
        cap = capsys.readouterr()
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "usage"
        assert cap.out == "" and list(tmp_path.iterdir()) == []

    def test_nonorthogonal_d65_channel_exit_3(self, tmp_path, capsys):
        """A non-orthogonal Kraus family above d = 64 needs a Choi
        eigendecomposition out of range.  A sweep config cannot ask for one
        (its family dim is capped at 64); a channel file can."""
        p = write_channel(tmp_path / "d65.json", genlib.random_cptp(65, 2, seed=0))
        assert main(["metrics", "--in", str(p)]) == 3
        assert self._err(capsys)["error"] == "domain"

    @pytest.mark.parametrize("family, params", [
        ("identity", {}),
        ("depolarizing", {"p": 0.9}),
        ("stochastic_weyl", {"p": 0.9}),
        ("random_unitary_error", {"strength": 0.1}),
        ("random_cptp", {"kraus_rank": 1}),
        ("psd_lk_decoherent", {"strength": 0.1, "kraus_rank": 1}),
    ])
    def test_d1_sweep_exit_3(self, tmp_path, monkeypatch, capsys, family, params):
        """A family built at d = 1 reaches the coherent envelope, which
        needs d >= 2: a domain error with nothing written.  ``stochastic_weyl``
        refuses d = 1 itself (its non-identity weight has no Weyl operator
        to go to), a parse error."""
        code, error = (2, "parse") if family == "stochastic_weyl" else (3, "domain")
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "family": {"family": family, "dim": 1, "params": params, "seed": 0},
            "max_depth": 3,
        }))
        assert main(["sweep", "--config", str(p), "--out", "rows.csv"]) == code
        cap = capsys.readouterr()
        assert cap.out == ""
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == error
        assert sorted(x.name for x in tmp_path.iterdir()) == ["cfg.json"]

    @pytest.mark.parametrize("family, params, dim", [
        ("stochastic_weyl", {"p": 0.9}, 17),
        ("psd_lk_decoherent", {"strength": 0.1}, 32),
        ("identity", {}, 64),
    ])
    def test_composition_sweep_above_d16_exit_3(
        self, tmp_path, monkeypatch, capsys, family, params, dim
    ):
        """A composition sweep steps a d^2 x d^2 power per depth; above
        d = 16 it is refused before the superoperator is built or any row
        computed, like the d = 1 refusal: one JSON line, nothing written."""
        def unreachable(*args):
            raise AssertionError("reached the sweep")

        monkeypatch.setattr(chn, "to_superop", unreachable)
        monkeypatch.setattr(suites, "composition_sweep", unreachable)
        monkeypatch.chdir(tmp_path)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "family": {"family": family, "dim": dim, "params": params, "seed": 0},
            "max_depth": 3,
        }))
        assert main(["sweep", "--config", str(p), "--out", "rows.csv"]) == 3
        cap = capsys.readouterr()
        assert cap.out == ""
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "domain"
        assert sorted(x.name for x in tmp_path.iterdir()) == ["cfg.json"]

    def test_sigma_profile_above_d16_runs(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({
            "mode": "sigma_profile",
            "family": {"family": "identity", "dim": 32},
        }))
        assert main(["sweep", "--config", str(p), "--out", str(tmp_path / "p.csv")]) == 0

    @pytest.mark.parametrize("flag", ["--in", "--target", "--config"])
    def test_deeply_nested_json_exit_2(self, tmp_path, capsys, flag):
        """json.load raises RecursionError on an array nested 200,000 deep:
        the file is unreadable input, not an internal error."""
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 200_000 + "]" * 200_000)
        good = write_channel(tmp_path / "id.json", genlib.identity_channel(2))
        argv = {"--in": ["metrics", "--in", str(deep)],
                "--target": ["metrics", "--in", good, "--target", str(deep)],
                "--config": ["sweep", "--config", str(deep)]}[flag]
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert json.loads(err)["error"] == "parse"
        assert json.loads(err)["detail"].startswith(f"cannot parse {deep}: maximum recursion")

    def test_missing_input_file_exit_2(self, tmp_path, capsys):
        assert main(["metrics", "--in", str(tmp_path / "absent.json")]) == 2
        assert self._err(capsys)["error"] == "parse"

    def test_unexpected_exception_exit_70(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr("chanpolar.suites.run_suite", broken)
        assert main(["verify", "--trials", "1"]) == 70
        err = capsys.readouterr().err
        assert json.loads(err.strip().splitlines()[-1]) == {
            "error": "internal", "detail": "RuntimeError: boom"
        }


class TestMatrixFileTypes:
    """Every entry of a Kraus, Choi or unitary file must be a JSON number;
    a numeric string or a boolean exits 2 before any computation."""

    @staticmethod
    def _retyped(obj, key, value):
        # the first [re, im] pair is [1.0, 0.0] in each file below
        pairs = obj[key][0] if key == "kraus" else obj[key]
        assert pairs[0] == [1.0, 0.0]
        pairs[0] = [value, 0.0]
        return obj

    @pytest.mark.parametrize("value", ["1.0", True], ids=["str", "bool"])
    @pytest.mark.parametrize("kind", ["kraus", "choi", "unitary"])
    def test_non_number_entry_exit_2(self, tmp_path, monkeypatch, capsys, kind, value):
        monkeypatch.chdir(tmp_path)
        ad = genlib.amplitude_damping(2, 0.2)
        good = write_channel(tmp_path / "ad.json", ad)
        obj = {"kraus": chn.channel_to_json(ad),
               "choi": choi_to_json(chn.to_choi(ad)),
               "unitary": unitary_to_json(np.eye(2))}[kind]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(self._retyped(obj, kind, value)))
        argv = ["metrics", "--in", str(bad), "--out", "out.json"]
        if kind == "unitary":
            argv[2:3] = [good, "--target", str(bad)]
        assert main(argv) == 2
        cap = capsys.readouterr()
        assert json.loads(cap.err) == {
            "error": "parse",
            "detail": f"cannot parse {bad}: "
                      f"{'kraus operator' if kind == 'kraus' else kind} entries must be "
                      "JSON numbers",
        }
        assert cap.out == "" and not (tmp_path / "out.json").exists()


class TestInputSchema:
    """Every key of a channel file, unitary file, sweep config or family
    spec is read against its field table: a key the table lacks, a missing
    required key or a value of the wrong kind exits 2, naming the key,
    before anything is written."""

    ROTATION = {"family": "rotation", "dim": 2, "params": {"theta": 0.1}}

    def run(self, tmp_path, monkeypatch, capsys, obj, command="sweep"):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "in.json").write_text(json.dumps(obj))
        argv = (["sweep", "--config"] if command == "sweep" else [command, "--in"])
        code = main(argv + ["in.json", "--out", "out.csv"])
        cap = capsys.readouterr()
        return code, cap, sorted(f.name for f in tmp_path.iterdir())

    def assert_refused(self, result, key):
        code, cap, files = result
        assert code == 2
        lines = cap.err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "parse"
        assert f"'{key}'" in json.loads(lines[0])["detail"]
        assert cap.out == "" and files == ["in.json"]

    @pytest.mark.parametrize("dim", [0, 65, 1000000])
    def test_family_dim_outside_eigensolver_range_exit_2(self, tmp_path, monkeypatch,
                                                         capsys, dim):
        """A family dim outside [1, 64] is refused before any array is built
        (a dim of 10^6 used to end in exit 70, MemoryError)."""
        cfg = {"family": {"family": "identity", "dim": dim}}
        result = self.run(tmp_path, monkeypatch, capsys, cfg)
        self.assert_refused(result, "dim")
        assert "an integer in [1, 64]" in json.loads(result[1].err)["detail"]

    def test_top_level_sweep_seed_exit_2(self, tmp_path, monkeypatch, capsys):
        cfg = {"family": self.ROTATION, "max_depth": 3, "seed": 0}
        self.assert_refused(self.run(tmp_path, monkeypatch, capsys, cfg), "seed")

    @pytest.mark.parametrize("key, cfg", [
        ("max_dpeth", {"family": ROTATION, "max_dpeth": 500}),
        ("pp", {"family": dict(ROTATION, params={"theta": 0.1, "pp": 3})}),
        ("sed", {"family": dict(ROTATION, sed=3)}),
    ], ids=["sweep-key", "family-param", "family-spec-key"])
    def test_unread_sweep_key_exit_2(self, tmp_path, monkeypatch, capsys, key, cfg):
        self.assert_refused(self.run(tmp_path, monkeypatch, capsys, cfg), key)

    @pytest.mark.parametrize("key, extra", [
        ("junk", {"junk": 1}),
        ("choi", {"choi": [[1.0, 0.0]] * 16}),
        ("dim", {"dim": True}),
    ], ids=["unknown-key", "kraus-and-choi", "bool-dim"])
    def test_bad_channel_file_exit_2(self, tmp_path, monkeypatch, capsys, key, extra):
        obj = dict(chn.channel_to_json(genlib.amplitude_damping(2, 0.2)), **extra)
        self.assert_refused(
            self.run(tmp_path, monkeypatch, capsys, obj, "metrics"), key
        )

    @pytest.mark.parametrize("command", ["metrics", "sweep"])
    def test_integer_beyond_float_range_exit_2(self, tmp_path, monkeypatch, capsys,
                                               command):
        """An integer matrix entry beyond the float range, or a family dim
        beyond the index range, overflows numpy before any other check."""
        if command == "sweep":
            obj = {"family": {"family": "amplitude_damping", "dim": 2**70,
                              "params": {"gamma": 0.1}}}
        else:
            obj = {"dim": 1, "kraus": [[[10**400, 0]]]}
        code, cap, files = self.run(tmp_path, monkeypatch, capsys, obj, command)
        assert code == 2 and json.loads(cap.err)["error"] == "parse"
        assert "Traceback" not in cap.err and files == ["in.json"]

    def test_other_mode_key_is_noted(self, tmp_path):
        """The sigma_profile golden input carries a composition key,
        max_depth: it is not read, and the manifest says so."""
        out = tmp_path / "prof.csv"
        cfg = Path(__file__).parent / "golden" / "inputs" / (
            "sweep-sigma_profile-extremal_dephaser-d16.json")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((tmp_path / "prof.csv.manifest.json").read_text())
        assert manifest["notes"] == [
            "sweep config 'max_depth' is not read in sigma_profile mode"
        ]


class TestVerifySkippedDims:
    def test_skipped_dimension_is_noted(self, tmp_path):
        """d = 16 is above the theorem and Lindblad caps: the rows are those
        of d = 2 alone, and the manifest names each skipped (suite, d)."""
        outs = [tmp_path / "d2.csv", tmp_path / "d2-16.csv"]
        for dims, out in zip(("2", "2,16"), outs):
            assert main(["verify", "--suite", "theorems", "--dims", dims,
                         "--trials", "1", "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        notes = [json.loads(Path(f"{out}.manifest.json").read_text())["notes"]
                 for out in outs]
        assert notes[0] == []
        assert notes[1] == [
            "the theorem cases skip d = 16: they run only at d <= 8",
            "the Lindblad cases skip d = 16: they run only at d <= 8",
        ]
