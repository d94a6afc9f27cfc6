import csv
import json

import numpy as np
import pytest

from chanpolar import channel as chn
from chanpolar import genlib
from chanpolar.cli import main


def write_channel(path, ch):
    path.write_text(json.dumps(chn.channel_to_json(ch)))
    return str(path)


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
        p.write_text(json.dumps(chn.choi_to_json(chn.ChoiMatrix(dim=2, matrix=bad))))
        assert main(["decompose", "--in", str(p)]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"

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
        t.write_text(json.dumps(chn.unitary_to_json(u)))
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
            suites_mod.CaseResult("fake/0", "thm1", 2.0, 0.0, 1.0, -1.0, False),
            suites_mod.CaseResult("fake/1", "thm1", 0.5, 0.0, 1.0, 0.5, True),
        ]
        monkeypatch.setattr(suites_mod, "run_suite", lambda *a, **k: fake)
        out = tmp_path / "viol.csv"
        assert main(["verify", "--suite", "lemmas", "--trials", "1",
                     "--out", str(out)]) == 1
        rows = read_csv(out)
        assert len(rows) == 2 and rows[0]["holds"] == "0"

    def test_unknown_flag_usage_error(self):
        assert main(["verify", "--nope"]) == 64


class TestSweepCmd:
    def _config(self, tmp_path, family, max_depth=3, mode="composition"):
        cfg = {
            "mode": mode,
            "family": family,
            "max_depth": max_depth,
            "seed": 0,
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
        with open(pick, newline="") as fh:
            header = next(csv.reader(fh))
        # depth first, then the named columns in table order
        assert header == ["depth", "phi", "coherent_lower"]
        assert read_csv(pick) == [{k: r[k] for k in header} for r in read_csv(full)]

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


class TestStrictLk:
    def test_degenerate_leading_strict_exit_3(self, tmp_path, capsys):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        y = np.array([[0, -1j], [1j, 0]], dtype=complex)
        ch = chn.KrausChannel.from_ops([x / np.sqrt(2), y / np.sqrt(2)])
        p = write_channel(tmp_path / "deg.json", ch)
        assert main(["decompose", "--in", p, "--strict-lk"]) == 3
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "domain"


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

    @pytest.mark.parametrize("dims", ["1", "2,65"])
    def test_verify_dims_out_of_range_exit_64(self, capsys, dims):
        assert main(["verify", "--dims", dims, "--trials", "1"]) == 64
        assert self._err(capsys)["error"] == "usage"

    def test_sweep_nonorthogonal_d65_exit_3(self, tmp_path, capsys):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(
            {"family": {"family": "random_cptp", "dim": 65, "params": {"kraus_rank": 2}}}
        ))
        assert main(["sweep", "--config", str(p)]) == 3
        assert self._err(capsys)["error"] == "domain"

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
