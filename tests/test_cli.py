"""Command-line surface: flags, exit codes, determinism, report formats."""

import csv
import json

import numpy as np
import pytest

from aggnoise.cli import EXIT_CONFIG, EXIT_OK, main


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "seed": 5,
        "rounds": 3,
        "dataset": {"kind": "synthetic", "task": "regression", "features": 4,
                    "per_user": 50, "noise": 0.2},
        "users": {"total": 4, "sensitive": 1},
        "scheme": {"kind": "gaussian_sampled", "batch": 10, "learning_rate": 0.2},
        "mechanism": {"kind": "wfdp", "sigma2": 0.005},
        "accountant": {"route": "closed_form", "mode": "general", "delta": 1e-3,
                       "clip": 1.0, "composition": "simple"},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in config:
            config[key] = {**config[key], **value}
        else:
            config[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(config))
    return str(path), config


class TestAccountCommand:
    def test_closed_form_reference_value(self, capsys):
        rc = main(["account", "--route", "closed", "--lambda", "0.25",
                   "--C", "2", "--B", "100", "--delta", "1e-3"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "0.302118" in out

    def test_wfdp_a_optimized_order(self, capsys):
        rc = main(["account", "--route", "wfdp-a", "--C", "1", "--B", "10",
                   "--D", "100", "--N", "50", "--sigma", "0.1", "--delta", "1e-5"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "1.0621" in out
        alpha = float(out.split("alpha* = ")[1].split()[0])
        assert alpha == pytest.approx(16.45, abs=0.2)

    def test_empty_interval_is_config_error(self, capsys):
        rc = main(["account", "--route", "wfdp-a", "--C", "10", "--B", "10",
                   "--D", "100", "--N", "50", "--sigma", "0.1", "--delta", "1e-5"])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "empty alpha validity interval" in err

    def test_missing_lambda_is_config_error(self, capsys):
        rc = main(["account", "--route", "closed", "--C", "2", "--B", "100",
                   "--delta", "1e-3"])
        assert rc == EXIT_CONFIG

    def test_subsampling_flag(self, capsys):
        rc = main(["account", "--route", "closed", "--lambda", "0.25", "--C", "2",
                   "--B", "100", "--delta", "1e-3", "--q", "0.01", "--T", "10"])
        out = capsys.readouterr().out
        assert rc == EXIT_OK
        assert "amplified per-round eps" in out


class TestSimulateCommand:
    def test_reports_and_determinism(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out", str(out_a), "simulate", "--config", cfg]) == EXIT_OK
        assert main(["--out", str(out_b), "simulate", "--config", cfg]) == EXIT_OK
        csv_a = (out_a / "metrics.csv").read_bytes()
        csv_b = (out_b / "metrics.csv").read_bytes()
        assert csv_a == csv_b
        assert (out_a / "ledger.json").read_bytes() == (out_b / "ledger.json").read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (out_b / "manifest.json").read_bytes()

        with open(out_a / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert list(rows[0]) == ["round", "train_loss", "eval_metric", "lambda_min",
                                 "eps_round", "eps_cumulative", "noise_trace"]
        ledger = json.loads((out_a / "ledger.json").read_text())
        assert ledger["total_eps"] > 0
        assert len(ledger["entries"]) == 3
        manifest = json.loads((out_a / "manifest.json").read_text())
        assert set(manifest) >= {"seed", "config_hash", "dataset_hash"}

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["--out", str(out_a), "--seed", "9", "simulate", "--config", cfg]) == EXIT_OK
        assert main(["--out", str(out_b), "simulate", "--config", cfg]) == EXIT_OK
        assert (out_a / "metrics.csv").read_bytes() != (out_b / "metrics.csv").read_bytes()

    def test_env_seed_override(self, tmp_path, monkeypatch):
        cfg, _ = write_config(tmp_path)
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        monkeypatch.setenv("AGGNOISE_SEED", "9")
        assert main(["--out", str(out_a), "simulate", "--config", cfg]) == EXIT_OK
        monkeypatch.delenv("AGGNOISE_SEED")
        assert main(["--out", str(out_b), "--seed", "9", "simulate", "--config", cfg]) == EXIT_OK
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, wat=1)
        rc = main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "wat" in err

    def test_bad_value_names_key(self, tmp_path, capsys):
        cfg, _ = write_config(tmp_path, mechanism={"kind": "frobnicate"})
        rc = main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "mechanism" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["--out", str(tmp_path / "o"), "simulate", "--config",
                   str(tmp_path / "absent.json")])
        assert rc == EXIT_CONFIG

    def test_none_mechanism_with_deterministic_updates_reports_infinite(self, tmp_path):
        cfg, _ = write_config(
            tmp_path,
            scheme={"kind": "full_gd", "batch": 1},
            mechanism={"kind": "none", "sigma2": 0.0},
        )
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
        # strict JSON: infinities are serialized as the string "inf"
        ledger = json.loads((out / "ledger.json").read_text(), parse_constant=lambda _: pytest.fail("non-strict JSON"))
        assert ledger["total_eps"] == "inf"
        entry = ledger["entries"][0]
        assert entry["eps"] == "inf"
        assert "necessary condition violated" in entry["cause"]

    def test_eps_vs_users_sweep_decreases(self, tmp_path):
        # batch size keeps every N in the high-privacy region, where the
        # aggregate-more-users effect is monotone (no low-region clamp)
        totals = {}
        for n in (5, 20):
            cfg, _ = write_config(
                tmp_path, name=f"n{n}.json",
                users={"total": n, "sensitive": 1},
                dataset={"kind": "synthetic", "task": "regression", "features": 4,
                         "per_user": 50, "noise": 0.2},
                scheme={"kind": "gaussian_sampled", "batch": 50, "learning_rate": 0.2},
            )
            out = tmp_path / f"out{n}"
            assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
            totals[n] = json.loads((out / "ledger.json").read_text())["total_eps"]
        assert totals[20] < totals[5]

    def test_fedavg_rdp_route_end_to_end(self, tmp_path):
        cfg, _ = write_config(
            tmp_path,
            dataset={"kind": "synthetic", "task": "regression", "features": 3,
                     "per_user": 24, "noise": 0.2},
            users={"total": 3, "sensitive": 1},
            scheme={"kind": "fedavg", "batch": 8, "learning_rate": 0.1,
                    "fedavg_samples": 4, "local_steps": 1},
            mechanism={"kind": "wfdp", "sigma2": 0.05},
            accountant={"route": "wfdp_b", "composition": "rdp", "delta": 1e-4,
                        "clip": 0.5},
        )
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["total_eps"] > 0
        assert ledger["alpha_star"] > 1
        assert ledger["entries"][0]["curve"]["variant"] == "wfdp_b"
        # re-composing the emitted ledger reproduces the simulation total
        rc = main(["--out", str(tmp_path / "m"), "compose",
                   str(out / "ledger.json"), "--mode", "rdp"])
        assert rc == EXIT_OK
        merged = json.loads((tmp_path / "m" / "composed_ledger.json").read_text())
        assert merged["total_eps"] == pytest.approx(ledger["total_eps"], rel=1e-9)

    def test_infeasible_floor_parameters_exit_config(self, tmp_path, capsys):
        cfg, _ = write_config(
            tmp_path,
            scheme={"kind": "gaussian_sampled", "batch": 10, "learning_rate": 0.2},
            mechanism={"kind": "wfdp", "sigma2": 1e-7},
            accountant={"route": "wfdp_a", "composition": "rdp", "delta": 1e-4,
                        "clip": 1.0},
        )
        rc = main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert "empty alpha validity interval" in err

    def test_csv_dataset_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        rows = np.hstack([rng.standard_normal((40, 3)), rng.standard_normal((40, 1))])
        data_path = tmp_path / "data.csv"
        np.savetxt(data_path, rows, delimiter=",")
        cfg, _ = write_config(
            tmp_path,
            dataset={"kind": "csv", "path": str(data_path), "has_header": False,
                     "task": "regression"},
            users={"total": 4, "sensitive": 1},
        )
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        import hashlib

        assert manifest["dataset_hash"] == hashlib.sha256(data_path.read_bytes()).hexdigest()


class TestSpectrumCommand:
    def test_flooring_demo_rows(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "spectrum", "--eigvals", "0.5,0.02,0",
                   "--sigma2", "0.04"])
        assert rc == EXIT_OK
        with open(out / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        eigvals = [float(r["eigenvalue"]) for r in rows]
        floored = [float(r["floored"]) for r in rows]
        deltas = [float(r["delta"]) for r in rows]
        assert eigvals == [0.5, 0.02, 0.0]
        assert floored == [0.5, 0.04, 0.04]
        assert deltas == [0.0, pytest.approx(0.02), 0.04]

    def test_config_spectrum(self, tmp_path):
        cfg, _ = write_config(tmp_path)
        out = tmp_path / "o"
        rc = main(["--out", str(out), "spectrum", "--config", cfg, "--sigma2", "0.005"])
        assert rc == EXIT_OK
        with open(out / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        sources = {r["source"] for r in rows}
        assert "aggregate" in sources
        assert any(s.startswith("user") for s in sources)

    @pytest.mark.parametrize("overrides", [
        {"scheme": {"kind": "full_gd"}},
        {"scheme": {"kind": "fedavg", "fedavg_samples": 4}},
        {"mechanism": {"blocks": 2}},
        {"mechanism": {"kind": "ddp"}},
        {"mechanism": {"kind": "none", "sigma2": 0.0}},
    ], ids=["full_gd", "fedavg", "blocks", "ddp", "none"])
    def test_aggregate_matches_simulated_round_zero(self, tmp_path, overrides):
        cfg, _ = write_config(tmp_path, **overrides)
        assert main(["--out", str(tmp_path / "sim"), "simulate", "--config", cfg]) == EXIT_OK
        assert main(["--out", str(tmp_path / "spec"), "spectrum", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "sim" / "metrics.csv") as fh:
            lambda_min = float(next(csv.DictReader(fh))["lambda_min"])
        with open(tmp_path / "spec" / "spectrum.csv") as fh:
            aggregate = [float(r["eigenvalue"]) for r in csv.DictReader(fh)
                         if r["source"] == "aggregate"]
        assert min(aggregate) == lambda_min

    def test_requires_input(self, capsys):
        assert main(["spectrum"]) == EXIT_CONFIG


class TestComposeCommand:
    def test_two_halves_equal_one_run(self, tmp_path, capsys):
        cfg50, _ = write_config(tmp_path, name="c50.json", rounds=50)
        assert main(["--out", str(tmp_path / "full"), "simulate", "--config", cfg50]) == EXIT_OK
        full = json.loads((tmp_path / "full" / "ledger.json").read_text())
        # split the trajectory's ledger into its two halves
        for name, entries in (("a", full["entries"][:25]), ("b", full["entries"][25:])):
            half = dict(full, entries=entries)
            (tmp_path / f"{name}.json").write_text(json.dumps(half))
        rc = main([
            "--out", str(tmp_path / "merged"),
            "compose", str(tmp_path / "a.json"), str(tmp_path / "b.json"),
            "--mode", "simple",
        ])
        assert rc == EXIT_OK
        merged = json.loads((tmp_path / "merged" / "composed_ledger.json").read_text())
        assert len(merged["entries"]) == 50
        assert merged["total_eps"] == pytest.approx(full["total_eps"], rel=1e-9)
        # additivity: the merged total is the sum of the halves' totals
        out = capsys.readouterr().out
        half_totals = []
        for name in ("a.json", "b.json"):
            rc = main(["--out", str(tmp_path / "h"), "compose", str(tmp_path / name)])
            half_totals.append(float(capsys.readouterr().out.split("total eps = ")[1].split()[0]))
        assert merged["total_eps"] == pytest.approx(sum(half_totals), rel=1e-6)

    def test_mismatched_params_rejected(self, tmp_path, capsys):
        cfg_a, _ = write_config(tmp_path, name="a.json")
        cfg_b, _ = write_config(tmp_path, name="b.json",
                                accountant={"route": "closed_form", "mode": "general",
                                            "delta": 1e-4, "clip": 1.0,
                                            "composition": "simple"})
        assert main(["--out", str(tmp_path / "a"), "simulate", "--config", cfg_a]) == EXIT_OK
        assert main(["--out", str(tmp_path / "b"), "simulate", "--config", cfg_b]) == EXIT_OK
        rc = main(["compose", str(tmp_path / "a" / "ledger.json"),
                   str(tmp_path / "b" / "ledger.json")])
        assert rc == EXIT_CONFIG


class TestVerifyCommand:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--seed", "0", "verify",
                   "--trials-closed", "40", "--trials-rdp", "25",
                   "--ce-trials", "300", "--advantage-trials", "20000"])
        assert rc == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        assert report["closed_form"]["sound"]
        assert report["rdp"]["theorem1_rdp"]["sound"]
        assert "wfdp_a" in report["rdp"] and "wfdp_b" in report["rdp"]
        assert report["counterexample"]["verdict"] == "VIOLATED"
        assert report["counterexample"]["distinguisher_success"] == 1.0
        assert not report["low_region_probe"]["passed"]  # documented gap
