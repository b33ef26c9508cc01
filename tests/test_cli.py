"""Command-line surface: flags, exit codes, determinism, report formats."""

import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

from aggnoise import accountant
from aggnoise import cli as cli_module
from aggnoise.accountant import (
    ROUTES,
    CompositionMode,
    PrivacyParams,
    Reads,
    RoundLedger,
    account_round,
    curve_eps,
    optimize_alpha,
)
from aggnoise.cli import EXIT_CONFIG, EXIT_OK, _build_run, main
from aggnoise.errors import ConfigError
from aggnoise.fedsim import simulation
from aggnoise.fedsim.models import ModelOps, design
from aggnoise.mechanisms import clipped_gradients

CLOSED_PARAMS = PrivacyParams(clip=2.0, batch=100, local_size=400, ns_users=5, delta=1e-3)
RDP_PARAMS = PrivacyParams(clip=1.0, batch=10, local_size=100, ns_users=50, delta=1e-5,
                           floor=0.01)


def write_ledger(path, params, routes, composition=CompositionMode.SIMPLE, lam=0.25):
    """A ledger of one account_round entry per route, as ``simulate`` writes it."""
    ledger = RoundLedger(params, composition)
    for t, route in enumerate(routes):
        ledger.append(account_round(lam, params, route, round_index=t))
    path.write_text(ledger.to_json())
    return ledger


def composed_total(tmp_path, capsys, *flags):
    out = tmp_path / "composed"
    assert main(["--out", str(out), "compose", *flags]) == EXIT_OK
    capsys.readouterr()
    return json.loads((out / "composed_ledger.json").read_text())


def write_config(tmp_path, name="config.json", **overrides):
    config = {
        "seed": 5,
        "rounds": 3,
        "dataset": {"kind": "synthetic", "task": "regression", "features": 4,
                    "per_user": 50, "noise": 0.2},
        "users": {"total": 4, "sensitive": 1},
        "scheme": {"kind": "gaussian_sampled", "batch": 10, "learning_rate": 0.2},
        "mechanism": {"kind": "wfdp", "sigma2": 0.005},
        # no mode: an absent one is general, and a route other than closed_form takes none
        "accountant": {"route": "closed_form", "delta": 1e-3, "clip": 1.0,
                       "composition": "simple"},
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
        captured = capsys.readouterr()
        assert rc == EXIT_OK
        assert "amplified per-round eps" in captured.out
        # the what-if names its assumption, on stderr so stdout stays frozen
        (warning,) = captured.err.splitlines()
        assert warning.startswith("warning: --q 0.01 ")
        assert "participation to be hidden from the adversary" in warning
        assert "simulate refuses sampling_ratio < 1" in warning

    def test_no_subsampling_warning_at_q_one(self, capsys):
        rc = main(["account", "--route", "closed", "--lambda", "0.25", "--C", "2",
                   "--B", "100", "--delta", "1e-3"])
        assert rc == EXIT_OK
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("flags, named", [
    ("--route closed --lambda 0.25 --C 2 --B 100 --delta 1e-3 --delta0 nan", "delta0"),
    ("--route closed --lambda inf --C 2 --B 100 --delta 1e-3", "--lambda"),
    ("--route closed --lambda nan --C 2 --B 100 --delta 1e-3", "--lambda"),
    ("--route theorem1-rdp --sum-lambda-min inf --C 1 --B 10 --D 100 --delta 1e-5",
     "--sum-lambda-min"),
    ("--route wfdp-a --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --sigma2 0.5 --delta 1e-5",
     "--sigma2"),
    ("--route wfdp-a --C 1 --B 10 --D 100 --N 50 --sigma -0.1 --delta 1e-5", "--sigma"),
    ("--route wfdp-a --C 1 --B 10 --D 100 --N 50 --sigma nan --delta 1e-5", "--sigma"),
    ("--route wfdp-a --C 1 --B 10 --D 100 --N 50 --sigma2 nan --delta 1e-5", "floor"),
    ("--route wfdp-a --C inf --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5", "clip"),
    # flags the route ignores, or that another flag overrides
    ("--route closed --mode singular --iid --lambda 0.05 --C 2 --B 100 --N 20 --delta 1e-3",
     "--iid"),
    ("--route wfdp-a --iid --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5", "--iid"),
    ("--route theorem1-rdp --iid --sum-lambda-min 50 --C 1 --B 10 --D 100 --delta 1e-5", "--iid"),
    ("--route closed --lambda 0.25 --sum-lambda-min 9 --C 2 --B 100 --delta 1e-3",
     "--sum-lambda-min"),
    ("--route wfdp-a --sum-lambda-min 9 --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5",
     "--sum-lambda-min"),
    ("--route theorem1-rdp --lambda 2 --sum-lambda-min 3 --C 1 --B 10 --D 100 --delta 1e-5",
     "--sum-lambda-min"),
    ("--route wfdp-a --lambda 7 --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5", "--lambda"),
    ("--route wfdp-b --lambda 7 --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5", "--lambda"),
    ("--route closed --lambda 0.25 --C 2 --B 100 --sigma 0.1 --delta 1e-3", "--sigma"),
    ("--route closed --lambda 0.25 --C 2 --B 100 --sigma2 0.01 --delta 1e-3", "--sigma2"),
    ("--route theorem1-rdp --sum-lambda-min 50 --C 1 --B 10 --D 100 --sigma 0.1 --delta 1e-5",
     "--sigma"),
    ("--route theorem1-rdp --sum-lambda-min 50 --C 1 --B 10 --D 100 --sigma2 0.01 --delta 1e-5",
     "--sigma2"),
    ("--route wfdp-a --mode singular --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5",
     "--mode"),
    ("--route theorem1-rdp --mode general --sum-lambda-min 50 --C 1 --B 10 --D 100 --delta 1e-5",
     "--mode"),
], ids=["delta0-nan", "lambda-inf", "lambda-nan", "sum-lambda-min-inf", "sigma-and-sigma2",
        "sigma-negative", "sigma-nan", "sigma2-nan", "clip-inf", "iid-singular", "iid-wfdp-a",
        "iid-theorem1", "sum-lambda-min-closed", "sum-lambda-min-wfdp-a",
        "sum-lambda-min-and-lambda", "lambda-wfdp-a", "lambda-wfdp-b", "sigma-closed",
        "sigma2-closed", "sigma-theorem1", "sigma2-theorem1", "mode-wfdp-a", "mode-theorem1"])
def test_account_refuses_non_finite_or_conflicting_flags(flags, named, capsys):
    assert main(["account"] + flags.split()) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ") and named in captured.err


# stdout recorded before ``account`` composed through the ledger; the one
# line added since is the meaningless_delta warning the round's entry carries
ACCOUNT_GOLDEN = {
    "closed-general": (
        "--route closed --lambda 0.25 --C 2 --B 100 --delta 1e-3 --T 50",
        "per-round eps = 0.302118 (region high)\n"
        "composed eps over T=50 rounds (simple) = 15.1059\n",
    ),
    "closed-singular": (
        "--route closed --mode singular --lambda 0.25 --C 2 --B 100 --delta 1e-3 --T 50",
        "per-round eps = 0.302118 (region high)\n"
        "warning: subspace: smallest *nonzero* eigenvalue used; space coverage asserted by caller\n"
        "composed eps over T=50 rounds (simple) = 15.1059\n",
    ),
    "closed-iid": (
        "--route closed --iid --lambda 0.05 --C 2 --B 100 --N 20 --delta 1e-3 --T 50",
        "per-round eps = 0.151059 (region high)\n"
        "composed eps over T=50 rounds (simple) = 7.55296\n",
    ),
    "subsampled": (
        "--route closed --lambda 0.25 --C 2 --B 100 --delta 1e-3 --q 0.01 --T 10",
        "per-round eps = 0.302118 (region high)\n"
        "amplified per-round eps = 0.00352101 (q = 0.01)\n"
        "composed eps over T=10 rounds (simple) = 0.0352101\n",
    ),
    "delta0": (
        "--route closed --lambda 0.25 --C 2 --B 100 --delta 1e-3 --delta0 1e-4 --T 20",
        "per-round eps = 0.302118 (region high)\n"
        "per-round delta (Gaussian-approximation inflated) = 0.00123527\n"
        "composed eps over T=20 rounds (simple) = 6.04237\n",
    ),
    "meaningless-delta": (
        "--route closed --lambda 0.25 --C 2 --B 100 --delta 0.5 --delta0 0.3",
        "per-round eps = 0.108298 (region high)\n"
        "per-round delta (Gaussian-approximation inflated) = 1.13431\n"
        "warning: meaningless_delta: total delta >= 1\n"
        "composed eps over T=1 rounds (simple) = 0.108298\n",
    ),
    "wfdp-a": (
        "--route wfdp-a --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5 --T 50",
        "per-round optimized eps* = 1.0621 at alpha* = 16.4476\n"
        "composed eps over T=50 rounds (rdp) = 7.03398 at alpha* = 6.20728\n",
    ),
    "wfdp-b": (
        "--route wfdp-b --C 1 --B 10 --D 100 --N 50 --sigma 0.1 --delta 1e-5 --T 50",
        "per-round optimized eps* = 0.495446 at alpha* = 25\n"
        "composed eps over T=50 rounds (rdp) = 1.25998 at alpha* = 22.5854\n",
    ),
    "theorem1-rdp": (
        "--route theorem1-rdp --sum-lambda-min 50 --C 1 --B 10 --D 100 --delta 1e-5 --T 50",
        "per-round optimized eps* = 0.0454929 at alpha* = 485.193\n"
        "composed eps over T=50 rounds (rdp) = 0.318139 at alpha* = 75.7175\n",
    ),
}


@pytest.mark.parametrize("case", sorted(ACCOUNT_GOLDEN))
def test_account_golden_output(case, capsys):
    flags, expected = ACCOUNT_GOLDEN[case]
    assert main(["account"] + flags.split()) == EXIT_OK
    assert capsys.readouterr().out == expected


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

    def test_covered_run_does_not_depend_on_the_blas_thread_count(self, tmp_path):
        # 199 non-sensitive users at d = 101, each covered by the floor and
        # certified by Cholesky; no eigenvalue feeds their lifts, so the
        # reports are the same bytes at one and two OpenBLAS threads
        import os
        import subprocess
        import sys

        import aggnoise

        config = {
            "seed": 5,
            "rounds": 3,
            "dataset": {"kind": "synthetic", "task": "regression", "features": 100,
                        "per_user": 100},
            "users": {"total": 200, "sensitive": 1},
            "scheme": {"kind": "gaussian_sampled", "batch": 10},
            "mechanism": {"kind": "wfdp", "sigma2": 0.01},
            "accountant": {"route": "closed_form", "mode": "general", "delta": 1e-3,
                           "clip": 1.0, "composition": "simple"},
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads)
            subprocess.run([sys.executable, "-m", "aggnoise", "--seed", "5", "--out", str(out),
                            "simulate", "--config", str(cfg)], env=env, capture_output=True,
                           check=True)
            reports.append([(out / name).read_bytes() for name in ("metrics.csv", "ledger.json")])
        assert reports[0] == reports[1]

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

    def test_theorem1_route_refuses_singular_user_covariances(self, tmp_path):
        # D = 10 gradients of d = 40 coordinates: every user's covariance has rank
        # at most 10, so theorem 1's context, sum_u B lambda_min, is zero
        cfg, _ = write_config(
            tmp_path,
            dataset={"features": 39, "per_user": 10},
            scheme={"kind": "gaussian_sampled", "batch": 2},
            mechanism={"kind": "none", "sigma2": 0.0},
            accountant={"route": "theorem1_rdp", "composition": "rdp"},
        )
        out = tmp_path / "o"
        assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
        ledger = json.loads((out / "ledger.json").read_text())
        assert ledger["total_eps"] == "inf"
        assert len(ledger["entries"]) == 3
        for entry in ledger["entries"]:
            assert entry["route"] == "refused" and entry["eps"] == "inf"
            assert entry["cause"] == (
                "necessary condition violated: every non-sensitive user's covariance "
                "is singular, so theorem 1's context sum_u B lambda_min(Sigma_u) is zero"
            )

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

    # wfdp's floor is too small for the bound's order interval; ddp and none floor
    # nothing, so the floored-mechanism route is refused by name before any data is built
    @pytest.mark.parametrize("mechanism", [
        {"kind": "wfdp", "sigma2": 1e-7},
        {"kind": "ddp", "sigma2": 0.5},
        {"kind": "none", "sigma2": 0.5},
    ], ids=["wfdp", "ddp", "none"])
    def test_infeasible_floor_parameters_exit_config(self, tmp_path, capsys, mechanism):
        cfg, _ = write_config(
            tmp_path,
            scheme={"kind": "gaussian_sampled", "batch": 10, "learning_rate": 0.2},
            mechanism=mechanism,
            accountant={"route": "wfdp_a", "composition": "rdp", "delta": 1e-4,
                        "clip": 1.0},
        )
        rc = main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        if mechanism["kind"] == "wfdp":
            assert "empty alpha validity interval" in err
        else:
            assert "accountant.route: wfdp_a bounds a floored mechanism" in err
            assert f"mechanism {mechanism['kind']} floors nothing" in err

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


@pytest.mark.parametrize("command", [["simulate"], ["spectrum"]])
@pytest.mark.parametrize(
    "key, value",
    [
        # integral floats: JSON Schema counts 2.0 as an integer, the run cannot use it
        ("rounds", 2.0),
        ("seed", 1.0),
        ("dataset/features", 3.0),
        ("users/total", 4.0),
        ("scheme/batch", 2.0),
        # non-finite numbers, which Python's json reads as NaN and Infinity
        ("accountant/delta", math.nan),
        ("mechanism/sigma2", math.inf),
        ("accountant/clip", math.inf),
        ("dataset/noise", -math.inf),
    ],
)
def test_non_integral_or_non_finite_value_is_config_error(tmp_path, capsys, command, key, value):
    section, _, name = key.rpartition("/")
    cfg, _ = write_config(tmp_path, **({section: {name: value}} if section else {name: value}))
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_CONFIG
    assert f"config key '{key}': " in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_missing_csv_is_config_error(tmp_path, capsys):
    cfg, _ = write_config(tmp_path, dataset={"kind": "csv", "path": str(tmp_path / "absent.csv")})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "dataset.path" in err and "absent.csv" in err


@pytest.mark.parametrize("command", [["simulate"], ["spectrum"]])
def test_sampling_ratio_below_one_is_refused(tmp_path, capsys, command):
    # every user takes part in every round, visibly to the server: nothing amplifies
    cfg, _ = write_config(tmp_path, accountant={"sampling_ratio": 0.5})
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_CONFIG
    assert "accountant.sampling_ratio" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg, _ = write_config(tmp_path, accountant={"sampling_ratio": 1.0})
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_OK


@pytest.mark.parametrize("mechanism", [{"kind": "wfna"}, {"kind": "ddp"},
                                       {"kind": "none", "sigma2": 0.0}],
                         ids=["wfna", "ddp", "none"])
def test_blocks_without_wfdp_are_refused(tmp_path, capsys, mechanism):
    # only WFDP draws each update from the block-diagonal model the accountant sums
    cfg, _ = write_config(tmp_path, mechanism={**mechanism, "blocks": 2})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_CONFIG
    assert f"mechanism.blocks: {mechanism['kind']} takes no blocks" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    cfg, _ = write_config(tmp_path, mechanism={**mechanism, "blocks": 1})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_OK


@pytest.mark.parametrize("command", [["simulate"], ["spectrum"]])
def test_more_blocks_than_coordinates_are_refused(tmp_path, capsys, command):
    # 5 features and the bias make d = 6
    cfg, _ = write_config(tmp_path, dataset={"features": 5}, mechanism={"blocks": 100})
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "mechanism.blocks: cannot split dimension 6 into 100 blocks" in err
    assert not (tmp_path / "o").exists()
    cfg, _ = write_config(tmp_path, dataset={"features": 5}, mechanism={"blocks": 6})
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_OK


@pytest.mark.parametrize("command", [["simulate"], ["spectrum"]])
@pytest.mark.parametrize("samples", [None, 0, 1], ids=["absent", "0", "1"])
def test_fedavg_with_fewer_than_two_replays_is_refused(tmp_path, capsys, command, samples):
    # the schema admits 0 and 1, and the key defaults to 0
    scheme = {"kind": "fedavg"} if samples is None else {"kind": "fedavg", "fedavg_samples": samples}
    cfg, _ = write_config(tmp_path, scheme=scheme)
    assert main(["--out", str(tmp_path / "o"), *command, "--config", cfg]) == EXIT_CONFIG
    assert "scheme.fedavg_samples" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_fedavg_with_two_replays_runs(tmp_path):
    cfg, _ = write_config(tmp_path, scheme={"kind": "fedavg", "fedavg_samples": 2})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "o" / "ledger.json").exists()


@pytest.mark.parametrize("route", ["wfdp_a", "wfdp_b"])
@pytest.mark.parametrize("mechanism", [{"kind": "none"}, {"kind": "ddp", "sigma2": 0.02}],
                         ids=["none", "ddp"])
def test_wfdp_route_without_a_floor_is_refused_before_the_data(tmp_path, capsys, monkeypatch,
                                                               route, mechanism):
    def unreachable(*args, **kwargs):
        raise AssertionError("the data was built")

    monkeypatch.setattr(cli_module, "make_synthetic", unreachable)
    cfg, config = write_config(tmp_path, accountant={"route": route, "composition": "rdp"})
    config["mechanism"] = mechanism  # replaced whole: none carries no sigma2
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "accountant.route" in err and route in err and mechanism["kind"] in err
    assert not (tmp_path / "o").exists()


def test_wfna_with_a_wfdp_route_runs(tmp_path):
    cfg, _ = write_config(tmp_path, mechanism={"kind": "wfna", "sigma2": 0.02},
                          accountant={"route": "wfdp_a", "composition": "rdp", "delta": 1e-5})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "o" / "ledger.json").exists()


def test_python_m_aggnoise_runs_the_cli():
    import os
    import subprocess
    import sys

    import aggnoise

    src = os.path.dirname(os.path.dirname(aggnoise.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "aggnoise", "--help"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert out.stdout.startswith("usage: aggnoise")


@pytest.mark.parametrize("command", [
    ["verify", "--trials-closed", "2", "--trials-rdp", "2", "--advantage-trials", "100"],
    ["account", "--route", "closed", "--lambda", "0.25", "--C", "2", "--delta", "1e-3"],
    ["compose", "run1/ledger.json"],
    ["spectrum", "--eigvals", "0.5,0.1"],
], ids=["verify", "account", "compose", "spectrum-eigvals"])
@pytest.mark.parametrize("before", [True, False], ids=["before", "after"])
def test_commands_that_read_no_config_refuse_it(tmp_path, capsys, command, before):
    # only simulate and spectrum without --eigvals read --config; elsewhere it would be ignored,
    # even when missing
    out = tmp_path / "o"
    flag = ["--config", str(tmp_path / "missing.json")]
    argv = ["--out", str(out)] + (flag + command if before else command[:1] + flag + command[1:])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: --config: ")
    assert not out.exists()


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
        {"dataset": {"features": 39, "per_user": 10}},
        {"dataset": {"features": 39, "per_user": 10}, "mechanism": {"blocks": 2}},
        {"dataset": {"features": 39, "per_user": 10}, "mechanism": {"kind": "wfna"}},
    ], ids=["full_gd", "fedavg", "blocks", "ddp", "none", "thin", "thin_blocks", "thin_wfna"])
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

    def test_thin_users_list_every_eigenvalue(self, tmp_path):
        # 10 gradients in d = 40: each user's model keeps <= 10 eigenpairs,
        # and the rows list all 40 eigenvalues, the missing ones as exact zeros
        cfg, _ = write_config(tmp_path, dataset={"features": 39, "per_user": 10})
        assert main(["--out", str(tmp_path / "spec"), "spectrum", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "spec" / "spectrum.csv") as fh:
            rows = [r for r in csv.DictReader(fh) if r["source"].startswith("user")]
        users = {r["source"] for r in rows}
        assert len(rows) == 40 * len(users)
        for user in users:
            values = [float(r["eigenvalue"]) for r in rows if r["source"] == user]
            assert values == sorted(values, reverse=True)
            assert values[10:] == [0.0] * 30
            assert all(float(r["floored"]) == 0.005 for r in rows if r["source"] == user
                       and float(r["eigenvalue"]) == 0.0)

    @pytest.mark.parametrize("dataset", [{}, {"features": 39, "per_user": 10}],
                             ids=["dense", "thin"])
    def test_covered_users_list_their_second_moment_spectra(self, tmp_path, dataset):
        # sigma^2 = 0.5 is above every user's spectrum: each floors to 0.5 I
        cfg, config = write_config(tmp_path, dataset=dataset, mechanism={"sigma2": 0.5})
        assert main(["--out", str(tmp_path / "spec"), "spectrum", "--config", cfg]) == EXIT_OK
        with open(tmp_path / "spec" / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        users, model, _, params, _, _, _, _ = _build_run(config, config["seed"])
        ops = ModelOps(model.family)
        batch = config["scheme"]["batch"]
        for user in users[1:]:
            cols = clipped_gradients(design(user.features)[None], user.labels[None], ops,
                                     model.theta, params.clip).columns[0]
            reference = np.linalg.eigvalsh(cols @ cols.T / (batch * cols.shape[1]))[::-1]
            values = [float(r["eigenvalue"]) for r in rows if r["source"] == f"user{user.user_id}"]
            assert values[0] <= 0.5
            assert np.allclose(values, reference, rtol=1e-12, atol=1e-12 * reference[0])
        aggregate = [float(r["eigenvalue"]) for r in rows if r["source"] == "aggregate"]
        assert aggregate == [0.5 + 0.5 + 0.5] * model.dim

    def test_requires_input(self, capsys):
        assert main(["spectrum"]) == EXIT_CONFIG

    @pytest.mark.parametrize("eigvals", ["0.5,-0.2", "0.5,nan"])
    def test_malformed_eigvals_config_error(self, tmp_path, capsys, eigvals):
        rc = main(["--out", str(tmp_path), "spectrum", "--eigvals", eigvals])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --eigvals: ")

    @pytest.mark.parametrize("sigma2", ["-0.5", "nan"])
    @pytest.mark.parametrize("source", ["eigvals", "config"])
    def test_negative_sigma2_config_error(self, tmp_path, capsys, source, sigma2):
        cfg, _ = write_config(tmp_path)
        flags = ["--eigvals", "0.5,0.02"] if source == "eigvals" else ["--config", cfg]
        rc = main(["--out", str(tmp_path / "o"), "spectrum", *flags, "--sigma2", sigma2])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: --sigma2: ")


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


    def test_runs_of_different_lengths_compose(self, tmp_path, capsys):
        paths = []
        for rounds in (2, 3):
            cfg, _ = write_config(tmp_path, name=f"c{rounds}.json", rounds=rounds)
            out = tmp_path / f"r{rounds}"
            assert main(["--out", str(out), "simulate", "--config", cfg]) == EXIT_OK
            paths.append(str(out / "ledger.json"))
        assert main(["--out", str(tmp_path / "merged"), "compose"] + paths) == EXIT_OK
        merged = json.loads((tmp_path / "merged" / "composed_ledger.json").read_text())
        assert len(merged["entries"]) == 5
        assert merged["params"]["rounds"] == 5

    @pytest.mark.parametrize("accountant", [
        {"route": "closed_form", "mode": "general", "composition": "simple"},
        {"route": "wfdp_a", "composition": "rdp"},
    ], ids=["simple", "rdp"])
    def test_recompose_reproduces_run_total(self, tmp_path, accountant):
        # simulate and compose share one composition path, so re-composing a
        # run's ledger in its own mode gives its total bit for bit
        cfg, config = write_config(tmp_path, accountant=accountant, mechanism={"sigma2": 0.05})
        assert main(["--out", str(tmp_path / "run"), "simulate", "--config", cfg]) == EXIT_OK
        rc = main(["--out", str(tmp_path / "again"), "compose",
                   str(tmp_path / "run" / "ledger.json"),
                   "--mode", config["accountant"]["composition"]])
        assert rc == EXIT_OK
        run = json.loads((tmp_path / "run" / "ledger.json").read_text())
        again = json.loads((tmp_path / "again" / "composed_ledger.json").read_text())
        assert isinstance(run["total_eps"], float)
        assert again["total_eps"] == run["total_eps"]
        assert again["alpha_star"] == run["alpha_star"]


    @pytest.mark.parametrize("malform", ["missing_clip", "unknown_key", "entries_not_list",
                                         "rounds_not_increasing"])
    def test_malformed_ledger_is_config_error(self, tmp_path, capsys, malform):
        path = tmp_path / "ledger.json"
        write_ledger(path, CLOSED_PARAMS, [ROUTES["closed_form:general"]] * 2)
        doc = json.loads(path.read_text())
        if malform == "missing_clip":
            del doc["params"]["clip"]
        elif malform == "unknown_key":
            doc["params"]["sigma"] = 1.0
        elif malform == "entries_not_list":
            doc["entries"] = 5
        else:
            doc["entries"][1]["round_index"] = 0
        path.write_text(json.dumps(doc))
        assert main(["--out", str(tmp_path / "o"), "compose", str(path)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: ledger file {path} is malformed")

    @pytest.mark.parametrize("field, value", [
        pytest.param(field, value, id=f"{field}-{name}")
        for field in ("eps", "lambda_min", "noise_trace", "delta_total")
        for name, value in (("negative", -1.0), ("nan", math.nan))
    ] + [pytest.param("delta_total", math.inf, id="delta_total-inf")])
    def test_invalid_entry_value_is_config_error(self, tmp_path, capsys, field, value):
        # an RDP ledger of closed-form rounds: RDP composition reads only its
        # lambda_min, SIMPLE composition amplifies its eps
        path = tmp_path / "ledger.json"
        write_ledger(path, CLOSED_PARAMS, [ROUTES["closed_form:general"]] * 2, CompositionMode.RDP)
        doc = json.loads(path.read_text())
        doc["entries"][1][field] = value
        path.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path / "o"), "compose", str(path), "--mode", "simple"])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: ledger file {path} is malformed")
        assert field in err

    @pytest.mark.parametrize("value", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
    def test_invalid_sum_lambda_min_is_config_error(self, tmp_path, capsys, value):
        path = tmp_path / "ledger.json"
        write_ledger(path, RDP_PARAMS, [ROUTES["theorem1_rdp"]] * 2, CompositionMode.RDP, lam=0.5)
        doc = json.loads(path.read_text())
        assert doc["entries"][1]["curve"]["sum_lambda_min"] == 0.5
        doc["entries"][1]["curve"]["sum_lambda_min"] = value
        path.write_text(json.dumps(doc))
        rc = main(["--out", str(tmp_path / "o"), "compose", str(path)])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: ledger file {path} is malformed")
        assert "sum_lambda_min" in err

    def test_simple_delta_override_on_closed_form_rounds_rejected(self, tmp_path, capsys):
        # their eps holds at the delta they were accounted at, not at --delta
        path = tmp_path / "closed.json"
        write_ledger(path, CLOSED_PARAMS, [ROUTES["closed_form:general"]] * 3)
        rc = main(["--out", str(tmp_path / "o"), "compose", str(path), "--delta", "1e-9"])
        assert rc == EXIT_CONFIG
        assert "--delta" in capsys.readouterr().err
        rc = main(["--out", str(tmp_path / "o"), "compose", str(path), "--mode", "rdp",
                   "--delta", "0"])
        assert rc == EXIT_CONFIG
        assert "--delta" in capsys.readouterr().err
        same = composed_total(tmp_path, capsys, str(path), "--delta", "1e-3")
        assert same["params"]["delta"] == 1e-3

    @pytest.mark.parametrize("source", ["rdp_routes", "closed_form"])
    def test_rdp_delta_override(self, tmp_path, capsys, source):
        path = tmp_path / "ledger.json"
        if source == "rdp_routes":
            ledger = write_ledger(path, RDP_PARAMS, [ROUTES["wfdp_a"], ROUTES["theorem1_rdp"],
                                                     ROUTES["wfdp_a"]],
                                  CompositionMode.RDP, lam=0.5)
        else:
            ledger = write_ledger(path, CLOSED_PARAMS, [ROUTES["closed_form:general"]] * 3)
        composed = composed_total(tmp_path, capsys, str(path), "--mode", "rdp",
                                  "--delta", "1e-7")
        curves = [accountant._entry_curve(e, ledger.params) for e in ledger.entries]
        alpha_star, eps_star = optimize_alpha(curves, 1e-7)
        assert composed["params"]["delta"] == 1e-7
        assert composed["total_eps"] == eps_star
        assert composed["alpha_star"] == alpha_star

    def test_simple_delta_override_on_rdp_rounds(self, tmp_path, capsys):
        # a curve's eps is optimized at whatever delta it is composed at
        path = tmp_path / "ledger.json"
        ledger = write_ledger(path, RDP_PARAMS, [ROUTES["wfdp_a"], ROUTES["theorem1_rdp"]],
                              CompositionMode.RDP, lam=0.5)
        composed = composed_total(tmp_path, capsys, str(path), "--delta", "1e-7")
        expected = 0.0
        for entry in ledger.entries:
            expected += curve_eps(entry.curve, 1e-7)
        assert composed["params"]["delta"] == 1e-7
        assert composed["total_eps"] == expected


class TestImportCost:
    def test_cli_does_not_import_scipy_stats(self):
        # scipy.stats alone took most of the CLI's start-up time
        import os
        import subprocess
        import sys

        import aggnoise

        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, aggnoise.cli; print('scipy.stats' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "False"

    def test_cli_loads_verify_but_no_scipy(self):
        # nothing in the package imports scipy; verify itself stays loaded at
        # import time, where traced runs look for its bindings
        import os
        import subprocess
        import sys

        import aggnoise

        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, aggnoise.cli; "
            "print('aggnoise.verify' in sys.modules, "
            "sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "True []"

    def test_cli_loads_no_jsonschema(self):
        # configs are checked by the package's own schema checker
        import os
        import subprocess
        import sys

        import aggnoise

        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        probe = (
            "import sys, aggnoise.cli; "
            "print(sorted(m for m in sys.modules "
            "if m == 'jsonschema' or m.startswith('jsonschema.')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip() == "[]"

    def test_verify_run_loads_no_scipy(self, tmp_path):
        # the exact Gaussian delta oracle and every suite run on numpy and math alone
        import os
        import subprocess
        import sys

        import aggnoise

        src = os.path.dirname(os.path.dirname(aggnoise.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        argv = ["--out", str(tmp_path), "--seed", "0", "verify", "--trials-closed", "20",
                "--trials-rdp", "10", "--ce-trials", "300", "--advantage-trials", "20000"]
        probe = (
            "import sys; from aggnoise.cli import main; "
            f"rc = main({argv!r}); "
            "print(rc, sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
        )
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True)
        assert out.stdout.strip().splitlines()[-1] == "0 []"
        assert (tmp_path / "verify_report.json").exists()


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

    def test_no_trials_is_sound(self, tmp_path):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--seed", "0", "verify",
                   "--trials-closed", "0", "--trials-rdp", "0",
                   "--ce-trials", "300", "--advantage-trials", "20000"])
        assert rc == EXIT_OK
        report = json.loads((out / "verify_report.json").read_text())
        assert report["closed_form"]["total"] == 0 and report["closed_form"]["sound"]
        assert all(s["total"] == 0 and s["sound"] for s in report["rdp"].values())

    @pytest.mark.parametrize("flag, value", [
        ("--advantage-trials", "0"),
        ("--ce-trials", "0"),
        ("--ce-trials", "-3"),
        ("--trials-closed", "-1"),
        ("--trials-rdp", "-1"),
        ("--ce-dim", "6"),
        ("--ce-dim", "0"),
        ("--ce-dim", "-8"),
    ])
    def test_bad_flag_exits_before_any_suite(self, tmp_path, capsys, flag, value):
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--seed", "0", "verify", flag, value])
        assert rc == EXIT_CONFIG
        captured = capsys.readouterr()
        assert flag in captured.err
        assert captured.out == ""
        assert not (out / "verify_report.json").exists()

    def test_floored_line_states_the_relation_that_holds(self, tmp_path, capsys):
        # one advantage trial guesses right or wrong outright: an advantage of
        # +-1, which passes only through the 3/sqrt(trials) allowance
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--seed", "0", "verify",
                   "--trials-closed", "0", "--trials-rdp", "0",
                   "--ce-trials", "1", "--advantage-trials", "1"])
        assert rc == EXIT_OK
        floored = json.loads((out / "verify_report.json").read_text())["counterexample_floored"]
        line = next(l for l in capsys.readouterr().out.splitlines()
                    if l.startswith("floored counterexample:"))
        relation = "<=" if floored["advantage"] <= floored["advantage_bound"] else ">"
        assert f"advantage={floored['advantage']:.4f} {relation} bound" in line
        assert "3/sqrt(trials) = 3.0000 above it" in line

    def test_thin_counterexample_passes(self, tmp_path):
        # at --ce-dim 64 the helpers' floored sum is isotropic with no stored
        # eigenpairs; the floored distinguisher must still draw its noise
        out = tmp_path / "o"
        rc = main(["--out", str(out), "--seed", "0", "verify", "--ce-dim", "64",
                   "--trials-closed", "5", "--trials-rdp", "3",
                   "--ce-trials", "300", "--advantage-trials", "20000"])
        assert rc == EXIT_OK
        floored = json.loads((out / "verify_report.json").read_text())["counterexample_floored"]
        assert floored["advantage"] <= floored["advantage_bound"]


@pytest.mark.parametrize("route", ["theorem1_rdp", "wfdp_a"])
def test_a_mode_on_a_route_that_takes_none_is_refused(tmp_path, capsys, monkeypatch, route):
    def unreachable(*args, **kwargs):
        raise AssertionError("the data was built")

    monkeypatch.setattr(cli_module, "make_synthetic", unreachable)
    cfg, _ = write_config(tmp_path, accountant={"route": route, "mode": "singular",
                                                "composition": "rdp"})
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: accountant.mode: ")
    assert ROUTES[route].reads.value in err


def tiny_config(scheme, mechanism, accountant, **dataset):
    return {
        "seed": 7,
        "rounds": 2,
        "dataset": {"kind": "synthetic", "task": "regression", "features": 2, "per_user": 8,
                    **dataset},
        "users": {"total": 4, "sensitive": 1},
        "scheme": scheme,
        "mechanism": mechanism,
        "accountant": {"delta": 1e-3, "clip": 1.0, **accountant},
    }


GRID_SCHEMES = [{"kind": "iid_sgd", "batch": 2}, {"kind": "full_gd"},
                {"kind": "gaussian_sampled", "batch": 2},
                {"kind": "fedavg", "batch": 2, "fedavg_samples": 2}]
GRID_MECHANISMS = [{"kind": "wfdp", "sigma2": 0.5}, {"kind": "wfna", "sigma2": 0.5},
                   {"kind": "ddp", "sigma2": 0.5}, {"kind": "none"}]
GRID_ACCOUNTANTS = [
    {"route": row.config, **({"mode": row.mode} if row.mode else {}),
     "composition": row.composition.value}
    for row in ROUTES.values() if row.config is not None
]
# the two configs whose rounds' own data used to end the run: theorem 1's
# context below C^2/D, and the low-privacy closed form past its delta limit
THEOREM1_SMALL_CONTEXT = tiny_config(
    {"kind": "iid_sgd", "batch": 2}, {"kind": "none"},
    {"route": "theorem1_rdp", "composition": "rdp", "clip": 2.0}, features=4, per_user=10)
THEOREM1_SMALL_CONTEXT["users"]["total"] = 6
LOW_REGION_PAST_DELTA = tiny_config(
    {"kind": "gaussian_sampled", "batch": 2}, {"kind": "none"},
    {"route": "closed_form", "delta": 0.49999, "clip": 2.0}, features=4, per_user=10)
LOW_REGION_PAST_DELTA["users"]["total"] = 6


def test_only_a_config_error_before_round_0_ends_a_run(tmp_path, monkeypatch, capsys):
    rounds_run = []
    original = simulation.run_round

    def counting(*args, **kwargs):
        rounds_run.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(simulation, "run_round", counting)
    configs = [tiny_config(scheme, mechanism, accountant) for scheme in GRID_SCHEMES
               for mechanism in GRID_MECHANISMS for accountant in GRID_ACCOUNTANTS]
    configs += [THEOREM1_SMALL_CONTEXT, LOW_REGION_PAST_DELTA]
    for index, config in enumerate(configs):
        path, out = tmp_path / f"c{index}.json", tmp_path / f"o{index}"
        path.write_text(json.dumps(config))
        rounds_run.clear()
        rc = main(["--out", str(out), "simulate", "--config", str(path)])
        capsys.readouterr()
        assert rc in (EXIT_OK, EXIT_CONFIG), config
        assert (rc == EXIT_CONFIG) == (not rounds_run), config
        if rc == EXIT_OK:
            ledger = json.loads((out / "ledger.json").read_text())
            assert len(ledger["entries"]) == config["rounds"]
            for entry in ledger["entries"]:
                assert (entry["route"] == "refused") == (entry["cause"] is not None)


@pytest.mark.parametrize("config, cause", [
    (THEOREM1_SMALL_CONTEXT,
     "empty alpha validity interval for theorem1_rdp: upper bound {bound:.6g} <= 1; "
     "theorem 1's context sum_u B lambda_min(Sigma_u) = {lam:.6g} is at most C^2/D = 0.4"),
    (LOW_REGION_PAST_DELTA, "delta=0.49999 >= f(eps)="),
], ids=["theorem1-small-context", "low-region-past-delta"])
def test_a_round_without_a_bound_is_refused_not_fatal(tmp_path, capsys, config, cause):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["--out", str(tmp_path / "o"), "simulate", "--config", str(path)]) == EXIT_OK
    ledger = json.loads((tmp_path / "o" / "ledger.json").read_text())
    assert ledger["total_eps"] == "inf"
    refused = [entry for entry in ledger["entries"] if entry["route"] == "refused"]
    assert refused and refused[0]["round_index"] == 0
    for entry in refused:
        assert entry["eps"] == "inf"
        # theorem 1's upper order bound is D * context / C^2 = 2.5 * context here
        lam = entry["lambda_min"]
        assert entry["cause"].startswith(cause.format(lam=lam, bound=2.5 * lam))


# each route's ledger string and curve variant, as ledgers have always carried them
LEDGER_ROUTES = {
    "closed_form:general": ("closed_form:general", None),
    "closed_form:singular": ("closed_form:singular", None),
    "closed_form:iid": ("closed_form:iid", None),
    "theorem1_rdp": ("rdp:theorem1_rdp", "theorem1_rdp"),
    "wfdp_a": ("rdp:wfdp_a", "wfdp_a"),
    "wfdp_b": ("rdp:wfdp_b", "wfdp_b"),
}
ACCOUNT_INPUTS = {
    Reads.LAMBDA_MIN: "--lambda 0.5",
    Reads.NONZERO_LAMBDA_MIN: "--lambda 0.5",
    Reads.PER_USER_LAMBDA: "--iid --lambda 0.01",
    Reads.CONTEXT: "--sum-lambda-min 50",
    Reads.FLOOR: "--sigma 0.1",
}


@pytest.mark.parametrize("row", list(ROUTES.values()), ids=list(ROUTES))
class TestRouteTable:
    def test_cli_name_selects_the_row(self, row, monkeypatch, capsys):
        seen = []
        original = cli_module.account_round

        def recording(value, params, route, **kwargs):
            seen.append(route)
            return original(value, params, route, **kwargs)

        monkeypatch.setattr(cli_module, "account_round", recording)
        mode = f" --mode {row.mode}" if row.config is not None and row.mode else ""
        flags = (f"--route {row.cli}{mode} {ACCOUNT_INPUTS[row.reads]} --C 1 --B 10 --D 100 "
                 "--N 50 --delta 1e-5 --T 2")
        assert main(["account"] + flags.split()) == EXIT_OK
        assert f"({row.composition.value})" in capsys.readouterr().out
        assert seen == [row, row]

    def test_config_name_selects_the_row(self, row, tmp_path):
        if row.config is None:  # no config names it, and a round refuses it
            _, config = write_config(tmp_path)
            users, model, mech, params, _, _, _, _ = _build_run(config, 5)
            with pytest.raises(ConfigError, match="which a round does not supply"):
                simulation.run_round(model, users, mech, params, row, 5, 0)
            return
        accountant = {"route": row.config, "composition": row.composition.value}
        if row.mode:
            accountant["mode"] = row.mode
        cfg, _ = write_config(tmp_path, accountant=accountant, mechanism={"sigma2": 0.5},
                              rounds=1)
        assert main(["--out", str(tmp_path / "o"), "simulate", "--config", cfg]) == EXIT_OK
        (entry,) = json.loads((tmp_path / "o" / "ledger.json").read_text())["entries"]
        route, variant = LEDGER_ROUTES[row.name]
        assert entry["route"] == route
        assert (entry["curve"] or {}).get("variant") == variant


# an RDP ledger of one entry per route, written when routes were enum members,
# from these inputs; its totals were composed then, at delta 1e-5
ROUTES_LEDGER = Path(__file__).parent / "data" / "routes_ledger.json"
ROUTES_LEDGER_INPUTS = {"closed_form:general": 0.5, "closed_form:singular": 0.5,
                        "closed_form:iid": 0.01, "theorem1_rdp": 50.0, "wfdp_a": 0.0,
                        "wfdp_b": 0.0}


def test_rows_build_the_entries_of_a_ledger_written_before_the_table():
    old = RoundLedger.from_dict(json.loads(ROUTES_LEDGER.read_text()))
    rows = {LEDGER_ROUTES[name][0]: ROUTES[name] for name in ROUTES_LEDGER_INPUTS}
    assert sorted(rows) == sorted(entry.route for entry in old.entries)
    for entry in old.entries:
        row = rows[entry.route]
        value = ROUTES_LEDGER_INPUTS[row.name]
        assert account_round(value, old.params, row, round_index=entry.round_index) == entry


@pytest.mark.parametrize("mode, total", [("simple", 5.713992480381783),
                                         ("rdp", 2.6287435704586812)])
def test_a_ledger_written_before_the_table_composes(tmp_path, capsys, mode, total):
    assert main(["--out", str(tmp_path), "compose", str(ROUTES_LEDGER), "--mode", mode]) == EXIT_OK
    assert json.loads((tmp_path / "composed_ledger.json").read_text())["total_eps"] == total
