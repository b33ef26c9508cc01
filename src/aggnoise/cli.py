"""Command-line runner: simulate, account, spectrum, verify, compose.

Configuration is one JSON document validated against a strict schema (unknown
keys rejected); CLI flags override config values, and ``AGGNOISE_`` prefixed
environment variables override defaults when the flag is absent. All report
files are written atomically (temp file + rename) and are byte-identical for
identical (config, seed) pairs.

Exit codes: 0 ok, 2 configuration error, 3 runtime error, 4 verification
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

from . import verify as verify_mod
from .accountant import (
    ClosedFormMode,
    CompositionMode,
    PrivacyParams,
    RdpVariant,
    RoundLedger,
    account_round,
    amplify_subsampling,
    compose,
    delta_approx_gaussian,
    eps_dp_closed_form,
    optimize_alpha,
)
from .errors import (
    AggNoiseError,
    ConfigError,
    DeltaOutOfRegion,
    EmptyValidityInterval,
    NonPositiveLambda,
)
from .fedsim import (
    MechanismConfig,
    MechanismKind,
    ModelFamily,
    ModelOps,
    Role,
    SyntheticSpec,
    UserState,
    init_model,
    load_csv,
    make_synthetic,
    partition_equal,
    run_simulation,
    user_update,
)
from .fedsim.simulation import _blocks_for, _isotropic_extra, _user_rng
from .mechanisms import SchemeKind, UpdateScheme
from .spectra import floor_eigenvalues, eig_decompose, sum_covariances

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_VERIFY = 4

CONFIG_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["dataset", "users", "scheme", "mechanism", "accountant", "rounds"],
    "properties": {
        "seed": {"type": "integer", "minimum": 0},
        "rounds": {"type": "integer", "minimum": 1},
        "dataset": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["synthetic", "csv"]},
                "task": {"enum": ["regression", "classification"]},
                "features": {"type": "integer", "minimum": 1},
                "per_user": {"type": "integer", "minimum": 1},
                "noise": {"type": "number", "minimum": 0},
                "iid": {"type": "boolean"},
                "shift": {"type": "number", "minimum": 0},
                "eval_size": {"type": "integer", "minimum": 1},
                "path": {"type": "string"},
                "has_header": {"type": "boolean"},
            },
        },
        "users": {
            "type": "object",
            "additionalProperties": False,
            "required": ["total"],
            "properties": {
                "total": {"type": "integer", "minimum": 1},
                "sensitive": {"type": "integer", "minimum": 0},
            },
        },
        "scheme": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["iid_sgd", "full_gd", "gaussian_sampled", "fedavg"]},
                "batch": {"type": "integer", "minimum": 1},
                "learning_rate": {"type": "number", "exclusiveMinimum": 0},
                "fedavg_samples": {"type": "integer", "minimum": 0},
                "local_steps": {"type": "integer", "minimum": 1},
            },
        },
        "mechanism": {
            "type": "object",
            "additionalProperties": False,
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["wfdp", "wfna", "ddp", "none"]},
                "sigma2": {"type": "number", "minimum": 0},
                "blocks": {"type": "integer", "minimum": 1},
            },
        },
        "accountant": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "route": {"enum": ["closed_form", "theorem1_rdp", "wfdp_a", "wfdp_b"]},
                "mode": {"enum": ["general", "singular"]},
                "composition": {"enum": ["simple", "rdp"]},
                "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "delta0": {"type": "number", "minimum": 0},
                "sampling_ratio": {"type": "number", "exclusiveMinimum": 0, "maximum": 1},
                "clip": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}

_ROUTE_MAP = {
    "closed_form:general": ClosedFormMode.GENERAL,
    "closed_form:singular": ClosedFormMode.SINGULAR,
    "theorem1_rdp": RdpVariant.THEOREM1_RDP,
    "wfdp_a": RdpVariant.WFDP_A,
    "wfdp_b": RdpVariant.WFDP_B,
}


def atomic_write_text(path: str, text: str) -> None:
    """Write whole-file-or-nothing: temp file in the target dir, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-aggnoise-")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _fmt(value) -> str:
    if value is None or value == "":
        return ""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf"
        return repr(float(value))  # canonical shortest round-trip form
    return str(value)


def rows_to_csv(rows, columns) -> str:
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    return "\n".join(lines) + "\n"


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            config = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    validate_config(config)
    return config


def validate_config(config: dict) -> None:
    if jsonschema is None:  # pragma: no cover
        raise ConfigError("jsonschema is required to validate configs")
    try:
        jsonschema.validate(config, CONFIG_SCHEMA)
    except jsonschema.ValidationError as exc:
        key = "/".join(str(p) for p in exc.absolute_path) or "<root>"
        raise ConfigError(f"config key '{key}': {exc.message}") from None


def config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _env_default(name: str, cast, fallback):
    raw = os.environ.get(f"AGGNOISE_{name}")
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        raise ConfigError(f"environment variable AGGNOISE_{name}={raw!r} is not a valid {cast.__name__}")


def _build_run(config: dict, seed: int):
    """Instantiate users, model, mechanism, params and route from a config."""
    ds = config["dataset"]
    users_cfg = config["users"]
    scheme_cfg = config["scheme"]
    mech_cfg = config["mechanism"]
    acct = config.get("accountant", {})
    n_total = users_cfg["total"]
    n_sensitive = users_cfg.get("sensitive", 1)
    if n_sensitive >= n_total:
        raise ConfigError("users.sensitive: need at least one non-sensitive user")

    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(0xDA7A,)))
    if ds["kind"] == "synthetic":
        spec = SyntheticSpec(
            task=ds.get("task", "regression"),
            features=ds.get("features", 10),
            per_user=ds.get("per_user", 100),
            noise=ds.get("noise", 0.1),
            iid=ds.get("iid", True),
            shift=ds.get("shift", 1.0),
            eval_size=ds.get("eval_size", 500),
        )
        per_user, eval_data, _ = make_synthetic(spec, n_total, rng)
        family = spec.family
        data_digest = hashlib.sha256()
        for feats, labels in per_user:
            data_digest.update(feats.tobytes())
            data_digest.update(labels.tobytes())
        dataset_hash = data_digest.hexdigest()
    else:
        if "path" not in ds:
            raise ConfigError("dataset.path: required for kind 'csv'")
        features, labels = load_csv(ds["path"], ds.get("has_header", False))
        per_user = partition_equal(features, labels, n_total, rng)
        eval_data = (features, labels)
        family = (
            ModelFamily.LINEAR_REGRESSION
            if ds.get("task", "regression") == "regression"
            else ModelFamily.LOGISTIC_REGRESSION
        )
        with open(ds["path"], "rb") as fh:
            dataset_hash = hashlib.sha256(fh.read()).hexdigest()

    scheme = UpdateScheme(
        kind=SchemeKind(scheme_cfg["kind"]),
        batch=scheme_cfg.get("batch", 1),
        learning_rate=scheme_cfg.get("learning_rate", 0.1),
        fedavg_samples=scheme_cfg.get("fedavg_samples", 0),
        local_steps=scheme_cfg.get("local_steps", 1),
    )
    user_states = []
    for i, (feats, labels) in enumerate(per_user):
        role = Role.SENSITIVE if i < n_sensitive else Role.NON_SENSITIVE
        user_states.append(UserState(i, role, feats, labels, scheme))

    mech = MechanismConfig(
        kind=MechanismKind(mech_cfg["kind"]),
        sigma2=mech_cfg.get("sigma2", 0.0),
        block_count=mech_cfg.get("blocks", 1),
    )

    d_local = per_user[0][0].shape[0]
    if scheme.kind is SchemeKind.IID_SGD and scheme.batch > d_local:
        raise ConfigError(f"scheme.batch: {scheme.batch} exceeds per-user dataset size {d_local}")
    params = PrivacyParams(
        clip=acct.get("clip", 1.0),
        batch=scheme.batch,
        local_size=d_local,
        ns_users=n_total - n_sensitive,
        delta=acct.get("delta", 1e-5),
        approx_gauss_delta0=acct.get("delta0", 0.0),
        floor=mech.sigma2,
        sampling_ratio=acct.get("sampling_ratio", 1.0),
        rounds=config["rounds"],
    )
    route_key = acct.get("route", "closed_form")
    if route_key == "closed_form":
        route_key = f"closed_form:{acct.get('mode', 'general')}"
    route = _ROUTE_MAP[route_key]
    composition = CompositionMode(acct.get("composition", "simple"))
    model = init_model(family, per_user[0][0].shape[1])
    return user_states, model, mech, params, route, composition, eval_data, dataset_hash


CSV_COLUMNS = [
    "round",
    "train_loss",
    "eval_metric",
    "lambda_min",
    "eps_round",
    "eps_cumulative",
    "noise_trace",
]


def cmd_simulate(args) -> int:
    if args.config is None:
        raise ConfigError("simulate: --config is required")
    config = load_config(args.config)
    seed = args.seed if args.seed is not None else config.get("seed", 0)
    out_dir = args.out
    (users, model, mech, params, route, composition, eval_data, dataset_hash) = _build_run(
        config, seed
    )
    try:
        result = run_simulation(
            users, model, mech, params, route,
            rounds=config["rounds"], master_seed=seed,
            eval_data=eval_data, composition=composition,
        )
    except EmptyValidityInterval as exc:
        # a purely parameter-determined infeasibility: the configured
        # (N, sigma^2, D, C) cannot yield a finite epsilon on this route
        raise ConfigError(str(exc)) from None
    csv_text = rows_to_csv(result.rows, CSV_COLUMNS)
    ledger_doc = result.ledger.to_dict(
        total_eps=result.total_eps,
        extra={"total_cause": result.total_cause, "alpha_star": result.alpha_star},
    )
    manifest = {
        "seed": seed,
        "config_hash": config_hash(config),
        "dataset_hash": dataset_hash,
        "rounds": config["rounds"],
        "package": "aggnoise",
    }
    atomic_write_text(os.path.join(out_dir, "metrics.csv"), csv_text)
    atomic_write_text(os.path.join(out_dir, "ledger.json"),
                      json.dumps(ledger_doc, indent=2, sort_keys=True, allow_nan=False) + "\n")
    atomic_write_text(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    total = "inf" if result.total_eps is not None and math.isinf(result.total_eps) else result.total_eps
    print(f"simulated {config['rounds']} rounds; total eps = {total}; reports in {out_dir}")
    return EXIT_OK


def cmd_account(args) -> int:
    # flag mistakes and precondition violations are configuration errors here
    try:
        return _account_inner(args)
    except (EmptyValidityInterval, DeltaOutOfRegion, NonPositiveLambda, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _account_inner(args) -> int:
    delta = args.delta
    params = PrivacyParams(
        clip=args.C,
        batch=args.B,
        local_size=args.D,
        ns_users=args.N,
        delta=delta,
        approx_gauss_delta0=args.delta0,
        floor=args.sigma * args.sigma if args.sigma is not None else (args.sigma2 or 0.0),
        sampling_ratio=args.q,
        rounds=args.T,
    )
    route_key = args.route.replace("-", "_")
    if route_key in ("closed_form", "closed"):
        route_key = f"closed_form:{args.mode}"
    if route_key not in _ROUTE_MAP:
        raise ConfigError(f"--route: unknown route {args.route!r}")
    route = _ROUTE_MAP[route_key]

    if isinstance(route, ClosedFormMode):
        if args.lam is None:
            raise ConfigError("--route closed: --lambda is required")
        mode = ClosedFormMode.IID if args.iid else route
        bound = eps_dp_closed_form(args.lam, params, mode)
        eps_round = bound.eps
        print(f"per-round eps = {eps_round:.6g} (region {bound.region.value})")
        if params.approx_gauss_delta0 > 0:
            inflated = delta_approx_gaussian(eps_round, params)
            print(f"per-round delta (Gaussian-approximation inflated) = {inflated.total:.6g}")
        for w in bound.warnings:
            print(f"warning: {w}")
        amplified = amplify_subsampling(eps_round, params.sampling_ratio)
        if params.sampling_ratio < 1.0:
            print(f"amplified per-round eps = {amplified:.6g} (q = {params.sampling_ratio:g})")
        print(f"composed eps over T={args.T} rounds (simple) = {amplified * args.T:.6g}")
        return EXIT_OK

    if route is RdpVariant.THEOREM1_RDP:
        sum_lam = args.sum_lambda_min if args.sum_lambda_min is not None else args.lam
        if sum_lam is None:
            raise ConfigError("--route theorem1-rdp: --sum-lambda-min is required")
    else:
        sum_lam = 0.0
    entry = account_round(sum_lam, params, route)
    alpha_star, eps_star = optimize_alpha(entry.curve, delta)
    print(f"per-round optimized eps* = {eps_star:.6g} at alpha* = {alpha_star:.6g}")
    ledger = RoundLedger(params, CompositionMode.RDP)
    for t in range(args.T):
        ledger.append(account_round(sum_lam, params, route, round_index=t))
    total = compose(ledger, CompositionMode.RDP, delta)
    print(
        f"composed eps over T={args.T} rounds (rdp) = {total.total_eps:.6g} "
        f"at alpha* = {total.alpha_star:.6g}"
    )
    return EXIT_OK


def _spectrum_rows(source: str, eigvals: np.ndarray, sigma2: float) -> list[dict]:
    floored = np.maximum(eigvals, sigma2)
    return [
        {
            "source": source,
            "index": i,
            "eigenvalue": float(eigvals[i]),
            "floored": float(floored[i]),
            "delta": float(floored[i] - eigvals[i]),
        }
        for i in range(eigvals.shape[0])
    ]


def cmd_spectrum(args) -> int:
    rows = []
    if args.eigvals:
        try:
            vals = np.array([float(v) for v in args.eigvals.split(",")])
        except ValueError:
            raise ConfigError(f"--eigvals: expected comma-separated floats, got {args.eigvals!r}")
        model = eig_decompose(np.diag(vals))
        rows.extend(_spectrum_rows("input", model.eigvals, args.sigma2))
    elif args.config:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        users, model, mech, params, _, _, _, _ = _build_run(config, seed)
        ops = ModelOps(model.family)
        blocks = _blocks_for(model.dim, mech)
        # --sigma2 is a what-if floor on every user; without it, the floor and
        # the DDP variance are the ones simulate accounts
        floors = mech.kind in (MechanismKind.WFDP, MechanismKind.WFNA)
        sigma2 = args.sigma2 or (mech.sigma2 if floors else 0.0)
        ns_models = []
        for slot, user in enumerate(users):
            if user.role is not Role.NON_SENSITIVE:
                continue
            # the round-0 model simulate accounts, from the same per-user stream
            _, est = user_update(
                user, ops, model.theta, params.clip, blocks, _user_rng(seed, 0, slot)
            )
            rows.extend(_spectrum_rows(f"user{user.user_id}", est.eigvals, sigma2))
            ns_models.append(floor_eigenvalues(est, sigma2)[0] if sigma2 > 0 else est)
        extra = 0.0 if args.sigma2 else _isotropic_extra(mech, len(ns_models), len(users))
        aggregate = sum_covariances(ns_models, isotropic_extra=extra)
        rows.extend(_spectrum_rows("aggregate", aggregate.eigvals, 0.0))
    else:
        raise ConfigError("spectrum: pass --eigvals or --config")
    text = rows_to_csv(rows, ["source", "index", "eigenvalue", "floored", "delta"])
    path = os.path.join(args.out, "spectrum.csv")
    atomic_write_text(path, text)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    seed = args.seed if args.seed is not None else 0
    rng = np.random.default_rng(seed)
    report: dict = {"seed": seed}
    failures = 0

    closed = verify_mod.certify_closed_form(args.trials_closed, rng)
    closed_summary = verify_mod.summarize_reports(closed)
    report["closed_form"] = closed_summary
    if not closed_summary["sound"]:
        failures += 1
    print(
        f"closed-form dominance: {closed_summary['total']} instances, "
        f"{closed_summary['failures']} violations"
    )

    adjudication = {}
    for variant in (RdpVariant.THEOREM1_RDP, RdpVariant.WFDP_A, RdpVariant.WFDP_B):
        reports = verify_mod.certify_rdp(variant, args.trials_rdp, rng)
        summary = verify_mod.summarize_reports(reports)
        adjudication[variant.value] = summary
        verdict = "sound" if summary["sound"] else "UNSOUND"
        print(
            f"rdp dominance [{variant.value}]: {summary['total']} comparisons, "
            f"{summary['failures']} violations -> {verdict}"
        )
        if variant is RdpVariant.THEOREM1_RDP and not summary["sound"]:
            failures += 1
    report["rdp"] = adjudication

    # documented, not asserted: the printed low-privacy branch vs the oracle
    report["low_region_probe"] = verify_mod.probe_low_region().to_dict()

    ce = verify_mod.build_counterexample(args.ce_dim, rng=np.random.default_rng(seed + 1))
    verdict = verify_mod.check_necessary_condition(ce.all_gradients(), ce.replacement)
    success = verify_mod.run_distinguisher(ce, args.ce_trials, np.random.default_rng(seed + 2))
    report["counterexample"] = {
        "verdict": verdict,
        "distinguisher_success": success,
        "trials": args.ce_trials,
    }
    print(f"counterexample: verdict={verdict}, distinguisher success={success:.4f}")
    if verdict != verify_mod.Verdict.VIOLATED or success < 1.0:
        failures += 1

    floored_success = verify_mod.run_distinguisher(
        ce, args.advantage_trials, np.random.default_rng(seed + 3), floor=1.0
    )
    advantage = 2.0 * floored_success - 1.0
    params = PrivacyParams(clip=ce.clip, batch=ce.batch, delta=1e-3)
    lam = verify_mod.counterexample_floored_lambda_min(ce, floor=1.0)
    bound = eps_dp_closed_form(lam, params)
    limit = verify_mod.dp_advantage_bound(bound.eps, params.delta)
    mc_sigma = 3.0 / math.sqrt(args.advantage_trials)
    report["counterexample_floored"] = {
        "success": floored_success,
        "advantage": advantage,
        "eps": bound.eps,
        "advantage_bound": limit,
        "trials": args.advantage_trials,
    }
    print(
        f"floored counterexample: advantage={advantage:.4f} <= bound {limit:.4f} "
        f"(eps={bound.eps:.4f})"
    )
    if advantage > limit + mc_sigma:
        failures += 1

    if args.out:
        atomic_write_text(
            os.path.join(args.out, "verify_report.json"),
            json.dumps(report, indent=2, sort_keys=True) + "\n",
        )
    if failures:
        print(f"{failures} verification check(s) failed", file=sys.stderr)
        return EXIT_VERIFY
    print("all verification checks passed")
    return EXIT_OK


def cmd_compose(args) -> int:
    ledgers = []
    for path in args.ledgers:
        try:
            with open(path) as fh:
                ledgers.append(RoundLedger.from_dict(json.load(fh)))
        except FileNotFoundError:
            raise ConfigError(f"ledger file not found: {path}")
        except (KeyError, ValueError, json.JSONDecodeError) as exc:
            raise ConfigError(f"ledger file {path} is malformed: {exc}")
    if not ledgers:
        raise ConfigError("compose: need at least one ledger file")
    base = ledgers[0]
    merged = RoundLedger(base.params, CompositionMode(args.mode))
    next_round = 0
    for ledger in ledgers:
        if ledger.params.to_dict() != base.params.to_dict():
            raise ConfigError("compose: ledgers carry different privacy parameters")
        for entry in ledger.entries:
            merged.append(dataclasses.replace(entry, round_index=next_round))
            next_round += 1
    delta = args.delta if args.delta is not None else base.params.delta
    result = compose(merged, CompositionMode(args.mode), delta)
    doc = merged.to_dict(total_eps=result.total_eps, extra={"alpha_star": result.alpha_star})
    if args.out:
        atomic_write_text(
            os.path.join(args.out, "composed_ledger.json"),
            json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n",
        )
    print(
        f"composed {len(merged)} rounds ({args.mode}): total eps = {result.total_eps:.6g} "
        f"at delta = {delta:g}"
    )
    return EXIT_OK


def _global_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # the same flags are accepted before and after the subcommand; values
    # given after the subcommand win (SUPPRESS keeps the pre-command value)
    default = argparse.SUPPRESS if suppress else None
    parser.add_argument("--config", default=default if suppress else None)
    parser.add_argument(
        "--seed", type=int,
        default=default if suppress else _env_default("SEED", int, None),
    )
    parser.add_argument(
        "--out",
        default=default if suppress else _env_default("OUT", str, "aggnoise-out"),
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aggnoise",
        description="Privacy accounting and simulation for securely aggregated FL updates",
    )
    _global_flags(parser, suppress=False)
    shared = argparse.ArgumentParser(add_help=False)
    _global_flags(shared, suppress=True)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", parents=[shared],
                           help="run T federated rounds and account them")

    p_acc = sub.add_parser("account", parents=[shared],
                           help="evaluate accountant routes from flags alone")
    p_acc.add_argument("--route", required=True,
                       help="closed | theorem1-rdp | wfdp-a | wfdp-b")
    p_acc.add_argument("--mode", default="general", choices=["general", "singular"])
    p_acc.add_argument("--iid", action="store_true",
                       help="treat --lambda as the per-user minimum eigenvalue")
    p_acc.add_argument("--lambda", dest="lam", type=float, default=None)
    p_acc.add_argument("--sum-lambda-min", dest="sum_lambda_min", type=float, default=None)
    p_acc.add_argument("--C", type=float, required=True)
    p_acc.add_argument("--B", type=int, default=1)
    p_acc.add_argument("--D", type=int, default=1)
    p_acc.add_argument("--N", type=int, default=1)
    p_acc.add_argument("--sigma", type=float, default=None,
                       help="floor std sigma (floor = sigma^2)")
    p_acc.add_argument("--sigma2", type=float, default=None, help="floor variance sigma^2")
    p_acc.add_argument("--delta", type=float, required=True)
    p_acc.add_argument("--delta0", type=float, default=0.0)
    p_acc.add_argument("--q", type=float, default=1.0)
    p_acc.add_argument("--T", type=int, default=1)

    p_spec = sub.add_parser("spectrum", parents=[shared],
                            help="dump eigenvalue/floor/delta tables")
    p_spec.add_argument("--eigvals", default=None, help="comma-separated eigenvalues")
    p_spec.add_argument("--sigma2", type=float, default=0.0)

    p_ver = sub.add_parser("verify", parents=[shared],
                           help="run dominance suites and the counterexample demo")
    p_ver.add_argument("--trials-closed", type=int, default=1000)
    p_ver.add_argument("--trials-rdp", type=int, default=500)
    p_ver.add_argument("--ce-dim", type=int, default=8)
    p_ver.add_argument("--ce-trials", type=int, default=1000)
    p_ver.add_argument("--advantage-trials", type=int, default=100_000)

    p_comp = sub.add_parser("compose", parents=[shared],
                            help="merge round ledgers across runs")
    p_comp.add_argument("ledgers", nargs="+")
    p_comp.add_argument("--mode", default="simple", choices=["simple", "rdp"])
    p_comp.add_argument("--delta", type=float, default=None)

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "account": cmd_account,
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "compose": cmd_compose,
}


def main(argv=None) -> int:
    try:
        parser = build_parser()
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_CONFIG if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AggNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
