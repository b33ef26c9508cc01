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

from . import verify as verify_mod
from .accountant import (
    ROUTES,
    CompositionMode,
    PrivacyParams,
    Reads,
    Route,
    RoundLedger,
    account_round,
    compose,
    eps_dp_closed_form,
)
from .errors import (
    AggNoiseError,
    BadDimension,
    ConfigError,
    EmptyValidityInterval,
    LedgerOrderError,
    MalformedCsv,
    NonFinite,
    NonPositiveLambda,
    NotPositiveSemidefinite,
    TooFewExamples,
)
from .fedsim import (
    MechanismConfig,
    MechanismKind,
    ModelFamily,
    Role,
    SyntheticSpec,
    UserState,
    init_model,
    load_csv,
    make_synthetic,
    noise_round,
    partition_equal,
    run_simulation,
)
from .fedsim.simulation import Cohort
from .mechanisms import SchemeKind, UpdateScheme
from .spectra import eig_decompose

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
            },
        },
        "accountant": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "route": {"enum": list(dict.fromkeys(route.config for route in ROUTES.values()))},
                "mode": {"enum": [route.mode for route in ROUTES.values() if route.mode]},
                "composition": {"enum": ["simple", "rdp"]},
                "delta": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "delta0": {"type": "number", "minimum": 0},
                "clip": {"type": "number", "exclusiveMinimum": 0},
            },
        },
    },
}


def _route_named(name: str, mode: str | None, keys: tuple[str, str]) -> Route:
    """The row that a route's config or CLI name and a mode (absent: general) select.

    ``keys`` are the route's and the mode's key or flag, for errors.
    """
    key = name.replace("-", "_")
    rows = [row for row in ROUTES.values() if key in (row.config, row.cli.replace("-", "_"))]
    if not rows:
        raise ConfigError(f"{keys[0]}: unknown route {name!r}")
    if mode is not None and rows[0].mode is None:
        raise ConfigError(
            f"{keys[1]}: route {name} reads {rows[0].reads.value}; "
            "only the closed forms take a mode"
        )
    return next(row for row in rows if row.mode in (mode or "general", None))


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


_BOUNDS = (
    ("minimum", lambda v, m: v < m, "less than the minimum of"),
    ("exclusiveMinimum", lambda v, m: v <= m, "less than or equal to the minimum of"),
    ("maximum", lambda v, m: v > m, "greater than the maximum of"),
    ("exclusiveMaximum", lambda v, m: v >= m, "greater than or equal to the maximum of"),
)


def _has_type(value, name: str) -> bool:
    # stricter than JSON Schema on purpose: 2.0 is not an integer, and a
    # number is finite; a bool is neither
    if isinstance(value, bool):
        return name == "boolean"
    if name == "number":
        return isinstance(value, int) or (isinstance(value, float) and math.isfinite(value))
    return isinstance(value, {"integer": int, "object": dict, "string": str, "boolean": bool}[name])


def _schema_error(value, schema: dict, path: tuple):
    """The first way ``value`` breaks ``schema``, as ``(path, message)``, or None.

    Covers only the keywords ``CONFIG_SCHEMA`` uses."""
    if "type" in schema and not _has_type(value, schema["type"]):
        kind = "finite number" if schema["type"] == "number" else schema["type"]
        return path, f"{value!r} is not of type {kind!r}"
    if "enum" in schema and value not in schema["enum"]:
        return path, f"{value!r} is not one of {schema['enum']!r}"
    for keyword, breaks, words in _BOUNDS:
        if keyword in schema and breaks(value, schema[keyword]):
            return path, f"{value!r} is {words} {schema[keyword]!r}"
    for name in schema.get("required", ()):
        if name not in value:
            return path, f"{name!r} is a required property"
    properties = schema.get("properties", {})
    for name, item in value.items() if properties else ():  # an object, by its type
        if name in properties:
            error = _schema_error(item, properties[name], path + (name,))
            if error is not None:
                return error
        elif schema.get("additionalProperties", True) is False:
            return path, f"additional properties are not allowed ({name!r} was unexpected)"
    return None


def validate_config(config: dict) -> None:
    error = _schema_error(config, CONFIG_SCHEMA, ())
    if error is not None:
        path, message = error
        raise ConfigError(f"config key '{'/'.join(path) or '<root>'}': {message}")


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
    """Instantiate the cohort, model, mechanism, params and route from a config.

    The users' data is laid out once, in one ``Partition``; the cohort takes
    it as it is, and each user's features and labels view it.
    """
    ds = config["dataset"]
    users_cfg = config["users"]
    scheme_cfg = config["scheme"]
    mech_cfg = config["mechanism"]
    acct = config.get("accountant", {})
    n_total = users_cfg["total"]
    n_sensitive = users_cfg.get("sensitive", 1)
    if n_sensitive >= n_total:
        raise ConfigError("users.sensitive: need at least one non-sensitive user")
    if scheme_cfg["kind"] == "fedavg" and scheme_cfg.get("fedavg_samples", 0) < 2:
        raise ConfigError(
            "scheme.fedavg_samples: fedavg needs at least 2 local replays to estimate "
            f"a covariance, got {scheme_cfg.get('fedavg_samples', 0)}"
        )
    mech = MechanismConfig(MechanismKind(mech_cfg["kind"]), mech_cfg.get("sigma2", 0.0))
    route = _route_named(acct.get("route", "closed_form"), acct.get("mode"),
                         ("accountant.route", "accountant.mode"))
    if route.reads is Reads.FLOOR and mech.floor == 0:
        raise ConfigError(f"accountant.route: {route.name} bounds a floored mechanism (wfdp or "
                          f"wfna), but mechanism {mech.kind.value} floors nothing")
    if acct.get("delta0", 0.0) > 0 and route.composition is CompositionMode.RDP:
        raise ConfigError(f"accountant.delta0: {route.name}'s RDP curve has no "
                          "Gaussian-approximation term; only the closed forms add delta0 to their delta")

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
        try:
            features, labels = load_csv(ds["path"], ds.get("has_header", False))
            per_user = partition_equal(features, labels, n_total, rng)
        except OSError as exc:
            raise ConfigError(f"dataset.path: cannot read {ds['path']!r}: {exc.strerror}") from None
        except MalformedCsv as exc:
            raise ConfigError(f"dataset.path: {ds['path']!r}: {exc}") from None
        except TooFewExamples as exc:
            raise ConfigError(f"users.total: {exc} in {ds['path']!r}") from None
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
    cohort = Cohort(user_states, per_user)

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
        floor=mech.floor,
    )
    if route.reads is Reads.FLOOR:  # its order interval depends on the parameters alone
        try:
            route.build(route, 0.0, params, ())
        except EmptyValidityInterval as exc:
            raise ConfigError(f"mechanism.sigma2: {exc}") from None
    composition = CompositionMode(acct.get("composition", "simple"))
    model = init_model(family, per_user[0][0].shape[1])
    return cohort, model, mech, params, route, composition, eval_data, dataset_hash


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
    (cohort, model, mech, params, route, composition, eval_data, dataset_hash) = _build_run(
        config, seed
    )
    result = run_simulation(
        cohort, model, mech, params, route,
        rounds=config["rounds"], master_seed=seed,
        eval_data=eval_data, composition=composition,
    )
    csv_text = rows_to_csv(result.rows, CSV_COLUMNS)
    ledger_text = result.ledger.to_json(
        total_eps=result.total_eps,
        extra={"alpha_star": result.alpha_star},
    )
    manifest = {
        "seed": seed,
        "config_hash": config_hash(config),
        "dataset_hash": dataset_hash,
        "rounds": config["rounds"],
        "package": "aggnoise",
    }
    atomic_write_text(os.path.join(out_dir, "metrics.csv"), csv_text)
    atomic_write_text(os.path.join(out_dir, "ledger.json"), ledger_text + "\n")
    atomic_write_text(os.path.join(out_dir, "manifest.json"), json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    total = "inf" if result.total_eps is not None and math.isinf(result.total_eps) else result.total_eps
    print(f"simulated {config['rounds']} rounds; total eps = {total}; reports in {out_dir}")
    return EXIT_OK


def cmd_account(args) -> int:
    # flag mistakes and precondition violations are configuration errors here
    try:
        return _account_inner(args)
    except (EmptyValidityInterval, NonPositiveLambda, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def _account_inner(args) -> int:
    for flag, value in (("--lambda", args.lam), ("--sum-lambda-min", args.sum_lambda_min)):
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"{flag}: expected a finite number, got {value!r}")
    if args.sigma is not None:
        if args.sigma2 is not None:
            raise ConfigError("--sigma: give the floor as --sigma or as --sigma2, not both")
        if not 0 <= args.sigma < math.inf:
            raise ConfigError(f"--sigma: expected a finite standard deviation >= 0, got {args.sigma!r}")
    params = PrivacyParams(
        clip=args.C,
        batch=args.B,
        local_size=args.D,
        ns_users=args.N,
        delta=args.delta,
        approx_gauss_delta0=args.delta0,
        floor=args.sigma * args.sigma if args.sigma is not None else (args.sigma2 or 0.0),
    )
    if not args.T >= 1:
        raise ConfigError(f"--T: expected a number of rounds >= 1, got {args.T}")
    route = _route_named(args.route, args.mode, ("--route", "--mode"))
    # a flag the route would ignore, or that another flag would override, is refused
    floored, rdp = route.reads is Reads.FLOOR, route.composition is CompositionMode.RDP
    floor_flag = "--sigma" if args.sigma is not None else "--sigma2"
    floor_routes = " and ".join(r.cli for r in ROUTES.values() if r.reads is Reads.FLOOR)
    for flag, refused, why in (
        ("--iid", args.iid and route.reads is not Reads.LAMBDA_MIN,
         "only --route closed --mode general reads --lambda as a per-user minimum"),
        ("--sum-lambda-min", args.sum_lambda_min is not None and route.reads is not Reads.CONTEXT,
         "only --route theorem1-rdp reads it"),
        ("--sum-lambda-min", args.sum_lambda_min is not None and args.lam is not None,
         "give theorem1-rdp's context as --sum-lambda-min or as --lambda, not both"),
        ("--lambda", args.lam is not None and floored,
         f"--route {args.route} reads the floor and --N, not an eigenvalue"),
        (floor_flag, (args.sigma, args.sigma2) != (None, None) and not floored,
         f"--route {args.route} reads no floor; only {floor_routes} do"),
        ("--delta0", args.delta0 > 0 and rdp,
         f"--route {args.route}'s RDP curve has no Gaussian-approximation term; "
         "only the closed forms add delta0 to their delta"),
    ):
        if refused:
            raise ConfigError(f"{flag}: {why}")

    lam = args.sum_lambda_min if args.sum_lambda_min is not None else args.lam
    if floored:
        lam = 0.0  # the floored-mechanism variants read (N, sigma^2) from params
    elif lam is None:
        flag = "--sum-lambda-min" if route.reads is Reads.CONTEXT else "--lambda"
        raise ConfigError(f"--route {route.cli}: {flag} is required")
    elif args.iid:
        lam = lam * params.ns_users  # N equal covariances: the sum's lambda_min is N times one's
    composition = route.composition
    # T identical rounds; composing the first alone gives the per-round line.
    # A bound with no value at these flags refuses the round: a config error here
    first = account_round(lam, params, route)
    if first.cause is not None:
        raise ConfigError(first.cause)
    ledger = RoundLedger(params, composition)
    ledger.append(first)
    per_round = compose(ledger)
    for t in range(1, args.T):
        ledger.append(account_round(lam, params, route, round_index=t))
    total = compose(ledger)

    if composition is CompositionMode.RDP:
        print(
            f"per-round optimized eps* = {per_round.total_eps:.6g} "
            f"at alpha* = {per_round.alpha_star:.6g}"
        )
    else:
        print(f"per-round eps = {first.eps:.6g} (region {first.region})")
        if params.approx_gauss_delta0 > 0:
            print(f"per-round delta (Gaussian-approximation inflated) = {first.delta_total:.6g}")
        for w in first.warnings:
            print(f"warning: {w}")
    at = f" at alpha* = {total.alpha_star:.6g}" if total.alpha_star is not None else ""
    print(f"composed eps over T={args.T} rounds ({composition.value}) = {total.total_eps:.6g}{at}")
    return EXIT_OK


def _spectrum_rows(source: str, eigvals, sigma2: float) -> list[dict]:
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
    if args.eigvals and args.config is not None:
        raise ConfigError("--config: spectrum reads --eigvals or --config, not both")
    if args.config is not None and args.sigma2 is not None:
        raise ConfigError("--sigma2: spectrum --config floors at the config's mechanism.sigma2, "
                          "as simulate does; only --eigvals takes a floor")
    sigma2 = 0.0 if args.sigma2 is None else args.sigma2
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ConfigError(f"--sigma2: expected a finite floor >= 0, got {sigma2!r}")
    rows = []
    if args.eigvals:
        try:
            model = eig_decompose(np.diag([float(v) for v in args.eigvals.split(",")]))
        except ValueError:
            raise ConfigError(f"--eigvals: expected comma-separated floats, got {args.eigvals!r}")
        except (NonFinite, NotPositiveSemidefinite) as exc:
            raise ConfigError(f"--eigvals: {exc}") from None
        rows.extend(_spectrum_rows("input", model.spectrum(), sigma2))
    elif args.config:
        config = load_config(args.config)
        seed = args.seed if args.seed is not None else config.get("seed", 0)
        cohort, model, mech, params, _, _, _, _ = _build_run(config, seed)
        # simulate's round-0 pass, from the same per-user streams
        _, spectra, summed, _, _ = noise_round(
            model, cohort, mech, params.clip, seed, 0, spectra=True
        )
        ns_users = [user for user in cohort.users if user.role is Role.NON_SENSITIVE]
        for user, eigvals in zip(ns_users, spectra):
            rows.extend(_spectrum_rows(f"user{user.user_id}", eigvals, mech.floor))
        rows.extend(_spectrum_rows("aggregate", summed, 0.0))
    else:
        raise ConfigError("spectrum: pass --eigvals or --config")
    text = rows_to_csv(rows, ["source", "index", "eigenvalue", "floored", "delta"])
    path = os.path.join(args.out, "spectrum.csv")
    atomic_write_text(path, text)
    print(f"wrote {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    for flag, value, least in (("--trials-closed", args.trials_closed, 0),
                               ("--trials-rdp", args.trials_rdp, 0),
                               ("--ce-trials", args.ce_trials, 1),
                               ("--advantage-trials", args.advantage_trials, 1)):
        if value < least:
            raise ConfigError(f"{flag}: expected an integer >= {least}, got {value}")
    seed = args.seed if args.seed is not None else 0
    try:  # built before the suites, on its own generator, so a bad --ce-dim runs none of them
        ce = verify_mod.build_counterexample(args.ce_dim, rng=np.random.default_rng(seed + 1))
    except BadDimension as exc:
        raise ConfigError(f"--ce-dim: {exc}") from None
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
    for route in ROUTES.values():
        if route.composition is not CompositionMode.RDP:
            continue
        reports = verify_mod.certify_rdp(route.variant, args.trials_rdp, rng)
        summary = verify_mod.summarize_reports(reports)
        adjudication[route.name] = summary
        verdict = "sound" if summary["sound"] else "UNSOUND"
        print(
            f"rdp dominance [{route.name}]: {summary['total']} comparisons, "
            f"{summary['failures']} violations -> {verdict}"
        )
        if not route.adjudicated and not summary["sound"]:
            failures += 1
    report["rdp"] = adjudication

    # documented, not asserted: the printed low-privacy branch vs the oracle
    report["low_region_probe"] = verify_mod.probe_low_region().to_dict()

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
    relation = "<=" if advantage <= limit else ">"
    print(
        f"floored counterexample: advantage={advantage:.4f} {relation} bound {limit:.4f} "
        f"(eps={bound.eps:.4f}; the check allows 3/sqrt(trials) = {mc_sigma:.4f} above it)"
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
        except (KeyError, TypeError, ValueError, json.JSONDecodeError, LedgerOrderError) as exc:
            raise ConfigError(f"ledger file {path} is malformed: {exc}")
    if not ledgers:
        raise ConfigError("compose: need at least one ledger file")
    entries = [entry for ledger in ledgers for entry in ledger.entries]
    params = ledgers[0].params
    for ledger in ledgers:
        if ledger.params != params:
            raise ConfigError("compose: ledgers carry different privacy parameters")
    mode = CompositionMode(args.mode)
    if args.delta not in (None, params.delta):
        closed = any(entry.eps is not None and math.isfinite(entry.eps) for entry in entries)
        if mode is CompositionMode.SIMPLE and closed:
            raise ConfigError(f"--delta: closed-form rounds hold only at delta = {params.delta:g}")
        if not 0 < args.delta < 1:
            raise ConfigError(f"--delta: expected a value in (0, 1), got {args.delta:g}")
        params = dataclasses.replace(params, delta=args.delta)
    merged = RoundLedger(params, mode)
    for index, entry in enumerate(entries):
        merged.append(dataclasses.replace(entry, round_index=index))
    result = compose(merged)
    if args.out:
        atomic_write_text(
            os.path.join(args.out, "composed_ledger.json"),
            merged.to_json(total_eps=result.total_eps, extra={"alpha_star": result.alpha_star})
            + "\n",
        )
    print(
        f"composed {len(merged)} rounds ({args.mode}): total eps = {result.total_eps:.6g} "
        f"at delta = {params.delta:g}"
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
                       help=" | ".join(dict.fromkeys(route.cli for route in ROUTES.values())))
    p_acc.add_argument("--mode", default=None,
                       choices=[route.mode for route in ROUTES.values() if route.mode],
                       help="a closed form's mode (default general)")
    p_acc.add_argument("--iid", action="store_true",
                       help="read --lambda as one user's smallest eigenvalue, times --N")
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
    p_acc.add_argument("--T", type=int, default=1)

    p_spec = sub.add_parser("spectrum", parents=[shared],
                            help="dump eigenvalue/floor/delta tables")
    p_spec.add_argument("--eigvals", default=None, help="comma-separated eigenvalues")
    p_spec.add_argument("--sigma2", type=float, default=None,
                        help="floor variance sigma^2 for --eigvals (default 0)")

    p_ver = sub.add_parser("verify", parents=[shared],
                           help="run dominance suites and the counterexample demo")
    p_ver.add_argument("--trials-closed", type=int, default=1000,
                       help="closed-form dominance instances (default %(default)s)")
    p_ver.add_argument("--trials-rdp", type=int, default=500,
                       help="instances per RDP dominance suite (default %(default)s)")
    p_ver.add_argument("--ce-dim", type=int, default=8,
                       help="counterexample dimension, a positive multiple of 4 (default %(default)s)")
    p_ver.add_argument("--ce-trials", type=int, default=1000,
                       help="distinguisher trials on the unfloored counterexample (default %(default)s)")
    p_ver.add_argument("--advantage-trials", type=int, default=100_000,
                       help="distinguisher trials on the floored counterexample, "
                            "checked against the (eps, delta) advantage bound (default %(default)s)")

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
        if args.config is not None and args.command not in ("simulate", "spectrum"):
            raise ConfigError(f"--config: {args.command} reads no config; only simulate and spectrum do")
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AggNoiseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
