"""aggnoise benchmark: run one workload as a closed loop of CLI processes and report.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload wide --seed 1 --seconds 15 --trace 0

Each client is one ``aggnoise`` CLI process (perfbench/child.py). With
``--trace 0`` clients run in batches of one client per CPU (at most PARALLEL),
each pinned to its CPU; a batch starts only after the previous one ended. The
loop starts batches while one more of the average length still ends within
``--seconds``, and runs at least MIN_CLIENTS clients.
Every client's reports are checked by an oracle (oracles.py) and must be
byte-identical to the first client's.

``--trace 0`` reports the end-to-end metrics: medians over clients of set-up
time, wall and CPU time of the measured operation, each normalized to full CPU
speed with the client's speed probe (``normalized``), and of peak RSS.
``--trace 1`` alternates single untraced and traced clients and reports
per-layer metrics from the traced ones, plus the tracing overhead. The last line of standard output is
one JSON object; the line before it holds per-client samples and provenance.
Exit code 0 means every client passed its checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import oracles
from workloads import WORKLOADS, Workload

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_CLIENTS = 3
# Untraced clients that run at once, each on its own CPU.
PARALLEL = 2
# No client starts after START_DEADLINE_S and none outlives HARD_LIMIT_S, so a
# run ends within 180 s.
START_DEADLINE_S = 100.0
HARD_LIMIT_S = 170.0
# Both sides of a comparison run with the same BLAS thread count.
BLAS_THREADS = "1"

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
LAYER_SPANS = (
    ("secagg.submit", ("calls", "self_s")),
    ("secagg.aggregate", ("self_s",)),
    ("spectra.estimate_mean_cov", ("calls", "self_s")),
    ("spectra.eig_decompose", ("calls", "self_s")),
    ("spectra.floor_eigenvalues", ("self_s",)),
    ("spectra.sample_gaussian", ("self_s",)),
    ("spectra.sum_covariances", ("self_s",)),
    ("spectra.renyi_gaussian", ("calls", "self_s")),
    ("mechanisms.compute_update", ("calls", "self_s")),
    ("mechanisms.wfdp_update", ("self_s",)),
    ("accountant.compose", ("calls", "self_s")),
    ("accountant.optimize_alpha", ("calls", "self_s")),
    ("accountant.rdp_bound", ("calls", "self_s")),
    ("accountant.account_round", ("self_s",)),
    ("simulation.run_round", ("calls", "self_s")),
    ("simulation.run_simulation", ("self_s",)),
    ("models.per_example_gradients", ("self_s",)),
    ("models.loss", ("self_s",)),
    ("verify.certify_closed_form", ("self_s",)),
    ("verify.certify_rdp", ("self_s",)),
    ("verify.run_distinguisher", ("self_s",)),
    ("cli.build_run", ("self_s",)),
    ("cli.atomic_write_text", ("self_s",)),
)
LAYER_COUNTERS = (
    ("spectra.covariance_models", "count"),
    ("spectra.eigh_d3_computed", "d3"),
    ("spectra.dense_bytes_computed", "B"),
)


def _median(values):
    return statistics.median(values) if values else 0.0


def percentile_with_tail(samples, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank q-quantile of ``samples`` if ``min_beyond`` samples lie above it, else 0.

    0 marks a percentile the run has too few samples to report.
    """
    ordered = sorted(samples)
    index = math.ceil(q * len(ordered)) - 1
    if len(ordered) - index - 1 < min_beyond:
        return 0.0
    return ordered[index]


def normalized(client: dict, start: tuple, end: tuple, field: int, ref: float) -> float:
    """A client's time from ``start`` to ``end`` as if its CPU had run at full speed.

    ``start``, ``end`` and the probe samples between them cut the interval into
    pieces of about PROBE_PERIOD_S (child.py). Each piece's wall (``field`` 0)
    or process CPU (``field`` 1) seconds, less the probe's own CPU seconds, is
    scaled by ``ref`` / the probe loop's CPU seconds at the end of the piece;
    ``ref`` is the run's 1st-percentile probe loop. Pieces after the last sample
    take the last sample's loop time.
    """
    inside = [p for p in client["probe"] if start[0] < p[0] < end[0]]
    later = [p for p in client["probe"] if p[0] >= end[0]]
    last = later[0][3] if later else (inside[-1][3] if inside else ref)
    points = [(*start, None)] + inside + [(*end, last)]
    return math.fsum(((b[field] - a[field]) - (b[2] - a[2])) * ref / b[3]
                     for a, b in zip(points, points[1:]))


def client_timings(client: dict, ref: float) -> dict[str, float]:
    """One client's probe-normalized set-up, wall and CPU seconds."""
    mark, end = client["probe_mark"], client["probe_end"]
    launch = (mark[0] - client["setup_s"], 0.0, 0.0)
    return {"setup_s": normalized(client, launch, mark, 0, ref),
            "wall_s": normalized(client, mark, end, 0, ref),
            "cpu_s": normalized(client, mark, end, 1, ref)}


def end_to_end(clients: list[dict]) -> dict[str, float]:
    """Medians over clients of the probe-normalized timings, and of peak RSS."""
    # the 1st percentile rather than the minimum, so that one misread loop
    # cannot rescale the run
    loops = sorted(p[3] for c in clients for p in c["probe"])
    ref = loops[len(loops) // 100]
    for c in clients:
        c["normalized"] = client_timings(c, ref)
    values = {name: _median([c["normalized"][name] for c in clients])
              for name in ("setup_s", "wall_s", "cpu_s")}
    values["peak_rss_mb"] = _median([c["peak_rss_mb"] for c in clients])
    return values


def invariants(workload: Workload, layers: dict) -> list[str]:
    """Call counts fixed by the workload's shape; a missed wrapper breaks one of them."""
    calls = {name: entry[0] for name, entry in layers.items()}
    if workload.kind == "verify":
        expected = {"verify.certify_closed_form": 1, "verify.certify_rdp": 3,
                    "verify.run_distinguisher": 2}
    else:
        expected = {
            "secagg.submit": workload.users * workload.rounds,
            "simulation.run_round": workload.rounds,
            "accountant.compose": workload.rounds,
        }
    return [f"{name}.calls = {calls.get(name, 0)}, expected {want}"
            for name, want in expected.items() if calls.get(name, 0) != want]


def digest(out_dir: str, files) -> str:
    h = hashlib.sha256()
    for name in files:
        with open(os.path.join(out_dir, name), "rb") as fh:
            h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def start_client(root: str, workload: Workload, seed: int, out_dir: str, traced: bool,
                 cpu) -> dict:
    """Start one client; ``cpu`` pins it to that CPU, None leaves it unpinned."""
    os.makedirs(out_dir)
    config = workload.config(seed)
    if config is not None:
        with open(os.path.join(out_dir, "config.json"), "w") as fh:
            json.dump(config, fh)
    env = {k: v for k, v in os.environ.items() if not k.startswith("AGGNOISE_")}
    env.update(OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS, PYTHONHASHSEED="0")
    result_path = os.path.join(out_dir, "perfbench-result.json")
    with open(os.path.join(out_dir, "perfbench-client.log"), "w") as log:
        t0 = time.monotonic()
        request = {"root": root, "kind": workload.kind, "argv": workload.cli_args(seed, out_dir),
                   "t0": t0, "trace": int(traced), "result": result_path}
        pin = None if cpu is None else (lambda: os.sched_setaffinity(0, {cpu}))
        proc = subprocess.Popen([sys.executable, os.path.join(HERE, "child.py"),
                                 json.dumps(request)],
                                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT,
                                env=env, cwd=root, preexec_fn=pin)
    return {"proc": proc, "out_dir": out_dir, "result_path": result_path, "cpu": cpu}


def finish_client(workload: Workload, started: dict, deadline: float) -> dict:
    """Wait for a started client until the monotonic ``deadline`` and read its result."""
    proc = started["proc"]
    try:
        code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return {"problems": ["client timed out"]}
    finally:
        stop([started])
    result_path = started["result_path"]
    if code != 0 or not os.path.exists(result_path):
        return {"problems": [f"client exited with code {code}"]}
    with open(result_path) as fh:
        result = json.load(fh)
    if result["exit_code"] != 0 or "wall_s" not in result:
        result["problems"] = [f"aggnoise CLI exited with code {result['exit_code']}"]
        return result
    result["problems"] = []
    result["digest"] = digest(started["out_dir"], workload.output_files())
    return result


def stop(started: list[dict]) -> None:
    """Kill every client that is still running and wait until each has ended."""
    for s in started:
        if s["proc"].poll() is None:
            s["proc"].kill()
        s["proc"].wait()


def check_client(workload: Workload, out_dir: str, result: dict, rdp_oracle) -> list[str]:
    problems = list(result.get("problems", ()))
    if problems:
        return problems
    if workload.kind == "verify":
        problems += oracles.check_verify(out_dir)
    else:
        problems += oracles.check_simulate(workload, out_dir, rdp_oracle)
    if "layers" in result:
        problems += [f"unwrapped binding {b}" for b in result["unwrapped"]]
        problems += invariants(workload, result["layers"])
    return problems


def source_provenance(root: str) -> dict:
    """Git commit when the checkout is a repository, and a digest of ``src/`` always."""
    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, check=False)
        sha = proc.stdout.strip() or None
    h = hashlib.sha256()
    src = os.path.join(root, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return {"git_sha": sha, "src_sha256": h.hexdigest()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    metrics = {}
    for name, fields in LAYER_SPANS:
        for field in fields:
            index = 0 if field == "calls" else 1
            values = [r["layers"].get(name, (0, 0.0))[index] for r in traced]
            metrics[f"{name}.{field}"] = {"value": _median(values),
                                          "unit": "count" if field == "calls" else "s"}
    for name, unit in LAYER_COUNTERS:
        metrics[name] = {"value": _median([r["counters"].get(name, 0) for r in traced]),
                         "unit": unit}
    rounds = [d for r in traced for d in r["round_s"]]
    metrics["simulation.round_p50_s"] = {"value": _median(rounds), "unit": "s"}
    metrics["simulation.round_p90_s"] = {"value": percentile_with_tail(rounds, 0.9), "unit": "s"}
    metrics["cli.import_s"] = {"value": _median([r["import_s"] for r in traced]), "unit": "s"}
    overhead = _median([r["wall_s"] for r in traced]) - _median([r["wall_s"] for r in untraced])
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    # turn SIGTERM into SystemExit so the running client is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "aggnoise", "cli.py")):
        print(f"no aggnoise source tree at {root}/src; run from a checkout's root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    rdp_oracle = oracles.long_rdp_oracle(workload) if workload.name == "long-rdp" else None
    run_dir = os.path.join(HERE, "_runs", f"{workload.name}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)

    # Untraced clients run in batches, one client pinned to each of up to
    # PARALLEL CPUs, so that each client's speed probe samples the CPU its
    # operation runs on. Traced clients alternate with untraced ones, one at a
    # time and unpinned.
    cpus = [None] if args.trace else sorted(os.sched_getaffinity(0))[:PARALLEL]
    clients: list[dict] = []
    running: list[dict] = []
    batches = 0
    start = time.monotonic()
    try:
        while True:
            elapsed = time.monotonic() - start
            traced = bool(args.trace) and batches % 2 == 1
            # stop when one more batch of the average length would overrun --seconds
            projected = elapsed + (elapsed / batches if batches else 0.0)
            enough = projected > args.seconds and len(clients) >= MIN_CLIENTS
            if args.trace:
                enough = projected > args.seconds and batches >= 2 and not traced
            if enough or (clients and elapsed > START_DEADLINE_S):
                break
            running = [start_client(root, workload, args.seed,
                                    os.path.join(run_dir, f"client-{len(clients) + i}"),
                                    traced, cpu)
                       for i, cpu in enumerate(cpus)]
            for started in running:
                result = finish_client(workload, started, start + HARD_LIMIT_S)
                result.update(traced=traced, cpu=started["cpu"])
                result["problems"] = check_client(workload, started["out_dir"], result,
                                                  rdp_oracle)
                clients.append(result)
            running = []
            batches += 1
    finally:
        stop(running)
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))
        except OSError:
            pass  # another run still uses it

    reference = next((c["digest"] for c in clients if "digest" in c), None)
    for c in clients:
        if "digest" in c and c["digest"] != reference:
            c["problems"].append("reports differ from the first client's (same seed)")
    failed = sum(1 for c in clients if c["problems"])
    good = [c for c in clients if not c["problems"]]
    untraced = [c for c in good if not c["traced"]]
    traced = [c for c in good if c["traced"]]

    if args.trace:
        metrics = layer_metrics(traced, untraced) if traced and untraced else {}
    else:
        values = end_to_end(untraced) if untraced else {}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END if name in values}
    host = good[0]["host"] if good else {}
    detail = {
        "workload": workload.name,
        "seed": args.seed,
        "clients": len(clients),
        "cpus": [c.get("cpu") for c in clients],
        "raw_samples": {name: [round(c[name], 6) for c in untraced] for name, _ in END_TO_END},
        "normalized_samples": {name: [round(c["normalized"][name], 6) for c in untraced]
                               for name in ("setup_s", "wall_s", "cpu_s")
                               if all("normalized" in c for c in untraced)},
        "problems": [p for c in clients for p in c["problems"]],
        "provenance": {
            "nproc": os.cpu_count(),
            "cpu_model": cpu_model(),
            **host,
            "blas_threads_requested": int(BLAS_THREADS),
            **source_provenance(root),
        },
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": len(clients), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
