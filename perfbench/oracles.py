"""Output oracles for the benchmark's workloads.

Every check here is written from the paper's formulas and shares no code with
``aggnoise``: this module never imports it. None of the checks depend on the
random draws, so a change that alters an RNG stream still passes them.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

from workloads import BATCH, CLIP, PER_USER, Workload

# Relative slack for values the program computes in floating point from the
# same closed form (a different summation order moves the last digits).
FLOAT_REL_TOL = 1e-9
# The program minimises over the RDP order by golden section to this relative
# width; the oracle accepts any total that close to the true minimum.
GOLDEN_REL_TOL = 1e-6
VERIFY_CLOSED_FORM_TRIALS = 1000
VERIFY_RDP_SUITES = ("theorem1_rdp", "wfdp_a", "wfdp_b")


def closed_form_eps(lam: float, clip: float, batch: int, delta: float) -> float:
    """High-privacy-region per-round epsilon: 2C sqrt(2 ln(1.25/delta)) / (B sqrt(lam))."""
    return 2.0 * clip * math.sqrt(2.0 * math.log(1.25 / delta)) / (batch * math.sqrt(lam))


def wfdp_a_rdp(alpha, clip: float, batch: int, local_size: int, ns_users: int, sigma2: float):
    """Floored-mechanism RDP bound (variant A) at order(s) alpha inside its validity range.

    (2 a B C^2 / D^2 + 2 a C^2 / ((a - 1) D)) / (N sigma^2 - 2 a C^2 / D)
    """
    a = np.asarray(alpha, dtype=float)
    c2 = clip * clip
    num = 2.0 * a * batch * c2 / local_size**2 + 2.0 * a * c2 / ((a - 1.0) * local_size)
    return num / (ns_users * sigma2 - 2.0 * a * c2 / local_size)


def rdp_composed_min(rounds: int, clip: float, batch: int, local_size: int,
                     ns_users: int, sigma2: float, delta: float) -> float:
    """min over alpha of T * eps_A(alpha) + ln(1/delta) / (alpha - 1), by dense grids.

    A 10^5-point log grid over the whole validity range (1, N sigma^2 D / (2 C^2)),
    then repeated 2001-point grids around the best point until the step is
    below 1e-14 relative.
    """
    hi = ns_users * sigma2 * local_size / (2.0 * clip * clip)
    if not hi > 1.0:
        raise ValueError("empty RDP validity range")

    def objective(alpha):
        rdp = rounds * wfdp_a_rdp(alpha, clip, batch, local_size, ns_users, sigma2)
        return rdp + math.log(1.0 / delta) / (alpha - 1.0)

    span = hi - 1.0
    grid = 1.0 + np.geomspace(1e-9 * span, (1.0 - 1e-12) * span, 100_000)
    values = objective(grid)
    while True:
        i = int(np.argmin(values))
        left, right = grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)]
        if right - left < 1e-14 * right:
            return float(values[i])
        grid = np.linspace(left, right, 2001)
        values = objective(grid)


def _close(actual: float, expected: float, rel: float) -> bool:
    return abs(actual - expected) <= rel * abs(expected)


def check_simulate(workload: Workload, out_dir: str, rdp_oracle: float | None = None) -> list[str]:
    """Problems found in one simulate run's reports; an empty list means correct."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "metrics.csv"), newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(os.path.join(out_dir, "ledger.json")) as fh:
        ledger = json.load(fh)
    t = workload.rounds
    if len(rows) != t:
        problems.append(f"metrics.csv has {len(rows)} rows, expected {t}")
    if len(ledger.get("entries", ())) != t:
        problems.append(f"ledger has {len(ledger.get('entries', ()))} entries, expected {t}")
    total = ledger.get("total_eps")
    if not isinstance(total, float) or not math.isfinite(total) or total <= 0:
        return problems + [f"ledger total_eps is {total!r}, expected a positive finite number"]
    cumulative = [float(r["eps_cumulative"]) for r in rows]
    if any(b < a for a, b in zip(cumulative, cumulative[1:])):
        problems.append("eps_cumulative decreases")
    if cumulative and cumulative[-1] != total:
        problems.append(f"last eps_cumulative {cumulative[-1]!r} != ledger total {total!r}")

    if workload.name == "highdim":
        # users of rank <= D = 100 cannot span d = features + 1, so the summed
        # floored covariance has lambda_min exactly N * sigma^2
        expected = t * closed_form_eps(workload.ns_users * workload.sigma2, CLIP, BATCH, workload.delta)
        if not _close(total, expected, FLOAT_REL_TOL):
            problems.append(f"total eps {total!r} != T*eps(N sigma^2) = {expected!r}")
    elif workload.name == "wide":
        # lambda_min of a sum is at least the sum of the floors, and the
        # high-region epsilon decreases in lambda
        limit = t * closed_form_eps(workload.ns_users * workload.sigma2, CLIP, BATCH, workload.delta)
        if total > limit * (1.0 + FLOAT_REL_TOL):
            problems.append(f"total eps {total!r} exceeds the superadditivity bound {limit!r}")
    elif workload.name == "long-rdp":
        expected = rdp_oracle if rdp_oracle is not None else long_rdp_oracle(workload)
        if not _close(total, expected, GOLDEN_REL_TOL):
            problems.append(f"total eps {total!r} != dense-grid minimum {expected!r}")
    return problems


def long_rdp_oracle(workload: Workload) -> float:
    return rdp_composed_min(workload.rounds, CLIP, BATCH, PER_USER, workload.ns_users,
                            workload.sigma2, workload.delta)


def check_verify(out_dir: str) -> list[str]:
    """Problems found in one verify run's report; an empty list means correct."""
    with open(os.path.join(out_dir, "verify_report.json")) as fh:
        report = json.load(fh)
    problems = []
    closed = report.get("closed_form", {})
    if closed.get("total") != VERIFY_CLOSED_FORM_TRIALS or closed.get("failures") != 0:
        problems.append(
            f"closed form: {closed.get('failures')} violations in {closed.get('total')} "
            f"instances, expected 0 in {VERIFY_CLOSED_FORM_TRIALS}"
        )
    for suite in VERIFY_RDP_SUITES:
        summary = report.get("rdp", {}).get(suite, {})
        if summary.get("sound") is not True or not summary.get("total"):
            problems.append(f"rdp suite {suite} is not sound: {summary}")
    return problems
