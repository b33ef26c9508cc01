"""The benchmark's workloads: CLI arguments and config documents made from a seed.

Each workload is one ``aggnoise`` CLI invocation, run as a closed loop of one
client: the next invocation starts only after the previous one has exited.
The seed is the only input that changes between runs; it becomes the config's
``seed`` and the CLI's ``--seed``. See README.md for why each size was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

CLIP = 1.0
BATCH = 10
PER_USER = 100


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "simulate" or "verify"
    users: int = 0
    features: int = 0
    rounds: int = 0
    sigma2: float = 0.0
    delta: float = 0.0
    route: str = ""
    composition: str = ""

    @property
    def ns_users(self) -> int:
        """Non-sensitive users; every simulate workload has one sensitive user."""
        return self.users - 1

    def config(self, seed: int) -> Optional[dict]:
        if self.kind != "simulate":
            return None
        accountant = {"route": self.route, "delta": self.delta, "clip": CLIP,
                      "composition": self.composition}
        if self.route == "closed_form":
            accountant["mode"] = "general"
        return {
            "seed": seed,
            "rounds": self.rounds,
            "dataset": {"kind": "synthetic", "task": "regression",
                        "features": self.features, "per_user": PER_USER},
            "users": {"total": self.users, "sensitive": 1},
            "scheme": {"kind": "gaussian_sampled", "batch": BATCH},
            "mechanism": {"kind": "wfdp", "sigma2": self.sigma2},
            "accountant": accountant,
        }

    def cli_args(self, seed: int, out_dir: str) -> list[str]:
        head = ["--seed", str(seed), "--out", out_dir]
        if self.kind == "verify":
            return head + ["verify"]
        return head + ["simulate", "--config", os.path.join(out_dir, "config.json")]

    def output_files(self) -> tuple[str, ...]:
        """Report files whose bytes must not depend on the run or on tracing."""
        if self.kind == "verify":
            return ("verify_report.json",)
        return ("metrics.csv", "ledger.json", "manifest.json")


WORKLOADS = {
    w.name: w
    for w in (
        Workload("wide", "simulate", users=200, features=100, rounds=3, sigma2=0.01,
                 delta=1e-3, route="closed_form", composition="simple"),
        Workload("highdim", "simulate", users=10, features=1000, rounds=2, sigma2=0.1,
                 delta=1e-3, route="closed_form", composition="simple"),
        Workload("long-rdp", "simulate", users=10, features=10, rounds=150, sigma2=0.05,
                 delta=1e-5, route="wfdp_a", composition="rdp"),
        Workload("verify", "verify"),
    )
}
