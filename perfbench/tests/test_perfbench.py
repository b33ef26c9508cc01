"""Tests of the benchmark's own logic: oracles, self-time arithmetic, coverage check.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import math
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# --- oracle formulas against hand-computed values ---------------------------

def test_closed_form_hand_value():
    # sqrt(2 ln 1250) = 3.776479..., so 2 * 2 * 3.776479 / (100 * 0.5) = 0.302118
    assert oracles.closed_form_eps(0.25, clip=2.0, batch=100, delta=1e-3) == pytest.approx(
        0.3021183, rel=1e-6
    )


def test_highdim_expected_total():
    w = WORKLOADS["highdim"]
    total = w.rounds * oracles.closed_form_eps(w.ns_users * w.sigma2, 1.0, 10, w.delta)
    assert total == pytest.approx(1.5923035813614432, rel=1e-12)


def test_wfdp_a_hand_value():
    # alpha=2, C=1, B=10, D=100, N=9, sigma^2=0.05:
    # (2*2*10/100^2 + 2*2/(1*100)) / (0.45 - 2*2/100) = 0.044 / 0.41
    value = oracles.wfdp_a_rdp(2.0, clip=1.0, batch=10, local_size=100, ns_users=9, sigma2=0.05)
    assert float(value) == pytest.approx(0.044 / 0.41, rel=1e-12)


def test_rdp_composed_min_is_a_minimum():
    w = WORKLOADS["long-rdp"]
    best = oracles.long_rdp_oracle(w)
    assert best == pytest.approx(17.753556731395, rel=1e-9)
    for alpha in (1.5, 2.0, 3.0, 5.0, 10.0, 20.0):
        rdp = w.rounds * float(oracles.wfdp_a_rdp(alpha, 1.0, 10, 100, w.ns_users, w.sigma2))
        assert rdp + math.log(1 / w.delta) / (alpha - 1) >= best


def _write_reports(tmp_path, totals, ledger_total, entries):
    rows = ["round,train_loss,eval_metric,lambda_min,eps_round,eps_cumulative,noise_trace"]
    rows += [f"{i},0.1,0.1,1.0,0.5,{t!r},1.0" for i, t in enumerate(totals)]
    (tmp_path / "metrics.csv").write_text("\n".join(rows) + "\n")
    (tmp_path / "ledger.json").write_text(
        '{"entries": [%s], "total_eps": %r}' % (",".join(["{}"] * entries), ledger_total)
    )


def test_check_simulate_accepts_exact_highdim(tmp_path):
    w = WORKLOADS["highdim"]
    per_round = oracles.closed_form_eps(0.9, 1.0, 10, 1e-3)
    _write_reports(tmp_path, [per_round, 2 * per_round], 2 * per_round, 2)
    assert oracles.check_simulate(w, str(tmp_path)) == []


def test_check_simulate_flags_wrong_total_and_shape(tmp_path):
    w = WORKLOADS["highdim"]
    _write_reports(tmp_path, [0.8, 1.6], 1.6, 1)
    problems = oracles.check_simulate(w, str(tmp_path))
    assert any("entries" in p for p in problems)
    assert any("T*eps" in p for p in problems)


def test_check_simulate_wide_bound_and_monotone(tmp_path):
    w = WORKLOADS["wide"]
    limit = 3 * oracles.closed_form_eps(1.99, 1.0, 10, 1e-3)
    _write_reports(tmp_path, [0.5, 0.4, limit * 1.01], limit * 1.01, 3)
    problems = oracles.check_simulate(w, str(tmp_path))
    assert any("superadditivity" in p for p in problems)
    assert any("decreases" in p for p in problems)


def test_check_verify(tmp_path):
    good = ('{"closed_form": {"total": 1000, "failures": 0}, "rdp": {'
            '"theorem1_rdp": {"sound": true, "total": 5}, "wfdp_a": {"sound": true, "total": 5},'
            ' "wfdp_b": {"sound": true, "total": 5}}}')
    (tmp_path / "verify_report.json").write_text(good)
    assert oracles.check_verify(str(tmp_path)) == []
    (tmp_path / "verify_report.json").write_text(good.replace('"failures": 0', '"failures": 2'))
    assert len(oracles.check_verify(str(tmp_path))) == 1


# --- self-time arithmetic on synthetic nested spans -------------------------

def test_layer_totals_nested():
    # a [0, 10] holds b [1, 4] and c [5, 9]; b holds d [2, 3]
    names = ["a", "b", "c", "d"]
    name_ids = [0, 1, 2, 3]
    starts = [0.0, 1.0, 5.0, 2.0]
    ends = [10.0, 4.0, 9.0, 3.0]
    parents = [-1, 0, 0, 1]
    totals = spans.layer_totals(names, name_ids, starts, ends, parents)
    assert totals == {"a": (1, 3.0), "b": (1, 2.0), "c": (1, 4.0), "d": (1, 1.0)}


def test_layer_totals_repeated_names_and_overlap():
    # x [0, 10] has overlapping children y [1, 5], y [3, 7] and one overrunning it, y [9, 12]
    names = ["x", "y"]
    name_ids = [0, 1, 1, 1]
    starts = [0.0, 1.0, 3.0, 9.0]
    ends = [10.0, 5.0, 7.0, 12.0]
    parents = [-1, 0, 0, 0]
    totals = spans.layer_totals(names, name_ids, starts, ends, parents)
    assert totals["x"] == (1, pytest.approx(10.0 - 6.0 - 1.0))
    assert totals["y"] == (3, pytest.approx(4.0 + 4.0 + 3.0))


def test_tracer_records_nesting():
    tracer = spans.Tracer()
    inner = tracer.wrap("inner", lambda: None)
    outer = tracer.wrap("outer", lambda: inner() or inner())
    outer()
    assert list(tracer.parents) == [-1, 0, 0]
    totals = spans.layer_totals(tracer.names, tracer.name_ids, tracer.starts,
                                tracer.ends, tracer.parents)
    assert totals["inner"][0] == 2 and totals["outer"][0] == 1
    assert all(self_s >= 0 for _, self_s in totals.values())


def test_normalized_scales_pieces_and_drops_probe_time():
    # samples: (wall, process CPU, probe CPU, probe loop seconds)
    client = {"probe": [(1.0, 0.9, 0.01, 0.2), (2.0, 1.8, 0.02, 0.1), (9.0, 8.0, 0.5, 0.1)]}
    start, end = (0.0, 0.0, 0.0), (3.0, 2.7, 0.03)
    # pieces 0-1 s at half speed, 1-2 s and 2-3 s at full speed, less 0.01 s probe each
    assert run.normalized(client, start, end, 0, 0.1) == pytest.approx(0.99 / 2 + 0.99 * 2)
    assert run.normalized(client, start, end, 1, 0.1) == pytest.approx(0.89 / 2 + 0.89 + 0.89)


def test_end_to_end_medians_use_the_runs_fastest_loops():
    def client(loop, setup):
        return {"probe": [(10.0, 1.0, 0.0, loop), (11.0, 2.0, 0.0, loop), (12.0, 3.0, 0.0, loop)],
                "probe_mark": (10.5, 1.5, 0.0), "probe_end": (11.5, 2.5, 0.0),
                "setup_s": setup, "peak_rss_mb": 100.0}
    values = run.end_to_end([client(0.1, 0.5), client(0.2, 0.5), client(0.1, 0.7)])
    assert values["wall_s"] == pytest.approx(1.0)  # median of 1, 0.5, 1
    assert values["cpu_s"] == pytest.approx(1.0)
    assert values["setup_s"] == pytest.approx(0.5)  # median of 0.5, 0.25, 0.7
    assert values["peak_rss_mb"] == 100.0


def test_stop_kills_and_reaps_running_clients():
    proc = run.subprocess.Popen([sys.executable, "-c", "import time; time.sleep(60)"])
    run.stop([{"proc": proc}])
    assert proc.returncode is not None


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile_with_tail([], 0.9) == 0.0
    assert run.percentile_with_tail(range(99), 0.9) == 0.0
    # nearest rank: the 90th of 100 samples, with 90..99 beyond it
    assert run.percentile_with_tail(range(100), 0.9) == 89


# --- coverage check -----------------------------------------------------------

@pytest.fixture
def installed():
    import aggnoise.cli  # noqa: F401  (imports every layer)

    tracer = spans.Tracer()
    originals = spans.install(tracer)
    yield tracer, originals
    spans.uninstall(tracer)


def test_every_binding_wrapped(installed):
    import aggnoise.mechanisms
    import aggnoise.spectra
    from aggnoise.fedsim import simulation

    tracer, originals = installed
    assert spans.unwrapped(originals) == []
    # estimate_mean_cov is bound in three modules; all three must be the wrapper
    wrapped = aggnoise.spectra.estimate_mean_cov
    assert aggnoise.mechanisms.estimate_mean_cov is wrapped
    assert simulation.estimate_mean_cov is wrapped


def test_coverage_check_fails_when_a_wrapper_is_missing(installed):
    import aggnoise.mechanisms

    tracer, originals = installed
    original = aggnoise.mechanisms.estimate_mean_cov.__wrapped__
    aggnoise.mechanisms.estimate_mean_cov = original
    missing = spans.unwrapped(originals)
    assert missing == ["aggnoise.mechanisms.estimate_mean_cov -> aggnoise.spectra.estimate_mean_cov"]


def test_coverage_check_sees_an_unwrapped_method(installed):
    from aggnoise.fedsim.secagg import SAChannel

    tracer, originals = installed
    SAChannel.submit = SAChannel.submit.__wrapped__
    assert spans.unwrapped(originals) == [
        "aggnoise.fedsim.secagg.SAChannel.submit -> aggnoise.fedsim.secagg.SAChannel.submit"
    ]


def test_invariants_flag_missing_calls():
    w = WORKLOADS["wide"]
    good = {"secagg.submit": (600, 1.0), "simulation.run_round": (3, 1.0),
            "accountant.compose": (3, 0.1)}
    assert run.invariants(w, good) == []
    assert run.invariants(w, {**good, "secagg.submit": (0, 0.0)}) == [
        "secagg.submit.calls = 0, expected 600"
    ]


def test_traced_secure_aggregation_counts_and_matches_untraced(installed):
    import numpy as np
    from aggnoise.fedsim import secure_aggregate

    tracer, _ = installed
    updates = [np.arange(4.0) + i for i in range(5)]
    traced = secure_aggregate(updates, seed=3)
    totals = spans.layer_totals(tracer.names, tracer.name_ids, tracer.starts,
                                tracer.ends, tracer.parents)
    assert totals["secagg.submit"][0] == 5
    assert totals["secagg.aggregate"][0] == 1
    spans.uninstall(tracer)
    assert np.array_equal(traced, secure_aggregate(updates, seed=3))


# --- BENCHMARK.json names what the runner prints ------------------------------

def test_benchmark_json_matches_emitted_metrics():
    import json

    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    client = {"layers": {}, "counters": {}, "round_s": [], "import_s": 1.0, "wall_s": 2.0}
    emitted = run.layer_metrics([client], [client])
    assert sorted(emitted) == sorted(m["name"] for m in spec["per_layer"])
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(emitted[name]["unit"] == units[name] for name in emitted)
