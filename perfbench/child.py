"""One benchmark client: a single ``aggnoise`` CLI invocation in a fresh process.

Usage: python3 perfbench/child.py REQUEST_JSON

REQUEST_JSON holds ``root`` (the checkout), ``kind`` (simulate or verify),
``argv`` (the CLI arguments), ``t0`` (the parent's monotonic clock just before
it started this process), ``trace`` (0 or 1) and ``result`` (where to write
this process's measurements as JSON).

The measured operation starts at the first call into ``run_simulation`` from
the CLI (simulate) or into the verify subcommand (verify) and ends when the
CLI's ``main`` returns, so it includes the report writes. Everything before
it is set-up.

An untraced client also runs a ``SpeedProbe`` thread from its first line to
the end of the operation. The parent pins the client to one CPU, so the probe
samples the speed of the CPU the operation runs on; run.normalized uses the
samples to take the host's slow phases out of the timings.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import resource
import sys
import threading
import time

PROBE_PERIOD_S = 0.01
PROBE_LOOP = 1000


def _cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class SpeedProbe(threading.Thread):
    """Times a fixed pure-Python loop (about 0.1 ms) every PROBE_PERIOD_S.

    Each sample is (monotonic clock, process CPU clock, this thread's CPU
    clock, the loop's CPU seconds), read right after the loop. The loop's CPU
    time grows while other tenants of the host slow this CPU down.
    """

    def __init__(self):
        super().__init__(daemon=True)
        self.samples: list[tuple[float, float, float, float]] = []
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(PROBE_PERIOD_S):
            c0 = time.thread_time()
            s = 0
            for i in range(PROBE_LOOP):
                s += i * i
            c1 = time.thread_time()
            if c1 > c0:  # the thread CPU clock rarely fails to advance; drop that sample
                self.samples.append((time.monotonic(), time.process_time(), c1, c1 - c0))

    def point(self) -> tuple[float, float, float]:
        """Monotonic clock, process CPU clock and this thread's CPU clock, read now."""
        cpu = time.clock_gettime(time.pthread_getcpuclockid(self.ident))
        return time.monotonic(), time.process_time(), cpu


def _blas_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "libscipy_openblas*"))
    if libs:
        try:
            getter = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
            getter.restype, getter.argtypes = ctypes.c_int, []
            threads = getter()
        except (OSError, AttributeError):
            threads = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(request: dict) -> int:
    probe = None
    if not request["trace"]:
        probe = SpeedProbe()
        probe.start()
    src = os.path.join(request["root"], "src")
    sys.path.insert(0, src)
    t_import = time.monotonic()
    import aggnoise.cli as cli

    import_s = time.monotonic() - t_import
    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        print(f"aggnoise imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2

    tracer = originals = None
    if request["trace"]:
        import spans

        tracer = spans.Tracer()
        originals = spans.install(tracer)

    mark: dict = {}

    def boundary(fn):
        def entered(*args, **kwargs):
            if not mark:
                mark["t"], mark["cpu"] = time.monotonic(), _cpu_seconds()
                if probe is not None:
                    mark["probe"] = probe.point()
            return fn(*args, **kwargs)
        return entered

    if request["kind"] == "simulate":
        cli.run_simulation = boundary(cli.run_simulation)
    else:
        cli._COMMANDS["verify"] = boundary(cli._COMMANDS["verify"])

    exit_code = cli.main(request["argv"])
    t_end, cpu_end = time.monotonic(), _cpu_seconds()
    if probe is not None:
        probe_end = probe.point()
        probe.done.set()
        probe.join()
    result = {
        "exit_code": exit_code,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "host": _blas_info(),
    }
    if mark:
        result.update(
            setup_s=mark["t"] - request["t0"],
            wall_s=t_end - mark["t"],
            cpu_s=cpu_end - mark["cpu"],
        )
        if probe is not None:
            result.update(probe=probe.samples, probe_mark=mark["probe"], probe_end=probe_end)
    if tracer is not None:
        result["unwrapped"] = spans.unwrapped(originals)
        result["layers"] = spans.layer_totals(
            tracer.names, tracer.name_ids, tracer.starts, tracer.ends, tracer.parents
        )
        result["counters"] = dict(tracer.counters)
        result["round_s"] = tracer.durations("simulation.run_round")
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
