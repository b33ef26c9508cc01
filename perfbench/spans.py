"""Spans around the public functions of each ``aggnoise`` layer, from outside ``src/``.

``install`` replaces every binding of a wrapped function, in every
``aggnoise`` module that imported it, by a wrapper that records a span (name,
start, end, parent span) in memory. ``unwrapped`` lists bindings that still
point at an original, which is how a missed import shows. ``layer_totals``
turns the spans into calls and self time per name; self time is a span's
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import defaultdict

# (span name, module, attribute path); a dotted path wraps a method on its class.
TARGETS = (
    ("secagg.submit", "aggnoise.fedsim.secagg", "SAChannel.submit"),
    ("secagg.aggregate", "aggnoise.fedsim.secagg", "SAChannel.aggregate"),
    ("spectra.estimate_mean_cov", "aggnoise.spectra", "estimate_mean_cov"),
    ("spectra.eig_decompose", "aggnoise.spectra", "eig_decompose"),
    ("spectra.floor_eigenvalues", "aggnoise.spectra", "floor_eigenvalues"),
    ("spectra.sample_gaussian", "aggnoise.spectra", "sample_gaussian"),
    ("spectra.sum_covariances", "aggnoise.spectra", "sum_covariances"),
    ("spectra.renyi_gaussian", "aggnoise.spectra", "renyi_gaussian"),
    ("mechanisms.compute_update", "aggnoise.mechanisms", "compute_update"),
    ("mechanisms.wfdp_update", "aggnoise.mechanisms", "wfdp_update"),
    ("accountant.compose", "aggnoise.accountant", "compose"),
    ("accountant.optimize_alpha", "aggnoise.accountant", "optimize_alpha"),
    ("accountant.rdp_bound", "aggnoise.accountant", "rdp_bound"),
    ("accountant.account_round", "aggnoise.accountant", "account_round"),
    ("simulation.run_round", "aggnoise.fedsim.simulation", "run_round"),
    ("simulation.run_simulation", "aggnoise.fedsim.simulation", "run_simulation"),
    ("models.per_example_gradients", "aggnoise.fedsim.models", "ModelOps.per_example_gradients"),
    ("models.loss", "aggnoise.fedsim.models", "ModelOps.loss"),
    ("verify.certify_closed_form", "aggnoise.verify", "certify_closed_form"),
    ("verify.certify_rdp", "aggnoise.verify", "certify_rdp"),
    ("verify.run_distinguisher", "aggnoise.verify", "run_distinguisher"),
    ("cli.build_run", "aggnoise.cli", "_build_run"),
    ("cli.atomic_write_text", "aggnoise.cli", "atomic_write_text"),
)
# Counted, not spanned: tens of thousands of tiny calls in ``verify``.
MODEL_COUNTER = ("spectra.covariance_models", "aggnoise.spectra", "CovarianceModel.__post_init__")


class Tracer:
    """Spans of one process, kept in flat arrays until the process reports."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self._stack: list[int] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, on_call=None):
        """Return ``fn`` wrapped in a span called ``name``; ``on_call(args, kwargs)`` runs first."""
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        name_ids, starts, ends, parents, stack = (
            self.name_ids, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            index = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return spanned

    def count(self, name: str, fn):
        counters = self.counters

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counters[name] += 1
            return fn(*args, **kwargs)

        return counted

    def durations(self, name: str) -> list[float]:
        nid = self._ids.get(name)
        return [e - s for i, s, e in zip(self.name_ids, self.starts, self.ends) if i == nid]


def layer_totals(names, name_ids, starts, ends, parents) -> dict[str, tuple[int, float]]:
    """Calls and self seconds per span name.

    A span's self time is its duration minus the union of its children's
    intervals clipped to it, so overlapping or overrunning children are not
    subtracted twice.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    totals: dict[str, list] = {}
    for i, nid in enumerate(name_ids):
        start, end = starts[i], ends[i]
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        entry = totals.setdefault(names[nid], [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered
    return {name: (calls, self_s) for name, (calls, self_s) in totals.items()}


def _aggnoise_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "aggnoise" or name.startswith("aggnoise."))]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(tracer: Tracer) -> dict[int, str]:
    """Wrap every target at every binding; return the originals by id, for ``unwrapped``.

    ``aggnoise`` and its submodules must already be imported. Methods are
    replaced on their class; functions are replaced in every ``aggnoise``
    module whose namespace holds them (``from .spectra import ...`` copies a
    binding into the importing module).
    """
    originals: dict[int, str] = {}
    modules = _aggnoise_modules()
    for name, module, path in TARGETS:
        owner, attr = _resolve(module, path)
        original = getattr(owner, attr)
        originals[id(original)] = f"{module}.{path}"
        on_call = _count_eig_work(tracer) if name == "spectra.eig_decompose" else None
        wrapper = tracer.wrap(name, original, on_call)
        if isinstance(owner, type):
            _patch(tracer, owner, attr, wrapper)
            continue
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    _patch(tracer, mod, key, wrapper)
    name, module, path = MODEL_COUNTER
    owner, attr = _resolve(module, path)
    original = getattr(owner, attr)
    originals[id(original)] = f"{module}.{path}"
    _patch(tracer, owner, attr, tracer.count(name, original))
    return originals


def _patch(tracer: Tracer, owner, key: str, replacement) -> None:
    tracer.patches.append((owner, key, getattr(owner, key)))
    setattr(owner, key, replacement)


def uninstall(tracer: Tracer) -> None:
    """Put back every binding ``install`` replaced."""
    while tracer.patches:
        owner, key, original = tracer.patches.pop()
        setattr(owner, key, original)


def _count_eig_work(tracer: Tracer):
    counters = tracer.counters

    def on_call(args, kwargs):
        d = len(args[0] if args else kwargs["sym_matrix"])
        counters["spectra.eigh_d3_computed"] += d**3
        counters["spectra.dense_bytes_computed"] += 8 * d * d

    return on_call


def unwrapped(originals: dict[int, str]) -> list[str]:
    """Bindings in ``aggnoise`` modules and classes that still point at an original."""
    missing = []
    for mod in _aggnoise_modules():
        for key, value in list(vars(mod).items()):
            if id(value) in originals:
                missing.append(f"{mod.__name__}.{key} -> {originals[id(value)]}")
            if isinstance(value, type) and value.__module__ == mod.__name__:
                for attr, member in list(vars(value).items()):
                    if id(member) in originals:
                        missing.append(f"{mod.__name__}.{key}.{attr} -> {originals[id(member)]}")
    return sorted(set(missing))
