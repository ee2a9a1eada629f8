"""Per-layer self-time from timing shims around public entry points.

A traced benchmark unit runs with every entry point of :data:`ENTRY_POINTS`
replaced, wherever the ``repro`` package binds it (module attributes,
class attributes and module-level dicts such as ``ANALYTIC_PROFILES``), by
a shim that times the call.  Shims nest through one stack: a layer's self
time is its inclusive time minus the inclusive time of the shims called
inside it, so the self times of one unit add up to the time spent inside
the layers and ``wall - sum(self)`` is the benchmark's own (unattributed)
time.  Nothing under ``src/`` is edited; uninstalling restores every
binding, so traced and untraced units run identical code.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import numpy as np

from repro.analysis import sweep, verifygrid
from repro.collectives import registry, verify
from repro.des import engine
from repro.model import analytic, compiled
from repro.runtime import compiled as runtime_compiled
from repro.tune import serve, tables


def _transfers(layer, args, kwargs, out):
    spec, p = args[0], args[1]
    layer.counts["transfers"] += sum(len(step.transfers) for step in out.steps)
    layer.by_key[(spec.collective, spec.name, p)] += layer.last_self_s


def _cells(layer, args, kwargs, out):
    n_elems = args[2] if len(args) > 2 else kwargs["n_elems"]
    layer.counts["cells"] += np.size(n_elems)


def _records(layer, args, kwargs, out):
    layer.counts["records"] += len(out)


def _statuses(layer, args, kwargs, out):
    for rec in out:
        layer.counts[f"cells_{rec.status}"] += 1


def _stalled(layer, args, kwargs, out):
    layer.counts["stalled"] += int(out.stalled)


def _queries(layer, args, kwargs, out):
    layer.counts["queries"] += len(out)


def _latency(layer, args, kwargs, out):
    layer.samples.append(layer.last_self_s)


#: (layer, entry point, hook run after each call) — the layers of the
#: build -> lower -> profile -> evaluate -> records -> tune chain and of
#: the build -> compile -> execute -> check verification chain
ENTRY_POINTS = (
    ("collectives.build", registry.AlgorithmSpec.build, _transfers),
    ("model.lower", compiled.lower_schedule, None),
    ("model.profile", compiled.profile_table, None),
    *(
        ("model.profile", fn, None)
        for fn in dict.fromkeys(analytic.ANALYTIC_PROFILES.values())
    ),
    ("model.evaluate", compiled.evaluate_grid, _cells),
    ("analysis.sweep", sweep.sweep_system, _records),
    ("analysis.cache", sweep.ProfileCache.__init__, None),
    ("analysis.cache", sweep.ProfileCache.get, None),
    ("analysis.verifygrid", verifygrid.verify_grid, _statuses),
    ("des.simulate", engine.simulate_profile, _stalled),
    ("runtime.compile", runtime_compiled.compile_plan, None),
    ("runtime.execute", runtime_compiled.CompiledPlan.execute_batch, None),
    ("collectives.verify.check", verify.init_matrix, None),
    ("collectives.verify.check", verify.check_matrix, None),
    ("tune.build", tables.build_decision_table, None),
    ("tune.serve", serve.select_algorithms, _queries),
    ("tune.select", serve.select_algorithm, _latency),
)

LAYERS = tuple(dict.fromkeys(name for name, _, _ in ENTRY_POINTS))


class Layer:
    """Running totals of one layer over the traced units."""

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.self_s = 0.0
        self.last_self_s = 0.0
        self.counts: dict[str, int] = defaultdict(int)
        self.by_key: dict[tuple, float] = defaultdict(float)
        self.samples: list[float] = []


def _binding_sites(fn) -> list[tuple[object, str]]:
    """Every ``(namespace, key)`` of a loaded ``repro`` module bound to ``fn``.

    A namespace is a module, a class defined in one, or a module-level
    dict; the setter for each is :func:`_bind`.
    """
    sites = []
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in vars(module).items():
            if value is fn:
                sites.append((module, key))
            elif isinstance(value, type) and value.__module__ == name:
                sites.extend(
                    (value, attr) for attr, v in vars(value).items() if v is fn
                )
            elif isinstance(value, dict):
                sites.extend((value, k) for k, v in value.items() if v is fn)
    return sites


def _bind(namespace, key, value) -> None:
    if isinstance(namespace, dict):
        namespace[key] = value
    else:
        setattr(namespace, key, value)


class Tracer:
    """Installs and removes the shims; accumulates :class:`Layer` totals.

    Build one after the workload's set-up has imported every module it
    uses: binding sites are resolved once, at construction.
    """

    def __init__(self):
        self.layers = {name: Layer(name) for name in LAYERS}
        self._stack: list[list[float]] = []
        self._sites = []  # (namespace, key, original, shim)
        for layer_name, fn, hook in ENTRY_POINTS:
            sites = _binding_sites(fn)
            if not sites:
                raise RuntimeError(
                    f"shim for {layer_name} ({fn.__qualname__}) found no "
                    "binding in any repro module"
                )
            shim = self._shim(self.layers[layer_name], fn, hook)
            self._sites.extend((ns, key, fn, shim) for ns, key in sites)

    def _shim(self, layer: Layer, fn, hook):
        stack = self._stack
        clock = time.perf_counter

        def shim(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                inclusive = clock() - t0
                stack.pop()
                layer.calls += 1
                layer.last_self_s = inclusive - frame[0]
                layer.self_s += layer.last_self_s
                if stack:
                    stack[-1][0] += inclusive
            if hook is not None:
                hook(layer, args, kwargs, out)
            return out

        return shim

    def install(self) -> None:
        for ns, key, _original, shim in self._sites:
            _bind(ns, key, shim)

    def uninstall(self) -> None:
        for ns, key, original, _shim in self._sites:
            _bind(ns, key, original)

    def self_total(self) -> float:
        return sum(layer.self_s for layer in self.layers.values())
