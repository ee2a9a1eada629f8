"""Reproduction of *Bine Trees: Enhancing Collective Operations by
Optimizing Communication Locality* (SC '25).

Layers (see ``docs/architecture.md``):

* :mod:`repro.core`        — Bine/binomial trees, butterflies, negabinary labels
* :mod:`repro.collectives` — schedule builders + the algorithm registry
* :mod:`repro.runtime`     — the Schedule IR, NumPy executor, verification
* :mod:`repro.topology`    — Dragonfly(+)/fat-tree/torus models, placements
* :mod:`repro.model`       — routing, traffic accounting, α-β cost model
* :mod:`repro.systems`     — LUMI / Leonardo / MareNostrum 5 / Fugaku presets
* :mod:`repro.analysis`    — sweeps, paper-style summaries, plots
* :mod:`repro.cli`         — the ``repro`` command-line front door
"""

import importlib

__version__ = "1.0.0"


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """A package ``__getattr__`` (PEP 562) that imports each public name
    from its submodule on first use: ``exports`` maps submodule → names.

    Importing one submodule then loads only what that submodule needs,
    not every sibling the package re-exports.
    """
    where = {name: f"{package}.{mod}" for mod, names in exports.items() for name in names}

    def __getattr__(name: str):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        return getattr(importlib.import_module(where[name]), name)

    return __getattr__
