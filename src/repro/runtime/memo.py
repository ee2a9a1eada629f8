"""Process-level memo caches: one registry, one eviction/counter policy.

Every module-level memo of the pipeline is declared through this module,
and declaring one registers it:

* :class:`Memo` — a dict with a FIFO bound whose :meth:`Memo.get_or`
  bumps the ``cache.<counter>.{hit,miss}`` counters of
  :mod:`repro.obs.metrics`;
* the :mod:`repro.obs.metrics` series store itself (its "size" is the
  number of live series).

Bine labels (negabinary, ν, π) are closed-form integer expressions
(:mod:`repro.core.negabinary`, :mod:`repro.core.bine_tree`), so no label
is memoized.

:func:`clear_memo_caches` drops all of them (cold-start benchmarks,
long-lived services bounding memory) and :func:`memo_cache_sizes` reports
their entry counts.  Only imported modules have registered their caches;
a cache whose module is not loaded is empty anyway, so clearing never
needs to import anything.

Example::

    >>> clear_memo_caches()
    >>> memo_cache_sizes()["obs.metrics"]
    0
"""

from __future__ import annotations

import math
from typing import Callable

from repro.obs import metrics as _metrics

__all__ = [
    "Memo",
    "memo_cache_registry",
    "memo_cache_sizes",
    "clear_memo_caches",
]

#: name -> (size probe, clearer), in declaration order
_REGISTRY: dict[str, tuple[Callable[[], int], Callable[[], None]]] = {}


def _register(name: str, size: Callable[[], int], clear: Callable[[], None]) -> None:
    _REGISTRY[name] = (size, clear)


class Memo(dict):
    """A registered memo dict, FIFO-bounded at ``maxsize`` entries.

    :meth:`get_or` is the policy: count a hit or a miss under
    ``cache.<counter>`` (when given), compute on a miss, evict the oldest
    entries, store.  A cache in a builder's inner loop may use the plain
    dict interface instead (unbounded and uncounted, at dict speed).
    """

    def __init__(
        self, name: str, maxsize: float = math.inf, counter: str | None = None
    ):
        super().__init__()
        self.maxsize = maxsize
        self._hit = counter and f"cache.{counter}.hit"
        self._miss = counter and f"cache.{counter}.miss"
        _register(name, self.__len__, self.clear)

    def get_or(self, key, compute: Callable[[], object]):
        """The value memoized under ``key``, computing it on a miss.

        ``None`` is a memoizable value.  If ``compute`` raises, nothing is
        stored or evicted.
        """
        if key in self:
            if self._hit:
                _metrics.inc(self._hit)
            return self[key]
        if self._miss:
            _metrics.inc(self._miss)
        value = compute()
        while len(self) >= self.maxsize:
            del self[next(iter(self))]
        self[key] = value
        return value


_register("obs.metrics", _metrics.active_series, _metrics.reset)


def memo_cache_registry() -> dict[str, tuple]:
    """Every registered memo cache, as ``name -> (size probe, clearer)``."""
    return dict(_REGISTRY)


def memo_cache_sizes() -> dict[str, int]:
    """Current entry count of every registered memo cache (observability)."""
    return {name: size() for name, (size, _) in _REGISTRY.items()}


def clear_memo_caches() -> None:
    """Drop every registered process-level memo (imports nothing).

    Per-:class:`~repro.analysis.sweep.ProfileCache` state (route tables,
    profiles, mappings) is unaffected — drop the cache object for that.
    """
    for _size, clear in _REGISTRY.values():
        clear()
