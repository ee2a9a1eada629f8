"""Loud parsing for numeric environment knobs.

Every ``REPRO_*`` knob that tunes execution (shard fallback, chaos
injection, trace clock origins) used to fall back to its default
*silently* when the variable held garbage — ``REPRO_SHARD_FALLBACK=no``
quietly meant enabled, which is exactly the kind of misconfiguration that
only surfaces three hours into a campaign.  These helpers keep the
fallback (a bad knob must never crash a run) but emit a once-per-process
:class:`RuntimeWarning` naming the variable and the bad value.

Example::

    >>> import os, warnings
    >>> os.environ["REPRO_DEMO_KNOB"] = "fast"
    >>> with warnings.catch_warnings(record=True) as caught:
    ...     warnings.simplefilter("always")
    ...     env_int("REPRO_DEMO_KNOB", 3)
    3
    >>> "REPRO_DEMO_KNOB" in str(caught[0].message)
    True
    >>> del os.environ["REPRO_DEMO_KNOB"]
"""

from __future__ import annotations

import os
import warnings

__all__ = ["env_int", "env_flag"]

#: ``(name, bad value)`` pairs already warned about this process — a
#: campaign re-reading a knob thousands of times reports it once
_WARNED: set[tuple[str, str]] = set()


def _warn_once(name: str, value: str, expected: str) -> None:
    token = (name, value)
    if token in _WARNED:
        return
    _WARNED.add(token)
    warnings.warn(
        f"{name}={value!r} is not {expected}; using the default",
        RuntimeWarning,
        stacklevel=3,
    )


def env_int(name: str, default: int) -> int:
    """``int(os.environ[name])`` with a warn-once fallback to ``default``."""
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        _warn_once(name, raw, "an integer")
        return default


def env_flag(name: str, default: bool) -> bool:
    """A strict ``0``/``1`` boolean knob with a warn-once fallback.

    The old pattern (``os.environ.get(name, "1") == "0"``) silently read
    ``REPRO_SHARD_FALLBACK=no`` as *enabled*; anything but ``"0"`` or
    ``"1"`` now warns before falling back.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    if raw in ("0", "1"):
        return raw == "1"
    _warn_once(name, raw, "'0' or '1'")
    return default
