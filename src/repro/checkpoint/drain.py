"""Graceful-drain signal handling for journaled campaign runs.

A batch scheduler's SIGTERM (or an operator's Ctrl-C) should not vaporize
an in-flight campaign: with a journal active, the first signal only *asks*
the run to stop.  :func:`drain_scope` installs handlers that record the
request; the sweep layer polls :func:`drain_requested` at cell
boundaries, stops dispatching new cells, lets in-flight shards finish (or
time out), flushes the journal, and raises
:class:`~repro.runtime.errors.InterruptedRunError` — exit code 9, the
documented "your progress is safe, resume with ``--resume``" code.  A
*second* signal means the operator is done waiting: handlers are restored
to their defaults and :class:`KeyboardInterrupt` aborts immediately
(exit code 130).

Handlers are only installed when journaling is on (an unjournaled run has
nothing to drain *to* — Ctrl-C keeps its ordinary meaning) and only on
the main thread of the main interpreter; elsewhere the scope is a no-op.
"""

from __future__ import annotations

import signal
import sys
from contextlib import contextmanager

__all__ = ["drain_scope", "drain_requested", "pool_worker_init"]

#: name of the signal that requested a drain, or ``None`` — module-level
#: because signal handlers are process-global anyway
_REQUESTED: list[str | None] = [None]

_DRAIN_SIGNALS = (signal.SIGINT, signal.SIGTERM)


def drain_requested() -> str | None:
    """The signal name that requested a drain, or ``None``.

    Polled by the sweep layer at cell boundaries: truthy means stop
    dispatching new cells and raise ``InterruptedRunError`` once
    in-flight work has been absorbed and journaled.
    """
    return _REQUESTED[0]


def _handler(signum, frame) -> None:
    name = signal.Signals(signum).name
    if _REQUESTED[0] is None:
        _REQUESTED[0] = name
        sys.stderr.write(
            f"# {name}: draining — in-flight cells will be journaled; "
            "signal again to abort immediately\n"
        )
        return
    # second signal: the operator wants out *now*
    for sig in _DRAIN_SIGNALS:
        signal.signal(sig, signal.SIG_DFL)
    raise KeyboardInterrupt


@contextmanager
def drain_scope():
    """Install first-signal-drains / second-signal-aborts handlers.

    Example::

        >>> with drain_scope():
        ...     drain_requested() is None
        True
    """
    try:
        previous = [signal.signal(sig, _handler) for sig in _DRAIN_SIGNALS]
    except ValueError:  # not the main thread — signals are not ours to claim
        yield
        return
    _REQUESTED[0] = None
    try:
        yield
    finally:
        for sig, old in zip(_DRAIN_SIGNALS, previous):
            try:
                signal.signal(sig, old)
            except ValueError:
                pass
        _REQUESTED[0] = None


def pool_worker_init() -> None:
    """Detach each pool worker from drain signals; die with the parent.

    The initializer of every process pool (sweep shards, verify cells).
    Workers are forked while the parent's :func:`drain_scope` handlers
    may be installed and would inherit them — a terminal's Ctrl-C or a
    scheduler's group-wide SIGTERM must reach only the *parent*, which
    coordinates the drain and lets in-flight shards finish, so workers
    ignore both signals.  And a
    SIGKILLed campaign (OOM killer, the chaos harness) must not leave
    workers orphaned and blocked forever on a dead call queue: on Linux
    every worker asks the kernel to SIGKILL it when its parent dies
    (``PR_SET_PDEATHSIG``; SIGKILL because ordinary signals are ignored
    per the above).  Elsewhere that part is a no-op; normal pool
    shutdown is unaffected either way.
    """
    for sig in _DRAIN_SIGNALS:
        signal.signal(sig, signal.SIG_IGN)
    try:  # pragma: no cover - trivially platform-dependent
        import ctypes

        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(1, signal.SIGKILL, 0, 0, 0)  # 1 == PR_SET_PDEATHSIG
    except Exception:
        pass
