"""String-keyed registry of every collective algorithm in the library.

The sweep harness (:mod:`repro.analysis.sweep`) and the benchmarks address
algorithms as ``(collective, name)``.  Each entry knows its family (``bine``
/ ``binomial`` / ``ring`` / …) so the paper's "Bine vs binomial" and
"Bine vs best state-of-the-art" summaries can group correctly, plus its
constraints (power-of-two ranks, divisibility).

Every entry builds through ``build(p, n, root=0, op="sum") -> Schedule``.
Most describe their schedule once, as a ``steps`` hook returning ``(meta,
buffers, steps)``, a stream of step arrays: ``build`` is
:func:`~repro.runtime.schedule.schedule_from_arrays` over it, the
verifier's plan :func:`~repro.runtime.compiled.plan_from_arrays` and the
sweep's table :func:`~repro.model.compiled.lower_steps`, so the three
agree by construction.  The bcast trees and alltoall have a ``builder``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.bine_tree import bine_tree_distance_halving
from repro.core.binomial_tree import (
    binomial_tree_distance_doubling,
    binomial_tree_distance_halving,
)
from repro.core.butterfly import (
    bine_butterfly_doubling,
    bine_butterfly_halving,
    recursive_doubling_butterfly,
    recursive_halving_butterfly,
    swing_butterfly,
)
from repro.collectives import alltoall as a2a
from repro.collectives import bruck_allgather as bruck
from repro.collectives import composed
from repro.collectives import ring as ringmod
from repro.collectives.butterfly_collectives import (
    allgather_flow,
    allreduce_recursive_flow,
    allreduce_rsag_flow,
    flow_buffers,
    flow_steps,
    reduce_scatter_flow,
)
from repro.collectives.common import Strategy, build_stream
from repro.collectives.tree_collectives import bcast_from_tree, tree_stream
from repro.model import analytic
from repro.runtime.schedule import Schedule

__all__ = [
    "AlgorithmSpec",
    "ALGORITHMS",
    "build",
    "algorithms_for",
    "COLLECTIVES",
    "spec_for",
    "iter_specs",
    "families",
]

COLLECTIVES = (
    "bcast",
    "reduce",
    "gather",
    "scatter",
    "allgather",
    "reduce_scatter",
    "allreduce",
    "alltoall",
)


@dataclass(frozen=True)
class AlgorithmSpec:
    collective: str
    name: str
    family: str  # 'bine' | 'binomial' | 'ring' | 'bruck' | 'swing' | 'linear' | 'sota'
    #: ``builder(p, n, root, op)`` builds the schedule of an entry without
    #: a ``steps`` hook (the bcast trees, alltoall, the torus catalog)
    builder: Callable[..., Schedule] | None = None
    pow2_only: bool = True
    needs_divisible: bool = False
    description: str = ""
    #: optional sweep cap: schedules with Θ(p²) wire segments (per-block
    #: strategies) are skipped above this rank count
    max_p: int | None = None
    #: ``table(p)``: the sweep's TransferTable when it is a cost model, not the
    #: schedule's (alltoall, :mod:`repro.model.analytic`); else ``None``
    table: Callable[[int], object] | None = None
    #: ``steps(p, n, root, op)`` describes the schedule once, as ``(meta,
    #: buffers, steps)``: ``build`` writes the steps out as objects, the
    #: verifier lowers its plan from them and the sweep its table from their
    #: counts alone, neither building; ``None``: the entry has a ``builder``
    steps: Callable[[int, int, int, str], tuple] | None = None
    #: the sweep's table is lowered from ``steps`` at ``n = table_blocks · p``
    table_blocks: int = 1

    def build(self, p: int, n: int, root: int = 0, op: str = "sum") -> Schedule:
        if self.steps is None:
            return self.builder(p, n, root, op)
        return build_stream(self.steps(p, n, root, op))

    @property
    def constraints(self) -> tuple[str, ...]:
        """Human-readable applicability constraints, for catalogs and CLIs.

        >>> from repro.collectives.registry import spec_for
        >>> spec_for("allreduce", "bine-rsag").constraints
        ('p power of two', 'n divisible by p')
        """
        out: list[str] = []
        if self.pow2_only:
            out.append("p power of two")
        if self.needs_divisible:
            out.append("n divisible by p")
        if self.max_p is not None:
            out.append(f"sweeps cap p at {self.max_p}")
        return tuple(out)


ALGORITHMS: dict[tuple[str, str], AlgorithmSpec] = {}


def _register(spec: AlgorithmSpec) -> None:
    key = (spec.collective, spec.name)
    if key in ALGORITHMS:
        raise ValueError(f"duplicate algorithm {key}")
    ALGORITHMS[key] = spec


def _register_flow(collective: str, name: str, family: str, flow, **kw) -> None:
    """Register a butterfly entry over ``flow(p, n, op)``."""

    def steps(p, n, root, op):
        f = flow(p, n, op)
        return f.meta, flow_buffers(f), flow_steps(f)

    _register(AlgorithmSpec(collective, name, family, steps=steps, **kw))


def _register_plan(collective: str, name: str, family: str, plan, **kw) -> None:
    """Register a composed entry over ``plan(p, n, root, op)``."""
    _register(AlgorithmSpec(
        collective, name, family,
        steps=lambda p, n, root, op: composed.composed_steps(plan(p, n, root, op)),
        **kw,
    ))


def _register_tree(collective: str, name: str, family: str, tree, **kw) -> None:
    """Register a tree entry over ``tree(p, root)``.

    The bcast trees get a ``builder`` over the same steps, not a ``steps``
    hook, so that verifying them still runs ``build`` → ``compile_plan``:
    ``benchmarks/perf``'s ``verify_grid`` workload times those layers.
    """
    if collective == "bcast":
        hooks = {"builder": lambda p, n, root, op: bcast_from_tree(tree(p, root), n)}
    else:
        hooks = {"steps": lambda p, n, root, op: tree_stream(tree(p, root), n, collective, op)}
    _register(AlgorithmSpec(collective, name, family, **hooks, **kw))


def build(collective: str, name: str, p: int, n: int, root: int = 0, op: str = "sum") -> Schedule:
    """Build a schedule for a registered algorithm.

    >>> from repro.collectives.registry import build
    >>> build("bcast", "bine", 8, 8).num_steps
    3
    """
    return spec_for(collective, name).build(p, n, root, op)


def algorithms_for(collective: str) -> list[str]:
    """Registered algorithm names for a collective.

    >>> from repro.collectives.registry import algorithms_for
    >>> "bine" in algorithms_for("bcast")
    True
    """
    return sorted(name for (c, name) in ALGORITHMS if c == collective)


def spec_for(collective: str, name: str) -> AlgorithmSpec:
    """The registered :class:`AlgorithmSpec`, with a helpful lookup error.

    >>> from repro.collectives.registry import spec_for
    >>> spec_for("allreduce", "ring").family
    'ring'
    """
    try:
        return ALGORITHMS[(collective, name)]
    except KeyError:
        raise KeyError(
            f"no algorithm {name!r} for {collective!r}; "
            f"have {algorithms_for(collective)}"
        ) from None


def iter_specs(
    collective: str | None = None, family: str | None = None
) -> list[AlgorithmSpec]:
    """Registry entries in deterministic ``(collective, name)`` order.

    Both filters are optional; this is the introspection entry point the
    CLI's ``repro list`` (and the generated algorithm catalog) sit on.

    >>> from repro.collectives.registry import iter_specs
    >>> [s.name for s in iter_specs("alltoall", family="bine")]
    ['bine']
    """
    return [
        spec
        for (coll, _), spec in sorted(ALGORITHMS.items())
        if (collective is None or coll == collective)
        and (family is None or spec.family == family)
    ]


def families() -> list[str]:
    """All algorithm families present in the registry, sorted.

    >>> from repro.collectives.registry import families
    >>> {"bine", "binomial", "ring"} <= set(families())
    True
    """
    return sorted({spec.family for spec in ALGORITHMS.values()})


# --------------------------------------------------------------------------
# bcast
# --------------------------------------------------------------------------
_register_tree(
    "bcast", "binomial-dd", "binomial", binomial_tree_distance_doubling,
    description="Open MPI binomial broadcast (distance doubling, Fig. 1 top)",
)
_register_tree(
    "bcast", "binomial-dh", "binomial", binomial_tree_distance_halving,
    description="MPICH binomial broadcast (distance halving, Fig. 1 bottom)",
)
_register_tree(
    "bcast", "bine", "bine", bine_tree_distance_halving,
    description="Bine distance-halving tree broadcast (Listing 1)",
)
_register_plan(
    "bcast", "scatter-allgather", "binomial",
    lambda p, n, root, op: composed.bcast_scatter_allgather_binomial_plan(p, n, root),
    description="MPICH large-vector broadcast: binomial scatter + recdoub allgather",
)
_register_plan(
    "bcast", "bine-scatter-allgather", "bine",
    lambda p, n, root, op: composed.bcast_scatter_allgather_bine_plan(p, n, root),
    needs_divisible=True,
    description="Bine large-vector broadcast: dd-tree π scatter + dh butterfly allgather",
)

# --------------------------------------------------------------------------
# reduce
# --------------------------------------------------------------------------
_register_tree(
    "reduce", "binomial-dd", "binomial", binomial_tree_distance_doubling,
    description="binomial tree reduce (distance doubling)",
)
_register_tree(
    "reduce", "binomial-dh", "binomial", binomial_tree_distance_halving,
    description="binomial tree reduce (distance halving)",
)
_register_tree(
    "reduce", "bine", "bine", bine_tree_distance_halving,
    description="Bine distance-halving tree reduce (small vectors)",
)
_register_plan(
    "reduce", "rabenseifner", "binomial", composed.reduce_rsag_rabenseifner_plan,
    description="reduce-scatter + binomial gather (the standard butterfly large reduce)",
)
_register_plan(
    "reduce", "bine-rsag", "bine", composed.reduce_rsag_bine_plan,
    needs_divisible=True,
    description="Bine large reduce: dd butterfly RS (send) + reversed dd-tree gather",
)

# --------------------------------------------------------------------------
# gather / scatter
# --------------------------------------------------------------------------
_register_tree(
    "gather", "binomial", "binomial", binomial_tree_distance_halving,
    description="binomial gather (contiguous subtree ranges)",
)
_register_tree(
    "gather", "bine", "bine", bine_tree_distance_halving,
    description="Bine gather with circular ranges (Fig. 7)",
)
_register(AlgorithmSpec(
    "gather", "linear", "linear",
    steps=lambda p, n, root, op: ringmod.linear_steps("gather", p, n, root),
    pow2_only=False,
    description="flat gather: everyone sends directly to the root",
))
_register_tree(
    "scatter", "binomial", "binomial", binomial_tree_distance_halving,
    description="binomial scatter",
)
_register_tree(
    "scatter", "bine", "bine", bine_tree_distance_halving,
    description="Bine scatter (Sec. 4.2)",
)
_register(AlgorithmSpec(
    "scatter", "linear", "linear",
    steps=lambda p, n, root, op: ringmod.linear_steps("scatter", p, n, root),
    pow2_only=False,
    description="flat scatter",
))

# --------------------------------------------------------------------------
# allgather
# --------------------------------------------------------------------------
_register_flow(
    "allgather", "recursive-doubling", "binomial",
    lambda p, n, op: allgather_flow(recursive_halving_butterfly(p), n, Strategy.NATURAL),
    description="standard recursive-doubling allgather (contiguous)",
)
_register(AlgorithmSpec(
    "allgather", "ring", "ring",
    steps=lambda p, n, root, op: ringmod.ring_steps("allgather", p, n, op),
    pow2_only=False,
    description="ring allgather",
))
_register(AlgorithmSpec(
    "allgather", "bruck", "bruck",
    steps=lambda p, n, root, op: bruck.bruck_steps(p, n, "bruck", per_block=False),
    pow2_only=False,
    description="Bruck allgather",
))
_register(AlgorithmSpec(
    "allgather", "sparbit", "sota",
    steps=lambda p, n, root, op: bruck.bruck_steps(p, n, "sparbit", per_block=True),
    pow2_only=False, max_p=512,
    description="sparbit-like allgather (log steps, per-block sends)",
))
_register_flow(
    "allgather", "swing", "swing",
    lambda p, n, op: allgather_flow(swing_butterfly(p), n, Strategy.NATURAL),
    description="Swing allgather (Bine matchings, natural non-contiguous blocks)",
)
for _strat, _div in (
    (Strategy.NATURAL, False), (Strategy.BLOCKS, False),
    (Strategy.PERMUTE, True), (Strategy.SEND, True),
):
    _register_flow(
        "allgather", f"bine-{_strat.value}", "bine",
        (lambda strat: lambda p, n, op: allgather_flow(
            bine_butterfly_doubling(p), n, strat))(_strat),
        needs_divisible=_div,
        max_p=512 if _strat is Strategy.BLOCKS else None,
        description=f"Bine allgather, {_strat.value} strategy (Sec. 4.3.1)",
    )
_register_flow(
    "allgather", "bine-two-transmissions", "bine",
    lambda p, n, op: allgather_flow(
        bine_butterfly_halving(p), n, Strategy.TWO_TRANSMISSIONS),
    description="Bine allgather via dist-halving-RS reversal (≤2 segments)",
)

# --------------------------------------------------------------------------
# reduce_scatter
# --------------------------------------------------------------------------
_register_flow(
    "reduce_scatter", "recursive-halving", "binomial",
    lambda p, n, op: reduce_scatter_flow(
        recursive_halving_butterfly(p), n, op, Strategy.NATURAL),
    description="standard recursive-halving reduce-scatter",
)
_register(AlgorithmSpec(
    "reduce_scatter", "ring", "ring",
    steps=lambda p, n, root, op: ringmod.ring_steps("reduce_scatter", p, n, op),
    pow2_only=False,
    description="ring reduce-scatter",
))
_register_flow(
    "reduce_scatter", "swing", "swing",
    lambda p, n, op: reduce_scatter_flow(
        swing_butterfly(p), n, op, Strategy.NATURAL),
    description="Swing reduce-scatter (natural non-contiguous blocks)",
)
for _strat, _div in (
    (Strategy.NATURAL, False), (Strategy.BLOCKS, False),
    (Strategy.PERMUTE, True), (Strategy.SEND, True),
):
    _register_flow(
        "reduce_scatter", f"bine-{_strat.value}", "bine",
        (lambda strat: lambda p, n, op: reduce_scatter_flow(
            bine_butterfly_doubling(p), n, op, strat))(_strat),
        needs_divisible=_div,
        max_p=512 if _strat is Strategy.BLOCKS else None,
        description=f"Bine reduce-scatter, {_strat.value} strategy",
    )
_register_flow(
    "reduce_scatter", "bine-two-transmissions", "bine",
    lambda p, n, op: reduce_scatter_flow(
        bine_butterfly_halving(p), n, op, Strategy.TWO_TRANSMISSIONS),
    description="Bine reduce-scatter on the dist-halving butterfly (≤2 segments)",
)

# --------------------------------------------------------------------------
# allreduce
# --------------------------------------------------------------------------
_register_flow(
    "allreduce", "recursive-doubling", "binomial",
    lambda p, n, op: allreduce_recursive_flow(recursive_doubling_butterfly(p), n, op),
    description="recursive-doubling allreduce (small vectors)",
)
_register(AlgorithmSpec(
    "allreduce", "ring", "ring",
    steps=lambda p, n, root, op: ringmod.ring_steps("allreduce", p, n, op),
    pow2_only=False,
    description="ring allreduce (RS + AG)",
))
_register_flow(
    "allreduce", "rabenseifner", "binomial",
    lambda p, n, op: allreduce_rsag_flow(
        recursive_halving_butterfly(p), n, op, Strategy.NATURAL),
    description="Rabenseifner allreduce: recursive halving RS + recdoub AG "
                "(the standard butterfly large allreduce)",
)
_register_flow(
    "allreduce", "swing", "swing",
    lambda p, n, op: allreduce_rsag_flow(
        swing_butterfly(p), n, op, Strategy.NATURAL),
    description="Swing allreduce (non-contiguous multi-segment sends)",
)
_register_flow(
    "allreduce", "bine-small", "bine",
    lambda p, n, op: allreduce_recursive_flow(bine_butterfly_halving(p), n, op),
    description="Bine small-vector allreduce: recursive doubling on Bine butterfly",
)
_register_flow(
    "allreduce", "bine-rsag", "bine",
    lambda p, n, op: allreduce_rsag_flow(
        bine_butterfly_doubling(p), n, op, Strategy.SEND),
    needs_divisible=True,
    description="Bine large-vector allreduce: RS + AG in send mode (zero reordering)",
)
_register_flow(
    "allreduce", "bine-rsag-segmented", "bine",
    lambda p, n, op: allreduce_rsag_flow(
        bine_butterfly_doubling(p), n, op, Strategy.SEND, segmented=True),
    needs_divisible=True,
    description="segmented Bine allreduce (pipelined chunks, Sec. 5.2.2)",
)

# --------------------------------------------------------------------------
# alltoall
# --------------------------------------------------------------------------
_register(AlgorithmSpec(
    "alltoall", "bruck", "bruck",
    lambda p, n, root, op: a2a.alltoall_bruck(p, n),
    pow2_only=False, needs_divisible=True,
    description="Bruck alltoall (log steps)",
    table=analytic.bruck_alltoall_table,
))
_register(AlgorithmSpec(
    "alltoall", "pairwise", "linear",
    lambda p, n, root, op: a2a.alltoall_pairwise(p, n),
    pow2_only=False, needs_divisible=True,
    description="pairwise-exchange alltoall (p−1 steps)",
    table=analytic.pairwise_alltoall_table,
))
_register(AlgorithmSpec(
    "alltoall", "bine", "bine",
    lambda p, n, root, op: a2a.alltoall_bine(p, n),
    needs_divisible=True,
    description="Bine butterfly alltoall (Sec. 4.4)",
    table=analytic.bine_alltoall_table,
))
