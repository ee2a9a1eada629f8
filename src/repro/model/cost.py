"""The alpha-beta-congestion cost model.

Step time is latency + bandwidth + compute::

    lat(step)  = max over transfers of
                   α + hops_local·α_local + hops_global·α_global
                     + (segments − 1)·seg_overhead
    bw(step)   = max( max_link load_bytes·β_class,
                      max_node injected_bytes·β_inj / ports,
                      max_node ejected_bytes·β_inj / ports )
    comp(step) = max_rank reduced_bytes·β_reduce
    copy(step) = max_rank locally_moved_bytes·β_copy

    step_time  = lat + bw + comp + copy          (unsegmented)
    step_time  = lat + max(bw, comp) + copy      (segmented — pipelined
                                                  chunks overlap reduction
                                                  with transport, Sec. 5.2.2)

Every term corresponds to a paper effect: the per-class β drives all
global-traffic results; the per-segment overhead drives Fig. 14 and the
Swing-vs-Bine 2× (Sec. 5.2.2); injection ports drive the Fugaku multi-NIC
gains (App. D.4); the segmented overlap drives ring-vs-Bine at 512 MiB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.topology.base import LinkClass

__all__ = ["CostParams"]

GiB = 1024**3


def _default_beta() -> dict[str, float]:
    return {
        LinkClass.LOCAL: 1 / (25 * GiB),
        LinkClass.GLOBAL: 1 / (12.5 * GiB),
        LinkClass.TORUS: 1 / (6.8 * GiB),
        LinkClass.INTRA: 1 / (100 * GiB),
    }


def _default_alpha_hop() -> dict[str, float]:
    return {
        LinkClass.LOCAL: 0.15e-6,
        LinkClass.GLOBAL: 0.6e-6,
        LinkClass.TORUS: 0.1e-6,
        LinkClass.INTRA: 0.05e-6,
    }


@dataclass(frozen=True)
class CostParams:
    """Machine constants for the analytic model (defaults: generic HPC system)."""

    #: fixed per-message software/NIC latency (s)
    alpha: float = 1.0e-6
    #: extra latency per hop, by link class (s)
    alpha_hop: dict[str, float] = field(default_factory=_default_alpha_hop)
    #: inverse bandwidth per shared link, by class (s/byte)
    beta: dict[str, float] = field(default_factory=_default_beta)
    #: inverse per-NIC injection bandwidth (s/byte)
    inj_beta: float = 1 / (25 * GiB)
    #: independently usable NICs per node (Fugaku: 6)
    ports: int = 1
    #: setup cost per additional wire segment in one message (s)
    seg_overhead: float = 0.4e-6
    #: per-message CPU/NIC processing at an endpoint (s); serialises flat
    #: algorithms whose root handles p−1 messages in one "step"
    msg_cpu: float = 0.25e-6
    #: inverse local memory-copy bandwidth (s/byte)
    copy_beta: float = 1 / (20 * GiB)
    #: inverse reduction-compute bandwidth (s/byte)
    reduce_beta: float = 1 / (15 * GiB)
    #: bytes per vector element (paper: 32-bit integers)
    itemsize: int = 4
