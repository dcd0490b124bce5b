"""Synthetic workloads standing in for the testbed's traffic.

PDU-size distributions (:mod:`repro.workloads.pdu_sizes`) model the
era's traffic mixes; sources (:mod:`repro.workloads.generators`) drive
an interface's send API greedily, at a Poisson rate, or in on/off
bursts; scenarios (:mod:`repro.workloads.scenarios`) wire complete
testbeds used by several experiments.
"""

from repro.workloads.generators import (
    GreedySource,
    OnOffSource,
    PoissonSource,
)
from repro.workloads.pdu_sizes import (
    BimodalSize,
    ConstantSize,
    EmpiricalInternetMix,
    SizeDistribution,
    UniformSize,
)
from repro.workloads.scenarios import (
    InterleavedCellSource,
    build_point_to_point,
)

__all__ = [
    "BimodalSize",
    "ConstantSize",
    "EmpiricalInternetMix",
    "GreedySource",
    "InterleavedCellSource",
    "OnOffSource",
    "PoissonSource",
    "SizeDistribution",
    "UniformSize",
    "build_point_to_point",
]
