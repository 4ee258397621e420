"""Cluster assembly and end-to-end simulation of MC / MCC / MCCK."""

from .node import ComputeNode, MODES
from .validate import (
    ValidationReport,
    Violation,
    validate_devices,
    validate_exclusive,
    validate_fabric,
    validate_pool,
)
from .simulation import (
    MC,
    MCC,
    MCCK,
    PAPER_POLICIES,
    BestFit,
    ClusterConfig,
    Policy,
    SimulationResult,
    needs_recovery,
    run,
)

__all__ = [
    "BestFit",
    "ClusterConfig",
    "ComputeNode",
    "MC",
    "MCC",
    "MCCK",
    "MODES",
    "PAPER_POLICIES",
    "Policy",
    "SimulationResult",
    "ValidationReport",
    "Violation",
    "needs_recovery",
    "run",
    "validate_devices",
    "validate_exclusive",
    "validate_fabric",
    "validate_pool",
]
