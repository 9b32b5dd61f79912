"""Quantile treatment effects on the treated for two-period designs.

Estimates the conditional and unconditional quantile treatment effect on
the treated from two-period panel data or repeated cross sections, with
exchangeable-bootstrap uniform inference and a Monte Carlo harness.
"""

from .data_model import PanelData, RcsData, build_cells
from .empirical import SortedSample, StepRows
from .estimators import (
    Cell,
    CqttProcess,
    PanelCell,
    RcsCell,
    counterfactual_rows,
    estimate_process,
    estimate_rows,
    treated_shares,
)
from .inference import (
    BootstrapConfig,
    InferenceReport,
    KsTestResult,
    analyze_cell,
    analyze_cells,
    analyze_unconditional,
    bootstrap_process,
    ks_test,
    pointwise_se,
    substream,
    unconditional_process,
)
from .simulation import DgpSpec, McResult, run_mc, simulate, simulate_dgp1, simulate_dgp2

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "Cell",
    "CqttProcess",
    "DgpSpec",
    "InferenceReport",
    "KsTestResult",
    "McResult",
    "PanelCell",
    "PanelData",
    "RcsCell",
    "RcsData",
    "SortedSample",
    "StepRows",
    "analyze_cell",
    "analyze_cells",
    "analyze_unconditional",
    "bootstrap_process",
    "build_cells",
    "counterfactual_rows",
    "estimate_process",
    "estimate_rows",
    "ks_test",
    "pointwise_se",
    "run_mc",
    "simulate",
    "simulate_dgp1",
    "simulate_dgp2",
    "substream",
    "treated_shares",
    "unconditional_process",
]
