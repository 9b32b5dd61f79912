"""Quantile treatment effects on the treated for two-period designs.

Estimates the conditional and unconditional quantile treatment effect on
the treated from two-period panel data or repeated cross sections, with
exchangeable-bootstrap uniform inference and a Monte Carlo harness.
"""

from .data_model import (
    PanelData,
    RcsData,
    ValidationError,
    ValidationReport,
    build_cells,
    validate,
)
from .empirical import SortedSample, StepDistribution, StepRows, rank_transform
from .estimators import (
    Cell,
    CounterfactualResult,
    CqttProcess,
    PanelCell,
    RcsCell,
    cic_qtt,
    counterfactual_cdf,
    counterfactual_cdf_panel,
    counterfactual_cdf_rcs,
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
    analyze_unconditional,
    bootstrap_process,
    bootstrap_unconditional,
    draw_weights,
    ks_test,
    pointwise_se,
    substream,
    unconditional_process,
    uniform_band,
)
from .simulation import DgpSpec, McResult, run_mc, simulate, simulate_dgp1, simulate_dgp2

__version__ = "0.1.0"

__all__ = [
    "BootstrapConfig",
    "Cell",
    "CounterfactualResult",
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
    "StepDistribution",
    "StepRows",
    "ValidationError",
    "ValidationReport",
    "analyze_cell",
    "analyze_unconditional",
    "bootstrap_process",
    "bootstrap_unconditional",
    "build_cells",
    "cic_qtt",
    "counterfactual_cdf",
    "counterfactual_cdf_panel",
    "counterfactual_cdf_rcs",
    "counterfactual_rows",
    "draw_weights",
    "estimate_process",
    "estimate_rows",
    "ks_test",
    "pointwise_se",
    "rank_transform",
    "run_mc",
    "simulate",
    "simulate_dgp1",
    "simulate_dgp2",
    "substream",
    "treated_shares",
    "unconditional_process",
    "uniform_band",
    "validate",
]
