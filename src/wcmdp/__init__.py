"""Planning and simulation toolkit for heterogeneous weakly-coupled MDPs."""

__version__ = "0.1.0"

from .model import GeneratorConfig, WcmdpInstance, generate, validate
from .lp_relax import (LpProblem, LpSolution, SingleArmPolicy, build_lp,
                       check_solution, extract_policy, solve_lp)
from .reassign import (ReassignmentResult, SlopeReport, active_constraints,
                       reassign, remaining_budget_curve, verify_slope)
from .policies import ErcPolicyRunner, IdPolicyRunner, StepOutcome, exact_oracle
from .simulator import (PolicyBundle, SimConfig, SimResult, batch_means_ci,
                        results_row, simulate, sweep, write_results_csv)
from .lyapunov import (ChainDiagnostics, DriftProbeResult, LyapunovReport,
                       build_report, chain_diagnostics, drift_probe,
                       mixing_time, subset_h)

__all__ = [
    "GeneratorConfig", "WcmdpInstance",
    "generate", "validate",
    "LpProblem", "LpSolution", "SingleArmPolicy", "build_lp",
    "check_solution", "extract_policy", "solve_lp",
    "ReassignmentResult", "SlopeReport", "active_constraints", "reassign",
    "remaining_budget_curve", "verify_slope",
    "ErcPolicyRunner", "IdPolicyRunner", "StepOutcome", "exact_oracle",
    "PolicyBundle", "SimConfig", "SimResult", "batch_means_ci", "results_row",
    "simulate", "sweep", "write_results_csv",
    "ChainDiagnostics", "DriftProbeResult", "LyapunovReport", "build_report",
    "chain_diagnostics", "drift_probe", "mixing_time", "subset_h",
]
