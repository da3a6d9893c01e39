"""Numerical library for Hilbert-type operators on weighted Bergman spaces.

Subpackages by theme:

* :mod:`bergman.weights` — radial weights, tails, classification,
  Muckenhoupt-type constants;
* :mod:`bergman.analytic` — analytic functions, Hardy circle means,
  weighted radial norms;
* :mod:`bergman.decomposition` — weight-adapted block partitions,
  decomposition norms, lacunary-series criteria;
* :mod:`bergman.operators` — generalized and classical Hilbert
  operators, operator-norm estimates, Hilbert-Schmidt sums;
* :mod:`bergman.verify` — theorem-level bounded-ratio scenarios;
* :mod:`bergman.cli` — the ``bergman`` command-line frontend.
"""

from .analytic import (AnalyticFunction, bergman_norm, dirichlet_norm,
                       hardy_mean, lambda_norm, mixed_norm, mixed_norm_sup,
                       modulus_of_continuity, parse_function_spec)
from .decomposition import (BlockPartition, block, decomposition_norm,
                            decomposition_norm_gamma, is_omega_lacunary,
                            lacunary_norm, lacunary_sup_test, partition)
from .errors import (DivergentMassError, DomainError, QuadratureDivergence,
                     WellDefinednessError)
from .operators import (OperatorSetting, apply_classical, apply_generalized,
                        hilbert_schmidt_partial, lp_hat_norm, moments,
                        operator_norm_lower, suma_ratio)
from .results import NormValue
from .verify import ScenarioReport, run_scenario, scenario_ids, write_report
from .weights import (RadialWeight, classify, condition_99, muckenhoupt,
                      parse_weight)

__version__ = "0.1.0"

__all__ = [
    "AnalyticFunction", "BlockPartition", "DivergentMassError", "DomainError",
    "NormValue", "OperatorSetting", "QuadratureDivergence", "RadialWeight",
    "ScenarioReport", "WellDefinednessError", "apply_classical",
    "apply_generalized", "bergman_norm", "block",
    "classify", "condition_99", "decomposition_norm",
    "decomposition_norm_gamma", "dirichlet_norm",
    "hardy_mean", "hilbert_schmidt_partial",
    "is_omega_lacunary", "lacunary_norm", "lacunary_sup_test", "lambda_norm",
    "lp_hat_norm", "mixed_norm", "mixed_norm_sup", "modulus_of_continuity",
    "moments", "muckenhoupt", "operator_norm_lower",
    "parse_function_spec", "parse_weight", "partition",
    "run_scenario", "scenario_ids", "suma_ratio", "write_report",
]
