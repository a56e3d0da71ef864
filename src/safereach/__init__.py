"""safereach: reachability-based construction and validation of barrier
functions for differential inclusions.

The public names below resolve on first access (PEP 562), so importing the
package, or one of its submodules, loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"


class Error(Exception):
    """Base of every error the library raises for input outside the domain
    where it works, the one class the command line catches."""


_EXPORTS = {
    "dynamics": ("FieldHandle", "InclusionSpec", "builtin_field", "eval_inclusion",
                 "field_from_expressions", "linear_field", "lipschitz_estimate", "max_rate",
                 "rescale_field"),
    "expr": ("RelaxFn",),
    "geometry": ("SamplePlan", "SetSpec", "distance_to_set"),
    "solver": ("BundlePlan", "IntegratorConfig", "Trajectory", "integrate",
               "solution_bundle"),
    "reachability": ("filippov_check", "filippov_report", "reach"),
    "barrier": ("BarrierFn", "CheckReport", "candidate_sign_check",
                "counterexample_barrier", "marginal_barrier", "monotonicity_check",
                "user_barrier"),
    "infinitesimal": ("clarke_gradient_sample", "cone_residual", "infinitesimal_check",
                      "nagumo_check", "prop1_check", "proximal_subgradient_test"),
    "smoothing": ("ConverseResolution", "SmoothedFn", "build_time_partition",
                  "converse_smooth_barrier", "hermite_segment", "smooth_global",
                  "smooth_on_compact"),
    "verify": ("SafetyProblem", "SafetyReport", "simulate_safety_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_MODULE_OF, "Error"])


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
