"""safereach: reachability-based construction and validation of barrier
functions for differential inclusions.

The public names below resolve on first access (PEP 562), so importing the
package, or one of its submodules, loads only the modules that are used.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "dynamics": ("FieldHandle", "InclusionSpec", "Selector", "builtin_field",
                 "eval_inclusion", "field_from_expressions", "linear_field",
                 "lipschitz_estimate", "max_rate", "rescale_field"),
    "geometry": ("ConeProbe", "SamplePlan", "SetSpec", "SubgradientCandidate",
                 "clarke_gradient_sample", "cone_residual", "distance_to_set",
                 "hausdorff_distance", "proximal_subgradient_test"),
    "solver": ("BundlePlan", "IntegratorConfig", "Trajectory", "integrate",
               "solution_bundle"),
    "reachability": ("ReachCloud", "filippov_check", "load_cloud", "reach", "save_cloud"),
    "barrier": ("BarrierFn", "CheckReport", "RelaxFn", "candidate_sign_check",
                "counterexample_barrier", "infinitesimal_check", "marginal_barrier",
                "monotonicity_check", "user_barrier"),
    "smoothing": ("ConverseResolution", "SmoothedFn", "build_time_partition",
                  "converse_smooth_barrier", "hermite_segment", "smooth_global",
                  "smooth_on_compact"),
    "verify": ("SafetyProblem", "SafetyReport", "nagumo_check", "prop1_check",
               "simulate_safety_check"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
