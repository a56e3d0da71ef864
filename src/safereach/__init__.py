"""safereach: reachability-based construction and validation of barrier
functions for differential inclusions."""

__version__ = "0.1.0"

from .dynamics import (FieldHandle, InclusionSpec, Selector, builtin_field,
                       eval_inclusion, field_from_expressions,
                       lipschitz_estimate, max_rate, rescale_field)
from .geometry import (ConeProbe, SamplePlan, SetSpec, SubgradientCandidate,
                       clarke_gradient_sample, cone_residual, distance_to_set,
                       hausdorff_distance, proximal_subgradient_test)
from .solver import (BundlePlan, IntegratorConfig, Trajectory, integrate,
                     solution_bundle, time_rescale_tau)
from .reachability import (ReachCloud, filippov_check, load_cloud, reach,
                           reach_endpoint, reach_regularity_probe, save_cloud)
from .barrier import (BarrierFn, CheckReport, RelaxFn, candidate_sign_check,
                      counterexample_barrier, infinitesimal_check,
                      marginal_barrier, monotonicity_check, sublevel_membership,
                      user_barrier)
from .smoothing import (ConverseResolution, SmoothedFn, build_time_partition,
                        converse_smooth_barrier, hermite_segment,
                        smooth_global, smooth_on_compact)
from .verify import (SafetyProblem, SafetyReport, conditional_invariance_check,
                     forward_pre_invariance_check, nagumo_check, prop1_check,
                     simulate_safety_check)
