"""hblab: a numerical laboratory for outer functions, pairs (b, a), and
radial-dilate divergence in de Branges-Rovnyak spaces.

The library constructs an outer function with step boundary modulus whose
disk pullback grows explosively along a sequence of radii, builds the pair
(b, a) with b/a = phi, and exhibits the resulting blow-up of
||f_r||_{H(b)} as r -> 1 for an explicit kernel combination f, together
with the cross-checkable identities along the way.
"""

from .logscalar import LogScalar, log_sum_exp, log_sum_signed
from .outer import (
    ConstructionParams,
    GrowthBoundError,
    GrowthCheckRecord,
    ParameterError,
    Sequences,
    cayley,
    check_rho_condition,
    choose_power_m,
    growth_bound_scan,
    growth_log_ratio,
    log_Phi_halfplane,
    log_phi_disk,
    log_phi_radial,
    make_sequences,
    verify_growth_bound,
)
from .pair import (
    Cell,
    Pair,
    StepModulus,
    build_pair,
    l1_log_check,
    outer_eval,
    outer_series,
    pair_from_json,
    pair_to_json,
    step_modulus_from_phi,
    tame_pair,
)
from .hb import (
    KernelCombo,
    KernelNode,
    Radius,
    cauchy_kernel,
    cesaro_mean,
    dilate,
    f_plus_solve,
    hb_inner,
    hb_norm_sq,
    kernel_combo_ccond_check,
    kernel_hb,
    partial_sum,
    toeplitz_coanalytic_apply,
)
from .series import (
    TaylorSeries,
    exp_series,
    triangular_solve_upper_toeplitz,
)
from .experiments import (
    PrecisionExhausted,
    abel_fr_plus,
    build_divergent_combo,
    divergence_curve,
    fr_plus_at_zero,
    growth_envelope,
    sarason_series_failure,
    summability_divergence,
)
from .reports import CODE_VERSION, ExperimentReport

__version__ = CODE_VERSION
