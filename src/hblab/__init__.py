"""hblab: a numerical laboratory for outer functions, pairs (b, a), and
radial-dilate divergence in de Branges-Rovnyak spaces.

The library constructs an outer function with step boundary modulus whose
disk pullback grows explosively along a sequence of radii, builds the pair
(b, a) with b/a = phi, and exhibits the resulting blow-up of
||f_r||_{H(b)} as r -> 1 for an explicit kernel combination f, together
with the cross-checkable identities along the way.

The public names below are resolved on first access (PEP 562), so
``import hblab`` loads no submodule and a CLI verb loads only the modules
it runs.  A name is looked up in its home module on every access and never
stored here, so it is always the home module's current binding.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("LogScalar", "log_sum_exp", "log_sum_signed"), "logscalar"),
    **dict.fromkeys(("GrowthBoundError", "ParameterError", "PrecisionExhausted"), "errors"),
    **dict.fromkeys(
        (
            "ConstructionParams",
            "Sequences",
            "cayley",
            "check_rho_condition",
            "log_Phi_halfplane",
            "log_phi_disk",
            "log_phi_radial",
            "make_sequences",
        ),
        "outer",
    ),
    **dict.fromkeys(
        (
            "GrowthCheckRecord",
            "GrowthScanRow",
            "choose_power_m",
            "growth_bound_scan",
            "growth_log_ratio",
            "poisson_quad_crosscheck",
            "verify_growth_bound",
        ),
        "growth",
    ),
    **dict.fromkeys(
        (
            "Cell",
            "Pair",
            "StepModulus",
            "build_pair",
            "outer_eval",
            "pair_from_json",
            "pair_to_json",
            "step_modulus_from_phi",
            "tame_pair",
        ),
        "pair",
    ),
    **dict.fromkeys(
        (
            "KernelCombo",
            "KernelNode",
            "Radius",
            "dilate",
            "f_plus_solve",
            "hb_norm_sq",
            "kernel_combo_ccond_check",
            "kernel_hb",
            "toeplitz_coanalytic_apply",
        ),
        "hb",
    ),
    **dict.fromkeys(("TaylorSeries", "exp_series", "triangular_solve_upper_toeplitz"), "series"),
    "outer_series": "taylor",
    **dict.fromkeys(
        (
            "abel_fr_plus",
            "build_divergent_combo",
            "divergence_curve",
            "fr_plus_at_zero",
            "growth_envelope",
            "sarason_series_failure",
            "summability_divergence",
        ),
        "experiments",
    ),
    **dict.fromkeys(("CODE_VERSION", "ExperimentReport"), "reports"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    if name == "__version__":
        return importlib.import_module(".reports", __name__).CODE_VERSION
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *_EXPORTS, "__version__"})
