"""Cooperation analysis for social dilemmas with detection-aware beliefs.

The package covers: the four canonical social dilemmas with exact payoff
rules (``games``), the (alpha, beta) belief model with a brute-force
best-response engine (``beliefs``), closed-form cooperation conditions
(``closed_form``), finite counterfactual structures with axiom validation
(``counterfactual``), coherence and translucent-equilibrium checks
(``equilibrium``), comparison models (``alt_models``), and a batch CLI
(``cli``).

The public names below load on first use (PEP 562): ``import translucent``
imports no submodule, and reading a name imports the one that defines it.
"""

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {name: module for module, names in {
    "exact": ("BudgetExceededError",),
    "games": (
        "MixedProfile", "NormalFormGame", "SocialDilemma", "dilemma_from_json",
        "dilemma_to_json", "enumerate_pure_nash", "make_bertrand", "make_dilemma",
        "make_prisoners_dilemma", "make_public_goods", "make_travelers_dilemma",
        "payoff", "verify_social_dilemma"),
    "beliefs": (
        "CooperationScanner", "RationalityReport", "TranslucentType",
        "is_cooperation_rational"),
    "closed_form": (
        "CooperationVerdict", "bertrand_lower_bound_check",
        "bertrand_undercut_condition", "cooperation_condition", "f_gamma",
        "f_gamma_sum"),
    "counterfactual": (
        "CounterfactualStructure", "IncoherentProfileError", "StateUtilityReport",
        "Violation", "build_coherent_structure", "build_nash_structure",
        "build_typed_dilemma_structure", "build_typed_pd_structure",
        "derived_beliefs", "eu_at_state", "eu_at_state_switch", "is_rational_at",
        "structure_from_json", "structure_to_json", "validate_structure"),
    "equilibrium": (
        "CoherenceReport", "TypedTeResult", "generalized_f", "is_coherent",
        "is_translucent_equilibrium", "make_coherence_checker", "te_condition",
        "te_condition_typed", "te_in_structure"),
    "alt_models": (
        "CharnessRabinParams", "FehrSchmidtParams", "QreResult",
        "charness_rabin_utility", "fehr_schmidt_utility",
        "fs_pgg_full_contribution_condition", "logit_qre"),
}.items() for name in names}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # as ``from .<module> import <name>`` does, so -X importtime lists it
    value = globals()[name] = getattr(__import__(module, globals(), None, (name,), 1), name)
    return value
