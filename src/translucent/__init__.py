"""Cooperation analysis for social dilemmas with detection-aware beliefs.

The package covers: the four canonical social dilemmas with exact payoff
rules (``games``), the (alpha, beta) belief model with a brute-force
best-response engine (``beliefs``), closed-form cooperation conditions
(``closed_form``), finite counterfactual structures with axiom validation
(``counterfactual``), coherence and translucent-equilibrium checks
(``equilibrium``), comparison models (``alt_models``), and a batch CLI
(``cli``).
"""

__version__ = "0.1.0"

from .games import (  # noqa: F401
    BudgetExceededError,
    MixedProfile,
    NormalFormGame,
    SocialDilemma,
    dilemma_from_json,
    dilemma_to_json,
    enumerate_pure_nash,
    make_bertrand,
    make_dilemma,
    make_prisoners_dilemma,
    make_public_goods,
    make_travelers_dilemma,
    payoff,
    verify_social_dilemma,
)
from .beliefs import (  # noqa: F401
    CooperationScanner,
    OthersBehaviorModel,
    RationalityReport,
    TranslucentType,
    is_cooperation_rational,
)
from .closed_form import (  # noqa: F401
    CooperationVerdict,
    bertrand_lower_bound_check,
    bertrand_undercut_condition,
    cooperation_condition,
    f_gamma,
    f_gamma_sum,
)
from .counterfactual import (  # noqa: F401
    CounterfactualStructure,
    IncoherentProfileError,
    StateUtilityReport,
    Violation,
    build_coherent_structure,
    build_nash_structure,
    build_typed_dilemma_structure,
    build_typed_pd_structure,
    derived_beliefs,
    eu_at_state,
    eu_at_state_switch,
    is_rational_at,
    structure_from_json,
    structure_to_json,
    validate_structure,
)
from .equilibrium import (  # noqa: F401
    CoherenceReport,
    TypedTeResult,
    generalized_f,
    is_coherent,
    is_translucent_equilibrium,
    make_coherence_checker,
    te_condition,
    te_condition_typed,
    te_in_structure,
)
from .alt_models import (  # noqa: F401
    CharnessRabinParams,
    FehrSchmidtParams,
    QreResult,
    charness_rabin_utility,
    fehr_schmidt_utility,
    fs_pgg_full_contribution_condition,
    logit_qre,
)
