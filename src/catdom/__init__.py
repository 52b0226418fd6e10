"""Sequential allocation on categorized domains.

Core model: n agents, p categories with n items each, strict preferences over
the n**p bundles. The package covers mechanism execution with per-agent
behaviors, worst-case rank bounds with constructive tight witnesses,
subgame-perfect equilibrium solving, axiom audits of direct mechanisms, and
Mallows-model expected-rank experiments.
"""

from .adversarial import (
    ConstructionError,
    near_optimal_allocation,
    strategic_worst_profile,
    worst_case_profile,
)
from .axioms import (
    AxiomVerdict,
    Counterexample,
    DirectMechanism,
    Exhaustive,
    Sampled,
    all_allocations,
    all_rankings,
    apply_category_permutation,
    bossy_conditional_sd,
    check_all,
    check_category_wise_neutrality,
    check_non_bossiness,
    check_pareto_optimality,
    check_strategy_proofness,
    non_neutral_conditional_sd,
    sd_direct,
    welfare_maximizer,
    worst_pick_sd,
)
from .bounds import (
    AgentBound,
    RankBoundReport,
    SearchResult,
    all_optimistic_witness,
    optimistic_bound,
    pessimistic_bound,
    sd_optimistic_utilitarian,
    search_orders,
    strategic_bound,
    worst_case_report,
)
from .domain import (
    Allocation,
    AllocationCheck,
    Bundle,
    CapacityError,
    DomainShape,
    Preference,
    Profile,
    ValidationError,
    allocation_from_json,
    allocation_to_json,
    decode_bundle,
    egalitarian_rank,
    encode_bundle,
    profile_from_json,
    profile_to_json,
    utilitarian_rank,
    validate_allocation,
)
from .engine import (
    OPTIMISTIC,
    PESSIMISTIC,
    Behavior,
    ExecutionError,
    ExecutionTrace,
    Optimistic,
    Pessimistic,
    RoundRecord,
    Scripted,
    direct_serial_dictatorship,
    optimistic_choice,
    pessimistic_choice,
    pessimistic_comparison,
    run_csam,
)
from .mallows import (
    ExperimentConfig,
    ExperimentResult,
    MallowsParams,
    MechanismConfig,
    results_to_csv,
    run_experiment,
    sample_mallows,
    uniform_preference,
)
from .orders import (
    OrderAnalytics,
    PickingOrder,
    analyze_order,
    balanced_order,
    interrupter_order,
    order_from_json,
    order_to_json,
    pickers_in_category,
    predecessor_in_category,
    serial_dictatorship_order,
)
from .spne import solve_spne, state_space_size

__all__ = [name for name in dir() if not name.startswith("_")]
