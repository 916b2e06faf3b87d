"""segswap: discrete-slot simulator and analysis toolkit for give-and-take
segment exchange in social groups."""

__version__ = "0.1.0"

from .model import (  # noqa: E402
    GenerationError,
    Instance,
    InvalidParameterError,
    SegmentSet,
    SlotState,
    dump_instance,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    make_instance,
    validate_instance,
)
from .graph import (
    ExchangeGraph,
    GTViolationError,
    PreferenceList,
    build_exchange_graph,
    exchange,
    gt_satisfied,
    preference_list,
)
from .matching import (
    InconsistentListsError,
    Matching,
    find_stable_matching,
    verify_stability,
)
from .strategies import (
    ALGORITHMS,
    SlotEvents,
    Trace,
    randomized_trajectory,
    run_simulation,
    step_deterministic,
    step_randomized,
)
from .oracle import (
    BudgetExceededError,
    OracleResult,
    aggregate_upper_bound,
    optimal_aggregate,
)
from .metrics import (
    SapNonzeroError,
    TrialRecord,
    ZeroAggregateError,
    nmac,
    nmsd,
    predict_expected_cardinality,
    price_of_choices,
)
from .harness import (
    ConfigError,
    Scenario,
    emit_results,
    run_and_emit,
    run_scenario,
    write_manifest,
)

__all__ = [
    "ALGORITHMS",
    "BudgetExceededError",
    "ConfigError",
    "ExchangeGraph",
    "GTViolationError",
    "GenerationError",
    "InconsistentListsError",
    "Instance",
    "InvalidParameterError",
    "Matching",
    "OracleResult",
    "PreferenceList",
    "SapNonzeroError",
    "Scenario",
    "SegmentSet",
    "SlotEvents",
    "SlotState",
    "Trace",
    "TrialRecord",
    "ZeroAggregateError",
    "aggregate_upper_bound",
    "build_exchange_graph",
    "dump_instance",
    "emit_results",
    "exchange",
    "find_stable_matching",
    "gt_satisfied",
    "instance_from_dict",
    "instance_to_dict",
    "load_instance",
    "make_instance",
    "nmac",
    "nmsd",
    "optimal_aggregate",
    "predict_expected_cardinality",
    "preference_list",
    "price_of_choices",
    "randomized_trajectory",
    "run_and_emit",
    "run_scenario",
    "run_simulation",
    "step_deterministic",
    "step_randomized",
    "validate_instance",
    "verify_stability",
    "write_manifest",
]
