"""Co-processing core: schemes, executor, join variants, scheduler, planner."""

from .basicunit import BasicUnitPhase, BasicUnitRun, BasicUnitScheduler
from .executor import (
    CoProcessingExecutor,
    ExecutionError,
    GridTiming,
    PhaseTiming,
    StepTiming,
)
from .joins import (
    ALGORITHMS,
    PHJ,
    SHJ,
    HashJoinVariant,
    JoinTiming,
    JoinVariantError,
    VariantConfig,
    external_pair_joiner,
    run_all_variants,
    run_join,
)
from .planner import (
    CANDIDATE_BLOCK_BYTES,
    JoinPlan,
    JoinPlanner,
    PlanCandidate,
)
from .schemes import RatioPlan, Scheme, plan_ratios, variant_name

__all__ = [
    "ALGORITHMS",
    "BasicUnitPhase",
    "BasicUnitRun",
    "BasicUnitScheduler",
    "CANDIDATE_BLOCK_BYTES",
    "CoProcessingExecutor",
    "ExecutionError",
    "GridTiming",
    "HashJoinVariant",
    "JoinPlan",
    "JoinPlanner",
    "JoinTiming",
    "JoinVariantError",
    "PHJ",
    "PhaseTiming",
    "PlanCandidate",
    "RatioPlan",
    "SHJ",
    "Scheme",
    "StepTiming",
    "VariantConfig",
    "external_pair_joiner",
    "plan_ratios",
    "run_all_variants",
    "run_join",
    "variant_name",
]
