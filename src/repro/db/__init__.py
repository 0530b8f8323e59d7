"""Data-management side of XAI (§3): provenance, query explanation,
tuple Shapley, complaint-driven debugging."""

from .bias import (
    BiasReport,
    detect_simpsons_paradox,
    group_difference,
    stratified_difference,
)
from .complaints import (
    Complaint,
    ComplaintDebugger,
    scope_from_relation,
)
from .index import (
    HashIndex,
    IntervalIndex,
    LineageSupportIndex,
    ProvenanceDAG,
    RelationIndexes,
    SortIndex,
)
from .planner import (
    And,
    Eq,
    Not,
    Opaque,
    Predicate,
    Query,
    Range,
    as_predicate,
    matching_indices,
)
from .provenance import (
    BooleanSemiring,
    CountingSemiring,
    LineageSemiring,
    Semiring,
    WhySemiring,
)
from .query_explain import (
    PredicateExplanation,
    explain_aggregate,
)
from .repair import FunctionalDependency, greedy_repair, repair_responsibility
from .relation import Relation
from .tuple_shapley import shapley_of_tuples
from .why_not import QueryStep, WhyNotResult, why_not

__all__ = [
    "Relation",
    "RelationIndexes",
    "HashIndex",
    "SortIndex",
    "ProvenanceDAG",
    "IntervalIndex",
    "LineageSupportIndex",
    "Query",
    "Predicate",
    "Eq",
    "Range",
    "And",
    "Not",
    "Opaque",
    "as_predicate",
    "matching_indices",
    "Semiring",
    "BooleanSemiring",
    "CountingSemiring",
    "WhySemiring",
    "LineageSemiring",
    "shapley_of_tuples",
    "FunctionalDependency",
    "repair_responsibility",
    "greedy_repair",
    "explain_aggregate",
    "PredicateExplanation",
    "Complaint",
    "scope_from_relation",
    "BiasReport",
    "detect_simpsons_paradox",
    "group_difference",
    "stratified_difference",
    "QueryStep",
    "WhyNotResult",
    "why_not",
    "ComplaintDebugger",
]
