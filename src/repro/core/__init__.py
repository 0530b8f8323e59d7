"""Core abstractions: datasets, explanation objects, samplers, base classes."""

from .base import AttributionExplainer, Explainer, as_predict_fn
from .dataset import FeatureSpec, TabularDataset
from .explanation import (
    CounterfactualExplanation,
    DataAttribution,
    FeatureAttribution,
    Predicate,
    RuleExplanation,
)
from .coalition_engine import (
    CoalitionEngine,
    CoalitionValueCache,
    batched_predict,
    broadcast_expand,
)
from .sampling import GaussianPerturber

__all__ = [
    "CoalitionEngine",
    "CoalitionValueCache",
    "batched_predict",
    "broadcast_expand",
    "AttributionExplainer",
    "Explainer",
    "as_predict_fn",
    "FeatureSpec",
    "TabularDataset",
    "FeatureAttribution",
    "Predicate",
    "RuleExplanation",
    "CounterfactualExplanation",
    "DataAttribution",
    "GaussianPerturber",
]
