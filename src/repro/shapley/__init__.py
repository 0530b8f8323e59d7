"""Shapley-value-based feature attribution (§2.1.2)."""

from .conditional import (
    ConditionalShapExplainer,
    empirical_conditional_value_function,
)
from .exact import ExactShapleyExplainer, all_coalitions, exact_shapley
from .interaction import InteractionExplainer, shapley_interaction_values
from .global_agg import (
    GlobalAttribution,
    aggregate_attributions,
    permutation_importance,
)
from .kernel import KernelShapExplainer, kernel_shap, shapley_kernel_weight
from .qii import QIIExplainer, set_qii, shapley_qii, unary_qii
from .sampling import SamplingShapleyExplainer, permutation_shapley
from .tree import TreeShapExplainer, tree_expected_value
from .tree_interventional import InterventionalTreeShapExplainer

__all__ = [
    "ConditionalShapExplainer",
    "empirical_conditional_value_function",
    "exact_shapley",
    "all_coalitions",
    "ExactShapleyExplainer",
    "InteractionExplainer",
    "shapley_interaction_values",
    "permutation_shapley",
    "SamplingShapleyExplainer",
    "kernel_shap",
    "shapley_kernel_weight",
    "KernelShapExplainer",
    "tree_expected_value",
    "TreeShapExplainer",
    "InterventionalTreeShapExplainer",
    "unary_qii",
    "set_qii",
    "shapley_qii",
    "QIIExplainer",
    "GlobalAttribution",
    "aggregate_attributions",
    "permutation_importance",
]
