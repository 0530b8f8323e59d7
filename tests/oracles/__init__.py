"""Reference implementations the tests and benchmarks compare against.

Each ``legacy_*`` function is the code path an optimized library path
replaced: the pre-games Shapley walk loops, the pre-engine coalition
expansion, the naive db operators, scans and lineage walks. The library
keeps one path per method; the parity tests, the goldens and the
240-pipeline db harness pin that path to these bit for bit. They live
here, not in ``repro``, so that no caller can pick one at run time.
Import them as ``tests.oracles`` from the repository root (pytest puts
it on ``sys.path``; ``python -m pytest benchmarks`` does too).
"""

from .causal import legacy_asymmetric_explain, legacy_causal_explain
from .datavalue import (
    legacy_beta_shapley,
    legacy_distributional_shapley,
    legacy_gradient_shapley,
    legacy_tmc_shapley,
)
from .db import (
    legacy_ancestors,
    legacy_database_value_fn,
    legacy_descendants,
    legacy_execute,
    legacy_explain_aggregate,
    legacy_scope_from_relation,
    legacy_shapley_of_tuples,
    legacy_supports,
    legacy_violating_tuples,
    legacy_violations,
    legacy_why_not,
)
from .shapley import (
    legacy_expand,
    legacy_permutation_shapley,
    legacy_value_function,
)

__all__ = [
    "legacy_asymmetric_explain",
    "legacy_causal_explain",
    "legacy_tmc_shapley",
    "legacy_beta_shapley",
    "legacy_distributional_shapley",
    "legacy_gradient_shapley",
    "legacy_execute",
    "legacy_violations",
    "legacy_violating_tuples",
    "legacy_scope_from_relation",
    "legacy_why_not",
    "legacy_explain_aggregate",
    "legacy_descendants",
    "legacy_ancestors",
    "legacy_supports",
    "legacy_database_value_fn",
    "legacy_shapley_of_tuples",
    "legacy_permutation_shapley",
    "legacy_expand",
    "legacy_value_function",
]
