"""Regenerate the frozen golden attributions under tests/goldens/.

Each case is a fully seeded end-to-end explanation; the golden files are
**persist artifacts** — the explanation object itself, serialized
through :mod:`repro.persist` (type-tag envelope, canonical b64 float64
encoding) — and ``tests/test_goldens.py`` loads them back through
``from_dict`` before comparing at 1e-12. The test module imports *this*
file for the case definitions, so the fixtures can never drift apart
from the goldens they regenerate.

Usage::

    PYTHONPATH=src python scripts/regen_goldens.py            # all cases
    PYTHONPATH=src python scripts/regen_goldens.py kernel_shap lime

Regenerating is a deliberate act: only run it when an intentional
numeric change (new default, fixed bug) is being frozen, and commit the
diff with the change that caused it.
"""

from __future__ import annotations

import os
import sys

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GOLDEN_DIR = os.path.join(REPO_ROOT, "tests", "goldens")
sys.path.insert(0, os.path.join(REPO_ROOT, "src"))


def _classification_parts():
    from repro.datasets import make_classification
    from repro.models import LogisticRegression

    data = make_classification(80, n_features=4, n_informative=3,
                               class_sep=1.5, seed=7)
    model = LogisticRegression(alpha=1.0).fit(data.X, data.y)
    background = data.X[:30]
    x = data.X[40]
    return model, background, x, data


def case_kernel_shap(backend: str | None = None):
    from repro.shapley.kernel import KernelShapExplainer

    model, background, x, __ = _classification_parts()
    return KernelShapExplainer(model, background, n_samples=64, seed=0,
                               backend=backend, n_procs=2).explain(x)


def view_kernel_shap(attr) -> dict:
    return {
        "values": np.asarray(attr.values, dtype=float).tolist(),
        "base_value": float(attr.base_value),
        "prediction": float(attr.prediction),
    }


def case_sampling_shap(backend: str | None = None):
    from repro.shapley.sampling import SamplingShapleyExplainer

    model, background, x, __ = _classification_parts()
    return SamplingShapleyExplainer(model, background, n_permutations=16,
                                    seed=0, backend=backend,
                                    n_procs=2).explain(x)


def view_sampling_shap(attr) -> dict:
    return {
        "values": np.asarray(attr.values, dtype=float).tolist(),
        "base_value": float(attr.base_value),
        "std_err": np.asarray(attr.meta["std_err"], dtype=float).tolist(),
    }


def case_gbm_sampling_shap(backend: str | None = None):
    # The 25-tree loan GBM that perfbench's batch_gbm and the benchmarks'
    # loan_setup fit: the one golden that holds a tree model's predict
    # (and the model's walk tables through pickle) to the backends.
    from repro.datasets import make_loan_dataset
    from repro.models import GradientBoostingClassifier
    from repro.shapley.sampling import SamplingShapleyExplainer

    data = make_loan_dataset(600, seed=7)
    gbm = GradientBoostingClassifier(n_estimators=25, max_depth=3,
                                     seed=0).fit(data.X, data.y)
    return SamplingShapleyExplainer(gbm, data.X, n_permutations=10,
                                    max_background=20, seed=0,
                                    backend=backend,
                                    n_procs=2).explain(data.X[0])


def case_tmc_datashapley(backend: str | None = None):
    from repro.datavalue.data_shapley import tmc_shapley
    from repro.datavalue.utility import UtilityFunction
    from repro.datasets import make_classification
    from repro.models import LogisticRegression
    from repro.models.model_selection import train_test_split

    data = make_classification(60, n_features=3, n_informative=2,
                               class_sep=2.0, seed=13)
    Xtr, Xv, ytr, yv = train_test_split(data.X, data.y, test_size=0.4, seed=0)
    utility = UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                              Xtr[:10], ytr[:10], Xv, yv)
    return tmc_shapley(utility, n_permutations=12, seed=3,
                       backend=backend, n_procs=2)


def case_tmc_datashapley_wide(backend: str | None = None):
    # 40 points whose TMC prefixes mostly hold both classes (117 fits),
    # so the golden reaches the batched logistic solve of lockstep walks;
    # tmc_datashapley's 10 points mostly give single-class prefixes.
    from repro.datavalue.data_shapley import tmc_shapley
    from repro.datavalue.utility import UtilityFunction
    from repro.datasets import make_classification
    from repro.models import LogisticRegression
    from repro.models.model_selection import train_test_split

    data = make_classification(100, n_features=4, class_sep=1.0, seed=13)
    Xtr, Xv, ytr, yv = train_test_split(data.X, data.y, test_size=0.4, seed=0)
    utility = UtilityFunction(lambda: LogisticRegression(alpha=1.0),
                              Xtr[:40], ytr[:40], Xv, yv)
    return tmc_shapley(utility, n_permutations=8, seed=3,
                       backend=backend, n_procs=2)


def view_tmc_datashapley(attr) -> dict:
    return {
        "values": np.asarray(attr.values, dtype=float).tolist(),
        "full_score": float(attr.meta["full_score"]),
        "mean_truncation_position": float(
            attr.meta["mean_truncation_position"]
        ),
    }


def case_tuple_shapley(backend: str | None = None):
    from repro.db.relation import Relation
    from repro.db.tuple_shapley import shapley_of_tuples

    relation = Relation(["id", "grp"], [(i, i % 3) for i in range(9)])
    query = (lambda r: sum(1 for t in r.rows if t[1] == 0) * 2.0
             + len(r.rows) * 0.1)
    exact = shapley_of_tuples(relation, query, method="exact",
                              backend=backend, n_procs=2)
    sampled = shapley_of_tuples(relation, query, method="sampling",
                                n_permutations=24, seed=5,
                                backend=backend, n_procs=2)
    return {
        "exact": [float(exact[i]) for i in sorted(exact)],
        "sampled": [float(sampled[i]) for i in sorted(sampled)],
    }


def case_causal_shapley(backend: str | None = None):
    from repro.causal.causal_shapley import CausalShapleyExplainer
    from repro.causal.scm import StructuralCausalModel, linear_mechanism

    scm = StructuralCausalModel()
    scm.add_variable("a", [], lambda p, u: u,
                     noise=lambda rng, n: rng.normal(0, 1, n))
    scm.add_variable("b", ["a"], linear_mechanism({"a": 2.0}),
                     noise=lambda rng, n: rng.normal(0, 0.5, n))
    scm.add_variable("c", ["b"], linear_mechanism({"b": 1.5}),
                     noise=lambda rng, n: rng.normal(0, 0.5, n))
    model = lambda X: np.atleast_2d(X) @ np.array([1.0, 0.5, 2.0])
    explainer = CausalShapleyExplainer(model, scm, ["a", "b", "c"],
                                       n_permutations=8, n_samples=60,
                                       seed=2, backend=backend, n_procs=2)
    return explainer.explain(np.array([1.0, 2.0, 0.5]))


def view_causal_shapley(attr) -> dict:
    return {
        "values": np.asarray(attr.values, dtype=float).tolist(),
        "direct": np.asarray(attr.meta["direct"], dtype=float).tolist(),
        "indirect": np.asarray(attr.meta["indirect"], dtype=float).tolist(),
        "base_value": float(attr.base_value),
    }


def case_lime(backend: str | None = None):
    # LIME never consumes the coalition estimators, so the backend knob
    # must be a no-op for it — the golden freezes exactly that.
    from repro.core.dataset import TabularDataset
    from repro.surrogate import LimeTabularExplainer

    model, background, x, data = _classification_parts()
    dataset = TabularDataset(data.X, data.y)
    return LimeTabularExplainer(model, dataset, n_samples=120,
                                seed=11).explain(x)


def view_lime(attr) -> dict:
    return {
        "values": np.asarray(attr.values, dtype=float).tolist(),
        "prediction": float(attr.prediction),
    }


def case_db_plans(backend: str | None = None):
    # The planner never touches the coalition estimators, so the backend
    # knob must be a no-op; the golden freezes the explain_plan() text of
    # eight representative queries, so planner rewrites show up as
    # reviewed diffs rather than silent behavior changes.
    from repro.db.planner import And, Eq, Not, Opaque, Query, Range
    from repro.db.relation import Relation

    emp = Relation(
        ["name", "dept", "salary"],
        [("ann", "eng", 100), ("bob", "eng", 90), ("cat", "ops", 80),
         ("dan", "eng", 100), ("eve", "ops", 120)],
        name="emp",
    )
    dept = Relation(
        ["dept", "building"],
        [("eng", "B1"), ("ops", "B2"), ("hr", "B3")],
        name="dept",
    )
    contractors = Relation(
        ["name", "dept", "salary"],
        [("fay", "eng", 70), ("gil", "hr", 60)],
        name="contractors",
    )
    sites = Relation(["site"], [("north",), ("south",)], name="sites")

    queries = {
        "point_select": Query(emp).select(Eq("dept", "eng")),
        "range_select": Query(emp).select(Range("salary", 85, 110)),
        "negated_select": Query(emp).select(Not(Eq("dept", "eng"))),
        "residual_select": Query(emp).select(
            And(Eq("dept", "eng"), Range("salary", 90, None))
        ),
        "opaque_select": Query(emp).select(
            Opaque(lambda row: row["name"] < "d", "name < 'd'")
        ),
        "pushdown_index_join": Query(emp).join(dept).select(
            Range("salary", 90, None)
        ),
        "pushdown_hash_join": Query(emp).join(dept).select(
            And(Range("salary", 90, None), Eq("building", "B1"))
        ),
        "cartesian_join": Query(emp).project(["name"]).join(sites),
        "union_pushdown": Query(emp).union(contractors).select(
            Eq("dept", "eng")
        ),
    }
    return {name: query.explain_plan() for name, query in queries.items()}


CASES = {
    "kernel_shap": case_kernel_shap,
    "sampling_shap": case_sampling_shap,
    "gbm_sampling_shap": case_gbm_sampling_shap,
    "tmc_datashapley": case_tmc_datashapley,
    "tmc_datashapley_wide": case_tmc_datashapley_wide,
    "tuple_shapley": case_tuple_shapley,
    "causal_shapley": case_causal_shapley,
    "lime": case_lime,
    "db_plans": case_db_plans,
}

# Numeric projection compared at 1e-12; identity for plain-dict cases.
VIEWS = {
    "kernel_shap": view_kernel_shap,
    "sampling_shap": view_sampling_shap,
    "gbm_sampling_shap": view_sampling_shap,
    "tmc_datashapley": view_tmc_datashapley,
    "tmc_datashapley_wide": view_tmc_datashapley,
    "causal_shapley": view_causal_shapley,
    "lime": view_lime,
}


def golden_view(name: str, output) -> dict:
    """The numeric dict a case's output is compared by."""
    view = VIEWS.get(name)
    return view(output) if view is not None else output


def regenerate(names=None) -> list[str]:
    """Persist each named case's artifact golden; returns written paths."""
    from repro.persist import dumps

    os.makedirs(GOLDEN_DIR, exist_ok=True)
    written = []
    for name in names or sorted(CASES):
        payload = {"case": name, "artifact": CASES[name]()}
        path = os.path.join(GOLDEN_DIR, f"{name}.json")
        text = dumps(payload, indent=2) + "\n"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    return written


def main(argv=None) -> int:
    names = list(argv if argv is not None else sys.argv[1:])
    unknown = [n for n in names if n not in CASES]
    if unknown:
        sys.stderr.write(
            f"unknown case(s) {unknown}; choose from {sorted(CASES)}\n"
        )
        return 2
    for path in regenerate(names or None):
        sys.stdout.write(f"wrote {os.path.relpath(path, REPO_ROOT)}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
