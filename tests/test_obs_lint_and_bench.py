"""Tier-1 enforcement of the repository's lints (``scripts/lint.py``),
the telemetry writers, and the benchmark wall-time regression guard.

The lint tests run the driver on fixture trees. In a fixture source, a
trailing ``# <- <rule>`` comment marks a line that rule must report;
every other line must pass. The driver itself is AST-based, so these
comments are invisible to it.
"""

import ast
import importlib.util
import json
import os
import re
import subprocess
import sys
import textwrap

import pytest

from repro.obs import bench

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
LINT = os.path.join(REPO_ROOT, "scripts", "lint.py")
BENCH_COMPARE = os.path.join(REPO_ROOT, "scripts", "bench_compare.py")


def _load_script(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


lint = _load_script(LINT, "lint")

_EXPECT = re.compile(r"# <- ([a-z-]+)")

PRINT_FILES = {
    "src/repro/print_catch.py": """
        def f():
            print("debug")  # <- no-print
        # print(x) in a comment and 'print(' in a string are not calls
        s = "print("
    """,
    # The human-output modules may print, at any depth.
    "src/repro/cli.py": "print('fine')\n",
    "src/repro/report.py": "print('fine')\n",
    "src/repro/pipelines/render.py": "print('fine')\n",
    # Out of scope: tests may print.
    "tests/test_prints.py": "print('fine')\n",
}

HYGIENE_CATCH = {
    "src/repro/hygiene_catch.py": """
        try:
            f()
        except:  # <- exception-hygiene
            handle()
        try:
            g()
        except Exception:  # <- exception-hygiene
            pass
        try:
            h()
        except (ValueError, BaseException):  # <- exception-hygiene
            ...
    """,
    "tests/test_hygiene_catch.py": """
        def test_swallows():
            try:
                f()
            except:  # <- exception-hygiene
                pass
    """,
}

HYGIENE_ALLOW = {
    "src/repro/hygiene_allow.py": """
        # Narrow types, even with pass bodies, show intent.
        try:
            f()
        except (TypeError, ValueError):
            pass
        # Broad but visibly handled.
        try:
            g()
        except Exception as e:
            raise RuntimeError from e
        # Broad and silent, but explicitly allowlisted.
        try:
            h()
        except Exception:  # hygiene: allow
            pass
        # Strings mentioning the pattern are not handlers.
        s = 'except:'
    """,
}

SHAPLEY_CATCH = {
    "src/repro/shapley_catch.py": """
        def estimate(value_fn, n, rng):
            sums = np.zeros(n)
            for _ in range(10):
                perm = rng.permutation(n)  # <- bespoke-shapley
                for pos, point in enumerate(perm):
                    sums[point] += value_fn(pos)
            return sums / 10

        # Taint flows through intermediate assignments and reversal too.
        def indirect(v, n, rng):
            phi = np.zeros(n)
            order = rng.permutation(n)  # <- bespoke-shapley
            walks = [order, order[::-1]]
            for w in walks:
                phi[w] += v(w)
            return phi
    """,
    # Only the estimator module of the games package may walk.
    "src/repro/games/second_scheduler.py": """
        def reduce_walks(values, n, rng):
            phi = np.zeros(n)
            perm = rng.permutation(n)  # <- bespoke-shapley
            for pos, player in enumerate(perm):
                phi[player] += values[pos]
            return phi
    """,
}

SHAPLEY_ALLOW = {
    "src/repro/shapley_allow.py": """
        # Shuffled minibatch SGD: the permutation orders rows, but the
        # accumulation index is a plain loop variable (the MLP pattern).
        def fit(X, y, rng, grads):
            idx = rng.permutation(len(X))
            for i in range(3):
                grads[i] += X[idx].sum()
            return grads

        # A permutation used for a baseline, assigned, not accumulated.
        def baseline(scores, rng):
            out = {}
            perm = rng.permutation(len(scores))
            out['shuffled'] = scores[perm]
            return out

        # An allow-marked legacy implementation.
        def legacy(v, n, rng):
            sums = np.zeros(n)
            perm = rng.permutation(n)  # games: allow
            for p in perm:
                sums[p] += v(p)
            return sums
    """,
    # The games package is where the one walk loop lives.
    "src/repro/games/estimators.py": """
        def walk(v, n, rng, sums):
            perm = rng.permutation(n)
            for p in perm:
                sums[p] += v(p)
    """,
    # Out of scope: tests may loop.
    "tests/test_shapley_loop.py": """
        def test_walk(v, n, rng, sums):
            perm = rng.permutation(n)
            for p in perm:
                sums[p] += v(p)
    """,
}

METRIC_CATCH = {
    "src/repro/metric_catch.py": """
        import time

        def f(metrics):
            metrics.counter("Bad")  # <- metric-names
            histogram("no_dots")  # <- metric-names
            return time.perf_counter()  # <- metric-names
    """,
}

METRIC_ALLOW = {
    "src/repro/metric_allow.py": """
        import time
        from time import perf_counter

        def f(metrics, name):
            metrics.counter("serve.cache.hits")
            gauge(name)  # non-literal names pass through helpers
            t0 = time.perf_counter()  # obs: allow
            return perf_counter() - t0  # obs: allow
    """,
    # The obs package owns the timing primitives; the naming half still
    # applies inside it.
    "src/repro/obs/clock.py": """
        import time

        def now(metrics):
            metrics.gauge("Obs-Bad")  # <- metric-names
            return time.perf_counter()
    """,
}

BATCH_CATCH = {
    "src/repro/batch_catch.py": """
        def per_row(explainer, X):
            out = [explainer.explain(x) for x in X]  # <- batch-loops
            for x in X:
                out.append(explainer.explain(x))  # <- batch-loops
            while X:
                explainer.explain(X.pop())  # <- batch-loops
            return out
    """,
}

BATCH_ALLOW = {
    "src/repro/batch_allow.py": """
        def sweep(explainer, X):
            for seed in range(3):  # batch: allow
                explainer.explain(X[0], seed=seed)
            return [explainer.explain(x) for x in X]  # batch: allow

        # A worker defined inside a loop is dispatch machinery, not a
        # per-row loop.
        def workers(explainer, X):
            jobs = []
            for x in X:
                def job(x=x):
                    return explainer.explain(x)
                jobs.append(job)
            thunks = [lambda x=x: explainer.explain(x) for x in X]
            return jobs, thunks, explainer.explain(X[0])
    """,
    # Out of scope: tests may loop.
    "tests/test_batch_loop.py": """
        def test_rows(explainer, X):
            return [explainer.explain(x) for x in X]
    """,
}

DB_CATCH = {
    "src/repro/db/scan_catch.py": """
        def pick(relation, predicate):
            out = [i for i, r in enumerate(relation.rows)  # <- db-scans
                   if predicate(r)]
            for row in sorted(relation.rows):  # <- db-scans
                out.append(row)
            return out

        # A legacy_* name is no escape, nor is nesting the scan.
        def legacy_pick(relation, p):
            def inner():
                return [r for r in relation.rows if p(r)]  # <- db-scans
            return inner()
    """,
}

DB_ALLOW = {
    "src/repro/db/scan_allow.py": """
        # Point lookups over index-provided ids are not scans.
        def per_group(relation, members):
            return [relation.rows[i] for i in members]

        # Non-selection loops opt out on the scan line or the header.
        def render(relation):
            return [str(r) for r in relation.rows]  # db: allow

        def dump(relation):
            for row in (  # db: allow
                relation.rows
            ):
                yield row
    """,
    # The physical layer itself is exempt.
    "src/repro/db/planner.py": """
        def scan(relation, p):
            return [r for r in relation.rows if p(r)]
    """,
    "src/repro/db/relation.py": """
        def scan(relation):
            for row in relation.rows:
                yield row
    """,
    "src/repro/db/index.py": """
        def build(relation):
            return {r[0]: i for i, r in enumerate(relation.rows)}
    """,
    # Out of scope: the rest of the library.
    "src/repro/db_outside.py": """
        def scan(relation):
            return [r for r in relation.rows]
    """,
}

SERVE_CATCH = {
    "src/repro/serve/io_catch.py": """
        import time

        def handler(event, sock, lock):
            event.wait()  # <- blocking-io
            sock.settimeout(None)  # <- blocking-io
            time.sleep(0.1)  # <- blocking-io
            lock.acquire()  # <- blocking-io
    """,
}

SERVE_ALLOW = {
    "src/repro/serve/io_allow.py": """
        import time

        def handler(event, sock, lock, fut):
            event.wait(1.0)
            lock.acquire(blocking=False)
            fut.result(timeout=2)
            sock.settimeout(5.0)
            event.wait()  # serve: allow
            return get()  # a bare function, not a blocking method

        def retry_with_backoff(delay):
            time.sleep(delay)

        def _backoff_helpers():
            def pause(delay):
                time.sleep(delay)
            return pause
    """,
    # Out of scope: the rest of the library.
    "src/repro/serve_outside.py": """
        def wait_for(event):
            event.wait()
    """,
}

PERSIST_CATCH = {
    "src/repro/persist_catch.py": """
        import pickle  # <- persist
        from pickle import dumps  # <- persist

        @register_serializable("core.Broken")
        class Broken:  # <- persist
            def to_dict(self):
                return {}
    """,
}

PERSIST_ALLOW = {
    "src/repro/persist_allow.py": """
        import pickle as fallback  # persist: allow

        @register_serializable("core.Thing")
        class Thing(Serializable):
            pass

        class Base:
            def to_dict(self):
                return {}

            @classmethod
            def from_dict(cls, d):
                return cls()

        @persist.register_serializable("core.Child")
        class Child(Base):
            def to_dict(self):
                return {"child": True}
    """,
    # Same-named class elsewhere, unregistered and without the pair: the
    # registered Child still resolves Base in its own module.
    "src/repro/z_other.py": """
        class Base:
            pass
    """,
    # The spawn backend's transport may pickle.
    "src/repro/exec/transport.py": "import pickle\n",
    # Out of scope: tests may pickle.
    "tests/test_pickles.py": "import pickle\n",
}

FIXTURE = {
    **PRINT_FILES, **HYGIENE_CATCH, **HYGIENE_ALLOW, **SHAPLEY_CATCH,
    **SHAPLEY_ALLOW, **METRIC_CATCH, **METRIC_ALLOW, **BATCH_CATCH,
    **BATCH_ALLOW, **DB_CATCH, **DB_ALLOW, **SERVE_CATCH, **SERVE_ALLOW,
    **PERSIST_CATCH, **PERSIST_ALLOW,
}


def _write(root, files):
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text).lstrip("\n"), encoding="utf-8")


def _lint(root, files):
    """``{(rule, rel, line)}`` the driver reports on ``files``."""
    _write(root, files)
    return {
        (f.rule, os.path.relpath(f.path, root).replace(os.sep, "/"), f.line)
        for f in lint.run(str(root))
    }


def _marked(files):
    """``{(rule, rel, line)}`` of the ``# <- rule`` marks in ``files``."""
    return {
        (match.group(1), rel, n)
        for rel, text in files.items()
        for n, line in enumerate(
            textwrap.dedent(text).lstrip("\n").splitlines(), 1
        )
        for match in _EXPECT.finditer(line)
    }


def test_lint_catches_a_bare_print(tmp_path):
    """Only src/repro is in scope, minus the human-output modules."""
    found = _lint(tmp_path, PRINT_FILES)
    assert found == {("no-print", "src/repro/print_catch.py", 2)}
    assert found == _marked(PRINT_FILES)


def test_hygiene_lint_scans_multiple_roots(tmp_path):
    """The hygiene rule covers the tests as well as the library."""
    found = _lint(tmp_path, HYGIENE_CATCH)
    assert {rel for __, rel, __ in found} == set(HYGIENE_CATCH)


def test_hygiene_lint_catches_silent_handlers(tmp_path):
    found = _lint(tmp_path, HYGIENE_CATCH)
    assert found == _marked(HYGIENE_CATCH)
    reasons = sorted(f.reason for f in lint.run(str(tmp_path)))
    assert reasons == ["bare except:"] * 2 + [
        "except Exception with silent (pass-only) body"
    ] * 2


def test_hygiene_lint_accepts_handled_and_allowlisted(tmp_path):
    assert _lint(tmp_path, HYGIENE_ALLOW) == set()


def test_shapley_lint_catches_bespoke_loops(tmp_path):
    assert _lint(tmp_path, SHAPLEY_CATCH) == _marked(SHAPLEY_CATCH)


def test_shapley_lint_accepts_benign_uses(tmp_path):
    assert _lint(tmp_path, SHAPLEY_ALLOW) == set()


def test_metric_lint_catches_bad_names_and_raw_timing(tmp_path):
    assert _lint(tmp_path, METRIC_CATCH) == _marked(METRIC_CATCH)


def test_metric_lint_accepts_obs_timing_and_marked_lines(tmp_path):
    found = _lint(tmp_path, METRIC_ALLOW)
    assert found == {("metric-names", "src/repro/obs/clock.py", 4)}
    assert found == _marked(METRIC_ALLOW)


def test_batch_lint_catches_per_row_loops(tmp_path):
    assert _lint(tmp_path, BATCH_CATCH) == _marked(BATCH_CATCH)


def test_batch_lint_accepts_marked_loops_and_workers(tmp_path):
    assert _lint(tmp_path, BATCH_ALLOW) == set()


def test_db_scan_lint_catches_row_loops(tmp_path):
    found = _lint(tmp_path, DB_CATCH)
    # The comprehension, the sorted()-wrapped for loop and the scan
    # nested in a legacy_* function.
    assert found == {("db-scans", "src/repro/db/scan_catch.py", line)
                     for line in (2, 4, 11)}
    assert found == _marked(DB_CATCH)


def test_db_scan_lint_accepts_sanctioned_scans(tmp_path):
    assert _lint(tmp_path, DB_ALLOW) == set()


def test_blocking_io_lint_catches_untimed_calls(tmp_path):
    assert _lint(tmp_path, SERVE_CATCH) == _marked(SERVE_CATCH)


def test_blocking_io_lint_accepts_bounded_calls(tmp_path):
    assert _lint(tmp_path, SERVE_ALLOW) == set()


def test_persist_lint_catches_stray_pickle_and_missing_pairs(tmp_path):
    assert _lint(tmp_path, PERSIST_CATCH) == _marked(PERSIST_CATCH)


def test_persist_lint_resolves_names_own_module_first(tmp_path):
    """An unrelated same-named class in another module must not shadow
    a registered class's own bases (db.planner.Predicate vs the
    registered core.Predicate); exec/ and the tests may pickle."""
    assert _lint(tmp_path, PERSIST_ALLOW) == set()


def test_fixture_tree_reports_exactly_the_marked_lines(tmp_path):
    """Every rule over one tree: no rule reports another rule's case."""
    found = _lint(tmp_path, FIXTURE)
    assert found == _marked(FIXTURE)
    assert {rule for rule, __, __ in found} == {r.name for r in lint.RULES}


def test_lint_report_groups_findings_under_hints(tmp_path, capsys):
    _write(tmp_path, {**PRINT_FILES, **SERVE_CATCH})
    findings = lint.run(str(tmp_path))
    assert lint.report(findings) == 1
    err = capsys.readouterr().err.splitlines()
    bad = os.path.join(str(tmp_path), "src", "repro", "print_catch.py")
    assert err[:2] == [
        lint.RULES[0].hint + ":", f"  {bad}:2 bare print() call",
    ]
    assert err[2] == "blocking-io lint failures:" and len(err) == 7
    assert lint.report([]) == 0


def test_repository_passes_every_rule():
    """The repository itself is clean under all eight rules, and the
    driver takes no arguments."""
    result = subprocess.run(
        [sys.executable, LINT], capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    result = subprocess.run(
        [sys.executable, LINT, "src/repro"], capture_output=True, text=True,
    )
    assert result.returncode == 2 and "no arguments" in result.stderr


@pytest.fixture(scope="module")
def repo_findings():
    """One driver run over the repository, shared by the per-rule tests."""
    return lint.run()


def _findings_of(findings, rule):
    assert rule in {r.name for r in lint.RULES}
    return [f"{f.path}:{f.line} {f.reason}" for f in findings if f.rule == rule]


def test_src_repro_is_print_free(repo_findings):
    """Diagnostics must flow through repro.obs, not stdout."""
    assert _findings_of(repo_findings, "no-print") == []


def test_src_repro_has_clean_exception_hygiene(repo_findings):
    """No bare excepts or silent broad handlers in the library, or in
    the test suite."""
    assert _findings_of(repo_findings, "exception-hygiene") == []


def test_src_repro_has_no_bespoke_shapley_loops(repo_findings):
    """Permutation-accumulation loops must live in repro.games only."""
    assert _findings_of(repo_findings, "bespoke-shapley") == []


def test_src_repro_db_has_no_naive_row_scans(repo_findings):
    """db consumers must go through the planner / index layer."""
    assert _findings_of(repo_findings, "db-scans") == []


def test_lint_parses_each_file_once(monkeypatch):
    parsed = []
    real_parse = ast.parse

    def counting_parse(source, filename="<unknown>", *args, **kwargs):
        parsed.append(filename)
        return real_parse(source, filename, *args, **kwargs)

    monkeypatch.setattr(lint.ast, "parse", counting_parse)
    assert lint.run() == []
    files = [
        os.path.join(dirpath, name)
        for top in lint.SCANNED
        for dirpath, __, names in os.walk(os.path.join(REPO_ROOT, top))
        for name in names
        if name.endswith(".py")
    ]
    assert sorted(parsed) == sorted(files)


def test_atomic_write_replaces_not_appends(tmp_path):
    target = tmp_path / "out.txt"
    bench.atomic_write_text(str(target), "first")
    bench.atomic_write_text(str(target), "second")
    assert target.read_text(encoding="utf-8") == "second"
    # No temp droppings left behind.
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_benchmark_result_txt_and_json(tmp_path):
    json_path = bench.write_benchmark_result(
        str(tmp_path),
        "E99_test",
        ["col_a col_b", "1 2"],
        data={"col_a": [1], "col_b": [2]},
        wall_s=0.5,
        counters={"model_calls": 3, "model_rows": 30},
    )
    txt = (tmp_path / "E99_test.txt").read_text(encoding="utf-8")
    assert txt.startswith("==== E99_test ====\n# experiment: E99_test")
    assert "generated:" in txt
    payload = json.loads((tmp_path / "E99_test.json").read_text())
    assert payload["experiment"] == "E99_test"
    assert payload["wall_s"] == 0.5
    assert payload["counters"] == {"model_calls": 3, "model_rows": 30}
    assert payload["data"] == {"col_a": [1], "col_b": [2]}
    assert payload["timestamp"].startswith("20")
    assert json_path.endswith("E99_test.json")


def test_update_bench_summary_merges(tmp_path):
    path = str(tmp_path / "BENCH_summary.json")
    bench.update_bench_summary(path, "E1_a", {"wall_s": 1.0,
                                              "timestamp": "t1"})
    bench.update_bench_summary(path, "E2_b", {"wall_s": 2.0,
                                              "timestamp": "t2"})
    bench.update_bench_summary(path, "E1_a", {"wall_s": 0.5,
                                              "timestamp": "t3"})
    merged = json.loads(open(path, encoding="utf-8").read())
    assert merged["n_experiments"] == 2
    assert merged["experiments"]["E1_a"]["wall_s"] == 0.5
    assert merged["updated"] == "t3"


def test_update_bench_summary_survives_corrupt_file(tmp_path):
    path = tmp_path / "BENCH_summary.json"
    path.write_text("{not json", encoding="utf-8")
    merged = bench.update_bench_summary(str(path), "E1_a",
                                        {"timestamp": "t"})
    assert merged["experiments"]["E1_a"] == {"timestamp": "t"}
    json.loads(path.read_text(encoding="utf-8"))


def test_benchmarks_emit_writes_all_three_artifacts(tmp_path, monkeypatch,
                                                    capsys):
    """Drive benchmarks/conftest.emit end-to-end against temp paths."""
    bench_dir = os.path.join(REPO_ROOT, "benchmarks")
    spec = importlib.util.spec_from_file_location(
        "bench_conftest", os.path.join(bench_dir, "conftest.py")
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path / "results"))
    monkeypatch.setattr(module, "BENCH_SUMMARY",
                        str(tmp_path / "BENCH_summary.json"))
    module.emit("E98_probe", ["a b", "1 2"], data={"a": [1]})
    out = capsys.readouterr().out
    assert "==== E98_probe ====" in out
    payload = json.loads(
        (tmp_path / "results" / "E98_probe.json").read_text()
    )
    assert payload["data"] == {"a": [1]}
    summary = json.loads((tmp_path / "BENCH_summary.json").read_text())
    assert "E98_probe" in summary["experiments"]


def test_bench_compare_passes_on_committed_baseline():
    """The in-repo BENCH_summary must not regress vs the committed baseline."""
    result = subprocess.run(
        [sys.executable, BENCH_COMPARE],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr


def test_bench_compare_detects_regression(tmp_path):
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {"E37_coalition_engine": {"wall_s": 2.0}}
    slowed = {"E37_coalition_engine": {"wall_s": 3.2}}
    found = compare.regressions(baseline, slowed)
    assert len(found) == 1 and "E37_coalition_engine" in found[0]
    # …and the CLI agrees.
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps({"experiments": baseline}))
    fresh_path.write_text(json.dumps({"experiments": slowed}))
    assert compare.main(
        ["--baseline", str(base_path), "--fresh", str(fresh_path)]
    ) == 1


def test_bench_compare_tolerates_noise_and_gaps(tmp_path):
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {
        "E2_kernel_convergence": {"wall_s": 0.02},
        "E3_treeshap_speed": {"wall_s": 10.0},
    }
    fresh = {
        # 10× slower but under the absolute floor: sub-second noise.
        "E2_kernel_convergence": {"wall_s": 0.2},
        # 10% slower: under the relative threshold.
        "E3_treeshap_speed": {"wall_s": 11.0},
        # Not in baseline at all: skipped.
        "E37_coalition_engine": {"wall_s": 99.0},
    }
    assert compare.regressions(baseline, fresh) == []
    # Faster is never a failure.
    assert compare.regressions(
        {"E3_treeshap_speed": {"wall_s": 10.0}},
        {"E3_treeshap_speed": {"wall_s": 1.0}},
    ) == []
    # Missing/corrupt files load as empty and therefore pass.
    assert compare.load_summary(str(tmp_path / "nope.json")) == {}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert compare.load_summary(str(bad)) == {}
    assert compare.main(["--baseline", str(bad), "--fresh", str(bad)]) == 0


def test_bench_compare_warns_on_missing_baseline(tmp_path, capfd):
    """A guarded experiment without a committed baseline is skipped loudly."""
    compare = _load_script(BENCH_COMPARE, "bench_compare")
    baseline = {"E3_treeshap_speed": {"wall_s": 10.0}}
    fresh = {
        "E3_treeshap_speed": {"wall_s": 10.0},
        "E38_fault_tolerance": {"wall_s": 5.0},
    }
    assert compare.missing_baselines(baseline, fresh) == [
        "E38_fault_tolerance"
    ]
    base_path = tmp_path / "base.json"
    fresh_path = tmp_path / "fresh.json"
    base_path.write_text(json.dumps({"experiments": baseline}))
    fresh_path.write_text(json.dumps({"experiments": fresh}))
    # Missing baseline warns but does not fail the guard.
    assert compare.main(
        ["--baseline", str(base_path), "--fresh", str(fresh_path)]
    ) == 0
    err = capfd.readouterr().err
    assert "E38_fault_tolerance" in err and "warning" in err


@pytest.mark.parametrize("value,bucket_positive", [(0.5, True), (100.0, True)])
def test_histogram_buckets_cover(value, bucket_positive):
    from repro.obs.metrics import Histogram

    h = Histogram("t")
    h.observe(value)
    assert (sum(h.buckets) == 1) is bucket_positive
