"""The configuration table (``repro.config``): one rule for every setting.

* every ``REPRO_*`` row, parametrized: unset gives today's default, each
  accepted spelling its value, a malformed value an
  :class:`InputValidationError` naming the variable, and an explicit
  argument beats the environment;
* the consumers apply it: bad budgets, deadlines and ports fail loudly,
  ``ServeConfig`` fields resolve through their rows;
* the CLI: the global flags come from the table, and a bad value exits 2
  with one line only when a command reads it;
* no module but ``repro.config`` reads ``os.environ``;
* README's configuration table is the one rendered from the rows.
"""

from __future__ import annotations

import ast
import dataclasses
import os
import pathlib
import subprocess
import sys

import pytest

from repro.config import SETTINGS, effective, setting
from repro.robust import InputValidationError

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
ROWS = list(SETTINGS.values())
IDS = [row.name for row in ROWS]

# The defaults the variables had before the table existed; ``None`` is
# "unset", where the consumer's documented fallback applies.
DEFAULTS = {
    "REPRO_MAX_BATCH_ROWS": 65_536,
    "REPRO_RETRIES": 2,
    "REPRO_BACKOFF": 0.05,
    "REPRO_DEADLINE_S": None,
    "REPRO_QUERY_BUDGET": None,
    "REPRO_BACKEND": "serial",
    "REPRO_N_PROCS": None,
    "REPRO_DB_INTERVAL_MAX_OCC": None,
    "REPRO_CACHE_SNAPSHOT": None,
    "REPRO_REGISTRY_DIR": ".repro_registry",
    "REPRO_OBS": True,
    "REPRO_TRACE_SAMPLE": 1.0,
    "REPRO_METRICS_PORT": None,
    "REPRO_LEDGER": None,
    "REPRO_SERVE_PORT": 0,
    "REPRO_SERVE_MAX_INFLIGHT": 4,
    "REPRO_SERVE_QUEUE_LIMIT": 16,
    "REPRO_SERVE_DEADLINE_S": 10.0,
    "REPRO_SERVE_CACHE_SIZE": 512,
    "REPRO_SERVE_CACHE_TTL_S": 300.0,
    "REPRO_SERVE_COALESCE": True,
    "REPRO_SERVE_BREAKER_THRESHOLD": 5,
    "REPRO_SERVE_BREAKER_COOLDOWN_S": 5.0,
    "REPRO_SERVE_LADDER": True,
    "REPRO_SERVE_DEGRADE_AT": 0.5,
    "REPRO_SERVE_SHED_AT": 0.85,
    "REPRO_SERVE_SOCKET_TIMEOUT_S": 30.0,
}


def spellings(row) -> list[tuple[str, object]]:
    """Raw strings the row accepts, with the value each parses to."""
    if row.type is bool:
        return [("1", True), ("true", True), (" On ", True), ("YES", True),
                ("0", False), ("False", False), ("off", False), ("no", False)]
    if row.choices:
        last = row.choices[-1]
        return [(c, c) for c in row.choices] + [(f" {last.title()} ", last)]
    if row.type is str:
        return [("some/file.json", "some/file.json"), (" padded ", "padded")]
    lo, hi = row.range or (1, None)
    values = [row.type(v) for v in ([lo, lo + 3] if hi is None else [lo, hi])]
    cases = [(f" {v} ", v) for v in values]
    if row.type is float:
        cases += [("2.5", 2.5), ("1e-3", 0.001)]
    return cases


def malformed(row) -> list[str]:
    """Raw strings the row must reject."""
    if row.type is bool:
        return ["maybe", "2", "enabled"]
    if row.choices:
        return ["fibers", "serial,thread"]
    bad = {int: ["50k", "1.5", "abc"], float: ["10s", "nan", "abc"]}[row.type]
    if row.range is not None:
        lo, hi = row.range
        bad.append(str(lo - 1))
        if hi is not None:
            bad.append(str(hi + 1))
    return bad


def test_the_table_has_every_variable_once():
    assert len(ROWS) == len(SETTINGS) == len(DEFAULTS) == 27
    assert set(SETTINGS) == set(DEFAULTS)
    for row in ROWS:
        assert row.type in (bool, int, float, str)
        assert row.doc and "\n" not in row.doc
        assert not (row.flag and row.field)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_unset_gives_todays_default(row, monkeypatch):
    monkeypatch.delenv(row.name, raising=False)
    assert setting(row.name) == DEFAULTS[row.name]
    monkeypatch.setenv(row.name, "   ")  # blank counts as unset
    assert setting(row.name) == DEFAULTS[row.name]


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_each_accepted_spelling_parses(row, monkeypatch):
    for raw, want in spellings(row):
        monkeypatch.setenv(row.name, raw)
        got = setting(row.name)
        assert got == want and type(got) is type(want), (raw, got)


@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.type is not str or row.choices],
    ids=[row.name for row in ROWS if row.type is not str or row.choices],
)
def test_malformed_values_raise_naming_the_variable(row, monkeypatch):
    for raw in malformed(row):
        monkeypatch.setenv(row.name, raw)
        with pytest.raises(InputValidationError, match=row.name) as err:
            setting(row.name)
        assert repr(raw) in str(err.value)
        assert row.accepts() in str(err.value)


@pytest.mark.parametrize("row", ROWS, ids=IDS)
def test_explicit_argument_beats_the_environment(row, monkeypatch):
    raw, value = spellings(row)[0]
    monkeypatch.setenv(row.name, raw)
    explicit = object()
    assert setting(row.name, explicit) is explicit
    assert setting(row.name) == value


def test_effective_reports_value_and_source(monkeypatch):
    monkeypatch.delenv("REPRO_RETRIES", raising=False)
    monkeypatch.setenv("REPRO_SERVE_CACHE_SIZE", "9")
    snapshot = effective()
    assert set(snapshot) == set(SETTINGS)
    assert snapshot["REPRO_RETRIES"] == {"value": 2, "source": "default"}
    assert snapshot["REPRO_SERVE_CACHE_SIZE"] == {"value": 9,
                                                  "source": "env"}


# ------------------------------------------------------------ consumers


@pytest.mark.parametrize("name, raw", [
    ("REPRO_QUERY_BUDGET", "50k"),
    ("REPRO_DEADLINE_S", "10s"),
])
def test_malformed_budgets_fail_every_explanation(name, raw, monkeypatch):
    from repro.robust import guard_scope

    monkeypatch.setenv(name, raw)
    with pytest.raises(InputValidationError, match=name):
        with guard_scope():
            pass


def test_non_positive_budgets_still_mean_none(monkeypatch):
    from repro.robust import guard_scope

    monkeypatch.setenv("REPRO_QUERY_BUDGET", "0")
    monkeypatch.setenv("REPRO_DEADLINE_S", "-1")
    with guard_scope() as scope:
        assert (scope.deadline_s, scope.query_budget) == (None, None)


def test_serve_config_fields_resolve_through_their_rows(monkeypatch):
    from repro.serve import ServeConfig

    field_rows = [row for row in ROWS if row.field]
    assert len(dataclasses.fields(ServeConfig)) == 16
    assert len(field_rows) == 12
    for row in field_rows:
        monkeypatch.delenv(row.name, raising=False)
    assert all(getattr(ServeConfig(), row.field) == row.default
               for row in field_rows)
    monkeypatch.setenv("REPRO_SERVE_CACHE_SIZE", "7")
    monkeypatch.setenv("REPRO_SERVE_LADDER", "off")
    config = ServeConfig(cache_ttl_s=1.5)
    assert (config.cache_size, config.ladder_enabled) == (7, False)
    assert ServeConfig(cache_size=3).cache_size == 3
    assert config.cache_ttl_s == 1.5
    monkeypatch.setenv("REPRO_SERVE_MAX_INFLIGHT", "0")
    with pytest.raises(InputValidationError,
                       match="REPRO_SERVE_MAX_INFLIGHT"):
        ServeConfig()


# ------------------------------------------------------------------ CLI


def _cli(*argv: str, **env: str) -> subprocess.CompletedProcess:
    environ = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
    environ.update(env, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=ROOT, env=environ,
        capture_output=True, text=True, timeout=120,
    )


def test_cli_global_flags_come_from_the_table(monkeypatch):
    from repro.cli import main

    flagged = [row for row in ROWS if row.flag and row.flag.startswith("--")]
    assert len(flagged) == 6
    # Each flag takes a value of its row's type; no row is an on/off switch.
    assert all(row.type is not bool for row in flagged)
    for row in flagged:
        monkeypatch.setenv(row.name, "")  # restored after the test
    assert main(["--retries", "3", "--backend", "thread",
                 "--deadline-s", "2.5", "info"]) == 0
    assert setting("REPRO_RETRIES") == 3
    assert setting("REPRO_BACKEND") == "thread"
    assert setting("REPRO_DEADLINE_S") == 2.5


def test_cli_bad_value_exits_2_only_when_read():
    info = _cli("info", REPRO_SERVE_PORT="abc")
    assert info.returncode == 0, info.stderr
    serve = _cli("serve", REPRO_SERVE_PORT="abc")
    assert serve.returncode == 2
    lines = serve.stderr.strip().splitlines()
    assert len(lines) == 1 and "REPRO_SERVE_PORT" in lines[0]
    assert "Traceback" not in serve.stderr


# -------------------------------------------------------- one reader


_ENV_NAMES = {"environ", "environb", "getenv", "getenvb"}


def _env_reads(path: pathlib.Path) -> list[int]:
    """Lines reading the environment; the CLI may write flags into it."""
    tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
    writes = set()
    if path.name == "cli.py":
        writes = {id(node.value) for node in ast.walk(tree)
                  if isinstance(node, ast.Subscript)
                  and isinstance(node.ctx, ast.Store)}
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            if any(alias.name in _ENV_NAMES for alias in node.names):
                lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute) and node.attr in _ENV_NAMES
              and isinstance(node.value, ast.Name) and node.value.id == "os"
              and id(node) not in writes):
            lines.append(node.lineno)
    return lines


def test_only_the_config_module_reads_the_environment():
    offences = [
        f"{path.relative_to(ROOT)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path != SRC / "config.py"
        for line in _env_reads(path)
    ]
    assert offences == []
    assert _env_reads(SRC / "config.py")  # the scan does see reads


# ------------------------------------------------------------- README


def render_table() -> str:
    """README's configuration table, rendered from the rows."""
    lines = ["| Variable | Accepts | Default | Flag or field | Meaning |",
             "|---|---|---|---|---|"]
    for row in ROWS:
        if row.default is None:
            default = "unset"
        elif row.type is bool:
            default = "on" if row.default else "off"
        else:
            default = f"`{row.default}`"
        backs = (f"`{row.flag}`" if row.flag
                 else f"`ServeConfig.{row.field}`" if row.field else "")
        cells = [f"`{row.name}`", "bool" if row.type is bool
                 else row.accepts(), default, backs, row.doc]
        lines.append("| " + " | ".join(cell.replace("|", "\\|")
                                       for cell in cells) + " |")
    return "\n".join(lines)


def test_readme_table_is_rendered_from_the_rows():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    begin, end = "<!-- config-table:begin -->\n", "<!-- config-table:end -->"
    block = text[text.index(begin) + len(begin):text.index(end)]
    assert block.strip() == render_table()
