"""Engine/CLI integration: exit codes, formats, baseline workflow, and
the self-check that the repo's own source is contract-clean."""

import json
from pathlib import Path

from repro.cli import main as repro_main
from repro.devtools import LintConfig, run_lint
from repro.devtools.cli import main as lint_main

REPO_ROOT = Path(__file__).parents[2]
FIXTURES = Path(__file__).parent / "fixtures"
SRC = REPO_ROOT / "src" / "repro"


# ---------------------------------------------------------------------------
# the self-check: the linter accepts the codebase it polices
# ---------------------------------------------------------------------------

def test_repo_source_is_clean_with_empty_baseline():
    result = run_lint([SRC], LintConfig())
    assert result.findings == [], [
        f"{f.location()} {f.rule_id} {f.message}" for f in result.findings
    ]
    assert result.files_checked > 80  # the whole package was actually seen


def test_service_layer_satisfies_async_contracts():
    """Satellite check: the event-loop layer (`repro.service`) carries
    no blocking calls in coroutines and no fire-and-forget tasks —
    the blocking work all sits behind the pool's executor."""
    result = run_lint(
        [SRC / "service"],
        LintConfig(select=["ASYNC001", "ASYNC002"]),
    )
    assert result.findings == []
    assert result.files_checked >= 7


def test_export_layer_satisfies_ordering_contract():
    """Satellite check: the serialisers feeding bundles and the query
    service (`repro.analysis.export`, `repro.datasets`) never let
    set/dict-view ordering reach an output sink."""
    result = run_lint(
        [SRC / "analysis", SRC / "datasets"],
        LintConfig(select=["DET002"]),
    )
    assert result.findings == []


def test_committed_baseline_is_empty_and_current():
    baseline_path = REPO_ROOT / "lint-baseline.json"
    document = json.loads(baseline_path.read_text(encoding="utf-8"))
    assert document["entries"] == []


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_exits_nonzero_on_fixture_tree(capsys):
    code = repro_main(["lint", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    for rule_id in ("DET001", "DET002", "DET003", "ASYNC001", "ASYNC002",
                    "PICKLE001", "DEP001", "API001"):
        assert rule_id in out


def test_cli_exits_zero_on_clean_tree(capsys):
    code = repro_main(["lint", str(SRC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_cli_json_format_is_parseable_and_sorted(capsys):
    code = repro_main(["lint", "--format", "json", str(FIXTURES)])
    document = json.loads(capsys.readouterr().out)
    assert code == 1
    assert document["counts"]["findings"] == len(document["findings"])
    locations = [
        (f["path"], f["line"], f["col"], f["rule"])
        for f in document["findings"]
    ]
    assert locations == sorted(locations)


def test_cli_select_restricts_rules(capsys):
    code = repro_main(["lint", "--select", "DEP001", str(FIXTURES)])
    out = capsys.readouterr().out
    assert code == 1
    rule_ids = {
        line.split()[1] for line in out.splitlines()
        if line and ":" in line.split()[0]
    }
    assert rule_ids == {"DEP001"}


def test_cli_missing_path_is_a_usage_error(capsys):
    code = repro_main(["lint", "no/such/path.py"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no such file" in err


def test_cli_unknown_rule_is_a_usage_error(capsys):
    code = repro_main(["lint", "--select", "BOGUS9", str(FIXTURES)])
    assert code == 2


def test_cli_explain_and_list_rules(capsys):
    assert repro_main(["lint", "--explain", "det002"]) == 0
    out = capsys.readouterr().out
    assert "DET002" in out and "sorted" in out
    assert repro_main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    assert "PICKLE001" in out


def test_standalone_entry_point_matches_subcommand(capsys):
    code = lint_main([str(FIXTURES / "dep001_ok.py")])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


# ---------------------------------------------------------------------------
# baseline workflow end to end
# ---------------------------------------------------------------------------

def test_write_baseline_then_lint_is_clean(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    bad = tmp_path / "legacy.py"
    bad.write_text("import random\n", encoding="utf-8")

    assert repro_main(["lint", "legacy.py"]) == 1
    capsys.readouterr()

    assert repro_main(["lint", "--write-baseline", "legacy.py"]) == 0
    capsys.readouterr()
    assert (tmp_path / "lint-baseline.json").exists()

    # Grandfathered: the same finding no longer fails the gate ...
    assert repro_main(["lint", "legacy.py"]) == 0
    capsys.readouterr()

    # ... but a NEW finding still does.
    bad.write_text("import random\nfrom random import choice\n",
                   encoding="utf-8")
    assert repro_main(["lint", "legacy.py"]) == 1


def test_write_baseline_is_idempotent(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "legacy.py").write_text(
        "import requests\nimport random\n", encoding="utf-8"
    )
    assert repro_main(["lint", "--write-baseline", "legacy.py"]) == 0
    first = (tmp_path / "lint-baseline.json").read_bytes()
    assert repro_main(["lint", "--write-baseline", "legacy.py"]) == 0
    second = (tmp_path / "lint-baseline.json").read_bytes()
    capsys.readouterr()
    assert first == second


def test_stale_baseline_entries_surface_but_do_not_fail(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    target = tmp_path / "legacy.py"
    target.write_text("import random\n", encoding="utf-8")
    assert repro_main(["lint", "--write-baseline", "legacy.py"]) == 0
    capsys.readouterr()

    target.write_text("VALUE = 1\n", encoding="utf-8")  # debt paid off
    code = repro_main(["lint", "legacy.py"])
    out = capsys.readouterr().out
    assert code == 0
    assert "stale baseline" in out


# ---------------------------------------------------------------------------
# whole-program mode and hardened path handling
# ---------------------------------------------------------------------------

def test_cli_whole_program_repo_is_clean(capsys, tmp_path):
    code = repro_main(["lint", "--whole-program",
                       "--analysis-cache", str(tmp_path / "c"),
                       str(SRC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "whole-program:" in out

    # The warm re-run hits the cache for every module.
    code = repro_main(["lint", "--whole-program", "--format", "json",
                       "--analysis-cache", str(tmp_path / "c"),
                       str(SRC)])
    document = json.loads(capsys.readouterr().out)
    assert code == 0
    assert document["findings"] == []
    assert document["analysis"]["hits"] == document["analysis"]["modules"]


def test_cli_call_graph_dump(capsys, tmp_path):
    code = repro_main(["lint", "--analysis-cache", str(tmp_path / "c"),
                       "--call-graph", "repro.bgp",
                       str(SRC / "bgp")])
    captured = capsys.readouterr()
    assert code == 0
    assert "->" in captured.out
    assert all(line.startswith("repro.bgp")
               for line in captured.out.splitlines() if line)


def test_cli_default_paths_cover_benchmarks_and_examples(
    capsys, monkeypatch
):
    monkeypatch.chdir(REPO_ROOT)
    code = repro_main(["lint"])
    out = capsys.readouterr().out
    assert code == 0
    n_files = int(out.rsplit(" in ", 1)[1].split()[0])
    src_only = run_lint([SRC], LintConfig()).files_checked
    assert n_files > src_only  # benchmarks/ and examples/ were included


def test_cli_undecodable_file_is_a_usage_error(tmp_path, capsys):
    target = tmp_path / "binary.py"
    target.write_bytes(b"\xff\xfe\x00junk")
    code = repro_main(["lint", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "repro lint:" in err
    assert "Traceback" not in err


def test_cli_unreadable_file_is_a_usage_error(
    tmp_path, capsys, monkeypatch
):
    target = tmp_path / "locked.py"
    target.write_text("VALUE = 1\n", encoding="utf-8")

    real_read_text = Path.read_text

    def deny(self, *args, **kwargs):
        if self.name == "locked.py":
            raise PermissionError(13, "Permission denied", str(self))
        return real_read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", deny)
    code = repro_main(["lint", str(target)])
    err = capsys.readouterr().err
    assert code == 2
    assert "Permission denied" in err
    assert "Traceback" not in err
