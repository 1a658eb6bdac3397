"""Whole-program rule coverage over the multi-file fixture packages.

Each package under ``fixtures/`` exercises one rule family across
module boundaries — the configurations a single-file pass cannot see.
"""

from pathlib import Path

import pytest

from repro.devtools import LintConfig, run_lint
from repro.devtools.registry import all_rules

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (fixture package, expected finding count, clean package)
PROGRAM_CASES = {
    "FLOW101": ("flowpkg", 1, "flowpkg_ok"),
    "FLOW102": ("flowpkg", 1, "flowpkg_ok"),
    "FLOW103": ("flowpkg", 1, "flowpkg_ok"),
    "PERF001": ("perfpkg", 1, "flowpkg_ok"),
    "PERF002": ("perfpkg", 1, "flowpkg_ok"),
    "CONC001": ("concpkg", 1, "flowpkg_ok"),
    "CONC002": ("concpkg", 1, "flowpkg_ok"),
    "CONC003": ("concpkg", 1, "flowpkg_ok"),
}


def wp_lint(package, rule_id):
    config = LintConfig(
        select=[rule_id],
        perf_entry_modules=("perfpkg.engine",),
    )
    return run_lint([FIXTURES / package], config, whole_program=True)


@pytest.mark.parametrize("rule_id", sorted(PROGRAM_CASES))
def test_bad_package_triggers_rule(rule_id):
    package, expected_count, _ = PROGRAM_CASES[rule_id]
    result = wp_lint(package, rule_id)
    assert [f.rule_id for f in result.findings] == \
        [rule_id] * expected_count
    for finding in result.findings:
        assert finding.line >= 1 and finding.col >= 1
        assert f"fixtures/{package}/" in finding.path


@pytest.mark.parametrize("rule_id", sorted(PROGRAM_CASES))
def test_ok_package_is_clean(rule_id):
    _, _, ok = PROGRAM_CASES[rule_id]
    assert wp_lint(ok, rule_id).findings == []


def test_every_program_rule_has_a_fixture_case():
    program_scope = [rule_id for rule_id, rule_cls in all_rules().items()
                     if rule_cls.scope == "program"]
    assert sorted(program_scope) == sorted(PROGRAM_CASES)


def test_program_rules_are_silent_without_whole_program():
    for rule_id, (package, _, _) in sorted(PROGRAM_CASES.items()):
        config = LintConfig(select=[rule_id],
                            perf_entry_modules=("perfpkg.engine",))
        result = run_lint([FIXTURES / package], config)
        assert result.findings == [], rule_id


# ----------------------------------------------------------------------
# The acceptance scenario: per-file DET rules pass the taint package
# clean, FLOW1xx catches the cross-module flows.
# ----------------------------------------------------------------------

def test_flow_catches_what_per_file_det_misses():
    det = LintConfig(select=["DET001", "DET002", "DET003"])
    per_file = run_lint([FIXTURES / "flowpkg"], det)
    assert per_file.findings == []

    flow = LintConfig(select=["FLOW101", "FLOW102", "FLOW103"])
    wp = run_lint([FIXTURES / "flowpkg"], flow, whole_program=True)
    assert sorted(f.rule_id for f in wp.findings) == \
        ["FLOW101", "FLOW102", "FLOW103"]


def test_flow_message_spells_out_the_chain():
    result = wp_lint("flowpkg", "FLOW101")
    (finding,) = result.findings
    assert finding.path.endswith("flowpkg/keys.py")
    assert "flowpkg.keys:corpus_fingerprint" in finding.message
    assert "flowpkg.middle:mixed" in finding.message
    assert "flowpkg.entropy:noise" in finding.message


def test_perf_unreachable_negative():
    result = wp_lint("perfpkg", "PERF001")
    (finding,) = result.findings
    # Only the reachable kernel fires: offline_report is unreachable
    # from the entry.
    assert "accumulate" in finding.message
    assert "offline_report" not in finding.message


def test_conc003_spares_the_initializer_path():
    result = wp_lint("concpkg", "CONC003")
    (finding,) = result.findings
    assert "tally_chunk" in finding.message
    assert "prime_worker" not in finding.message


def test_program_findings_respect_noqa(tmp_path):
    package = tmp_path / "noqapkg"
    package.mkdir()
    (package / "__init__.py").write_text("", encoding="utf-8")
    (package / "inner.py").write_text(
        "import time\n\n\ndef stamp():\n    return time.time()\n",
        encoding="utf-8",
    )
    (package / "keys.py").write_text(
        "from noqapkg.inner import stamp\n\n\n"
        "def build_key(name):\n"
        "    return f\"{name}-{stamp()}\"  # repro: noqa[FLOW102]\n",
        encoding="utf-8",
    )
    config = LintConfig(select=["FLOW102"])
    result = run_lint([package], config, whole_program=True)
    assert result.findings == []
    assert result.suppressed == 1
    # Without the program pass the marker must not be called unused.
    per_file = run_lint([package], LintConfig())
    assert "SUP001" not in {f.rule_id for f in per_file.findings}


def test_whole_program_repo_tree_is_clean():
    """The committed tree must audit clean under --whole-program."""
    root = Path(__file__).resolve().parents[2]
    targets = [root / "src", root / "benchmarks", root / "examples"]
    result = run_lint([p for p in targets if p.is_dir()], LintConfig(),
                      whole_program=True)
    assert result.findings == []
    assert result.analysis is not None
    assert result.analysis["modules"] > 100
    assert result.analysis["call_edges"] > 500
