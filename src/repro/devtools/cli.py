"""The ``repro lint`` subcommand.

Usage::

    repro lint                          # lint the default trees
    repro lint src tests/devtools       # explicit targets
    repro lint --format json            # CI gate output
    repro lint --whole-program          # + interprocedural FLOW/PERF/CONC
    repro lint --call-graph repro.bgp   # dump resolved call edges
    repro lint --write-baseline         # grandfather current findings
    repro lint --explain FLOW101        # print a rule's rationale
    repro lint --list-rules             # catalog of registered rules

Exit codes: ``0`` clean (or baseline written), ``1`` at least one
non-baselined finding, ``2`` usage/IO error.  The default targets are
``src``, ``benchmarks`` and ``examples`` (whichever exist), else the
current directory — so the command does the right thing from the
repository root with zero arguments.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.devtools.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.devtools.engine import (
    LintConfig,
    _relpath,
    discover_files,
    run_lint,
)
from repro.devtools.registry import all_rules
from repro.devtools.reporters import render_json, render_text

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument("paths", nargs="*", default=None,
                        help="files/directories to lint "
                             "(default: ./src if present, else .)")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="report format")
    parser.add_argument("--baseline", default=None, metavar="FILE",
                        help="baseline file of grandfathered findings "
                             f"(default: ./{DEFAULT_BASELINE_NAME} "
                             "when present)")
    parser.add_argument("--write-baseline", action="store_true",
                        default=False,
                        help="record current findings as the baseline "
                             "and exit 0")
    parser.add_argument("--select", default=None, metavar="IDS",
                        help="comma-separated rule ids to run")
    parser.add_argument("--ignore", default=None, metavar="IDS",
                        help="comma-separated rule ids to skip")
    parser.add_argument("--dep-allow", default=None, metavar="NAMES",
                        help="extra imports DEP001 accepts, bare roots "
                             "or dotted submodules (comma-separated)")
    parser.add_argument("--whole-program", action="store_true",
                        default=False,
                        help="also run the interprocedural FLOW/PERF/"
                             "CONC rules over the project call graph")
    parser.add_argument("--call-graph", nargs="?", const="", default=None,
                        metavar="PREFIX",
                        help="print resolved call edges (optionally "
                             "filtered to callers under PREFIX) and exit")
    parser.add_argument("--analysis-cache", default=None, metavar="DIR",
                        help="directory for whole-program summary cache "
                             "(default: $REPRO_CACHE_DIR/analysis or "
                             "~/.cache/repro/analysis)")
    parser.add_argument("--verbose", action="store_true", default=False,
                        help="also show baselined findings (text format)")
    parser.add_argument("--list-rules", action="store_true", default=False,
                        help="print the rule catalog and exit")
    parser.add_argument("--explain", default=None, metavar="RULE_ID",
                        help="print one rule's rationale and exit")


def _split_ids(raw: Optional[str]) -> Optional[List[str]]:
    if raw is None:
        return None
    return [part.strip().upper() for part in raw.split(",") if part.strip()]


def _default_paths() -> List[str]:
    """``src`` + ``benchmarks`` + ``examples`` (whichever exist).

    Falls back to the current directory when none is present, so the
    zero-argument invocation works both from the repository root and
    from an arbitrary project.
    """
    present = [name for name in ("src", "benchmarks", "examples")
               if Path(name).is_dir()]
    return present or ["."]


def _summary_cache(args: argparse.Namespace):
    """The SummaryCache for this invocation."""
    from repro.devtools.analysis.cache import (
        SummaryCache,
        default_cache_root,
    )
    root = (Path(args.analysis_cache) if args.analysis_cache
            else default_cache_root())
    return SummaryCache(root)


def _resolve_baseline(args: argparse.Namespace) -> Path:
    if args.baseline is not None:
        return Path(args.baseline)
    return Path(DEFAULT_BASELINE_NAME)


def _run_call_graph(paths: List[str], config: LintConfig,
                    args: argparse.Namespace) -> int:
    """``--call-graph``: dump the resolved project call edges."""
    from repro.devtools.analysis.project import build_project

    items = []
    for path in discover_files(paths):
        items.append((_relpath(path),
                      path.read_text(encoding="utf-8"), None))
    project, stats = build_project(items, config, _summary_cache(args))
    for line in project.render_edges(args.call_graph):
        print(line)
    print(f"# {stats['modules']} modules, {stats['functions']} "
          f"functions, {stats['call_edges']} call edges",
          file=sys.stderr)
    return EXIT_CLEAN


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule_id, rule_cls in sorted(all_rules().items()):
            print(f"{rule_id:10s} {rule_cls.name}")
        return EXIT_CLEAN
    if args.explain is not None:
        rules = all_rules()
        rule_id = args.explain.strip().upper()
        if rule_id not in rules:
            print(f"unknown rule id {rule_id!r} "
                  f"(known: {', '.join(sorted(rules))})", file=sys.stderr)
            return EXIT_ERROR
        rule_cls = rules[rule_id]
        print(f"{rule_id} — {rule_cls.name}\n")
        print(rule_cls.rationale)
        return EXIT_CLEAN

    dep_allow = [part.lower() for part in _split_ids(args.dep_allow) or ()]
    config = LintConfig(
        select=_split_ids(args.select),
        ignore=_split_ids(args.ignore),
        extra_allowed_imports=tuple(dep_allow),
    )
    paths = args.paths or _default_paths()
    baseline_path = _resolve_baseline(args)

    try:
        if args.call_graph is not None:
            return _run_call_graph(paths, config, args)
        cache = _summary_cache(args) if args.whole_program else None
        if args.write_baseline:
            # Findings are computed against an empty baseline, recorded
            # verbatim, and the run reports clean: the whole point is
            # to draw the line here.
            result = run_lint(paths, config, baseline=Baseline(),
                              whole_program=args.whole_program,
                              summary_cache=cache)
            Baseline.from_findings(result.findings).dump(baseline_path)
            print(f"wrote {len(result.findings)} finding(s) to "
                  f"{baseline_path}", file=sys.stderr)
            return EXIT_CLEAN
        baseline = Baseline.load(baseline_path)
        result = run_lint(paths, config, baseline=baseline,
                          whole_program=args.whole_program,
                          summary_cache=cache)
    except (OSError, ValueError) as exc:
        # OSError covers missing/unreadable targets (FileNotFoundError,
        # PermissionError, IsADirectoryError); ValueError covers
        # undecodable bytes and malformed baselines.  All are usage/
        # environment errors, not findings — report cleanly, exit 2.
        print(f"repro lint: {exc}", file=sys.stderr)
        return EXIT_ERROR

    if args.format == "json":
        print(render_json(result))
    else:
        print(render_text(result, verbose=args.verbose))
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description="AST-based contract linter for the repro codebase",
    )
    add_lint_arguments(parser)
    return run_lint_command(parser.parse_args(argv))


if __name__ == "__main__":
    raise SystemExit(main())
