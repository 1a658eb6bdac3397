"""Hot-path performance lint: PERF001, PERF002.

PR 5/6 established the columnar idiom: propagation, inference and the
corpus substrate run as numpy/CSR array passes over
``ColumnarIndices``, not per-element Python loops over dicts of paths.
Nothing *structural* stops a scalar loop from creeping back in, though
— a helper three calls below ``ASRank.infer`` can quietly walk
``corpus.paths`` one route at a time and the differential tests will
still pass (slowly).  These rules make the idiom machine-checked: any
function *reachable from a hot entry point* (the propagation/inference/
columnar modules) that loops per-element over corpus/route/topology
structures is a finding.  Scalar reference implementations that exist
only to check the fast path live under ``tests/``, outside the linted
tree, so no function in ``src/`` is exempt.
"""

from __future__ import annotations

from typing import List

from repro.devtools.findings import Finding
from repro.devtools.registry import ProgramRule, register


class _HotPathRule(ProgramRule):
    """Shared reachability scaffolding for the PERF family."""

    #: Loop fact kind this rule reports.
    loop_kind = ""

    def check_program(self, project, config) -> List[Finding]:
        roots = project.functions_in_modules(config.perf_entry_modules)
        parents = project.forward_reachable(roots)
        findings: List[Finding] = []
        for fid in sorted(parents):
            record = project.functions[fid]
            loops = [loop for loop in record["loops"]
                     if loop[2] == self.loop_kind]
            if not loops:
                continue
            chain = project.chain(parents, fid)
            entry = project.pretty(chain[0][0])
            for desc, lineno, _kind in loops:
                findings.append(Finding(
                    path=record["path"],
                    line=lineno,
                    col=1,
                    rule_id=self.id,
                    message=self._message(project, fid, desc, entry),
                ))
        return findings

    def _message(self, project, fid, desc, entry) -> str:
        raise NotImplementedError


@register
class ScalarLoopOnHotPathRule(_HotPathRule):
    """PERF001 — per-element loop over a hot structure on a hot path."""

    id = "PERF001"
    name = "per-element Python loop over corpus/route/topology data " \
           "on a hot path"
    loop_kind = "hot"
    rationale = (
        "The substrate's speed comes from columnar array passes: "
        "corpus indexing, ASRank and route propagation all run as "
        "whole-array numpy operations over `ColumnarIndices`/CSR "
        "adjacency (PR 5/6 measured 3x on exactly this change).  A "
        "per-element Python loop over paths, routes or topology links "
        "inside any function reachable from the propagation/inference/"
        "columnar entry points reverts that asymptotic win even though "
        "every test still passes.  Replace the loop with an array pass "
        "over the columnar views; if the loop is genuinely cold or the "
        "structure is tiny, suppress with `# repro: noqa[PERF001]` and "
        "say why."
    )

    def _message(self, project, fid, desc, entry) -> str:
        return (
            f"per-element loop over `{desc}` in {project.pretty(fid)}, "
            f"reachable from hot entry point {entry}; use "
            "ColumnarIndices/CSR array passes"
        )


@register
class IndexWalkOnHotPathRule(_HotPathRule):
    """PERF002 — ``range(len(...))`` index walk on a hot path."""

    id = "PERF002"
    name = "range(len(...)) index walk on a hot path"
    loop_kind = "rangelen"
    rationale = (
        "A `for i in range(len(xs))` walk touches one element per "
        "Python bytecode iteration — the exact pattern the columnar "
        "engine exists to avoid, and the usual first symptom of a "
        "scalar re-write of an array pass.  On functions reachable "
        "from the propagation/inference/columnar entry points, index "
        "arithmetic belongs in numpy (`np.arange`, boolean masks, "
        "`np.add.at`, gather/scatter), which runs the same walk in C "
        "over the whole array at once.  Genuinely small fixed-size "
        "walks can be suppressed with `# repro: noqa[PERF002]`."
    )

    def _message(self, project, fid, desc, entry) -> str:
        return (
            f"`{desc}` index walk in {project.pretty(fid)}, reachable "
            f"from hot entry point {entry}; vectorize with numpy "
            "array passes"
        )
