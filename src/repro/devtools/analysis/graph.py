"""The whole-program graph assembled from per-module summaries.

:class:`ProjectGraph` joins the module summaries into one namespace:

* a **module index** (dotted name -> summary) with re-export chasing,
  so ``from repro import build_scenario`` resolves through the package
  ``__init__`` to the defining module;
* a **call graph** — ``module::qualname`` function ids with edges
  carrying the call-site line, resolved conservatively by name (bare
  names against enclosing scopes and module defs, dotted names through
  the import alias map, ``self.x(...)`` against the enclosing class,
  ``Class(...)`` to ``Class.__init__``).  Calls that cannot be resolved
  statically produce *no* edge — the analysis under-approximates rather
  than guesses, which keeps every reported chain real;
* **executor edges** — the callables handed to thread/process pools and
  ``run_in_executor``, kept separate from plain calls because they
  switch execution context (the property the CONC rules reason about).

All iteration orders are sorted so reachability, chains and every
downstream finding are byte-stable across runs.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Reachability result: function id -> (parent id or None, call line in
#: parent).  A parent of None marks a BFS root.
Parents = Dict[str, Tuple[Optional[str], int]]


class ProjectGraph:
    """Project-wide namespace, call graph and executor edges."""

    def __init__(self, summaries: Iterable[Dict[str, Any]]):
        self.summaries: Dict[str, Dict[str, Any]] = {
            summary["path"]: summary for summary in summaries
        }
        #: module name -> summary (first path in sorted order wins on
        #: the rare collision of equally-named modules).
        self.modules: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.summaries):
            summary = self.summaries[path]
            self.modules.setdefault(summary["module"], summary)
        #: function id -> function record (+ module/path context).
        self.functions: Dict[str, Dict[str, Any]] = {}
        for module in sorted(self.modules):
            summary = self.modules[module]
            for record in summary["functions"]:
                fid = f"{module}::{record['qualname']}"
                entry = dict(record)
                entry["module"] = module
                entry["path"] = summary["path"]
                self.functions.setdefault(fid, entry)
        #: caller id -> [(callee id, call line), ...]
        self.calls: Dict[str, List[Tuple[str, int]]] = {}
        #: [(kind, caller id, callee id, line), ...] sorted.
        self.executor_edges: List[Tuple[str, str, str, int]] = []
        self._build_edges()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build_edges(self) -> None:
        for fid in sorted(self.functions):
            record = self.functions[fid]
            summary = self.modules[record["module"]]
            edges: List[Tuple[str, int]] = []
            for name, lineno, _nargs in record["calls"]:
                callee = self._resolve(summary, record["qualname"], name)
                if callee is not None and callee != fid:
                    edges.append((callee, lineno))
            if edges:
                self.calls[fid] = edges
            for kind, name, lineno in record["executor_refs"]:
                callee = self._resolve(summary, record["qualname"], name)
                if callee is not None:
                    self.executor_edges.append(
                        (kind, fid, callee, lineno))
        self.executor_edges.sort()

    def _resolve(self, summary: Dict[str, Any], caller_qualname: str,
                 raw: str) -> Optional[str]:
        """The function id ``raw`` refers to inside ``caller``, if any."""
        module = summary["module"]
        defs = summary["defs"]
        classes = summary["classes"]
        imports = summary["imports"]
        parts = raw.split(".")
        # self.method(...) against the enclosing class
        if parts[0] == "self":
            if len(parts) == 2:
                cls = self._enclosing_class(summary, caller_qualname)
                if cls is not None and f"{cls}.{parts[1]}" in defs:
                    return f"{module}::{cls}.{parts[1]}"
            return None
        if len(parts) == 1:
            name = parts[0]
            # nested defs visible from the caller's lexical scopes
            segments = caller_qualname.split(".")
            for cut in range(len(segments), 0, -1):
                candidate = ".".join(segments[:cut] + [name])
                if candidate in defs:
                    return f"{module}::{candidate}"
            if name in defs:
                return f"{module}::{name}"
            if name in classes:
                init = f"{name}.__init__"
                return f"{module}::{init}" if init in defs else None
            target = imports.get(name)
            if target is not None:
                return self._resolve_dotted(target)
            return None
        # dotted: local Class.method, then the import alias map
        if raw in defs:
            return f"{module}::{raw}"
        first = parts[0]
        if first in imports:
            dotted = ".".join([imports[first]] + parts[1:])
            return self._resolve_dotted(dotted)
        return None

    def _enclosing_class(self, summary: Dict[str, Any],
                         caller_qualname: str) -> Optional[str]:
        classes = set(summary["classes"])
        segments = caller_qualname.split(".")
        for cut in range(len(segments) - 1, 0, -1):
            candidate = ".".join(segments[:cut])
            if candidate in classes:
                return candidate
        return None

    def _resolve_dotted(self, dotted: str,
                        depth: int = 0) -> Optional[str]:
        """Resolve an absolute dotted name to a function id.

        Tries the longest module prefix first, then one level of
        re-export chasing (package ``__init__`` aliasing a submodule
        def), bounded to keep alias cycles from looping.
        """
        if depth > 8:
            return None
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            module = ".".join(parts[:cut])
            summary = self.modules.get(module)
            if summary is None:
                continue
            rest = ".".join(parts[cut:])
            if rest in summary["defs"]:
                return f"{module}::{rest}"
            if rest in summary["classes"]:
                init = f"{rest}.__init__"
                if init in summary["defs"]:
                    return f"{module}::{init}"
                return None
            target = summary["imports"].get(parts[cut])
            if target is not None:
                tail = parts[cut + 1:]
                chased = ".".join([target] + tail) if tail else target
                return self._resolve_dotted(chased, depth + 1)
            return None
        return None

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def pretty(self, fid: str) -> str:
        """Human name for a function id: ``module:qualname``."""
        return fid.replace("::", ":", 1)

    def forward_reachable(self, roots: Iterable[str]) -> Parents:
        """BFS over call edges from ``roots`` with parent pointers."""
        parents: Parents = {}
        queue: deque = deque()
        for root in sorted(set(roots)):
            if root in self.functions:
                parents[root] = (None, 0)
                queue.append(root)
        while queue:
            current = queue.popleft()
            for callee, lineno in self.calls.get(current, ()):
                if callee in parents:
                    continue
                parents[callee] = (current, lineno)
                queue.append(callee)
        return parents

    def chain(self, parents: Parents,
              target: str) -> List[Tuple[str, int]]:
        """``[(fid, call line in predecessor), ...]`` root -> target."""
        out: List[Tuple[str, int]] = []
        current: Optional[str] = target
        while current is not None:
            parent, lineno = parents[current]
            out.append((current, lineno))
            current = parent
        out.reverse()
        return out

    def functions_in_modules(
        self, prefixes: Iterable[str]
    ) -> List[str]:
        """Function ids defined in modules matching any dotted prefix."""
        prefixes = tuple(prefixes)
        out = []
        for fid in sorted(self.functions):
            module = self.functions[fid]["module"]
            if any(module == p or module.startswith(p + ".")
                   for p in prefixes):
                out.append(fid)
        return out

    def render_edges(self, prefix: str = "") -> List[str]:
        """``caller -> callee`` lines (sorted) for ``--call-graph``."""
        lines = []
        for caller in sorted(self.calls):
            if prefix and not self.pretty(caller).startswith(prefix):
                continue
            for callee, lineno in self.calls[caller]:
                lines.append(
                    f"{self.pretty(caller)} -> {self.pretty(callee)}"
                    f"  [line {lineno}]")
        for kind, caller, callee, lineno in self.executor_edges:
            if prefix and not self.pretty(caller).startswith(prefix):
                continue
            lines.append(
                f"{self.pretty(caller)} => {self.pretty(callee)}"
                f"  [{kind} executor, line {lineno}]")
        return lines

    def stats(self) -> Dict[str, int]:
        return {
            "modules": len(self.modules),
            "functions": len(self.functions),
            "call_edges": sum(len(v) for v in self.calls.values()),
            "executor_edges": len(self.executor_edges),
        }
