"""The repository benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload cold_build --seed 1 --seconds 20 --trace 0

Run from the repository root; it builds nothing (the package runs from
``src/``).  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``
(see ``perfbench/spec.py``).  The line before it records provenance.
The full result, with provenance and details, is also written to
``.perfbench_out/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from typing import Any, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = ".perfbench_out"


def parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cold_build", "serve_admit"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="'tiny' shrinks every scenario (smoke tests only)")
    return parser.parse_args(argv)


def source_digest(root: str) -> str:
    """sha256 over the package sources, for checkouts without git."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for directory, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def provenance(args: argparse.Namespace, fingerprints: Dict[str, str]) -> Dict[str, Any]:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT),
        "scenario_fingerprints": fingerprints,
    }


def _terminate(signum: int, frame: Any) -> None:
    # Unwind through the workloads' ``finally`` blocks, which stop the
    # server and helper processes they started.
    raise SystemExit(128 + signum)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"perfbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    for path in (os.path.join(ROOT, "src"), ROOT):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import cold_build, serve
    from perfbench.common import Context, check_finite
    from perfbench.spec import END_TO_END, PER_LAYER

    out_dir = os.path.join(ROOT, OUT_DIR)
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(workdir)
    stem = f"{args.workload}-seed{args.seed}"
    ctx = Context(
        ROOT, workdir, args.seed, args.seconds, bool(args.trace), args.scale,
        spans_path=os.path.join(out_dir, f"{stem}-spans.json"),
    )
    try:
        if args.workload == "cold_build":
            outcome = cold_build.run(ctx)
        else:
            outcome = serve.run(ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    spec = PER_LAYER if args.trace else END_TO_END
    expected = [entry[0] for entry in spec]
    if sorted(outcome.metrics) != sorted(expected):
        raise RuntimeError(
            f"metrics {sorted(outcome.metrics)} do not match the spec {expected}"
        )
    check_finite(outcome.metrics)
    result = {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": float(outcome.metrics[name]), "unit": unit}
            for name, unit, *_ in spec
        },
    }
    prov = provenance(args, outcome.fingerprints)
    report = {**result, "provenance": prov, "details": outcome.details}
    with open(os.path.join(out_dir, f"{stem}-trace{args.trace}.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True, default=str)
    print(json.dumps({"provenance": prov, "details": outcome.details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
