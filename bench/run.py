"""mice benchmark: one workload, one seed, end-to-end metrics or a traced per-layer pass.

Run from the root of a checkout (the package is imported from src/, nothing is
installed):

    python3 bench/run.py --workload train-default --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of an untraced run; --trace 1 alternates
untraced and traced units of work and prints the per-layer metrics and the
tracing overhead. Human-readable lines come first; the last line of standard
output is one JSON object {"correct", "attempted", "failed", "metrics"}. A copy of
the result with the recorded environment, and in traced runs the spans, are
written under bench/out/.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
NPROC = len(os.sched_getaffinity(0))


def _pin_threads() -> None:
    """One BLAS thread, and nproc evaluate workers until the workload sets its own count;
    must run before numpy is imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["MICE_THREADS"] = str(NPROC)


def _environment(args) -> dict:
    import numpy as np
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "cores": NPROC,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MICE_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mice" / "__init__.py").is_file():
        print(f"error: no mice sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    _pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import session  # imports numpy and mice, after the thread pinning above

    if args.workload not in session.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(session.WORKLOADS)}")
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    run = session.Session(args.workload, args.seed, workdir)  # sets the workload's MICE_THREADS
    env = _environment(args)
    try:
        if args.trace:
            metrics = run.run_traced(args.seconds, OUT / f"{stem}-spans.json.gz")
        else:
            metrics = run.run_untraced(args.seconds)
    except RuntimeError as exc:  # nothing left to measure: no result line
        print(f"error: {exc}", file=sys.stderr)
        for problem in run.problems:
            print(f"FAILED {problem}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        print(f"error: metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:52s} {value:14.6g} {units[name]}")
    ratio = run.failed / run.attempted
    print(f"{'ops_failed_ratio':52s} {ratio:14.6g} ratio ({run.failed}/{run.attempted})")
    if args.trace:
        print("largest self times in the last traced unit (seconds, share of its wall; worker"
              " threads are summed, and a span waiting on workers keeps the wait as self time):")
        for name, t, share in run.top_self:
            print(f"  {name:50s} {t:10.4f} {share:7.1%}")
    else:
        s = run.samples
        print(f"epoch_ms_tail is p{run.tail_pct:.1f} of {len(s.epochs)} epochs; "
              f"{len(s.evaluate)} evaluate calls, {len(s.eval_cmd)} mice eval commands, "
              f"{len(s.setup)} set-ups; acc {s.acc:.4f}")
    for problem in run.problems:
        print(f"FAILED {problem}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    (OUT / f"{stem}.json").write_text(
        json.dumps({"env": env, "acc": run.samples.acc, "tail_percentile": run.tail_pct,
                    "samples": dataclasses.asdict(run.samples), "problems": run.problems,
                    **result}, indent=2, sort_keys=True) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
