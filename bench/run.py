"""adaptgraph benchmark: training throughput and streaming window latency.

Run from the repository root:

    python3 bench/run.py --workload train-synth --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --selftest

Workloads are listed in BENCHMARK.json and defined in ``workloads.py``. The
library is imported from ``src/`` of the same checkout. The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` they are the per-layer ones, and the full
per-layer report and every span go to ``.bench_out/`` in the checkout. The
lines before it record the environment and print every metric with its unit.
The exit code is 1 when an output check failed.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import math
import os
import platform
import re
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")

# metric name -> what the op-based metric is called on each kind of workload
ALIASES = {
    "train": {"samples_per_s": "train_samples_per_s", "op_ms_p50": "step_ms_p50",
              "op_ms_p90": "step_ms_p90"},
    "stream": {"samples_per_s": "windows_per_s", "op_ms_p50": "window_ms_p50",
               "op_ms_p90": "window_ms_p90"},
}


def _pin_blas_threads() -> int:
    """Run BLAS on one thread (must happen before numpy is imported). On a
    small shared machine a second BLAS thread made run-to-run spread about
    twice as wide, which would hide regressions under the bounds."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def _import_library():
    """Import adaptgraph from this checkout's src/, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import adaptgraph
    where = os.path.dirname(os.path.abspath(adaptgraph.__file__))
    if os.path.dirname(where) != src:
        raise ImportError(f"adaptgraph was imported from {where}, not from {src}")


def _blas_threads():
    """Threads the loaded OpenBLAS will use, asked from the library itself."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", f.read())))
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(nproc: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def result_line(res, spec: dict, trace: bool) -> dict:
    """The final JSON object: the end-to-end metrics of BENCHMARK.json, or
    with ``trace`` its per-layer metrics."""
    if trace:
        values = res.trace["layer"]
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        values = res.end_to_end()
        metrics = {m["name"]: _metric(values[m["name"]], m["unit"]) for m in spec["end_to_end"]}
    return {"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed,
            "metrics": metrics}


def _print_report(line: dict, res, env: dict, args) -> None:
    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  ops {res.attempted} ({len(res.op_ms)} timed)")
    aliases = ALIASES[res.kind]
    metrics = dict(line["metrics"])
    if res.trace is None:
        # printed, not gated: at 20-40 ops per run on two workloads fewer
        # than ten samples lie beyond it
        metrics["op_ms_p90"] = _metric(res.end_to_end()["op_ms_p90"], "ms")
    for name, m in metrics.items():
        label = f"{aliases[name]} ({name})" if name in aliases else name
        print(f"  {label:<40} {m['value']!r:>24} {m['unit']}")
    print(f"  {'ops_attempted':<40} {res.attempted:>24}")
    print(f"  {'ops_failed':<40} {res.failed:>24}")
    if res.trace is not None:
        print("  per-layer, every metric the traced run measures (None: not run here)")
        for name, value in res.trace["layer"].items():
            print(f"    {name:<38} {value!r:>24}")


def selftest(spec: dict) -> int:
    """Run every workload at tiny shapes, traced and untraced, and check the
    result line against BENCHMARK.json; then check that a perturbed output
    is counted as a failed op."""
    import workloads
    started = time.perf_counter()
    problems = []
    wanted = {False: [m["name"] for m in spec["end_to_end"]],
              True: [m["name"] for m in spec["per_layer"]]}
    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json lists {names}, the benchmark runs "
                        f"{sorted(workloads.WORKLOADS)}")
    for name in names:
        for trace in (False, True):
            res = workloads.run(name, 1, 0.3, trace, OUT_DIR, cases=workloads.TINY)
            line = json.loads(json.dumps(result_line(res, spec, trace)))
            bad_values = [k for k, m in line["metrics"].items()
                          if not isinstance(m["value"], (int, float))
                          or not math.isfinite(m["value"])]
            if (set(line) != {"correct", "attempted", "failed", "metrics"}
                    or line["correct"] is not True or line["failed"] != 0
                    or line["attempted"] < 1 or list(line["metrics"]) != wanted[trace]
                    or bad_values):
                problems.append(f"{name} trace={int(trace)}: {line}")
        res = workloads.run(name, 1, 0.3, False, OUT_DIR, cases=workloads.TINY, perturb=True)
        if res.failed < 1 or result_line(res, spec, False)["correct"]:
            problems.append(f"{name}: a perturbed output was not counted as failed")
    for p in problems:
        print("selftest FAILED: " + p)
    print(f"selftest {'ok' if not problems else 'failed'}: {len(names)} workloads "
          f"in {time.perf_counter() - started:.1f} s")
    return 1 if problems else 0


def _write_trace(res, env: dict, args) -> str:
    path = os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as f:
        json.dump({"env": env, "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "layer": res.trace["layer"],
                   "summary": res.trace["summary"],
                   "span_fields": ["name", "start", "end", "parent", "op"],
                   "spans": res.trace["spans"]}, f)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="run every workload at tiny shapes and check the output")
    args = parser.parse_args(argv)

    nproc = _pin_blas_threads()
    _import_library()
    import workloads

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.selftest:
        return selftest(spec)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    env = environment(nproc)
    started = time.perf_counter()
    res = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT_DIR)
    line = result_line(res, spec, bool(args.trace))
    _print_report(line, res, env, args)
    if res.trace is not None:
        print(f"  spans written to {os.path.relpath(_write_trace(res, env, args), ROOT)}")
    print(f"  wall {time.perf_counter() - started:.1f} s")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
