"""nprox benchmark runner.

    python3 perfbench/run.py --workload {cylinder,rate_biv,zoo_laws} \
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload process is started from
here, one after another, with BLAS pinned to one thread; this process starts
no threads.  With ``--trace 0`` it starts ``SETUP_RUNS`` processes in turn;
each sets up (import, inputs, one untimed warm-up pass) and then measures
passes for its share of ``--seconds``.  ``setup_s`` is the median of their
set-up times and the timings pool their passes, so the measurement is spread
over the whole run.  With ``--trace 1`` one process sets up, runs one
untraced pass and then traced passes, and reports the per-layer figures.

Earlier stdout lines carry the environment, every per-workload figure by
name with its unit, the sample counts and any failure with its inputs; the
last line is the result object the metric names in BENCHMARK.json refer to.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_RUNS = 3
CHILD_TIMEOUT_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# ref: multiples of the reference kernel's time, timed just before each pass
UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "wall_s": "s", "ref_s": "s",
         "op_s_p50": "s", "op_s_p90": "s",
         "wall_rel": "ref", "op_rel_p50": "ref", "op_rel_p90": "ref"}
END_TO_END = ["setup_s", "wall_rel", "peak_rss_mb"]
ACCURACY_UNITS = {"sup_error_final": "abs", "node_residual": "abs",
                  "rate_rel_err": "rel", "fn_law_gap_max": "rel"}


def per_layer_units() -> dict[str, str]:
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def source_digest(root="src") -> str:
    """sha256 over the library sources, standing in for a commit id."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(path.encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    if not os.path.isdir(".git") or shutil.which("git") is None:
        return None
    out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return out.stdout.strip() or None


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def percentiles(name: str, samples: list[float]) -> dict[str, float]:
    """Median and 90th percentile; one sample stands for both."""
    p90 = statistics.quantiles(samples, n=10, method="inclusive")[8] if len(samples) > 1 else samples[0]
    return {f"{name}_p50": statistics.median(samples), f"{name}_p90": p90}


def spawn(args, mode: str, seconds: float) -> dict:
    """One workload process; its last stdout line is its JSON result."""
    env = dict(os.environ, **PINNED, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0")
    cmd = [sys.executable, os.path.join(HERE, "workloads.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--mode", mode]
    if args.toy:
        cmd.append("--toy")
    cmd += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                          timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} process for {args.workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="nprox benchmark")
    parser.add_argument("--workload", required=True,
                        choices=("cylinder", "rate_biv", "zoo_laws"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="tiny inputs, for the harness self-test")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "nprox", "__init__.py")):
        print("error: run from the root of an nprox checkout (no src/nprox)",
              file=sys.stderr)
        return 1

    try:
        if args.trace:
            children = [spawn(args, "trace", args.seconds)]
        else:
            children = [spawn(args, "measure", args.seconds / SETUP_RUNS)
                        for _ in range(SETUP_RUNS)]
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    last = children[-1]
    failures = [f for c in children for f in c["failures"]]
    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    passes = [p for c in children for p in c["passes"]]
    ops = [s for p in passes for s in p["op_s"]]

    env = {"commit": commit(), "src_sha256": source_digest(), **last["env"],
           "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "cpu": cpu_model(), "pinned": PINNED}
    print("env " + json.dumps(env, sort_keys=True))
    values = {"setup_s": statistics.median(c["setup_s"] for c in children),
              "peak_rss_mb": statistics.median(c["peak_rss_mb"] for c in children),
              "wall_s": statistics.median(p["s"] for p in passes),
              "ref_s": statistics.median(p["ref_s"] or 0.0 for p in passes),
              **percentiles("op_s", ops)}
    if not args.trace:
        values["wall_rel"] = statistics.median(p["s"] / p["ref_s"] for p in passes)
        values.update(percentiles("op_rel", [s / p["ref_s"] for p in passes for s in p["op_s"]]))
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "setup_s_runs": [c["setup_s"] for c in children],
        "pass_s": [p["s"] for p in passes], "ref_s_runs": [p["ref_s"] for p in passes],
        "op_samples": len(ops), "failed_frac": failed / attempted,
        **{k: {"value": v, "unit": UNITS[k]} for k, v in values.items()},
        **{k: {"value": v, "unit": ACCURACY_UNITS[k]} for k, v in last["accuracy"].items()},
        **last["notes"],
    }
    print("workload " + json.dumps(detail, sort_keys=True))
    for failure in failures:
        print("failure " + json.dumps(failure, sort_keys=True))

    if args.trace:
        units = per_layer_units()
        metrics = {k: {"value": v, "unit": units[k]} for k, v in last["per_layer"].items()}
        print("spans " + last["spans_file"])
    else:
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
