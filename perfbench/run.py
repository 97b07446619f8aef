"""cfrpnet benchmark: one workload, one seed, one JSON result line.

Run from the root of a cfrpnet checkout:

    python3 perfbench/run.py --workload reference_roster --seed 1 --seconds 35 --trace 0

The workload seed feeds the benchmark's own input generator (inputs.py);
the program sees only the generated files. With ``--trace 0`` the last
line carries the end-to-end metrics named in BENCHMARK.json, with
``--trace 1`` the per-layer metrics taken from spans. The lines before it
are a JSON block of details: every timing's median, tail percentile and
sample count, the environment, the digests and any failed checks.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
MIN_REPS = 3  # the first is a warm-up; a traced run needs an untraced rep after it
# Pinned for every child the benchmark starts; the machine is left alone.
CHILD_THREADS = {name: "1" for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
MAX_SECONDS = 120
RUN_LIMIT_S = 170  # every child is stopped by then; the whole run must end within 180 s


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def percentile_tail(samples):
    """Median, and the highest nearest-rank percentile with >= 10 samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    if n > 10:
        rank = n - 10  # 1-based rank of the highest sample with ten beyond it
        tail = {"level": round(100.0 * rank / n, 3), "value": ordered[rank - 1]}
    return {"median": statistics.median(ordered), "tail": tail, "n": n}


def run_child(spec: dict, work: Path, name: str, env: dict, deadline: float) -> dict:
    spec_path, result_path = work / f"{name}.spec.json", work / f"{name}.result.json"
    timeout = deadline - time.monotonic()
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    try:
        proc = subprocess.run([sys.executable, str(HERE / "session.py"), str(spec_path),
                               str(result_path)], env=env, cwd=str(work), timeout=timeout,
                              stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{name} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"{name} exited with {proc.returncode}:\n{proc.stdout[-4000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def git_commit(root: Path) -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(root), capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def end_to_end(session: dict, setups: list[dict], details: dict) -> dict:
    """End-to-end values: each timing is the median of its samples.

    The samples are host-speed scaled (hostspeed.py) and leave out the
    first, warm-up rep. The details keep every sample, scaled and raw,
    with its median, tail percentile and count.
    """
    reps = [r for r in session["reps"] if not r["traced"] and not r["warmup"]]
    samples = {
        "setup_s": [child["setup_s"] for child in setups],
        "wall_s": [r["wall_s"] for r in reps],
        "roster_s": [r["roster_s"] for r in reps],
        **{f"train_s.{m}": [r["train_s"][m] for r in reps] for m in ("ann", "pso", "gwo", "ba")},
        "evaluate_s": [r["evaluate_s"] for r in reps],
    }
    latencies = sorted(ns / 1e3 for ns in session["latencies_ns"])
    details["timings"] = {name: percentile_tail(values) for name, values in samples.items()}
    details["timings"]["predict_latency_us"] = percentile_tail(latencies)
    details["timings"]["predict_latency_raw_us"] = percentile_tail(
        [ns / 1e3 for ns in session["raw_latencies_ns"]])
    details["samples"] = samples
    details["raw_samples"] = {
        "setup_s": [child["setup_raw_s"] for child in setups],
        "setup_probes": [child["setup_probes"] for child in setups],
        **{key: [r["raw"][key] for r in reps] for key in ("wall_s", "roster_s", "evaluate_s")},
        "host_scale": [r["host_scale"] for r in reps],
    }
    r2 = reps[0]["r2"]
    details["holdout_r2"] = r2
    values = {name: statistics.median(v) for name, v in samples.items()}
    values.update(
        evaluate_records_per_s=reps[0]["evaluate_records"] / values["evaluate_s"],
        predict_p50_us=statistics.median(latencies),
        test_r2_min=min((r2[m] if r2[m] is not None else -math.inf) for m in ("ann", "pso", "gwo")),
        peak_rss_mb=session["peak_rss_mb"],
    )
    return values


def per_layer(session: dict, details: dict) -> dict:
    values = dict(session["per_layer"])
    untraced = statistics.median(r["wall_s"] for r in session["reps"]
                                 if not r["traced"] and not r["warmup"])
    traced = statistics.median(r["wall_s"] for r in session["reps"] if r["traced"])
    values["tracing.overhead_pct"] = 100.0 * (traced - untraced) / untraced
    details["tracing"] = {"untraced_wall_s": untraced, "traced_wall_s": traced,
                          "spans_per_rep": session["span_count"]}
    return values


def session_spec(config: dict, size: dict, generated: dict, root: Path, work: Path, args) -> dict:
    """What the session child is told. The workload seed is not in it: the
    program sees the seed only through the generated files."""
    return {
        **config["network"], **size,
        **{k: v for k, v in generated.items() if k != "inputs_sha256"},
        "src": str(root / "src"), "work_dir": str(work), "seconds": args.seconds,
        "trace": bool(args.trace), "min_reps": MIN_REPS, "mode": "setup",
        "spans_path": str(root / ".perfbench" / "spans" / f"{args.workload}.jsonl"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny sizes for the benchmark's own tests")
    args = parser.parse_args(argv)

    root = Path.cwd()
    try:
        bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
        if not (root / "src" / "cfrpnet" / "__init__.py").is_file():
            raise BenchmarkError("src/cfrpnet not found: run from the root of a cfrpnet checkout")
        config = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
        if args.workload not in config["workloads"]:
            raise BenchmarkError(f"unknown workload {args.workload!r}; "
                                 f"choose from {sorted(config['workloads'])}")
        if args.seed < 0 or not 0 < args.seconds <= MAX_SECONDS:
            raise BenchmarkError(f"--seed must be >= 0 and --seconds in (0, {MAX_SECONDS}]")
    except (OSError, ValueError, BenchmarkError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    workload = config["workloads"][args.workload]
    size = workload[args.scale]
    scratch = root / ".perfbench"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=str(scratch)))
    env = {**os.environ, **CHILD_THREADS, "PYTHONPATH": str(root / "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    details = {"workload": args.workload, "why": workload["why"], "seed": args.seed,
               "scale": args.scale, "size": size}
    try:
        generated = inputs.generate(args.seed, size, work / "inputs")
        spec = session_spec(config, size, generated, root, work, args)
        # Set-up-only children run before and after the session, so the
        # set-up samples span the run as the reps do.
        children = 0 if args.trace else SETUP_SAMPLES // 2
        setups = [run_child(spec, work, f"setup{k}", env, deadline) for k in range(children)]
        session = run_child({**spec, "mode": "session"}, work, "session", env, deadline)
        setups.append(session)
        setups += [run_child(spec, work, f"setup{k}", env, deadline)
                   for k in range(children, 2 * children)]
        kinds = {r["traced"] for r in session["reps"]}
        if kinds != ({False, True} if args.trace else {False}):
            raise BenchmarkError("the session finished too few reps:\n" + "\n".join(session["failures"]))
        values = (per_layer(session, details) if args.trace
                  else end_to_end(session, setups, details))
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Determinism: every rep wrote the same report files, byte for byte.
    digests = {r["outputs_sha256"] for r in session["reps"]}
    attempted = session["attempted"] + 1
    failed = session["failed"] + (len(digests) != 1)
    failures = session["failures"] + (["report files differ between reps"] if len(digests) != 1 else [])
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None or not math.isfinite(value):
            failures.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    details.update(
        inputs_sha256=generated["inputs_sha256"], outputs_sha256=sorted(digests),
        reps=len(session["reps"]), ops=attempted, ops_failed=failed,
        failures=failures,
        environment={**session["environment"], "nproc": os.cpu_count(),
                     "affinity": len(os.sched_getaffinity(0)), "machine": platform.machine(),
                     "child_env": CHILD_THREADS, "loadavg": os.getloadavg(),
                     "git_commit": git_commit(root)},
    )
    if args.trace:
        details["spans_path"] = str(Path(spec["spans_path"]).relative_to(root))
    print(json.dumps(details, indent=1, sort_keys=True))
    correct = failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
