"""Benchmark of the tofir pipeline on three rig workloads.

    python3 bench/run.py --workload fuse-vga --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --list-metrics
    python3 bench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.
Each run generates the workload's inputs from the seed in a process of its
own, then measures the workload in one more, which also times fresh set-up
processes at even times through its window. The last line of standard
output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. Everything else the run saw (environment, every failure, the
SHA-256 of every CLI artifact, raw samples) goes to
``.bench_runs/<workload>-seed<n>-trace<t>.json``, and the spans of a traced
run to ``.spans.jsonl`` beside it.

``--smoke`` runs every workload at toy size, traced and untraced, and fails
if a metric is missing, not finite, or an output is wrong.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = ROOT / "BENCHMARK.json"
PREDICTIONS = BENCH / "predictions.json"
WORK = ROOT / ".bench_work"
RUNS = ROOT / ".bench_runs"

SETUP_SAMPLES = 8  # fresh set-up processes timed during an untraced run, besides its own
TIME_LIMIT_S = 170.0  # one run, all processes included
THREAD_ENV = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                                   "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _spec() -> dict:
    return json.loads(SPEC.read_text())


def _child(mode: str, workload: str, inputs: Path, deadline: float,
           *extra: str) -> tuple[float, dict]:
    """Run bench/child.py; returns the monotonic start time and its result."""
    result = inputs.parent / f"{mode}-{time.monotonic_ns()}.json"
    cmd = [sys.executable, str(BENCH / "child.py"), mode, "--workload", workload,
           "--inputs", str(inputs), "--result", str(result), *extra]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               **THREAD_ENV)
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} process of {workload} ran past the time limit") from None
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {workload} exited {proc.returncode}")
    return start, (json.loads(result.read_text()) if mode != "gen" else {})


def run_workload(workload: str, seed: int, seconds: float, trace: int, *,
                 scale: str = "full", setup_samples: int = SETUP_SAMPLES) -> dict:
    """Generate, set up and measure one workload; returns the full record."""
    deadline = time.monotonic() + TIME_LIMIT_S
    if not (ROOT / "src" / "tofir" / "__init__.py").is_file():
        raise BenchError(f"no tofir package under {ROOT / 'src'}")
    spec = _spec()
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload!r}")
    tag = f"{'smoke-' if scale != 'full' else ''}{workload}-seed{seed}-trace{trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    inputs = work / "inputs"
    RUNS.mkdir(exist_ok=True)
    spans = RUNS / f"{tag}.spans.jsonl"
    common = ("--scale", scale, "--seed", str(seed))
    try:
        work.mkdir(parents=True)
        _child("gen", workload, inputs, deadline, *common)
        traced = ("--spans", str(spans)) if trace else ()
        setups = 0 if trace else setup_samples
        start, result = _child("run", workload, inputs, deadline, *common,
                               "--seconds", str(seconds), "--trace", str(trace),
                               "--setups", str(setups), "--spec", str(SPEC), *traced)
        setup_s = [result["setup_end"] - start, *result.get("setup_samples_s", [])]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(result["metrics"])
    if trace == 0:
        metrics["setup_s"] = statistics.median(setup_s)
        metrics["peak_rss_mb"] = result["peak_rss_mb"]
    table = spec["end_to_end" if trace == 0 else "per_layer"]
    missing = [m["name"] for m in table if m["name"] not in metrics]
    if missing:
        raise BenchError(f"{workload} produced no value for {missing}")
    failed = len(result["failures"])
    summary = {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in table},
    }
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace, "scale": scale,
        **summary, "setup_s_samples": setup_s,
        **{k: v for k, v in result.items() if k != "metrics"},
        "all_metrics": metrics, "spans_file": str(spans.relative_to(ROOT)) if trace else None,
    }
    (RUNS / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return summary


def list_metrics() -> None:
    spec = _spec()
    print(f"{'metric':44} {'unit':10} {'better':7} bound")
    for group in ("end_to_end", "per_layer"):
        print(f"# {group}")
        for m in spec[group]:
            bound = m.get("bound")
            print(f"{m['name']:44} {m['unit']:10} {m['better']:7} "
                  f"{'' if bound is None else bound}")
    print("# workloads")
    for w in spec["workloads"]:
        print(f"{w['name']}: {w['why']}")
    predictions = json.loads(PREDICTIONS.read_text())
    print("# predictions: layer metric -> end-to-end metric it should move, on which workload")
    for p in predictions["moves"]:
        print(f"{p['id']}: {', '.join(p['layer_metrics'])} -> "
              + "; ".join(f"{t['metric']} on {t['workload']}" for t in p["targets"]))
    for p in predictions["no_change"]:
        print(f"{p['id']}: a change to {' or '.join(p['modules'])} leaves every metric on "
              f"{' and '.join(p['workloads'])} unchanged")


def smoke() -> int:
    """Every workload at toy size, untraced and traced: each named metric must
    be present and finite, and every output correct."""
    problems = []
    for workload in (w["name"] for w in _spec()["workloads"]):
        for trace in (0, 1):
            summary = run_workload(workload, 1, 0.5, trace, scale="toy", setup_samples=2)
            bad = [name for name, m in summary["metrics"].items()
                   if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
            status = "ok"
            if bad or not summary["correct"]:
                status = f"FAIL non-finite {bad}, {summary['failed']} failed"
                problems.append(f"{workload} trace {trace}")
            print(f"smoke {workload} trace {trace}: {len(summary['metrics'])} metrics, "
                  f"{summary['attempted']} operations, {status}")
    check_predictions(problems)
    print("smoke: " + ("FAIL " + ", ".join(problems) if problems else "ok"))
    return 1 if problems else 0


def check_predictions(problems: list) -> None:
    spec = _spec()
    names = {m["name"] for group in ("end_to_end", "per_layer") for m in spec[group]}
    workloads = {w["name"] for w in spec["workloads"]}
    predictions = json.loads(PREDICTIONS.read_text())
    for p in predictions["moves"]:
        for name in p["layer_metrics"] + [t["metric"] for t in p["targets"]]:
            if name not in names:
                problems.append(f"prediction {p['id']} names unknown metric {name}")
        for t in p["targets"]:
            if t["workload"] not in workloads:
                problems.append(f"prediction {p['id']} names unknown workload {t['workload']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list-metrics", action="store_true",
                        help="print every metric with its unit and better direction")
    parser.add_argument("--smoke", action="store_true", help="toy-size check of every metric")
    args = parser.parse_args(argv)
    try:
        if args.list_metrics:
            list_metrics()
            return 0
        if args.smoke:
            return smoke()
        if not args.workload:
            parser.error("--workload is required")
        seconds = args.seconds if args.seconds is not None else _spec()["run_seconds"]
        summary = run_workload(args.workload, args.seed, seconds, args.trace)
    except (BenchError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
