"""One benchmark process: generate a workload's inputs, or set it up and measure it.

``bench/run.py`` starts this script in a fresh interpreter for each role:

* ``gen``: write the workload's inputs, made from the seed;
* ``setup``: import, load the inputs, run one warm-up item, report the time;
* ``run``: the same set-up, then the measured passes; an untraced run also
  starts ``setup`` processes at even times through its window.

A process of its own per role makes set-up time start at process start and
the peak resident set that of the workload alone. Work is closed-loop: one
CLI call, frame, solve or set-up starts only after the previous one returned.

An item's latency is the fastest of its passes over one input. Items are
short and repeat many times, so the fastest pass is the one the machine's
other tenants did not slow; work added to the program slows every pass,
the fastest one too. CLI calls and set-ups are long and few, and their
fastest repetition depends on luck, so they are summed or taken as a
median instead.
"""

import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from contextlib import nullcontext  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from tofir import cli  # noqa: E402
from tracing import Tracer, layer_metric, timing_kind  # noqa: E402
from workloads import COUNT_METRICS, SCALES, WORKLOADS  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# shares of --seconds per pass
UNTRACED_SHARES = (0.35, 0.65)  # CLI calls, library loop
TRACED_SHARES = (0.3, 0.3, 0.4)  # untraced CLI calls, traced CLI calls, traced library loop
ITEM_CHUNK_S = 0.5  # library items run in chunks this long between CLI repetitions
TRACED_LOOP_MAX_PASSES = 5
SETUP_TIMEOUT_S = 60.0


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def digest_dir(path: Path) -> dict[str, str]:
    return {f.name: hashlib.sha256(f.read_bytes()).hexdigest() for f in sorted(path.iterdir())}


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


class Measurement:
    """The measured passes of one run, interleaved in short units so that
    every pass samples the whole run window and its changing machine load."""

    def __init__(self, workload, args, spec: dict):
        self.wl = workload
        self.args = args
        self.spec = spec
        self.work = Path(args.inputs).parent
        self.calls = workload.calls()
        self.frames_per_rep = sum(c.frames for c in self.calls)
        self.tracer = Tracer() if args.trace else None
        self.attempted = 0
        self.failures: list[dict] = []
        self.cli_s: list[float] = []  # seconds per untraced CLI repetition
        self.traced_cli_s: list[float] = []  # seconds per traced CLI repetition
        self.call_s = {c.label: [] for c in self.calls}  # untraced seconds per call
        self.artifacts: dict = {}
        self.item_best_s = [math.inf] * workload.distinct_items  # fastest latency per input
        self.items = 0
        self.items_timed = 0
        self.setup_s: list[float] = []
        # traced items are capped, which bounds the span count on tiny items
        self.max_items = math.inf
        if self.tracer:
            scale = workload.scale
            self.max_items = TRACED_LOOP_MAX_PASSES * max(scale.min_items, workload.distinct_items)

    def fail(self, op: str, problem: str | None) -> None:
        if problem:
            self.failures.append({"op": op, "error": problem})

    def cli_rep(self, traced: bool = False) -> None:
        """One repetition of the workload's CLI calls; a traced one runs with
        every layer call wrapped in a span. The first repetition is checked
        against ground truth; every later one, traced or not, must reproduce
        it byte for byte."""
        out = self.work / "cli"
        rep = len(self.cli_s) + len(self.traced_cli_s)
        elapsed = 0.0
        codes = {}
        for call in self.calls:
            start = time.perf_counter()
            try:
                if traced:
                    with self.tracer.installed(), \
                            self.tracer.span(f"cli.{call.command}", item=f"{call.label}#{rep}"):
                        codes[call.label] = cli.main(call.argv(out))
                else:
                    codes[call.label] = cli.main(call.argv(out))
            except (Exception, SystemExit) as exc:
                codes[call.label] = _error(exc)
            took = time.perf_counter() - start
            if not traced:
                self.call_s[call.label].append(took)
            elapsed += took
        (self.traced_cli_s if traced else self.cli_s).append(elapsed)
        for call in self.calls:
            self.attempted += 1
            op = f"{'traced ' if traced else ''}cli {call.label} rep {rep}"
            if codes[call.label] != 0:
                self.fail(op, f"exit {codes[call.label]}")
                continue
            digest = digest_dir(out / call.label)
            if rep == 0:
                self.artifacts[call.label] = digest
                try:
                    self.fail(op, self.wl.check_artifacts(call, out / call.label))
                except Exception as exc:
                    self.fail(op, _error(exc))
            elif digest != self.artifacts.get(call.label):
                self.fail(op, "artifacts differ from rep 0")

    def setup_sample(self) -> None:
        """One fresh ``setup`` process, timed from its start to the end of its
        warm-up item. This process waits meanwhile, so nothing overlaps."""
        result = self.work / f"setup-{len(self.setup_s)}.json"
        cmd = [sys.executable, str(Path(__file__).resolve()), "setup", "--workload", self.wl.name,
               "--inputs", self.args.inputs, "--scale", self.args.scale, "--result", str(result)]
        start = time.monotonic()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        self.setup_s.append(json.loads(result.read_text())["setup_end"] - start)

    def item_chunk(self) -> None:
        """Library items, one after another, for about ITEM_CHUNK_S."""
        tracer = self.tracer
        with tracer.installed() if tracer else nullcontext():
            end = time.perf_counter() + ITEM_CHUNK_S
            while True:
                k = self.items
                self.items += 1
                self.attempted += 1
                try:
                    if tracer is None:
                        start = time.perf_counter()
                        output = self.wl.item(k)
                        took = time.perf_counter() - start
                        slot = k % len(self.item_best_s)
                        self.item_best_s[slot] = min(self.item_best_s[slot], took)
                        self.items_timed += 1
                    else:
                        with tracer.span("item", item=f"item{k}"):
                            output = self.wl.item(k)
                    record = k < self.wl.distinct_items
                    self.fail(f"item {k}", self.wl.check_item(k, output, record=record))
                except Exception as exc:
                    self.fail(f"item {k}", _error(exc))
                if time.perf_counter() >= end or self.items >= self.max_items:
                    return

    def run(self) -> dict:
        scale = self.wl.scale
        traced = self.tracer is not None
        distinct = self.wl.distinct_items
        min_items = distinct if traced else max(scale.min_items, distinct)
        # activity: (share of the run, unit of work, units done, fewest units)
        activities = {
            "cli": ((TRACED_SHARES if traced else UNTRACED_SHARES)[0], self.cli_rep,
                    lambda: len(self.cli_s), scale.min_reps),
            "items": ((TRACED_SHARES if traced else UNTRACED_SHARES)[-1], self.item_chunk,
                      lambda: self.items, min_items),
        }
        if traced:
            activities["traced_cli"] = (TRACED_SHARES[1], lambda: self.cli_rep(traced=True),
                                        lambda: len(self.traced_cli_s), scale.min_reps)
        busy = dict.fromkeys(activities, 0.0)
        begin = time.perf_counter()
        end = begin + self.args.seconds
        # set-up samples fall at even times through the window
        setups_due = [begin + self.args.seconds * (i + 0.5) / self.args.setups
                      for i in range(self.args.setups)]
        while True:
            if setups_due and time.perf_counter() >= setups_due[0]:
                setups_due.pop(0)
                self.setup_sample()
                continue
            short = [a for a, (_, _, done, least) in activities.items() if done() < least]
            if time.perf_counter() >= end:
                if not short:
                    break
                choices = short
            else:
                choices = [a for a in activities if a != "items" or self.items < self.max_items]
            # the activity furthest behind its share goes next; the CLI goes first
            activity = min(choices, key=lambda a: (busy[a] / activities[a][0], a != "cli"))
            start = time.perf_counter()
            activities[activity][1]()
            busy[activity] += time.perf_counter() - start
        for op, problem in self.wl.finish():
            self.attempted += 1
            self.fail(op, problem)

        if traced:
            metrics = self.layer_metrics()
            extra = {"traced_cli_rep_s": self.traced_cli_s, "spans": len(self.tracer.spans)}
            if self.args.spans:
                self.tracer.dump(self.args.spans)
        else:
            best_ms = 1e3 * np.array(self.item_best_s)
            best_ms = best_ms[np.isfinite(best_ms)]  # an input whose every item failed has none
            metrics = {
                # all frames over all CLI seconds
                "frames_per_s": self.frames_per_rep * len(self.cli_s) / sum(self.cli_s),
                # percentiles over the distinct inputs of each one's fastest latency
                "item_p50_ms": float(np.percentile(best_ms, 50)),
                "item_p90_ms": float(np.percentile(best_ms, 90)),
                "truth_error": self.wl.truth_error(),
            }
            extra = {"items_timed": self.items_timed, "item_best_ms": best_ms.tolist(),
                     "setup_samples_s": self.setup_s}
        return {
            "metrics": metrics,
            "counts": self.wl.counts(),
            "accuracy": self.wl.accuracy(),
            "busy_s": busy,
            "cli_rep_s": self.cli_s,
            "cli_call_s": self.call_s,
            "artifacts": self.artifacts,
            **extra,
        }

    def layer_metrics(self) -> dict:
        tracer = self.tracer
        self_s = tracer.self_times()
        counts = self.wl.counts()
        metrics = {}
        for entry in self.spec["per_layer"]:
            name = entry["name"]
            if timing_kind(name):
                metrics[name] = layer_metric(tracer, self_s, name)
            elif name in COUNT_METRICS:
                metrics[name] = float(counts.get(name, 0.0))
            elif name == "trace.overhead_frac":
                # untraced over traced CLI frames per second, minus one
                metrics[name] = (statistics.mean(self.traced_cli_s)
                                 / statistics.mean(self.cli_s) - 1.0)
            elif name != "failed_frac":  # known only when the run ends
                raise KeyError(f"no rule derives per-layer metric {name!r}")
        return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("gen", "setup", "run"))
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--scale", default="full", choices=sorted(SCALES))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setups", type=int, default=0,
                        help="set-up processes to time during the run")
    parser.add_argument("--spec", help="BENCHMARK.json, for the per-layer metric names")
    parser.add_argument("--result", help="JSON file the result is written to")
    parser.add_argument("--spans", help="JSON-lines file the traced pass's spans go to")
    args = parser.parse_args(argv)

    wl = WORKLOADS[args.workload](Path(args.inputs), SCALES[args.scale])
    if args.mode == "gen":
        wl.inputs.mkdir(parents=True, exist_ok=True)
        wl.generate(args.seed)
        return 0

    spec = json.loads(Path(args.spec).read_text()) if args.spec else {"per_layer": []}
    wl.load()
    warm = wl.item(0)
    warm_problem = wl.check_item(0, warm, record=False)
    result = {"setup_end": time.monotonic()}
    if args.mode == "run":
        measurement = Measurement(wl, args, spec)
        measurement.attempted += 1
        measurement.fail("warm-up item", warm_problem)
        result.update(measurement.run())
        result["env"] = environment()
        result["attempted"] = measurement.attempted
        result["failures"] = measurement.failures
        if args.trace == 1:
            result["metrics"]["failed_frac"] = len(measurement.failures) / measurement.attempted
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
