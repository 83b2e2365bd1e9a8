#!/usr/bin/env python3
"""tiptree's benchmark: four workloads, end-to-end metrics, a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload big --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, a table

One caller, one thread, closed loop: each item starts when the previous one
has finished.  A run builds its inputs from ``--seed`` and repeats rounds over
them until ``--seconds`` of item time have been measured; each item's time is
its median over the rounds.  Times are read from ``SpeedClock``, which
corrects for the machine's changing speed (see ``speedclock.py``).  Every
round starts from a fresh import of tiptree,
so no round reuses state from an earlier one.  Outputs are checked after
every round, outside the timed region.  With ``--trace 1`` every round runs
twice, untraced and then traced, and the run reports the per-layer metrics.

The last line of stdout is the result, one JSON object; the line before it,
starting with ``meta``, records seed, commit, interpreter and sample counts.
Spans and results are also written to ``.perfbench_out/`` in the checkout.
See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

from sampler import ShapeSampler
from speedclock import SpeedClock
from tracer import LAYER_METRICS, Tracer
from workloads import BIG_MAX_EDGES, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS_PER_ROUND = 3
MAX_REPORTED_ERRORS = 10

END_TO_END = (
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("item_p50_ms", "ms"),
    ("item_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


class BenchError(Exception):
    """The benchmark cannot run here; it exits without a result."""


def load_tiptree() -> SimpleNamespace:
    """Import tiptree afresh from the checkout's ``src``, dropping earlier imports."""
    if not (SRC / "tiptree" / "__init__.py").is_file():
        raise BenchError(f"no tiptree sources under {SRC}")
    if sys.path[0] != str(SRC):
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "tiptree" or m.startswith("tiptree.")]:
        del sys.modules[name]
    cli = importlib.import_module("tiptree.cli")
    tt = sys.modules["tiptree"]
    if Path(tt.__file__).resolve().parent != SRC / "tiptree":
        raise BenchError(f"imported tiptree from {tt.__file__}, not from {SRC}")
    return SimpleNamespace(tt=tt, cli=cli)


def run_rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def run_pass(wl, api, items, clock: SpeedClock, tracer: Tracer | None = None):
    """Run every item once.

    Returns the item times on ``clock``, their wall times, the outputs and
    the last tiptree import.
    """
    if tracer is not None and not wl.fresh_per_item:
        tracer.install()
    times, walls, outputs = [], [], []
    for idx, item in enumerate(items):
        if wl.fresh_per_item:
            api = load_tiptree()
            if tracer is not None:
                tracer.install()
            gc.collect()
        if tracer is not None:
            tracer.item = idx
        wall = perf_counter()
        start = clock.now()
        try:
            out = wl.run(api, item)
        except Exception as exc:  # an item that raises counts as failed
            out = exc
        times.append(clock.now() - start)
        walls.append(perf_counter() - wall)
        outputs.append(out)
    return times, walls, outputs, api


def check_outputs(wl, api, items, outputs, errors: list[str]) -> int:
    failed = 0
    for item, out in zip(items, outputs):
        if isinstance(out, Exception):
            msg = "".join(traceback.format_exception(out)).rstrip()
        else:
            try:
                msg = wl.check(api, item, out)
            except Exception:
                msg = "check raised:\n" + traceback.format_exc().rstrip()
        if msg:
            failed += 1
            errors.append(msg)
    return failed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: a value that was measured."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_path = ROOT / ".git" / ref[5:]
    if ref_path.is_file():
        return ref_path.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "tiptree").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_rounds(wl, workload: str, seed: int, seconds: float, trace: bool,
               clock: SpeedClock) -> SimpleNamespace:
    """Repeat rounds over the run's items until ``seconds`` of item wall time are measured."""
    setups, samples, traced_walls, tracers = [], [], [], []
    attempted = failed = 0
    errors: list[str] = []
    layer_errors: list[str] = []
    measured = round_wall = 0.0
    round_no = 0
    # Every round runs the same items; the run stops when the measured item
    # wall time is as close to ``seconds`` as whole rounds allow.
    while round_no == 0 or measured + round_wall / 2 < seconds:
        # Set-up, a fresh import plus the inputs, is timed several times per
        # round, so its samples spread over the whole run.
        for _ in range(SETUPS_PER_ROUND):
            gc.collect()
            start = clock.now()
            api = load_tiptree()
            items = wl.inputs(api, run_rng(workload, seed))
            setups.append(clock.now() - start)
        gc.collect()
        order = wl.order(len(items))
        entries = [items[i] for i in order]
        times, walls, outputs, api = run_pass(wl, api, entries, clock)
        more = wl.follow_up(entries, outputs)
        if more:
            more_times, more_walls, more_outputs, api = run_pass(wl, api, more, clock)
            order += range(len(items), len(items) + len(more))
            items, entries = items + more, entries + more
            times, walls, outputs = times + more_times, walls + more_walls, outputs + more_outputs
        attempted += len(entries)
        failed += check_outputs(wl, api, entries, outputs, errors)
        if not samples:
            samples = [[] for _ in items]
        first_outputs = [None] * len(items)
        for idx, t, out in zip(order, times, outputs):
            samples[idx].append(t)
            if first_outputs[idx] is None:
                first_outputs[idx] = out
        round_wall = sum(walls)
        if trace:
            tracer = Tracer(clock.now_ns)
            gc.collect()
            ttimes, twalls, toutputs, _ = run_pass(wl, api, items, clock, tracer)
            attempted += len(items)
            for out, tout in zip(first_outputs, toutputs):
                if isinstance(tout, Exception) or tout != out:
                    failed += 1
                    errors.append(f"traced output differs: {tout!r:.200}")
            traced_walls.append(sum(ttimes))
            round_wall += sum(twalls)
            if tracer.total_self_s() > traced_walls[-1]:
                layer_errors.append(
                    f"round {round_no}: layer self times {tracer.total_self_s():.6f} s "
                    f"exceed the traced wall {traced_walls[-1]:.6f} s"
                )
            tracers.append(tracer)
        measured += round_wall
        round_no += 1
    return SimpleNamespace(
        rounds=round_no, setups=setups, samples=samples, traced_walls=traced_walls,
        tracers=tracers, attempted=attempted, failed=failed, errors=errors,
        layer_errors=layer_errors, measured_wall_s=measured,
    )


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload](ShapeSampler(BIG_MAX_EDGES))
    clock = SpeedClock()
    with clock:
        rounds = run_rounds(wl, workload, seed, seconds, trace, clock)
    samples, tracers = rounds.samples, rounds.tracers
    item_times = [statistics.median(s) for s in samples]
    wall = sum(item_times)

    if trace:
        # Counts repeat exactly from round to round; times are medians over the rounds.
        per_round = [t.layer_values() for t in tracers]
        values = {name: statistics.median(r[name] for r in per_round) for name in per_round[0]}
        values["trace.wall_s"] = statistics.median(rounds.traced_walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - wall
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}
    else:
        values = {
            "wall_s": wall,
            "items_per_s": len(item_times) / wall,
            "item_p50_ms": statistics.median(item_times) * 1e3,
            "item_p95_ms": percentile(item_times, 0.95) * 1e3,
            "setup_s": statistics.median(rounds.setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    attempted, failed = rounds.attempted, rounds.failed

    meta = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "rounds": rounds.rounds,
        "items": len(item_times),
        "samples_per_item": [min(map(len, samples)), max(map(len, samples))],
        "setup_samples": len(rounds.setups),
        "error_rate": failed / attempted,
        "tracing_overhead_s": values.get("trace.overhead_s"),
        "measured_wall_s": rounds.measured_wall_s,
        "clock": clock.summary(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "optimize": sys.flags.optimize,
        "machine": platform.machine(),
    }
    for msg in rounds.errors[:MAX_REPORTED_ERRORS] + rounds.layer_errors:
        print(msg, file=sys.stderr)
    result = {
        "correct": failed == 0 and not rounds.layer_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    if trace:
        for idx, tracer in enumerate(tracers):
            tracer.write(OUT / f"{stem}-round{idx}-spans.csv.gz", {**meta, "round": idx})
    return {"meta": meta, "result": result}


def run_all(args) -> int:
    """Run every workload in its own process and print its metrics as a table."""
    ok = True
    for workload in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: exit code {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        error_rate = result["failed"] / result["attempted"]
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} error_rate={error_rate:g}")
        for name, metric in result["metrics"].items():
            print(f"  {name:32s} {metric['value']:>14.6g} {metric['unit']}")
        sys.stdout.flush()
    return 0 if ok else 1


def default_seconds() -> float:
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    return config["run_seconds"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="item time to measure (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds is None:
        args.seconds = default_seconds()
    if sys.flags.optimize:
        # decompose, merge and phi check themselves with assert.
        print("refusing to run under python -O", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    try:
        report = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("meta " + json.dumps(report["meta"]))
    print(json.dumps(report["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
