"""Benchmark of slidekick: one workload per process, end to end or traced.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload fold-map-sweep --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --seed 1            # every workload, one process each

A run sets up (imports slidekick, builds the workload's models and
profiles), then runs whole rounds of the workload's operations until
``--seconds`` have passed, checking every output.  With ``--trace 0`` it
reports the end-to-end metrics; with ``--trace 1`` it runs one untraced and
one traced round and reports the per-layer metrics from the traced one.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one thread per workload process: BLAS and OpenMP read these at load time
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_SAMPLES = 3  # this process plus two fresh interpreters
SETUP_PERIOD = 0.05  # s between yardstick samples during set-up
PERIOD = 0.1  # s between yardstick samples during the timed phase

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_s_p50": "s",
    "peak_rss_mb": "MB",
}

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(SRC))

from workloads import WORKLOADS, Op, Workload  # noqa: E402
from yardstick import Yardstick, python_reference, radau_reference  # noqa: E402


def _timed_setup(name: str, seed: int) -> tuple[Workload, float, float]:
    """Set the workload up; (workload, seconds at nominal speed, raw seconds)."""
    wl = WORKLOADS[name](seed)
    with Yardstick(python_reference, SETUP_PERIOD) as ys:
        a = ys.mark()
        wl.setup()
        b = ys.mark()
    return wl, ys.normalized(a, b), b[0] - a[0]


def _setup_in_fresh_interpreter(name: str) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe", name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def run_op(wl: Workload, op: Op, ys: Yardstick) -> None:
    wl.before(op)
    op.start = ys.mark()
    try:
        op.result = op.call()
    except Exception as exc:  # the run goes on; the operation counts as failed
        op.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    op.end = ys.mark()


def check_op(op: Op) -> None:
    if op.error is not None:
        return
    try:
        op.problems.extend(op.check(op.result))
    except Exception as exc:  # a check that cannot be evaluated is a failed check
        op.problems.append(f"check raised {type(exc).__name__}: {exc}")


def run_round(wl: Workload, r: int, ys: Yardstick) -> tuple[list[Op], tuple]:
    """Run one round; the checks follow it, outside the timed interval."""
    ops = wl.round(r)
    start = ys.mark()
    for op in ops:
        run_op(wl, op, ys)
    end = ys.mark()
    for op in ops:
        check_op(op)
    wl.round_checks(ops)
    return ops, (start, end)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl, setup_first, setup_raw = _timed_setup(name, seed)
    ops: list[Op] = []
    rounds: list[tuple] = []
    with Yardstick(radau_reference, PERIOD) as ys:
        t_start = time.perf_counter()
        r = 0
        # whole rounds until the time is up; a traced run makes one untraced
        # round, the base of trace.overhead_s, and one traced round
        while r < (1 if trace else wl.min_rounds) or (not trace and time.perf_counter() - t_start < seconds):
            round_ops, marks = run_round(wl, r, ys)
            ops += round_ops
            rounds.append(marks)
            r += 1
        if trace:
            import spans

            tracer = spans.Tracer()
            tracer.install()
            try:
                wl.build()
                traced_ops, traced_marks = run_round(wl, r, ys)
            finally:
                tracer.uninstall()
            ops += traced_ops
    wl.run_checks(ops)
    round_s = [ys.normalized(a, b) for a, b in rounds]
    raw_round_s = [b[0] - a[0] for a, b in rounds]

    if trace:
        layer = spans.per_layer_metrics(tracer.spans)
        layer["trace.overhead_s"] = ys.normalized(*traced_marks) - statistics.median(round_s)
        layer.update(spans.probe_layers(wl))
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
        metrics = {k: {"value": layer[k], "unit": unit} for k, (unit, _better) in spans.PER_LAYER.items()}
    else:
        setups = [setup_first] + [_setup_in_fresh_interpreter(name) for _ in range(SETUP_SAMPLES - 1)]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(round_s),
            "op_s_p50": statistics.median(ys.normalized(op.start, op.end) for op in ops),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
        print(f"raw wall time: set-up {setup_raw:.4f} s, rounds "
              + ", ".join(f"{x:.3f}" for x in raw_round_s) + " s; yardstick "
              + f"{len(ys.samples)} samples, median {statistics.median(s for _, s in ys.samples) * 1e3:.3f} ms")

    for op in ops:
        if op.failed:
            why = op.error or "; ".join(op.problems)
            print(f"FAILED {op.label}: {why}", file=sys.stderr)
    return {
        # an exception fails its operation; a wrong output also makes the run incorrect
        "correct": not any(op.problems for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "metrics": metrics,
    }


def _print_result(name: str, result: dict) -> None:
    print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {str(result['correct']).lower()}")
    for key, m in result["metrics"].items():
        print(f"  {key} = {m['value']:.6g} {m['unit']}")


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload in its own process, then one combined result."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            raise SystemExit(f"workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_result(name, result)
        total["correct"] = total["correct"] and result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, m in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = m
    return total


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), help="default: every workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", choices=sorted(WORKLOADS), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "slidekick" / "__init__.py").is_file():
        print(f"perfbench: no slidekick sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(_timed_setup(args.setup_probe, 0)[1])
        return 0
    if args.workload is None:
        result = run_all(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
        _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
