"""Benchmark for the rosa package: one workload per process.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 30 --trace 0

Run from the root of a rosa checkout. With --trace 0 the run reports the
end-to-end metrics; with --trace 1 it alternates untraced and traced
cycles of the workload and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
# One BLAS thread: faster than two for these small matrices, same losses.
BLAS_THREADS = 1
SETUP_MIN, SETUP_MAX = 5, 10
SETUP_TIMEOUT_S = 60
OUT_DIR = ".perfbench"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("grid", "resample", "exact"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-fingerprint", action="store_true",
                        help=f"record this run's outputs as the seed-{DEFAULT_SEED} "
                             "fingerprint instead of checking against it")
    return parser.parse_args(argv)


def _load_fingerprint() -> dict:
    try:
        with open(os.path.join(HERE, "fingerprint.json"), encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


def _write_fingerprint(workload: str, ops: dict) -> None:
    data = _load_fingerprint()
    data[workload] = dict(sorted(ops.items()))
    with open(os.path.join(HERE, "fingerprint.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sorted(data.items())), fh, indent=1)
        fh.write("\n")


class SetupTimer:
    """Time from spawning a fresh interpreter to the point where it would
    take its first training step or solver call. One sample per call."""

    def __init__(self, wl):
        self.code, self.argv = wl.setup_child()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.path.abspath("src")
        self.env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.samples: list[float] = []

    def sample(self) -> None:
        if len(self.samples) >= SETUP_MAX:
            return
        start = perf_counter()
        with subprocess.Popen([sys.executable, "-c", self.code, *self.argv],
                              env=self.env, stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline()
                elapsed = perf_counter() - start
                child.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if child.poll() is None:
                    child.kill()
                    child.wait()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"setup child failed with code {child.returncode}")
        self.samples.append(elapsed)


def _merged(units) -> tuple[dict, set]:
    ops, bad = {}, set()
    for u in units:
        ops.update(u.inspected.ops)
        bad |= u.inspected.bad
    return ops, bad


def _count_failures(wl, cycles, reference: dict) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages). An operation fails when it raised,
    failed its own check, or its fingerprint differs from the reference."""
    attempted = failed = 0
    messages = []
    for i, units in enumerate(cycles):
        ops, bad = _merged(units)
        for key in wl.op_keys():
            attempted += 1
            got = ops.get(key)
            if got is None:
                why = "no result"
            elif key in bad:
                why = "check failed"
            elif reference.get(key) != got:
                why = f"fingerprint {got} != {reference.get(key)}"
            else:
                continue
            failed += 1
            messages.append(f"cycle {i} {key}: {why}")
    return attempted, failed, messages


def _unit_table(cycles) -> None:
    walls: dict[str, list[float]] = {}
    for units in cycles:
        for u in units:
            walls.setdefault(u.key, []).append(u.wall_s)
    print(f"{len(cycles)} cycles; unit wall times in s (best / median / worst):")
    for key, values in walls.items():
        print(f"  {key:<12} {min(values):.4f} / {statistics.median(values):.4f} / "
              f"{max(values):.4f}  over {len(values)}")


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join("src", "rosa", "__init__.py")):
        print("error: run from the root of a rosa checkout (src/rosa not found)",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    from stamp import environment, pin_blas_threads
    pinned = pin_blas_threads(BLAS_THREADS)
    sys.path.insert(0, os.path.abspath("src"))

    import layers
    from workloads import WORKLOADS, best_cycle_s, cycle_work, measure

    workdir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, workdir)
    try:
        env = environment(os.getcwd(), pinned)
        wl.prepare()
        try:
            if args.trace:
                untraced, traced, metrics, report = layers.traced_run(
                    wl, args.seconds, os.path.join(OUT_DIR, f"spans_{wl.name}.csv"))
                cycles = untraced + traced
            else:
                setup = SetupTimer(wl)
                cycles = measure(wl, args.seconds, min_cycles=2, between=setup.sample)
                while len(setup.samples) < SETUP_MIN:
                    setup.sample()
                wall = best_cycle_s(cycles)
                metrics = {
                    "setup_s": (min(setup.samples), "s"),
                    "wall_s": (wall, "s"),
                    "steps_per_s": (cycle_work(cycles) / wall, "1/s"),
                    "peak_rss_mb": (
                        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                }
        finally:
            if hasattr(wl, "close"):
                wl.close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first_ops = _merged(cycles[0])[0]
    if args.write_fingerprint:
        if args.seed != DEFAULT_SEED:
            print(f"error: the fingerprint is recorded at seed {DEFAULT_SEED}",
                  file=sys.stderr)
            return 2
        _write_fingerprint(wl.name, first_ops)
    if args.seed == DEFAULT_SEED:
        reference = _load_fingerprint().get(wl.name, {})
        basis = "the recorded fingerprint"
    else:
        reference = first_ops
        basis = "the first cycle of this run"
    attempted, failed, messages = _count_failures(wl, cycles, reference)
    if args.trace:
        checked = metrics["trace.self_checked"][0]
        bad_spans = metrics["trace.self_check_failures"][0]
        attempted, failed = attempted + checked, failed + bad_spans
        if bad_spans:
            messages.append(f"{bad_spans} spans failed the self-time check")
    else:
        metrics["ok_ratio"] = ((attempted - failed) / attempted, "ratio")

    print(f"workload {wl.name} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations checked against {basis}, {failed} failed")
    for message in messages[:20]:
        print(f"  FAIL {message}")
    print("environment: " + json.dumps(env, sort_keys=True))
    _unit_table(cycles)
    if args.trace:
        layers.print_report(metrics, report)
    else:
        print("setup_s samples: " + ", ".join(f"{t:.4f}" for t in setup.samples))
        print("end-to-end (tracing off; times are best repetitions):")
        for name, (value, unit) in metrics.items():
            print(f"  {name:<14} {value:>14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
