"""Per-layer metrics from a traced run.

`traced_run` alternates untraced and traced cycles of the workload and
turns the spans into per-layer metrics. Counts and self times are per
cycle (one run of every unit of the workload), so they add up against the
cycle's wall time. TARGETS names, for each per-layer metric, the
end-to-end metric it should move and on which workloads.
"""

from __future__ import annotations

import os
import statistics
from time import perf_counter

import floors
import spans
from workloads import EXACT_ARGS, best_cycle_s, measure

SELF_CHECK_TOL_S = 1e-6

# metric -> (end-to-end metric it should move, workloads where it should)
TARGETS = {
    "network.forward.calls": ("steps_per_s, wall_s", "grid; little on resample"),
    "network.forward.self_s": ("steps_per_s, wall_s", "grid; little on resample"),
    "network.backward.calls": ("steps_per_s, wall_s", "grid; little on resample"),
    "network.backward.self_s": ("steps_per_s, wall_s", "grid; little on resample"),
    "network.loss.self_s": ("steps_per_s, wall_s", "grid; little on resample"),
    "network.predict.self_s": ("wall_s", "grid; little on resample"),
    "network.gflops": ("steps_per_s", "grid"),
    "network.forward.computed_mflop": ("steps_per_s", "grid, resample"),
    "network.backward.computed_mflop": ("steps_per_s", "grid, resample"),
    "network.forward.computed_mb": ("steps_per_s", "grid, resample"),
    "network.backward.computed_mb": ("steps_per_s", "grid, resample"),
    "network.step_ms": ("steps_per_s", "grid"),
    "network.step_floor_ms": ("steps_per_s", "grid"),
    "network.step_over_floor": ("steps_per_s", "grid"),
    "optim.step.calls": ("steps_per_s, wall_s", "grid; little on resample"),
    "optim.step.self_s": ("steps_per_s, wall_s", "grid; little on resample"),
    "optim.step.computed_mflop": ("steps_per_s", "grid, resample"),
    "optim.step.computed_mb": ("steps_per_s", "grid, resample"),
    "optim.reset_moments.calls": ("wall_s", "resample"),
    "training.run.self_s": ("steps_per_s", "grid"),
    "training.step_ms_p50": ("steps_per_s", "grid"),
    "training.step_ms_p99": ("steps_per_s", "grid"),
    "training.step_samples": ("steps_per_s", "grid"),
    "training.adapt_network_s": ("setup_s", "all"),
    "training.write_s": ("wall_s", "resample"),
    "adapters.factorize.calls": ("wall_s, steps_per_s", "resample; small on grid"),
    "adapters.factorize.self_s": ("wall_s, steps_per_s", "resample; small on grid"),
    "linalg.svd.calls": ("wall_s", "resample, exact"),
    "linalg.svd.self_s": ("wall_s", "resample, exact"),
    "linalg.svd.computed_mflop": ("wall_s", "resample, exact"),
    "linalg.svd.computed_mb": ("wall_s", "resample, exact"),
    "linalg.svd_ms": ("wall_s", "resample, exact"),
    "linalg.svd_floor_ms": ("wall_s", "resample, exact"),
    "linalg.svd_over_floor": ("wall_s", "resample, exact"),
    "linalg.singular_values.calls": ("wall_s", "exact; drift ranks on grid"),
    "linalg.singular_values.self_s": ("wall_s", "exact; drift ranks on grid"),
    "linalg.sample_indices.self_s": ("wall_s", "resample"),
    "exact.least_squares.calls": ("steps_per_s, wall_s", "exact only"),
    "exact.least_squares.self_s": ("steps_per_s, wall_s", "exact only"),
    "exact.least_squares_ms": ("steps_per_s, wall_s", "exact only"),
    "exact.lstsq_floor_ms": ("steps_per_s, wall_s", "exact only"),
    "exact.lstsq_over_floor": ("steps_per_s, wall_s", "exact only"),
    "exact.problem.calls": ("steps_per_s, wall_s", "exact only"),
    "exact.problem.self_s": ("steps_per_s, wall_s", "exact only"),
    "exact.rrr_optimum.self_s": ("steps_per_s, wall_s", "exact only"),
    "exact.iterate.self_s": ("steps_per_s, wall_s", "exact only"),
    "exact.data_error.self_s": ("steps_per_s, wall_s", "exact only"),
    "experiments.sweep.calls": ("wall_s", "grid"),
    "experiments.runs_kept_ratio": ("wall_s", "grid"),
    "experiments.runs_total": ("wall_s", "grid"),
    "checkpoint.save.calls": ("wall_s", "resample"),
    "checkpoint.save.bytes": ("wall_s", "resample"),
    "checkpoint.save.self_s": ("wall_s", "resample"),
    "checkpoint.load.calls": ("wall_s", "resample"),
    "checkpoint.load.self_s": ("wall_s", "resample"),
    "cli.self_s": ("wall_s, setup_s", "resample"),
    "synthetic.generate_s": ("setup_s", "grid, resample"),
    "trace.spans": ("none (bookkeeping)", "all"),
    "trace.overhead_ratio": ("none (bookkeeping)", "all"),
    "trace.self_checked": ("none (bookkeeping)", "all"),
    "trace.self_check_failures": ("none (bookkeeping)", "all"),
}

# Spans whose self time is summed into one metric.
_SELF = {
    "network.forward.self_s": ("network.forward",),
    "network.backward.self_s": ("network.backward",),
    "network.loss.self_s": ("network.loss",),
    "network.predict.self_s": ("network.predict",),
    "optim.step.self_s": ("optim.step",),
    "training.run.self_s": ("training.run",),
    "training.write_s": ("training.write",),
    "adapters.factorize.self_s": ("adapters.factorize",),
    "linalg.svd.self_s": ("linalg.svd",),
    "linalg.singular_values.self_s": ("linalg.singular_values",),
    "linalg.sample_indices.self_s": ("linalg.sample_indices",),
    "exact.least_squares.self_s": ("exact.least_squares",),
    "exact.problem.self_s": ("exact.problem",),
    "exact.rrr_optimum.self_s": ("exact.rrr_optimum",),
    "exact.iterate.self_s": ("exact.iterate",),
    "exact.data_error.self_s": ("exact.data_error",),
    "checkpoint.save.self_s": ("checkpoint.save",),
    "checkpoint.load.self_s": ("checkpoint.load",),
    "cli.self_s": ("cli.main", "cli.build_configs", "cli.cmd_train", "cli.cmd_spectrum"),
}

_CALLS = {
    "network.forward.calls": "network.forward",
    "network.backward.calls": "network.backward",
    "optim.step.calls": "optim.step",
    "optim.reset_moments.calls": "optim.reset_moments",
    "adapters.factorize.calls": "adapters.factorize",
    "linalg.svd.calls": "linalg.svd",
    "linalg.singular_values.calls": "linalg.singular_values",
    "exact.least_squares.calls": "exact.least_squares",
    "exact.problem.calls": "exact.problem",
    "experiments.sweep.calls": "experiments.sweep",
    "checkpoint.save.calls": "checkpoint.save",
    "checkpoint.load.calls": "checkpoint.load",
}


def traced_run(wl, seconds: float, spans_path: str):
    """Alternate untraced and traced cycles for `seconds`, so both see the
    same machine. Returns both cycle lists, the per-layer metrics and a
    report of self time by span."""
    rec = spans.Recorder()
    undo = spans.install(rec)
    try:
        # Run id -1 holds the traced set-up; cycles are runs 0, 1, ...
        sid = rec.open("bench.setup")
        wl.inputs()
        rec.close(sid)
    finally:
        spans.uninstall(undo)
    untraced, traced = [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        untraced += measure(wl, 0.0, min_cycles=0, max_cycles=1)
        undo = spans.install(rec)
        try:
            traced += measure(wl, 0.0, min_cycles=0, max_cycles=1, recorder=rec)
        finally:
            spans.uninstall(undo)
    _write_spans(rec.spans, spans_path)
    metrics, report = per_layer(wl, rec.spans, untraced, traced)
    return untraced, traced, metrics, report


def _write_spans(all_spans, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    t0 = all_spans[0][1] if all_spans else 0.0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id,name,start_s,end_s,parent,run,layer\n")
        for sid, (name, start, end, parent, run, layer, _) in enumerate(all_spans):
            layer_text = "" if layer is None else str(layer)
            fh.write(f"{sid},{name},{start - t0:.9f},{end - t0:.9f},"
                     f"{parent},{run},{layer_text}\n")


def _step_latencies(all_spans) -> list[float]:
    """Per training step, from the forward call to the end of the optimizer
    step, for direct children of a training.run span."""
    runs = {sid for sid, s in enumerate(all_spans) if s[0] == "training.run"}
    out, start = [], {}
    for s in all_spans:
        if s[3] not in runs:
            continue
        if s[0] == "network.forward":
            start[s[3]] = s[1]
        elif s[0] == "optim.step" and s[3] in start:
            out.append(s[2] - start.pop(s[3]))
    return out


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def _mean_cycle_s(cycles) -> float:
    return statistics.fmean(sum(u.wall_s for u in units) for units in cycles)


def per_layer(wl, all_spans, untraced, traced) -> dict:
    n_cycle = max(1, len(traced))
    own = spans.self_times(all_spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    dur: dict[str, float] = {}
    for s, t in zip(all_spans, own):
        if s[4] < 0:
            continue
        calls[s[0]] = calls.get(s[0], 0) + 1
        self_s[s[0]] = self_s.get(s[0], 0.0) + t
        dur[s[0]] = dur.get(s[0], 0.0) + (s[2] - s[1])
    by_name: dict[str, list] = {}
    for s in all_spans:
        by_name.setdefault(s[0], []).append(s)
    in_cycle = {name: [s for s in found if s[4] >= 0] for name, found in by_name.items()}

    def mean_ms(name):
        """Mean duration of the name's calls inside cycles, in ms."""
        n = calls.get(name, 0)
        return 1e3 * dur[name] / n if n else 0.0

    def mean_s_any(name):
        """Mean duration of all the name's calls, traced set-up included."""
        found = by_name.get(name, [])
        return statistics.fmean(s[2] - s[1] for s in found) if found else 0.0

    m = {}
    for metric, name in _CALLS.items():
        m[metric] = (calls.get(name, 0) / n_cycle, "count")
    for metric, names in _SELF.items():
        m[metric] = (sum(self_s.get(n, 0.0) for n in names) / n_cycle, "s")

    fwd = in_cycle.get("network.forward", [])
    bwd = in_cycle.get("network.backward", [])
    steps = in_cycle.get("optim.step", [])
    fwd_flops = sum(floors.forward_flops(s[6]) for s in fwd)
    bwd_flops = sum(floors.backward_flops(s[6]) for s in bwd)
    busy = dur.get("network.forward", 0.0) + dur.get("network.backward", 0.0)
    m["network.gflops"] = ((fwd_flops + bwd_flops) / busy / 1e9 if busy else 0.0, "GFLOP/s")
    m["network.forward.computed_mflop"] = (fwd_flops / len(fwd) / 1e6 if fwd else 0.0, "MFLOP")
    m["network.backward.computed_mflop"] = (bwd_flops / len(bwd) / 1e6 if bwd else 0.0, "MFLOP")
    elements = sum(s[6] for s in steps)
    m["optim.step.computed_mflop"] = (
        floors.ADAMW_FLOPS_PER_ELEMENT * elements / len(steps) / 1e6 if steps else 0.0, "MFLOP")
    m["network.forward.computed_mb"] = (
        statistics.fmean(floors.forward_bytes(s[6]) for s in fwd) / 1e6 if fwd else 0.0, "MB")
    m["network.backward.computed_mb"] = (
        statistics.fmean(floors.backward_bytes(s[6]) for s in bwd) / 1e6 if bwd else 0.0, "MB")
    m["optim.step.computed_mb"] = (
        floors.ADAMW_BYTES_PER_ELEMENT * elements / len(steps) / 1e6 if steps else 0.0, "MB")

    latencies = _step_latencies(all_spans)
    m["training.step_ms_p50"] = (1e3 * _percentile(latencies, 0.50) if latencies else 0.0, "ms")
    m["training.step_ms_p99"] = (1e3 * _percentile(latencies, 0.99) if latencies else 0.0, "ms")
    m["training.step_samples"] = (len(latencies), "count")
    m["training.adapt_network_s"] = (mean_s_any("training.adapt_network"), "s")
    m["synthetic.generate_s"] = (mean_s_any("synthetic.generate"), "s")

    step_floor = floors.step_floor_s(wl.step_dims, wl.step_ranks, wl.step_cols)
    step_ms = statistics.fmean(latencies) * 1e3 if latencies else 0.0
    m["network.step_ms"] = (step_ms, "ms")
    m["network.step_floor_ms"] = (step_floor * 1e3, "ms")
    m["network.step_over_floor"] = (step_ms / (step_floor * 1e3), "ratio")

    svd_spans = in_cycle.get("linalg.svd", [])
    m["linalg.svd.computed_mflop"] = (
        statistics.fmean(floors.svd_flops(*s[6]) for s in svd_spans) / 1e6
        if svd_spans else 0.0, "MFLOP")
    m["linalg.svd.computed_mb"] = (
        statistics.fmean(floors.svd_bytes(*s[6]) for s in svd_spans) / 1e6
        if svd_spans else 0.0, "MB")
    svd_floor = floors.svd_floor_s(*wl.svd_shape) * 1e3
    m["linalg.svd_ms"] = (mean_ms("linalg.svd"), "ms")
    m["linalg.svd_floor_ms"] = (svd_floor, "ms")
    m["linalg.svd_over_floor"] = (mean_ms("linalg.svd") / svd_floor, "ratio")

    lstsq_floor = floors.lstsq_floor_s(EXACT_ARGS["n"], EXACT_ARGS["d"], EXACT_ARGS["p"]) * 1e3
    m["exact.least_squares_ms"] = (mean_ms("exact.least_squares"), "ms")
    m["exact.lstsq_floor_ms"] = (lstsq_floor, "ms")
    m["exact.lstsq_over_floor"] = (mean_ms("exact.least_squares") / lstsq_floor, "ratio")

    sweep_ids = {sid for sid, s in enumerate(all_spans)
                 if s[0] == "experiments.sweep" and s[4] >= 0}
    swept = sum(1 for s in in_cycle.get("training.run", []) if s[3] in sweep_ids)
    m["experiments.runs_total"] = (swept / n_cycle, "count")
    m["experiments.runs_kept_ratio"] = (len(sweep_ids) / swept if swept else 0.0, "ratio")
    saves = in_cycle.get("checkpoint.save", [])
    m["checkpoint.save.bytes"] = (
        statistics.fmean(s[6] for s in saves) if saves else 0.0, "bytes")

    checked = failing = 0
    for root in ("training.run", "bench.unit"):
        c, f = spans.check_nesting(all_spans, root, SELF_CHECK_TOL_S)
        checked, failing = checked + c, failing + f
    m["trace.spans"] = (sum(1 for s in all_spans if s[4] >= 0) / n_cycle, "count")
    untraced_wall = best_cycle_s(untraced)
    traced_wall = best_cycle_s(traced)
    m["trace.overhead_ratio"] = (traced_wall / untraced_wall - 1.0, "ratio")
    m["trace.self_checked"] = (checked, "count")
    m["trace.self_check_failures"] = (failing, "count")
    report = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
              "untraced_mean_s": _mean_cycle_s(untraced),
              "traced_mean_s": _mean_cycle_s(traced),
              "self_by_span": {name: (calls[name] / n_cycle, self_s[name] / n_cycle)
                               for name in calls}}
    return m, report


def print_report(metrics: dict, report: dict) -> None:
    """Human-readable per-layer report."""
    untraced = report["untraced_wall_s"]
    traced = report["traced_wall_s"]
    by_span = report["self_by_span"]
    print(f"self time per cycle by span (best cycle: traced {traced:.4f} s, "
          f"untraced {untraced:.4f} s):")
    total = 0.0
    for name, (n, t) in sorted(by_span.items(), key=lambda kv: -kv[1][1]):
        total += t
        print(f"  {name:<34} {n:>10.1f} calls {t:>10.4f} s  {100 * t / traced:6.2f}%")
    print(f"  {'sum of self times':<34} {'':>16} {total:>10.4f} s; mean cycle "
          f"traced {report['traced_mean_s']:.4f} s, untraced "
          f"{report['untraced_mean_s']:.4f} s ({total / report['untraced_mean_s']:.4f} x)")
    print("waiting: no layer has a queue or a second worker, so no work waits; "
          "no wait times are reported.")
    print("operation counts (computed from shapes, not measured): "
          "every *.computed_mflop and *.computed_mb")
    print("per-layer metrics (per cycle unless named otherwise) -> target:")
    for name, (value, unit) in metrics.items():
        target, where = TARGETS[name]
        print(f"  {name:<34} {value:>14.6g} {unit:<8} -> {target} on {where}")
