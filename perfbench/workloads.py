"""The three workloads: their units, and how each unit's output is checked.

Each workload is a closed loop with one caller. A cycle runs every unit of
the workload once, in order; a unit starts only after the previous one
returned. Units call the package through module attributes
(`rosa.experiments.run_method_comparison`, `rosa.cli.main`) so that the
span wrappers installed by spans.py see every call.

`run_unit` is the timed part. `inspect_unit` runs after the clock stops
and turns the raw output into operations: each operation (a training run,
a CLI call or a theorem case) gets a fingerprint string, compared for
exact equality, and may fail an intrinsic check of its own.

Units are kept short (a fraction of a second to about two seconds) and
repeated many times per run, because the best time of a unit over many
repetitions is what stays steady on a machine whose speed changes.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from time import perf_counter

GRID_ENTRIES = (("ft", None), ("rosa", 2), ("rosa", 6), ("rosa", 12),
                ("lora", 2), ("lora", 6), ("lora", 12))
GRID_EPOCHS = 8
RESAMPLE_SCHEMES = ("top", "bottom", "random")
RESAMPLE_EPOCHS = 4
EXACT_ARGS = {"n": 2000, "d": 128, "p": 64, "residual_rank": 8,
              "ranks": (1, 2, 4, 8)}


@dataclass
class Inspected:
    work: int = 0                                   # optimizer steps or greedy rounds
    ops: dict[str, str] = field(default_factory=dict)  # op key -> fingerprint
    bad: set[str] = field(default_factory=set)      # ops failing an intrinsic check


class Grid:
    """Best-of-learning-rate comparison on the acceptance task, one
    (method, rank) entry per unit."""

    name = "grid"
    step_dims = (64, 64, 64)
    step_ranks = tuple(rank for _, rank in GRID_ENTRIES)
    step_cols = 64
    svd_shape = (64, 64)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def setup_child(self) -> tuple[str, list[str]]:
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rosa.synthetic import SyntheticSpec, generate_synthetic\n"
            "from rosa.training import TrainConfig, adapt_network\n"
            "seed = int(sys.argv[1])\n"
            "task = generate_synthetic(SyntheticSpec(seed=seed, n_train=768))\n"
            "config = TrainConfig(method='ft', epochs=%d, seed=seed, batch_size=64,\n"
            "                     factorize_every=4, lr=2e-2)\n"
            "adapt_network(task.base, config, np.random.default_rng(seed))\n"
            "print('ready', flush=True)\n" % GRID_EPOCHS)
        return code, [str(self.seed)]

    def prepare(self) -> None:
        self.inputs()

    def inputs(self) -> None:
        import rosa.synthetic
        self.task = rosa.synthetic.generate_synthetic(
            rosa.synthetic.SyntheticSpec(seed=self.seed, n_train=768))

    def unit_keys(self) -> list[str]:
        return [f"{m}-r{r}" for m, r in GRID_ENTRIES]

    def op_keys(self) -> list[str]:
        from rosa.experiments import LR_GRID
        return [f"{m}-r{r}-lr{lr!r}" for m, r in GRID_ENTRIES for lr in LR_GRID]

    def run_unit(self, key: str):
        import rosa.experiments
        entry = GRID_ENTRIES[self.unit_keys().index(key)]
        return rosa.experiments.run_method_comparison(
            self.task, [entry], epochs=GRID_EPOCHS, seed=self.seed,
            batch_size=64, factorize_every=4)

    def inspect_unit(self, key: str, cells) -> Inspected:
        out = Inspected()
        for cell in cells:
            keys = [f"{cell['method']}-r{cell['rank']}-lr{row['lr']!r}"
                    for row in cell["lr_rows"]]
            for op, row in zip(keys, cell["lr_rows"]):
                out.ops[op] = repr(row["final_val_loss"])
            result = cell["result"]
            out.work += result.records[-1].step * len(cell["lr_rows"])
            if cell["method"] == "lora":
                check = result.summary["lora_rank_check"]
                if not (check and check["ok"]
                        and max(check["residual_ranks"]) <= cell["rank"]):
                    out.bad.update(keys)
        return out


class Resample:
    """A CLI train run that merges and re-samples every step, followed by a
    spectrum report on the run's two checkpoints; one scheme per unit."""

    name = "resample"
    step_dims = (128, 128, 128)
    step_ranks = (24,)
    step_cols = 64
    svd_shape = (128, 128)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = os.path.join(workdir, "resample")
        self.config_path = os.path.join(self.dir, "config.json")

    def _write_config(self) -> None:
        os.makedirs(self.dir, exist_ok=True)
        config = {
            "method": "rosa", "rank": 24, "factorize_unit": "steps",
            "factorize_every": 1, "lr": 2e-3, "epochs": RESAMPLE_EPOCHS,
            "batch_size": 64, "seed": self.seed,
            "data": {"layer_dims": [128, 128, 128], "drift_rank": 48,
                     "n_train": 768, "n_val": 256, "seed": self.seed},
        }
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)

    def setup_child(self) -> tuple[str, list[str]]:
        self._write_config()
        code = (
            "import sys\n"
            "import numpy as np\n"
            "from rosa.cli import _build_configs, build_parser\n"
            "from rosa.synthetic import generate_synthetic\n"
            "from rosa.training import adapt_network\n"
            "args = build_parser().parse_args(['train', '--config', sys.argv[1],\n"
            "                                  '--out', sys.argv[2], '--scheme', 'top'])\n"
            "config, spec = _build_configs(args)\n"
            "task = generate_synthetic(spec)\n"
            "adapt_network(task.base, config, np.random.default_rng(config.seed))\n"
            "print('ready', flush=True)\n")
        return code, [self.config_path, self.dir]

    def prepare(self) -> None:
        self._write_config()

    def inputs(self) -> None:
        pass

    def unit_keys(self) -> list[str]:
        return list(RESAMPLE_SCHEMES)

    def op_keys(self) -> list[str]:
        return [f"{kind}-{s}" for s in RESAMPLE_SCHEMES for kind in ("train", "spectrum")]

    def run_unit(self, scheme: str):
        import rosa.cli
        out = os.path.join(self.dir, scheme)
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            train = rosa.cli.main(["train", "--config", self.config_path,
                                   "--out", out, "--scheme", scheme])
            spectrum = rosa.cli.main(["spectrum", os.path.join(out, "initial.rsa1"),
                                      os.path.join(out, "model.rsa1"), "--out", out])
        return train, spectrum

    def inspect_unit(self, scheme: str, codes) -> Inspected:
        out = Inspected()
        run_dir = os.path.join(self.dir, scheme)
        train, spectrum = f"train-{scheme}", f"spectrum-{scheme}"
        try:
            with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            with open(os.path.join(run_dir, "metrics.csv"), encoding="utf-8") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(run_dir, "spectrum.csv"), encoding="utf-8") as fh:
                spec_rows = list(csv.DictReader(fh))
        except (OSError, ValueError):
            out.bad.update((train, spectrum))
            return out
        finally:
            # The next repetition must write its own files, not find these.
            shutil.rmtree(run_dir, ignore_errors=True)
        out.work = int(rows[-1]["step"])
        out.ops[train] = repr(summary["final_val_loss"])
        # factorize_every=1 in steps: every epoch holds a re-sample event.
        if (codes[0] != 0 or len(rows) != RESAMPLE_EPOCHS
                or summary["factorize_events"] != RESAMPLE_EPOCHS):
            out.bad.add(train)
        layers = sorted({int(r["layer"]) for r in spec_rows})
        out.ops[spectrum] = ";".join(
            next(r["sigma"] for r in spec_rows if int(r["layer"]) == i) for i in layers)
        last = {int(r["layer"]): float(r["cumulative_fraction"]) for r in spec_rows}
        if (codes[1] != 0 or layers != [0, 1] or len(spec_rows) != 2 * 128
                or any(abs(v - 1.0) > 1e-12 for v in last.values())):
            out.bad.add(spectrum)
        return out


class Exact:
    """The linear-case theorem suite on tall matrices; one suite per unit."""

    name = "exact"
    step_dims = Grid.step_dims
    step_ranks = Grid.step_ranks
    step_cols = Grid.step_cols
    svd_shape = (EXACT_ARGS["n"], EXACT_ARGS["p"])

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.rounds = 0

    def setup_child(self) -> tuple[str, list[str]]:
        a = EXACT_ARGS
        code = (
            "import sys\n"
            "import rosa.experiments\n"
            "from rosa.exact import realizable_instance\n"
            "realizable_instance(%d, %d, %d, %d, int(sys.argv[1]))\n"
            "print('ready', flush=True)\n"
            % (a["n"], a["d"], a["p"], a["residual_rank"]))
        return code, [str(self.seed)]

    def prepare(self) -> None:
        import rosa.experiments

        # Count greedy rounds; the suite itself reports only the predictions.
        iterate = rosa.experiments.rosa_exact_iterate

        def counting(problem, rank, max_steps):
            trace = iterate(problem, rank, max_steps)
            self.rounds += len(trace.errors) - 1
            return trace

        self._restore = iterate
        rosa.experiments.rosa_exact_iterate = counting

    def inputs(self) -> None:
        pass

    def close(self) -> None:
        import rosa.experiments
        rosa.experiments.rosa_exact_iterate = self._restore

    def unit_keys(self) -> list[str]:
        return ["suite"]

    def op_keys(self) -> list[str]:
        return [f"rank{r}" for r in EXACT_ARGS["ranks"]] + ["noisy"]

    def run_unit(self, key: str):
        import rosa.experiments
        self.rounds = 0
        report = rosa.experiments.run_theorem_suite(seed=self.seed, **EXACT_ARGS)
        return report, self.rounds

    def inspect_unit(self, key: str, raw) -> Inspected:
        report, rounds = raw
        out = Inspected(work=rounds)
        for case in report["cases"]:
            op = f"rank{case['rank']}"
            out.ops[op] = f"{case['t_predicted']}/{case['observed_step']}"
            if not (case["converged_at_t"] and case["bound_attained"]
                    and case["strict_before_t"]):
                out.bad.add(op)
        noisy = report["noisy_case"]
        out.ops["noisy"] = str(noisy["plateau_ok"])
        if not noisy["plateau_ok"]:
            out.bad.add("noisy")
        if not report["all_ok"]:
            out.bad.update(out.ops)
        return out


WORKLOADS = {cls.name: cls for cls in (Grid, Resample, Exact)}


@dataclass
class Unit:
    key: str
    wall_s: float
    inspected: Inspected
    raised: bool


def measure(wl, seconds: float, min_cycles: int, max_cycles=None,
            recorder=None, between=None) -> list[list[Unit]]:
    """Closed loop: run whole cycles back to back until `seconds` have
    elapsed and at least `min_cycles` are done, or until `max_cycles` are
    done. `between`, if given, is called after each cycle, off the clock."""
    cycles = []
    start = perf_counter()
    while True:
        done = len(cycles)
        if max_cycles is not None and done >= max_cycles:
            break
        if max_cycles is None and done >= min_cycles and perf_counter() - start >= seconds:
            break
        if recorder is not None:
            recorder.run += 1
        units = []
        for key in wl.unit_keys():
            span = recorder.open("bench.unit") if recorder is not None else None
            t0 = perf_counter()
            raw, raised = None, False
            try:
                raw = wl.run_unit(key)
            except Exception:  # a failed operation is counted, never fatal
                traceback.print_exc(file=sys.stderr)
                raised = True
            wall = perf_counter() - t0
            if span is not None:
                recorder.close(span)
            inspected = Inspected()
            if not raised:
                try:
                    inspected = wl.inspect_unit(key, raw)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
            units.append(Unit(key, wall, inspected, raised))
        cycles.append(units)
        if between is not None:
            between()
    return cycles


def best_cycle_s(cycles: list[list[Unit]]) -> float:
    """Sum over the units of a cycle of each unit's fastest repetition."""
    best: dict[str, float] = {}
    for units in cycles:
        for u in units:
            if not u.raised:
                best[u.key] = min(best.get(u.key, u.wall_s), u.wall_s)
    return sum(best.values())


def cycle_work(cycles: list[list[Unit]]) -> int:
    """Optimizer steps or greedy rounds in one full cycle."""
    work: dict[str, int] = {}
    for units in cycles:
        for u in units:
            if not u.raised:
                work.setdefault(u.key, u.inspected.work)
    return sum(work.values())
