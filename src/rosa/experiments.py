"""Experiment drivers shared by the CLI and the test suite.

Three families: the exact-solver suite on linear instances, learning-rate
sweeps of the synthetic teacher-student task, and the residual-spectrum
report comparing two networks. The training runs of a sweep or grid are
split over multiprocessing fork processes, one per CPU the process may use
when BLAS runs one thread per process; the results do not depend on how
many there are. A caller beside other threads, or a daemonic one such as
a Pool worker, runs them inline.
"""

from __future__ import annotations

import multiprocessing
import pickle
import threading
from dataclasses import replace

import numpy as np

from .errors import InvalidInputError, NumericError, RosaError
from .exact import (achieved_error, irreducible_error, lora_error_lower_bound,
                    predicted_rounds, realizable_instance, rosa_exact_iterate,
                    rrr_optimum, with_off_range_noise)
from .fileio import atomic_open
# _run_cells looks _worker_count up here, where tests patch it.
from .linalg import _worker_count, singular_values
from .network import Mlp
from .synthetic import SyntheticTask
from .training import CHOICES, TrainConfig, TrainResult, run_training

# Default learning-rate grid for best-of sweeps.
LR_GRID = (2e-2, 2e-3, 2e-4, 2e-5)

CONVERGED_REL = 1e-12
STRICT_BEFORE_REL = 1e-6
# Greedy rounds run past each prediction; scale of the noisy case's targets.
EXTRA_STEPS = 2
NOISE_SCALE = 0.5


def run_theorem_suite(n: int = 40, d: int = 16, p: int = 8,
                      residual_rank: int = 6,
                      ranks: tuple[int, ...] = (1, 2, 3, 6),
                      seed: int = 0) -> dict:
    """Exercise the exact greedy solver on one realizable instance.

    For each correction rank: predicted vs observed round counts (observed
    means relative error at most 1e-12 of ||y||_F^2), the error one round
    before convergence, and the gap between the closed-form optimum's
    above-floor error and the rank-limited lower bound. A noisy variant of
    the instance checks the plateau at the irreducible error. The report is
    JSON-serializable; 'all_ok' summarizes every check.
    """
    if not ranks:
        raise InvalidInputError("ranks must hold at least one rank")
    problem = realizable_instance(n, d, p, residual_rank, seed)
    y_scale = float(np.sum(problem.y ** 2))
    all_ok = True
    cases = []
    for rank in ranks:
        t_pred = predicted_rounds(problem, rank)
        trace = rosa_exact_iterate(problem, rank, t_pred + EXTRA_STEPS)
        rel = [err / y_scale for err in trace.errors]
        observed = next((t for t, r in enumerate(rel) if r <= CONVERGED_REL), None)
        rel_before = rel[t_pred - 1] if t_pred >= 1 else None
        a, b = rrr_optimum(problem, rank)
        above_floor = achieved_error(problem, a, b) - irreducible_error(problem)
        bound = lora_error_lower_bound(problem, rank)
        bound_gap = abs(above_floor - bound)
        bound_ok = bound_gap <= 1e-8 * max(bound, 1e-10 * y_scale)
        converged_ok = observed == t_pred
        strict_ok = rel_before is None or rel_before > STRICT_BEFORE_REL
        all_ok = all_ok and bound_ok and converged_ok and strict_ok
        cases.append({
            "rank": rank,
            "t_predicted": t_pred,
            "observed_step": observed,
            "rel_error_at_t": rel[t_pred],
            "rel_error_before_t": rel_before,
            "lora_bound": bound,
            "rrr_error_above_floor": above_floor,
            "bound_attained": bound_ok,
            "converged_at_t": converged_ok,
            "strict_before_t": strict_ok,
        })
    noisy = with_off_range_noise(problem, NOISE_SCALE, seed + 1)
    rank_n = min(ranks)
    trace_n = rosa_exact_iterate(noisy, rank_n,
                                 predicted_rounds(noisy, rank_n) + EXTRA_STEPS)
    floor = irreducible_error(noisy)
    plateau = trace_n.errors[-1]
    plateau_ok = abs(plateau - floor) <= 1e-9 * max(floor, 1.0)
    all_ok = all_ok and plateau_ok
    return {
        "instance": {"n": n, "d": d, "p": p, "residual_rank": residual_rank,
                     "seed": seed},
        "cases": cases,
        "noisy_case": {"rank": rank_n, "noise_scale": NOISE_SCALE,
                       "plateau_error": plateau, "irreducible_error": floor,
                       "plateau_ok": plateau_ok},
        "all_ok": all_ok,
    }


def _run_share(task: SyntheticTask, configs: list[TrainConfig],
               indices: range) -> tuple[dict, tuple | None]:
    """Run configs[i] for each i in indices, in order.

    Returns (results, error). results maps each index run to its
    TrainResult, or to None when the run raised NumericError (a diverged
    row). error is (index, exception) for the first other failure, at
    which the share stops, or None.
    """
    results = {}
    for i in indices:
        try:
            results[i] = run_training(configs[i], task)
        except NumericError:
            results[i] = None
        except Exception as exc:
            return results, (i, exc)
    return results, None


def _portable(exc: Exception) -> Exception:
    """exc if it survives a pickle round trip, else a RosaError with its text."""
    try:
        pickle.loads(pickle.dumps(exc))
    except Exception:
        return RosaError(f"{type(exc).__name__}: {exc}")
    return exc


def _child(task: SyntheticTask, configs: list[TrainConfig], indices: range,
           pipe) -> None:
    """A worker process's body: run its share, send back (results, error)."""
    results, error = _run_share(task, configs, indices)
    if error is not None:
        error = (error[0], _portable(error[1]))
    pipe.send((results, error))


def _run_forked(task: SyntheticTask, configs: list[TrainConfig],
                k: int) -> list[tuple[dict, tuple | None]]:
    """Deal the cells round-robin to this process and k - 1 forked children.

    Every child is reaped before this returns or raises; one that exits
    without sending its results raises RosaError. Every child starts before
    this process runs share 0, so none is forked beside a factorize thread.
    """
    fork = multiprocessing.get_context("fork")
    children = []
    try:
        for w in range(1, k):
            share = range(w, len(configs), k)
            reader, writer = fork.Pipe(duplex=False)
            child = fork.Process(target=_child,
                                 args=(task, configs, share, writer))
            children.append((child, reader, share))
            child.start()
            writer.close()  # so recv sees EOF once the child is gone
        shares = [_run_share(task, configs, range(0, len(configs), k))]
        for child, reader, share in children:
            try:
                payload = reader.recv()
            except (EOFError, OSError):  # nothing sent, or a truncated frame
                payload = None
            child.join()
            if payload is None or child.exitcode != 0:
                raise RosaError(
                    f"worker process for grid cells {list(share)} exited "
                    f"with code {child.exitcode} before returning its results"
                )
            shares.append(payload)
        return shares
    finally:
        for child, reader, _ in children:
            reader.close()
            if child.is_alive():
                child.kill()
                child.join()


def _run_cells(task: SyntheticTask,
               configs: list[TrainConfig]) -> list[TrainResult | None]:
    """Train every config; None marks a run that raised NumericError.

    Results come back in input order. The cells are split over
    _worker_count() processes (at most one per cell): this one plus forked
    children, or this one alone when the process has other threads or is
    daemonic. Each run depends only on its config and the task, so the
    results are the same for any worker count. Any other failure re-raises
    here, the one of the earliest failing cell as in a serial loop.
    """
    k = min(len(configs), _worker_count())
    # fork, not spawn: a spawned worker would import NumPy again, a good
    # part of a short grid. A child copies only the forking thread, so
    # forking beside other threads could copy a lock that one of them held.
    # A daemonic process, such as a Pool worker, may not have children.
    if (k > 1 and "fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1
            and not multiprocessing.current_process().daemon):
        shares = _run_forked(task, configs, k)
    else:
        shares = [_run_share(task, configs, range(len(configs)))]
    results = [None] * len(configs)
    errors = []
    for done, error in shares:
        for i, result in done.items():
            results[i] = result
        if error is not None:
            errors.append(error)
    if errors:
        raise min(errors, key=lambda error: error[0])[1]
    return results


def _best_of(base_config: TrainConfig, lrs: tuple[float, ...],
             results: list[TrainResult | None]) -> tuple[dict, TrainResult]:
    """One sweep's JSON row (see sweep_learning_rates) and its best run."""
    rows = []
    for lr, result in zip(lrs, results):
        row = {"lr": lr, "diverged": result is None}
        for key in ("final_val_loss", "best_val_loss", "final_train_loss"):
            row[key] = None if result is None else result.summary[key]
        rows.append(row)
    finished = [(lr, result) for lr, result in zip(lrs, results)
                if result is not None]
    if not finished:
        raise NumericError(
            f"training diverged at every learning rate {list(lrs)} "
            f"for method '{base_config.method}'"
        )
    # The first of equal losses wins, as min keeps its first minimum.
    best_lr, best_result = min(
        finished, key=lambda pair: pair[1].summary["final_val_loss"])
    return {"best_lr": best_lr,
            "final_val_loss": best_result.summary["final_val_loss"],
            "lr_rows": rows}, best_result


def _sweep_all(task: SyntheticTask, bases: list[TrainConfig],
               lrs: tuple[float, ...]) -> list[tuple[dict, TrainResult]]:
    """_best_of for each base config's sweep, all cells in one split."""
    if not lrs:
        raise InvalidInputError("learning-rate grid is empty")
    configs = [replace(base, lr=lr) for base in bases for lr in lrs]
    results = _run_cells(task, configs)
    n = len(lrs)
    return [_best_of(base, lrs, results[i * n:(i + 1) * n])
            for i, base in enumerate(bases)]


def sweep_learning_rates(task: SyntheticTask, base_config: TrainConfig,
                         lrs: tuple[float, ...] = LR_GRID) -> dict:
    """Run one configuration at each learning rate, keep the best.

    Best means lowest final validation loss among the rates that finished.
    A rate whose run raises NumericError is recorded as a diverged row with
    None losses instead of ending the sweep; if every rate diverges the
    sweep raises NumericError naming them. Returns the JSON row (best_lr,
    final_val_loss, per-rate lr_rows) and the winning TrainResult under
    'result'.
    """
    row, best = _sweep_all(task, [base_config], lrs)[0]
    return {**row, "result": best}


def run_method_comparison(task: SyntheticTask,
                          entries: list[tuple[str, int | None]], *,
                          epochs: int, lrs: tuple[float, ...] = LR_GRID,
                          seed: int = 0, batch_size: int = 64,
                          factorize_every: int = 4) -> list[dict]:
    """sweep_learning_rates for each (method, rank) entry, labelled with it;
    the defaults are the acceptance grid's batch size and re-sample period."""
    bases = [TrainConfig(method=method, rank=rank, epochs=epochs, seed=seed,
                         batch_size=batch_size,
                         factorize_every=factorize_every)
             for method, rank in entries]
    return [{"method": method, "rank": rank, **row, "result": best}
            for (method, rank), (row, best)
            in zip(entries, _sweep_all(task, bases, lrs))]


def run_ablation_grid(task: SyntheticTask, rank: int, *, epochs: int,
                      lrs: tuple[float, ...] = LR_GRID, seed: int = 0) -> dict:
    """Compare LoRA against the three staged variants of the subspace method.

    Variants: init from the decomposition but added on top of the intact
    weight; init with the decomposed slice split out of the weight; and the
    full method with scheduled re-sampling. The observed ordering of final
    validation losses is reported, not asserted, since it is a stochastic
    tendency rather than a guarantee.
    """
    variants = CHOICES["ablation"][::-1]  # the weakest variant first
    bases = [TrainConfig(method="lora", rank=rank, epochs=epochs, seed=seed)]
    bases += [TrainConfig(method="rosa", rank=rank, ablation=variant,
                          epochs=epochs, seed=seed) for variant in variants]
    rows = [{"variant": name, **row} for name, (row, _)
            in zip(("lora",) + variants, _sweep_all(task, bases, lrs))]
    loss = {row["variant"]: row["final_val_loss"] for row in rows}
    expected_order_held = (loss["full"] <= loss["svd_init_factorize"]
                           <= loss["svd_init_only"])
    return {"rank": rank, "rows": rows,
            "expected_order_held": bool(expected_order_held)}


def run_scheme_grid(task: SyntheticTask, rank: int, *, epochs: int,
                    lrs: tuple[float, ...] = LR_GRID, seed: int = 0) -> dict:
    """Compare index-sampling schemes for the full subspace method."""
    schemes = ("top", "bottom", "random")
    bases = [TrainConfig(method="rosa", rank=rank, scheme=scheme,
                         epochs=epochs, seed=seed) for scheme in schemes]
    rows = [{"scheme": scheme, **row} for scheme, (row, _)
            in zip(schemes, _sweep_all(task, bases, lrs))]
    return {"rank": rank, "rows": rows}


def spectrum_report(initial: Mlp, final: Mlp) -> list[dict]:
    """Per-layer singular values of the effective-weight drift.

    Each entry holds the descending singular values of
    final_effective - initial_effective and their running sums normalized
    by the total, so the last cumulative value is 1 (or 0 for a layer that
    did not move).
    """
    if len(initial.layers) != len(final.layers):
        raise InvalidInputError(
            f"networks have different depths: {len(initial.layers)} "
            f"vs {len(final.layers)}"
        )
    report = []
    for i, (first, last) in enumerate(zip(initial.layers, final.layers)):
        w0 = first.adapter.effective_weight()
        w1 = last.adapter.effective_weight()
        if w0.shape != w1.shape:
            raise InvalidInputError(
                f"layer {i} shapes differ: {w0.shape} vs {w1.shape}"
            )
        sigma = singular_values(w1 - w0)
        total = float(sigma.sum())
        if total > 0.0:
            cumulative = np.cumsum(sigma) / total
        else:
            cumulative = np.zeros_like(sigma)
        report.append({"layer": i, "sigma": sigma.tolist(),
                       "cumulative": cumulative.tolist()})
    return report


def write_spectrum_csv(report: list[dict], path) -> None:
    lines = ["layer,index,sigma,cumulative_fraction"]
    for entry in report:
        for j, (s, c) in enumerate(zip(entry["sigma"], entry["cumulative"])):
            lines.append(f"{entry['layer']},{j},{s!r},{c!r}")
    with atomic_open(path) as fh:
        fh.write("\n".join(lines) + "\n")
