"""Experiment drivers shared by the CLI, the scripts, and the test suite.

Three families: the exact-solver suite on linear instances, learning-rate
sweeps of the synthetic teacher-student task, and the residual-spectrum
report comparing two networks. The training runs of a sweep or grid are
split over forked worker processes, one per CPU the process may use when
BLAS runs one thread per process; the results do not depend on how many
there are.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import threading
from dataclasses import replace
from typing import BinaryIO

import numpy as np

from .errors import InvalidInputError, NumericError, RosaError
from .exact import (achieved_error, irreducible_error, lora_error_lower_bound,
                    predicted_rounds, realizable_instance, rosa_exact_iterate,
                    rrr_optimum, with_off_range_noise)
from .linalg import singular_values
from .network import Mlp
from .synthetic import SyntheticTask
from .training import TrainConfig, TrainResult, run_training

# Default learning-rate grid for best-of sweeps.
LR_GRID = (2e-2, 2e-3, 2e-4, 2e-5)

CONVERGED_REL = 1e-12
STRICT_BEFORE_REL = 1e-6


def run_theorem_suite(n: int = 40, d: int = 16, p: int = 8,
                      residual_rank: int = 6,
                      ranks: tuple[int, ...] = (1, 2, 3, 6),
                      seed: int = 0, extra_steps: int = 2,
                      noise_scale: float = 0.5) -> dict:
    """Exercise the exact greedy solver on one realizable instance.

    For each correction rank: predicted vs observed round counts (observed
    means relative error at most 1e-12 of ||y||_F^2), the error one round
    before convergence, and the gap between the closed-form optimum's
    above-floor error and the rank-limited lower bound. A noisy variant of
    the instance checks the plateau at the irreducible error. The report is
    JSON-serializable; 'all_ok' summarizes every check.
    """
    problem = realizable_instance(n, d, p, residual_rank, seed)
    y_scale = float(np.sum(problem.y ** 2))
    all_ok = True
    cases = []
    for rank in ranks:
        t_pred = predicted_rounds(problem, rank)
        trace = rosa_exact_iterate(problem, rank, t_pred + extra_steps)
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
    noisy = with_off_range_noise(problem, noise_scale, seed + 1)
    rank_n = min(ranks)
    trace_n = rosa_exact_iterate(noisy, rank_n,
                                 predicted_rounds(noisy, rank_n) + extra_steps)
    floor = irreducible_error(noisy)
    plateau = trace_n.errors[-1]
    plateau_ok = abs(plateau - floor) <= 1e-9 * max(floor, 1.0)
    all_ok = all_ok and plateau_ok
    return {
        "instance": {"n": n, "d": d, "p": p, "residual_rank": residual_rank,
                     "seed": seed},
        "cases": cases,
        "noisy_case": {"rank": rank_n, "noise_scale": noise_scale,
                       "plateau_error": plateau, "irreducible_error": floor,
                       "plateau_ok": plateau_ok},
        "all_ok": all_ok,
    }


# Read by OpenBLAS (the BLAS of NumPy's wheels) or MKL when NumPy loads it;
# with none set, either runs one thread per CPU.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                     "OMP_NUM_THREADS")


def _worker_count() -> int:
    """Training processes the CPUs take at once without oversubscription.

    The CPUs in this process's affinity mask divided by the BLAS threads of
    each process, as the environment sets them; 1 where the platform has no
    affinity mask. Two processes that each run a BLAS thread per CPU are
    slower than one.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        return 1
    for var in _BLAS_THREAD_VARS:
        value = os.environ.get(var, "").strip()
        if value.isdigit() and int(value) > 0:
            return max(1, cpus // int(value))
    return 1


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


def _fork_share(task: SyntheticTask, configs: list[TrainConfig],
                indices: range) -> tuple[int, BinaryIO]:
    """Run a share in a forked child; returns (pid, read end of its pipe).

    The child pickles its share's (results, error) into the pipe and leaves
    through os._exit, so it never returns into the caller's stack.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            results, error = _run_share(task, configs, indices)
            if error is not None:
                error = (error[0], _portable(error[1]))
            with os.fdopen(write_fd, "wb") as pipe:
                pickle.dump((results, error), pipe, pickle.HIGHEST_PROTOCOL)
            status = 0
        except BaseException:
            import traceback  # failure paths only, as signal below
            traceback.print_exc()
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, os.fdopen(read_fd, "rb")


def _run_forked(task: SyntheticTask, configs: list[TrainConfig],
                k: int) -> list[tuple[dict, tuple | None]]:
    """Deal the cells round-robin to this process and k - 1 forked children.

    Every child is reaped before this returns or raises; one that exits
    without sending its results raises RosaError.
    """
    children = []
    try:
        for w in range(1, k):
            share = range(w, len(configs), k)
            children.append((*_fork_share(task, configs, share), share))
        shares = [_run_share(task, configs, range(0, len(configs), k))]
        while children:
            pid, pipe, share = children[0]
            with pipe:
                payload = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            if code != 0:
                raise RosaError(
                    f"worker process for grid cells {list(share)} exited "
                    f"with code {code} before returning its results"
                )
            shares.append(pickle.loads(payload))
        return shares
    finally:
        for pid, pipe, _ in children:
            import signal
            pipe.close()
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_cells(task: SyntheticTask,
               configs: list[TrainConfig]) -> list[TrainResult | None]:
    """Train every config; None marks a run that raised NumericError.

    Results come back in input order. The cells are split over
    _worker_count() processes (at most one per cell): this one plus forked
    children, or this one alone when the process has other threads. Each
    run depends only on its config and the task, so the results are the
    same for any worker count. Any other failure re-raises here, the one
    of the earliest failing cell as in a serial loop.
    """
    k = min(len(configs), _worker_count())
    # fork, not spawn: a spawned worker would import NumPy again, a good
    # part of a short grid. A child copies only the forking thread, so
    # forking beside other threads could copy a lock that one of them held.
    if k > 1 and hasattr(os, "fork") and threading.active_count() == 1:
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
             results: list[TrainResult | None]) -> dict:
    """One sweep's rows and its best finished run (see sweep_learning_rates)."""
    best_result = None
    best_lr = None
    rows = []
    for lr, result in zip(lrs, results):
        if result is None:
            rows.append({"lr": lr, "diverged": True, "final_val_loss": None,
                         "best_val_loss": None, "final_train_loss": None})
            continue
        rows.append({
            "lr": lr,
            "diverged": False,
            "final_val_loss": result.summary["final_val_loss"],
            "best_val_loss": result.summary["best_val_loss"],
            "final_train_loss": result.summary["final_train_loss"],
        })
        if (best_result is None
                or result.summary["final_val_loss"]
                < best_result.summary["final_val_loss"]):
            best_result = result
            best_lr = lr
    if best_result is None:
        raise NumericError(
            f"training diverged at every learning rate {list(lrs)} "
            f"for method '{base_config.method}'"
        )
    return {"best": best_result, "best_lr": best_lr, "rows": rows}


def _sweep_all(task: SyntheticTask, bases: list[TrainConfig],
               lrs: tuple[float, ...]) -> list[dict]:
    """sweep_learning_rates for each base config, all cells in one split."""
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
    sweep raises NumericError naming them. Returns the winning TrainResult
    under 'best' plus a JSON-friendly per-rate row list.
    """
    return _sweep_all(task, [base_config], lrs)[0]


def run_method_comparison(task: SyntheticTask,
                          entries: list[tuple[str, int | None]], *,
                          epochs: int, lrs: tuple[float, ...] = LR_GRID,
                          seed: int = 0, batch_size: int = 128,
                          factorize_every: int = 1) -> list[dict]:
    """Best-of-LR sweep for each (method, rank) entry on one task."""
    bases = [TrainConfig(method=method, rank=rank, epochs=epochs, seed=seed,
                         batch_size=batch_size,
                         factorize_every=factorize_every)
             for method, rank in entries]
    return [{
        "method": method,
        "rank": rank,
        "best_lr": sweep["best_lr"],
        "final_val_loss": sweep["best"].summary["final_val_loss"],
        "result": sweep["best"],
        "lr_rows": sweep["rows"],
    } for (method, rank), sweep in zip(entries, _sweep_all(task, bases, lrs))]


def run_ablation_grid(task: SyntheticTask, rank: int, *, epochs: int,
                      lrs: tuple[float, ...] = LR_GRID, seed: int = 0,
                      batch_size: int = 128, factorize_every: int = 1) -> dict:
    """Compare LoRA against the three staged variants of the subspace method.

    Variants: init from the decomposition but added on top of the intact
    weight; init with the decomposed slice split out of the weight; and the
    full method with scheduled re-sampling. The observed ordering of final
    validation losses is reported, not asserted, since it is a stochastic
    tendency rather than a guarantee.
    """
    variants = [
        ("lora", TrainConfig(method="lora", rank=rank, epochs=epochs,
                             seed=seed, batch_size=batch_size)),
        ("svd_init_only", TrainConfig(method="rosa", rank=rank,
                                      ablation="svd_init_only", epochs=epochs,
                                      seed=seed, batch_size=batch_size)),
        ("svd_init_factorize", TrainConfig(method="rosa", rank=rank,
                                           ablation="svd_init_factorize",
                                           epochs=epochs, seed=seed,
                                           batch_size=batch_size)),
        ("full", TrainConfig(method="rosa", rank=rank, ablation="full",
                             epochs=epochs, seed=seed, batch_size=batch_size,
                             factorize_every=factorize_every)),
    ]
    sweeps = _sweep_all(task, [config for _, config in variants], lrs)
    rows = []
    by_name = {}
    for (name, _), sweep in zip(variants, sweeps):
        loss = sweep["best"].summary["final_val_loss"]
        by_name[name] = loss
        rows.append({"variant": name, "best_lr": sweep["best_lr"],
                     "final_val_loss": loss, "lr_rows": sweep["rows"]})
    expected_order_held = (by_name["full"] <= by_name["svd_init_factorize"]
                          <= by_name["svd_init_only"])
    return {"rank": rank, "rows": rows,
            "expected_order_held": bool(expected_order_held)}


def run_scheme_grid(task: SyntheticTask, rank: int, *, epochs: int,
                    lrs: tuple[float, ...] = LR_GRID, seed: int = 0,
                    batch_size: int = 128, factorize_every: int = 1) -> dict:
    """Compare index-sampling schemes for the full subspace method."""
    schemes = ("top", "bottom", "random")
    bases = [TrainConfig(method="rosa", rank=rank, scheme=scheme,
                         epochs=epochs, seed=seed, batch_size=batch_size,
                         factorize_every=factorize_every)
             for scheme in schemes]
    rows = [{"scheme": scheme, "best_lr": sweep["best_lr"],
             "final_val_loss": sweep["best"].summary["final_val_loss"],
             "lr_rows": sweep["rows"]}
            for scheme, sweep in zip(schemes, _sweep_all(task, bases, lrs))]
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def strip_results(cells: list[dict]) -> list[dict]:
    """Copy of comparison cells without the in-memory TrainResult objects."""
    out = []
    for cell in cells:
        slim = {k: v for k, v in cell.items() if k != "result"}
        out.append(slim)
    return out
