"""Release acceptance suite.

One test per shipped guarantee. Each test prints a scoreboard line outside
pytest's capture, then asserts the details, so a plain run of this file
shows fifteen PASS/FAIL verdicts with wall times whatever else is going on.

The synthetic benchmark (tests 03, 06, 07, 11) trains a 28-run grid once in
a module fixture, split over one process per CPU; expect about 20 s there
on two CPUs, everything else is seconds.
"""

import json
import pathlib
import time
import tracemalloc

import numpy as np
import pytest

import rosa.linalg

from rosa.adapters import (
    SamplingScheme,
    full_init,
    matrix_param_count,
    rosa_init,
    trainable_reduction,
)
from rosa.cli import main
from rosa.checkpoint import decode_checkpoint, encode_checkpoint
from rosa.errors import RosaError
from rosa.exact import (
    achieved_error,
    irreducible_error,
    lora_error_lower_bound,
    realizable_instance,
    rrr_optimum,
)
from rosa.experiments import run_method_comparison, sweep_learning_rates
from rosa.linalg import svd
from rosa.network import (
    Activation,
    backward,
    build_mlp,
    forward,
    mse_loss,
    mse_loss_gradient,
    predict,
)
from rosa.optim import AdamW
from rosa.synthetic import SyntheticSpec, generate_synthetic
from rosa.training import (
    TrainConfig,
    adapt_network,
    run_training,
    write_metrics_csv,
)

from oracles import (finite_difference_gradients, gd_rank_limited,
                     random_instance, realizable_task)

FINGERPRINT = pathlib.Path(__file__).with_name("grid_fingerprint.json")
ENTRIES = [("ft", None), ("rosa", 2), ("rosa", 6), ("rosa", 12),
           ("lora", 2), ("lora", 6), ("lora", 12)]


def scoreboard(capsys, index: int, label: str, elapsed: float,
               failures: list) -> None:
    verdict = "PASS" if not failures else "FAIL"
    with capsys.disabled():
        print(f"acceptance {index:02d} {label:<36} {verdict} "
              f"({elapsed:.1f}s)", flush=True)


@pytest.fixture(scope="module")
def benchmark_grid():
    started = time.perf_counter()
    task = generate_synthetic(SyntheticSpec(seed=0, n_train=768))
    cells = run_method_comparison(task, ENTRIES, epochs=300, seed=0,
                                  batch_size=64, factorize_every=4)
    return {
        "cells": {(c["method"], c["rank"]): c for c in cells},
        "elapsed": time.perf_counter() - started,
    }


def test_01_exact_iterate_round_counts(capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []
    code = main(["theorem", "--out", str(tmp_path)])
    if code != 0:
        failures.append(f"theorem subcommand exited {code}")
    report = json.loads((tmp_path / "theorem.json").read_text())
    expected_rounds = {1: 6, 2: 3, 3: 2, 6: 1}
    for case in report["cases"]:
        rank = case["rank"]
        if case["t_predicted"] != expected_rounds[rank]:
            failures.append(f"rank {rank}: predicted {case['t_predicted']}, "
                            f"expected {expected_rounds[rank]}")
        if not case["converged_at_t"]:
            failures.append(f"rank {rank}: not converged at the predicted "
                            f"round (observed {case['observed_step']})")
        if not case["strict_before_t"]:
            failures.append(f"rank {rank}: already converged one round early")
        if not case["bound_attained"]:
            failures.append(f"rank {rank}: error floor not attained")
    if not report["all_ok"]:
        failures.append("suite-level all_ok is False")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.2f}s, budget 5s")
    scoreboard(capsys, 1, "exact iterate round counts", elapsed, failures)
    assert not failures, failures


def test_02_closed_form_vs_gradient_descent(capsys):
    t0 = time.perf_counter()
    failures = []
    for seed in range(20):
        problem = random_instance(12, 6, 4, seed=seed)
        rank = (seed % 3) + 1
        a, b = rrr_optimum(problem, rank)
        achieved = achieved_error(problem, a, b)
        gap = achieved - irreducible_error(problem)
        bound = lora_error_lower_bound(problem, rank)
        if abs(gap - bound) > 1e-8 * max(bound, 1e-12):
            failures.append(f"seed {seed}: gap {gap:.3e} vs bound "
                            f"{bound:.3e}")
        _, best_ever = gd_rank_limited(problem, rank, seed=seed)
        if best_ever < achieved - 1e-6 * max(1.0, achieved):
            failures.append(f"seed {seed}: descent found {best_ever:.12e}, "
                            f"below the closed form {achieved:.12e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget 30s")
    scoreboard(capsys, 2, "closed form vs gradient descent", elapsed,
               failures)
    assert not failures, failures


def test_03_low_rank_drift_stays_in_budget(capsys, benchmark_grid):
    t0 = time.perf_counter()
    failures = []
    for rank in (2, 6, 12):
        cell = benchmark_grid["cells"][("lora", rank)]
        check = cell["result"].summary["lora_rank_check"]
        if not check["ok"]:
            failures.append(f"lora rank {rank}: automatic check flagged "
                            f"{check}")
        if check["bound"] != rank:
            failures.append(f"lora rank {rank}: check bound {check['bound']}")
        if any(r > rank for r in check["residual_ranks"]):
            failures.append(f"lora rank {rank}: drift ranks "
                            f"{check['residual_ranks']}")
        last = cell["result"].records[-1]
        if any(r > rank for r in last.residual_ranks):
            failures.append(f"lora rank {rank}: final metrics row reports "
                            f"{last.residual_ranks}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 3, "low-rank drift stays in budget", elapsed,
               failures)
    assert not failures, failures


def test_04_refactorization_preserves_forward(capsys):
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(404)
    schemes = (SamplingScheme.TOP, SamplingScheme.BOTTOM,
               SamplingScheme.RANDOM)
    worst = 0.0
    for i in range(100):
        m = int(rng.integers(3, 13))
        n = int(rng.integers(3, 13))
        rank = int(rng.integers(1, min(m, n) + 1))
        adapter = rosa_init(rng.standard_normal((m, n)), rank,
                            schemes[i % 3], rng)
        adapter.a += 0.2 * rng.standard_normal(adapter.a.shape)
        adapter.b += 0.2 * rng.standard_normal(adapter.b.shape)
        probe = rng.standard_normal((n, 100))
        before = adapter.forward_cached(probe)[0]
        adapter.factorize(rng, svd(adapter.effective_weight()))
        drift = float(np.max(np.abs(adapter.forward_cached(probe)[0] - before)))
        worst = max(worst, drift)
        if drift > 1e-9:
            failures.append(f"state {i} ({m}x{n} rank {rank}): forward "
                            f"moved by {drift:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.2f}s, budget 10s")
    scoreboard(capsys, 4, f"refactorization drift {worst:.1e}", elapsed,
               failures)
    assert not failures, failures


def _kink_free_batch(net, in_dim: int, cols: int, seed: int,
                     margin: float = 1e-3):
    # Redraw deterministically until every hidden pre-activation sits clear
    # of the relu kink; finite differences are meaningless astride it.
    for attempt in range(50):
        x = np.random.default_rng(seed + 1000 * attempt).standard_normal(
            (in_dim, cols))
        _, cache = forward(net, x)
        clear = all(
            float(np.abs(rec["z"]).min()) > margin
            for layer, rec in zip(net.layers, cache.records)
            if layer.activation is Activation.RELU)
        if clear:
            return x
    raise AssertionError("no kink-free batch found")


def test_05_backward_matches_finite_differences(capsys):
    t0 = time.perf_counter()
    failures = []
    variants = (("rosa", 2), ("lora", 2), ("ia3", None), ("ft", None))
    for seed in range(50):
        base = build_mlp([4, 5, 3], np.random.default_rng(900 + seed))
        for method, rank in variants:
            config = TrainConfig(method=method, rank=rank, epochs=1)
            net = adapt_network(base, config, np.random.default_rng(seed))
            x = _kink_free_batch(net, 4, 5, seed)
            y = np.random.default_rng(seed + 7).standard_normal((3, 5))
            pred, cache = forward(net, x)
            grads = backward(net, cache, mse_loss_gradient(pred, y))
            ref = finite_difference_gradients(net, x, y)
            for li, (got, want) in enumerate(zip(grads.layers, ref)):
                for name in want:
                    num = float(np.linalg.norm(got[name] - want[name]))
                    den = max(float(np.linalg.norm(want[name])), 1e-8)
                    if num / den > 1e-5:
                        failures.append(
                            f"seed {seed} {method} layer {li} {name}: "
                            f"rel err {num / den:.3e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"took {elapsed:.2f}s, budget 60s")
    scoreboard(capsys, 5, "backward matches finite differences", elapsed,
               failures)
    assert not failures, failures


def test_06_synthetic_benchmark_ordering(capsys, benchmark_grid):
    failures = []
    cells = benchmark_grid["cells"]
    ft = cells[("ft", None)]["final_val_loss"]
    rosa = {r: cells[("rosa", r)]["final_val_loss"] for r in (2, 6, 12)}
    lora = {r: cells[("lora", r)]["final_val_loss"] for r in (2, 6, 12)}
    if rosa[12] > 1.2 * ft:
        failures.append(f"rank-12 subspace run {rosa[12]:.3e} vs full "
                        f"fine-tune {ft:.3e}, over the 1.2x allowance")
    for r in (2, 6, 12):
        if lora[r] < 2.0 * rosa[r]:
            failures.append(f"rank {r}: frozen-pair loss {lora[r]:.3e} not "
                            f"2x above the re-sampled run {rosa[r]:.3e}")
    if rosa[6] > 1.25 * rosa[2] or rosa[12] > 1.25 * rosa[6]:
        failures.append(f"rank sweep not monotone: {rosa}")
    elapsed = benchmark_grid["elapsed"]
    if elapsed >= 900.0:
        failures.append(f"grid took {elapsed:.1f}s, budget 900s")
    scoreboard(capsys, 6, "synthetic benchmark ordering", elapsed, failures)
    assert not failures, failures


def test_07_drift_rank_contrast(capsys, benchmark_grid):
    t0 = time.perf_counter()
    failures = []
    for rank in (2, 6, 12):
        rosa_last = benchmark_grid["cells"][("rosa", rank)]
        ranks = rosa_last["result"].records[-1].residual_ranks
        if not any(r > rank for r in ranks):
            failures.append(f"re-sampled rank {rank}: drift ranks {ranks} "
                            f"never exceed the slice width")
        lora_last = benchmark_grid["cells"][("lora", rank)]
        ranks = lora_last["result"].records[-1].residual_ranks
        if any(r > rank for r in ranks):
            failures.append(f"frozen-pair rank {rank}: drift ranks {ranks}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 7, "drift rank contrast", elapsed, failures)
    assert not failures, failures


def test_08_trainable_parameter_reduction(capsys):
    t0 = time.perf_counter()
    failures = []
    got = trainable_reduction(768, 768, 8)
    if got != 48.0:
        failures.append(f"reduction factor {got!r}, expected exactly 48.0")
    rng = np.random.default_rng(8)
    w = rng.standard_normal((768, 768))
    dense = matrix_param_count(full_init(w))
    slim = matrix_param_count(rosa_init(w, 8, rng=rng))
    if dense != 768 * 768:
        failures.append(f"dense layer logs {dense} matrix parameters")
    if slim != 8 * (768 + 768):
        failures.append(f"rank-8 split logs {slim} matrix parameters")
    if dense / slim != got:
        failures.append(f"counted ratio {dense / slim!r} disagrees with "
                        f"the formula {got!r}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 8, "trainable parameter reduction", elapsed, failures)
    assert not failures, failures


def test_09_metrics_determinism(capsys, tmp_path):
    t0 = time.perf_counter()
    failures = []
    spec = SyntheticSpec(layer_dims=(6, 8, 4), drift_rank=2, n_train=32,
                         n_val=16, seed=0)
    config = TrainConfig(method="rosa", rank=2, epochs=4, batch_size=16,
                         lr=1e-2, factorize_every=2)
    paths = []
    for run in range(2):
        result = run_training(config, generate_synthetic(spec))
        path = tmp_path / f"metrics_{run}.csv"
        write_metrics_csv(result.records, path)
        paths.append(path)
    first, second = (p.read_bytes() for p in paths)
    if first != second:
        failures.append("identical config and seed produced different "
                        "metrics files")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 9, "metrics determinism", elapsed, failures)
    assert not failures, failures


def test_10_checkpoint_round_trip(capsys):
    t0 = time.perf_counter()
    failures = []
    variants = (("rosa", 2), ("lora", 2), ("ia3", None), ("ft", None))
    for i in range(20):
        rng = np.random.default_rng(3000 + i)
        dims = [int(rng.integers(3, 9)) for _ in range(3)]
        base = build_mlp(dims, rng)
        method, rank = variants[i % 4]
        net = adapt_network(base, TrainConfig(method=method, rank=rank,
                                              epochs=1), rng)
        for layer in net.layers:
            for arr in layer.adapter.trainable_arrays().values():
                arr += 0.05 * rng.standard_normal(arr.shape)
            layer.bias += 0.05 * rng.standard_normal(layer.bias.shape)
        probe = rng.standard_normal((dims[0], 7))
        before = predict(net, probe)
        clone = decode_checkpoint(encode_checkpoint(net))
        after = predict(clone, probe)
        if not np.array_equal(before, after):
            failures.append(f"net {i} ({method}, dims {dims}): outputs "
                            f"changed across the round trip")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 10, "checkpoint round trip", elapsed, failures)
    assert not failures, failures


def test_11_grid_fingerprint(capsys, benchmark_grid):
    # Every run of the grid, not only each entry's winner, must reproduce
    # the recorded final validation loss to the last bit.
    t0 = time.perf_counter()
    failures = []
    recorded = json.loads(FINGERPRINT.read_text())["runs"]
    got = {(c["method"], c["rank"], row["lr"]): repr(row["final_val_loss"])
           for c in benchmark_grid["cells"].values() for row in c["lr_rows"]}
    want = {(r["method"], r["rank"], r["lr"]): r["final_val_loss"]
            for r in recorded}
    if len(recorded) != 28 or set(got) != set(want):
        failures.append(f"grid runs {sorted(got, key=str)} do not match the "
                        f"{len(recorded)} recorded runs")
    for key in sorted(set(got) & set(want), key=str):
        if got[key] != want[key]:
            failures.append(f"{key}: final val loss {got[key]}, recorded "
                            f"{want[key]}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 11, "benchmark grid fingerprint", elapsed, failures)
    assert not failures, failures


def adapter_bytes(net) -> int:
    """Bytes of the arrays a net's adapters hold, each distinct array once."""
    arrays = {id(arr): arr for layer in net.layers
              for arr in vars(layer.adapter).values()
              if isinstance(arr, np.ndarray)}
    return sum(arr.nbytes for arr in arrays.values())


def test_12_memory_parity_with_lora(capsys):
    # ROSA re-samples its subspace without holding more than LoRA does:
    # w_fixed, a and b per layer, and the same AdamW state.
    t0 = time.perf_counter()
    failures = []
    task = generate_synthetic(SyntheticSpec(seed=0))
    x, y = task.x_train[:, :64], task.y_train[:, :64]

    def held(method, rank):
        config = TrainConfig(method=method, rank=rank, epochs=1)
        net = adapt_network(task.base, config, np.random.default_rng(0))
        optimizer = AdamW(net, config.lr)
        pred, cache = forward(net, x)
        optimizer.step(net, backward(net, cache, mse_loss_gradient(pred, y)))
        return adapter_bytes(net), optimizer.m.size

    ft_bytes, _ = held("ft", None)
    if ft_bytes != 65_536:
        failures.append(f"ft net holds {ft_bytes} adapter bytes, expected 65536")
    for rank in (2, 6, 12):
        (rosa_bytes, rosa_state), (lora_bytes, lora_state) = (
            held("rosa", rank), held("lora", rank))
        if rosa_bytes != lora_bytes:
            failures.append(f"rank {rank}: rosa holds {rosa_bytes} adapter "
                            f"bytes, lora {lora_bytes}")
        # Two 64 x 64 float64 layers: 90,112 bytes at rank 12.
        if lora_bytes != 2 * 8 * (64 * 64 + rank * (64 + 64)):
            failures.append(f"rank {rank}: lora holds {lora_bytes} adapter bytes")
        if rosa_state != lora_state:
            failures.append(f"rank {rank}: AdamW state of {rosa_state} "
                            f"entries for rosa, {lora_state} for lora")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 12, "memory parity with lora", elapsed, failures)
    assert not failures, failures


def test_13_trained_path_meets_the_theorem(capsys):
    # The paper's claim through the training loop: on a centered realizable
    # instance of residual rank 6, re-sampling at rank 2 ends far below the
    # floor of every rank-2 correction, and LoRA ends on that floor. A run
    # is judged by its final net's MSE over the training set; train_loss
    # averages an epoch over moving weights.
    t0 = time.perf_counter()
    failures = []
    n, p = 512, 8
    task, problem = realizable_task(
        realizable_instance(n=n, d=16, p=p, residual_rank=6, seed=0))
    bound = lora_error_lower_bound(problem, 2) / (n * p)

    def final_mse(method, lr, factorize_every=1):
        config = TrainConfig(method=method, rank=2, lr=lr, epochs=400,
                             batch_size=64, factorize_every=factorize_every)
        net = run_training(config, task).net
        return mse_loss(predict(net, task.x_train), task.y_train)

    rosa = final_mse("rosa", 1e-3, factorize_every=5)
    if rosa > bound / 100:
        failures.append(f"re-sampled run ends at {rosa / bound:.3e} x the "
                        f"rank-2 bound {bound:.6e}, not 100x below it")
    for lr in (1e-3, 3e-3, 1e-2):
        lora = final_mse("lora", lr)
        if lora < bound * (1 - 1e-9):
            failures.append(f"frozen pair at lr {lr} ends at {lora:.12e}, "
                            f"below the rank-2 bound {bound:.12e}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.2f}s, budget 30s")
    scoreboard(capsys, 13, "trained path meets the theorem", elapsed,
               failures)
    assert not failures, failures


def test_14_peak_memory_parity_with_lora(capsys, monkeypatch):
    # The paper's "without consuming additional memory during runtime" at
    # the peak: on a 6-layer net a factorize event holds one group of
    # _worker_count() layers at a time, so rosa's tracemalloc peak over
    # run_training stays within LoRA's plus, per worker, what one layer's
    # event holds: its merged m x n matrix, u (m x k), sigma (k), v (n x k)
    # and the new w_fixed (m x n), k = min(m, n). At 256 x 256 that is
    # 2,099,200 bytes per worker.
    t0 = time.perf_counter()
    failures = []
    task = generate_synthetic(SyntheticSpec(
        layer_dims=(256,) * 7, drift_rank=32, n_train=256, n_val=64, seed=0))

    def peak(method):
        config = TrainConfig(method=method, rank=8, epochs=2, batch_size=64,
                             seed=0)
        tracemalloc.start()
        try:
            run_training(config, task)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def event_bytes(m, n):
        k = min(m, n)
        return 8 * (m * n + m * k + k + n * k + m * n)

    lora = peak("lora")
    event_layer = max(event_bytes(*layer.adapter.shape)
                      for layer in task.base.layers)
    for workers in (1, 2):
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
        rosa_peak = peak("rosa")
        bound = lora + workers * event_layer
        if rosa_peak > bound:
            failures.append(f"{workers} worker(s): rosa peaks at {rosa_peak:,} "
                            f"bytes, above lora's {lora:,} + {workers} x "
                            f"{event_layer:,} = {bound:,}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 14, "peak memory parity with lora", elapsed, failures)
    assert not failures, failures


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_15_diverging_rate_keeps_the_sweep(capsys):
    # A diverging learning rate cannot abort a sweep: for ft, lora, ia3 and
    # rosa with epoch and with step events, a sweep over (2e-3, 1e300)
    # records 1e300 as diverged with no losses, and its 2e-3 row is, byte
    # for byte, that of a sweep over 2e-3 alone.
    t0 = time.perf_counter()
    failures = []
    task = generate_synthetic(SyntheticSpec(
        layer_dims=(8, 8, 8), drift_rank=2, n_train=32, n_val=8, seed=0))
    cases = {
        "ft": dict(method="ft"),
        "lora": dict(method="lora", rank=2),
        "ia3": dict(method="ia3"),
        "rosa, epoch events": dict(method="rosa", rank=2),
        "rosa, step events": dict(method="rosa", rank=2,
                                  factorize_unit="steps"),
    }
    diverged = {"lr": 1e300, "diverged": True, "final_val_loss": None,
                "best_val_loss": None, "final_train_loss": None}
    for name, fields in cases.items():
        base = TrainConfig(epochs=3, batch_size=8, seed=0, **fields)
        try:
            rows = sweep_learning_rates(task, base, (2e-3, 1e300))["lr_rows"]
        except RosaError as exc:
            failures.append(f"{name}: the sweep raised "
                            f"{type(exc).__name__}: {exc}")
            continue
        alone = sweep_learning_rates(task, base, (2e-3,))["lr_rows"][0]
        if rows[1] != diverged:
            failures.append(f"{name}: the 1e300 row is {rows[1]}")
        if json.dumps(rows[0]) != json.dumps(alone):
            failures.append(f"{name}: the 2e-3 row {rows[0]} differs from "
                            f"a sweep of 2e-3 alone, {alone}")
    elapsed = time.perf_counter() - t0
    scoreboard(capsys, 15, "a diverging rate keeps the sweep", elapsed,
               failures)
    assert not failures, failures
