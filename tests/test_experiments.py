import json
import multiprocessing
import os
import struct
import threading
import time

import numpy as np
import pytest

import rosa.exact
import rosa.experiments
import rosa.linalg
import rosa.training
from rosa.errors import (ContractViolationError, InvalidInputError,
                         NumericError, RosaError, ShapeError)
from rosa.experiments import (
    LR_GRID,
    run_ablation_grid,
    run_method_comparison,
    run_scheme_grid,
    run_theorem_suite,
    spectrum_report,
    sweep_learning_rates,
    write_spectrum_csv,
)
from rosa.network import build_mlp
from rosa.synthetic import SyntheticSpec, generate_synthetic
from rosa.training import TrainConfig

SMALL = SyntheticSpec(layer_dims=(6, 8, 4), drift_rank=2, n_train=32, n_val=16,
                      seed=0)


class TestTheoremSuite:
    def test_small_instance_all_ok(self):
        report = run_theorem_suite(n=20, d=8, p=5, residual_rank=4,
                                   ranks=(1, 2, 4), seed=3)
        assert report["all_ok"] is True
        for case in report["cases"]:
            assert case["observed_step"] == case["t_predicted"]
            assert case["bound_attained"] is True
            assert case["converged_at_t"] is True
            assert case["strict_before_t"] is True

    def test_round_counts_follow_ceiling(self):
        report = run_theorem_suite(n=20, d=8, p=5, residual_rank=4,
                                   ranks=(1, 2, 3, 4), seed=4)
        preds = {c["rank"]: c["t_predicted"] for c in report["cases"]}
        assert preds == {1: 4, 2: 2, 3: 2, 4: 1}

    def test_noisy_plateau(self):
        report = run_theorem_suite(n=20, d=8, p=5, residual_rank=3,
                                   ranks=(1,), seed=5)
        noisy = report["noisy_case"]
        assert noisy["plateau_ok"] is True
        assert noisy["irreducible_error"] > 0.0

    def test_no_least_squares_call(self, monkeypatch):
        # The instance solves least squares through its own QR, and the
        # noisy instance, every rank and every greedy round reuse it.
        calls = []
        solve = rosa.exact.least_squares

        def counting(x, y):
            calls.append(1)
            return solve(x, y)

        monkeypatch.setattr(rosa.exact, "least_squares", counting)
        report = run_theorem_suite(n=40, d=16, p=8, residual_rank=6,
                                   ranks=(1, 2, 3, 6), seed=0)
        assert report["all_ok"] is True
        assert calls == []

    def test_benchmark_size_round_counts(self):
        # The exact workload of the benchmark (perfbench/fingerprint.json):
        # a numerics drift at this size fails here before it fails there.
        report = run_theorem_suite(n=2000, d=128, p=64, residual_rank=8,
                                   ranks=(1, 2, 4, 8), seed=0)
        rounds = [(c["t_predicted"], c["observed_step"]) for c in report["cases"]]
        assert rounds == [(8, 8), (4, 4), (2, 2), (1, 1)]
        assert report["noisy_case"]["plateau_ok"] is True
        assert report["all_ok"] is True

    def test_no_ranks_rejected_before_work(self, monkeypatch):
        def must_not_run(*args):
            raise AssertionError("built an instance before checking ranks")

        monkeypatch.setattr(rosa.experiments, "realizable_instance",
                            must_not_run)
        with pytest.raises(InvalidInputError, match="ranks"):
            run_theorem_suite(ranks=())

    def test_report_is_json_clean(self):
        report = run_theorem_suite(n=16, d=6, p=4, residual_rank=2,
                                   ranks=(1, 2), seed=6)
        json.dumps(report)


class TestLrSweep:
    def test_picks_lowest_final_val(self):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=3, batch_size=16)
        sweep = sweep_learning_rates(task, base, lrs=(1e-3, 1e-2))
        assert len(sweep["lr_rows"]) == 2
        best_row = min(sweep["lr_rows"], key=lambda r: r["final_val_loss"])
        assert sweep["best_lr"] == best_row["lr"]
        assert sweep["result"].summary["final_val_loss"] == \
               best_row["final_val_loss"]

    def test_empty_grid_rejected(self):
        task = generate_synthetic(SMALL)
        with pytest.raises(InvalidInputError):
            sweep_learning_rates(task, TrainConfig(method="ft"), lrs=())

    def test_default_grid_has_four_rates(self):
        assert LR_GRID == (2e-2, 2e-3, 2e-4, 2e-5)

    @staticmethod
    def diverge_at(monkeypatch, bad_lrs):
        real = rosa.experiments.run_training

        def patched(config, task):
            if config.lr in bad_lrs:
                raise NumericError(f"diverged at lr {config.lr}")
            return real(config, task)

        monkeypatch.setattr(rosa.experiments, "run_training", patched)

    def test_diverged_rate_keeps_the_sweep(self, monkeypatch):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=2, batch_size=16)
        self.diverge_at(monkeypatch, {1e-2})
        sweep = sweep_learning_rates(task, base, lrs=(1e-2, 1e-3, 1e-4))
        rows = {row["lr"]: row for row in sweep["lr_rows"]}
        assert [row["lr"] for row in sweep["lr_rows"]] == [1e-2, 1e-3, 1e-4]
        assert rows[1e-2]["diverged"] is True
        assert rows[1e-2]["final_val_loss"] is None
        assert rows[1e-2]["best_val_loss"] is None
        assert rows[1e-2]["final_train_loss"] is None
        finished = [rows[1e-3], rows[1e-4]]
        assert all(row["diverged"] is False for row in finished)
        best_row = min(finished, key=lambda r: r["final_val_loss"])
        assert sweep["best_lr"] == best_row["lr"]
        assert sweep["result"].summary["final_val_loss"] == \
               best_row["final_val_loss"]
        json.dumps(sweep["lr_rows"])

    def test_every_rate_diverged_raises(self, monkeypatch):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=2, batch_size=16)
        self.diverge_at(monkeypatch, {1e-2, 1e-3})
        with pytest.raises(NumericError, match=r"\[0\.01, 0\.001\]"):
            sweep_learning_rates(task, base, lrs=(1e-2, 1e-3))

    def test_comparison_survives_a_diverged_rate(self, monkeypatch):
        task = generate_synthetic(SMALL)
        self.diverge_at(monkeypatch, {1e-2})
        cells = run_method_comparison(task, [("ft", None), ("rosa", 2)],
                                      epochs=2, lrs=(1e-2, 1e-3),
                                      batch_size=16)
        for cell in cells:
            assert cell["best_lr"] == 1e-3
            assert [row["diverged"] for row in cell["lr_rows"]] == [True, False]


def sweep_rows(task, base, lrs):
    """The lr_rows of a sweep; a Pool worker runs it."""
    return sweep_learning_rates(task, base, lrs)["lr_rows"]


def assert_same_net(got, want):
    assert len(got.layers) == len(want.layers)
    for mine, theirs in zip(got.layers, want.layers):
        assert type(mine.adapter) is type(theirs.adapter)
        assert mine.activation == theirs.activation
        assert np.array_equal(mine.bias, theirs.bias)
        for name, value in vars(mine.adapter).items():
            other = getattr(theirs.adapter, name)
            if isinstance(value, np.ndarray):
                assert np.array_equal(value, other), name
            else:
                assert value == other, name


def without_result(cell):
    return {k: v for k, v in cell.items() if k != "result"}


def assert_same_result(got, want):
    assert got.summary == want.summary
    assert got.records == want.records
    assert_same_net(got.net, want.net)
    assert_same_net(got.initial_net, want.initial_net)


class TestWorkerCount:
    # 4 rates: 3 workers deal them 2 / 1 / 1, and grids get uneven shares.
    LRS = (3e-2, 1e-2, 1e-3, 1e-4)

    def run_both(self, workers, run):
        workers(1)
        inline = run()
        forked = workers(3)
        split = run()
        assert len(forked) == 2
        return inline, split

    def test_sweep(self, workers):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=2, batch_size=16)
        inline, split = self.run_both(
            workers, lambda: sweep_learning_rates(task, base, self.LRS))
        assert [row["lr"] for row in split["lr_rows"]] == list(self.LRS)
        assert split["lr_rows"] == inline["lr_rows"]
        assert split["best_lr"] == inline["best_lr"]
        assert_same_result(split["result"], inline["result"])

    def test_method_comparison(self, workers):
        task = generate_synthetic(SMALL)
        entries = [("ft", None), ("rosa", 2), ("lora", 2)]
        inline, split = self.run_both(
            workers, lambda: run_method_comparison(
                task, entries, epochs=2, lrs=self.LRS, batch_size=16,
                factorize_every=2))
        assert [(c["method"], c["rank"]) for c in split] == entries
        for got, want in zip(split, inline):
            assert without_result(got) == without_result(want)
            assert_same_result(got["result"], want["result"])

    def test_ablation_grid(self, workers):
        task = generate_synthetic(SMALL)
        inline, split = self.run_both(
            workers, lambda: run_ablation_grid(task, 2, epochs=2,
                                               lrs=self.LRS))
        assert split == inline

    def test_scheme_grid(self, workers):
        task = generate_synthetic(SMALL)
        inline, split = self.run_both(
            workers, lambda: run_scheme_grid(task, 2, epochs=2,
                                             lrs=self.LRS))
        assert split == inline

    def test_no_more_workers_than_cells(self, workers):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        forked = workers(8)
        sweep = sweep_learning_rates(task, base, (1e-2, 1e-3))
        assert len(forked) == 1
        assert len(sweep["lr_rows"]) == 2

    def test_inline_beside_other_threads(self, workers):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            forked = workers(3)
            sweep = sweep_learning_rates(task, base, (1e-2, 1e-3))
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forked == []
        assert len(sweep["lr_rows"]) == 2

    def test_inline_in_a_daemonic_process(self, workers):
        # A Pool worker is daemonic and may not have children.
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        workers(1)
        serial = sweep_rows(task, base, self.LRS)
        forked = workers(2)
        pool = multiprocessing.get_context("fork").Pool(1)
        try:
            rows = pool.apply(sweep_rows, (task, base, self.LRS))
        finally:
            pool.close()
            pool.join()
        assert len(forked) == 1  # the Pool's worker, and no child of it
        assert rows == serial

    def test_split_threads_factorize_like_a_lone_run(self, workers,
                                                     monkeypatch):
        # One rule: 4 CPUs at one BLAS thread each give every factorize
        # event of the 2-layer net a second thread, in a lone run and in
        # this process's share of a 2-process split alike.
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=2, batch_size=16)
        lone = rosa.training.run_training(base, task)
        events = lone.summary["factorize_events"]
        assert events == 2
        assert len(started) == events
        workers(1)
        serial = sweep_rows(task, base, self.LRS)
        started.clear()
        forked = workers(2)
        sweep = sweep_learning_rates(task, base, self.LRS)
        assert len(forked) == 1
        # This process runs rates 0 and 2 of the four, the child 1 and 3.
        assert len(started) == 2 * events
        assert sweep["lr_rows"] == serial
        assert rosa.linalg._worker_count() == 4

    @pytest.mark.parametrize("env, per_process", [
        ({}, None),
        ({"OPENBLAS_NUM_THREADS": "1"}, 1),
        ({"OMP_NUM_THREADS": "2"}, 2),
        ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "2"}, 1),
        ({"MKL_NUM_THREADS": "junk"}, None),
        # Digits outside ASCII: int() rejects the superscript and would
        # read the Arabic-Indic three as 3.
        ({"OMP_NUM_THREADS": "\u00b2"}, None),
        ({"MKL_NUM_THREADS": "\u0663"}, None),
    ])
    def test_workers_share_the_cpus_with_blas(self, monkeypatch, env,
                                              per_process):
        # BLAS runs one thread per CPU unless the environment says otherwise.
        for var in rosa.linalg._BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        for var, value in env.items():
            monkeypatch.setenv(var, value)
        cpus = len(os.sched_getaffinity(0))
        expected = 1 if per_process is None else max(1, cpus // per_process)
        assert rosa.experiments._worker_count() == expected


class TestWorkerFailures:
    LRS = (1e-2, 1e-3, 1e-4, 1e-5)

    @staticmethod
    def patch_runs(monkeypatch, action):
        """Route every run through action(config, in_child) first."""
        parent = os.getpid()
        real = rosa.experiments.run_training

        def patched(config, task):
            action(config, os.getpid() != parent)
            return real(config, task)

        monkeypatch.setattr(rosa.experiments, "run_training", patched)

    def test_diverged_in_a_child(self, monkeypatch, workers):
        def action(config, in_child):
            if config.lr == 1e-3:
                assert in_child
                raise NumericError("diverged")

        self.patch_runs(monkeypatch, action)
        workers(3)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=1, batch_size=16)
        sweep = sweep_learning_rates(task, base, self.LRS)
        assert [row["diverged"] for row in sweep["lr_rows"]] == \
               [False, True, False, False]
        assert sweep["lr_rows"][1]["final_val_loss"] is None
        assert sweep["best_lr"] != 1e-3

    @pytest.mark.parametrize("error", [
        ContractViolationError("drift bound violated"),
        ShapeError("operands differ", (3, 4), (4,)),
    ], ids=lambda e: type(e).__name__)
    def test_child_error_re_raised(self, monkeypatch, workers, error):
        def action(config, in_child):
            if config.lr == 1e-4:
                assert in_child
                raise error

        self.patch_runs(monkeypatch, action)
        workers(3)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        with pytest.raises(type(error)) as caught:
            sweep_learning_rates(task, base, self.LRS)
        assert str(caught.value) == str(error)
        assert vars(caught.value) == vars(error)

    def test_unpicklable_child_error_keeps_its_text(self, monkeypatch,
                                                    workers):
        class LocalError(Exception):  # a local class cannot be pickled
            pass

        def action(config, in_child):
            if config.lr == 1e-4:
                raise LocalError("lost detail")

        self.patch_runs(monkeypatch, action)
        workers(3)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        with pytest.raises(RosaError, match="LocalError: lost detail"):
            sweep_learning_rates(task, base, self.LRS)

    @pytest.mark.parametrize("count", [1, 3])
    def test_earliest_failing_cell_wins(self, monkeypatch, workers, count):
        # With 3 workers, cell 3 fails in this process and cell 1 in a child.
        def action(config, in_child):
            if config.lr == 1e-3:
                raise ShapeError("cell 1", (1,), (2,))
            if config.lr == 1e-5:
                raise ContractViolationError("cell 3")

        self.patch_runs(monkeypatch, action)
        workers(count)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        with pytest.raises(ShapeError, match="cell 1"):
            sweep_learning_rates(task, base, self.LRS)

    def test_dead_child_raises(self, monkeypatch, workers):
        def action(config, in_child):
            if in_child:
                os._exit(1)

        self.patch_runs(monkeypatch, action)
        workers(2)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        with pytest.raises(RosaError, match="exited with code 1"):
            sweep_learning_rates(task, base, self.LRS)

    def test_truncated_frame_raises(self, monkeypatch, workers):
        def cut_off(task, configs, indices, pipe):
            # The header of a 1000-byte frame, then 10 of its bytes.
            os.write(pipe.fileno(), struct.pack("!i", 1000) + b"x" * 10)
            os._exit(1)

        monkeypatch.setattr(rosa.experiments, "_child", cut_off)
        workers(2)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        with pytest.raises(RosaError, match="exited with code 1"):
            sweep_learning_rates(task, base, self.LRS)

    def test_interrupt_kills_children(self, monkeypatch, workers):
        def action(config, in_child):
            if in_child:
                time.sleep(60)
            raise KeyboardInterrupt

        self.patch_runs(monkeypatch, action)
        workers(3)
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="ft", epochs=1, batch_size=16)
        started = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            sweep_learning_rates(task, base, self.LRS)
        assert time.perf_counter() - started < 30


class TestMethodComparison:
    def test_cells_and_stripping(self):
        task = generate_synthetic(SMALL)
        cells = run_method_comparison(task, [("ft", None), ("rosa", 2)],
                                      epochs=2, lrs=(1e-2,), batch_size=16,
                                      factorize_every=2)
        assert [c["method"] for c in cells] == ["ft", "rosa"]
        rosa_cfg = cells[1]["result"].summary["config"]
        assert rosa_cfg["factorize_every"] == 2
        # Every cell is its JSON row plus the best run under "result".
        slim = [without_result(c) for c in cells]
        json.dumps(slim)
        assert all(set(c) == {"method", "rank", "best_lr", "final_val_loss",
                              "lr_rows"} for c in slim)
        assert all("result" in c for c in cells)


class TestSpectrumReport:
    def test_no_drift_reports_zeros(self):
        net = build_mlp([4, 5, 3], np.random.default_rng(0))
        report = spectrum_report(net, net.copy())
        for entry in report:
            assert not any(entry["sigma"])
            assert not any(entry["cumulative"])

    def test_cumulative_reaches_one(self):
        rng = np.random.default_rng(1)
        initial = build_mlp([4, 5, 3], rng)
        moved = initial.copy()
        for layer in moved.layers:
            layer.adapter.w += 0.5 * rng.standard_normal(layer.adapter.w.shape)
        report = spectrum_report(initial, moved)
        for entry in report:
            assert entry["cumulative"][-1] == pytest.approx(1.0, abs=1e-12)
            sigma = entry["sigma"]
            assert all(b <= a + 1e-12 for a, b in zip(sigma, sigma[1:]))

    def test_depth_mismatch_rejected(self):
        rng = np.random.default_rng(2)
        with pytest.raises(InvalidInputError):
            spectrum_report(build_mlp([4, 3], rng), build_mlp([4, 5, 3], rng))

    def test_csv_values_round_trip(self, tmp_path):
        import csv

        rng = np.random.default_rng(3)
        initial = build_mlp([4, 4], rng)
        moved = initial.copy()
        moved.layers[0].adapter.w += rng.standard_normal((4, 4))
        report = spectrum_report(initial, moved)
        path = tmp_path / "spectrum.csv"
        write_spectrum_csv(report, path)
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        # repr round-trip: the file reproduces the floats exactly.
        for row, sigma in zip(rows, report[0]["sigma"]):
            assert float(row["sigma"]) == sigma
