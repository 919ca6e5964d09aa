import json

import numpy as np
import pytest

import rosa.exact
import rosa.experiments
from rosa.errors import InvalidInputError, NumericError
from rosa.experiments import (
    LR_GRID,
    run_method_comparison,
    run_theorem_suite,
    spectrum_report,
    strip_results,
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

    def test_two_least_squares_solves(self, monkeypatch):
        # The instance and the off-range noise projection; the noisy
        # instance, every rank and every greedy round reuse them.
        calls = []
        solve = rosa.exact.least_squares

        def counting(x, y):
            calls.append(1)
            return solve(x, y)

        monkeypatch.setattr(rosa.exact, "least_squares", counting)
        report = run_theorem_suite(n=40, d=16, p=8, residual_rank=6,
                                   ranks=(1, 2, 3, 6), seed=0)
        assert report["all_ok"] is True
        assert len(calls) == 2

    def test_benchmark_size_round_counts(self):
        # The exact workload of the benchmark (perfbench/fingerprint.json):
        # a numerics drift at this size fails here before it fails there.
        report = run_theorem_suite(n=2000, d=128, p=64, residual_rank=8,
                                   ranks=(1, 2, 4, 8), seed=0)
        rounds = [(c["t_predicted"], c["observed_step"]) for c in report["cases"]]
        assert rounds == [(8, 8), (4, 4), (2, 2), (1, 1)]
        assert report["noisy_case"]["plateau_ok"] is True
        assert report["all_ok"] is True

    def test_report_is_json_clean(self):
        report = run_theorem_suite(n=16, d=6, p=4, residual_rank=2,
                                   ranks=(1, 2), seed=6)
        json.dumps(report)


class TestLrSweep:
    def test_picks_lowest_final_val(self):
        task = generate_synthetic(SMALL)
        base = TrainConfig(method="rosa", rank=2, epochs=3, batch_size=16)
        sweep = sweep_learning_rates(task, base, lrs=(1e-3, 1e-2))
        assert len(sweep["rows"]) == 2
        best_row = min(sweep["rows"], key=lambda r: r["final_val_loss"])
        assert sweep["best_lr"] == best_row["lr"]
        assert sweep["best"].summary["final_val_loss"] == \
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
        rows = {row["lr"]: row for row in sweep["rows"]}
        assert [row["lr"] for row in sweep["rows"]] == [1e-2, 1e-3, 1e-4]
        assert rows[1e-2]["diverged"] is True
        assert rows[1e-2]["final_val_loss"] is None
        assert rows[1e-2]["best_val_loss"] is None
        assert rows[1e-2]["final_train_loss"] is None
        finished = [rows[1e-3], rows[1e-4]]
        assert all(row["diverged"] is False for row in finished)
        best_row = min(finished, key=lambda r: r["final_val_loss"])
        assert sweep["best_lr"] == best_row["lr"]
        assert sweep["best"].summary["final_val_loss"] == \
               best_row["final_val_loss"]
        json.dumps(sweep["rows"])

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


class TestMethodComparison:
    def test_cells_and_stripping(self):
        task = generate_synthetic(SMALL)
        cells = run_method_comparison(task, [("ft", None), ("rosa", 2)],
                                      epochs=2, lrs=(1e-2,), batch_size=16,
                                      factorize_every=2)
        assert [c["method"] for c in cells] == ["ft", "rosa"]
        rosa_cfg = cells[1]["result"].summary["config"]
        assert rosa_cfg["factorize_every"] == 2
        slim = strip_results(cells)
        json.dumps(slim)
        assert all("result" not in c for c in slim)
        # Originals keep their result objects.
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
