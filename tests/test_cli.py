import csv
import json
import multiprocessing
import os

import numpy as np
import pytest

import rosa.cli
import rosa.experiments
from rosa.checkpoint import load_checkpoint, save_checkpoint
from rosa.cli import main
from rosa.network import predict

TINY_DATA = {"layer_dims": [6, 8, 4], "drift_rank": 2, "n_train": 32,
             "n_val": 16, "seed": 0}


def write_config(tmp_path, name="config.json", **updates):
    cfg = {"method": "rosa", "rank": 2, "epochs": 3, "batch_size": 16,
           "lr": 1e-2, "data": TINY_DATA}
    cfg.update(updates)
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestTrain:
    def test_writes_all_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", write_config(tmp_path),
                     "--out", str(out)])
        assert code == 0
        for name in ("metrics.csv", "summary.json", "initial.rsa1",
                     "model.rsa1"):
            assert (out / name).exists(), name

    def test_metrics_rows_match_epochs(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path), "--out", str(out)])
        with open(out / "metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert rows[-1]["epoch"] == "3"
        assert float(rows[-1]["val_loss"]) > 0.0

    def test_checkpoints_are_loadable_endpoints(self, tmp_path):
        out = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, epochs=5),
              "--out", str(out)])
        initial = load_checkpoint(out / "initial.rsa1")
        final = load_checkpoint(out / "model.rsa1")
        x = np.random.default_rng(0).standard_normal((6, 4))
        assert not np.allclose(predict(initial, x), predict(final, x))

    def test_flags_override_config(self, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--config", write_config(tmp_path),
                     "--out", str(out), "--epochs", "5", "--method", "lora",
                     "--rank", "3", "--lr", "0.02"])
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["config"]["epochs"] == 5
        assert summary["config"]["method"] == "lora"
        assert summary["config"]["rank"] == 3
        assert summary["config"]["lr"] == 0.02

    def test_train_without_config_uses_defaults(self, tmp_path):
        # All-default SyntheticSpec is 64-wide; keep it short.
        out = tmp_path / "run"
        code = main(["train", "--out", str(out), "--method", "ft",
                     "--epochs", "1"])
        assert code == 0

    def test_repeat_runs_bit_identical(self, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        cfg = write_config(tmp_path)
        main(["train", "--config", cfg, "--out", str(out1)])
        main(["train", "--config", cfg, "--out", str(out2)])
        assert (out1 / "metrics.csv").read_bytes() == \
               (out2 / "metrics.csv").read_bytes()


class TestExitCodes:
    def test_unknown_config_key_is_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"methd": "ft"}))
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert "methd" in capsys.readouterr().err

    def test_invalid_combination_is_2(self, tmp_path):
        code = main(["train", "--method", "ft", "--rank", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_json_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_3(self, tmp_path):
        cfg = write_config(tmp_path, method="ft", rank=None, optimizer="sgd",
                           lr=1e12, epochs=4)
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3

    def test_corrupt_checkpoint_is_4(self, tmp_path):
        bad = tmp_path / "bad.rsa1"
        bad.write_bytes(b"not a checkpoint at all")
        assert main(["spectrum", str(bad), str(bad),
                     "--out", str(tmp_path / "o")]) == 4

    def test_non_finite_checkpoint_is_4(self, tmp_path, capsys):
        run = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path), "--out", str(run)])
        net = load_checkpoint(run / "model.rsa1")
        net.layers[0].adapter.a[0, 0] = np.nan
        bad = tmp_path / "nan.rsa1"
        save_checkpoint(net, bad)
        capsys.readouterr()
        assert main(["spectrum", str(run / "initial.rsa1"), str(bad),
                     "--out", str(tmp_path / "o")]) == 4
        assert "non-finite" in capsys.readouterr().err

    def test_missing_checkpoint_is_4(self, tmp_path):
        absent = str(tmp_path / "absent.rsa1")
        assert main(["spectrum", absent, absent,
                     "--out", str(tmp_path / "o")]) == 4

    def test_linalg_error_is_3(self, monkeypatch, capsys):
        def fail(**kwargs):
            raise np.linalg.LinAlgError("SVD did not converge")

        monkeypatch.setattr(rosa.cli, "run_theorem_suite", fail)
        assert main(["theorem"]) == 3
        assert capsys.readouterr().err == "error: SVD did not converge\n"


class TestTheorem:
    def test_exit_zero_and_report(self, tmp_path, capsys):
        out = tmp_path / "t"
        code = main(["theorem", "--out", str(out)])
        assert code == 0
        assert "all_ok=True" in capsys.readouterr().out
        report = json.loads((out / "theorem.json").read_text())
        assert report["all_ok"] is True
        assert [c["rank"] for c in report["cases"]] == [1, 2, 3, 6]

    def test_no_out_still_prints(self, capsys):
        assert main(["theorem"]) == 0
        assert "T_pred" in capsys.readouterr().out

    def test_defaults_fixed_outcome(self, tmp_path):
        out = tmp_path / "t"
        assert main(["theorem", "--out", str(out)]) == 0
        report = json.loads((out / "theorem.json").read_text())
        got = [(c["rank"], c["t_predicted"], c["observed_step"],
                c["bound_attained"], c["converged_at_t"], c["strict_before_t"])
               for c in report["cases"]]
        assert got == [(1, 6, 6, True, True, True), (2, 3, 3, True, True, True),
                       (3, 2, 2, True, True, True), (6, 1, 1, True, True, True)]
        assert report["noisy_case"]["plateau_ok"] is True
        assert report["instance"] == {"n": 40, "d": 16, "p": 8,
                                      "residual_rank": 6, "seed": 0}

    def test_shape_options(self, tmp_path):
        out = tmp_path / "t"
        code = main(["theorem", "--samples", "30", "--inputs", "10",
                     "--outputs", "6", "--residual-rank", "5",
                     "--ranks", "2", "5", "--seed", "3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "theorem.json").read_text())
        assert report["instance"] == {"n": 30, "d": 10, "p": 6,
                                      "residual_rank": 5, "seed": 3}
        assert [(c["rank"], c["t_predicted"], c["observed_step"])
                for c in report["cases"]] == [(2, 3, 3), (5, 1, 1)]
        assert report["all_ok"] is True

    def test_rank_above_budget_is_2(self, capsys):
        assert main(["theorem", "--outputs", "4", "--residual-rank", "3",
                     "--ranks", "5"]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestSpectrum:
    def test_csv_written_from_train_endpoints(self, tmp_path):
        run = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path, epochs=6),
              "--out", str(run)])
        spec_out = tmp_path / "spec"
        code = main(["spectrum", str(run / "initial.rsa1"),
                     str(run / "model.rsa1"), "--out", str(spec_out)])
        assert code == 0
        with open(spec_out / "spectrum.csv") as fh:
            rows = list(csv.DictReader(fh))
        layers = {r["layer"] for r in rows}
        assert layers == {"0", "1"}
        for layer in sorted(layers):
            cum = [float(r["cumulative_fraction"]) for r in rows
                   if r["layer"] == layer]
            assert cum[-1] == pytest.approx(1.0, abs=1e-12)
            assert all(b >= a - 1e-12 for a, b in zip(cum, cum[1:]))


class TestGrids:
    def test_ablate_writes_grid(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        out = tmp_path / "a"
        code = main(["ablate", "--config", str(cfg), "--rank", "2",
                     "--epochs", "3", "--out", str(out)])
        assert code == 0
        grid = json.loads((out / "ablate.json").read_text())
        names = [row["variant"] for row in grid["rows"]]
        assert names == ["lora", "svd_init_only", "svd_init_factorize", "full"]
        assert isinstance(grid["expected_order_held"], bool)
        assert "ordering" in capsys.readouterr().out

    def test_schemes_writes_grid(self, tmp_path):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        out = tmp_path / "s"
        code = main(["schemes", "--config", str(cfg), "--rank", "2",
                     "--epochs", "3", "--out", str(out)])
        assert code == 0
        grid = json.loads((out / "schemes.json").read_text())
        assert [row["scheme"] for row in grid["rows"]] == \
               ["top", "bottom", "random"]

    def test_dead_worker_is_3(self, tmp_path, monkeypatch, capsys):
        parent = os.getpid()
        real = rosa.experiments.run_training

        def dying(config, task):
            if os.getpid() != parent:
                os._exit(1)
            return real(config, task)

        monkeypatch.setattr(rosa.experiments, "run_training", dying)
        monkeypatch.setattr(rosa.experiments, "_worker_count", lambda: 2)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        code = main(["schemes", "--config", str(cfg), "--rank", "2",
                     "--epochs", "1", "--out", str(tmp_path / "s")])
        assert code == 3
        assert "exited with code 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
