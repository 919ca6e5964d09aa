import contextlib
import csv
import io
import json
import multiprocessing
import os
import struct
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rosa.cli
import rosa.experiments
import rosa.linalg
from rosa.adapters import full_init
from rosa.checkpoint import load_checkpoint, save_checkpoint
from rosa.cli import main
from rosa.experiments import run_method_comparison
from rosa.network import Activation, DenseLayer, Mlp, predict
from rosa.synthetic import SyntheticSpec, generate_synthetic

from oracles import no_layer_checkpoint

TINY_DATA = {"layer_dims": [6, 8, 4], "drift_rank": 2, "n_train": 32,
             "n_val": 16, "seed": 0}
GRIDS = ["ablate", "schemes", "compare"]
RANK_FLAG = {"ablate": "--rank", "schemes": "--rank", "compare": "--ranks"}


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
        # The last three once switched parts of the training recipe.
        for config, key in [
            ({"methd": "ft"}, "methd"),
            ({"method": "ft", "optimizer": "sgd"}, "optimizer"),
            ({"reset_moments_on_factorize": False}, "reset_moments_on_factorize"),
            ({"literal_zero_init": True}, "literal_zero_init"),
        ]:
            path = tmp_path / "bad.json"
            path.write_text(json.dumps(config))
            code = main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o")])
            assert code == 2
            assert f"config field '{key}'" in capsys.readouterr().err

    @pytest.mark.parametrize("config, field", [
        ({"method": "ft", "lr": "x"}, "lr"),
        ({"method": "ft", "epochs": 1.5}, "epochs"),
        ({"method": "ft", "batch_size": 2.5}, "batch_size"),
        ({"method": "ft", "seed": -1}, "seed"),
        ({"method": "rosa", "rank": "abc"}, "rank"),
        ({"data": {"layer_dims": "ab"}}, "layer_dims"),
        ({"data": {"n_train": None}}, "n_train"),
        ({"method": "ft", "weight_decay": float("nan")}, "weight_decay"),
        ({"method": "ft", "epsilon": float("inf")}, "epsilon"),
        ({"method": "ft", "lr": float("inf")}, "lr"),
        ({"method": "ft", "data": {"drift_scale": float("inf")}}, "drift_scale"),
        ({"method": "ft", "data": {"input_sigma": float("nan")}}, "input_sigma"),
        # Integers beyond float range.
        ({"method": "ft", "lr": 10**400}, "lr"),
        ({"method": "ft", "weight_decay": 10**400}, "weight_decay"),
        ({"method": "ft", "data": {"input_sigma": 10**400}}, "input_sigma"),
    ])
    def test_mistyped_config_value_is_2(self, tmp_path, capsys, config, field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"error: config field '{field}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", GRIDS)
    @pytest.mark.parametrize("data, field", [
        ({"layer_dims": [6, 8.5, 4]}, "layer_dims"),
        ({"drift_scale": True}, "drift_scale"),
        ({"seed": -1}, "seed"),
        ({"drift_scale": 10**400}, "drift_scale"),
    ])
    def test_grid_mistyped_data_is_2(self, tmp_path, capsys, command, data,
                                     field):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"data": data}))
        code = main([command, "--config", str(path),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        assert f"error: config field '{field}'" in capsys.readouterr().err

    def test_well_typed_values_accepted(self, tmp_path):
        # An integer is a valid float and an optional rank may be null.
        cfg = write_config(tmp_path, method="ft", rank=None, lr=1, epochs=1,
                           data=dict(TINY_DATA, drift_scale=2))
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 0

    def test_invalid_combination_is_2(self, tmp_path):
        code = main(["train", "--method", "ft", "--rank", "4",
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_malformed_json_is_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("content", [
        # Python refuses to read an integer of more than 4300 digits.
        b'{"lr": 1' + b"0" * 5000 + b"}",
        b'{"lr": "\xff"}',
        # Deeper than the JSON parser's recursion limit.
        b"[" * 200000,
    ], ids=["long-integer", "not-utf8", "nested"])
    def test_unreadable_config_is_2(self, tmp_path, capsys, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        code = main(["train", "--config", str(path),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: config field 'config': not valid JSON")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["train"] + GRIDS)
    def test_out_is_a_file_is_4_before_training(self, tmp_path, monkeypatch,
                                                capsys, command):
        def must_not_run(config, task):
            raise AssertionError("trained before making --out")

        monkeypatch.setattr(rosa.cli, "run_training", must_not_run)
        monkeypatch.setattr(rosa.experiments, "run_training", must_not_run)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 1)
        config = {"data": TINY_DATA}
        if command == "train":
            config["method"] = "ft"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "taken"
        out.write_text("")
        code = main([command, "--config", str(path), "--epochs", "1",
                     "--out", str(out)])
        assert code == 4
        assert "File exists" in capsys.readouterr().err

    def test_missing_config_file_is_2(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "absent.json"),
                     "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_is_3(self, tmp_path):
        cfg = write_config(tmp_path, method="ft", rank=None, lr=1e308,
                           epochs=4)
        assert main(["train", "--config", cfg,
                     "--out", str(tmp_path / "o")]) == 3

    def test_overflow_reported_once(self, tmp_path, capsys):
        cfg = write_config(tmp_path, method="ft", rank=None, lr=1e308, epochs=2)
        with warnings.catch_warnings():
            # A NumPy RuntimeWarning would now raise out of main.
            warnings.simplefilter("error")
            code = main(["train", "--config", cfg, "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")

    def test_rosa_divergence_at_an_event_is_3(self, tmp_path, capsys):
        # With step events the diverging step's merge reaches the next
        # factorize event; that is a divergence (3), not a bad config (2).
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"batch_size": 4, "data": {
            "layer_dims": [8, 8], "drift_rank": 2, "n_train": 16,
            "n_val": 4}}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", str(path),
                         "--out", str(tmp_path / "o"), "--method", "rosa",
                         "--rank", "2", "--epochs", "3",
                         "--factorize-unit", "steps", "--lr", "1e300"])
        assert code == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:")
        assert "merged weight became non-finite" in err[0]

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

    @pytest.mark.parametrize("key, value", [
        ("rank", [2]), ("rank", None), ("rank", True), ("kind", ["rosa"]),
    ])
    def test_mistyped_checkpoint_meta_is_4(self, tmp_path, capsys, key, value):
        run = tmp_path / "run"
        main(["train", "--config", write_config(tmp_path), "--out", str(run)])
        blob = (run / "model.rsa1").read_bytes()
        meta_len = int.from_bytes(blob[8:12], "little")
        meta = json.loads(blob[12:12 + meta_len])
        meta["layers"][0][key] = value
        new_meta = json.dumps(meta).encode()
        bad = tmp_path / "bad.rsa1"
        bad.write_bytes(blob[:8] + len(new_meta).to_bytes(4, "little")
                        + new_meta + blob[12 + meta_len:])
        capsys.readouterr()
        assert main(["spectrum", str(bad), str(bad),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: layer 0 ")

    @pytest.mark.parametrize("out_dims, message", [
        ((3, 5), "error: layer 1 takes 2 inputs but layer 0 gives 3 outputs"),
        ((), "error: meta JSON lists no layers"),
    ], ids=["unchained", "empty"])
    def test_unchained_checkpoint_is_4(self, tmp_path, capsys, out_dims,
                                       message):
        bad = tmp_path / "bad.rsa1"
        if out_dims:
            rng = np.random.default_rng(0)
            save_checkpoint(Mlp(layers=[
                DenseLayer(adapter=full_init(rng.standard_normal((out_d, 2))),
                           bias=np.zeros(out_d),
                           activation=Activation.IDENTITY)
                for out_d in out_dims]), bad)
        else:
            bad.write_bytes(no_layer_checkpoint())
        assert main(["spectrum", str(bad), str(bad),
                     "--out", str(tmp_path / "o")]) == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(message)

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

    # A task too large for memory: the sizes come from the config, so the
    # failure is a bad configuration. Nothing is allocated for real.
    @pytest.mark.parametrize("exc, line", [
        (MemoryError("Unable to allocate 7.28 TiB for an array"),
         "error: Unable to allocate 7.28 TiB for an array"),
        (MemoryError(), "error: MemoryError"),
    ], ids=["numpy", "bare"])
    def test_memory_error_is_2(self, tmp_path, monkeypatch, capsys, exc, line):
        def fail(spec):
            raise exc

        monkeypatch.setattr(rosa.cli, "generate_synthetic", fail)
        cfg = write_config(tmp_path, method="ft", rank=None, epochs=1,
                           data={"n_train": 10**12})
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [line]
        assert "Traceback" not in err

    @pytest.mark.parametrize("count", [1, 2])
    @pytest.mark.parametrize("command", ["train", "compare"])
    def test_interrupt_is_130(self, tmp_path, monkeypatch, capsys, workers,
                              command, count):
        # Ctrl-C reaches this process's run; a grid's children are killed
        # and reaped on the way out (the workers fixture checks).
        parent = os.getpid()
        real = rosa.experiments.run_training

        def interrupted(config, task):
            if os.getpid() == parent:
                raise KeyboardInterrupt
            return real(config, task)

        monkeypatch.setattr(rosa.cli, "run_training", interrupted)
        monkeypatch.setattr(rosa.experiments, "run_training", interrupted)
        forked = workers(count)
        if command == "train":
            argv = ["train", "--config", write_config(tmp_path)]
        else:
            cfg = tmp_path / "grid.json"
            cfg.write_text(json.dumps({"data": TINY_DATA}))
            argv = ["compare", "--config", str(cfg), "--ranks", "2",
                    "--epochs", "1"]
        code = main(argv + ["--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 130
        assert err.splitlines() == ["error: KeyboardInterrupt"]
        assert len(forked) == (count - 1 if command == "compare" else 0)


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

    def test_negative_seed_is_2(self, capsys):
        assert main(["theorem", "--seed", "-1"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error:") and "seed" in err[0]


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
    @pytest.mark.parametrize("command", GRIDS)
    def test_top_level_training_fields_are_2(self, tmp_path, capsys, command):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"method": "ft", "lr": 5, "data": TINY_DATA}))
        out = tmp_path / "g"
        code = main([command, "--config", str(cfg), RANK_FLAG[command], "2",
                     "--epochs", "1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "'lr, method'" in err
        assert "Traceback" not in err
        assert not (out / f"{command}.json").exists()

    @pytest.mark.parametrize("command", GRIDS)
    def test_data_only_config_is_0(self, tmp_path, command):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        out = tmp_path / "g"
        assert main([command, "--config", str(cfg), RANK_FLAG[command], "2",
                     "--epochs", "1", "--out", str(out)]) == 0
        assert (out / f"{command}.json").exists()

    @pytest.mark.parametrize("command, batch_size, factorize_every", [
        ("ablate", 128, 1), ("schemes", 128, 1), ("compare", 64, 4)])
    def test_grid_training_knobs(self, tmp_path, monkeypatch, command,
                                 batch_size, factorize_every):
        # ablate and schemes train at the TrainConfig defaults, compare at
        # the acceptance grid's batch size and re-sampling period.
        seen = []
        real = rosa.experiments.run_training

        def recording(config, task):
            seen.append(config)
            return real(config, task)

        monkeypatch.setattr(rosa.experiments, "run_training", recording)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 1)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        assert main([command, "--config", str(cfg), RANK_FLAG[command], "2",
                     "--epochs", "1", "--out", str(tmp_path / "g")]) == 0
        assert seen
        assert {(c.batch_size, c.factorize_every) for c in seen} == \
               {(batch_size, factorize_every)}

    def test_compare_writes_rows(self, tmp_path, capsys):
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        out = tmp_path / "c"
        code = main(["compare", "--config", str(cfg), "--ranks", "2",
                     "--epochs", "3", "--out", str(out)])
        assert code == 0
        rows = json.loads((out / "compare.json").read_text())
        task = generate_synthetic(SyntheticSpec(
            **dict(TINY_DATA, layer_dims=tuple(TINY_DATA["layer_dims"]))))
        cells = run_method_comparison(
            task, [("ft", None), ("rosa", 2), ("lora", 2)], epochs=3,
            batch_size=64, factorize_every=4)
        assert len(rows) == len(cells)
        for row, cell in zip(rows, cells):
            ranks = cell.pop("result").summary["final_residual_ranks"]
            assert row == {**cell, "final_residual_ranks": ranks}
        printed = capsys.readouterr().out
        assert "final val loss" in printed
        assert f"rosa r=2: {rows[1]['final_residual_ranks']}" in printed

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
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 2)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        code = main(["schemes", "--config", str(cfg), "--rank", "2",
                     "--epochs", "1", "--out", str(tmp_path / "s")])
        assert code == 3
        assert "exited with code 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_truncated_result_is_3(self, tmp_path, monkeypatch, capsys):
        # A worker that dies mid-send is a dead worker, not an I/O error.
        def cut_off(task, configs, indices, pipe):
            os.write(pipe.fileno(), struct.pack("!i", 1000) + b"x" * 10)
            os._exit(1)

        monkeypatch.setattr(rosa.experiments, "_child", cut_off)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 2)
        cfg = tmp_path / "grid.json"
        cfg.write_text(json.dumps({"data": TINY_DATA}))
        code = main(["schemes", "--config", str(cfg), "--rank", "2",
                     "--epochs", "1", "--out", str(tmp_path / "s")])
        assert code == 3
        assert "exited with code 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats()
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4)


# Values that fail a field's type or range check, beside any JSON value.
# An integer beyond float range is no valid float.
FLOATS = st.floats() | st.integers(min_value=2**1024) \
    | st.integers(max_value=-2**1024)
BAD_TRAIN = {
    "method": st.sampled_from(["IA3", "dora"]),
    "rank": st.integers(-1, 9),
    "factorize_every": st.integers(-1, 0),
    "factorize_unit": st.just("days"),
    "scheme": st.just("middle"),
    "ablation": st.just("none"),
    "lr": FLOATS,
    "beta1": FLOATS,
    "beta2": FLOATS,
    "epsilon": FLOATS,
    "weight_decay": FLOATS,
    "epochs": st.integers(-1, 0),
    "batch_size": st.integers(-1, 0),
    "seed": st.just(-1),
}
BAD_DATA = {
    "layer_dims": st.lists(st.integers(-1, 6), max_size=4),
    "drift_rank": st.integers(-1, 7),
    "drift_scale": FLOATS,
    "input_sigma": FLOATS,
    "n_train": st.integers(-1, 0),
    "n_val": st.integers(-1, 0),
    "seed": st.just(-1),
}
# A tiny task. The defaults of the first four set a large task, or one
# drift_rank 24 does not fit; every layer is at least 2 wide, so ranks 1
# and 2 always fit.
TINY_TASKS = st.fixed_dictionaries({
    "layer_dims": st.lists(st.integers(2, 6), min_size=2, max_size=4),
    "n_train": st.integers(1, 24),
    "n_val": st.integers(1, 8),
    "drift_rank": st.integers(1, 2),
}, optional={
    "drift_scale": st.floats(0.1, 4.0),
    "input_sigma": st.floats(0.1, 4.0),
    "seed": st.integers(0, 2**40),
})


@st.composite
def train_fields(draw):
    """The training fields of a valid `rosa train` config."""
    method = draw(st.sampled_from(["ft", "lora", "rosa", "ia3"]))
    factored = method in ("rosa", "lora")
    config = draw(st.fixed_dictionaries({}, optional={
        "factorize_every": st.integers(1, 4),
        "factorize_unit": st.sampled_from(["steps", "epochs"]),
        "scheme": st.sampled_from(["random", "top", "bottom"]),
        "ablation": st.sampled_from(["full", "svd_init_factorize",
                                     "svd_init_only"] if method == "rosa"
                                    else ["full"]),
        "lr": st.floats(1e-4, 1e-1),
        "beta1": st.floats(0.0, 0.99),
        "beta2": st.floats(0.0, 0.999),
        "epsilon": st.floats(1e-8, 1e-3),
        "weight_decay": st.floats(0.0, 0.1),
        "epochs": st.integers(1, 3),
        "batch_size": st.integers(1, 16),
        "seed": st.integers(0, 2**40),
    }))
    config["method"] = method
    config["rank"] = draw(st.integers(1, 2)) if factored else None
    return config


@st.composite
def configs(draw, data_only=False):
    """A valid config on a tiny task, then up to two of: a field set to a
    mistyped or out-of-range value, an unknown key (at the top level or in
    "data"), a "data" entry that is no object. A data_only config, as the
    grids take it, holds "data" alone and only "data" is changed."""
    config = {} if data_only else draw(train_fields())
    config["data"] = draw(TINY_TASKS)
    changes = [] if data_only else ["bad", "unknown"]
    changes += ["bad data", "unknown data", "data no object"]
    for _ in range(draw(st.integers(0, 2))):
        change = draw(st.sampled_from(changes))
        if change == "data no object":
            config["data"] = draw(JSON_VALUES)
            continue
        target, bad = ((config["data"], BAD_DATA) if change.endswith("data")
                       else (config, BAD_TRAIN))
        if not isinstance(target, dict):
            continue
        if change.startswith("unknown"):
            key = draw(st.text(max_size=5).filter(
                lambda k: k not in bad and k != "data"))
            target[key] = draw(JSON_VALUES)
        else:
            key = draw(st.sampled_from(sorted(bad)))
            target[key] = draw(bad[key] | JSON_VALUES)
    return config


def check_config_run(config, *argv):
    """Run main(argv) with --config CONFIG and a fresh --out: a documented
    exit code, one error line on failure, no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "config.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(config, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main([*argv, "--config", path,
                         "--out", os.path.join(tmp, "o")])
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()
    if code != 0:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@settings(deadline=None, max_examples=150)
@given(config=configs())
def test_config_fuzz_exits_with_a_code(config):
    """Any JSON config: a documented exit code, one error line, no traceback."""
    check_config_run(config, "train", "--epochs", "1")


@settings(deadline=None, max_examples=40)
@given(command=st.sampled_from(GRIDS), config=configs(data_only=True))
def test_grid_config_fuzz_exits_with_a_code(command, config):
    """Any "data" object on a grid command, as for train above."""
    check_config_run(config, command, RANK_FLAG[command], "1", "--epochs", "1")
