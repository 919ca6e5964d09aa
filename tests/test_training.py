import csv
import threading
import tracemalloc

import numpy as np
import pytest

import rosa.linalg
from rosa.adapters import RosaAdapter
from rosa.checkpoint import encode_checkpoint
from rosa.errors import ConfigError, NumericError
from rosa.linalg import numerical_rank
from rosa.network import forward, predict
from rosa.synthetic import SyntheticSpec, SyntheticTask, generate_synthetic
from rosa.training import (
    TrainConfig,
    adapt_network,
    run_training,
    write_metrics_csv,
    write_summary_json,
)

TINY = SyntheticSpec(layer_dims=(6, 8, 4), drift_rank=2, n_train=32, n_val=16,
                     seed=0)


def tiny_task() -> SyntheticTask:
    return generate_synthetic(TINY)


def quick(method="rosa", rank=2, **kw) -> TrainConfig:
    base = dict(method=method, rank=rank, epochs=4, batch_size=16, lr=1e-2,
                seed=0)
    base.update(kw)
    return TrainConfig(**base)


class TestConfigValidation:
    def test_method_normalized(self):
        assert TrainConfig(method="ROSA", rank=2).method == "rosa"
        assert TrainConfig(method="Ft").method == "ft"

    def test_unknown_method(self):
        with pytest.raises(ConfigError) as info:
            TrainConfig(method="fancy")
        assert info.value.field == "method"

    def test_rank_required_for_factored_methods(self):
        for method in ("rosa", "lora"):
            with pytest.raises(ConfigError) as info:
                TrainConfig(method=method)
            assert info.value.field == "rank"

    def test_rank_forbidden_elsewhere(self):
        for method in ("ft", "ia3"):
            with pytest.raises(ConfigError):
                TrainConfig(method=method, rank=4)

    def test_ablation_only_for_subspace_method(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="lora", rank=2, ablation="svd_init_only")

    def test_bad_unit(self):
        with pytest.raises(ConfigError) as info:
            TrainConfig(method="ft", factorize_unit="minutes")
        assert info.value.field == "factorize_unit"

    def test_bad_cadence(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="ft", factorize_every=0)

    def test_bad_lr(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="ft", lr=-0.1)

    # Python callers get the type check the CLI's JSON values get.
    @pytest.mark.parametrize("kwargs, message", [
        (dict(method="rosa", rank=2, factorize_every=1.5, epochs=4),
         "config field 'factorize_every': must be int, got 1.5"),
        (dict(method="ft", epochs=1.5), "config field 'epochs': must be int, got 1.5"),
        (dict(method="rosa", rank=True),
         "config field 'rank': must be int | None, got True"),
    ], ids=["factorize_every", "epochs", "rank"])
    def test_mistyped_value(self, kwargs, message):
        with pytest.raises(ConfigError) as info:
            TrainConfig(**kwargs)
        assert str(info.value) == message


class TestSyntheticTask:
    def test_deterministic(self):
        t1, t2 = tiny_task(), tiny_task()
        assert np.array_equal(t1.x_train, t2.x_train)
        assert np.array_equal(t1.y_val, t2.y_val)

    def test_targets_are_teacher_outputs(self):
        t = tiny_task()
        assert np.array_equal(t.y_train, predict(t.teacher, t.x_train))
        assert np.array_equal(t.y_val, predict(t.teacher, t.x_val))

    def test_teacher_drift_has_planted_rank(self):
        t = tiny_task()
        for base_layer, teacher_layer in zip(t.base.layers, t.teacher.layers):
            drift = (teacher_layer.adapter.effective_weight()
                     - base_layer.adapter.effective_weight())
            assert numerical_rank(drift) == TINY.drift_rank

    def test_shapes(self):
        t = tiny_task()
        assert t.x_train.shape == (6, 32)
        assert t.y_train.shape == (4, 32)
        assert t.x_val.shape == (6, 16)

    def test_training_arrays_column_contiguous(self):
        # One sample per column: a minibatch gather copies whole columns.
        t = tiny_task()
        assert t.x_train.flags.f_contiguous and t.y_train.flags.f_contiguous
        cols = np.array([5, 0, 17])
        assert t.x_train[:, cols].flags.f_contiguous

    def test_drift_rank_bounded_by_dims(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(layer_dims=(6, 8, 4), drift_rank=5)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            SyntheticSpec(n_train=0)
        with pytest.raises(ConfigError):
            SyntheticSpec(layer_dims=(4,))

    def test_mistyped_value(self):
        with pytest.raises(ConfigError) as info:
            SyntheticSpec(drift_rank=2.0)
        assert str(info.value) == "config field 'drift_rank': must be int, got 2.0"
        # A tuple field takes a tuple or a list, and stores a tuple.
        listed = SyntheticSpec(layer_dims=[6, 8, 4], drift_rank=2)
        assert listed.drift_rank == 2
        twin = SyntheticSpec(layer_dims=(6, 8, 4), drift_rank=2)
        assert listed == twin
        assert hash(listed) == hash(twin)


class TestAdaptNetwork:
    def test_rosa_layers_installed(self):
        t = tiny_task()
        net = adapt_network(t.base, quick(), np.random.default_rng(0))
        assert all(isinstance(l.adapter, RosaAdapter) for l in net.layers)
        for src, dst in zip(t.base.layers, net.layers):
            assert np.allclose(dst.adapter.effective_weight(),
                               src.adapter.effective_weight(), atol=1e-10)

    def test_base_left_untouched(self):
        t = tiny_task()
        before = [l.adapter.effective_weight().copy() for l in t.base.layers]
        net = adapt_network(t.base, quick(), np.random.default_rng(0))
        net.layers[0].adapter.a += 1.0
        for w, layer in zip(before, t.base.layers):
            assert np.array_equal(layer.adapter.effective_weight(), w)


def all_arrays(net) -> list[np.ndarray]:
    """Every array a net holds: each adapter's fields and each bias."""
    return [arr for layer in net.layers
            for arr in (*vars(layer.adapter).values(), layer.bias)
            if isinstance(arr, np.ndarray)]


class TestDriftReference:
    """The start snapshot is a run's only drift reference (adapters keep no
    copy of their start weight), so nothing trained may alias it."""

    METHODS = [("ft", None), ("lora", 2), ("rosa", 2), ("ia3", None)]

    @pytest.mark.parametrize("method, rank", METHODS)
    def test_adapted_net_shares_no_memory_with_base(self, method, rank):
        t = tiny_task()
        net = adapt_network(t.base, quick(method, rank), np.random.default_rng(0))
        for arr in all_arrays(net):
            for other in all_arrays(t.base):
                assert not np.shares_memory(arr, other)

    @pytest.mark.parametrize("method, rank", METHODS)
    def test_trained_net_shares_no_memory_with_snapshot(self, method, rank):
        t = tiny_task()
        result = run_training(quick(method, rank), t)
        for arr in all_arrays(result.net):
            for other in all_arrays(result.initial_net) + all_arrays(t.base):
                assert not np.shares_memory(arr, other)
        before = [layer.adapter.effective_weight()
                  for layer in result.initial_net.layers]
        for arr in all_arrays(result.net):
            arr += 1.0
        for w, layer in zip(before, result.initial_net.layers):
            assert np.array_equal(layer.adapter.effective_weight(), w)


def traced_peak(config: TrainConfig, task: SyntheticTask):
    """run_training's result and its tracemalloc peak in bytes."""
    tracemalloc.start()
    try:
        result = run_training(config, task)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A run holds each array once. Its tracemalloc peak stays under what it
    needs at one time: the net and its start snapshot; AdamW's m, v, g and
    u and one gradient set, each as large as the trainable arrays; and the
    larger of what the drift ranks and what one step hold beside them. The
    drift ranks hold four matrices as large as the largest layer (the
    trained layer's merge, the snapshot's merge, their difference and
    LAPACK workspace). Rosa's factorize event is bounded against LoRA's
    peak by acceptance guarantee 14."""

    SPEC = SyntheticSpec(layer_dims=(256,) * 7, drift_rank=32, n_train=64,
                         n_val=8, seed=0)

    @staticmethod
    def held(net) -> int:
        """Bytes of the net, its snapshot, AdamW's vectors and a gradient set."""
        arrays = sum(arr.nbytes for arr in all_arrays(net))
        trainable = sum(arr.nbytes for layer in net.layers
                        for arr in (*layer.adapter.trainable_arrays().values(),
                                    layer.bias))
        return 2 * arrays + 5 * trainable

    @staticmethod
    def largest(net) -> int:
        return max(8 * m * n for m, n in
                   (layer.adapter.shape for layer in net.layers))

    @pytest.mark.parametrize("method, rank",
                             [("lora", 8), ("ia3", None), ("ft", None)])
    def test_peak_within_the_arrays_a_run_holds(self, method, rank):
        task = generate_synthetic(self.SPEC)
        config = TrainConfig(method=method, rank=rank, epochs=2, batch_size=8,
                             seed=0)
        result, peak = traced_peak(config, task)
        net = result.initial_net
        assert peak <= self.held(net) + 4 * self.largest(net)

    @pytest.mark.parametrize("method, rank", [("lora", 8), ("ia3", None)])
    def test_peak_holds_one_step_of_activations(self, method, rank):
        """At batch 64 one step outweighs the drift ranks. A step holds one
        forward cache (every array its records keep), the batch's inputs
        and targets, and seven arrays as large as a layer's output: the
        loss gradient and backward's incoming gradient, dz, its mask (a
        bool array, counted at full size), the input gradient's two
        products and their sum. A run that keeps the last step's cache
        while the next forward builds its own holds two. ft is left out:
        its AdamW vectors, each as large as its weights, set its peak."""
        task = generate_synthetic(SyntheticSpec(
            layer_dims=(256,) * 7, drift_rank=32, n_train=256, n_val=64,
            seed=0))
        batch = 64
        config = TrainConfig(method=method, rank=rank, epochs=2,
                             batch_size=batch, seed=0)
        result, peak = traced_peak(config, task)
        net = result.initial_net
        xb, yb = task.x_train[:, :batch], task.y_train[:, :batch]
        _, cache = forward(net, xb)
        step_arrays = {id(arr): arr for arr in (xb, yb, *(
            arr for rec in cache.records for arr in rec.values()))}
        output = 8 * batch * max(max(layer.adapter.shape) for layer in net.layers)
        step = sum(arr.nbytes for arr in step_arrays.values()) + 7 * output
        assert peak <= self.held(net) + max(4 * self.largest(net), step)


class TestRunTraining:
    def test_loss_goes_down(self):
        result = run_training(quick(epochs=30), tiny_task())
        assert result.records[-1].val_loss < result.records[0].val_loss * 0.5

    def test_deterministic_repeat(self):
        r1 = run_training(quick(epochs=6), tiny_task())
        r2 = run_training(quick(epochs=6), tiny_task())
        assert [rec.train_loss for rec in r1.records] == \
               [rec.train_loss for rec in r2.records]
        assert [rec.val_loss for rec in r1.records] == \
               [rec.val_loss for rec in r2.records]

    def test_seed_changes_trajectory(self):
        r1 = run_training(quick(epochs=6, seed=0), tiny_task())
        r2 = run_training(quick(epochs=6, seed=1), tiny_task())
        assert r1.records[-1].train_loss != r2.records[-1].train_loss

    def test_epoch_cadence_event_count(self):
        result = run_training(quick(epochs=6, factorize_every=2), tiny_task())
        flags = [rec.factorize_event for rec in result.records]
        assert flags == [False, True, False, True, False, True]
        assert result.summary["factorize_events"] == 3

    def test_step_cadence_event_count(self):
        # 32 samples, batch 16: 2 steps per epoch, 6 steps total; every
        # third step fires inside epochs 2 and 3.
        result = run_training(quick(epochs=3, factorize_every=3,
                                    factorize_unit="steps"), tiny_task())
        flags = [rec.factorize_event for rec in result.records]
        assert flags == [False, True, True]
        assert result.summary["factorize_events"] == 2

    def test_non_rosa_never_factorizes(self):
        result = run_training(quick(method="ft", rank=None, factorize_every=1),
                              tiny_task())
        assert result.summary["factorize_events"] == 0

    def test_initial_net_is_pre_training(self):
        t = tiny_task()
        result = run_training(quick(epochs=5), t)
        for src, dst in zip(t.base.layers, result.initial_net.layers):
            assert np.allclose(dst.adapter.effective_weight(),
                               src.adapter.effective_weight(), atol=1e-10)

    def test_trainable_counts(self):
        result = run_training(quick(), tiny_task())
        counts = result.summary["trainable_params"]
        # rank 2 on (8, 6) and (4, 8) layers plus biases 8 and 4.
        assert counts["matrix"] == 2 * (8 + 6) + 2 * (4 + 8)
        assert counts["bias"] == 12
        assert counts["total"] == counts["matrix"] + counts["bias"]

    def test_lora_rank_check_recorded(self):
        result = run_training(quick(method="lora", epochs=6), tiny_task())
        check = result.summary["lora_rank_check"]
        assert check["ok"] is True
        assert check["bound"] == 2
        assert max(check["residual_ranks"]) <= 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        with pytest.raises(NumericError):
            run_training(quick(method="ft", rank=None, lr=1e308, epochs=4),
                         tiny_task())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("unit, batch_size", [("steps", 16),
                                                  ("epochs", 32)])
    def test_rosa_divergence_at_an_event_raises(self, unit, batch_size):
        # The first step, from a finite loss, moves a and b to about 1e300,
        # so the next factorize event's merge w_fixed + a b overflows: the
        # second step's with step events, the epoch's end when an epoch is
        # one step.
        config = quick(lr=1e300, epochs=3, factorize_unit=unit,
                       batch_size=batch_size)
        with pytest.raises(NumericError,
                           match=r"layer \d+'s merged weight became "
                                 r"non-finite before a factorize event"):
            run_training(config, tiny_task())

    def test_residual_ranks_tracked(self):
        result = run_training(quick(epochs=8, lr=3e-2), tiny_task())
        final = result.records[-1].residual_ranks
        assert len(final) == 2
        assert all(r >= 1 for r in final)


class TestMetricsFiles:
    def test_csv_layout(self, tmp_path):
        result = run_training(quick(epochs=3), tiny_task())
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.records, path)
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert header[:6] == ["epoch", "step", "train_loss", "val_loss",
                              "trainable_params", "factorize_event"]
        assert header[6:] == ["residual_rank_0", "residual_rank_1"]
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[0] == "1"
        assert float(first[2]) == result.records[0].train_loss

    def test_csv_bytes_stable_across_reruns(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_metrics_csv(run_training(quick(epochs=4), tiny_task()).records, p1)
        write_metrics_csv(run_training(quick(epochs=4), tiny_task()).records, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_summary_json_round_trips(self, tmp_path):
        import json

        result = run_training(quick(epochs=2), tiny_task())
        path = tmp_path / "summary.json"
        write_summary_json(result.summary, path)
        loaded = json.loads(path.read_text())
        assert loaded["config"]["method"] == "rosa"
        assert loaded["final_val_loss"] == result.summary["final_val_loss"]


def drift_ranks_of(result) -> tuple[int, ...]:
    """Per-layer numerical rank of the trained net's move from its start."""
    return tuple(
        numerical_rank(layer.adapter.effective_weight()
                       - start.adapter.effective_weight())
        for layer, start in zip(result.net.layers, result.initial_net.layers))


class TestDriftRankEpochs:
    def test_rosa_ranks_on_event_and_last_epochs(self, tmp_path):
        config = quick(epochs=5, factorize_every=2, lr=3e-2)
        result = run_training(config, tiny_task())
        ranked = [r.epoch for r in result.records if r.residual_ranks is not None]
        assert ranked == [2, 4, 5]
        for epoch in ranked:
            # The first k epochs of a run do not depend on its length.
            prefix = run_training(quick(epochs=epoch, factorize_every=2,
                                        lr=3e-2), tiny_task())
            assert prefix.records[-1].train_loss == \
                result.records[epoch - 1].train_loss
            assert result.records[epoch - 1].residual_ranks == \
                drift_ranks_of(prefix)
        assert result.summary["final_residual_ranks"] == \
            list(drift_ranks_of(result))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.records, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row, record in zip(rows, result.records):
            cells = [row["residual_rank_0"], row["residual_rank_1"]]
            if record.residual_ranks is None:
                assert cells == ["", ""]
            else:
                assert cells == [str(v) for v in record.residual_ranks]
        assert "None" not in path.read_text()

    @pytest.mark.parametrize("method, rank", [("ft", None), ("lora", 2)])
    def test_last_epoch_only_without_events(self, tmp_path, method, rank):
        result = run_training(quick(method=method, rank=rank, epochs=4,
                                    factorize_every=1), tiny_task())
        assert [r.residual_ranks is None for r in result.records] == \
            [True, True, True, False]
        assert result.records[-1].residual_ranks == drift_ranks_of(result)
        assert result.summary["final_residual_ranks"] == \
            list(drift_ranks_of(result))
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.records, path)
        lines = path.read_text().splitlines()
        assert lines[0].endswith(",residual_rank_0,residual_rank_1")
        assert all(line.endswith(",0,,") for line in lines[1:4])
        assert not lines[4].endswith(",")

    @pytest.mark.parametrize("method, rank", [("rosa", 2), ("ft", None),
                                              ("lora", 2)])
    def test_reruns_byte_identical(self, tmp_path, method, rank):
        paths = []
        for run in range(2):
            result = run_training(quick(method=method, rank=rank, epochs=5,
                                        factorize_every=2), tiny_task())
            paths.append((tmp_path / f"metrics_{run}.csv",
                          tmp_path / f"summary_{run}.json"))
            write_metrics_csv(result.records, paths[-1][0])
            write_summary_json(result.summary, paths[-1][1])
        for first, second in zip(*paths):
            assert first.read_bytes() == second.read_bytes()

    def test_records_without_ranks_write_no_rank_columns(self, tmp_path):
        result = run_training(quick(method="ft", rank=None, epochs=2),
                              tiny_task())
        path = tmp_path / "metrics.csv"
        write_metrics_csv(result.records[:1], path)
        assert path.read_text().splitlines()[0].endswith(",factorize_event")


class TestThreadedFactorize:
    @staticmethod
    def run_files(tmp_path, name, task=None):
        config = quick(scheme="random", factorize_unit="steps",
                       factorize_every=1, epochs=3)
        result = run_training(config, task or tiny_task())
        write_metrics_csv(result.records, tmp_path / f"{name}.csv")
        write_summary_json(result.summary, tmp_path / f"{name}.json")
        return [(tmp_path / f"{name}.csv").read_bytes(),
                (tmp_path / f"{name}.json").read_bytes(),
                encode_checkpoint(result.net),
                encode_checkpoint(result.initial_net)]

    def test_files_and_nets_same_for_one_and_two_workers(self, tmp_path,
                                                         monkeypatch):
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 1)
        serial = self.run_files(tmp_path, "serial")
        assert started == []
        monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: 2)
        threaded = self.run_files(tmp_path, "threaded")
        # Two layers: one extra thread per event, 3 epochs of 2 steps.
        assert len(started) == 6
        assert threaded == serial

    def test_deep_net_same_files_at_one_two_and_three_workers(self, tmp_path,
                                                              monkeypatch):
        """Five layers go through the event in groups of _worker_count():
        at 2 workers in groups of 2, 2 and 1, at 3 in groups of 3 and 2.
        Each group starts its size - 1 threads, so a net deeper than one
        group starts more threads per event than workers - 1: the one cost
        of holding one group's merges and factors at a time."""
        task = generate_synthetic(SyntheticSpec(
            layer_dims=(6, 8, 8, 8, 8, 4), drift_rank=2, n_train=32, n_val=16,
            seed=0))
        started = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        files = []
        # Threads per event: the sum over groups of group size - 1.
        for workers, per_event in ((1, 0), (2, 1 + 1), (3, 2 + 1)):
            monkeypatch.setattr(rosa.linalg, "_worker_count", lambda: workers)
            started.clear()
            files.append(self.run_files(tmp_path, f"w{workers}", task))
            # 3 epochs of 2 steps, an event before each.
            assert len(started) == 6 * per_event
        assert files == [files[0]] * 3
