"""Training-loop tests: schedule, determinism, checkpointing, resume, evaluate.

Everything here runs on deliberately tiny encoders and datasets so the whole
module stays in the low seconds. The descent and entropy cases pin down
concrete seeded instances rather than asserting vague tendencies.
"""

import json
import math
import struct
from dataclasses import replace

import numpy as np
import pytest

from mice import encoder as enc
from mice.data import Dataset, SyntheticSpec, generate
from mice.errors import (
    ConfigError,
    CorruptCheckpointError,
    DegenerateDistributionError,
    EmptyInputError,
    InvalidInputError,
    TooManyClustersError,
    VersionMismatchError,
)
from mice.model import (
    expert_log_scores,
    gating_distribution,
    hard_assign,
    log_partition_estimates,
    posterior,
)
from mice.numcore import make_rng, normalize_rows, row_norms
from mice.prototypes import max_mahalanobis_centers
from mice.trainer import (
    CHECKPOINT_MAGIC,
    CHECKPOINT_VERSION,
    TrainConfig,
    _sgd_step,
    classical_em_run,
    evaluate,
    fit,
    init_state,
    load_checkpoint,
    lr_at_epoch,
    save_checkpoint,
    train_step,
    worker_count,
)


def tiny_config(**overrides):
    base = dict(
        seed=2,
        num_clusters=3,
        embed_dim=4,
        hidden_widths=(8,),
        queue_size=24,
        batch_size=16,
        epochs=3,
        aug_sigma=0.05,
        aug_rho=0.05,
    )
    base.update(overrides)
    return TrainConfig(**base)


def tiny_dataset(seed=7, n_per=16):
    return generate(SyntheticSpec(3, 6, n_per, 15.0, seed=seed))


def state_arrays(state):
    """Every float array a checkpoint must preserve, in a fixed order."""
    return [
        state.student.vec,
        state.teacher.vec,
        state.mu,
        state.omega,
        state.queue.snapshot(),
        state.opt_mu,
        state.opt_student,
        state.accumulator.sums,
        state.accumulator.counts,
    ]


def assert_states_identical(a, b):
    assert a.config == b.config
    assert a.epoch == b.epoch
    assert a.rng.bit_generator.state == b.rng.bit_generator.state
    for left, right in zip(state_arrays(a), state_arrays(b), strict=True):
        np.testing.assert_array_equal(left, right)


class TestWorkerCount:
    def test_unset_uses_machine(self, monkeypatch):
        monkeypatch.delenv("MICE_THREADS", raising=False)
        assert worker_count() >= 1

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("MICE_THREADS", "3")
        assert worker_count() == 3

    @pytest.mark.parametrize("bad", ["abc", "0", "-2", "1.5"])
    def test_rejects_bad_values(self, monkeypatch, bad):
        monkeypatch.setenv("MICE_THREADS", bad)
        with pytest.raises(InvalidInputError):
            worker_count()


class TestConfig:
    def test_round_trip(self):
        cfg = tiny_config(lr_milestones=(0.2, 0.7), hidden_widths=(5, 3))
        again = TrainConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert isinstance(again.lr_milestones, tuple)

    def test_json_compatible(self):
        d = json.loads(json.dumps(tiny_config().to_dict()))
        assert TrainConfig.from_dict(d) == tiny_config()

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config keys"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tau", 0.0),
            ("kappa", -1.0),
            ("queue_size", 0),
            ("ema_momentum", 1.0),
            ("batch_size", 0),
            ("epochs", -1),
            ("lr_initial", -0.1),
            ("lr_decay", 0.0),
            ("sgd_momentum", 1.0),
            ("weight_decay", -1e-6),
            ("num_clusters", 1),
            ("embed_dim", 0),
            ("hidden_widths", (8, 0)),
            ("aug_sigma", -0.1),
            ("aug_rho", 1.0),
            ("lr_milestones", (0.5, 0.5)),
            ("lr_milestones", (0.0, 0.5)),
            ("lr_milestones", (0.5, 1.0)),
            ("seed", -1),
            # wrong types, from Python as from JSON
            ("batch_size", 2.5),
            ("queue_size", 8.0),
            ("num_clusters", 3.0),
            ("embed_dim", 4.0),
            ("hidden_widths", (5.0,)),
            ("hidden_widths", [5]),
            ("tau", "1"),
            ("seed", 1.5),
            ("seed", np.int64(1)),
            ("epochs", True),
            ("aug_sigma", False),
            ("a3_uniform_gating", 1),
            ("lr_milestones", 0.5),
        ],
    )
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ConfigError):
            replace(TrainConfig(), **{field: value})

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["tau", "kappa", "lr_initial", "weight_decay", "aug_sigma"])
    def test_non_finite_floats_rejected_by_name(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must be finite"):
            replace(TrainConfig(), **{field: value})

    def test_derived_views(self):
        cfg = tiny_config(tau=0.3, kappa=2.0, a4_single_head=True, aug_sigma=0.2)
        assert cfg.temps.tau == 0.3 and cfg.temps.kappa == 2.0
        assert cfg.flags.a4_single_head and not cfg.flags.a3_uniform_gating
        assert cfg.augmentation.sigma == 0.2


class TestSgdStep:
    def test_matches_the_textbook_formula_bitwise(self):
        """In place with one temporary: buf = m buf + (g + wd p); p -= lr buf."""
        cfg = tiny_config(sgd_momentum=0.9, weight_decay=3e-4)
        rng = make_rng(41)
        param, grad, buf = (
            rng.standard_normal(257) * 10.0 ** rng.integers(-6, 6, 257) for _ in range(3)
        )
        grad_before = grad.copy()
        want_buf = cfg.sgd_momentum * buf + (grad + cfg.weight_decay * param)
        want_param = param - 0.37 * want_buf
        _sgd_step(param, grad, buf, 0.37, cfg)
        assert buf.tobytes() == want_buf.tobytes()
        assert param.tobytes() == want_param.tobytes()
        assert grad.tobytes() == grad_before.tobytes()

    def test_derived_views_follow_a_replaced_config(self):
        """The cached temps, flags and augmentation belong to their own config."""
        cfg = tiny_config(tau=0.3)
        assert cfg.temps.tau == 0.3 and cfg.temps is cfg.temps
        other = replace(cfg, tau=0.5, a3_uniform_gating=True, aug_rho=0.2)
        assert other.temps.tau == 0.5 and other.flags.a3_uniform_gating
        assert other.augmentation.rho == 0.2
        assert cfg.temps.tau == 0.3 and not cfg.flags.a3_uniform_gating


class TestLrSchedule:
    def test_default_milestones_over_1000_epochs(self):
        cfg = TrainConfig(epochs=1000)
        expected = {0: 0.3, 479: 0.3, 480: 0.03, 639: 0.03, 640: 0.003, 799: 0.003, 800: 3e-4, 999: 3e-4}
        for epoch, lr in expected.items():
            np.testing.assert_allclose(lr_at_epoch(cfg, epoch), lr, rtol=1e-12)

    def test_boundary_rounding(self):
        cfg = TrainConfig(epochs=10, lr_milestones=(0.3,), lr_initial=1.0, lr_decay=0.5)
        assert lr_at_epoch(cfg, 2) == 1.0
        assert lr_at_epoch(cfg, 3) == 0.5


class TestInitState:
    def test_deterministic(self):
        ds = tiny_dataset()
        assert_states_identical(init_state(tiny_config(), ds), init_state(tiny_config(), ds))

    def test_structure(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_state(cfg, ds)
        np.testing.assert_allclose(row_norms(state.mu), 1.0, atol=1e-12)
        np.testing.assert_array_equal(state.omega, max_mahalanobis_centers(3, 4))
        assert state.queue.snapshot().shape == (24, 3, 4)  # queue_size < N: filled to cap
        assert state.epoch == 0
        for buf in (state.opt_student, state.opt_mu):
            assert not buf.any()

    def test_prefill_capped_by_dataset(self):
        ds = tiny_dataset(n_per=5)  # N = 15
        state = init_state(tiny_config(queue_size=64), ds)
        assert state.queue.snapshot().shape == (15, 3, 4)

    def test_too_many_clusters_for_embed_dim(self):
        with pytest.raises(TooManyClustersError):
            init_state(tiny_config(num_clusters=4, embed_dim=2), tiny_dataset())


class TestFit:
    def test_zero_epochs_is_init(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=0)
        state, log = fit(cfg, ds)
        assert log == []
        assert_states_identical(state, init_state(cfg, ds))

    @pytest.mark.parametrize("epochs", [0, 1])
    def test_empty_dataset_raises(self, epochs):
        with pytest.raises(EmptyInputError):
            fit(tiny_config(epochs=epochs), Dataset(np.zeros((0, 4))))

    def test_bitwise_deterministic(self):
        ds = tiny_dataset()
        state_a, log_a = fit(tiny_config(), ds)
        state_b, log_b = fit(tiny_config(), ds)
        assert_states_identical(state_a, state_b)
        assert log_a == log_b

    def test_log_schema(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=2)
        state, log = fit(cfg, ds)
        assert [entry["epoch"] for entry in log] == [0, 1]
        for entry in log:
            assert entry["lr"] == lr_at_epoch(cfg, entry["epoch"])
            assert set(entry) == {
                "epoch", "lr", "loss", "elbo", "posterior_entropy", "kl",
                "occupancy", "nmi", "acc", "ari",
            }
            assert sum(entry["occupancy"]) == 48
            assert entry["loss"] == -entry["elbo"]
        assert state.epoch == 2

    def test_no_truth_no_external_metrics(self):
        ds = tiny_dataset()
        _, log = fit(tiny_config(epochs=1), Dataset(ds.points))
        assert "nmi" not in log[0] and "acc" not in log[0] and "ari" not in log[0]

    def test_queue_grows_after_training_pass(self):
        ds = tiny_dataset(n_per=5)  # N = 15, prefill 15
        state, _ = fit(tiny_config(queue_size=64, epochs=1, batch_size=8), ds)
        assert state.queue.snapshot().shape == (30, 3, 4)

    def test_stop_epoch_interrupts(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4)
        state, log = fit(cfg, ds, stop_epoch=2)
        assert state.epoch == 2 and len(log) == 2

    def test_resume_rejects_config_mismatch(self):
        ds = tiny_dataset()
        state = init_state(tiny_config(), ds)
        with pytest.raises(ConfigError, match="different config"):
            fit(tiny_config(tau=0.5), ds, state=state)

    def test_zero_ema_momentum_tracks_student_exactly(self):
        ds = tiny_dataset()
        state, _ = fit(tiny_config(ema_momentum=0.0, epochs=1), ds)
        n = state.teacher.vec.size  # the student's vector without the gating head
        assert n == state.student.vec.size - 4 * 8 - 4
        np.testing.assert_array_equal(state.teacher.vec, state.student.vec[:n])

    def test_near_one_ema_momentum_freezes_teacher(self):
        ds = tiny_dataset()
        cfg = tiny_config(ema_momentum=1.0 - 1e-12, epochs=1)
        before = init_state(cfg, ds)
        after, _ = fit(cfg, ds)
        np.testing.assert_allclose(after.teacher.vec, before.teacher.vec, atol=1e-9)

    def test_loss_descends_on_a_fixed_batch(self):
        """Full-batch run, no augmentation/momentum/decay, frozen teacher, small
        step: the recorded loss must fall at every one of 21 epochs."""
        rng = make_rng(11)
        ds = Dataset(normalize_rows(rng.standard_normal((32, 10))))
        cfg = TrainConfig(
            seed=11, num_clusters=3, embed_dim=6, hidden_widths=(12,),
            queue_size=32, batch_size=32, aug_sigma=0.0, aug_rho=0.0,
            sgd_momentum=0.0, weight_decay=0.0, ema_momentum=1.0 - 1e-12,
            lr_initial=1e-3, epochs=21,
        )
        _, log = fit(cfg, ds)
        losses = np.array([entry["loss"] for entry in log])
        assert losses.shape == (21,)
        assert np.all(np.diff(losses) < 0.0), np.diff(losses).max()

    def test_initial_posterior_is_near_uniform(self):
        """Random init must not start collapsed: mean posterior entropy at the
        seeded instance stays above 90% of the uniform entropy."""
        ds = generate(SyntheticSpec(4, 16, 100, 50.0, seed=5))
        state = init_state(TrainConfig(seed=5, num_clusters=4, embed_dim=16, queue_size=256), ds)
        _, post = evaluate(state, ds)
        with np.errstate(divide="ignore", invalid="ignore"):
            plogp = np.where(post > 0.0, post * np.log(post), 0.0)
        entropy = float(-plogp.sum(axis=1).mean())
        assert entropy >= 0.9 * math.log(4.0)

    def test_poisoned_queue_raises(self):
        ds = tiny_dataset()
        state = init_state(tiny_config(), ds)
        state.queue.push(np.full((1, 3, 4), np.inf))
        with np.errstate(invalid="ignore"):
            with pytest.raises(DegenerateDistributionError):
                train_step(state, ds.points[:8])


class TestEvaluate:
    def test_shapes_and_normalization(self):
        ds = tiny_dataset()
        state, _ = fit(tiny_config(epochs=1), ds)
        labels, post = evaluate(state, ds)
        assert labels.shape == (48,) and post.shape == (48, 3)
        assert set(np.unique(labels)) <= {1, 2, 3}
        np.testing.assert_allclose(post.sum(axis=1), 1.0, atol=1e-12)

    def test_worker_count_never_changes_the_answer(self, monkeypatch):
        ds = generate(SyntheticSpec(3, 6, 200, 15.0, seed=9))  # 600 rows: 3 chunks
        state = init_state(tiny_config(), ds)
        monkeypatch.setenv("MICE_THREADS", "1")
        labels_1, post_1 = evaluate(state, ds)
        monkeypatch.setenv("MICE_THREADS", "3")
        labels_3, post_3 = evaluate(state, ds)
        np.testing.assert_array_equal(labels_1, labels_3)
        np.testing.assert_array_equal(post_1, post_3)

    def test_one_trunk_pass_matches_two_forward_passes(self):
        """evaluate takes the gating embedding from the student's trunk output; labels and
        posterior equal those built from a separate forward_gating pass, bit for bit."""
        ds = tiny_dataset(n_per=100)  # 300 rows: two chunks
        state, _ = fit(tiny_config(epochs=1), ds)
        cfg = state.config
        snapshot = state.queue.snapshot()
        chunks = []
        for x in (ds.points[:256], ds.points[256:]):  # evaluate's fixed chunks
            f, _ = enc.forward_student(x, state.student)
            v = enc.forward_teacher(x, state.teacher)
            g, _ = enc.forward_gating(x, state.student)
            chunks.append(posterior(
                gating_distribution(g, state.omega, cfg.kappa, cfg.flags),
                expert_log_scores(v, f, state.mu, cfg.tau, cfg.flags),
                log_partition_estimates(f, v, snapshot, state.mu, cfg.tau, cfg.flags),
            ))
        expected = np.concatenate(chunks)
        labels, post = evaluate(state, ds)
        assert post.tobytes() == expected.tobytes()
        np.testing.assert_array_equal(labels, hard_assign(expected))

    def test_repeat_calls_identical(self):
        ds = tiny_dataset()
        state = init_state(tiny_config(), ds)
        first = evaluate(state, ds)
        second = evaluate(state, ds)
        np.testing.assert_array_equal(first[0], second[0])
        np.testing.assert_array_equal(first[1], second[1])


class TestClassicalEm:
    def test_requires_augmentation_off(self):
        with pytest.raises(InvalidInputError):
            classical_em_run(tiny_config(), tiny_dataset(), 1, 1e-3)

    def test_e_step_never_loses_ground(self):
        """The fresh posterior at the new parameters can only improve on the
        bound evaluated with the previous responsibilities."""
        cfg = tiny_config(aug_sigma=0.0, aug_rho=0.0, queue_size=8)
        record = classical_em_run(cfg, tiny_dataset(n_per=8), steps=6, lr=1e-3)
        assert len(record["after_e"]) == 6 and len(record["after_m"]) == 6
        for previous_m, next_e in zip(record["after_m"], record["after_e"][1:]):
            assert next_e >= previous_m - 1e-9


class TestCheckpoint:
    def test_round_trip_is_bitwise(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config()
        state, _ = fit(cfg, ds, stop_epoch=1)
        train_step(state, ds.points[:8])  # leave a half-finished epoch in the accumulator
        path = tmp_path / "run.ckpt"
        save_checkpoint(state, path)
        assert_states_identical(load_checkpoint(path), state)

    def test_resume_matches_uninterrupted(self, tmp_path):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4)
        full_state, full_log = fit(cfg, ds)

        half_state, half_log = fit(cfg, ds, stop_epoch=2)
        path = tmp_path / "half.ckpt"
        save_checkpoint(half_state, path)
        resumed_state, resumed_log = fit(cfg, ds, state=load_checkpoint(path))

        assert_states_identical(resumed_state, full_state)
        assert half_log + resumed_log == full_log

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        state = init_state(tiny_config(), tiny_dataset())
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptCheckpointError, match="magic"):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "future.ckpt"
        state = init_state(tiny_config(), tiny_dataset())
        save_checkpoint(state, path)
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", CHECKPOINT_VERSION + 1)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(path)

    def test_truncation(self, tmp_path):
        path = tmp_path / "cut.ckpt"
        state = init_state(tiny_config(), tiny_dataset())
        save_checkpoint(state, path)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 17])
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(path)

    def test_trailing_garbage(self, tmp_path):
        path = tmp_path / "long.ckpt"
        state = init_state(tiny_config(), tiny_dataset())
        save_checkpoint(state, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(CorruptCheckpointError, match="trailing"):
            load_checkpoint(path)

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "empty.ckpt"
        path.write_bytes(CHECKPOINT_MAGIC + struct.pack("<I", CHECKPOINT_VERSION) + struct.pack("<I", 0))
        with pytest.raises(CorruptCheckpointError, match="missing sections"):
            load_checkpoint(path)
