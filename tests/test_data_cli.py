"""Synthetic data, CSV round-trips, key-value configs, and the CLI end to end."""

import json
import math
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np
import pytest

import mice
from mice.cli import cli_main
from mice.config import _parse, load_config, load_synthetic_spec, parse_keyvalue
from mice.data import (
    Dataset,
    SyntheticSpec,
    generate,
    load_dataset,
    save_dataset,
)
from mice.errors import (
    ConfigError,
    DimensionMismatchError,
    InvalidSpecError,
    ParseError,
)
from mice.model import entropy_mean
from mice.numcore import row_norms
from mice.report import load_report
from mice.trainer import TrainConfig, evaluate, load_checkpoint


class TestGenerate:
    def test_deterministic(self):
        spec = SyntheticSpec(3, 6, 10, 15.0, seed=4)
        a = generate(spec)
        b = generate(spec)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.truth, b.truth)

    def test_shapes_and_labels(self):
        ds = generate(SyntheticSpec(4, 8, 7, 10.0, seed=0))
        assert ds.points.shape == (28, 8)
        np.testing.assert_allclose(row_norms(ds.points), 1.0, atol=1e-12)
        np.testing.assert_array_equal(ds.truth, np.repeat([1, 2, 3, 4], 7))

    def test_high_concentration_recovers_equiangular_directions(self):
        """With tiny noise the normalized cluster means sit on the dispersed
        frame: pairwise cosines -1/(K-1)."""
        k = 4
        ds = generate(SyntheticSpec(k, 8, 50, 1e6, seed=1))
        means = np.stack(
            [ds.points[ds.truth == label].mean(axis=0) for label in range(1, k + 1)]
        )
        means /= row_norms(means)[:, np.newaxis]
        dots = means @ means.T
        off = dots[~np.eye(k, dtype=bool)]
        np.testing.assert_allclose(off, -1.0 / (k - 1), atol=1e-3)

    def test_more_clusters_than_frame_allows(self):
        """K > d+1 falls back to random unit directions but keeps the contract."""
        ds = generate(SyntheticSpec(6, 4, 5, 10.0, seed=2))
        assert ds.points.shape == (30, 4)
        np.testing.assert_allclose(row_norms(ds.points), 1.0, atol=1e-12)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(num_clusters=0, input_dim=4, points_per_cluster=5, concentration=1.0),
            dict(num_clusters=2, input_dim=0, points_per_cluster=5, concentration=1.0),
            dict(num_clusters=2, input_dim=4, points_per_cluster=0, concentration=1.0),
            dict(num_clusters=2, input_dim=4, points_per_cluster=5, concentration=0.0),
            dict(num_clusters=2, input_dim=4, points_per_cluster=5, concentration=-1.0),
            dict(num_clusters=2, input_dim=4, points_per_cluster=5, concentration=1.0, seed=-1),
        ],
    )
    def test_invalid_spec(self, kwargs):
        with pytest.raises(InvalidSpecError):
            SyntheticSpec(**kwargs)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("seed", 1.5),
            ("points_per_cluster", 2.5),
            ("num_clusters", 3.0),
            ("num_clusters", True),
            ("input_dim", "4"),
            ("concentration", "10"),
            ("concentration", False),
            ("seed", None),
            ("points_per_cluster", np.int64(5)),
        ],
    )
    def test_spec_value_types(self, name, value):
        """Types are checked as TrainConfig's: a bool is no number, an int is also a float."""
        kwargs = dict(num_clusters=2, input_dim=4, points_per_cluster=5, concentration=1.0)
        with pytest.raises(InvalidSpecError, match=f"spec key '{name}'.*has the wrong type"):
            SyntheticSpec(**{**kwargs, name: value})
        assert SyntheticSpec(**{**kwargs, "concentration": 10}).concentration == 10

    @pytest.mark.parametrize(
        "sizes",
        [(3, 6, 10**11), (10**11, 6, 10), (3, 10**11, 10), (10**11, 10**11, 10**11)],
        ids=["points", "clusters", "dims", "beyond-address-space"],
    )
    def test_spec_too_large_for_memory(self, sizes):
        with pytest.raises(InvalidSpecError, match="the spec needs more memory than is available"):
            generate(SyntheticSpec(*sizes, 10.0))

    def test_dataset_validation(self):
        pts = np.zeros((4, 3))
        with pytest.raises(DimensionMismatchError):
            Dataset(pts, truth=np.array([1, 2]))
        with pytest.raises(DimensionMismatchError):
            Dataset(np.zeros(4))


class TestCsvRoundTrip:
    def test_lossless_with_truth(self, tmp_path):
        ds = generate(SyntheticSpec(3, 5, 8, 12.0, seed=6))
        path = tmp_path / "data.csv"
        save_dataset(ds, path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.points, ds.points)
        np.testing.assert_array_equal(back.truth, ds.truth)

    def test_lossless_without_truth(self, tmp_path):
        ds = generate(SyntheticSpec(3, 5, 8, 12.0, seed=6))
        path = tmp_path / "blind.csv"
        save_dataset(Dataset(ds.points), path)
        back = load_dataset(path)
        np.testing.assert_array_equal(back.points, ds.points)
        assert back.truth is None

    def test_header_layout(self, tmp_path):
        path = tmp_path / "data.csv"
        save_dataset(generate(SyntheticSpec(2, 3, 2, 5.0, seed=0)), path)
        assert path.read_text().splitlines()[0] == "dim_0,dim_1,dim_2,truth"

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "gaps.csv"
        path.write_text("dim_0,dim_1,truth\n0.5,0.25,1\n\n-0.5,0.125,2\n")
        ds = load_dataset(path)
        np.testing.assert_array_equal(ds.points, [[0.5, 0.25], [-0.5, 0.125]])
        np.testing.assert_array_equal(ds.truth, [1, 2])


class TestCsvErrors:
    def write(self, tmp_path, text):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        return path

    def test_empty_file(self, tmp_path):
        with pytest.raises(ParseError, match="line 1: empty dataset file"):
            load_dataset(self.write(tmp_path, ""))

    def test_header_only(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: dataset has a header but no rows"):
            load_dataset(self.write(tmp_path, "dim_0,dim_1\n"))

    def test_bad_header(self, tmp_path):
        with pytest.raises(ParseError, match="expected column"):
            load_dataset(self.write(tmp_path, "x,y\n0.5,0.25\n"))

    def test_bad_float_reports_line(self, tmp_path):
        with pytest.raises(ParseError, match="line 3"):
            load_dataset(self.write(tmp_path, "dim_0,dim_1\n0.5,0.25\n0.5,abc\n"))

    def test_non_finite_rejected(self, tmp_path):
        with pytest.raises(ParseError, match="line 2: non-finite value"):
            load_dataset(self.write(tmp_path, "dim_0,dim_1\n0.5,inf\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(DimensionMismatchError, match="line 2"):
            load_dataset(self.write(tmp_path, "dim_0,dim_1,truth\n0.5,0.25\n"))

    @pytest.mark.parametrize("label", ["0", "-1", "1.5", "one"])
    def test_bad_truth_label(self, tmp_path, label):
        with pytest.raises(ParseError, match="positive integer"):
            load_dataset(self.write(tmp_path, f"dim_0,truth\n0.5,{label}\n"))


NON_DEFAULT_CONFIG = dict(
    tau=0.6, kappa=2.0, queue_size=128, ema_momentum=0.99, batch_size=32, epochs=7,
    lr_initial=0.1, lr_milestones=(0.25, 0.5, 0.75), lr_decay=0.2, sgd_momentum=0.8,
    weight_decay=1e-3, seed=9, num_clusters=5, embed_dim=6, hidden_widths=(16, 8),
    a3_uniform_gating=True, a4_single_head=True, a5_no_class_term=True,
    aug_sigma=0.2, aug_rho=0.05,
)


class TestKeyValueFiles:
    def write(self, tmp_path, text, name="conf.txt"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_comments_and_whitespace(self, tmp_path):
        path = self.write(tmp_path, "# run settings\n  tau = 0.5  # residual comment\n\nseed=3\n")
        assert parse_keyvalue(path) == {"tau": "0.5", "seed": "3"}

    def test_duplicate_key(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2: duplicate key"):
            parse_keyvalue(self.write(tmp_path, "tau = 0.5\ntau = 0.7\n"))

    def test_missing_equals(self, tmp_path):
        with pytest.raises(ConfigError, match="line 1"):
            parse_keyvalue(self.write(tmp_path, "tau 0.5\n"))

    def test_empty_key(self, tmp_path):
        with pytest.raises(ConfigError, match="empty key"):
            parse_keyvalue(self.write(tmp_path, "= 0.5\n"))

    def test_empty_file_gives_defaults(self, tmp_path):
        assert load_config(self.write(tmp_path, "")) == TrainConfig()

    def test_full_config(self, tmp_path):
        text = (
            "tau = 0.6\nkappa = 2.0\nqueue_size = 128\nema_momentum = 0.999\n"
            "batch_size = 32\nepochs = 7\nlr_initial = 0.1\n"
            "lr_milestones = 0.25, 0.5, 0.75\nlr_decay = 0.2\nsgd_momentum = 0.8\n"
            "weight_decay = 0.0001\nseed = 9\nnum_clusters = 5\nembed_dim = 6\n"
            "hidden_widths = 16, 8\na3_uniform_gating = true\na4_single_head = false\n"
            "a5_no_class_term = FALSE\n"
            "aug_sigma = 0.2\naug_rho = 0.05\n"
        )
        cfg = load_config(self.write(tmp_path, text))
        assert cfg == TrainConfig(
            tau=0.6, kappa=2.0, queue_size=128, ema_momentum=0.999, batch_size=32,
            epochs=7, lr_initial=0.1, lr_milestones=(0.25, 0.5, 0.75), lr_decay=0.2,
            sgd_momentum=0.8, weight_decay=1e-4, seed=9, num_clusters=5, embed_dim=6,
            hidden_widths=(16, 8), a3_uniform_gating=True,
            aug_sigma=0.2, aug_rho=0.05,
        )

    def test_every_field_loads_from_its_key(self, tmp_path):
        """A file setting every TrainConfig field to a non-default value loads back equal."""
        cfg = TrainConfig(**NON_DEFAULT_CONFIG)
        for f in fields(TrainConfig):
            assert getattr(cfg, f.name) != f.default, f.name

        def text(value):
            if isinstance(value, list):
                return ", ".join(map(repr, value))
            return str(value).lower() if isinstance(value, bool) else repr(value)

        lines = "".join(f"{key} = {text(value)}\n" for key, value in cfg.to_dict().items())
        assert load_config(self.write(tmp_path, lines)) == cfg

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        table = readme.split("Training config keys (`--config`):", 1)[1].split("\n\n")[1]
        rows = re.findall(r"^\| `(\w+)` \| `([^`]*)` \|", table, flags=re.MULTILINE)
        assert [key for key, _ in rows] == [f.name for f in fields(TrainConfig)]
        types, defaults = get_type_hints(TrainConfig), TrainConfig()
        for key, text in rows:
            assert _parse(key, text, types[key]) == getattr(defaults, key), key

    def test_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown config key"):
            load_config(self.write(tmp_path, "learning_rate = 0.1\n"))

    def test_bad_number(self, tmp_path):
        with pytest.raises(ConfigError, match="not a number"):
            load_config(self.write(tmp_path, "tau = fast\n"))

    def test_bad_bool(self, tmp_path):
        with pytest.raises(ConfigError, match="expected true or false"):
            load_config(self.write(tmp_path, "a4_single_head = 1\n"))

    def test_semantic_validation_still_applies(self, tmp_path):
        with pytest.raises(ConfigError, match="tau must be > 0"):
            load_config(self.write(tmp_path, "tau = -1\n"))

    def test_spec_file(self, tmp_path):
        text = "num_clusters = 3\ninput_dim = 6\npoints_per_cluster = 10\nconcentration = 15\nseed = 2\n"
        assert load_synthetic_spec(self.write(tmp_path, text)) == SyntheticSpec(3, 6, 10, 15.0, seed=2)

    def test_spec_unknown_key(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown spec key"):
            load_synthetic_spec(self.write(tmp_path, "clusters = 3\n"))

    def test_spec_missing_required_key(self, tmp_path):
        with pytest.raises(InvalidSpecError):
            load_synthetic_spec(self.write(tmp_path, "num_clusters = 3\n"))

    def test_spec_semantic_validation(self, tmp_path):
        text = "num_clusters = 3\ninput_dim = 6\npoints_per_cluster = 10\nconcentration = 0\n"
        with pytest.raises(InvalidSpecError):
            load_synthetic_spec(self.write(tmp_path, text))


SPEC_TEXT = "num_clusters = 3\ninput_dim = 6\npoints_per_cluster = 15\nconcentration = 20\nseed = 3\n"
CONFIG_TEXT = (
    "seed = 2\nnum_clusters = 3\nembed_dim = 4\nhidden_widths = 8\n"
    "queue_size = 32\nbatch_size = 16\nepochs = 2\naug_sigma = 0.05\naug_rho = 0.05\n"
)


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "spec.txt").write_text(SPEC_TEXT)
    (tmp_path / "config.txt").write_text(CONFIG_TEXT)
    assert cli_main(["gen-data", "--spec", str(tmp_path / "spec.txt"), "--out", str(tmp_path / "data.csv")]) == 0
    return tmp_path


class TestCli:
    def test_gen_data(self, workdir):
        ds = load_dataset(workdir / "data.csv")
        assert ds.points.shape == (45, 6)
        expected = generate(SyntheticSpec(3, 6, 15, 20.0, seed=3))
        np.testing.assert_array_equal(ds.points, expected.points)

    def test_train_writes_checkpoint_and_report(self, workdir):
        code = cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "data.csv"),
            "--out", str(workdir / "run.ckpt"), "--report", str(workdir / "train.json"),
        ])
        assert code == 0
        state = load_checkpoint(workdir / "run.ckpt")
        assert state.epoch == 2

        report = load_report(workdir / "train.json")
        assert report["schema_version"] == 1
        assert report["command"] == "train"
        assert report["seed"] == 2
        assert TrainConfig.from_dict(report["config"]).num_clusters == 3
        assert len(report["epochs"]) == 2
        final = report["final"]
        assert {"nmi", "acc", "ari", "occupancy", "posterior_entropy"} <= set(final)
        assert sum(final["occupancy"]) == 45
        assert 0.0 <= final["posterior_entropy"] <= math.log(3.0) + 1e-12

    def test_train_reports_are_reproducible(self, workdir):
        for name in ("a.json", "b.json"):
            assert cli_main([
                "train", "--config", str(workdir / "config.txt"),
                "--data", str(workdir / "data.csv"), "--report", str(workdir / name),
            ]) == 0
        a = load_report(workdir / "a.json")
        b = load_report(workdir / "b.json")
        a.pop("wall_clock_seconds")
        b.pop("wall_clock_seconds")
        assert a == b

    def test_train_report_is_strict_json_when_gates_underflow(self, workdir):
        """kappa = 0.001 is valid and underflows gating probabilities to 0; the KL the
        report carries stays finite, so the report parses without NaN or Infinity."""
        spec = (
            "num_clusters = 4\ninput_dim = 6\npoints_per_cluster = 100\n"
            "concentration = 20\nseed = 5\n"
        )
        (workdir / "spec400.txt").write_text(spec)
        (workdir / "kappa.txt").write_text(CONFIG_TEXT + "kappa = 0.001\n")
        data = workdir / "data400.csv"
        assert cli_main(["gen-data", "--spec", str(workdir / "spec400.txt"), "--out", str(data)]) == 0
        assert cli_main([
            "train", "--config", str(workdir / "kappa.txt"), "--data", str(data),
            "--report", str(workdir / "train.json"),
        ]) == 0

        def reject(constant):
            raise ValueError(f"{constant} in the report")

        report = json.loads((workdir / "train.json").read_text(), parse_constant=reject)
        assert report["config"]["kappa"] == 0.001
        assert all(math.isfinite(entry["kl"]) for entry in report["epochs"])

    @pytest.mark.parametrize(
        "line",
        ["tau = inf", "kappa = inf", "lr_initial = inf", "weight_decay = inf", "aug_sigma = nan"],
    )
    def test_train_rejects_a_non_finite_config_value(self, workdir, capsys, line):
        """inf or nan for an unbounded float is exit 1 and one line naming the key,
        before any training."""
        (workdir / "bad.txt").write_text(line + "\n")
        code = cli_main([
            "train", "--config", str(workdir / "bad.txt"), "--data", str(workdir / "data.csv"),
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and err.startswith(f"error: {line.split()[0]} must be finite")

    def test_eval_matches_training_run(self, workdir):
        assert cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "data.csv"),
            "--out", str(workdir / "run.ckpt"), "--report", str(workdir / "train.json"),
        ]) == 0
        assert cli_main([
            "eval", "--ckpt", str(workdir / "run.ckpt"), "--data", str(workdir / "data.csv"),
            "--report", str(workdir / "eval.json"),
        ]) == 0
        train_report = load_report(workdir / "train.json")
        eval_report = load_report(workdir / "eval.json")
        assert eval_report["command"] == "eval"
        assert eval_report["final"] == train_report["final"]

    def test_eval_occupancy_keeps_an_empty_last_cluster(self, workdir):
        """occupancy has K entries, also when no point lands in cluster K."""
        ckpt = workdir / "run.ckpt"
        assert cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "data.csv"),
            "--out", str(ckpt),
        ]) == 0
        ds = load_dataset(workdir / "data.csv")
        labels, _ = evaluate(load_checkpoint(ckpt), ds)
        keep = labels < 3
        assert keep.any()
        save_dataset(Dataset(ds.points[keep], ds.truth[keep]), workdir / "part.csv")
        assert cli_main([
            "eval", "--ckpt", str(ckpt), "--data", str(workdir / "part.csv"),
            "--report", str(workdir / "eval.json"),
        ]) == 0
        occupancy = load_report(workdir / "eval.json")["final"]["occupancy"]
        assert occupancy == np.bincount(labels[keep], minlength=4)[1:].tolist()
        assert len(occupancy) == 3 and occupancy[-1] == 0

    def test_eval_entropy_is_the_model_helper(self, workdir):
        """The reported posterior entropy is entropy_mean of evaluate's posterior, bit for bit."""
        ckpt = workdir / "run.ckpt"
        assert cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "data.csv"),
            "--out", str(ckpt),
        ]) == 0
        assert cli_main([
            "eval", "--ckpt", str(ckpt), "--data", str(workdir / "data.csv"),
            "--report", str(workdir / "eval.json"),
        ]) == 0
        _, post = evaluate(load_checkpoint(ckpt), load_dataset(workdir / "data.csv"))
        reported = load_report(workdir / "eval.json")["final"]["posterior_entropy"]
        assert reported == entropy_mean(post)

    @pytest.mark.parametrize("which", ["skmeans", "two-stage"])
    def test_baselines(self, workdir, which):
        report_path = workdir / f"{which}.json"
        assert cli_main([
            "baseline", "--which", which, "--config", str(workdir / "config.txt"),
            "--data", str(workdir / "data.csv"), "--report", str(report_path),
        ]) == 0
        report = load_report(report_path)
        assert report["command"] == "baseline"
        assert report["final"]["which"] == which
        assert sum(report["final"]["occupancy"]) == 45

    def test_verify_subcommand(self, capsys):
        """Every check passes, and a passing run writes nothing to stderr."""
        assert cli_main(["verify", "--suite", "mmd"]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        out = captured.out.splitlines()
        assert all(line.startswith("[PASS] ") for line in out[:-1])
        checks = out[-1].split()[0]
        passed, total = checks.split("/")
        assert passed == total and int(total) >= 1

    @pytest.mark.parametrize("module", ["mice", "mice.cli"])
    def test_python_m_runs_the_cli(self, tmp_path, module):
        """`python -m mice` and `python -m mice.cli` run the command and exit 0."""
        (tmp_path / "spec.txt").write_text(SPEC_TEXT)
        env = dict(os.environ)
        src = str(Path(mice.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = tmp_path / "data.csv"
        run = subprocess.run(
            [sys.executable, "-m", module, "gen-data", "--spec", str(tmp_path / "spec.txt"),
             "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (run.returncode, run.stderr) == (0, "")
        expected = generate(SyntheticSpec(3, 6, 15, 20.0, seed=3))
        np.testing.assert_array_equal(load_dataset(out).points, expected.points)

    def test_usage_errors_exit_2(self, capsys):
        assert cli_main(["no-such-command"]) == 2
        assert cli_main(["train", "--config", "x"]) == 2  # missing --data
        capsys.readouterr()

    def test_runtime_errors_exit_1(self, workdir, capsys):
        code = cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "nope.csv"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_config_errors_exit_1(self, workdir, capsys):
        (workdir / "bad.txt").write_text("tau = -1\n")
        code = cli_main([
            "train", "--config", str(workdir / "bad.txt"), "--data", str(workdir / "data.csv"),
        ])
        assert code == 1
        assert "tau" in capsys.readouterr().err


class TestHostileInputCli:
    """Malformed input ends as exit 1 and a single `error:` line, not a traceback."""

    def one_error_line(self, capsys) -> str:
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        return lines[0]

    @pytest.fixture
    def ckpt(self, workdir):
        assert cli_main([
            "train", "--config", str(workdir / "config.txt"), "--data", str(workdir / "data.csv"),
            "--out", str(workdir / "run.ckpt"),
        ]) == 0
        return workdir / "run.ckpt"

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"dim_0,dim_1\n0.5,1\xff\n", "line 2: not valid UTF-8"),
            (b"dim_0,dim_1,truth\n0.5,1,99999999999999999999\n", "line 2: truth label"),
        ],
    )
    def test_eval_on_hostile_csv(self, workdir, ckpt, capsys, content, message):
        (workdir / "bad.csv").write_bytes(content)
        capsys.readouterr()
        assert cli_main(["eval", "--ckpt", str(ckpt), "--data", str(workdir / "bad.csv")]) == 1
        assert message in self.one_error_line(capsys)

    @pytest.mark.parametrize("which", ["skmeans", "two-stage"])
    def test_baseline_with_more_clusters_than_points(self, workdir, capsys, which):
        (workdir / "two.csv").write_text("dim_0,dim_1\n1.0,0.0\n0.0,1.0\n")
        capsys.readouterr()
        code = cli_main([
            "baseline", "--which", which, "--config", str(workdir / "config.txt"),
            "--data", str(workdir / "two.csv"),
        ])
        assert code == 1
        assert "need 1 <= K <= N, got K=3, N=2" in self.one_error_line(capsys)

    def test_train_with_retired_config_key(self, workdir, capsys):
        (workdir / "old.txt").write_text(CONFIG_TEXT + "detach_posterior = false\n")
        capsys.readouterr()
        code = cli_main([
            "train", "--config", str(workdir / "old.txt"), "--data", str(workdir / "data.csv"),
        ])
        assert code == 1
        assert "unknown config key 'detach_posterior'" in self.one_error_line(capsys)

    def test_train_with_negative_seed(self, workdir, capsys):
        (workdir / "neg.txt").write_text(CONFIG_TEXT.replace("seed = 2", "seed = -1"))
        capsys.readouterr()
        code = cli_main([
            "train", "--config", str(workdir / "neg.txt"), "--data", str(workdir / "data.csv"),
        ])
        assert code == 1
        assert "seed must be >= 0" in self.one_error_line(capsys)

    @pytest.mark.parametrize(
        "command, option",
        [(["train", "--data", "data.csv"], "--config"), (["gen-data", "--out", "out.csv"], "--spec")],
    )
    def test_non_utf8_key_value_file(self, workdir, capsys, command, option):
        (workdir / "bad.txt").write_bytes(b"tau = 0.5\xff\n")
        argv = [str(workdir / a) if a.endswith(".csv") else a for a in command]
        capsys.readouterr()
        assert cli_main(argv + [option, str(workdir / "bad.txt")]) == 1
        assert "not valid UTF-8 at byte 9" in self.one_error_line(capsys)

    @pytest.mark.parametrize(
        "keys, message",
        [
            (("concentration",), "missing spec key 'concentration'"),
            (("input_dim", "concentration"), "missing spec keys 'input_dim', 'concentration'"),
        ],
    )
    def test_gen_data_with_missing_spec_keys(self, workdir, capsys, keys, message):
        kept = [line for line in SPEC_TEXT.splitlines() if line.split()[0] not in keys]
        (workdir / "short.txt").write_text("\n".join(kept) + "\n")
        capsys.readouterr()
        code = cli_main(["gen-data", "--spec", str(workdir / "short.txt"), "--out", str(workdir / "o.csv")])
        assert code == 1
        line = self.one_error_line(capsys)
        assert line == f"error: {message}" and "__init__" not in line
        assert not (workdir / "o.csv").exists()

    @pytest.mark.parametrize("key", ["points_per_cluster", "num_clusters", "input_dim"])
    def test_gen_data_with_spec_too_large_for_memory(self, workdir, capsys, key):
        text = "\n".join(
            line for line in SPEC_TEXT.splitlines() if not line.startswith(key)
        ) + f"\n{key} = 100000000000\n"
        (workdir / "huge.txt").write_text(text)
        capsys.readouterr()
        code = cli_main(["gen-data", "--spec", str(workdir / "huge.txt"), "--out", str(workdir / "huge.csv")])
        assert code == 1
        assert "the spec needs more memory than is available" in self.one_error_line(capsys)
        assert not (workdir / "huge.csv").exists()

    @pytest.mark.parametrize("key", ["queue_size", "hidden_widths"])
    def test_train_with_config_too_large_for_memory(self, workdir, capsys, key):
        """Sizes far beyond any machine's memory fail to allocate in init_state."""
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith(key)
        ) + f"\n{key} = 100000000000\n"
        (workdir / "huge.txt").write_text(text)
        capsys.readouterr()
        code = cli_main([
            "train", "--config", str(workdir / "huge.txt"), "--data", str(workdir / "data.csv"),
        ])
        assert code == 1
        assert "needs more memory than is available" in self.one_error_line(capsys)

    @pytest.mark.parametrize("line", ["tau = 1e-300", "lr_initial = 1e300"])
    def test_train_with_a_numeric_blowup(self, tmp_path, capsys, line):
        """Valid but extreme floats overflow during training: one error line, not
        numpy's RuntimeWarnings first."""
        spec = "num_clusters = 4\ninput_dim = 16\npoints_per_cluster = 50\nconcentration = 50\n"
        (tmp_path / "spec.txt").write_text(spec)
        (tmp_path / "config.txt").write_text(f"epochs = 2\n{line}\n")
        data = str(tmp_path / "data.csv")
        assert cli_main(["gen-data", "--spec", str(tmp_path / "spec.txt"), "--out", data]) == 0
        capsys.readouterr()
        code = cli_main(["train", "--config", str(tmp_path / "config.txt"), "--data", data])
        assert code == 1
        assert "error: numeric failure: overflow encountered" in self.one_error_line(capsys)

    def test_train_with_widths_beyond_numpy_shapes(self, workdir, capsys):
        """Two widths of 1e11 make a weight shape numpy refuses with ValueError."""
        text = "\n".join(
            line for line in CONFIG_TEXT.splitlines() if not line.startswith("hidden_widths")
        ) + "\nhidden_widths = 100000000000, 100000000000\n"
        (workdir / "huge.txt").write_text(text)
        capsys.readouterr()
        code = cli_main([
            "train", "--config", str(workdir / "huge.txt"), "--data", str(workdir / "data.csv"),
        ])
        assert code == 1
        assert "Maximum allowed dimension exceeded" in self.one_error_line(capsys)
