import inspect
import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc
import warnings
import zlib
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from sngp import cli, gp_layer
from sngp.baselines import build_variant
from sngp.cli import (EXIT_DIVERGED, EXIT_INCOMPATIBLE, EXIT_OK, EXIT_USAGE,
                      EXIT_VERIFY_FAILED, LoadedModel, RunConfig, main, parse_run_config)
from sngp.data import (dataset_from_csv, dataset_to_csv, gen_two_moons, gen_two_ovals,
                       surface_from_csv)
from sngp.gp_layer import RffGpLayer, softmax
from sngp.nn import (ACTIVATIONS, DenseLayer, ResFfnNetwork, ResidualBlock, SgdMomentum,
                     build_res_ffn)
from sngp.train import (ModelSpec, TrainConfig, TrainingDivergedError, TrainReport,
                        _array_manifest, build_sngp_model, load_checkpoint, loss_and_grads,
                        predict_batch, save_checkpoint)

from headers import rewrite_header

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

FAST_CONFIG = """
# fast two-moons run for tests
variant = sngp
dataset = two_moons
n_per_class = 60
noise_sd = 0.05
data_seed = 7
hidden_width = 16
depth = 3
dropout_rate = 0.0
use_layer_norm = false
num_features = 64
epochs = 25
batch_size = 20
learning_rate = 0.05
momentum = 0.9
seed = 3
precision_exact = true
"""


# Config text: arbitrary text, or up to four lines of known keys and odd values.
CONFIG_TEXT = st.one_of(st.text(max_size=60), st.lists(st.tuples(
    st.sampled_from(list(RunConfig().echo()) + ["", "x"]),
    st.sampled_from(["=", " = ", "==", ""]),
    st.one_of(st.text(max_size=12), st.integers().map(str), st.floats().map(str),
              st.sampled_from(["true", "no", "sngp", "two_ovals", "nan", "-inf"]))),
    max_size=4).map(lambda kv: "\n".join("".join(t) for t in kv)))


def write_config(tmp_path, text=FAST_CONFIG, **overrides):
    # Each override replaces the key's line, since a config sets a key once.
    lines = [line for line in text.splitlines()
             if line.split("=", 1)[0].strip() not in overrides]
    text = "\n".join(lines + [f"{key} = {value}" for key, value in overrides.items()]) + "\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_when_empty(self):
        cfg = parse_run_config("")
        assert cfg == RunConfig() == parse_run_config(RunConfig().text())

    def test_comments_and_values(self):
        cfg = parse_run_config("epochs = 3  # quick\n# full-line comment\nseed=9\n")
        assert cfg.epochs == 3
        assert cfg.seed == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_run_config("warp_factor = 9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_run_config("epochs = banana\n")

    def test_bool_parsing(self):
        assert parse_run_config("use_layer_norm = false\n").use_layer_norm is False
        assert parse_run_config("precision_exact = TRUE\n").precision_exact is True

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError, match="variant"):
            parse_run_config("variant = mc_dropout\n")

    @pytest.mark.parametrize("key", ["spectral_norm", "gp_head", "identity_hidden",
                                     "input_dim", "num_classes"])
    def test_model_fields_set_elsewhere_are_not_keys(self, key):
        # The variant tag or the data sets these.
        with pytest.raises(ValueError, match=f"line 1: unknown key '{key}'"):
            parse_run_config(f"{key} = 1\n")

    def test_echo_keys_are_the_file_format(self):
        assert list(RunConfig().echo()) == [
            "variant", "dataset", "n_per_class", "noise_sd", "data_seed", "ensemble_size",
            "mc_samples", "hidden_width", "depth", "seed", "activation", "dropout_rate",
            "sn_bound", "num_features", "length_scale", "ridge_s", "discount_m",
            "use_layer_norm", "epochs", "batch_size", "learning_rate", "momentum", "l2_beta",
            "precision_exact"]

    def test_seed_sets_the_model_seed(self):
        cfg = parse_run_config("seed = 9\n")
        assert cfg.spec.seed == cfg.seed == cfg.echo()["seed"] == 9

    def test_each_key_has_one_owning_section(self):
        # A second declaration of a key, as the training seed once was, would
        # give one value two owners that could disagree.
        assert all(section in ("run", "spec", "train") for _, section in cli.CONFIG_KEYS.values())
        declared = [f.name for cls in (RunConfig, ModelSpec, TrainConfig) for f in fields(cls)
                    if f.name not in cli._NOT_KEYS]
        assert len(declared) == len(set(declared)) == len(cli.CONFIG_KEYS) == 24

    def test_layers_take_hyperparameters_without_defaults(self):
        # A default in a constructor would be a second owner of the value, one
        # that can disagree with the config section's default and skip its check.
        # The loss takes the L2 prior's data-size scale as given too, and
        # prediction its Monte Carlo sample count.
        owned = set(cli.CONFIG_KEYS) | {"l2_scale"}
        defaulted = [f"{fn.__qualname__}.{p.name}"
                     for fn in (RffGpLayer, build_res_ffn, DenseLayer, DenseLayer.zeros,
                                ResFfnNetwork, ResFfnNetwork.zeros, ResidualBlock, SgdMomentum,
                                gen_two_moons, gen_two_ovals, loss_and_grads, predict_batch)
                     for p in inspect.signature(fn).parameters.values()
                     if p.name in owned and p.default is not p.empty]
        assert defaulted == []
        # A training caller that leaves out the dropout stream must not lose dropout silently.
        assert inspect.signature(loss_and_grads).parameters["rng"].default is inspect.Parameter.empty

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ValueError, match="config line 3: key 'seed' is already set on line 1"):
            parse_run_config("seed = 1\nepochs = 2\nseed = 2\n")

    @pytest.mark.parametrize("line, message", [
        ("sn_bound = nan", "sn_bound must be positive, got nan"),
        ("momentum = 1", "momentum must lie in [0, 1), got 1.0"),
        ("ensemble_size = 0", "ensemble_size must be >= 1, got 0"),
        ("noise_sd = nan", "noise_sd must be >= 0, got nan"),
        ("num_features = 0", "num_features must be >= 1, got 0"),
        ("hidden_width = 0", "hidden_width must be >= 1, got 0"),
        ("depth = -1", "depth must be >= 0, got -1"),
        ("seed = -1", "seed must be >= 0, got -1"),
        ("data_seed = -1", "data_seed must be >= 0, got -1"),
        ("activation = foo", "activation must be one of ['linear', 'relu', 'tanh'], got 'foo'"),
        ("n_per_class = 0", "n_per_class must be >= 1, got 0"),
        ("length_scale = inf", "length_scale must be finite, got inf"),
        ("ridge_s = inf", "ridge_s must be finite, got inf"),
        ("sn_bound = inf", "sn_bound must be finite, got inf"),
        ("learning_rate = inf", "learning_rate must be finite, got inf"),
        ("l2_beta = inf", "l2_beta must be finite, got inf"),
        ("noise_sd = inf", "noise_sd must be finite, got inf")])
    def test_out_of_range_value_rejected_when_read(self, line, message):
        with pytest.raises(ValueError) as exc:
            parse_run_config(line + "\n")
        assert message in str(exc.value)

    @settings(max_examples=300, deadline=None)
    @given(text=CONFIG_TEXT)
    def test_random_config_text_parses_or_raises_value_error(self, text):
        try:
            cfg = parse_run_config(text)
        except ValueError:
            return
        assert parse_run_config(cfg.text()) == cfg  # as a checkpoint header stores it


class TestGenData:
    def test_writes_deterministic_csv(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = ["gen-data", "--dataset", "two_moons", "--n", "50", "--seed", "7"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()
        ds = dataset_from_csv(out1)
        assert len(ds.labels) == 100
        assert len(ds.ood_points) == 50

    def test_invalid_dataset_name_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gen-data", "--dataset", "spirals", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unwritable_path(self):
        code = main(["gen-data", "--dataset", "two_moons", "--out",
                     "/nonexistent-dir/x.csv"])
        assert code == EXIT_USAGE

    def test_nan_noise_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["gen-data", "--dataset", "two_moons", "--noise", "nan",
                     "--out", str(out)]) == EXIT_USAGE
        assert "noise_sd must be >= 0, got nan" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        capsys.readouterr()
        assert main(["gen-data", "--dataset", "two_moons", "--seed", "-1",
                     "--out", str(out)]) == EXIT_USAGE
        assert "data_seed must be >= 0, got -1" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_reproducible_checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        c1, c2 = tmp_path / "m1.ckpt", tmp_path / "m2.ckpt"
        assert main(["train", "--config", cfg, "--out", str(c1)]) == EXIT_OK
        assert main(["train", "--config", cfg, "--out", str(c2)]) == EXIT_OK
        assert c1.read_bytes() == c2.read_bytes()

    def test_report_echoes_hyperparameters(self, tmp_path):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        report = tmp_path / "report.txt"
        assert main(["train", "--config", cfg, "--out", str(ckpt),
                     "--report", str(report)]) == EXIT_OK
        text = report.read_text()
        for key in RunConfig().echo():
            assert f"config.{key}=" in text
        assert "final_train_accuracy=" in text

    def test_ensemble_report_echoes_config_once(self, tmp_path):
        cfg = write_config(tmp_path, variant="deep_ensemble", ensemble_size=2, epochs=2)
        report = tmp_path / "report.txt"
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt"),
                     "--report", str(report)]) == EXIT_OK
        lines = report.read_text().splitlines()
        echo = parse_run_config((tmp_path / "run.cfg").read_text()).echo().items()
        assert [l for l in lines if l.startswith("config.")] == [f"config.{k}={v}"
                                                                for k, v in echo]
        assert [l for l in lines if l.startswith("seed=")] == ["seed=3", "seed=4"]

    @staticmethod
    def assert_header_holds(path, cfg):
        assert path.read_bytes()[8:12] == np.uint32(4).tobytes()  # the format version
        _, header = load_checkpoint(str(path))
        assert sorted(header) == ["arrays", "config", "model", "payload_crc32"]
        assert parse_run_config(header["config"]) == cfg

    def test_default_checkpoint_header_holds_the_config_text(self, tmp_path, monkeypatch):
        # Saved untrained: the header is under test here, not the fit.
        monkeypatch.setattr(cli, "train", lambda model, points, labels, config: TrainReport())
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--out", str(ckpt)]) == EXIT_OK
        self.assert_header_holds(ckpt, RunConfig())

    def test_ensemble_member_headers_hold_the_config_text(self, tmp_path):
        cfg = write_config(tmp_path, variant="deep_ensemble", ensemble_size=2, epochs=2)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")]) == EXIT_OK
        for i in range(2):
            self.assert_header_holds(tmp_path / f"m.ckpt.member{i}",
                                     parse_run_config((tmp_path / "run.cfg").read_text()))

    def test_epochs_zero_keeps_initial_weights(self, tmp_path):
        cfg = write_config(tmp_path, epochs=0)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        from sngp.train import load_checkpoint
        model, _ = load_checkpoint(ckpt)
        assert np.array_equal(model.head.beta, np.zeros_like(model.head.beta))

    @pytest.mark.parametrize("key", ["sn_bound", "length_scale", "learning_rate"])
    def test_nan_hyperparameter_exits_2(self, tmp_path, key, capsys):
        cfg = write_config(tmp_path, **{key: "nan"})
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_USAGE
        assert f"{key} must be positive" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("key, value", [("l2_beta", "nan"), ("l2_beta", "-1"),
                                            ("noise_sd", "nan")])
    def test_negative_or_nan_nonnegative_value_exits_2(self, tmp_path, key, value, capsys):
        cfg = write_config(tmp_path, **{key: value})
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_USAGE
        assert f"{key} must be >= 0, got {float(value)!r}" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_zero_discount_exits_2_naming_the_key(self, tmp_path, capsys):
        # A zero discount would keep only the last minibatch's rank-deficient
        # Fisher term, so every prediction from the checkpoint would fail.
        cfg = write_config(tmp_path, discount_m=0)
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_USAGE
        assert "discount_m must lie in (0, 1), got 0.0" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_zero_mc_samples_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, mc_samples=0)
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_USAGE
        assert "mc_samples must be >= 1, got 0" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("variant, base", [("sngp", ""), ("sngp", FAST_CONFIG),
                                               ("dnn_sn", FAST_CONFIG)],
                             ids=["sngp-default", "sngp-fast", "dnn_sn-fast"])
    def test_overflowing_training_rows_exit_3(self, tmp_path, variant, base, capsys):
        # Every row overflows the network, so the first step diverges; the
        # default size has layer norm, the fast config has none.
        cfg = write_config(tmp_path, base, variant=variant, noise_sd="1e307")
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", cfg, "--out", str(ckpt)])
        assert code == EXIT_DIVERGED
        assert "at epoch 0 step 0" in capsys.readouterr().err
        assert not ckpt.exists()

    @pytest.mark.parametrize("noise_sd", ["1e300", "1e200"])
    def test_overflowing_spectral_norm_exits_3(self, tmp_path, noise_sd, capsys):
        # Without layer norm the first step's logits are finite, but its
        # gradients near the float64 limit make the next weight's norm overflow.
        cfg = write_config(tmp_path, noise_sd=noise_sd)
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", cfg, "--out", str(ckpt)])
        assert code == EXIT_DIVERGED
        assert ("spectral normalization: overflow encountered in dot at epoch 0 step 1"
                in capsys.readouterr().err)
        assert not ckpt.exists()

    @pytest.mark.parametrize("exact, when", [("false", "at epoch 0 step 1"),
                                             ("true", "after the last step")],
                             ids=["minibatch", "exact"])
    def test_overflow_met_by_the_precision_update_exits_3(self, tmp_path, exact, when, capsys):
        # Step 1's loss is finite, but its update overflows the input projection,
        # which the spectral norm leaves unbounded, so the final epoch's precision
        # update is the first to meet a non-finite row; with the exact precision
        # that is the evaluation pass after the last step.
        cfg = write_config(tmp_path, "variant = sngp\nepochs = 1\nlearning_rate = 1e-100\n"
                           "noise_sd = 1e300\nhidden_width = 8\ndepth = 2\nnum_features = 32\n"
                           f"n_per_class = 20\nprecision_exact = {exact}\n")
        ckpt = tmp_path / "m.ckpt"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--config", cfg, "--out", str(ckpt)])
        assert code == EXIT_DIVERGED
        err = capsys.readouterr().err
        row = re.fullmatch(r"error: training diverged: dataset row (\d+): hidden features are "
                           rf"not finite {when}\n", err)
        assert row is not None, err
        assert 0 <= int(row.group(1)) < 40
        assert not ckpt.exists()

    def test_out_of_memory_exits_2(self, tmp_path):
        # A ridge of 3e6 x 3e6 floats cannot be allocated; the child's address
        # space is capped, so the allocation fails at once instead of paging.
        cfg = write_config(tmp_path, "variant = shallow_gp\nnum_features = 3000000\nepochs = 1\n")
        ckpt = tmp_path / "m.ckpt"
        env = dict(os.environ, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS="1")
        limit = 3 << 30
        proc = subprocess.run(
            [sys.executable, "-m", "sngp.cli", "train", "--config", cfg, "--out", str(ckpt)],
            env=env, capture_output=True, text=True, timeout=120,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.startswith("error: out of memory: ")
        assert "Traceback" not in proc.stderr
        assert not ckpt.exists()

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(tmp_path, learning_rate=1e9, epochs=3)
        assert main(["train", "--config", cfg, "--out", str(tmp_path / "m.ckpt")]) \
            == EXIT_DIVERGED


class TestSurfaceCommand:
    @pytest.fixture()
    def checkpoint(self, tmp_path):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        return ckpt

    def test_grid_row_count_and_pgm(self, tmp_path, checkpoint):
        out = tmp_path / "surf.csv"
        pgm = tmp_path / "surf.pgm"
        assert main(["surface", "--checkpoint", str(checkpoint), "--grid=-2,3,-2,3,20,20", "--metric", "variance", "--out", str(out),
                     "--pgm", str(pgm)]) == EXIT_OK
        pts, vals = surface_from_csv(out)
        assert pts.shape == (400, 2)
        assert np.all(vals >= 0.0)
        assert pgm.read_text().startswith("P2")

    def test_margin_metric_in_unit_interval(self, tmp_path, checkpoint):
        out = tmp_path / "margin.csv"
        assert main(["surface", "--checkpoint", str(checkpoint), "--grid=-2,3,-2,3,10,10", "--metric", "margin", "--out", str(out)]) == EXIT_OK
        _, vals = surface_from_csv(out)
        assert np.all((0.0 <= vals) & (vals <= 1.0))

    def test_ds_metric_on_deterministic_model(self, tmp_path):
        cfg = write_config(tmp_path, variant="deterministic")
        ckpt = tmp_path / "det.ckpt"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        out = tmp_path / "ds.csv"
        assert main(["surface", "--checkpoint", str(ckpt), "--grid=-1,1,-1,1,5,5",
                     "--metric", "ds", "--out", str(out)]) == EXIT_OK
        _, vals = surface_from_csv(out)
        assert np.all((0.0 < vals) & (vals < 1.0))

    def test_variance_on_dense_head_exits_4(self, tmp_path):
        cfg = write_config(tmp_path, variant="deterministic")
        ckpt = tmp_path / "det.ckpt"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        code = main(["surface", "--checkpoint", str(ckpt), "--grid=-1,1,-1,1,5,5",
                     "--metric", "variance", "--out", str(tmp_path / "v.csv")])
        assert code == EXIT_INCOMPATIBLE

    @pytest.mark.parametrize("grid, axis", [("-inf,inf,0,1,5,5", "x1"),
                                            ("-1e308,1e308,0,1,5,5", "x1"),
                                            ("0,1,-inf,0,5,5", "x2")])
    def test_unbounded_grid_exits_2_naming_the_axis(self, tmp_path, checkpoint, grid, axis,
                                                   capsys):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["surface", "--checkpoint", str(checkpoint), f"--grid={grid}",
                         "--metric", "variance", "--out", str(tmp_path / "v.csv")])
        assert code == EXIT_USAGE
        assert f"grid {axis} bounds must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [np.inf, 1e300])
    def test_precision_not_spd_exits_2(self, tmp_path, checkpoint, value, capsys):
        # Saved again, so the payload CRC matches the damaged precision.
        model, header = load_checkpoint(str(checkpoint))
        precision = model.head.precision[0]
        precision[40, 3] = precision[3, 40] = value  # in the off-diagonal block
        save_checkpoint(model, str(checkpoint), header["config"])
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["surface", "--checkpoint", str(checkpoint), "--grid=-1,1,-1,1,5,5",
                         "--metric", "variance", "--out", str(tmp_path / "v.csv")])
        assert code == EXIT_USAGE
        assert "precision matrix lost positive definiteness" in capsys.readouterr().err


def rewrite_bytes(path, edit):
    path.write_bytes(edit(path.read_bytes()))


def with_header_bytes(raw, header_bytes):
    """A checkpoint's bytes with its header replaced by ``header_bytes``."""
    header_len = int(np.frombuffer(raw[12:16], dtype="<u4")[0])
    return (raw[:12] + np.uint32(len(header_bytes)).tobytes() + header_bytes
            + raw[16 + header_len:])


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=8)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=8), inner, max_size=3)),
    max_leaves=8)


class TestEvalCommand:
    def test_eval_reports_metrics(self, tmp_path):
        cfg = write_config(tmp_path)
        ckpt = tmp_path / "m.ckpt"
        data_csv = tmp_path / "data.csv"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        assert main(["gen-data", "--dataset", "two_moons", "--n", "60", "--seed", "7",
                     "--noise", "0.05", "--out", str(data_csv)]) == EXIT_OK
        report = tmp_path / "eval.txt"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(report)]) == EXIT_OK
        text = report.read_text()
        for key in ("accuracy=", "ece=", "nll=", "brier=", "auroc=", "aupr="):
            assert key in text
        acc = float([l for l in text.splitlines() if l.startswith("accuracy=")][0]
                    .split("=")[1])
        assert acc == 1.0  # training data of a converged model

    def test_label_beyond_class_count_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, epochs=1)
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        data_csv = tmp_path / "data.csv"
        data_csv.write_text("x1,x2,label\n0.1,0.2,0\n0.3,0.4,2\n0.5,0.6,1\n")
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        assert "label 2 is out of range" in capsys.readouterr().err

    def test_mc_samples_read_from_checkpoint_config(self, tmp_path):
        from sngp.cli import LoadedModel
        from sngp.linalg import RngState
        from sngp.train import build_sngp_model, predict_batch
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", write_config(tmp_path, epochs=1, mc_samples=3),
                     "--out", str(ckpt)]) == EXIT_OK
        loaded = LoadedModel.from_checkpoints([str(ckpt)])
        x = np.array([[0.1, 0.2], [3.0, 3.0]])
        expected = predict_batch(loaded.models[0], x, mc_samples=3,
                                 rng=RngState(3).derive("mc"))  # FAST_CONFIG's seed
        assert np.array_equal(loaded.predict(x).probs, expected.probs)
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(build_sngp_model(ModelSpec(input_dim=2, hidden_width=8, depth=1,
                                                   num_classes=2, seed=0, num_features=16,
                                                   dropout_rate=0.0)), str(bare))
        assert LoadedModel.from_checkpoints([str(bare)]).cfg == RunConfig()  # mc_samples 10

    def test_echo_holds_the_model_keys_of_the_checkpoint(self, tmp_path, capsys):
        # A checkpoint saved from Python has no config text; its model's keys
        # are echoed all the same, and a dnn_gp's use_layer_norm is its own.
        spec = ModelSpec(hidden_width=8, depth=2, num_features=32, seed=5)
        ckpts = {tag: str(tmp_path / f"{tag}.ckpt") for tag in ("sngp", "dnn_gp")}
        for tag, path in ckpts.items():
            save_checkpoint(build_variant(tag, spec), path)
        data_csv = str(tmp_path / "data.csv")
        assert main(["gen-data", "--dataset", "two_moons", "--n", "20",
                     "--out", data_csv]) == EXIT_OK
        capsys.readouterr()
        assert main(["eval", "--checkpoint", ckpts["sngp"], "--data", data_csv]) == EXIT_OK
        echo = capsys.readouterr().out.splitlines()
        for line in ("config.hidden_width=8", "config.depth=2", "config.num_features=32",
                     "config.seed=5", "config.use_layer_norm=False", "config.mc_samples=10"):
            assert line in echo
        surface = tmp_path / "surface.csv"
        assert main(["surface", "--checkpoint", ckpts["dnn_gp"], "--grid=-1,1,-1,1,2,2",
                     "--metric", "variance", "--out", str(surface)]) == EXIT_OK
        assert "# config.use_layer_norm=True" in surface.read_text().splitlines()

    @pytest.fixture()
    def eval_inputs(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", write_config(tmp_path, epochs=1),
                     "--out", str(ckpt)]) == EXIT_OK
        data_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", "two_moons", "--n", "20",
                     "--out", str(data_csv)]) == EXIT_OK
        return ckpt, data_csv

    @pytest.mark.parametrize("rows", [
        "5,5,-1\n6,6,-1\n", "5,5,0\n6,6,1\n", "0.1,0.2,0\n5,5,-1\n0.3,0.4,1\n6,6,-1\n"],
        ids=["ood_only", "labelled_only", "mixed"])
    def test_ood_data_replaces_the_ood_rows_of_data(self, eval_inputs, rows, capsys):
        # Its -1 rows are the OOD points, or all its rows if it has none: each
        # form scores as --data holding (5, 5) and (6, 6) as its -1 rows.
        ckpt, data_csv = eval_inputs
        ood_csv, joined_csv = data_csv.parent / "ood.csv", data_csv.parent / "joined.csv"
        ood_csv.write_text("x1,x2,label\n" + rows)
        ds = dataset_from_csv(str(data_csv))
        dataset_to_csv(replace(ds, ood_points=np.array([[5.0, 5.0], [6.0, 6.0]])),
                       str(joined_csv))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--ood-data", str(ood_csv)]) == EXIT_OK
        report = capsys.readouterr().out
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(joined_csv)]) == EXIT_OK
        assert "auroc=" in report and report == capsys.readouterr().out

    def test_a_file_without_rows_to_score_exits_2_naming_it(self, eval_inputs, capsys):
        ckpt, data_csv = eval_inputs
        ood_csv, empty_csv = data_csv.parent / "ood.csv", data_csv.parent / "empty.csv"
        ood_csv.write_text("x1,x2,label\n5,5,-1\n6,6,-1\n")
        empty_csv.write_text("x1,x2,label\n")
        for argv, message in ((["--data", str(ood_csv)], f"{ood_csv}: no labeled rows found"),
                              (["--data", str(data_csv), "--ood-data", str(empty_csv)],
                               f"{empty_csv}: no rows found")):
            capsys.readouterr()
            assert main(["eval", "--checkpoint", str(ckpt), *argv]) == EXIT_USAGE
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("edit", ["trailing", "truncated"])
    def test_payload_length_mismatch_exits_2(self, eval_inputs, edit, capsys):
        ckpt, data_csv = eval_inputs
        raw = ckpt.read_bytes()
        ckpt.write_bytes(raw + bytes(8) if edit == "trailing" else raw[:-12])
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        expected = len(raw) - 16 - int(np.frombuffer(raw[12:16], dtype="<u4")[0])
        actual = expected + 8 if edit == "trailing" else expected - 12
        assert f"payload is {actual} bytes, its manifest needs {expected}" in capsys.readouterr().err

    def test_invalid_header_hyperparameter_exits_2(self, eval_inputs, capsys):
        ckpt, data_csv = eval_inputs
        rewrite_header(ckpt, lambda h: h["model"].update(length_scale=-1.0))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        assert "length_scale must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda c: rewrite_header(c, lambda h: h.pop("model")), "malformed checkpoint header"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(depth="12")),
         "malformed checkpoint header"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(use_layer_norm="false")),
         "ModelSpec.use_layer_norm must be bool"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(length_scale=float("nan"))),
         "length_scale must be positive"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(ridge_s=float("nan"))),
         "ridge_s must be positive"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(ridge_s=float("inf"))),
         "ridge_s must be finite, got inf"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(length_scale=10**400)),
         "length_scale must be finite, got 1000"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(sn_bound=-1.0)),
         "sn_bound must be positive"),
        (lambda c: rewrite_header(c, lambda h: h["model"].update(seed=-1)),
         "seed must be >= 0, got -1"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:10]), "not a checkpoint file (10 bytes"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:-100] + bytes([raw[-100] ^ 1]) + raw[-99:]),
         "payload CRC-32"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:8] + np.uint32(1).tobytes() + raw[12:]),
         "unsupported checkpoint version 1"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:8] + np.uint32(2).tobytes() + raw[12:]),
         "unsupported checkpoint version 2"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:8] + np.uint32(3).tobytes() + raw[12:]),
         "unsupported checkpoint version 3"),
        (lambda c: rewrite_header(c, lambda h: h["arrays"][0].__setitem__(1, [1e308, 10])),
         "does not match the header's model"),
        (lambda c: rewrite_header(c, lambda h: h["arrays"][0].__setitem__(1, [float("inf")])),
         "does not match the header's model"),
        (lambda c: rewrite_header(c, lambda h: h["arrays"].pop()),
         "checkpoint array (none) does not match the header's model, which expects ['head."),
        (lambda c: rewrite_bytes(c, lambda raw: with_header_bytes(raw, b"[" * 100_000)),
         "malformed checkpoint header: RecursionError"),
        (lambda c: rewrite_header(c, lambda h: h.pop("config")),
         "checkpoint config must be text, got NoneType"),
        (lambda c: rewrite_header(c, lambda h: h.update(config=[1, 2])),
         "checkpoint config must be text, got list"),
        (lambda c: rewrite_header(c, lambda h: h.update(
            config={"seed": "x\naccuracy=1.0", "no_such_key": 5})),
         "checkpoint config must be text, got dict"),
        (lambda c: rewrite_header(c, lambda h: h.update(config="mc_samples = [3]\n")),
         "config line 1: invalid literal for int() with base 10: '[3]'"),
    ], ids=["no_model", "string_depth", "string_layer_norm", "nan_length_scale", "nan_ridge_s",
            "infinite_ridge_s", "huge_int_length_scale", "negative_sn_bound", "negative_seed",
            "10_bytes", "flipped_payload_bit", "version_1", "version_2", "version_3",
            "huge_manifest_shape", "infinite_manifest_shape", "short_manifest",
            "deeply_nested_header", "no_config", "list_config", "forged_object_config",
            "list_mc_samples"])
    def test_damaged_checkpoint_exits_2(self, eval_inputs, damage, message, capsys):
        ckpt, data_csv = eval_inputs
        damage(ckpt)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

    def test_per_class_precision_checkpoint_exits_2(self, eval_inputs, capsys):
        # A well-formed version-4 file of a K = 3 head with one precision per
        # class, as such heads were once saved: its manifest names three.
        _, data_csv = eval_inputs
        spec = ModelSpec(num_classes=3, hidden_width=8, depth=2, num_features=16)
        arrays = []
        for name, arr in _array_manifest(build_sngp_model(spec)):
            if name == "head.precision0":
                arrays += [(f"head.precision{k}", arr) for k in range(3)]
            elif not name.startswith("head.precision"):
                arrays.append((name, arr))
        payload = b"".join(np.ascontiguousarray(arr, dtype="<f8").tobytes() for _, arr in arrays)
        header = json.dumps({"config": "seed = 1\n", "model": asdict(spec),
                             "arrays": [[name, list(arr.shape)] for name, arr in arrays],
                             "payload_crc32": zlib.crc32(payload)}).encode("utf-8")
        ckpt = data_csv.parent / "per_class.ckpt"
        ckpt.write_bytes(b"SNGPCKPT" + np.uint32(4).tobytes() + np.uint32(len(header)).tobytes()
                         + header + payload)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert ("checkpoint array ['head.precision1', [16, 16]] does not match the header's "
                "model, which expects no more arrays") in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("config", [
        "mc_samples = 0\n", "variant = foo\n", "seed = 3\nno_such_key = 5\n",
        "variant = sngp\naccuracy=1.0\n", "seed = 3\nseed = 4\n", "n_per_class = 0\n",
        "sn_bound = inf\n"],
        ids=["zero_mc_samples", "unknown_variant", "unknown_key", "forged_accuracy_line",
             "repeated_key", "zero_n_per_class", "infinite_sn_bound"])
    def test_header_config_is_read_as_a_config_file(self, eval_inputs, config, capsys):
        # The same text in a config file and in a checkpoint header fails alike,
        # so no header value reaches a report unchecked; the header's error
        # also names the checkpoint.
        ckpt, data_csv = eval_inputs
        (ckpt.parent / "bad.cfg").write_text(config)
        capsys.readouterr()
        assert main(["train", "--config", str(ckpt.parent / "bad.cfg"),
                     "--out", str(ckpt.parent / "unused.ckpt")]) == EXIT_USAGE
        from_file = capsys.readouterr().err
        rewrite_header(ckpt, lambda h: h.update(config=config))
        report = ckpt.parent / "eval.txt"
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(report)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert from_file.startswith("error: ")
        assert captured.err == f"error: {ckpt}: " + from_file[len("error: "):]
        assert captured.out == "" and not report.exists()

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(edits=st.lists(st.one_of(
        st.tuples(st.sampled_from(["arrays", "config"]), JSON_VALUES),
        st.tuples(st.just("config"), CONFIG_TEXT)),
        min_size=1, max_size=3))
    def test_fuzzed_header_loads_or_raises_value_error(self, eval_inputs, edits):
        # The CRC covers the payload only, so the edited header keeps it valid.
        ckpt, _ = eval_inputs
        path = ckpt.parent / "fuzz.ckpt"
        path.write_bytes(ckpt.read_bytes())
        rewrite_header(path, lambda h: h.update(edits))
        try:
            LoadedModel.from_checkpoints([str(path)])
        except ValueError:
            pass

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_fuzzed_checkpoint_bytes_exit_2(self, eval_inputs, data, capsys):
        # Damage to the preamble or the payload; the header's JSON is fuzzed above.
        ckpt, data_csv = eval_inputs
        raw = ckpt.read_bytes()
        payload_start = 16 + int(np.frombuffer(raw[12:16], dtype="<u4")[0])
        damage = data.draw(st.sampled_from(["flip", "truncate", "extend"]))
        if damage == "flip":
            where = st.one_of(st.integers(0, 15), st.integers(payload_start, len(raw) - 1))
            damaged = bytearray(raw)
            for i, mask in data.draw(st.dictionaries(where, st.integers(1, 255),
                                                     min_size=1, max_size=4)).items():
                damaged[i] ^= mask
        elif damage == "truncate":
            damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
        else:
            damaged = raw + data.draw(st.binary(min_size=1, max_size=64))
        path = ckpt.parent / "fuzz.ckpt"
        path.write_bytes(bytes(damaged))
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(path), "--data", str(data_csv)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE, err
        assert err.startswith("error: ") and err.count("\n") == 1, err

    @pytest.mark.parametrize("magnitude", ["1e155", "1e300", "1e306"])
    def test_overflowing_hidden_row_exits_2(self, tmp_path, magnitude, capsys):
        ckpt = tmp_path / "m.ckpt"
        cfg = write_config(tmp_path, epochs=1, use_layer_norm="true")
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(f"x1,x2,label\n0.1,0.2,0\n{magnitude},{magnitude},1\n0.5,0.6,1\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)])
        assert code == EXIT_USAGE
        assert "row 1: layer-norm variance of the hidden features is not finite" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("variant, magnitude, reason", [
        ("sngp", "1e307", "mean logits are"), ("sngp", "1e308", "hidden features are"),
        ("dnn_sn", "1e308", "hidden features are")])
    def test_overflowing_network_row_exits_2(self, tmp_path, variant, magnitude, reason,
                                             capsys):
        # Without layer norm nothing bounds the features, so the overflow is
        # caught in the network's output or in the logits, for either head.
        ckpt = tmp_path / "m.ckpt"
        cfg = write_config(tmp_path, epochs=1, variant=variant)
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        data_csv = tmp_path / "data.csv"
        data_csv.write_text(f"x1,x2,label\n0.1,0.2,0\n{magnitude},{magnitude},1\n0.5,0.6,1\n")
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)])
        assert code == EXIT_USAGE
        assert f"row 1: {reason} not finite" in capsys.readouterr().err

    def test_missing_checkpoint_exits_2(self, tmp_path):
        code = main(["eval", "--checkpoint", str(tmp_path / "none.ckpt"),
                     "--data", str(tmp_path / "none.csv")])
        assert code == EXIT_USAGE


class TestLoadedModel:
    """A ``LoadedModel`` only predicts, so a single GP head's precision becomes
    its covariance in place at the first prediction, and an ensemble's GP-head
    members drop theirs as they are loaded."""

    def test_predicting_holds_less_than_one_more_matrix(self, tmp_path):
        # A default-size model: D = 1024, so one D x D matrix is 8 MiB.
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(build_variant("sngp", RunConfig().spec), str(ckpt))
        loaded = LoadedModel.from_checkpoints([str(ckpt)])
        x = np.random.default_rng(0).uniform(-2.0, 3.0, size=(256, 2))
        tracemalloc.start()
        try:
            loaded.predict(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 1024 * 1024

    def test_gp_head_is_released_and_cannot_be_saved(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", write_config(tmp_path, epochs=1),
                     "--out", str(ckpt)]) == EXIT_OK
        loaded = LoadedModel.from_checkpoints([str(ckpt)])
        x = np.array([[0.1, 0.2], [3.0, 3.0]])
        first = loaded.predict(x)
        with pytest.raises(ValueError, match="holds only its posterior covariance"):
            save_checkpoint(loaded.models[0], str(tmp_path / "again.ckpt"))
        assert not (tmp_path / "again.ckpt").exists()
        fresh = LoadedModel.from_checkpoints([str(ckpt)])
        assert np.array_equal(fresh.predict(x).variance_logits, first.variance_logits)

    @staticmethod
    def saved(tmp_path, variants: list[str]) -> list[str]:
        spec = ModelSpec(hidden_width=8, depth=1, num_features=16, dropout_rate=0.0)
        paths = []
        for i, tag in enumerate(variants):
            paths.append(str(tmp_path / f"m{i}.ckpt"))
            save_checkpoint(build_variant(tag, replace(spec, seed=i)), paths[-1])
        return paths

    def test_dense_head_is_untouched(self, tmp_path):
        [path] = self.saved(tmp_path, ["dnn_sn"])
        loaded = LoadedModel.from_checkpoints([path])
        loaded.predict(np.array([[0.1, 0.2], [3.0, 3.0]]))
        save_checkpoint(loaded.models[0], str(tmp_path / "again.ckpt"))
        assert (tmp_path / "again.ckpt").read_bytes() == open(path, "rb").read()

    def test_ensemble_load_holds_one_precision_at_a_time(self, tmp_path):
        # Two default GP-head members: each payload is ≈10.6 MiB, 8 MiB of it
        # the precision, which is dropped before the next member is read.
        paths = [str(tmp_path / f"m{seed}.ckpt") for seed in (0, 1)]
        for seed, path in enumerate(paths):
            save_checkpoint(build_sngp_model(ModelSpec(seed=seed)), path)
        tracemalloc.start()
        try:
            loaded = LoadedModel.from_checkpoints(paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20
        assert all(m.head._posterior is None for m in loaded.models)

    def test_ensemble_members_hold_no_precision(self, tmp_path):
        # An ensemble predicts from its members' mean logits, so no member keeps
        # its D x D precision, and none can train, report variances or be saved.
        paths = self.saved(tmp_path, ["sngp", "sngp"])
        loaded = LoadedModel.from_checkpoints(paths)
        x = np.array([[0.1, 0.2], [3.0, 3.0]])
        singles = [load_checkpoint(p)[0] for p in paths]
        expected = np.mean([softmax(m.eval_logits(x)) for m in singles], axis=0)
        assert np.array_equal(loaded.predict(x).probs, expected)
        phi = np.zeros((1, 16))
        for model in loaded.models:
            head = model.head
            assert head._posterior is None
            for action in (lambda: head.predictive_variance_batch(phi),
                           lambda: head.update_precision_exact(phi, np.full((1, 2), 0.5)),
                           head.reset_precision,
                           lambda: save_checkpoint(model, str(tmp_path / "again.ckpt"))):
                with pytest.raises(ValueError, match="holds neither its precision nor its "
                                                     "covariance"):
                    action()
        assert not (tmp_path / "again.ckpt").exists()


class TestVerifyCommand:
    def test_theory_suite_passes(self, capsys):
        assert main(["verify", "--suite", "theory"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "minimax" in out

    def test_lipschitz_suite_passes(self):
        assert main(["verify", "--suite", "lipschitz"]) == EXIT_OK

    def test_kernel_suite_passes(self, capsys):
        assert main(["verify", "--suite", "kernel"]) == EXIT_OK
        assert "[PASS] kernel.half_angle_cos_sin" in capsys.readouterr().out

    def test_kernel_suite_fails_on_an_inaccurate_cos_sin(self, monkeypatch, capsys):
        # Single-precision cosine and sine pass the RBF check but not the libm one.
        def single(half_z):
            z = 2.0 * half_z
            return tuple(f(z).astype(np.float32).astype(np.float64) for f in (np.cos, np.sin))
        monkeypatch.setattr(gp_layer, "half_angle_cos_sin", single)
        assert main(["verify", "--suite", "kernel"]) == EXIT_VERIFY_FAILED
        captured = capsys.readouterr()
        assert "[FAIL] kernel.half_angle_cos_sin" in captured.out
        assert "error: verification failed: half-angle cos/sin off libm" in captured.err


class TestCompareCommand:
    def test_two_variant_table(self, tmp_path):
        cfg = write_config(tmp_path, ensemble_size=2)
        out = tmp_path / "table.csv"
        assert main(["compare", "--variants", "sngp,deep_ensemble", "--config", cfg,
                     "--out", str(out)]) == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "variant,accuracy,ece,nll,brier,auroc,aupr"
        assert len(lines) == 3
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[0] in ("sngp", "deep_ensemble")
            values = [float(c) for c in cells[1:]]
            assert all(np.isfinite(values))

    def test_row_does_not_depend_on_earlier_variants(self, tmp_path):
        cfg = write_config(tmp_path, epochs=3)
        tables = []
        for variants in ("sngp,dnn_gp", "dnn_gp"):
            out = tmp_path / f"{variants}.csv"
            assert main(["compare", "--variants", variants, "--config", cfg,
                         "--out", str(out)]) == EXIT_OK
            tables.append(out.read_text().splitlines())
        assert tables[0][-1].startswith("dnn_gp,")
        assert tables[0][-1] == tables[1][-1]

    def test_divergence_keeps_the_rows_already_trained(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, epochs=3)
        alone = tmp_path / "alone.csv"
        assert main(["compare", "--variants", "sngp", "--config", cfg,
                     "--out", str(alone)]) == EXIT_OK
        train_variant = cli._train_variant

        def diverge_dnn_gp(tag, cfg, ds):
            if tag == "dnn_gp":
                raise TrainingDivergedError("loss 1e9 at epoch 0 step 4")
            return train_variant(tag, cfg, ds)

        monkeypatch.setattr(cli, "_train_variant", diverge_dnn_gp)
        out = tmp_path / "table.csv"
        capsys.readouterr()
        assert main(["compare", "--variants", "sngp,dnn_gp,dnn_sn", "--config", cfg,
                     "--out", str(out)]) == EXIT_DIVERGED
        assert "variant dnn_gp: loss 1e9 at epoch 0 step 4" in capsys.readouterr().err
        assert out.read_text() == alone.read_text()
        first = tmp_path / "first.csv"
        assert main(["compare", "--variants", "dnn_gp,sngp", "--config", cfg,
                     "--out", str(first)]) == EXIT_DIVERGED
        assert not first.exists()  # no variant trained, so there is no table

    def test_unknown_variant_exits_2(self, tmp_path):
        code = main(["compare", "--variants", "sngp,bogus", "--out",
                     str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("variants", ["", " , "])
    def test_no_variant_exits_2_before_any_data(self, tmp_path, monkeypatch, variants, capsys):
        monkeypatch.setattr(cli, "_make_dataset", None)  # no data may be made
        monkeypatch.setattr(cli, "_train_variant", None)
        out = tmp_path / "table.csv"
        capsys.readouterr()
        assert main(["compare", "--variants", variants, "--out", str(out)]) == EXIT_USAGE
        assert f"--variants names no variant, got {variants!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_ensemble_exits_2_before_training(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path, ensemble_size=0)
        monkeypatch.setattr(cli, "_train_variant", None)  # nothing may train
        out = tmp_path / "table.csv"
        capsys.readouterr()
        assert main(["compare", "--variants", "sngp,deep_ensemble", "--config", cfg,
                     "--out", str(out)]) == EXIT_USAGE
        assert "ensemble_size must be >= 1, got 0" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_activation_exits_2_without_a_network(self, tmp_path, capsys):
        # shallow_gp builds no network, yet its row would echo the config's activation.
        cfg = write_config(tmp_path, activation="foo")
        out = tmp_path / "table.csv"
        capsys.readouterr()
        assert main(["compare", "--variants", "shallow_gp", "--config", cfg,
                     "--out", str(out)]) == EXIT_USAGE
        assert "activation must be one of" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_of_trained_checkpoint_reproduces_compare_row(self, tmp_path):
        # One Monte Carlo stream, seeded by the run's seed, serves both paths.
        cfg = write_config(tmp_path, epochs=5)
        table, ckpt = tmp_path / "table.csv", tmp_path / "m.ckpt"
        data_csv, report = tmp_path / "data.csv", tmp_path / "eval.txt"
        assert main(["compare", "--variants", "sngp", "--config", cfg,
                     "--out", str(table)]) == EXIT_OK
        assert main(["train", "--config", cfg, "--out", str(ckpt)]) == EXIT_OK
        assert main(["gen-data", "--dataset", "two_moons", "--n", "60", "--noise", "0.05",
                     "--seed", "7", "--out", str(data_csv)]) == EXIT_OK
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv),
                     "--out", str(report)]) == EXIT_OK
        header, row = [l.split(",") for l in table.read_text().splitlines()
                       if not l.startswith("#")]
        evaluated = dict(l.split("=", 1) for l in report.read_text().splitlines())
        assert {c: evaluated[c] for c in header[1:]} == dict(zip(header[1:], row[1:]))


# The hostile-input property: a tiny base config with one to three keys drawn
# from their accepted ranges, each range's edges drawn as often as its inside.
# Size keys stay within a few times the base, since nothing bounds the bytes
# a size asks for.  A deeper run for a change to input handling:
#   HOSTILE_EXAMPLES=8000 PYTHONPATH=src python -m pytest -q tests/test_cli.py -k hostile
HOSTILE_BASE = dict(dataset="two_moons", n_per_class=20, noise_sd=0.1, data_seed=7,
                    ensemble_size=2, mc_samples=4, hidden_width=8, depth=2, seed=0,
                    num_features=32, epochs=2, batch_size=16)
BELOW_ONE = float(np.nextafter(1.0, 0.0))  # 1 - eps, the largest float below 1
MAX_FLOAT = sys.float_info.max


def _edged(edges, inside):
    return st.one_of(st.sampled_from(edges), inside)


POSITIVE = _edged([5e-324, 1e-300, 1e300, MAX_FLOAT],
                  st.floats(0.0, 1e300, exclude_min=True))
NONNEGATIVE = _edged([0.0, 5e-324, 1e-300, 1e300, MAX_FLOAT], st.floats(0.0, 1e300))
UNIT_RIGHT_OPEN = _edged([0.0, 5e-324, BELOW_ONE], st.floats(0.0, 1.0, exclude_max=True))
SEED = _edged([0, 10**300], st.integers(0, 2**64))
HOSTILE_KEYS = {
    "dataset": st.sampled_from(cli.DATASETS),
    "n_per_class": st.integers(1, 60),
    "noise_sd": NONNEGATIVE,
    "data_seed": SEED,
    "ensemble_size": st.integers(1, 4),
    "mc_samples": st.integers(1, 30),
    "hidden_width": st.integers(1, 24),
    "depth": st.integers(0, 6),
    "seed": SEED,
    "activation": st.sampled_from(sorted(ACTIVATIONS)),
    "dropout_rate": UNIT_RIGHT_OPEN,
    "sn_bound": POSITIVE,
    "num_features": st.integers(1, 96),
    "length_scale": POSITIVE,
    "ridge_s": POSITIVE,
    "discount_m": _edged([5e-324, BELOW_ONE],
                         st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
    "use_layer_norm": st.booleans(),
    "epochs": st.integers(0, 6),
    "batch_size": st.integers(1, 64),
    "learning_rate": POSITIVE,
    "momentum": UNIT_RIGHT_OPEN,
    "l2_beta": NONNEGATIVE,
    "precision_exact": st.booleans(),
}
HOSTILE_EDITS = st.lists(st.sampled_from(sorted(HOSTILE_KEYS)).flatmap(
    lambda key: st.tuples(st.just(key), HOSTILE_KEYS[key])),
    min_size=1, max_size=3, unique_by=lambda edit: edit[0])


def train_hostile(tmp_path, variant, **edits):
    """``sngp train`` on the hostile base config with ``edits``, every warning
    an error: (exit code, the config's values, the checkpoint path)."""
    cfg = {**HOSTILE_BASE, "variant": variant, **edits}
    config, ckpt = tmp_path / "hostile.cfg", tmp_path / "m.ckpt"
    config.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(["train", "--config", str(config), "--out", str(ckpt)]), cfg, ckpt


def compare_hostile(tmp_path, variants, **edits):
    """``sngp compare --variants <variants>`` on the hostile base config with
    ``edits``, every warning an error: (exit code, the variants its table
    lists, or None when it wrote no table)."""
    cfg = {**HOSTILE_BASE, **edits}
    config, table = tmp_path / "compare.cfg", tmp_path / "table.csv"
    config.write_text("".join(f"{key} = {value}\n" for key, value in cfg.items()))
    table.unlink(missing_ok=True)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["compare", "--variants", ",".join(variants), "--config", str(config),
                     "--out", str(table)])
    if not table.exists():
        return code, None
    return code, [line.split(",")[0] for line in table.read_text().splitlines()
                  if not line.startswith("#")][1:]


class TestHostileConfigs:
    # Each defect the property found, as its own case.
    def test_overflowing_sgd_update_exits_3(self, tmp_path, capsys):
        code, _, ckpt = train_hostile(tmp_path, "deterministic", learning_rate=MAX_FLOAT)
        assert code == EXIT_DIVERGED and not ckpt.exists()
        assert "hidden features are not finite at epoch 0 step 1" in capsys.readouterr().err

    def test_overflowing_feature_gradient_exits_3(self, tmp_path, capsys):
        # shallow_gp backpropagates through the features into nothing; that
        # product overflows first, before the loss names the divergence.
        code, _, ckpt = train_hostile(tmp_path, "shallow_gp", learning_rate=1e300,
                                      length_scale=1e-12)
        assert code == EXIT_DIVERGED and not ckpt.exists()
        assert "training diverged: loss" in capsys.readouterr().err

    def test_precision_that_lost_its_ridge_exits_3(self, tmp_path, capsys):
        # The moving average scales the ridge by discount_m at every step, so a
        # tiny one leaves a rank-deficient precision that no prediction can invert.
        code, _, ckpt = train_hostile(tmp_path, "shallow_gp", discount_m=5e-324)
        assert code == EXIT_DIVERGED and not ckpt.exists()
        assert "precision matrix lost positive definiteness" in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["shallow_gp", "sngp", "dnn_gp"])
    def test_a_head_that_cannot_predict_ends_train_and_compare_with_3(self, tmp_path, variant,
                                                                       capsys):
        # One failure, one exit: compare forms each head's posterior as train does,
        # and keeps the rows of the variants scored before it.
        code, _, ckpt = train_hostile(tmp_path, variant, discount_m=5e-324)
        assert code == EXIT_DIVERGED and not ckpt.exists()
        assert "lost positive definiteness" in capsys.readouterr().err
        code, listed = compare_hostile(tmp_path, ["dnn_sn", variant], discount_m=5e-324)
        assert code == EXIT_DIVERGED and listed == ["dnn_sn"]
        assert (f"training diverged: variant {variant}: precision matrix lost positive "
                f"definiteness") in capsys.readouterr().err

    @pytest.mark.parametrize("variant", ["shallow_gp", "sngp", "dnn_gp"])
    def test_train_and_compare_invert_each_head_once(self, tmp_path, variant, monkeypatch):
        inversions = []
        inverse = gp_layer.spd_inverse
        monkeypatch.setattr(gp_layer, "spd_inverse",
                            lambda p: inversions.append(p.shape) or inverse(p))
        assert train_hostile(tmp_path, variant)[0] == EXIT_OK
        assert len(inversions) == 1
        assert compare_hostile(tmp_path, ["dnn_sn", variant]) == (EXIT_OK, ["dnn_sn", variant])
        assert len(inversions) == 2

    def test_overflowing_two_moons_noise_exits_2(self, tmp_path, capsys):
        message = f"noise_sd = {MAX_FLOAT!r} makes a two-moons point overflow"
        code, _, ckpt = train_hostile(tmp_path, "sngp", noise_sd=MAX_FLOAT)
        assert code == EXIT_USAGE and not ckpt.exists()
        assert message in capsys.readouterr().err
        out = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", "two_moons", "--noise", repr(MAX_FLOAT),
                     "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err and not out.exists()

    def test_zero_epochs_still_check_every_row(self, tmp_path, capsys):
        # Else the checkpoint would fail an eval of the very rows it trained on.
        code, _, ckpt = train_hostile(tmp_path, "dnn_gp", epochs=0, noise_sd=1e300)
        assert code == EXIT_DIVERGED and not ckpt.exists()
        assert "dataset row 0: layer-norm variance" in capsys.readouterr().err

    def test_ensemble_of_near_limit_logits_evaluates_without_a_warning(self, tmp_path):
        code, cfg, ckpt = train_hostile(tmp_path, "deep_ensemble", epochs=0, noise_sd=1e300)
        assert code == EXIT_OK
        data_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", "two_moons", "--n", "20", "--noise", "1e300",
                     "--seed", str(cfg["data_seed"]), "--out", str(data_csv)]) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["eval", "--checkpoint", f"{ckpt}.member0", f"{ckpt}.member1",
                         "--data", str(data_csv)]) == EXIT_OK

    def test_logit_spread_past_the_float_range_trains_and_predicts(self, tmp_path):
        # The precision update's softmax once warned on such finite logits.
        code, _, ckpt = train_hostile(tmp_path, "shallow_gp", dataset="two_ovals", epochs=3,
                                      learning_rate=MAX_FLOAT)
        assert code == EXIT_OK
        data_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", "two_ovals", "--n", "20",
                     "--out", str(data_csv)]) == EXIT_OK
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["surface", "--checkpoint", str(ckpt), "--grid=-2.5,3.5,-2,3,6,6",
                         "--metric", "variance", "--out", str(tmp_path / "s.csv")]) == EXIT_OK
            assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_OK

    def test_every_key_and_the_variant_are_drawn(self):
        assert set(HOSTILE_KEYS) | {"variant"} == set(cli.CONFIG_KEYS)

    @settings(max_examples=int(os.environ.get("HOSTILE_EXAMPLES", "500")), deadline=None,
              derandomize=True, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(variant=st.sampled_from(cli.VARIANT_TAGS), edits=HOSTILE_EDITS)
    def test_hostile_config_ends_in_a_documented_exit(self, tmp_path, variant, edits):
        code, cfg, ckpt = train_hostile(tmp_path, variant, **dict(edits))
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED, EXIT_INCOMPATIBLE)
        # compare ends as train does, or with 3 where its dnn_sn diverged first;
        # its table lists only the variants that trained, in order.
        variants = [variant] if variant == "dnn_sn" else ["dnn_sn", variant]
        compare_code, listed = compare_hostile(tmp_path, variants, **dict(edits))
        assert compare_code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED, EXIT_INCOMPATIBLE)
        assert listed is None or listed == variants[:len(listed)]
        assert (listed == variants) == (compare_code == EXIT_OK)
        assert compare_code == code or (compare_code, code) == (EXIT_DIVERGED, EXIT_OK)
        if code != EXIT_OK:
            return
        members = ([f"{ckpt}.member{i}" for i in range(cfg["ensemble_size"])]
                   if variant == "deep_ensemble" else [str(ckpt)])
        if variant in ("sngp", "dnn_gp", "shallow_gp"):
            assert main(["surface", "--checkpoint", *members, "--grid=-2.5,3.5,-2,3,6,6",
                         "--metric", "variance", "--out", str(tmp_path / "surface.csv")]
                        ) == EXIT_OK
        # The training rows and the OOD rows, as the run generated them.
        data_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", cfg["dataset"], "--n", str(cfg["n_per_class"]),
                     "--noise", repr(cfg["noise_sd"]), "--seed", str(cfg["data_seed"]),
                     "--out", str(data_csv)]) == EXIT_OK
        assert main(["eval", "--checkpoint", *members, "--data", str(data_csv)]) == EXIT_OK
