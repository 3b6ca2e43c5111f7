import warnings

import numpy as np
import pytest

from sngp.cli import (EXIT_DIVERGED, EXIT_INCOMPATIBLE, EXIT_OK, EXIT_USAGE,
                      RunConfig, main, parse_run_config)
from sngp.data import dataset_from_csv, surface_from_csv

from headers import rewrite_header

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


def write_config(tmp_path, text=FAST_CONFIG, **overrides):
    for key, value in overrides.items():
        text += f"\n{key} = {value}\n"
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_defaults_when_empty(self):
        cfg = parse_run_config("")
        assert cfg == RunConfig()

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


def rewrite_bytes(path, edit):
    path.write_bytes(edit(path.read_bytes()))


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
        from sngp.train import ModelSpec, build_sngp_model, predict_batch, save_checkpoint
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", write_config(tmp_path, epochs=1, mc_samples=3),
                     "--out", str(ckpt)]) == EXIT_OK
        loaded = LoadedModel.from_checkpoints([str(ckpt)])
        x = np.array([[0.1, 0.2], [3.0, 3.0]])
        expected = predict_batch(loaded.models[0], x, mc_samples=3,
                                 rng=RngState(0).derive("cli_mc"))
        assert np.array_equal(loaded.predict(x).probs, expected.probs)
        bare = tmp_path / "bare.ckpt"
        save_checkpoint(build_sngp_model(ModelSpec(input_dim=2, hidden_width=8, depth=1,
                                                   num_classes=2, seed=0, num_features=16,
                                                   dropout_rate=0.0)), str(bare))
        assert LoadedModel.from_checkpoints([str(bare)]).mc_samples == 10

    @pytest.fixture()
    def eval_inputs(self, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        assert main(["train", "--config", write_config(tmp_path, epochs=1),
                     "--out", str(ckpt)]) == EXIT_OK
        data_csv = tmp_path / "data.csv"
        assert main(["gen-data", "--dataset", "two_moons", "--n", "20",
                     "--out", str(data_csv)]) == EXIT_OK
        return ckpt, data_csv

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
        (lambda c: rewrite_header(c, lambda h: h["model"].update(sn_bound=-1.0)),
         "sn_bound must be positive"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:10]), "not a checkpoint file (10 bytes"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:-100] + bytes([raw[-100] ^ 1]) + raw[-99:]),
         "payload CRC-32"),
        (lambda c: rewrite_bytes(c, lambda raw: raw[:8] + np.uint32(1).tobytes() + raw[12:]),
         "unsupported checkpoint version 1"),
    ], ids=["no_model", "string_depth", "string_layer_norm", "nan_length_scale", "nan_ridge_s",
            "negative_sn_bound", "10_bytes", "flipped_payload_bit", "version_1"])
    def test_damaged_checkpoint_exits_2(self, eval_inputs, damage, message, capsys):
        ckpt, data_csv = eval_inputs
        damage(ckpt)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--data", str(data_csv)]) == EXIT_USAGE
        assert message in capsys.readouterr().err

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


class TestVerifyCommand:
    def test_theory_suite_passes(self, capsys):
        assert main(["verify", "--suite", "theory"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "minimax" in out

    def test_lipschitz_suite_passes(self):
        assert main(["verify", "--suite", "lipschitz"]) == EXIT_OK

    def test_kernel_suite_passes(self):
        assert main(["verify", "--suite", "kernel"]) == EXIT_OK


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

    def test_unknown_variant_exits_2(self, tmp_path):
        code = main(["compare", "--variants", "sngp,bogus", "--out",
                     str(tmp_path / "t.csv")])
        assert code == EXIT_USAGE
