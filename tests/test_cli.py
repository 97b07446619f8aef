import argparse
import dataclasses
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from cfrpnet import cli
from cfrpnet.cli import COMMANDS, build_parser, main
from cfrpnet.dataset import (
    CSV_HEADER,
    DEFAULT_FEATURES,
    FIELD_BOUNDS,
    FIELDS,
    DatasetFormatError,
    FeatureRange,
    NormalizationSpec,
    SpecimenRecord,
    feature_matrix,
    fit_normalizer,
    parse_dataset,
    records_to_csv,
    split,
    target_vector,
)
from cfrpnet.experiment import ALL_MODELS, SWEEP_VARIABLES, model_seed, synth_dataset, train_model
from cfrpnet.neuralnet import TrainedModel, init_weights, load_model, model_from_dict, model_to_dict, save_model
from cfrpnet.optimizers import PsoConfig, trace_csv

from conftest import make_records


@pytest.fixture
def dataset_csv(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(records_to_csv(make_records(40, seed=1)))
    return str(path)


@pytest.fixture
def synth_csv(tmp_path):
    path = tmp_path / "synth_data.csv"
    path.write_text(records_to_csv(synth_dataset(60, seed=2)))
    return str(path)


def _perfect():
    """One hidden unit, fcc = tanh(fco) on the [0.1, 0.9] scales of fco (10-100 MPa)
    and fcc (20-200 MPa): weight 1 on the fco input and 0 on the other six, so it is
    exact on data labelled with its own predictions. The other inputs' ranges are
    FIELD_BOUNDS."""
    ranges = {name: FeatureRange(*FIELD_BOUNDS[name]) for name in FIELDS}
    ranges.update(fco=FeatureRange(10.0, 100.0), fcc=FeatureRange(20.0, 200.0))
    input_weights = [float(name == "fco") for name in DEFAULT_FEATURES]
    return TrainedModel(weights=np.array([*input_weights, 0.0, 1.0, 0.0]),
                        normalization=NormalizationSpec(ranges=ranges),
                        provenance={"optimizer": "pso", "seed": 0, "iterations": 1})


def _perfect_input(fco):
    """A --input with every feature, inside the perfect model's ranges but for fco."""
    return f"d=150,h=300,nt=0.334,ef=231,fco={fco},eco=0.2,ecc=1.1"


def _perfect_fcc(fco):
    """The perfect model's prediction in MPa, in closed form."""
    return 20.0 + (math.tanh(0.1 + 0.8 * (fco - 10.0) / 90.0) - 0.1) * 180.0 / 0.8


def _perfect_model(tmp_path):
    path = tmp_path / "perfect.json"
    save_model(_perfect(), path)
    return str(path)


def _self_labelled_dataset(tmp_path):
    """Records whose fcc is the perfect model's own prediction."""
    rng = np.random.default_rng(3)
    records = [SpecimenRecord(d=150.0, h=300.0, nt=0.5, ef=231.0, fco=float(fco), eco=0.2, ecc=1.2,
                              fcc=1.0) for fco in rng.uniform(10.0, 100.0, 20)]
    labels = _perfect().predict_records(records)
    path = tmp_path / "self_labelled.csv"
    path.write_text(records_to_csv([dataclasses.replace(r, fcc=float(fcc))
                                    for r, fcc in zip(records, labels)]))
    return str(path)


# The shared flags each subcommand reads, its own flags, and a minimal valid argv.
SHARED_FLAGS = {
    "stats": ("--format", "--out", "--quiet"),
    "validate": ("--format",),
    "train": ("--seed", "--out", "--quiet"),
    "evaluate": ("--format", "--out", "--quiet"),
    "predict": ("--format",),
    "compare": ("--seed", "--format", "--out", "--quiet"),
    "sweep": ("--format", "--out", "--quiet"),
    "synth": ("--seed", "--out", "--quiet"),
}
OWN_FLAGS = {
    "stats": (),
    "validate": (),
    "train": ("--model", "--config", "--iterations", "--population", "--neurons", "--train-fraction"),
    "evaluate": (),
    "predict": ("--input",),
    "compare": ("--config",),
    "sweep": ("--var", "--from", "--to", "--steps", "--fix"),
    "synth": ("--n", "--noise"),
}
MINIMAL_ARGV = {
    "stats": ["stats", "data.csv"],
    "validate": ["validate", "data.csv"],
    "train": ["train", "data.csv", "--model", "pso"],
    "evaluate": ["evaluate", "model.json", "data.csv"],
    "predict": ["predict", "model.json", "--input", "fco=40"],
    "compare": ["compare", "--config", "config.json"],
    "sweep": ["sweep", "model.json", "--var", "fco", "--from", "5", "--to", "50"],
    "synth": ["synth"],
}
# each shared flag as given on the command line, and the attribute it parses to
SHARED_FLAG_ARGS = {
    "--seed": (["--seed", "4"], "seed", 4),
    "--format": (["--format", "json"], "format", "json"),
    "--out": (["--out", "DIR"], "out", "DIR"),
    "--quiet": (["--quiet"], "quiet", True),
}


def _assert_usage_error(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err


class TestHelp:
    @pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
    def test_subcommand_help_lists_exactly_its_flags(self, command, capsys):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"^ +(?:-h, )?(--[\w-]+)", capsys.readouterr().out, re.M))
        assert listed == {"--help", *SHARED_FLAGS[command], *OWN_FLAGS[command]}

    @pytest.mark.parametrize("command", sorted(SHARED_FLAGS))
    @pytest.mark.parametrize("flag", sorted(SHARED_FLAG_ARGS))
    def test_shared_flag_parses_only_where_read(self, command, flag, capsys):
        given, dest, value = SHARED_FLAG_ARGS[flag]
        argv = MINIMAL_ARGV[command] + given
        if flag in SHARED_FLAGS[command]:
            assert getattr(build_parser().parse_args(argv), dest) == value
        else:
            _assert_usage_error(argv, capsys)

    @pytest.mark.parametrize("command", [c for c in sorted(SHARED_FLAGS) if "--format" in SHARED_FLAGS[c]])
    def test_csv_format_only_where_printed(self, command, capsys):
        argv = MINIMAL_ARGV[command] + ["--format", "csv"]
        if command == "compare":  # stats --out writes its two tables as two files
            assert build_parser().parse_args(argv).format == "csv"
        else:
            _assert_usage_error(argv, capsys)

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == 2


def _subcommands(parser):
    return list(next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices)


def _parser_cases(tmp_path):
    """Argv lists that reach every parser outcome: the top level's, each
    subcommand's help, its missing, bad and unknown arguments, and a valid run."""
    data = str(tmp_path / "synth.csv")
    (tmp_path / "synth.csv").write_text(records_to_csv(synth_dataset(40, seed=2)))
    model = _perfect_model(tmp_path)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"dataset": data, "roster": ["ann", "lam_teng"], "hidden_neurons": 2,
                                  "models": {"ann": {"epochs": 3}}}))
    out = str(tmp_path / "out")
    valid = {
        "stats": ["stats", data],
        "validate": ["validate", data],
        "train": ["train", data, "--model", "ann", "--iterations", "3", "--neurons", "2", "--out", out],
        "evaluate": ["evaluate", model, data],
        "predict": ["predict", model, "--input", _perfect_input(40)],
        "compare": ["compare", "--config", str(config), "--out", out],
        "sweep": ["sweep", model, "--var", "fco", "--from", "20", "--to", "40", "--steps", "3"],
        "synth": ["synth", "--n", "20", "--out", out],
    }
    missing = {"stats": ["stats"], "validate": ["validate"], "train": ["train", data],
               "evaluate": ["evaluate", model], "predict": ["predict", model],
               "compare": ["compare"], "sweep": ["sweep", model, "--var", "fco"], "synth": ["synth", "--n"]}
    bad = {"train": ["--model", "svm"], "compare": ["--format", "xml"], "sweep": ["--var", "h"],
           "synth": ["--noise", "x"]}  # synth has no choices: a bad value instead
    cases = [[], ["-h"], ["--help"], ["predcit"], ["-h", "predict"], ["--"], ["--", "predict"]]
    for command in COMMANDS:
        run = valid[command]
        cases += [[command, "--help"], missing[command], run + bad.get(command, ["--format", "csv"]),
                  run + ["--bogus"], run + ["extra"], run]
    return cases


class TestOneCommandParser:
    """main builds the parser of the chosen command alone; every byte it prints
    and every exit code stay those of the full parser."""

    def test_command_list_is_the_full_parsers(self):
        assert _subcommands(build_parser()) == list(COMMANDS)
        for command in COMMANDS:
            assert _subcommands(build_parser(command)) == [command]
        assert _subcommands(build_parser("predcit")) == list(COMMANDS)

    def test_full_parser_errors_name_the_command_argument(self, capsys):
        # a metavar on the full parser would rename it in both messages
        assert main(["predcit"]) == 2
        assert "cfrpnet: error: argument command: invalid choice: 'predcit'" in capsys.readouterr().err
        assert main([]) == 2
        err = capsys.readouterr().err
        assert err.endswith("cfrpnet: error: the following arguments are required: command\n")

    @pytest.mark.parametrize("columns", [None, "60"])
    def test_same_output_as_full_parser(self, columns, tmp_path, monkeypatch, capsys):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        full, built = build_parser, []
        monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(full(only)) or built[-1])
        for argv in _parser_cases(tmp_path):
            built.clear()
            code = main(argv)
            one = code, *capsys.readouterr()
            chosen = argv[:1] if argv and argv[0] in COMMANDS else list(COMMANDS)
            assert [_subcommands(parser) for parser in built] == [chosen], argv
            with monkeypatch.context() as m:
                m.setattr(cli, "build_parser", lambda only=None: full())
                code = main(argv)
                assert (code, *capsys.readouterr()) == one, argv
            assert "Traceback" not in one[2], argv


class TestStats:
    def test_text_output(self, dataset_csv, capsys):
        assert main(["stats", dataset_csv]) == 0
        out = capsys.readouterr().out
        assert "field" in out and "stdev" in out and "correlation" in out

    def test_json_output(self, dataset_csv, capsys):
        assert main(["stats", dataset_csv, "--format", "json", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["n"] == 40
        assert len(payload["correlation"]["matrix"]) == 8

    def test_writes_report_files(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "reports"
        assert main(["stats", dataset_csv, "--out", str(out), "--quiet"]) == 0
        for name in ("summary.json", "summary.csv", "correlation.csv"):
            assert (out / name).exists()

    def test_missing_column_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("d_mm,h_mm,nt_mm,ef_gpa,fco_mpa,eco_pct,ecc_pct\n")
        assert main(["stats", str(path)]) == 2
        assert "fcc_mpa" in capsys.readouterr().err

    def test_oversized_cell_exit_2(self, tmp_path, capsys):
        # a cell over the csv module's field size limit (131,072 characters)
        path = tmp_path / "big.csv"
        path.write_text("d_mm,h_mm,nt_mm,ef_gpa,fco_mpa,eco_pct,ecc_pct,fcc_mpa\n"
                        "150,300,0.5,231,30,0.2,1.2," + "4" * 200_000 + "\n")
        with pytest.raises(DatasetFormatError, match="field larger than field limit"):
            parse_dataset(path)
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1 and "row 2" in err and "Traceback" not in err

    def test_bad_row_diagnostics(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("d_mm,h_mm,nt_mm,ef_gpa,fco_mpa,eco_pct,ecc_pct,fcc_mpa\n"
                        "150,300,0.5,231,oops,0.2,1.2,45\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert "row 2" in err and "fco_mpa" in err

    def test_missing_file_exit_2(self, capsys):
        assert main(["stats", "no-such-file.csv"]) == 2

    @pytest.mark.parametrize("where", ["header", "late row"])
    def test_non_utf8_file_exit_2(self, tmp_path, capsys, where):
        # a path is decoded as it streams: a bad byte ~60 KB in arrives after many parsed rows
        text = records_to_csv(make_records(400, seed=1)).encode()
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"d_\xb5m" + text if where == "header" else text + b"150,300,0.5,\xe9\n")
        assert main(["stats", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "utf-8" in err and "Traceback" not in err


class TestValidate:
    def test_clean_dataset(self, dataset_csv, capsys):
        assert main(["validate", dataset_csv]) == 0
        assert "warning flag" in capsys.readouterr().out

    def test_flags_out_of_range(self, tmp_path, capsys):
        records = [SpecimenRecord(d=150.0, h=300.0, nt=0.5, ef=231.0,
                                  fco=200.0, eco=0.2, ecc=1.2, fcc=220.0)]
        path = tmp_path / "hot.csv"
        path.write_text(records_to_csv(records))
        assert main(["validate", str(path)]) == 0
        assert "fco=200" in capsys.readouterr().out


class TestTrain:
    def test_ann_writes_model_and_trace(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", dataset_csv, "--model", "ann", "--iterations", "5",
                     "--neurons", "4", "--out", str(out), "--quiet"])
        assert code == 0
        assert (out / "model_ann.json").exists()
        trace = (out / "trace_ann.csv").read_text().strip().split("\n")
        assert trace[0] == "iteration,best_fitness"
        assert len(trace) == 7  # header + initial loss + 5 epochs

    def test_swarm_train_with_config_file(self, dataset_csv, tmp_path):
        cfg = tmp_path / "pso.json"
        cfg.write_text(json.dumps({"population": 6, "iterations": 8}))
        out = tmp_path / "run"
        code = main(["train", dataset_csv, "--model", "pso", "--config", str(cfg),
                     "--neurons", "4", "--seed", "7", "--out", str(out), "--quiet"])
        assert code == 0
        model = json.loads((out / "model_pso.json").read_text())
        assert model["provenance"] == {"optimizer": "pso", "seed": 7,
                                       "iterations": 8, "population": 6}
        trace = (out / "trace_pso.csv").read_text().strip().split("\n")
        assert len(trace) == 10  # header + init + 8 iterations

    def test_deterministic_model_files(self, dataset_csv, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["train", dataset_csv, "--model", "gwo", "--iterations", "6",
                         "--population", "5", "--neurons", "3", "--seed", "3",
                         "--out", str(out), "--quiet"]) == 0
            outs.append((out / "model_gwo.json").read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_model_exit_2(self, dataset_csv, capsys):
        assert main(["train", dataset_csv, "--model", "svm"]) == 2
        assert "ann" in capsys.readouterr().err  # usage text lists the valid models

    def test_diverging_training_exit_3(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "ann.json"
        cfg.write_text(json.dumps({"learning_rate": 1e12, "epochs": 200}))
        code = main(["train", dataset_csv, "--model", "ann", "--config", str(cfg),
                     "--neurons", "4", "--out", str(tmp_path), "--quiet"])
        assert code == 3
        assert "diverged" in capsys.readouterr().err

    def test_bad_config_key_exit_2(self, dataset_csv, tmp_path, capsys):
        cfg = tmp_path / "pso.json"
        cfg.write_text(json.dumps({"popsize": 6}))
        assert main(["train", dataset_csv, "--model", "pso", "--config", str(cfg)]) == 2

    def test_population_for_ann_exit_2(self, dataset_csv, tmp_path, capsys):
        code = main(["train", dataset_csv, "--model", "ann", "--population", "10",
                     "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--population" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "model_ann.json").exists()

    @pytest.mark.parametrize("dataset", ["given", "missing"])
    @pytest.mark.parametrize("flags, config, message", [
        (["--neurons", "0"], None, "hidden width must be an integer >= 1, got 0"),
        (["--neurons", "-1"], None, "hidden width must be an integer >= 1, got -1"),
        (["--population", "10"], None, "--population does not apply to --model ann (backprop has no population)"),
        ([], {"epochs": 0}, "epochs must be >= 1")])
    def test_bad_flag_or_config_exits_2_before_reading_the_dataset(self, dataset, flags, config, message,
                                                                   dataset_csv, tmp_path, monkeypatch, capsys):
        # a bad width or config wins over a bad dataset path, and nothing reaches stdout
        monkeypatch.setattr(cli, "parse_dataset", lambda path: pytest.fail("dataset parsed"))
        path = dataset_csv if dataset == "given" else str(tmp_path / "absent.csv")
        argv = ["train", path, "--model", "ann", "--out", str(tmp_path / "out"), *flags]
        if config is not None:
            (tmp_path / "ann.json").write_text(json.dumps(config))
            argv += ["--config", str(tmp_path / "ann.json")]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("fraction", ["nan", "1.5", "inf", "0", "-0.5"])
    def test_train_fraction_outside_unit_interval_exit_2(self, fraction, dataset_csv, tmp_path,
                                                          capsys):
        code = main(["train", dataset_csv, "--model", "ann", "--iterations", "2", "--neurons", "3",
                     "--train-fraction", fraction, "--out", str(tmp_path), "--quiet"])
        assert code == 2
        err = capsys.readouterr().err
        assert err == f"error: --train-fraction must lie in (0, 1], got {float(fraction)}\n"
        assert not (tmp_path / "model_ann.json").exists()

    def test_train_fraction_leaving_one_record_exit_2_before_training(self, dataset_csv, tmp_path, capsys):
        code = main(["train", dataset_csv, "--model", "ann", "--iterations", "2", "--neurons", "3",
                     "--train-fraction", "0.02", "--out", str(tmp_path)])
        assert code == 2
        out, err = capsys.readouterr()
        assert out == "training ann on 40 records (seed 0)\n"
        assert err == "error: --train-fraction 0.02 leaves fewer than 2 training records: 1 of 40\n"
        assert not (tmp_path / "model_ann.json").exists()

    def test_train_fraction_one_uses_every_record(self, dataset_csv, tmp_path, capsys):
        argv = ["train", dataset_csv, "--model", "ann", "--iterations", "3", "--neurons", "3"]
        assert main(argv + ["--train-fraction", "1.0", "--out", str(tmp_path / "one")]) == 0
        records = parse_dataset(dataset_csv)
        out = capsys.readouterr().out
        assert f"on {len(records)} records" in out and "using" not in out
        assert main(argv + ["--out", str(tmp_path / "default"), "--quiet"]) == 0
        model = (tmp_path / "one" / "model_ann.json").read_bytes()
        assert model == (tmp_path / "default" / "model_ann.json").read_bytes()
        assert load_model(tmp_path / "one" / "model_ann.json").normalization == fit_normalizer(records)

    def test_same_model_as_train_model(self, synth_csv, tmp_path):
        out = tmp_path / "run"
        assert main(["train", synth_csv, "--model", "pso", "--population", "5",
                     "--iterations", "6", "--neurons", "4", "--seed", "3",
                     "--train-fraction", "0.75", "--out", str(out), "--quiet"]) == 0
        train, _ = split(parse_dataset(synth_csv), 0.75, seed=model_seed(3, "split"))
        norm = fit_normalizer(train)
        model, history = train_model(
            "pso", PsoConfig(population=5, iterations=6, seed=3), 4, norm,
            feature_matrix(train, norm), target_vector(train, norm))
        written = load_model(out / "model_pso.json")
        assert np.array_equal(written.weights, model.weights)
        assert written.provenance == model.provenance
        assert (out / "trace_pso.csv").read_text() == trace_csv(history)

    def test_failed_write_keeps_previous_model(self, dataset_csv, tmp_path, monkeypatch, capsys):
        argv = ["train", dataset_csv, "--model", "ann", "--iterations", "5", "--neurons", "4",
                "--out", str(tmp_path), "--quiet"]
        assert main(argv) == 0
        before = (tmp_path / "model_ann.json").read_bytes()

        def broken(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr("os.replace", broken)
        assert main(argv + ["--seed", "1"]) == 2
        assert "disk full" in capsys.readouterr().err
        assert (tmp_path / "model_ann.json").read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))


class TestEvaluate:
    def test_smoke_on_own_training_file(self, dataset_csv, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", dataset_csv, "--model", "ann", "--iterations", "5",
              "--neurons", "4", "--out", str(out), "--quiet"])
        code = main(["evaluate", str(out / "model_ann.json"), dataset_csv, "--quiet"])
        assert code == 0
        text = capsys.readouterr().out
        assert "n = 40" in text and "accuracy" in text

    def test_perfect_model_accuracy_100(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        data_path = _self_labelled_dataset(tmp_path)
        assert main(["evaluate", model_path, data_path, "--format", "json", "--quiet"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["accuracy_percent"] == pytest.approx(100.0, abs=1e-6)
        assert payload["mse_mpa"] == pytest.approx(0.0, abs=1e-18)
        assert payload["provenance"]["optimizer"] == "pso"

    def test_feature_mismatch_exit_2(self, tmp_path, dataset_csv, capsys):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({**model_to_dict(_perfect()), "features": ["vol"]}))
        assert main(["evaluate", str(path), dataset_csv]) == 2
        assert capsys.readouterr().err == ("error: model features must be "
                                           "['d', 'h', 'nt', 'ef', 'fco', 'eco', 'ecc'], got ['vol']\n")

    def test_header_only_dataset_exit_2(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text(records_to_csv([]))
        assert main(["evaluate", _perfect_model(tmp_path), str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    def test_writes_prediction_files(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        data_path = _self_labelled_dataset(tmp_path)
        out = tmp_path / "eval"
        assert main(["evaluate", model_path, data_path, "--out", str(out), "--quiet"]) == 0
        assert (out / "predictions.csv").exists()
        assert (out / "evaluation.json").exists()

    def test_json_keys(self, tmp_path, capsys):
        out = tmp_path / "eval"
        argv = ["evaluate", _perfect_model(tmp_path), _self_labelled_dataset(tmp_path), "--out", str(out)]
        assert main(argv + ["--format", "json", "--quiet"]) == 0
        keys = ["accuracy_percent", "mae_mpa", "mae_pct", "mse_mpa", "mse_pct", "n", "notes", "r_squared"]
        assert sorted(json.loads(capsys.readouterr().out)) == sorted([*keys, "provenance"])
        assert sorted(json.loads((out / "evaluation.json").read_text())) == keys


class TestPredict:
    def test_prediction_with_units(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", _perfect_input(40)]) == 0
        out = capsys.readouterr().out
        assert f"fcc = {_perfect_fcc(40.0):.4f} MPa" in out

    def test_missing_feature_exit_2(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", _perfect_input(40).replace("fco=40,", "")]) == 2
        assert "missing feature: fco" in capsys.readouterr().err

    def test_out_of_range_warning_on_stderr(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", _perfect_input(500)]) == 0
        captured = capsys.readouterr()
        assert "extrapolating" in captured.err
        assert "fcc" in captured.out

    def test_unknown_input_name_exit_2(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", "bogus=1"]) == 2

    def test_json_format(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", _perfect_input(40), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["fcc_mpa"] == pytest.approx(_perfect_fcc(40.0), rel=1e-12)


    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_input_exit_2(self, tmp_path, capsys, value):
        model_path = _perfect_model(tmp_path)
        assert main(["predict", model_path, "--input", _perfect_input(value)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite" in captured.err


class TestSweep:
    def test_reversed_bounds_exit_2(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["sweep", model_path, "--var", "fco", "--from", "50", "--to", "5"]) == 2

    def test_sweep_writes_csv(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        out = tmp_path / "sweeps"
        code = main(["sweep", model_path, "--var", "fco", "--from", "10", "--to", "100",
                     "--steps", "10", "--out", str(out), "--quiet"])
        assert code == 0
        lines = (out / "sweep_fco.csv").read_text().strip().split("\n")
        assert lines[0] == "fco,prediction_mpa"
        assert len(lines) == 11

    def test_every_sweep_variable_is_a_feature(self, tmp_path, capsys):
        # --var takes SWEEP_VARIABLES alone, so a sweep never names an input the model lacks
        assert set(SWEEP_VARIABLES) <= set(DEFAULT_FEATURES)
        model_path = _perfect_model(tmp_path)
        assert main(["sweep", model_path, "--var", "d", "--from", "100", "--to", "200", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["percent_change"] == 0.0  # it reads fco alone

    def test_non_finite_fix_exit_2(self, tmp_path, capsys):
        model_path = _perfect_model(tmp_path)
        assert main(["sweep", model_path, "--var", "fco", "--from", "10", "--to", "100",
                     "--fix", "d=nan"]) == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("fix", ["d=5", "d=500,h=300", "fco=20,d=150"])
def test_fix_naming_swept_variable_exit_2(fix, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    assert main(["sweep", str(path), "--var", "d", "--from", "100", "--to", "200", "--steps", "3",
                 "--fix", fix]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: --fix names the swept variable 'd'\n"


class TestOutOfMemory:
    # a size too large to allocate (say --steps or --neurons 100000000000) raises numpy's
    # MemoryError subclass; the callee raises it here, so no test makes a real huge allocation
    @pytest.mark.parametrize("error, message", [
        (MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,)"),
         "Unable to allocate 745. GiB for an array with shape (100000000000,)"),
        (MemoryError(), "MemoryError")])
    def test_sweep_exit_3(self, error, message, tmp_path, monkeypatch, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_DOC))

        def no_memory(*args):
            raise error

        monkeypatch.setattr("cfrpnet.cli.parametric_sweep", no_memory)
        assert main(["sweep", str(path), "--var", "d", "--from", "100", "--to", "200",
                     "--steps", "100000000000"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"

    def test_train_exit_3(self, dataset_csv, tmp_path, monkeypatch, capsys):
        def no_memory(*args):
            raise MemoryError("Unable to allocate 43.7 TiB")

        monkeypatch.setattr("cfrpnet.cli.train_model", no_memory)
        out = tmp_path / "out"
        assert main(["train", dataset_csv, "--model", "ann", "--neurons", "100000000000",
                     "--out", str(out), "--quiet"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == "error: Unable to allocate 43.7 TiB\n"
        assert not out.exists()

    def test_train_population_past_memory_exit_3(self, dataset_csv, tmp_path, monkeypatch, capsys):
        # 2**40 positions of 451 weights are 3.5 PiB, past any address space: they raise
        # before the member streams, which would grow the process one by one until memory ran out
        monkeypatch.setattr("cfrpnet.optimizers._streams", lambda *args: pytest.fail("member streams built"))
        assert main(["train", dataset_csv, "--model", "pso", "--population", str(2 ** 40),
                     "--iterations", "1", "--out", str(tmp_path / "out"), "--quiet"]) == 3
        assert capsys.readouterr().err.startswith("error: Unable to allocate")


def _model_document():
    """A valid model document over the seven default features."""
    norm = fit_normalizer(make_records(20, seed=4))
    return model_to_dict(TrainedModel(init_weights(3, 0), norm))


_DOC = _model_document()
MALFORMED_MODELS = [{"format": "cfrpnet-model", "version": 1}, [1, 2]]
# the valid document with one field of the wrong type
MALFORMED_MODELS += [{**_DOC, "topology": 5}, {**_DOC, "normalization": []}, {**_DOC, "features": 5},
                     {**_DOC, "normalization": {**_DOC["normalization"],
                                                "ranges": {**_DOC["normalization"]["ranges"], "d": 5}}}]
MALFORMED_MODELS += [{**_DOC, "weights": {}}, {**_DOC, "target": 5}, {**_DOC, "target": [1]},
                     {**_DOC, "provenance": 5}, {**_DOC, "provenance": [1]}]
# another target, or another network: another activation, depth or output width, each with
# as many weights as that network has
_TOPOLOGY = _DOC["topology"]
MALFORMED_MODELS += [{**_DOC, "target": "fco"},
                     {**_DOC, "topology": {**_TOPOLOGY, "hidden_activation": "relu"}},
                     {**_DOC, "topology": {**_TOPOLOGY, "hidden_sizes": [3, 3]}, "weights": [0.1] * 40},
                     {**_DOC, "topology": {**_TOPOLOGY, "output_size": 2}, "weights": [0.1] * 32}]
# the valid sizes as JSON of another type
MALFORMED_MODELS += [{**_DOC, "topology": {**_TOPOLOGY, "output_size": value}} for value in (True, 1.0)]
# inputs other than the seven features in order: another list, or another input size
MALFORMED_MODELS += [{**_DOC, "features": features} for features in (
    list(DEFAULT_FEATURES[::-1]), list(DEFAULT_FEATURES[:6]), ["vol"], [*DEFAULT_FEATURES, "vol"])]
MALFORMED_MODELS += [{**_DOC, "topology": {**_TOPOLOGY, "input_size": n}, "weights": [0.1] * ((n + 2) * 3 + 1)}
                     for n in (1, 6, 8)]
# a hidden width that is not a JSON integer >= 1, each with as many weights as the width
# it stands for has where there is one; then a width that disagrees with the weight count
MALFORMED_MODELS += [{**_DOC, "topology": {**_TOPOLOGY, "hidden_sizes": sizes}, "weights": [0.1] * n}
                     for sizes, n in (([True], 10), ([1.0], 10), (["3"], 28), ([None], 28), ([0], 1),
                                      ([-1], 28), ([4], 28))]
# a normalized range other than the fixed [0.1, 0.9]
MALFORMED_MODELS += [{**_DOC, "normalization": {**_DOC["normalization"], key: value}}
                     for key, value in (("lo", 0.2), ("hi", 1.0), ("lo", 0), ("hi", "0.9"))]


def test_model_document_control(dataset_csv, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    assert main(["evaluate", str(path), dataset_csv, "--quiet"]) == 0
    assert main(["sweep", str(path), "--var", "fco", "--from", "10", "--to", "100"]) == 0


VALID_INPUT = "d=150,h=300,nt=0.334,ef=231,fco=16.5,eco=0.2,ecc=1.1"
# sweep --fix may not name the swept variable: the sweeps run over ef and fix the rest
VALID_FIX = VALID_INPUT.replace("ef=231,", "")
# values a CSV row may not hold, and the record rule each breaks
BAD_RECORD_VALUES = [
    ("d=-150,h=300", "field 'd' must be positive and finite, got -150.0"),
    ("fco=0", "field 'fco' must be positive and finite, got 0.0"),
    ("nt=-0.334", "field 'nt' must be positive and finite, got -0.334"),
    ("d=150,h=100", "cylinder height 100.0 is smaller than diameter 150.0"),
    # the first rule broken is reported: FIELDS in order, then h >= d
    ("h=100,ecc=-1", "field 'ecc' must be positive and finite, got -1.0"),
]


@pytest.mark.parametrize("command", ["predict", "sweep"])
@pytest.mark.parametrize("values,message", BAD_RECORD_VALUES)
def test_input_held_to_record_rules(command, values, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    given = f"{VALID_INPUT},{values}"  # a later pair replaces an earlier one
    argv = {"predict": ["predict", str(path), "--format", "json", "--input", given],
            "sweep": ["sweep", str(path), "--var", "ef", "--from", "110", "--to", "245",
                      "--fix", f"{VALID_FIX},{values}"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"
    # the same message as a dataset row with these values
    row = {name: float(value) for name, value in (p.split("=") for p in f"{given},fcc=40".split(","))}
    with pytest.raises(ValueError) as exc:
        SpecimenRecord(**row)
    assert str(exc.value) == message


# every point of a sweep grid is held to the record rules, with the fixed values beside it
SWEEP_GRIDS = [
    (["--var", "d", "--from", "-100", "--to", "50"], "field 'd' must be positive and finite, got -100.0"),
    (["--var", "d", "--from", "100", "--to", "600", "--fix", "h=300"],
     "cylinder height 300.0 is smaller than diameter 600.0"),
    (["--var", "d", "--from", "100", "--to", "300", "--fix", "h=300"], None),
]


@pytest.mark.parametrize("grid, message", SWEEP_GRIDS)
def test_sweep_grid_held_to_record_rules(grid, message, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    code = main(["sweep", str(path), "--format", "json", *grid])
    captured = capsys.readouterr()
    if message is None:
        assert code == 0 and "error" not in captured.err
    else:
        assert code == 2 and captured.out == "" and captured.err == f"error: {message}\n"


def test_sweep_lists_each_warning_once(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    assert main(["sweep", str(path), "--format", "json", "--var", "d", "--from", "100", "--to", "200",
                 "--steps", "3", "--fix", "fco=5"]) == 0
    captured = capsys.readouterr()
    warnings = json.loads(captured.out)["warnings"]
    assert [w for w in warnings if "fco" in w] == [
        f"fco=5 outside training range [{_DOC['normalization']['ranges']['fco'][0]:g}, "
        f"{_DOC['normalization']['ranges']['fco'][1]:g}]; extrapolating"]
    assert len(set(warnings)) == len(warnings)
    assert captured.err == "".join(f"warning: {w}\n" for w in warnings)


@pytest.mark.parametrize("values", ["", "h=150"])
def test_input_within_record_rules_runs(values, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    given = f"{VALID_INPUT},{values}"
    assert main(["predict", str(path), "--format", "json", "--input", given]) == 0
    assert "fcc_mpa" in json.loads(capsys.readouterr().out)
    assert main(["sweep", str(path), "--var", "ef", "--from", "110", "--to", "245",
                 "--fix", f"{VALID_FIX},{values}"]) == 0


# names a CSV row holds but the model does not read: the first such name is refused,
# before any record rule, whatever its value
UNREAD_INPUTS = [("fcc=40", "fcc"), ("eps_h_rup=0", "eps_h_rup"), ("eps_h_rup=0.012", "eps_h_rup"),
                 ("eps_h_rup=-0.01", "eps_h_rup"), ("eps_h_rup=nan", "eps_h_rup"),
                 ("eps_h_rup=-1,h=100,ecc=-1", "eps_h_rup"), ("d=-150,fcc=40,eps_h_rup=0.01", "fcc")]


@pytest.mark.parametrize("command", ["predict", "sweep"])
@pytest.mark.parametrize("values, name", UNREAD_INPUTS)
def test_input_the_model_does_not_read_refused(command, values, name, tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(_DOC))
    argv = {"predict": ["predict", str(path), "--format", "json", "--input", f"{VALID_INPUT},{values}"],
            "sweep": ["sweep", str(path), "--var", "ef", "--from", "110", "--to", "245",
                      "--fix", f"{VALID_FIX},{values}"]}[command]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown input {name!r}; known names: d, h, nt, ef, fco, eco, ecc\n"


@pytest.mark.parametrize("command", ["predict", "evaluate", "sweep"])
@pytest.mark.parametrize("document", MALFORMED_MODELS)
def test_malformed_model_exit_2_without_traceback(command, document, dataset_csv, tmp_path,
                                                  capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(document))
    argv = {"predict": ["predict", str(path), "--input", VALID_INPUT],
            "evaluate": ["evaluate", str(path), dataset_csv],
            "sweep": ["sweep", str(path), "--var", "fco", "--from", "10", "--to", "100"]}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# JSON values for the model-file properties: any JSON, and values near the valid ones
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=8), inner, max_size=3),
    max_leaves=8)
NEAR_VALUES = (st.integers(-1, 60) | st.floats(0.0, 8.0) | st.lists(st.integers(-1, 60), max_size=3)
               | st.sampled_from(["tanh", "linear", "relu", "sigmoid", "fcc", "fco", True, 1.0, 3.0, [3.0]]))
TOPOLOGIES = (JSON_VALUES | st.dictionaries(st.sampled_from(sorted(_TOPOLOGY)), NEAR_VALUES)
              | st.builds(lambda key, value: {**_TOPOLOGY, key: value},
                          st.sampled_from(sorted(_TOPOLOGY)), NEAR_VALUES | JSON_VALUES))
# the other fields of a model document: the seven features in any order or a list of
# names; weight lists near the valid length (28 here); range maps merged into the valid
# normalization; any provenance
_NUMBERS = st.floats() | st.floats(-1e3, 1e3) | st.integers(-10 ** 400, 10 ** 400)
_RANGES = _DOC["normalization"]["ranges"]
MODEL_FIELDS = {
    "features": (JSON_VALUES | st.permutations(DEFAULT_FEATURES).map(list)
                 | st.lists(st.sampled_from([*FIELDS, "vol", "eps_h_rup"]), max_size=9)),
    "weights": (JSON_VALUES | st.lists(_NUMBERS | NEAR_VALUES, min_size=27, max_size=29)
                | st.builds(lambda i, v: [*_DOC["weights"][:i], v, *_DOC["weights"][i + 1:]],
                            st.integers(0, 27), _NUMBERS | JSON_VALUES)),
    "normalization": (JSON_VALUES | st.builds(
        lambda ranges, bounds: {**_DOC["normalization"], "ranges": {**_RANGES, **ranges}, **bounds},
        st.dictionaries(st.sampled_from([*FIELDS, "vol"]), JSON_VALUES | st.lists(_NUMBERS, max_size=3),
                        max_size=3),
        st.dictionaries(st.sampled_from(["lo", "hi"]), _NUMBERS | JSON_VALUES, max_size=2))),
    "provenance": JSON_VALUES | st.dictionaries(st.text(max_size=8), JSON_VALUES, max_size=4),
}


# --input text: any text, name=value pairs over known and unknown names, or the valid
# input followed by such pairs or by known names with any float
_INPUT_NAMES = st.sampled_from([*FIELDS, "eps_h_rup", "fcc", "x", " d ", ""])
_INPUT_CELLS = (st.floats().map(repr) | st.integers(-10 ** 400, 10 ** 400).map(str) | st.text(max_size=6)
                | st.sampled_from(["", "nan", "-inf", "1e999", "1_0", "0x10", " 150 ", "5e-324"]))
_INPUT_PAIRS = st.lists(st.tuples(_INPUT_NAMES, st.sampled_from(["=", "==", ""]), _INPUT_CELLS).map("".join),
                        max_size=8).map(",".join)
_NUMBER_PAIRS = st.lists(st.tuples(st.sampled_from([*FIELDS, "eps_h_rup"]), st.floats(-1e3, 1e6) | st.floats())
                        .map("{0[0]}={0[1]!r}".format), max_size=4).map(",".join)
INPUT_TEXTS = (st.text() | _INPUT_PAIRS
               | st.builds("{},{}".format, st.just(VALID_INPUT), _INPUT_PAIRS | _NUMBER_PAIRS))


class TestPredictInputBoundary:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(INPUT_TEXTS)
    def test_exit_code_without_traceback(self, tmp_path, capsys, text):
        path = tmp_path / "model.json"
        path.write_text(json.dumps(_DOC))
        code = main(["predict", str(path), "--input", text])
        captured = capsys.readouterr()
        assert code in (0, 2, 3) and "Traceback" not in captured.err
        if code == 0:
            assert re.fullmatch(r"fcc = \S+ MPa\n", captured.out)
        else:
            assert captured.out == "" and captured.err.startswith(("error: ", "usage: "))


class TestModelFileBoundary:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["topology", "target"]), TOPOLOGIES | NEAR_VALUES)
    def test_model_or_value_error(self, tmp_path, capsys, key, value):
        # a valid document with its topology or target replaced: a model, or ValueError and exit 2
        document = {**_DOC, key: value}
        try:
            model_from_dict(document)
            loaded = True
        except ValueError:
            loaded = False
        path = tmp_path / "model.json"
        path.write_text(json.dumps(document))
        assert main(["predict", str(path), "--input", VALID_INPUT]) == (0 if loaded else 2)
        assert "Traceback" not in capsys.readouterr().err
        if loaded:  # only the paper's network and fcc load
            assert json.dumps(document, sort_keys=True) == json.dumps(_DOC, sort_keys=True)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(sorted(MODEL_FIELDS)).flatmap(lambda key: st.tuples(st.just(key), MODEL_FIELDS[key])),
           st.sampled_from(["predict", "evaluate", "sweep"]), st.sampled_from(["text", "json"]))
    def test_document_field_exit_code_without_traceback(self, tmp_path, dataset_csv, capsys, field, command,
                                                        fmt):
        # a valid document with its features, weights, normalization or provenance replaced
        key, value = field
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**_DOC, key: value}))
        argv = {"predict": ["predict", str(path), "--input", VALID_INPUT],
                "evaluate": ["evaluate", str(path), dataset_csv],
                "sweep": ["sweep", str(path), "--var", "fco", "--from", "10", "--to", "100"]}[command]
        code = main(argv + ["--format", fmt])
        captured = capsys.readouterr()
        assert code in (0, 2, 3) and "Traceback" not in captured.err
        if code:
            assert captured.out == "" and captured.err.startswith("error: ")
        if key == "features":  # only the seven features, in order, load
            assert (code == 0) == (value == list(DEFAULT_FEATURES))
            assert code == 0 or captured.err.startswith("error: model features must be ")

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 60), st.integers(0, 2 ** 32 - 1))
    def test_round_trip(self, hidden_size, seed):
        spec = NormalizationSpec(ranges={name: FeatureRange(0.0, 1.0 + i) for i, name in enumerate(FIELDS)})
        weights = np.random.default_rng(seed).normal(scale=10.0, size=9 * hidden_size + 1)
        document = model_to_dict(TrainedModel(weights, spec, {"seed": seed}))
        assert document["topology"] == {"hidden_activation": "tanh", "hidden_sizes": [hidden_size],
                                        "input_size": 7, "output_activation": "linear", "output_size": 1}
        assert document["features"] == list(DEFAULT_FEATURES) and document["target"] == "fcc"
        restored = model_from_dict(json.loads(json.dumps(document)))
        assert restored.params[1].size == hidden_size
        assert np.array_equal(restored.weights, weights)
        assert model_to_dict(restored) == document

    @pytest.mark.parametrize("input_size", [1, 6, 8])
    def test_other_input_size_refused(self, input_size):
        # the weights of a 3-unit net on another input size: the loader refuses the file even
        # where the count also fits a 7-input net (input size 1: 10 weights, hidden width 1)
        document = {**_DOC, "topology": {**_TOPOLOGY, "input_size": input_size},
                    "weights": [0.1] * ((input_size + 2) * 3 + 1)}
        with pytest.raises(ValueError, match="model topology must be|weight vector has shape"):
            model_from_dict(document)


class TestCompare:
    def _config(self, tmp_path, **extra):
        data = {
            "synth": {"n": 50, "noise_fraction": 0.02},
            "roster": ["ann", "lam_teng"],
            "seed": 6,
            "hidden_neurons": 4,
            "models": {"ann": {"epochs": 10}},
        }
        data.update(extra)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        return str(path)

    def test_compare_runs_and_writes(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out = tmp_path / "out"
        assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        table = (out / "comparison.csv").read_text()
        assert table.startswith("model,")
        assert "ann" in table and "lam_teng" in table

    def test_no_temp_files_left(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["compare", "--config", self._config(tmp_path), "--out", str(out), "--quiet"]) == 0
        assert (out / "model_ann.json").exists() and (out / "comparison.json").exists()
        assert not list(out.glob("*.tmp"))

    def test_six_model_roster_table(self, tmp_path, capsys):
        data = {
            "synth": {"n": 50, "noise_fraction": 0.02},
            "roster": ["pso", "gwo", "ba", "ann", "lam_teng", "miyauchi"],
            "seed": 6,
            "hidden_neurons": 3,
            "models": {"ann": {"epochs": 5},
                       "pso": {"population": 5, "iterations": 5},
                       "gwo": {"population": 5, "iterations": 5},
                       "ba": {"population": 5, "iterations": 5}},
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data))
        assert main(["compare", "--config", str(path), "--format", "csv", "--quiet"]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 7  # header + six models

    def test_byte_identical_reruns(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        files = {}
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            assert main(["compare", "--config", cfg, "--out", str(out), "--quiet"]) == 0
            files[sub] = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        assert files["r1"].keys() == files["r2"].keys()
        for name in files["r1"]:
            assert files["r1"][name] == files["r2"][name], name

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self._config(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["compare", "--config", cfg, "--out", str(out1), "--seed", "11", "--quiet"]) == 0
        assert main(["compare", "--config", cfg, "--out", str(out2), "--quiet"]) == 0
        c1 = json.loads((out1 / "comparison.json").read_text())
        c2 = json.loads((out2 / "comparison.json").read_text())
        assert c1["seed"] == 11 and c2["seed"] == 6

    def test_invalid_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"roster": ["svm"]}))
        assert main(["compare", "--config", str(path)]) == 2

    def test_nonlinear_overflow_recorded_as_failure(self, tmp_path, capsys):
        # moduli near 1e100 GPa are valid cells and lam_teng scores them, but
        # (f_l / fco) ** 4 overflows
        records = make_records(30, seed=5, with_rupture=True)
        data_path = tmp_path / "huge_moduli.csv"
        data_path.write_text(records_to_csv([dataclasses.replace(r, ef=r.ef * 1e100) for r in records]))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": str(data_path), "roster": ["lam_teng", "nonlinear"],
                                   "seed": 1, "models": {"nonlinear": {"k": 2, "n": 4}}}))
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 0
        captured = capsys.readouterr()
        assert re.search(r"^ +lam_teng +\d", captured.out, re.M)
        assert re.search(r"^ +nonlinear  FAILED: ValueError: nonlinear model overflows", captured.out, re.M)
        assert "Traceback" not in captured.err

    def test_hidden_width_message_as_train(self, dataset_csv, tmp_path, capsys):
        assert main(["train", dataset_csv, "--model", "ann", "--neurons", "0"]) == 2
        train_err = capsys.readouterr().err
        assert main(["compare", "--config", self._config(tmp_path, hidden_neurons=0)]) == 2
        assert capsys.readouterr().err == train_err == "error: hidden width must be an integer >= 1, got 0\n"

    def test_no_test_records_exit_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._config(tmp_path, synth={"n": 10}, train_fraction=0.96)
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "running comparison with master seed 6\n"
        assert captured.err == "error: train_fraction 0.96 leaves no test records: 10 train / 0 test\n"
        assert not out.exists()

    def test_fewer_than_two_training_records_exit_2_before_training(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = self._config(tmp_path, synth={"n": 10}, roster=["ann", "pso"], train_fraction=0.1)
        assert main(["compare", "--config", cfg, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "running comparison with master seed 6\n"
        assert captured.err == ("error: train_fraction 0.1 leaves fewer than 2 training records: "
                                "1 train / 9 test\n")
        assert not out.exists()

    def test_whole_roster_failing_exit_3(self, tmp_path, capsys):
        # no rupture strains and no fallback fiber strain: every model fails
        data_path = tmp_path / "plain.csv"
        data_path.write_text(records_to_csv(make_records(30, seed=5)))
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": str(data_path), "roster": ["lam_teng"], "seed": 1}))
        assert main(["compare", "--config", str(cfg), "--quiet"]) == 3
        assert "FAILED" in capsys.readouterr().out


class TestStrictReports:
    """A report that would hold NaN or an infinity is refused, as a per-model
    error or exit 2, never a traceback; no file holds Infinity."""

    @pytest.fixture
    def huge_moduli_csv(self, tmp_path):
        # odd rows at 1e200 GPa: valid cells whose strengths square to inf
        records = make_records(40, seed=5, with_rupture=True)
        path = tmp_path / "huge_moduli.csv"
        path.write_text(records_to_csv([dataclasses.replace(r, ef=1e200) if i % 2 else r
                                        for i, r in enumerate(records)]))
        return str(path)

    def test_compare_records_overflow_per_model(self, huge_moduli_csv, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"dataset": huge_moduli_csv, "roster": ["lam_teng", "miyauchi"],
                                   "seed": 1}))
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning included
            assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3  # every model failed
        captured = capsys.readouterr()
        for name in ("lam_teng", "miyauchi"):
            assert re.search(rf"^ +{name}  FAILED: ValueError: error metrics overflow", captured.out, re.M)
        assert "Traceback" not in captured.err
        for path in out.iterdir():
            assert not re.search(r"Infinity|NaN|\binf\b|\bnan\b", path.read_text()), path.name
        comparison = json.loads((out / "comparison.json").read_text(),
                                parse_constant=lambda name: pytest.fail(f"not JSON: {name}"))
        assert comparison["comparison"]["rows"] == []
        assert sorted(comparison["comparison"]["errors"]) == ["lam_teng", "miyauchi"]

    @pytest.mark.parametrize("flags", [[], ["--format", "json"], ["--out", "stats_out", "--quiet"]])
    def test_stats_of_huge_values_exit_2(self, flags, huge_moduli_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's overflow RuntimeWarning included
            assert main(["stats", huge_moduli_csv, *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: summary statistics of field 'ef' overflow for values up to 1e+200\n"
        assert not (tmp_path / "stats_out").exists() or not any((tmp_path / "stats_out").iterdir())

    def test_evaluate_of_huge_targets_exit_2(self, tmp_path, capsys):
        records = make_records(10, seed=2)
        data = tmp_path / "huge_targets.csv"
        data.write_text(records_to_csv([dataclasses.replace(r, fcc=1e200) for r in records]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["evaluate", _perfect_model(tmp_path), str(data), "--format", "json"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: error metrics overflow")


@pytest.mark.parametrize("argv", [
    ["predict", "{model}", "--input", VALID_INPUT],
    ["predict", "{model}", "--input", VALID_INPUT, "--format", "json"],
    ["sweep", "{model}", "--var", "fco", "--from", "20", "--to", "60"],
    ["evaluate", "{model}", "{data}"]], ids=["predict", "predict-json", "sweep", "evaluate"])
def test_non_finite_prediction_exit_2(argv, dataset_csv, tmp_path, capsys):
    # every weight 1e308 is a valid finite float, but the forward pass overflows
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({**_DOC, "weights": [1e308] * len(_DOC["weights"])}))
    argv = [arg.format(model=path, data=dataset_csv) for arg in argv]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow RuntimeWarning included
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the model's prediction is not finite: its weights overflow the forward pass\n"


# compare config documents: a valid one with small settings for every trainable model,
# since its defaults (900 iterations) would be slow, or the same with one entry (a
# top-level key or one model's settings) set to junk, an unknown name or a duplicate
_SMALL_MODELS = {
    "ann": st.fixed_dictionaries({"epochs": st.integers(1, 3)},
                                 optional={"learning_rate": st.floats(0.001, 0.5)}),
    "pso": st.fixed_dictionaries({"population": st.integers(2, 4), "iterations": st.integers(1, 3)}),
    "gwo": st.fixed_dictionaries({"population": st.integers(3, 4), "iterations": st.integers(1, 3)}),
    "ba": st.fixed_dictionaries({"population": st.integers(2, 4), "iterations": st.integers(1, 3)}),
}
_VALID_COMPARE = st.fixed_dictionaries(
    {"roster": st.lists(st.sampled_from(ALL_MODELS), min_size=1, max_size=4, unique=True),
     "models": st.fixed_dictionaries(_SMALL_MODELS, optional={"nonlinear": st.fixed_dictionaries(
         {"k": st.floats(0.5, 5.0), "n": st.floats(0.5, 2.0)})}),
     "synth": st.fixed_dictionaries({"n": st.integers(10, 40)},
                                    optional={"noise_fraction": st.floats(0.0, 0.2), "seed": st.integers(0, 9)}),
     "seed": st.integers(0, 2 ** 64)},
    optional={"train_fraction": st.floats(0.3, 0.9), "hidden_neurons": st.integers(1, 3),
              "fiber_strain": st.floats(0.005, 0.03)})
_BAD_ENTRIES = st.tuples(
    st.sampled_from(["roster", "synth", "seed", "train_fraction", "hidden_neurons", "fiber_strain",
                     *(f"models.{name}" for name in (*_SMALL_MODELS, "nonlinear"))]),
    st.sampled_from([None, True, -1, 0, 1.5, math.nan, "x", [1], {"n": 5}, {"population": "many"},
                     ["pso", "pso"], ["svm", "lam_teng"], []]))


def _with_entry(document, entry):
    """The document with one entry, ``key`` or ``models.name``, set to a value."""
    if entry is None:
        return document
    key, value = entry
    document = {**document, "models": dict(document["models"])}
    (document["models"] if key.startswith("models.") else document)[key.removeprefix("models.")] = value
    return document


COMPARE_CONFIGS = st.builds(_with_entry, _VALID_COMPARE, st.none() | _BAD_ENTRIES)


def _csv_cell_value(cell):
    """A comparison.csv cell as the JSON table holds it: None, an int, a float or a name."""
    for parse in (int, float):
        try:
            return parse(cell)
        except ValueError:
            pass
    return cell or None


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(document=COMPARE_CONFIGS)
def test_compare_property_exit_code_and_agreeing_tables(document, tmp_path_factory, capsys):
    """Any config exits 0, 2 or 3 without a traceback; on 0 the CSV and JSON tables agree."""
    work = tmp_path_factory.mktemp("compare")
    path = work / "config.json"
    path.write_text(json.dumps(document))
    code = main(["compare", "--config", str(path), "--out", str(work / "out"), "--quiet"])
    captured = capsys.readouterr()
    assert code in (0, 2, 3) and "Traceback" not in captured.err
    if code != 0:
        event(f"exit {code}")
        return
    lines = (work / "out" / "comparison.csv").read_text().splitlines()
    header, rows = lines[0].split(","), [line.split(",") for line in lines[1:]]
    table = json.loads((work / "out" / "comparison.json").read_text())["comparison"]
    assert table["rows"] and [dict(zip(header, map(_csv_cell_value, row))) for row in rows] == table["rows"]
    event(f"exit 0 with {len(rows)} model(s)")


def _main_exit(argv, capsys):
    """Run one command: its exit code and stdout, after checking the boundary every
    input must keep: exit 0, 2 or 3, no traceback, no numpy warning (raised here), and on
    failure nothing on stdout and exactly one error line on stderr."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(argv)
    captured = capsys.readouterr()
    assert code in (0, 2, 3) and "Traceback" not in captured.err
    if code != 0:
        assert captured.out == ""
        assert [line for line in captured.err.splitlines() if "error:" in line] == [
            captured.err.splitlines()[-1]]
        assert captured.err.startswith(("error: ", "usage: "))
    event(f"exit {code}")
    return code, captured.out


_JUNK_CELLS = st.sampled_from(["", "x", "nan", "-inf", "1e999", "-1", "0", "1e308", "5e-324", '"7"', " 7 "])


@st.composite
def csv_texts(draw):
    """CSV text with 0-4 rows of plausible records, and at most one flaw: a junk cell
    or a constant column; optionally a rupture column, a BOM, CRLF and blank lines."""
    rupture = draw(st.booleans())
    header = list(CSV_HEADER) + ["eps_hrup"] * rupture
    n = draw(st.sampled_from([4, 3, 4, 2, 4, 1, 0]))  # most files have rows enough to train on
    records = make_records(n, seed=draw(st.integers(0, 2 ** 16)), with_rupture=rupture)
    rows = [[repr(float(getattr(r, f))) for f in (*FIELDS, "eps_h_rup")[:len(header)]] for r in records]
    flaw = draw(st.sampled_from([None, None, None, "junk", "constant"]))
    column = draw(st.integers(0, len(header) - 1))
    if rows and flaw == "junk":
        rows[draw(st.integers(0, len(rows) - 1))][column] = draw(_JUNK_CELLS)
    elif flaw == "constant":
        for row in rows:
            row[column] = rows[0][column]
    lines = [",".join(header), *(",".join(row) for row in rows)]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", ",,,"])))
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    return ("\ufeff" if draw(st.booleans()) else "") + text


_NON_FINITE = ["nan", "inf", "-inf"]
_TRAIN_CONFIGS = (st.dictionaries(st.sampled_from(["seed", "population", "iterations", "epochs", "learning_rate",
                                                     "inertia_weight", "pulse_rate", "unknown"]),
                                    st.integers(-2, 3) | st.floats(-1.0, 2.0) | st.sampled_from(
                                        [None, True, "x", math.nan, 10 ** 400]), max_size=3)
                  | st.sampled_from(["not json {", [], 5, "pso"]))


@st.composite
def train_arguments(draw, dataset, work):
    """train flags: a model and small settings, at most one of them bad or a config document."""
    model = draw(st.sampled_from(cli.TRAINABLE_MODELS))
    flaw = draw(st.sampled_from([None, "iterations", None, "neurons", None, "fraction", None, "population",
                                 None, "seed", None, "config"]))
    values = {
        "iterations": draw(st.integers(1, 3).map(str)),  # always given: the default is 900
        "neurons": draw(st.integers(1, 3).map(str)),
        "train-fraction": draw(st.sampled_from(["1", "0.75"]) | st.floats(0.3, 1.0).map(repr)),
        "population": None if model == "ann" else draw(st.none() | st.integers(3, 4).map(str)),
        "seed": draw(st.none() | st.integers(0, 2 ** 70).map(str)),
    }
    bad = {"iterations": st.sampled_from(["0", "-1", "1.5", "nan"]), "neurons": st.sampled_from(["0", "-1"]),
           "fraction": st.sampled_from(["0", "1.5", "0.01", *_NON_FINITE]),
           "population": st.sampled_from(["-1", "1", "2", "3"]), "seed": st.sampled_from(["-3", *_NON_FINITE])}
    if flaw in bad:
        values["train-fraction" if flaw == "fraction" else flaw] = draw(bad[flaw])
    # each value joined to its flag, so that "-inf" is a value, not an option
    argv = ["train", dataset, "--model", model, "--out", str(work / "out"), "--quiet",
            *(f"--{flag}={value}" for flag, value in values.items() if value is not None)]
    if flaw == "config":
        config = draw(_TRAIN_CONFIGS)
        path = work / "config.json"
        path.write_text(config if isinstance(config, str) else json.dumps(config))
        argv += ["--config", str(path)]
    return argv


class TestDatasetCommandsProperty:
    """stats, validate, train, evaluate and synth on generated inputs, through cli.main."""

    @pytest.fixture(scope="class")
    def trained_ann(self, tmp_path_factory):
        work = tmp_path_factory.mktemp("evaluate_model")
        (work / "data.csv").write_text(records_to_csv(make_records(40, seed=1)))
        argv = ["train", str(work / "data.csv"), "--model", "ann", "--iterations", "5", "--out", str(work), "--quiet"]
        assert main(argv) == 0
        return str(work / "model_ann.json")

    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), fmt=st.sampled_from(["text", "json"]), out=st.booleans())
    def test_stats(self, text, fmt, out, tmp_path_factory, capsys):
        work = tmp_path_factory.mktemp("stats")
        (work / "data.csv").write_text(text, encoding="utf-8", newline="")
        argv = ["stats", str(work / "data.csv"), "--format", fmt, "--quiet"]
        code, stdout = _main_exit(argv + ["--out", str(work / "out")] * out, capsys)
        if code == 0 and fmt == "json":
            assert json.loads(stdout)["summary"]["n"] >= 2
        if code == 0 and out:
            assert sorted(p.name for p in (work / "out").iterdir()) == ["correlation.csv", "summary.csv",
                                                                      "summary.json"]

    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), fmt=st.sampled_from(["text", "json"]))
    def test_validate(self, text, fmt, tmp_path_factory, capsys):
        work = tmp_path_factory.mktemp("validate")
        (work / "data.csv").write_text(text, encoding="utf-8", newline="")
        code, stdout = _main_exit(["validate", str(work / "data.csv"), "--format", fmt], capsys)
        if code == 0 and fmt == "json":
            assert json.loads(stdout)["n_records"] >= 1

    @settings(max_examples=60, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), data=st.data())
    def test_train(self, text, data, tmp_path_factory, capsys):
        work = tmp_path_factory.mktemp("train")
        (work / "data.csv").write_text(text, encoding="utf-8", newline="")
        argv = data.draw(train_arguments(str(work / "data.csv"), work), label="argv")
        code, _ = _main_exit(argv, capsys)
        if code == 0:
            model = argv[argv.index("--model") + 1]
            neurons = int(next(arg for arg in argv if arg.startswith("--neurons=")).partition("=")[2])
            assert load_model(work / "out" / f"model_{model}.json").params[1].size == neurons

    @settings(max_examples=80, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(text=csv_texts(), fmt=st.sampled_from(["text", "json"]))
    def test_evaluate(self, trained_ann, text, fmt, tmp_path_factory, capsys):
        work = tmp_path_factory.mktemp("evaluate")
        (work / "data.csv").write_text(text, encoding="utf-8", newline="")
        code, stdout = _main_exit(["evaluate", trained_ann, str(work / "data.csv"), "--format", fmt], capsys)
        assert code in (0, 2)
        if code == 0 and fmt == "json":
            assert json.loads(stdout)["n"] == len(parse_dataset(work / "data.csv"))

    @settings(max_examples=40, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_synth(self, data, tmp_path_factory, capsys):
        draw = data.draw
        flaw = draw(st.sampled_from([None, "n", None, "noise", None, "seed"]), label="flaw")
        n = draw(st.integers(0, 9) if flaw == "n" else st.integers(10, 40), label="n")
        noise = draw(st.sampled_from(["-0.1", "1e999", *_NON_FINITE]) if flaw == "noise"
                     else st.floats(0.0, 0.3).map(repr), label="noise")
        seed = draw(st.sampled_from(["-1", "-3", "1.5", *_NON_FINITE]) if flaw == "seed"
                    else st.integers(0, 2 ** 70).map(str), label="seed")
        work = tmp_path_factory.mktemp("synth")
        argv = ["synth", f"--n={n}", f"--noise={noise}", f"--seed={seed}", "--out", str(work), "--quiet"]
        code, _ = _main_exit(argv, capsys)
        assert (work / "synth.csv").exists() == (code == 0)
        if code == 0:
            assert len(parse_dataset(work / "synth.csv")) == n


class TestSynth:
    def test_writes_parseable_csv(self, tmp_path, capsys):
        out = tmp_path / "data"
        assert main(["synth", "--n", "30", "--seed", "4", "--out", str(out), "--quiet"]) == 0
        records = parse_dataset(out / "synth.csv")
        assert len(records) == 30
        assert all(r.eps_h_rup is not None for r in records)

    def test_deterministic(self, tmp_path):
        blobs = []
        for sub in ("x", "y"):
            out = tmp_path / sub
            assert main(["synth", "--n", "20", "--seed", "9", "--out", str(out), "--quiet"]) == 0
            blobs.append((out / "synth.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_negative_seed_named(self, tmp_path, capsys):
        assert main(["synth", "--n", "20", "--seed", "-1", "--out", str(tmp_path), "--quiet"]) == 2
        assert capsys.readouterr().err == "error: seed must be non-negative\n"
        assert not (tmp_path / "synth.csv").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_exit_2(self, noise, tmp_path, capsys):
        assert main(["synth", "--n", "20", "--noise", noise, "--out", str(tmp_path), "--quiet"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: noise_fraction") and err.count("\n") == 1
        assert not (tmp_path / "synth.csv").exists()


# A small valid config for each command; each bad input is merged into it.
GOOD_CONFIGS = {
    "compare": {"synth": {"n": 40}, "roster": ["pso", "lam_teng"], "hidden_neurons": 3,
                "models": {"pso": {"population": 4, "iterations": 3}}},
    "train": {"population": 4, "iterations": 3},
}
BAD_CONFIGS = [
    ("compare", {"hidden_neurons": "5"}),
    ("compare", {"seed": math.nan}),
    ("compare", 5),
    ("compare", {"features": 5}),
    ("compare", {"synth": 5}),
    ("compare", {"models": {"pso": 5}}),
    ("compare", {"models": {"nonlinear": {"k": 1}}, "roster": ["pso", "lam_teng", "nonlinear"]}),
    ("train", {"population": 7.5}),
    ("train", {"iterations": math.inf}),
    ("train", {"inertia_weight": 10**400}),  # an int too large for a float
    ("train", {"population": 2**63}),  # a population numpy cannot count
    ("train", {"population": 10**400}),
    ("compare", {"models": {"pso": {"population": 10**400}}}),
    # the weight box, the network and the training length are fixed, not settings
    ("compare", {"models": {"ann": {"init_half_width": 0.25}}}),
    ("compare", {"models": {"ann": {"early_stop_patience": 5}}}),
    ("compare", {"hidden_activation": "relu"}),
]


def _run_config(command, data, dataset_csv, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    argv = (["compare", "--config", str(path)] if command == "compare"
            else ["train", dataset_csv, "--model", "pso", "--config", str(path)])
    return main(argv + ["--out", str(tmp_path / "out"), "--quiet"])


@pytest.mark.parametrize("command", sorted(GOOD_CONFIGS))
def test_good_configs_run(command, dataset_csv, tmp_path, capsys):
    assert _run_config(command, GOOD_CONFIGS[command], dataset_csv, tmp_path) == 0


def test_huge_seed_trains(dataset_csv, tmp_path, capsys):
    # unlike the population, a seed has no upper bound: SeedSequence takes any non-negative int
    assert _run_config("train", {**GOOD_CONFIGS["train"], "seed": 10**400}, dataset_csv, tmp_path) == 0


@pytest.mark.parametrize("command, bad", BAD_CONFIGS)
def test_bad_config_exit_2_without_traceback(command, bad, dataset_csv, tmp_path, capsys):
    data = {**GOOD_CONFIGS[command], **bad} if isinstance(bad, dict) else bad
    assert _run_config(command, data, dataset_csv, tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
