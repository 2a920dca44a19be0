import dataclasses
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

from imbcal import backbone, calibration, dataset, harness, memory
from imbcal.cli import main
from imbcal.dataset import TEST, DatasetTable
from imbcal.errors import ParameterError
from imbcal.harness import (
    ALL_METHODS,
    ExperimentConfig,
    SyntheticSpec,
    config_from_dict,
    run_experiment,
    summarize,
    write_outputs,
)


def small_config(**overrides):
    base = dict(
        num_states=3,
        memory=18,
        synthetic=SyntheticSpec(classes=9, dim=6, per_class=30,
                                separation=4.0, noise=1.0, test_per_class=8),
        imbalance_kind="soft",
        data_seed=5,
        model_seed=6,
        protocol_seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture
def no_draw(monkeypatch):
    """Make drawing the class centres, the first draw of a synthetic table, fail."""
    def fail(*args):
        raise AssertionError("data drawn")

    monkeypatch.setattr("imbcal.dataset._centers", fail)


@pytest.fixture(scope="module")
def small_run():
    cfg = small_config()
    return cfg, *run_experiment(cfg)


class TestRunExperiment:
    def test_one_report_per_state(self, small_run):
        _, reports, _ = small_run
        assert [r.state_index for r in reports] == [1, 2, 3]

    def test_every_method_reported(self, small_run):
        _, reports, summary = small_run
        for r in reports:
            assert set(r.per_method) == set(ALL_METHODS)
        assert set(summary) == set(ALL_METHODS)

    def test_first_state_has_no_old_group(self, small_run):
        _, reports, _ = small_run
        assert reports[0].mean_score_old is None
        assert all(r.mean_score_old is not None for r in reports[1:])

    def test_summary_averages_states_two_onward(self, small_run):
        _, reports, summary = small_run
        for m in ALL_METHODS:
            expected = np.mean([r.per_method[m].top1 for r in reports[1:]])
            assert summary[m]["avg_top1"] == pytest.approx(expected)

    def test_metrics_in_valid_ranges(self, small_run):
        _, reports, _ = small_run
        for r in reports:
            for res in r.per_method.values():
                assert 0.0 <= res.top1 <= 100.0
                assert 0.0 <= res.ece <= 1.0

    def test_rerun_is_bit_identical(self, small_run, tmp_path):
        cfg, reports, summary = small_run
        reports2, summary2 = run_experiment(small_config())
        a, b = tmp_path / "a", tmp_path / "b"
        write_outputs(reports, summary, a)
        write_outputs(reports2, summary2, b)
        for name in ("states.csv", "summary.json", "figdata.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_fixed_class_order_round_trips(self):
        order = tuple(reversed(range(9)))
        cfg = small_config(class_order=order, methods=("none",))
        reports, _ = run_experiment(cfg)
        assert len(reports) == 3

    @pytest.mark.parametrize("methods, per_state", [
        (("none",), 2),  # the training table and the test table
        (ALL_METHODS, 3),  # and bal's balanced table
    ])
    def test_each_state_builds_its_tables_once(self, monkeypatch, methods, per_state):
        built, states = [], []
        init, run_state = DatasetTable.__init__, harness._run_state

        def counted_init(self, *args):
            built.append(self)
            init(self, *args)

        def counted_state(*args):
            start = len(built)
            out = run_state(*args)
            states.append(len(built) - start)
            return out

        monkeypatch.setattr(DatasetTable, "__init__", counted_init)
        monkeypatch.setattr(harness, "_run_state", counted_state)
        reports, _ = run_experiment(small_config(methods=methods))
        assert set(reports[0].per_method) == set(methods)
        assert states == [per_state] * 3

    def test_each_method_fits_after_the_last_ones_scores_are_freed(self, monkeypatch):
        # a state holds one calibrated score matrix at a time: when a method
        # fits, the last method's scores and predictions are already freed
        fit, apply, predict = calibration.fit, calibration.apply, calibration.predict
        last = []  # weak references to the last method's scores and predictions

        def checking_fit(method, *args):
            assert all(ref() is None for ref in last), method
            return fit(method, *args)

        def recording_apply(*args):
            out = apply(*args)
            last[:] = [weakref.ref(out)]
            return out

        def recording_predict(scores):
            preds = predict(scores)
            last.append(weakref.ref(preds))
            return preds

        monkeypatch.setattr(calibration, "fit", checking_fit)
        monkeypatch.setattr(calibration, "apply", recording_apply)
        monkeypatch.setattr(calibration, "predict", recording_predict)
        reports, _ = run_experiment(small_config())
        assert set(reports[-1].per_method) == set(ALL_METHODS)

    def test_no_test_scores_are_alive_while_a_method_fits(self, monkeypatch):
        # while a method fits, the only live score matrices are its
        # context's: each method's test scores are made after its fit
        scores, fit = backbone.scores, calibration.fit
        made = []  # weak references to every score matrix made
        fitted = []

        def recording_scores(*args):
            out = scores(*args)
            made.append(weakref.ref(out))
            return out

        def checking_fit(method, ctx, *args):
            own = [id(a) for a in (ctx.train_scores, ctx.val_scores) if a is not None]
            assert [id(ref()) for ref in made if ref() is not None] == own, method
            fitted.append(method)
            return fit(method, ctx, *args)

        monkeypatch.setattr(backbone, "scores", recording_scores)
        monkeypatch.setattr(calibration, "fit", checking_fit)
        run_experiment(small_config())
        assert fitted == list(ALL_METHODS) * 3

    def test_the_training_copy_is_freed_before_admission(self, monkeypatch):
        # herding runs without the (train rows, d) features the state trained on
        train, admit = backbone.train, memory.admit_and_rebalance
        trained, freed = [], []

        def recording_train(model, table, config):
            trained.append(weakref.ref(table.features))
            return train(model, table, config)

        def checking_admit(*args):
            freed.append(trained[-1]() is None)
            return admit(*args)

        monkeypatch.setattr(backbone, "train", recording_train)
        monkeypatch.setattr(memory, "admit_and_rebalance", checking_admit)
        run_experiment(small_config())
        assert freed == [True] * 3

    @pytest.mark.parametrize("methods, per_state", [
        (("none", "th", "mb"), 0),
        (("none", "iso", "th"), 1),
        (("pl", "mb"), 1),
        (("iso", "th", "pl"), 1),  # once, for both
    ])
    def test_training_rows_are_scored_only_for_iso_and_pl(self, monkeypatch, methods, per_state):
        scores, train, run_state = backbone.scores, backbone.train, harness._run_state
        trained, calls, states = [], [], []

        def recording_train(model, table, config):
            trained.append(weakref.ref(table.features))
            return train(model, table, config)

        def counted_scores(model, features):
            if features is trained[-1]():
                calls.append(None)
            return scores(model, features)

        def counted_state(*args):
            start = len(calls)
            out = run_state(*args)
            states.append(len(calls) - start)
            return out

        monkeypatch.setattr(backbone, "train", recording_train)
        monkeypatch.setattr(backbone, "scores", counted_scores)
        monkeypatch.setattr(harness, "_run_state", counted_state)
        run_experiment(small_config(methods=methods))
        assert states == [per_state] * 3

    def test_methods_after_the_last_of_iso_and_pl_get_no_training_scores(self, monkeypatch):
        fit, seen = calibration.fit, []

        def recording_fit(method, ctx, *args):
            seen.append((method, ctx.train_scores is None))
            return fit(method, ctx, *args)

        monkeypatch.setattr(calibration, "fit", recording_fit)
        methods = ("none", "iso", "th", "pl", "mb", "fj")
        run_experiment(small_config(methods=methods))
        assert seen == [(m, m in ("mb", "fj")) for m in methods] * 3

    def test_no_method_writes_into_raw(self, monkeypatch):
        # each score-reading method overwrites test scores of its own: every
        # one is handed the state's raw scores, whatever ran before it
        apply, seen = calibration.apply, []

        def recording_apply(state, raw, features):
            if raw is not None:
                seen.append((features.shape, raw.tobytes()))
            return apply(state, raw, features)

        monkeypatch.setattr(calibration, "apply", recording_apply)
        assert ALL_METHODS[0] == "none"
        run_experiment(small_config())
        by_state = {}
        for shape, raw in seen:
            by_state.setdefault(shape, set()).add(raw)
        score_methods = [m for m in ALL_METHODS if m not in calibration.FEATURE_METHODS]
        assert len(seen) == 3 * len(score_methods)
        assert [len(raws) for raws in by_state.values()] == [1] * 3

    def test_no_stored_row_is_a_test_row_at_any_readme_state(self, monkeypatch):
        from test_golden import README_CONFIG

        admit, stored = memory.admit_and_rebalance, []

        def recording_admit(buffer, table, rows):
            buffer = admit(buffer, table, rows)
            stored.append(table.splits[memory.memory_dataset(buffer)])
            return buffer

        monkeypatch.setattr(memory, "admit_and_rebalance", recording_admit)
        cfg = config_from_dict(README_CONFIG)
        run_experiment(cfg)
        assert [len(splits) for splits in stored] == [cfg.memory] * cfg.num_states
        assert not any(TEST in splits for splits in stored)


class TestBuildTable:
    def test_labels_are_remapped_to_introduction_order(self, monkeypatch):
        source = DatasetTable(np.arange(10.0).reshape(5, 2), [7, 3, 7, 0, 3], ["train"] * 5)
        monkeypatch.setattr(dataset, "generate_synthetic", lambda *args, **kwargs: source)
        cfg = small_config(imbalance_kind="none", class_order=(3, 7, 0))
        table, plan = harness._build_table(cfg)
        assert plan.ordering == (3, 7, 0)
        assert table.labels.tolist() == [1, 0, 1, 2, 0]
        assert table.labels.dtype == np.int64
        assert np.array_equal(table.features, source.features)

    # soft keeps a class of at most 50 train rows whole, so small_config's drops none
    @pytest.mark.parametrize("kind, copied", [("none", False), ("soft", False), ("strong", True)])
    def test_only_an_imbalance_that_drops_a_row_copies_the_features(
        self, monkeypatch, kind, copied
    ):
        generate, admit = dataset.generate_synthetic, memory.admit_and_rebalance
        made, seen = [], []

        def recording_generate(*args, **kwargs):
            made.append(generate(*args, **kwargs))
            return made[-1]

        def recording_admit(buffer, table, rows):
            seen.append(table)
            return admit(buffer, table, rows)

        monkeypatch.setattr(dataset, "generate_synthetic", recording_generate)
        monkeypatch.setattr(memory, "admit_and_rebalance", recording_admit)
        cfg = small_config(imbalance_kind=kind, methods=("none",))
        run_experiment(cfg)
        assert len(made) == 1 and len(seen) == cfg.num_states
        assert all(np.shares_memory(t.features, made[0].features) != copied for t in seen)
        assert all(t is seen[0] for t in seen)


class TestWriteOutputs:
    def test_states_csv_matches_reports(self, small_run, tmp_path):
        _, reports, summary = small_run
        write_outputs(reports, summary, tmp_path)
        lines = (tmp_path / "states.csv").read_text().strip().splitlines()
        assert lines[0] == "state,method,top1,ece,mean_old,mean_new"
        assert len(lines) == 1 + 3 * len(ALL_METHODS)
        first = lines[1].split(",")
        assert first[0] == "1" and first[4] == ""  # no old group at state 1

    def test_summary_json_cross_checks_csv(self, small_run, tmp_path):
        _, reports, summary = small_run
        write_outputs(reports, summary, tmp_path)
        stored = json.loads((tmp_path / "summary.json").read_text())
        rows = (tmp_path / "states.csv").read_text().strip().splitlines()[1:]
        none_top1 = [float(r.split(",")[2]) for r in rows
                     if r.split(",")[1] == "none" and r.split(",")[0] != "1"]
        assert stored["none"]["avg_top1"] == pytest.approx(np.mean(none_top1), abs=1e-6)  # CSV stores 10 significant digits

    def test_figdata_skips_first_state(self, small_run, tmp_path):
        _, reports, summary = small_run
        write_outputs(reports, summary, tmp_path)
        lines = (tmp_path / "figdata.csv").read_text().strip().splitlines()
        assert lines[0] == "state,mu_old,mu_new"
        assert [l.split(",")[0] for l in lines[1:]] == ["2", "3"]


class TestConfig:
    def test_from_dict_full_schema(self):
        cfg = config_from_dict({
            "num_states": 4,
            "memory": 20,
            "data": {"synthetic": {"classes": 8, "dim": 4, "per_class": 20}},
            "imbalance": "strong",
            "train": {"epochs": 10, "lr": 0.05},
            "seeds": {"data": 1, "model": 2, "protocol": 3},
            "methods": ["none", "th"],
            "ece_bins": 10,
        })
        assert cfg.num_states == 4
        assert cfg.train.epochs == 10 and cfg.train.initial_lr == 0.05
        assert cfg.methods == ("none", "th")
        assert cfg.ece_bins == 10

    def test_missing_required_key(self):
        with pytest.raises(ParameterError):
            config_from_dict({"memory": 5, "data": {}})

    def test_both_data_sources_rejected(self):
        with pytest.raises(ParameterError):
            ExperimentConfig(num_states=2, memory=5,
                             synthetic=SyntheticSpec(4, 2, 5),
                             features_path="x.csv", manifest_path="x.json")

    # the dataclass checks a list's entries before it reads them as tags
    @pytest.mark.parametrize("methods, message", [
        (("none", "magic"), "unknown calibrator tags: ['magic']"),
        (("x", 1), "methods entries must be JSON strings, got 1"),
    ])
    def test_unknown_method_rejected(self, methods, message):
        with pytest.raises(ParameterError) as exc:
            small_config(methods=methods)
        assert str(exc.value) == message

    @pytest.mark.parametrize("field, value, message", [
        ("methods", (["x"],), "methods entries must be JSON strings, got ['x']"),
        ("methods", ("none", True), "methods entries must be JSON strings, got True"),
        ("class_order", (0, "a", 1, 2), "class_order entries must be JSON integers, got 'a'"),
        ("class_order", (0, 1, 2.0), "class_order entries must be JSON integers, got 2.0"),
        ("class_order", (True, 0), "class_order entries must be JSON integers, got True"),
    ])
    def test_a_config_built_directly_checks_list_entries(self, field, value, message):
        # the same refusal as config_from_dict's, before anything reads the entries
        with pytest.raises(ParameterError) as exc:
            small_config(**{field: value})
        assert str(exc.value) == message

    def test_methods_string_rejected_as_not_a_list(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "num_states": 2, "memory": 8, "methods": "none",
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }))
        assert main(["run", "--config", str(path)]) == 2
        assert "methods must be a JSON list of tags, got 'none'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("seeds", "abc", "seeds must be a JSON object, got 'abc'"),
        ("train", [1], "train must be a JSON object, got [1]"),
        ("class_order", "3120", "class_order must be a JSON list of class ids, got '3120'"),
    ])
    def test_wrongly_typed_section_exits_2_naming_the_key(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        def no_run(cfg):
            raise AssertionError("experiment started")

        monkeypatch.setattr("imbcal.harness.run_experiment", no_run)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "num_states": 2, "memory": 8, key: value,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }))
        assert main(["run", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    @staticmethod
    def _no_run(monkeypatch):
        def no_run(cfg):
            raise AssertionError("experiment started")

        monkeypatch.setattr("imbcal.harness.run_experiment", no_run)

    @pytest.mark.parametrize("keys, value, name", [
        (("memory",), 3.7, "memory"),
        (("memory",), True, "memory"),
        (("num_states",), 2.0, "num_states"),
        (("data", "synthetic", "classes"), 4.0, "synthetic.classes"),
        (("data", "synthetic", "dim"), True, "synthetic.dim"),
        (("data", "synthetic", "per_class"), 15.5, "synthetic.per_class"),
        (("data", "synthetic", "test_per_class"), False, "synthetic.test_per_class"),
        (("train", "epochs"), 5.0, "train.epochs"),
        (("train", "batch_size"), True, "train.batch_size"),
        (("train", "patience"), 2.5, "train.patience"),
        (("seeds", "data"), 1.0, "seeds.data"),
        (("seeds", "model"), False, "seeds.model"),
        (("seeds", "protocol"), 3.5, "seeds.protocol"),
        (("ece_bins",), 10.0, "ece_bins"),
    ])
    def test_integer_keys_refuse_floats_and_bools(
        self, tmp_path, capsys, monkeypatch, keys, value, name
    ):
        self._no_run(monkeypatch)
        cfg = {
            "num_states": 2, "memory": 8, "train": {}, "seeds": {},
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }
        section = cfg
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path)]) == 2
        assert f"{name} must be a JSON integer, got {value!r}" in capsys.readouterr().err

    @staticmethod
    def _with(cfg, keys, value):
        section = cfg
        for key in keys[:-1]:
            section = section.setdefault(key, {})
        section[keys[-1]] = value
        return cfg

    FLOAT_KEYS = [
        (("train", "lr"), "train.lr"),
        (("train", "decay"), "train.decay"),
        (("val_fraction",), "val_fraction"),
        (("data", "synthetic", "separation"), "synthetic.separation"),
        (("data", "synthetic", "noise"), "synthetic.noise"),
    ]

    @pytest.mark.parametrize("keys, name", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [True, "7"])
    def test_float_keys_refuse_bools_and_strings(
        self, tmp_path, capsys, monkeypatch, keys, name, value
    ):
        self._no_run(monkeypatch)
        base = {
            "num_states": 2, "memory": 8,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._with(base, keys, value)))
        assert main(["run", "--config", str(path)]) == 2
        assert f"{name} must be a JSON number, got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("keys, name", FLOAT_KEYS)
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_float_keys_refuse_non_finite_values_before_training(
        self, tmp_path, capsys, monkeypatch, keys, name, value
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("imbcal.backbone.train", no_training)
        base = {
            "num_states": 2, "memory": 8,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }
        path = tmp_path / "cfg.json"
        # json writes NaN, Infinity and -Infinity, which json.load reads back
        path.write_text(json.dumps(self._with(base, keys, value)))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"{name} must be finite, got {value!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_float_keys_read_integers_as_floats_and_refuse_bools(self):
        base = {
            "num_states": 2, "memory": 8, "train": {"lr": 1},
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15,
                                   "separation": 7, "noise": 0}},
        }
        cfg = config_from_dict(base)
        read = (cfg.train.initial_lr, cfg.synthetic.separation, cfg.synthetic.noise)
        assert read == (1.0, 7.0, 0.0) and all(type(v) is float for v in read)
        with pytest.raises(ParameterError, match="train.lr must be a JSON number, got True"):
            config_from_dict(self._with(base, ("train", "lr"), True))

    @pytest.mark.parametrize("keys, name", FLOAT_KEYS)
    def test_integer_too_large_for_a_float_key_exits_2(
        self, tmp_path, capsys, monkeypatch, keys, name
    ):
        self._no_run(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._with({
            "num_states": 2, "memory": 8,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }, keys, 10**400)))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {name} is an integer too large to convert to float\n"

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", 0, "train.epochs must be >= 1"),
        ("lr", -1, "train.lr must be > 0"),
        ("lr", 0, "train.lr must be > 0"),
        ("patience", 0, "train.patience must be >= 1"),
        ("decay", 2, "train.decay must be in (0, 1)"),
        ("decay", 0, "train.decay must be in (0, 1)"),
        ("batch_size", 0, "train.batch_size must be >= 1"),
    ])
    def test_each_train_refusal_names_its_key_before_data_is_built(
        self, tmp_path, capsys, monkeypatch, key, value, message
    ):
        self._no_data(monkeypatch)
        err = self._refused(tmp_path, capsys, {
            "num_states": 2, "memory": 8, "train": {key: value}, "data": self.SYNTHETIC,
        })
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("keys, name", [
        (("data", "features", "features_path"), "features.features_path"),
        (("data", "features", "manifest_path"), "features.manifest_path"),
        (("imbalance",), "imbalance"),
        (("output_dir",), "output_dir"),
    ])
    @pytest.mark.parametrize("value", [5, ["a"], True])
    def test_string_keys_refuse_other_types(
        self, tmp_path, capsys, monkeypatch, keys, name, value
    ):
        self._no_run(monkeypatch)
        cfg = {
            "num_states": 2, "memory": 8,
            "data": {"features": {"features_path": "f.csv", "manifest_path": "f.json"}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(self._with(cfg, keys, value)))
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"{name} must be a JSON string, got {value!r}" in err
        assert "Traceback" not in err

    def test_null_output_dir_means_absent_but_a_number_is_refused(self):
        cfg = {
            "num_states": 2, "memory": 8,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }
        assert config_from_dict({**cfg, "output_dir": None}).output_dir is None
        with pytest.raises(ParameterError, match="output_dir must be a JSON string"):
            config_from_dict({**cfg, "output_dir": 5})

    def test_empty_methods_rejected(self, tmp_path, capsys, monkeypatch):
        self._no_run(monkeypatch)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "num_states": 2, "memory": 8, "methods": [],
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}},
        }))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "methods must name at least one calibrator tag" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @staticmethod
    def _no_training(monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("imbcal.backbone.train", no_training)

    def _refused(self, tmp_path, capsys, cfg):
        """Run ``cfg``; assert exit 2, no traceback, no outputs; return stderr."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert not out.exists()
        return err

    SYNTHETIC = {"synthetic": {"classes": 4, "dim": 3, "per_class": 15}}
    FEATURES = {"features": {"features_path": "f.csv", "manifest_path": "f.json"}}

    @pytest.mark.parametrize("data, keys, name", [
        (SYNTHETIC, ("methds",), "methds"),
        (SYNTHETIC, ("data", "source"), "data.source"),
        (SYNTHETIC, ("data", "synthetic", "classs"), "synthetic.classs"),
        (FEATURES, ("data", "features", "feature_path"), "features.feature_path"),
        (SYNTHETIC, ("train", "epoch"), "train.epoch"),
        (SYNTHETIC, ("seeds", "dat"), "seeds.dat"),
    ])
    def test_undefined_keys_exit_2_naming_the_key(
        self, tmp_path, capsys, monkeypatch, data, keys, name
    ):
        self._no_training(monkeypatch)
        cfg = {"num_states": 2, "memory": 8, "data": json.loads(json.dumps(data))}
        err = self._refused(tmp_path, capsys, self._with(cfg, keys, 3))
        assert f"unknown config key {name}" in err

    @pytest.mark.parametrize("cfg, message", [
        ({"data": {"synthetic": 5}}, "data.synthetic must be a JSON object, got 5"),
        ({"data": {"features": "f.csv"}}, "data.features must be a JSON object, got 'f.csv'"),
        ({"data": [1]}, "data must be a JSON object, got [1]"),
        ([], "the experiment config must be a JSON object"),
    ])
    def test_non_object_sections_exit_2_naming_them(
        self, tmp_path, capsys, monkeypatch, cfg, message
    ):
        self._no_training(monkeypatch)
        if isinstance(cfg, dict):
            cfg = {"num_states": 2, "memory": 8, **cfg}
        assert message in self._refused(tmp_path, capsys, cfg)

    @pytest.mark.parametrize("data", [{**SYNTHETIC, **FEATURES}, {}])
    def test_data_needs_exactly_one_source(self, tmp_path, capsys, monkeypatch, data):
        self._no_training(monkeypatch)
        err = self._refused(tmp_path, capsys, {"num_states": 2, "memory": 8, "data": data})
        assert "data must configure exactly one of 'synthetic' or 'features'" in err

    @pytest.mark.parametrize("bins, message", [
        (0, "ece_bins must be >= 1, got 0"),
        (-3, "ece_bins must be >= 1, got -3"),
        (2**62 + 1, "ece_bins must be at most 2**62"),
        (10**30, "ece_bins must be at most 2**62"),
        (10**400, "ece_bins must be at most 2**62"),
    ])
    def test_ece_bins_out_of_range_exit_2_before_training(
        self, tmp_path, capsys, monkeypatch, bins, message
    ):
        self._no_training(monkeypatch)
        err = self._refused(tmp_path, capsys, {
            "num_states": 2, "memory": 8, "ece_bins": bins, "data": self.SYNTHETIC,
        })
        assert err == f"error: {message}\n"

    @staticmethod
    def _no_data(monkeypatch):
        def no_data(*args, **kwargs):
            raise AssertionError("data was built")

        monkeypatch.setattr("imbcal.dataset.generate_synthetic", no_data)
        monkeypatch.setattr("imbcal.dataset.load_features", no_data)

    @pytest.mark.parametrize("data", [SYNTHETIC, FEATURES], ids=["synthetic", "features"])
    @pytest.mark.parametrize("key, value, message", [
        ("imbalance", "medium", "imbalance must be one of none, soft, strong, got 'medium'"),
        ("imbalance", "Strong", "imbalance must be one of none, soft, strong, got 'Strong'"),
        ("val_fraction", 1.5, "val_fraction must be in (0, 1), got 1.5"),
        ("val_fraction", 1, "val_fraction must be in (0, 1), got 1.0"),
        ("val_fraction", 0, "val_fraction must be in (0, 1), got 0.0"),
        ("val_fraction", -0.25, "val_fraction must be in (0, 1), got -0.25"),
    ])
    def test_imbalance_and_val_fraction_refused_before_data_is_built(
        self, tmp_path, capsys, monkeypatch, data, key, value, message
    ):
        self._no_data(monkeypatch)
        err = self._refused(tmp_path, capsys, {
            "num_states": 2, "memory": 8, key: value, "data": data,
        })
        assert message in err

    @pytest.mark.parametrize("order, message", [
        ([0, 1.9, 2, 3], "class_order entries must be JSON integers, got 1.9"),
        ([True, False, 2, 3], "class_order entries must be JSON integers, got True"),
        (["3", "2", "1", "0"], "class_order entries must be JSON integers, got '3'"),
        ([], "fixed order is not a permutation of the class ids"),
    ])
    def test_class_order_needs_integer_entries_before_training(
        self, tmp_path, capsys, monkeypatch, order, message
    ):
        self._no_training(monkeypatch)
        err = self._refused(tmp_path, capsys, {
            "num_states": 2, "memory": 8, "class_order": order, "data": self.SYNTHETIC,
        })
        assert message in err

    @pytest.mark.parametrize("methods, message", [
        (["x", 1], "methods entries must be JSON strings, got 1"),
        (["iso", 1], "methods entries must be JSON strings, got 1"),
        (["none", None], "methods entries must be JSON strings, got None"),
        (["th", ["mb"]], "methods entries must be JSON strings, got ['mb']"),
        (["iso", "iso", "th"], "methods lists iso twice"),
        (["th", "none", "mb", "none"], "methods lists none twice"),
    ])
    def test_methods_need_distinct_string_entries_before_data_is_built(
        self, tmp_path, capsys, monkeypatch, methods, message
    ):
        cfg = {"num_states": 2, "memory": 8, "methods": methods, "data": self.SYNTHETIC}
        with pytest.raises(ParameterError) as exc:
            config_from_dict(cfg)
        assert str(exc.value) == message
        self._no_data(monkeypatch)
        assert f"error: {message}\n" in self._refused(tmp_path, capsys, cfg)

    def test_a_tag_listed_twice_is_refused_by_the_dataclass(self):
        with pytest.raises(ParameterError, match="^methods lists iso twice$"):
            small_config(methods=["iso", "th", "iso"])

    def test_null_or_absent_class_order_means_shuffle(self):
        cfg = {"num_states": 2, "memory": 8, "data": self.SYNTHETIC}
        assert config_from_dict(cfg).class_order is None
        assert config_from_dict({**cfg, "class_order": None}).class_order is None
        assert config_from_dict({**cfg, "class_order": [3, 1, 0, 2]}).class_order == (3, 1, 0, 2)

    @pytest.mark.parametrize("keys, field", [
        (("class_order",), "class_order"),
        (("output_dir",), "output_dir"),
        (("data", "synthetic", "test_per_class"), "test_per_class"),
    ])
    def test_nullable_keys_read_null_as_none(self, keys, field):
        base = {"num_states": 2, "memory": 8, "data": json.loads(json.dumps(self.SYNTHETIC))}
        cfg = config_from_dict(self._with(base, keys, None))
        assert getattr(cfg.synthetic if keys[0] == "data" else cfg, field) is None

    @pytest.mark.parametrize("data, keys, message", [
        (SYNTHETIC, ("num_states",), "num_states must be a JSON integer"),
        (SYNTHETIC, ("memory",), "memory must be a JSON integer"),
        (SYNTHETIC, ("data",), "data must be a JSON object"),
        (SYNTHETIC, ("imbalance",), "imbalance must be a JSON string"),
        (SYNTHETIC, ("train",), "train must be a JSON object"),
        (SYNTHETIC, ("methods",), "methods must be a JSON list of tags"),
        (SYNTHETIC, ("val_fraction",), "val_fraction must be a JSON number"),
        (SYNTHETIC, ("seeds",), "seeds must be a JSON object"),
        (SYNTHETIC, ("ece_bins",), "ece_bins must be a JSON integer"),
        (SYNTHETIC, ("data", "synthetic"), "data.synthetic must be a JSON object"),
        (FEATURES, ("data", "features"), "data.features must be a JSON object"),
        (SYNTHETIC, ("data", "synthetic", "classes"), "synthetic.classes must be a JSON integer"),
        (SYNTHETIC, ("data", "synthetic", "dim"), "synthetic.dim must be a JSON integer"),
        (SYNTHETIC, ("data", "synthetic", "per_class"),
         "synthetic.per_class must be a JSON integer"),
        (SYNTHETIC, ("data", "synthetic", "separation"),
         "synthetic.separation must be a JSON number"),
        (SYNTHETIC, ("data", "synthetic", "noise"), "synthetic.noise must be a JSON number"),
        (FEATURES, ("data", "features", "features_path"),
         "features.features_path must be a JSON string"),
        (FEATURES, ("data", "features", "manifest_path"),
         "features.manifest_path must be a JSON string"),
        (SYNTHETIC, ("train", "epochs"), "train.epochs must be a JSON integer"),
        (SYNTHETIC, ("train", "lr"), "train.lr must be a JSON number"),
        (SYNTHETIC, ("train", "patience"), "train.patience must be a JSON integer"),
        (SYNTHETIC, ("train", "decay"), "train.decay must be a JSON number"),
        (SYNTHETIC, ("train", "batch_size"), "train.batch_size must be a JSON integer"),
        (SYNTHETIC, ("seeds", "data"), "seeds.data must be a JSON integer"),
        (SYNTHETIC, ("seeds", "model"), "seeds.model must be a JSON integer"),
        (SYNTHETIC, ("seeds", "protocol"), "seeds.protocol must be a JSON integer"),
    ])
    def test_every_other_key_refuses_null(self, data, keys, message):
        base = {"num_states": 2, "memory": 8, "data": json.loads(json.dumps(data))}
        with pytest.raises(ParameterError) as exc:
            config_from_dict(self._with(base, keys, None))
        assert str(exc.value) == f"{message}, got None"

    @pytest.mark.parametrize("data, keys, name", [
        (SYNTHETIC, ("num_states",), "num_states"),
        (SYNTHETIC, ("memory",), "memory"),
        (SYNTHETIC, ("data",), "data"),
        (SYNTHETIC, ("data", "synthetic", "classes"), "synthetic.classes"),
        (SYNTHETIC, ("data", "synthetic", "dim"), "synthetic.dim"),
        (SYNTHETIC, ("data", "synthetic", "per_class"), "synthetic.per_class"),
        (FEATURES, ("data", "features", "features_path"), "features.features_path"),
        (FEATURES, ("data", "features", "manifest_path"), "features.manifest_path"),
    ])
    def test_missing_required_key_exits_2_naming_it_before_data_is_built(
        self, tmp_path, capsys, monkeypatch, data, keys, name
    ):
        self._no_data(monkeypatch)
        cfg = {"num_states": 2, "memory": 8, "data": json.loads(json.dumps(data))}
        section = cfg
        for key in keys[:-1]:
            section = section[key]
        del section[keys[-1]]
        err = self._refused(tmp_path, capsys, cfg)
        assert err == f"error: missing config key {name}\n"

    def test_train_seed_is_an_unknown_key(self):
        cfg = {"num_states": 2, "memory": 8, "train": {"seed": 3}, "data": self.SYNTHETIC}
        with pytest.raises(ParameterError, match="^unknown config key train.seed$"):
            config_from_dict(cfg)

    @pytest.mark.parametrize("data, direct", [
        (SYNTHETIC, dict(synthetic=SyntheticSpec(classes=4, dim=3, per_class=15))),
        (FEATURES, dict(features_path="f.csv", manifest_path="f.json")),
    ], ids=["synthetic", "features"])
    def test_minimal_config_takes_every_dataclass_default(self, data, direct):
        parsed = config_from_dict({"num_states": 2, "memory": 8, "data": data})
        built = ExperimentConfig(num_states=2, memory=8, **direct)
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(parsed, f.name) == getattr(built, f.name), f.name


class TestCli:
    def run_config(self, tmp_path):
        cfg = {
            "num_states": 2,
            "memory": 8,
            "data": {"synthetic": {"classes": 4, "dim": 3, "per_class": 15,
                                   "test_per_class": 5}},
            "imbalance": "soft",
            "train": {"epochs": 5},
            "methods": ["none", "th", "mb"],
            "seeds": {"data": 1, "model": 2, "protocol": 3},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_run_writes_all_outputs(self, tmp_path):
        cfg = self.run_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("states.csv", "summary.json", "figdata.csv"):
            assert (out / name).exists()

    def test_breaks_json(self, capsys):
        assert main(["breaks", "--values", "1,2,10,11", "--k", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["boundaries"] == [2]
        assert payload["ssd"] == pytest.approx(1.0)

    def test_gen_then_load_roundtrip(self, tmp_path):
        out = tmp_path / "feat.csv"
        assert main(["gen", "--classes", "3", "--dim", "2", "--per-class", "6",
                     "--seed", "4", "--out", str(out)]) == 0
        from imbcal.dataset import load_features

        t = load_features(out, str(out) + ".manifest.json")
        assert t.census == {0: 6, 1: 6, 2: 6}

    def test_gen_defaults_are_synthetic_spec_defaults(self, tmp_path):
        from imbcal.dataset import generate_synthetic, save_features

        out = tmp_path / "gen.csv"
        assert main(["gen", "--classes", "3", "--dim", "2", "--per-class", "6",
                     "--seed", "4", "--out", str(out)]) == 0
        spec = SyntheticSpec(classes=3, dim=2, per_class=6)
        direct = tmp_path / "direct.csv"
        save_features(
            generate_synthetic(spec.classes, spec.dim, spec.per_class, spec.separation,
                               spec.noise, 4, test_per_class=spec.test_per_class),
            direct, tmp_path / "direct.csv.manifest.json", name="synthetic-4",
        )
        assert out.read_bytes() == direct.read_bytes()
        manifest = tmp_path / "gen.csv.manifest.json"
        assert manifest.read_bytes() == (tmp_path / "direct.csv.manifest.json").read_bytes()

    def test_calibrate_th_pipeline(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text("0,3\n1,1\n")
        assert main(["calibrate", "--method", "th", "--scores", str(scores),
                     "--counts", str(counts)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "label,s0,s1"
        assert len(lines) == 3

    @pytest.mark.parametrize(
        "rows, line", [("0,5\n1,3\n2,4\n0,9\n", 4), ("0,0\n0,5\n1,3\n2,4\n", 2)]
    )
    def test_calibrate_counts_listing_a_class_twice_exit_3(self, tmp_path, capsys, rows, line):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1,s2\n0,2.0,1.0,0.5\n1,1.0,2.0,0.5\n2,0.5,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(rows)
        assert main(["calibrate", "--method", "th", "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        err = capsys.readouterr().err
        assert f"c.csv: line {line}: class 0 listed twice" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("rows, named", [("0,5\n2,4\n", "class 1 has 0"),
                                             ("0,5\n1,3\n2,-4\n", "class 2 has -4")])
    def test_calibrate_counts_name_the_class_without_a_positive_count(
        self, tmp_path, capsys, rows, named
    ):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1,s2\n0,2.0,1.0,0.5\n1,1.0,2.0,0.5\n2,0.5,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(rows)
        assert main(["calibrate", "--method", "fj", "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        err = capsys.readouterr().err
        assert f"c.csv: every class needs a positive count, {named}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["th", "fj"])
    def test_calibrate_counts_too_large_for_a_float_exit_3(self, tmp_path, capsys, method):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(f"0,5\n1,{'9' * 400}\n")
        assert main(["calibrate", "--method", method, "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        err = capsys.readouterr().err
        assert "c.csv: line 2: count too large for a float" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("method", ["th", "fj"])
    def test_calibrate_count_past_the_int_digit_limit_exit_3(self, tmp_path, capsys, method):
        # int() refuses integers of more than 4300 digits with a ValueError,
        # which is no reason to call the count a non-integer
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(f"0,5\n1,{'9' * 5000}\n")
        assert main(["calibrate", "--method", method, "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        err = capsys.readouterr().err
        assert "c.csv: line 2: count too large for a float" in err
        assert "Traceback" not in err

    def test_calibrate_count_with_5000_leading_zeros_is_read(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(f"0,5\n1,{'0' * 5000}3\n")
        short = tmp_path / "short.csv"
        short.write_text("0,5\n1,3\n")
        outputs = []
        for path in (counts, short):
            assert main(["calibrate", "--method", "th", "--scores", str(scores),
                         "--counts", str(path)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "class_id",
        ["9" * 400, "9" * 5000, "-" + "9" * 400, "1" + "0" * 5000],
        ids=["400-digits", "5000-digits", "negative-400-digits", "1-and-5000-zeros"],
    )
    def test_calibrate_counts_over_long_class_id_is_out_of_range(self, tmp_path, capsys, class_id):
        # out of range unread and unprinted, also past int()'s 4300-digit limit
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text(f"0,5\n{class_id},3\n")
        assert main(["calibrate", "--method", "th", "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        err = capsys.readouterr().err
        assert "c.csv: line 2: class id out of range, too many digits" in err
        assert "9" * 20 not in err and "0" * 20 not in err
        assert "Traceback" not in err

    def test_calibrate_counts_short_class_id_out_of_range_is_named(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_text("0,5\n-3,3\n")
        assert main(["calibrate", "--method", "th", "--scores", str(scores),
                     "--counts", str(counts)]) == 3
        assert "c.csv: line 2: class -3 out of range" in capsys.readouterr().err

    def test_calibrate_counts_class_id_with_5000_leading_zeros_is_read(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        outputs = []
        for name, rows in (("long.csv", f"+{'0' * 5000}0,5\n{'0' * 5000}1,3\n"),
                           ("short.csv", "0,5\n1,3\n")):
            counts = tmp_path / name
            counts.write_text(rows)
            assert main(["calibrate", "--method", "th", "--scores", str(scores),
                         "--counts", str(counts)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("option", ["--old", "--new"])
    @pytest.mark.parametrize(
        "ids", ["9" * 5000, "0," + "9" * 400, "2"], ids=["5000-digits", "400-digits-second", "2"]
    )
    def test_calibrate_mb_over_long_or_large_ids_exit_2(self, tmp_path, capsys, option, ids):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        argv = ["calibrate", "--method", "mb", "--scores", str(scores),
                "--old", "0", "--new", "1"]
        argv[argv.index(option) + 1] = ids
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{option}: class id out of range" in err
        assert "99999" not in err
        assert "Traceback" not in err

    def test_calibrate_mb_overlapping_old_and_new_exit_2(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1,s2\n0,2.0,1.0,0.5\n1,1.0,2.0,0.5\n2,0.5,1.0,2.0\n")
        assert main(["calibrate", "--method", "mb", "--scores", str(scores),
                     "--old", "0,1", "--new", "1,2"]) == 2
        err = capsys.readouterr().err
        assert "--old and --new share class 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("option", ["--old", "--new"])
    @pytest.mark.parametrize("ids", ["a", "0,"])
    def test_calibrate_mb_non_integer_ids_exit_2(self, tmp_path, capsys, option, ids):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        argv = ["calibrate", "--method", "mb", "--scores", str(scores),
                "--old", "0", "--new", "1"]
        argv[argv.index(option) + 1] = ids
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert f"{option}: class ids must be comma-separated integers" in err
        assert "Traceback" not in err

    def test_calibrate_pl_names_the_class_without_rows(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1,s2\n0,2.0,1.0,0.5\n1,1.0,2.0,0.5\n")
        assert main(["calibrate", "--method", "pl", "--scores", str(scores)]) == 2
        err = capsys.readouterr().err
        assert "class 2: need at least one positive and one negative sample" in err
        assert "Traceback" not in err

    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as err:
            main(["run", "--bogus"])
        assert err.value.code == 2

    def test_bad_config_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"memory": 5}')
        assert main(["run", "--config", str(path)]) == 2

    def test_calibrator_error_exits_2_with_state_and_method(self, tmp_path, capsys):
        # README quick-start config with a memory smaller than the 12 classes
        # seen at state 3: nem would find a class without exemplars there, so
        # the run is refused before training, naming that state
        cfg = {
            "num_states": 5,
            "memory": 10,
            "data": {"synthetic": {"classes": 20, "dim": 16, "per_class": 120,
                                   "separation": 2.5, "noise": 1.5, "test_per_class": 30}},
            "imbalance": "strong",
            "methods": ["none", "iso", "pl", "th", "nem", "bal", "mb", "fj"],
            "seeds": {"data": 100, "model": 200, "protocol": 300},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "state 3, method nem" in capsys.readouterr().err

    def test_single_state_rejected_before_run(self, tmp_path):
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["num_states"] = 1
        path = tmp_path / "one.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("method", ["nem", "bal"])
    def test_memory_below_class_count_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, method
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("imbcal.backbone.train", no_training)
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["memory"] = 3
        cfg["methods"] = ["none", "th", method]
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert f"state 2, method {method}: memory 3" in capsys.readouterr().err
        assert not out.exists()

    @staticmethod
    def _no_training(monkeypatch):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("imbcal.backbone.train", no_training)

    @staticmethod
    def _record_training(monkeypatch):
        """The class count of each model that backbone.train is handed."""
        train, trained = backbone.train, []

        def recording_train(model, table, config):
            trained.append(model.num_classes)
            return train(model, table, config)

        monkeypatch.setattr(backbone, "train", recording_train)
        return trained

    @pytest.mark.parametrize("classes, states, memory, message", [
        (4, 2, 0, "state 2: memory 0 is smaller than the 2 classes seen before it"),
        (4, 2, 1, "state 2: memory 1 is smaller than the 2 classes seen before it"),
        (6, 3, 3, "state 3: memory 3 is smaller than the 4 classes seen before it"),
    ])
    def test_memory_below_old_class_count_rejected_before_training(
        self, tmp_path, capsys, monkeypatch, classes, states, memory, message
    ):
        self._no_training(monkeypatch)
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["data"]["synthetic"]["classes"] = classes
        cfg.update(num_states=states, memory=memory)
        path = tmp_path / "small.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_pl_with_a_one_class_first_state_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        self._no_training(monkeypatch)
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg.update(num_states=4, memory=8, methods=["none", "pl"])
        path = tmp_path / "one_class.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "error: state 1, method pl: " in capsys.readouterr().err
        assert not out.exists()

    def test_memory_of_one_slot_per_old_class_runs(self, tmp_path):
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["memory"] = 2  # the 2 classes of state 1; state 2 adds 2 more
        path = tmp_path / "tight.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0

    def test_class_whose_only_exemplar_is_a_val_row_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # memory passes the load-time check, but at data seed 6 the one
        # exemplar herded for an old class is a val row; state 2 is refused
        # before it trains its 4-class model
        trained = self._record_training(monkeypatch)
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg.update(memory=2, methods=["none"])
        cfg["seeds"]["data"] = 6
        path = tmp_path / "val.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        assert "error: state 2: a class has no train records\n" in capsys.readouterr().err
        assert trained == [2]
        assert not out.exists()

    def test_more_states_than_classes_rejected_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        self._no_training(monkeypatch)
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["num_states"] = 5
        path = tmp_path / "many.json"
        path.write_text(json.dumps(cfg))
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "num_states is 5, more than the 4 classes available" in capsys.readouterr().err

    @pytest.mark.parametrize("synthetic", [
        {"classes": 10**25, "dim": 3, "per_class": 15},
        {"classes": 2**40, "dim": 2**20, "per_class": 2**10},
    ])
    def test_synthetic_table_past_numpys_largest_array_exits_2(
        self, tmp_path, capsys, no_draw, synthetic
    ):
        cfg = json.loads(self.run_config(tmp_path).read_text())
        cfg["data"] = {"synthetic": synthetic}
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "error: classes x (per_class + test_per_class) x dim float64 values " \
               "exceed numpy's largest array" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_gen_past_numpys_largest_array_exits_2(self, tmp_path, capsys, no_draw):
        out = tmp_path / "feat.csv"
        assert main(["gen", "--classes", str(10**25), "--dim", "3", "--per-class", "15",
                     "--seed", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "exceed numpy's largest array" in err
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["run", "gen"])
    def test_out_of_memory_exits_2_without_outputs(self, tmp_path, capsys, monkeypatch, command):
        def no_room(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. TiB for an array with shape "
                              "(1000000, 100, 1000) and data type float64")

        monkeypatch.setattr("imbcal.dataset.generate_synthetic", no_room)
        out = tmp_path / "out"
        if command == "run":
            argv = ["run", "--config", str(self.run_config(tmp_path)), "--out", str(out)]
        else:
            argv = ["gen", "--classes", "1000000", "--dim", "1000", "--per-class", "100",
                    "--seed", "1", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: out of memory: Unable to allocate 745. TiB for an array " \
                      "with shape (1000000, 100, 1000) and data type float64\n"
        left = ["cfg.json"] if command == "run" else []
        assert sorted(p.name for p in tmp_path.iterdir()) == left

    @pytest.mark.parametrize("text", [
        '{"num_states": 2,',
        '{"num_states": 2, "memory": ' + "9" * 5000 + "}",
        "[" * 100000,
    ], ids=["truncated", "5000-digit-memory", "nested-past-the-recursion-limit"])
    def test_config_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        path.write_text(text)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"error: {path}: invalid JSON (" in err
        assert "9" * 20 not in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("methods", [["none"], list(ALL_METHODS)])
    @pytest.mark.parametrize("train_rows, state, message", [
        ([10, 10, 1, 1], 2, "no samples from new classes"),
        ([1, 1, 1, 1], 1, "no validation samples"),
    ])
    def test_a_state_without_validation_scores_exits_2(
        self, tmp_path, capsys, monkeypatch, train_rows, state, message, methods
    ):
        # a class with a single train record gets no validation record, so
        # state 2's new classes, or every class, have none
        from imbcal.dataset import TEST, TRAIN, save_features

        labels = np.repeat(np.arange(4), np.array(train_rows) + 3)
        splits = np.concatenate([[TRAIN] * n + [TEST] * 3 for n in train_rows])
        features = np.random.default_rng(0).normal(size=(len(labels), 3)) + labels[:, None]
        feats = tmp_path / "feat.csv"
        save_features(DatasetTable(features, labels, splits), feats,
                      tmp_path / "feat.csv.manifest.json")
        cfg = {"num_states": 2, "memory": 8, "imbalance": "none", "class_order": [0, 1, 2, 3],
               "methods": methods, "train": {"epochs": 2},
               "data": {"features": {"features_path": str(feats),
                                     "manifest_path": str(tmp_path / "feat.csv.manifest.json")}}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        fit, calibrated = calibration.fit, []

        def recording_fit(method, ctx, *args):
            calibrated.append(len(ctx.class_counts) // 2)  # the state: 2 classes each
            return fit(method, ctx, *args)

        monkeypatch.setattr(calibration, "fit", recording_fit)
        trained = self._record_training(monkeypatch)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: state {state}: {message}\n"
        assert calibrated == [1] * len(methods) * (state - 1)
        # only state 1's 2-class models train: the refused state never does
        assert sorted(set(trained)) == [2] * (state - 1)
        assert not (tmp_path / "out").exists()

    def test_calibrator_fit_error_names_state_and_method(self, tmp_path, capsys, monkeypatch):
        def failing_fit(ctx):
            raise ParameterError("no usable validation scores")

        monkeypatch.setattr("imbcal.calibration.fit_mb", failing_fit)
        path = self.run_config(tmp_path)
        assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "state 1, method mb: no usable validation scores" in err

    def test_non_finite_score_exits_3_with_line(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,nan,2.0\n")
        assert main(["calibrate", "--method", "iso", "--scores", str(scores)]) == 3
        assert "s.csv: line 3: non-finite score" in capsys.readouterr().err

    def test_missing_scores_file_exits_3(self, tmp_path):
        assert main(["calibrate", "--method", "iso",
                     "--scores", str(tmp_path / "nope.csv")]) == 3

    @pytest.mark.parametrize("method, label, line", [
        ("iso", "5", 3), ("mb", "5", 3), ("pl", "-1", 2),
        # beyond int64
        ("iso", "99999999999999999999", 3), ("pl", "-99999999999999999999", 2),
    ])
    def test_score_label_out_of_range_exits_3_with_line(
        self, tmp_path, capsys, method, label, line
    ):
        rows = ["0,2.0,1.0", "1,1.0,2.0"]
        rows[line - 2] = f"{label},1.5,0.5"
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n" + "\n".join(rows) + "\n")
        argv = ["calibrate", "--method", method, "--scores", str(scores)]
        if method == "mb":
            argv += ["--old", "0", "--new", "1"]
        assert main(argv) == 3
        assert f"s.csv: line {line}: label {label} out of [0, 2)" in capsys.readouterr().err

    @pytest.mark.parametrize("digits", [400, 5000])
    def test_over_long_score_label_is_out_of_range_unprinted(self, tmp_path, capsys, digits):
        # past int()'s 4300-digit limit too
        scores = tmp_path / "s.csv"
        scores.write_text(f"label,s0,s1\n0,2.0,1.0\n{'9' * digits},1.0,2.0\n")
        assert main(["calibrate", "--method", "iso", "--scores", str(scores)]) == 3
        err = capsys.readouterr().err
        assert "s.csv: line 3: label out of [0, 2), too many digits" in err
        assert "9" * 20 not in err and "Traceback" not in err

    def test_over_long_score_label_is_reported_after_a_non_finite_score(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text(f"label,s0,s1\n{'9' * 5000},2.0,1.0\n1,1.0,inf\n")
        assert main(["calibrate", "--method", "iso", "--scores", str(scores)]) == 3
        assert "s.csv: line 3: non-finite score" in capsys.readouterr().err

    @pytest.mark.parametrize("via", ["--out", "output_dir"])
    def test_out_naming_a_file_exits_2_before_run(self, tmp_path, capsys, monkeypatch, via):
        def no_run(cfg):
            raise AssertionError("experiment started")

        monkeypatch.setattr("imbcal.harness.run_experiment", no_run)
        target = tmp_path / "taken.txt"
        target.write_text("keep me\n")
        path = self.run_config(tmp_path)
        argv = ["run", "--config", str(path)]
        if via == "--out":
            argv += ["--out", str(target)]
        else:
            cfg = json.loads(path.read_text())
            cfg["output_dir"] = str(target)
            path.write_text(json.dumps(cfg))
        assert main(argv) == 2
        assert f"{target}: output path exists and is not a directory" in capsys.readouterr().err
        assert target.read_text() == "keep me\n"

    def test_out_below_a_file_exits_3_before_run(self, tmp_path, capsys, monkeypatch):
        def no_run(cfg):
            raise AssertionError("experiment started")

        monkeypatch.setattr("imbcal.harness.run_experiment", no_run)
        (tmp_path / "file").write_text("keep me\n")
        out = tmp_path / "file" / "deeper" / "out"
        assert main(["run", "--config", str(self.run_config(tmp_path)), "--out", str(out)]) == 3
        assert f"cannot write outputs to {out}: {tmp_path / 'file'} is not a directory" in (
            capsys.readouterr().err
        )
        assert (tmp_path / "file").read_text() == "keep me\n"

    def test_output_below_a_regular_file_exits_3_before_training(
        self, tmp_path, capsys, monkeypatch
    ):
        def no_train(*args):
            raise AssertionError("training started")

        monkeypatch.setattr(backbone, "train", no_train)
        cfg = self.run_config(tmp_path)
        (tmp_path / "file").write_text("")
        out = tmp_path / "file" / "out"  # a path below a regular file
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert f"cannot write outputs to {out}" in capsys.readouterr().err


def test_summarize_rejects_single_state():
    from imbcal.metrics import MethodResult, StateReport

    reports = [StateReport(1, None, 1.0, {"none": MethodResult(50.0, 0.1)})]
    with pytest.raises(ParameterError):
        summarize(reports, ("none",))


class TestManifestTypes:
    """A manifest must be a JSON object whose dim and classes are JSON integers."""

    @pytest.fixture
    def config(self, tmp_path):
        assert main(["gen", "--classes", "4", "--dim", "3", "--per-class", "10",
                     "--seed", "1", "--out", str(tmp_path / "feat.csv")]) == 0
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "num_states": 2, "memory": 8, "methods": ["none"], "train": {"epochs": 2},
            "data": {"features": {"features_path": str(tmp_path / "feat.csv"),
                                  "manifest_path": str(tmp_path / "feat.csv.manifest.json")}},
        }))
        return path

    @pytest.mark.parametrize("manifest, message", [
        ({"dim": "x"}, "manifest key 'dim' must be a JSON integer, got 'x'"),
        ({"dim": None}, "manifest key 'dim' must be a JSON integer, got None"),
        ({"dim": 2.7}, "manifest key 'dim' must be a JSON integer, got 2.7"),
        ({"dim": True}, "manifest key 'dim' must be a JSON integer, got True"),
        ({"classes": 4.0}, "manifest key 'classes' must be a JSON integer, got 4.0"),
        ({"classes": False}, "manifest key 'classes' must be a JSON integer, got False"),
        ({"classes": 10**25}, "manifest key 'classes' must be below 2**63"),
        ({"classes": 2**63}, "manifest key 'classes' must be below 2**63"),
        (5, "manifest must be a JSON object"),
        ([3, 4], "manifest must be a JSON object"),
    ])
    def test_wrongly_typed_manifest_exits_3(self, tmp_path, capsys, config, manifest, message):
        path = tmp_path / "feat.csv.manifest.json"
        if isinstance(manifest, dict):
            manifest = {**json.loads(path.read_text()), **manifest}
        path.write_text(json.dumps(manifest))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"feat.csv.manifest.json: {message}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_huge_manifest_dim_exits_3_with_a_short_message(
        self, tmp_path, capsys, monkeypatch, config
    ):
        def no_training(*args, **kwargs):
            raise AssertionError("training started")

        monkeypatch.setattr("imbcal.backbone.train", no_training)
        path = tmp_path / "feat.csv.manifest.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "dim": 400000}))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert "feat.csv: line 1: bad header, expected 400002 fields, got 5" in err
        assert len(err) < 200

    @pytest.mark.parametrize("text", [
        '{"dim": 3,',
        '{"dim": 3, "classes": ' + "9" * 5000 + ', "name": "x"}',
        "[" * 100000,
    ], ids=["truncated", "5000-digit-classes", "nested-past-the-recursion-limit"])
    def test_manifest_that_is_not_json_exits_3_naming_it(self, tmp_path, capsys, config, text):
        path = tmp_path / "feat.csv.manifest.json"
        path.write_text(text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert f"error: {path}: invalid JSON (" in err
        assert "9" * 20 not in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_integer_manifest_runs(self, tmp_path, config):
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


class TestNotUtf8:
    """A byte that is not UTF-8 exits 3, naming the file and its line."""

    @pytest.fixture
    def features(self, tmp_path):
        assert main(["gen", "--classes", "4", "--dim", "3", "--per-class", "60",
                     "--seed", "1", "--out", str(tmp_path / "feat.csv")]) == 0
        cfg = {
            "num_states": 2, "memory": 8, "methods": ["none"], "train": {"epochs": 2},
            "data": {"features": {"features_path": str(tmp_path / "feat.csv"),
                                  "manifest_path": str(tmp_path / "feat.csv.manifest.json")}},
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    @staticmethod
    def _corrupt(path, line):
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:-1] + b"\xff"
        path.write_bytes(b"\n".join(lines))

    @staticmethod
    def _expect_exit_3(capsys, argv, message):
        assert main(argv) == 3
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("line", [5, 400])
    def test_feature_csv(self, tmp_path, capsys, features, line):
        # the reader decodes 8 KB at a time; line 400 lies well past the first
        assert len(b"\n".join((tmp_path / "feat.csv").read_bytes().split(b"\n")[:399])) > 16384
        self._corrupt(tmp_path / "feat.csv", line)
        self._expect_exit_3(capsys, ["run", "--config", str(features)],
                            f"feat.csv: line {line}: not valid UTF-8")

    def test_manifest(self, tmp_path, capsys, features):
        manifest = tmp_path / "feat.csv.manifest.json"
        manifest.write_bytes(manifest.read_bytes().replace(b"synthetic", b"synth\xffetic"))
        line = manifest.read_bytes().split(b"\xff")[0].count(b"\n") + 1
        self._expect_exit_3(capsys, ["run", "--config", str(features)],
                            f"feat.csv.manifest.json: line {line}: not valid UTF-8")

    def test_config(self, tmp_path, capsys, monkeypatch, features):
        def no_run(cfg):
            raise AssertionError("experiment started")

        monkeypatch.setattr("imbcal.harness.run_experiment", no_run)
        features.write_bytes(features.read_bytes().replace(b'"none"', b'"n\xffne"'))
        self._expect_exit_3(capsys, ["run", "--config", str(features)],
                            "cfg.json: line 1: not valid UTF-8")

    def test_score_csv(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_bytes(b"label,s0,s1\n0,2.0,1.0\n1,1.0,2.\xff\n")
        self._expect_exit_3(capsys, ["calibrate", "--method", "iso", "--scores", str(scores)],
                            "s.csv: line 3: not valid UTF-8")

    def test_counts_csv(self, tmp_path, capsys):
        scores = tmp_path / "s.csv"
        scores.write_text("label,s0,s1\n0,2.0,1.0\n1,1.0,2.0\n")
        counts = tmp_path / "c.csv"
        counts.write_bytes(b"0,5\n1,\xff\n")
        self._expect_exit_3(capsys, ["calibrate", "--method", "th", "--scores", str(scores),
                                     "--counts", str(counts)],
                            "c.csv: line 2: not valid UTF-8")
