"""Tests for the evaluation protocol, result tables and the experiment runner."""

import numpy as np
import pytest

from repro.data.activities import Activity
from repro.evaluation.protocol import RepeatedRounds, aggregate_values
from repro.evaluation.results import MethodResult, ResultTable
from repro.evaluation.runner import PAPER_METHODS, ExperimentRunner
from repro.exceptions import ConfigurationError, DataError


class TestProtocol:
    def test_aggregate_values(self):
        aggregate = aggregate_values([0.9, 0.95, 1.0])
        assert aggregate.mean == pytest.approx(0.95)
        assert aggregate.std == pytest.approx(np.std([0.9, 0.95, 1.0]))
        assert aggregate.n_rounds == 3
        assert "±" in str(aggregate)

    def test_aggregate_empty_raises(self):
        with pytest.raises(DataError):
            aggregate_values([])

    def test_repeated_rounds_dict_and_reproducibility(self):
        def round_fn(rng, index):
            return {"a": float(rng.normal()), "b": 1.0}

        first = RepeatedRounds(3, seed=7).run(round_fn)
        second = RepeatedRounds(3, seed=7).run(round_fn)
        assert first["a"].values == second["a"].values
        assert first["b"].mean == pytest.approx(1.0)

    def test_rounds_use_independent_streams(self):
        values = RepeatedRounds(3, seed=1).run(lambda rng, index: {"x": float(rng.normal())})
        assert len(set(values["x"].values)) == 3

    def test_aggregates_keep_first_appearance_order(self):
        def round_fn(rng, index):
            return {"b": float(index), "a": 2.0 * index}

        results = RepeatedRounds(4, seed=0).run(round_fn)
        assert list(results) == ["b", "a"]
        assert results["b"].mean == pytest.approx(1.5)
        assert results["a"].values == (0.0, 2.0, 4.0, 6.0)

    def test_invalid_rounds(self):
        with pytest.raises(DataError):
            RepeatedRounds(0, seed=0)

    def test_round_count_and_seed_are_required(self):
        with pytest.raises(TypeError):
            RepeatedRounds()
        with pytest.raises(TypeError):
            RepeatedRounds(3)


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("Table 2", columns=["new_class", "pilote"])
        table.add_row(new_class="Run", pilote=aggregate_values([0.93, 0.94]))
        table.add_row(new_class="Walk", pilote=0.9193)
        text = table.to_text()
        assert "Table 2" in text
        assert "Run" in text and "±" in text and "0.9193" in text
        assert [row["new_class"] for row in table.rows] == ["Run", "Walk"]

    def test_missing_column_raises(self):
        table = ResultTable("t", columns=["a", "b"])
        with pytest.raises(DataError):
            table.add_row(a=1.0)

    def test_empty_columns_rejected(self):
        with pytest.raises(DataError):
            ResultTable("t", columns=[])


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def comparison(self, har_dataset, tiny_config):
        runner = ExperimentRunner(tiny_config)
        return runner.run_scenario(
            har_dataset, int(Activity.RUN), exemplars_per_class=10, rng=3
        )

    def test_all_paper_methods_present(self, comparison):
        assert set(comparison.methods) == set(PAPER_METHODS)

    def test_accuracies_in_range(self, comparison):
        for result in comparison.methods.values():
            assert 0.0 <= result.accuracy <= 1.0
            assert isinstance(result, MethodResult)
            assert result.predictions.shape[0] == comparison.scenario.test.n_samples

    def test_pilote_at_least_matches_pretrained(self, comparison):
        methods = comparison.methods
        assert methods["pilote"].accuracy >= methods["pre-trained"].accuracy - 0.05

    def test_learners_always_returned(self, comparison):
        assert set(comparison.learners) == set(PAPER_METHODS)
        new_class = comparison.scenario.new_classes[0]
        for learner in comparison.learners.values():
            assert new_class in learner.classes_

    def test_summary_matches_methods(self, comparison):
        summary = comparison.summary()
        assert summary["pilote"] == comparison.methods["pilote"].accuracy

    def test_shared_pretrained_model_reused(self, har_dataset, tiny_config):
        from repro.data.streams import build_incremental_scenario

        runner = ExperimentRunner(tiny_config, methods=("pilote",))
        scenario = build_incremental_scenario(har_dataset, [int(Activity.WALK)], rng=1)
        pretrained = runner.pretrain(scenario, exemplars_per_class=10, rng=1)
        first = runner.compare(scenario, pretrained=pretrained, rng=2)
        # The shared learner must still only know the old classes afterwards.
        assert int(Activity.WALK) not in pretrained.classes_
        assert first.methods["pilote"].accuracy > 0.4

    def test_new_class_sample_cap_is_applied(self, har_dataset, tiny_config):
        from repro.data.streams import build_incremental_scenario

        runner = ExperimentRunner(tiny_config, methods=("pilote",))
        scenario = build_incremental_scenario(har_dataset, [int(Activity.WALK)], rng=0)
        assert scenario.new_train.n_samples > 5
        result = runner.compare(
            scenario, exemplars_per_class=8, new_class_samples=5, rng=0
        )
        stored = result.learners["pilote"].exemplars.exemplars_per_class()
        assert stored[int(Activity.WALK)] == 5

    def test_unknown_method_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            ExperimentRunner(tiny_config, methods=("pilote", "magic"))
