"""Tests for the evaluation protocol, result tables and the experiment runner."""

import numpy as np
import pytest

from repro.core.config import PiloteConfig
from repro.data.activities import Activity
from repro.evaluation.protocol import AggregateResult, RepeatedRounds, aggregate_values
from repro.evaluation.results import MethodResult, ResultTable
from repro.evaluation.runner import PAPER_METHODS, ExperimentRunner
from repro.evaluation.scenarios import (
    FIGURE6_SCENARIO,
    FIGURE7_SCENARIO,
    TABLE2_SCENARIOS,
)
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

    def test_repeated_rounds_scalar(self):
        protocol = RepeatedRounds(n_rounds=4, seed=0)
        results = protocol.run(lambda rng, index: float(index))
        assert results["value"].mean == pytest.approx(1.5)

    def test_repeated_rounds_dict_and_reproducibility(self):
        def round_fn(rng, index):
            return {"a": float(rng.normal()), "b": 1.0}

        first = RepeatedRounds(3, seed=7).run(round_fn)
        second = RepeatedRounds(3, seed=7).run(round_fn)
        assert first["a"].values == second["a"].values
        assert first["b"].mean == pytest.approx(1.0)

    def test_rounds_use_independent_streams(self):
        values = RepeatedRounds(3, seed=1).run(lambda rng, index: float(rng.normal()))
        assert len(set(values["value"].values)) == 3

    def test_invalid_rounds(self):
        with pytest.raises(DataError):
            RepeatedRounds(0)


class TestResultTable:
    def test_add_row_and_render(self):
        table = ResultTable("Table 2", columns=["new_class", "pilote"])
        table.add_row(new_class="Run", pilote=aggregate_values([0.93, 0.94]))
        table.add_row(new_class="Walk", pilote=0.9193)
        text = table.to_text()
        assert "Table 2" in text
        assert "Run" in text and "±" in text and "0.9193" in text
        assert len(table) == 2

    def test_missing_column_raises(self):
        table = ResultTable("t", columns=["a", "b"])
        with pytest.raises(DataError):
            table.add_row(a=1.0)

    def test_column_access(self):
        table = ResultTable("t", columns=["a"])
        table.add_row(a=1.0)
        table.add_row(a=2.0)
        assert table.column("a") == [1.0, 2.0]
        with pytest.raises(KeyError):
            table.column("missing")

    def test_empty_columns_rejected(self):
        with pytest.raises(DataError):
            ResultTable("t", columns=[])


class TestScenarioSpecs:
    def test_table2_has_five_scenarios(self):
        assert len(TABLE2_SCENARIOS) == 5
        held_out = {spec.new_classes[0] for spec in TABLE2_SCENARIOS}
        assert held_out == set(Activity)

    def test_figure6_sweeps_exemplars(self):
        assert FIGURE6_SCENARIO.sweep_name == "exemplars_per_class"
        assert 200 in FIGURE6_SCENARIO.sweep_values
        assert set(FIGURE6_SCENARIO.exemplar_strategies) == {"herding", "random"}

    def test_figure7_sweeps_new_class_samples(self):
        assert FIGURE7_SCENARIO.sweep_name == "new_class_samples"
        assert FIGURE7_SCENARIO.exemplars_per_class == 200

    def test_fleet_scenario_shape(self):
        from repro.evaluation.scenarios import FLEET_SCENARIO

        assert FLEET_SCENARIO.n_devices == 8
        assert FLEET_SCENARIO.traffic_pattern == "zipf"
        assert Activity.RUN in FLEET_SCENARIO.new_classes


class TestExperimentRunner:
    @pytest.fixture(scope="class")
    def comparison(self, har_dataset, tiny_config):
        runner = ExperimentRunner(tiny_config, keep_learners=True)
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

    def test_learners_kept_when_requested(self, comparison):
        assert set(comparison.learners) == set(PAPER_METHODS)
        assert comparison.pretrained_learner is not None

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

        runner = ExperimentRunner(tiny_config, methods=("pilote",), keep_learners=True)
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
