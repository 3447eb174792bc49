"""Integration tests for the experiment modules (quick scale).

These exercise each table/figure reproduction end to end at the smallest
useful scale; the shape checks mirror the paper's qualitative claims without
requiring the paper's absolute numbers.
"""

import pytest

from repro.data.activities import Activity
from repro.evaluation.runner import ExperimentRunner
from repro.experiments import ablations, edge_resources, figure4, figure5, figure6, figure7, table2
from repro.experiments.common import ExperimentSettings, make_dataset
from repro.exceptions import ConfigurationError


QUICK = ExperimentSettings.quick(seed=11)


class TestExperimentSettings:
    def test_presets_ordering(self):
        quick = ExperimentSettings.quick()
        default = ExperimentSettings.default()
        paper = ExperimentSettings.paper_scale()
        assert quick.samples_per_class < default.samples_per_class < paper.samples_per_class
        assert paper.n_rounds == 5
        assert paper.config.hidden_dims == (1024, 512, 128, 64)

    def test_make_dataset_uses_settings(self):
        dataset = make_dataset(ExperimentSettings.quick(seed=1))
        assert dataset.n_samples == 5 * ExperimentSettings.quick().samples_per_class
        assert dataset.n_features == 80

    def test_invalid_settings(self):
        with pytest.raises(ConfigurationError):
            ExperimentSettings(samples_per_class=5)
        with pytest.raises(ConfigurationError):
            ExperimentSettings(n_rounds=0)


class TestTable2:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings.quick(seed=11)
        return table2.run(
            settings, activities=[Activity.RUN, Activity.STILL]
        )

    def test_rows_and_columns(self, result):
        assert [row["new_class"] for row in result.table.rows] == ["Run", "Still"]
        assert result.table.columns == ["new_class", "pre-trained", "re-trained", "pilote"]
        assert set(result.per_scenario) == {"Run", "Still"}

    def test_aggregates_have_rounds(self, result):
        for aggregates in result.per_scenario.values():
            for aggregate in aggregates.values():
                assert aggregate.n_rounds == QUICK.n_rounds
                assert 0.0 <= aggregate.mean <= 1.0

    def test_pilote_competitive_with_retrained(self, result):
        """The paper's headline: PILOTE >= Re-trained on (at least most of) the scenarios."""
        assert result.method_wins("pilote", "re-trained") >= 1

    def test_to_text_renders(self, result):
        text = result.to_text()
        assert "Table 2" in text and "Run" in text and "±" in text


class TestFigure4:
    @pytest.fixture(scope="class")
    def result(self):
        return figure4.run(ExperimentSettings.quick(seed=11))

    def test_confusion_matrices_present(self, result):
        assert set(result.matrices) == {"re-trained", "pilote"}
        for matrix in result.matrices.values():
            assert matrix.matrix.shape == (5, 5)
            assert matrix.matrix.sum() > 0

    def test_walk_run_confusion_reported(self, result):
        assert set(result.walk_to_run_rate) == {"re-trained", "pilote"}
        for rate in result.walk_to_run_rate.values():
            assert 0.0 <= rate <= 1.0

    def test_pilote_confuses_walk_no_more_than_retrained(self, result):
        assert (
            result.walk_to_run_rate["pilote"]
            <= result.walk_to_run_rate["re-trained"] + 0.10
        )

    def test_to_text(self, result):
        text = result.to_text()
        assert "Walk predicted as Run" in text


class TestFigure5:
    @pytest.fixture(scope="class")
    def result(self):
        return figure5.run(ExperimentSettings.quick(seed=11), max_points_per_class=40)

    def test_methods_and_metrics(self, result):
        assert set(result.separation) == {"pre-trained", "re-trained", "pilote"}
        for metrics in result.separation.values():
            assert "silhouette" in metrics and "intra_inter_ratio" in metrics

    def test_projections_are_2d(self, result):
        for projection in result.projections.values():
            for points in projection.values():
                assert points.shape[1] == 2

    def test_pilote_separation_not_worse_than_pretrained(self, result):
        assert (
            result.separation["pilote"]["silhouette"]
            >= result.separation["pre-trained"]["silhouette"] - 0.15
        )

    def test_to_text_with_scatter(self, result):
        assert "silhouette" in result.to_text()
        assert "embedding space" in result.to_text(include_scatter=True)


class TestFigure6:
    SETTINGS = ExperimentSettings(
        samples_per_class=QUICK.samples_per_class,
        n_rounds=1,
        config=QUICK.config,
        exemplars_per_class=QUICK.exemplars_per_class,
        seed=11,
    )

    @pytest.fixture(scope="class")
    def result(self):
        return figure6.run(
            self.SETTINGS, exemplar_counts=(10, 40), strategies=("herding", "random")
        )

    def test_series_structure(self, result):
        assert result.exemplar_counts == [10, 40]
        assert result.effective_counts == [10, 40]
        assert set(result.series) == {"herding", "random"}
        for methods in result.series.values():
            assert set(methods) == {"pre-trained", "re-trained", "pilote"}
            for aggregates in methods.values():
                assert len(aggregates) == 2

    def test_mean_series_flattening(self, result):
        flat = result.mean_series()
        assert len(flat) == 6
        assert all(len(v) == 2 for v in flat.values())

    def test_to_text_contains_plot(self, result):
        text = result.to_text()
        assert "exemplars" in text and "accuracy vs. exemplars per class" in text

    def test_to_text_header_separates_series(self, result):
        header = result.to_text().splitlines()[2]
        assert header.split()[:2] == ["exemplars", "effective"]
        for name in result.mean_series():
            assert f"  {name}" in header

    def test_counts_past_the_data_share_one_run(self, monkeypatch):
        calls = []
        compare = ExperimentRunner.compare

        def counting_compare(runner, scenario, **kwargs):
            calls.append(kwargs["exemplar_strategy"])
            return compare(runner, scenario, **kwargs)

        monkeypatch.setattr(ExperimentRunner, "compare", counting_compare)
        result = figure6.run(self.SETTINGS, exemplar_counts=(10, 100, 200))
        assert result.exemplar_counts == [10, 100, 200]
        effective = result.effective_counts
        assert effective[0] == 10 and effective[1] == effective[2] < 100
        assert calls.count("herding") == 2 and calls.count("random") == 2
        for methods in result.series.values():
            for aggregates in methods.values():
                assert aggregates[1] == aggregates[2]


class TestFigure7:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings.quick(seed=11)
        settings = ExperimentSettings(
            samples_per_class=settings.samples_per_class,
            n_rounds=1,
            config=settings.config,
            exemplars_per_class=30,
            seed=11,
        )
        return figure7.run(settings, sample_counts=(10, 40))

    def test_series_structure(self, result):
        assert result.sample_counts == [10, 40]
        assert set(result.series) == {"pre-trained", "re-trained", "pilote"}

    def test_accuracies_valid(self, result):
        for aggregates in result.series.values():
            for aggregate in aggregates:
                assert 0.0 <= aggregate.mean <= 1.0

    def test_pilote_handles_few_samples(self, result):
        """PILOTE with very few new-class samples should stay above the pre-trained reference."""
        pilote_small = result.series["pilote"][0].mean
        pretrained_small = result.series["pre-trained"][0].mean
        assert pilote_small >= pretrained_small - 0.10

    def test_to_text(self, result):
        assert "new-class" in result.to_text()

    def test_sweep_points_are_keyed_by_position(self):
        """A repeated sample count is a second draw, not an overwrite of the first."""
        settings = ExperimentSettings(
            samples_per_class=60,
            n_rounds=2,
            config=QUICK.config,
            exemplars_per_class=10,
            seed=11,
        )
        single = figure7.run(settings, sample_counts=(10,))
        repeated = figure7.run(settings, sample_counts=(10, 10))
        assert repeated.sample_counts == [10, 10]
        for method, aggregates in repeated.series.items():
            assert len(aggregates) == 2
            assert aggregates[0].values == single.series[method][0].values
        # the pre-trained model's new-class prototype is the mean of the draw,
        # so a second draw moves its accuracy
        pretrained = repeated.series["pre-trained"]
        assert pretrained[1].values != pretrained[0].values


class TestEdgeResources:
    @pytest.fixture(scope="class")
    def result(self):
        return edge_resources.run(ExperimentSettings.quick(seed=11), storage_budgets=(50, 200))

    def test_storage_rows(self, result):
        assert len(result.storage_rows) == 2
        assert result.storage_rows[0]["bytes"] < result.storage_rows[1]["bytes"]

    def test_latency_report(self, result):
        assert result.latency.epochs_run >= 1
        assert result.latency.mean_epoch_seconds > 0
        assert result.accuracy_after_increment > 0.4

    def test_device_extrapolations(self, result):
        assert "wearable" in result.device_latencies
        assert (
            result.device_latencies["wearable"]["mean_epoch_seconds"]
            > result.latency.mean_epoch_seconds
        )

    def test_to_text(self, result):
        text = result.to_text()
        assert "Support-set storage" in text and "latency" in text


class TestAblations:
    @pytest.fixture(scope="class")
    def result(self):
        settings = ExperimentSettings.quick(seed=11)
        settings = ExperimentSettings(
            samples_per_class=settings.samples_per_class,
            n_rounds=1,
            config=settings.config,
            exemplars_per_class=20,
            seed=11,
        )
        return ablations.run(
            settings, alphas=(0.0, 0.5), margins=(1.0,), variants=("squared", "hadsell")
        )

    def test_tables_present(self, result):
        assert set(result.tables) == {"alpha", "margin", "variant"}
        assert [row["alpha"] for row in result.tables["alpha"].rows] == ["0", "0.5"]
        # rows are in sorted string order, not sweep order
        assert [row["variant"] for row in result.tables["variant"].rows] == ["hadsell", "squared"]

    def test_to_text(self, result):
        text = result.to_text()
        assert "Ablation" in text and "α" in text

    def test_a_repeated_setting_gets_its_own_row_and_an_empty_sweep_no_table(self):
        settings = ExperimentSettings(
            samples_per_class=60,
            n_rounds=1,
            config=QUICK.config,
            exemplars_per_class=10,
            seed=11,
        )
        result = ablations.run(settings, alphas=(0.5, 0.5), margins=(), variants=())
        assert list(result.tables) == ["alpha"]
        first, second = result.tables["alpha"].rows
        assert first["alpha"] == second["alpha"] == "0.5"
        # both points train a copy of the same pre-trained learner
        assert first["accuracy"].values == second["accuracy"].values
