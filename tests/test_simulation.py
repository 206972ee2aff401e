"""Monte Carlo propagation, scenario generation, and exercises."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibuq.datamodel import (
    DocType,
    UsageError,
    ValidationError,
    sample_statistics,
)
from bibuq.errormodels import FIRST_KIND, SECOND_KIND
from bibuq.simulation import (
    ALL_CHANNELS,
    CHANNEL_CITATIONS,
    CHANNEL_DOCTYPES,
    FittedModels,
    PropagationConfig,
    ScenarioConfig,
    generate_scenario,
    iteration_rng,
    list_exercises,
    pool_processes,
    propagate,
    render_result_table,
    run_exercise,
    subseed,
    summarize,
    synthesize_training_sample,
    synthetic_confusion_table,
    write_plot_summary,
    write_report_json,
    write_uncertainty_plot,
)
from bibuq.simulation import _result_payload
from helpers import make_pubset


@pytest.fixture(scope="module")
def small_models(second_kind_posterior, doctype_posterior):
    return FittedModels(citation=second_kind_posterior, doctype=doctype_posterior)


@pytest.fixture(scope="module")
def first_kind_models(first_kind_posterior, doctype_posterior_first):
    return FittedModels(citation=first_kind_posterior, doctype=doctype_posterior_first)


@pytest.fixture(scope="module")
def small_unit():
    return make_pubset(
        "A",
        [("article", 0), ("article", 3), ("article", 12), ("review", 7), ("letter", 2)],
    )


@pytest.fixture(scope="module")
def small_reference():
    rows = [("article", c) for c in (0, 1, 2, 3, 5, 8, 13, 4, 6, 9)]
    rows += [("review", c) for c in (2, 4, 10)]
    rows += [("letter", 0), ("other", 3)]
    return make_pubset("ref", rows)


def test_package_root_exports():
    import bibuq

    for name in (
        "fit_citation_error_model",
        "fit_doctype_error_model",
        "propagate",
        "run_exercise",
        "render_result_table",
        "generate_scenario",
        "synthesize_training_sample",
        "synthetic_confusion_table",
        "sample_statistics",
        "load_publications",
        "build_normalization",
        "indicators_for",
        "predict_error_free_citations",
        "predict_doctype",
        "summarize",
    ):
        assert hasattr(bibuq, name), f"bibuq.{name} missing"
    assert bibuq.__version__ == "0.1.0"


class TestSeeds:
    def test_subseed_is_deterministic_and_distinct(self):
        assert subseed(7, 1) == subseed(7, 1)
        assert subseed(7, 1) != subseed(7, 2)
        assert subseed(7, 1) != subseed(8, 1)

    def test_iteration_rng_streams_are_independent(self):
        a = iteration_rng(3, 0).standard_normal(4)
        b = iteration_rng(3, 1).standard_normal(4)
        a2 = iteration_rng(3, 0).standard_normal(4)
        assert np.array_equal(a, a2)
        assert not np.array_equal(a, b)


class TestSummarize:
    def test_known_vector(self):
        reps = np.arange(1, 1001, dtype=float)
        s = summarize(reps)
        assert s.median == 500.5
        assert s.ci_low == pytest.approx(25.975)
        assert s.ci_high == pytest.approx(975.025)
        assert s.relative_uncertainty_pct == pytest.approx(
            100.0 * (975.025 - 25.975) / 500.5
        )
        assert s.n == 1000

    def test_nan_replicates_are_dropped(self):
        s = summarize(np.array([1.0, np.nan, 3.0, np.nan, 2.0]))
        assert s.n == 3
        assert s.median == 2.0

    def test_all_nan_rejected(self):
        with pytest.raises(ValidationError):
            summarize(np.array([np.nan, np.nan]))

    def test_zero_median_disables_relative_uncertainty(self):
        s = summarize(np.array([-1.0, 0.0, 1.0]))
        assert s.median == 0.0
        assert s.relative_uncertainty_pct is None

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=200,
        )
    )
    def test_interval_brackets_median_property(self, values):
        s = summarize(np.array(values))
        assert s.ci_low <= s.median <= s.ci_high
        assert s.n == len(values)


class TestScenario:
    def test_sizes_names_and_determinism(self):
        cfg = ScenarioConfig(
            unit_sizes={"A": 40, "B": 50},
            unit_locations={"A": 0.8, "B": 1.2},
            reference_size=200,
            reference_location=1.0,
            seed=123,
        )
        units, reference = generate_scenario(cfg)
        assert [u.name for u in units] == ["A", "B"]
        assert [len(u) for u in units] == [40, 50]
        assert reference.name == cfg.reference_name
        assert len(reference) == 200
        units2, reference2 = generate_scenario(cfg)
        assert units == units2
        assert reference == reference2

    def test_citations_are_non_negative_ints(self):
        cfg = ScenarioConfig(
            unit_sizes={"A": 30},
            unit_locations={"A": 1.0},
            reference_size=30,
            reference_location=1.0,
            seed=5,
        )
        units, reference = generate_scenario(cfg)
        for pub in units[0].members + reference.members:
            assert isinstance(pub.citations, int)
            assert pub.citations >= 0

    def test_doctype_mix_is_respected(self):
        cfg = ScenarioConfig(
            unit_sizes={"A": 4000},
            unit_locations={"A": 1.0},
            reference_size=10,
            reference_location=1.0,
            seed=11,
        )
        units, _ = generate_scenario(cfg)
        share_article = np.mean(
            [p.doctype is DocType.ARTICLE for p in units[0].members]
        )
        assert share_article == pytest.approx(0.68, abs=0.03)


class TestSynthesizedSample:
    def test_marginal_reproduced_exactly(self, training_sample):
        stats = sample_statistics(training_sample)
        assert stats.n_records == 372
        assert stats.total_omitted == 255
        assert stats.share_with_omission == 109 / 372

    def test_targets_hit_within_tolerance(self, training_sample):
        stats = sample_statistics(training_sample)
        assert stats.mean_observed == pytest.approx(6120 / 372, abs=0.05)
        assert stats.pearson_r == pytest.approx(0.31, abs=0.05)

    def test_deterministic_by_seed(self):
        a = synthesize_training_sample(seed=3)
        b = synthesize_training_sample(seed=3)
        assert np.array_equal(a.observed, b.observed)
        assert np.array_equal(a.omitted, b.omitted)

    def test_confusion_stand_in_shape(self):
        table = synthetic_confusion_table()
        assert table.counts.shape == (4, 4)
        # Correct assignments dominate each true-type row.
        for i in range(4):
            row = table.counts[i]
            assert row[i] == max(row)


class TestPropagate:
    def test_replicate_counts_and_units(self, small_unit, small_reference, small_models):
        cfg = PropagationConfig(iterations=80, seed=1)
        res = propagate(small_unit, reference=small_reference, models=small_models, config=cfg)
        assert res.units == ("A",)
        for name in ("P", "C", "MNCS"):
            assert res.distribution("A", name).replicates.shape == (80,)

    def test_citations_channel_leaves_p_constant(
        self, small_unit, small_reference, small_models
    ):
        cfg = PropagationConfig(
            iterations=120, seed=2, channels=frozenset({CHANNEL_CITATIONS})
        )
        res = propagate(small_unit, reference=small_reference, models=small_models, config=cfg)
        p = res.distribution("A", "P").replicates
        assert np.all(p == res.observed["A"].p)
        c = res.distribution("A", "C").replicates
        assert np.all(c >= res.observed["A"].c)

    def test_doctypes_channel_bounds_c_by_total_citations(
        self, small_unit, small_reference, small_models
    ):
        cfg = PropagationConfig(
            iterations=120, seed=3, channels=frozenset({CHANNEL_DOCTYPES})
        )
        res = propagate(small_unit, reference=small_reference, models=small_models, config=cfg)
        total = sum(p.citations for p in small_unit.members)
        c = res.distribution("A", "C").replicates
        assert np.all(c <= total)
        p = res.distribution("A", "P").replicates
        assert np.all((p >= 0) & (p <= len(small_unit)))

    def test_first_kind_citations_never_exceed_error_free(
        self, small_unit, small_reference, first_kind_models
    ):
        cfg = PropagationConfig(
            iterations=120,
            seed=4,
            direction=FIRST_KIND,
            channels=frozenset({CHANNEL_CITATIONS}),
        )
        res = propagate(
            small_unit, reference=small_reference, models=first_kind_models, config=cfg
        )
        c = res.distribution("A", "C").replicates
        assert np.all(c <= res.observed["A"].c)

    def test_worker_count_does_not_change_results(
        self, small_unit, small_reference, small_models
    ):
        payloads = []
        for workers in (1, 2, 3):
            cfg = PropagationConfig(iterations=60, seed=5, workers=workers)
            res = propagate(
                small_unit, reference=small_reference, models=small_models, config=cfg
            )
            payloads.append(json.dumps(_result_payload(res), sort_keys=True))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_pool_processes_capped_by_cpus_and_chunks(self):
        assert pool_processes(8, 8, 2) == 2
        assert pool_processes(2, 8, 16) == 2
        assert pool_processes(8, 3, 16) == 3
        assert pool_processes(10**6, 10**6, 2) == 2
        assert pool_processes(10**6, 4, 10**6) == 4
        assert pool_processes(10**6, 10**6, None) == 1
        assert pool_processes(3, 0, 4) == 1

    def test_parameter_sharing_modes_differ(
        self, small_unit, small_reference, small_models
    ):
        res_iter = propagate(
            small_unit,
            reference=small_reference,
            models=small_models,
            config=PropagationConfig(iterations=60, seed=6, parameter_sharing="iteration"),
        )
        res_pub = propagate(
            small_unit,
            reference=small_reference,
            models=small_models,
            config=PropagationConfig(iterations=60, seed=6, parameter_sharing="publication"),
        )
        a = res_iter.distribution("A", "C").replicates
        b = res_pub.distribution("A", "C").replicates
        assert not np.array_equal(a, b)

    def test_reference_only_normalization_changes_mncs(
        self, small_unit, small_reference, small_models
    ):
        pooled = propagate(
            small_unit,
            reference=small_reference,
            models=small_models,
            config=PropagationConfig(iterations=40, seed=7, pooled_normalization=True),
        )
        ref_only = propagate(
            small_unit,
            reference=small_reference,
            models=small_models,
            config=PropagationConfig(iterations=40, seed=7, pooled_normalization=False),
        )
        a = pooled.distribution("A", "MNCS").replicates
        b = ref_only.distribution("A", "MNCS").replicates
        assert not np.array_equal(a, b)

    def test_missing_required_model_rejected(self, small_unit, small_reference):
        with pytest.raises(UsageError):
            propagate(
                small_unit,
                reference=small_reference,
                models=FittedModels(),
                config=PropagationConfig(iterations=10, seed=0),
            )

    def test_direction_mismatch_rejected(
        self, small_unit, small_reference, small_models
    ):
        cfg = PropagationConfig(iterations=10, seed=0, direction=FIRST_KIND)
        with pytest.raises(UsageError):
            propagate(
                small_unit, reference=small_reference, models=small_models, config=cfg
            )

    def test_dump_items_rows(self, tmp_path, small_unit, small_reference, small_models):
        dump = tmp_path / "items.csv"
        cfg = PropagationConfig(
            iterations=25, seed=8, channels=frozenset({CHANNEL_CITATIONS})
        )
        propagate(
            small_unit,
            reference=small_reference,
            models=small_models,
            config=cfg,
            dump_items=dump,
        )
        lines = dump.read_text().strip().splitlines()
        assert lines[0] == "iteration,publication_id,citations,doctype"
        assert len(lines) - 1 == 25 * len(small_unit)


class TestExercises:
    def test_listing(self):
        assert list_exercises() == ["1", "2", "3", "4", "A1", "A2", "A3", "A4"]

    def test_unknown_name_rejected(self):
        with pytest.raises(UsageError):
            run_exercise("Z9", iterations=10, seed=0)

    def test_item_demo_tallies(self):
        rep = run_exercise("1", iterations=150, seed=0)
        assert rep.result is None
        assert [it.label for it in rep.items] == ["P1", "P2", "P3"]
        for item in rep.items:
            assert sum(item.doctype_draws.values()) == 150
            assert sum(item.citation_draws.values()) == 150
        # Second-kind correction can only add citations.
        p1 = rep.items[0]
        assert min(p1.citation_draws) >= p1.citations
        text = rep.to_text()
        assert "predicted document types" in text
        assert "P1" in text

    def test_channel_composition_across_exercises(self):
        reps = {
            name: run_exercise(name, iterations=30, seed=0) for name in ("2", "3", "4")
        }
        assert set(reps["2"].channels) == {CHANNEL_CITATIONS}
        assert set(reps["3"].channels) == {CHANNEL_DOCTYPES}
        assert set(reps["4"].channels) == set(ALL_CHANNELS)
        assert all(r.direction == SECOND_KIND for r in reps.values())

    def test_injection_exercises_use_first_kind(self):
        rep = run_exercise("A1", iterations=30, seed=0)
        assert rep.direction == FIRST_KIND
        assert set(rep.channels) == {CHANNEL_CITATIONS}

    def test_exercise_is_deterministic(self):
        a = run_exercise("2", iterations=40, seed=9)
        b = run_exercise("2", iterations=40, seed=9)
        assert json.dumps(_result_payload(a.result), sort_keys=True) == json.dumps(
            _result_payload(b.result), sort_keys=True
        )


@pytest.fixture(scope="module")
def result(small_unit, small_reference, small_models):
    cfg = PropagationConfig(iterations=50, seed=10)
    return propagate(
        small_unit, reference=small_reference, models=small_models, config=cfg
    )


class TestReportOutputs:
    def test_report_json_round_trip(self, tmp_path, result):
        path = tmp_path / "report.json"
        write_report_json(result, path)
        payload = json.loads(path.read_text())
        assert list(payload["units"]) == ["A"]
        assert payload["direction"] == result.config.direction
        assert payload["channels"] == sorted(result.config.channels)
        unit = payload["units"]["A"]
        assert set(unit) >= {"P", "C", "MNCS"}
        assert unit["P"]["observed"] == result.observed["A"].p
        assert unit["C"]["median"] == result.distribution("A", "C").summary.median

    def test_report_json_is_byte_stable(self, tmp_path, result):
        p1 = tmp_path / "r1.json"
        p2 = tmp_path / "r2.json"
        write_report_json(result, p1)
        write_report_json(result, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_plot_files(self, tmp_path, result):
        summary_path = tmp_path / "plot_summary.csv"
        uncertainty_path = tmp_path / "plot_uncertainty.csv"
        write_plot_summary(result, summary_path)
        write_uncertainty_plot(result, uncertainty_path)
        summary_lines = summary_path.read_text().strip().splitlines()
        assert summary_lines[0] == "unit,indicator,observed,median,ci_low,ci_high"
        assert len(summary_lines) == 1 + 3
        unc_lines = uncertainty_path.read_text().strip().splitlines()
        assert unc_lines[0] == "unit,P_median,mncs_rel_uncertainty_pct"
        assert len(unc_lines) == 2

    def test_render_table_mentions_units_and_indicators(self, result):
        table = render_result_table(result)
        assert "unit" in table
        assert "A" in table
        assert "MNCS" in table
