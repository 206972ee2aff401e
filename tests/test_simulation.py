"""Monte Carlo propagation, scenario generation, and exercises."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import importlib.util
import json
import multiprocessing
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibuq import exercises, simulation
from bibuq.cli import main
from bibuq.datamodel import (
    DocType,
    Publication,
    PublicationSet,
    UsageError,
    ValidationError,
    doctype_index,
    sample_statistics,
    write_json,
    write_publications,
)
from bibuq.errormodels import FIRST_KIND, SECOND_KIND, NegBinPosterior
from bibuq.exercises import (
    ScenarioConfig,
    generate_scenario,
    list_exercises,
    run_exercise,
    subseed,
    synthesize_training_sample,
    synthetic_confusion_table,
)
from bibuq.indicators import (
    KEY_DOCTYPE,
    KEY_DOCTYPE_YEAR_FIELD,
    build_normalization,
    indicators_for,
)
from bibuq.report import (
    render_result_table,
    report_payload,
    write_plot_summary,
    write_report_json,
    write_uncertainty_plot,
)
from bibuq.simulation import (
    ALL_CHANNELS,
    CHANNEL_CITATIONS,
    CHANNEL_DOCTYPES,
    FittedModels,
    PropagationConfig,
    iteration_rng,
    pool_processes,
    propagate,
    summarize,
)
from bibuq.simulation import _binned, _binned_items, _build_workspace, _grouped_columns
from helpers import make_pubset

import oracle


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

    @settings(max_examples=300, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 1.0, -2.5]),
                st.floats(allow_nan=False, allow_infinity=False),
            ),
            min_size=1,
            max_size=60,
        )
    )
    @example(values=[0.0, -0.0])
    @example(values=[-0.0, -0.0, 0.0])
    @example(values=[-0.0])
    @example(values=[1.7e308, 1.6e308, -1.7e308])
    @example(values=[1.7e308, 1.7e308])
    # 21 values put the 2.5% point halfway between the two lowest, where
    # interpolating from either end rounds differently.
    @example(values=[-130.31572316043608, 0.09053558666731178] + [1.0] * 19)
    def test_summary_is_numpy_median_and_quantiles_bit_for_bit(self, values):
        # Odd and even lengths, ties, signed zeros and magnitudes whose
        # sums and differences overflow.
        with np.errstate(over="ignore", invalid="ignore"):
            s = summarize(np.array(values))
            want = [np.median(values), *np.quantile(values, [0.025, 0.975])]
        got = [s.median, s.ci_low, s.ci_high]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]


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
        assert reference.name == "reference"
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

    @staticmethod
    def _config(**changes) -> ScenarioConfig:
        defaults = dict(
            unit_sizes={"A": 3},
            unit_locations={"A": 1.0},
            reference_size=4,
            reference_location=1.0,
            seed=2,
        )
        return ScenarioConfig(**{**defaults, **changes})

    def test_numpy_integers_are_stored_as_python_ints(self):
        cfg = self._config(
            unit_sizes={"A": np.int32(3)}, reference_size=np.int64(4), seed=np.uint64(2)
        )
        values = [cfg.unit_sizes["A"], cfg.reference_size, cfg.seed]
        assert values == [3, 4, 2] and [type(v) for v in values] == [int] * 3
        assert generate_scenario(cfg) == generate_scenario(self._config())

    @pytest.mark.parametrize(
        "changes, name",
        [
            ({"seed": True}, "seed"),
            ({"seed": 2.5}, "seed"),
            ({"unit_sizes": {"A": 2.5}}, r"unit_sizes\['A'\]"),
            ({"unit_sizes": {"A": True}}, r"unit_sizes\['A'\]"),
            ({"reference_size": 2.5}, "reference_size"),
            ({"reference_size": "4"}, "reference_size"),
        ],
    )
    def test_non_integer_values_rejected(self, changes, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            self._config(**changes)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_out_of_range_rejected(self, seed):
        with pytest.raises(ValidationError, match="^seed must be a non-negative 64-bit integer"):
            self._config(seed=seed)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), "1.0"])
    @pytest.mark.parametrize(
        "location, name",
        [(lambda x: {"unit_locations": {"A": x}}, r"unit_locations\['A'\]"),
         (lambda x: {"reference_location": x}, "reference_location")],
        ids=["unit", "reference"],
    )
    def test_non_finite_locations_rejected(self, value, location, name):
        # Each failed late inside generate_scenario, a NaN or infinity
        # through a negative citation count and a string in numpy.
        with pytest.raises(ValidationError, match=f"^{name} must be a finite number, got "):
            self._config(**location(value))


# sha256 of synthesize_training_sample(seed) as little-endian int64
# (observed row, then omitted row), and of the publications CSV of the
# scenarios that exercises "2"-"4" and "A1"-"A3" draw at seed 0, recorded
# before their tuning parameters became module constants.
_PINNED_SYNTH_SHA256 = [
    "2a7883b190489a0713520abd0d0e895de4a166b202916e1b6caaee54d9da2895",
    "41e8200fabd996d2957b86cdb32624ff4860dbe594f1836e6fd1755c85e977de",
    "210a660f9dd4d73fc811b403f3fb26dc493daeca47ae8065f3fe940d1cd3cedb",
    "f2989d234ce4f37fb7644b0749a13682fca3c9b8df75ade4ff898d873b670823",
    "16b05e3672c8fb9aed5e7aa8318c794515b252b11d6b2c0b2242285662eadb3d",
]
_PINNED_SCENARIO_SHA256 = {
    "second-kind": "615dd76f9cbbfc31c1f44e2829e5d6c2ff9fddbf680d3da781744e84b34e1ab4",
    "first-kind": "1f04fedcf70e11d866ff7b236598d2084d97b2cbd2f23637026f9ba38a2612bb",
}


@pytest.mark.parametrize("seed", range(5))
def test_synthesized_sample_bytes_are_pinned(seed):
    sample = synthesize_training_sample(seed=seed)
    data = np.stack([sample.observed, sample.omitted]).astype("<i8").tobytes()
    assert hashlib.sha256(data).hexdigest() == _PINNED_SYNTH_SHA256[seed]


@pytest.mark.parametrize("kind", sorted(_PINNED_SCENARIO_SHA256))
def test_exercise_scenario_bytes_are_pinned(tmp_path, kind):
    make = {
        "second-kind": exercises._second_kind_scenario,
        "first-kind": exercises._first_kind_scenario,
    }[kind]
    units, reference = generate_scenario(make(subseed(0, 1)))
    path = tmp_path / "pubs.csv"
    write_publications(units + [reference], path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_SCENARIO_SHA256[kind]


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
            payloads.append(json.dumps(report_payload(res), sort_keys=True))
        assert payloads[0] == payloads[1] == payloads[2]

    def test_pool_processes_capped_by_cpus_and_chunks(self):
        assert pool_processes(8, 8, 2) == 2
        assert pool_processes(2, 8, 16) == 2
        assert pool_processes(8, 3, 16) == 3
        assert pool_processes(10**6, 10**6, 2) == 2
        assert pool_processes(10**6, 4, 10**6) == 4
        assert pool_processes(10**6, 10**6, None) == 1
        assert pool_processes(3, 0, 4) == 1

    def test_one_cpu_runs_in_process(
        self, monkeypatch, capsys, small_unit, small_reference, small_models
    ):
        def run(workers: int):
            cfg = PropagationConfig(iterations=40, seed=4, workers=workers)
            return propagate(
                small_unit, reference=small_reference, models=small_models, config=cfg
            )

        expected = run(1)
        monkeypatch.setattr(simulation.os, "cpu_count", lambda: 1)

        def no_pool(*args, **kwargs):
            raise AssertionError("a one-process pool was opened")

        monkeypatch.setattr(multiprocessing, "Pool", no_pool)
        capsys.readouterr()
        result = run(4)
        assert result.run_info["worker_processes"] == 1
        assert "note: running 1 of 4 requested worker processes (1 CPUs" in capsys.readouterr().err
        for unit in result.units:
            for indicator in ("P", "C", "MNCS"):
                np.testing.assert_array_equal(
                    result.distribution(unit, indicator).replicates,
                    expected.distribution(unit, indicator).replicates,
                )

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

    def test_numpy_integer_settings_write_json_integers(
        self, tmp_path, small_unit, small_reference, small_models
    ):
        # The settings are stored as Python ints, so the report is the
        # one a run with Python ints writes, its seed a JSON integer.
        cfg = PropagationConfig(iterations=np.int64(6), seed=np.uint64(3), workers=np.int32(1))
        assert [type(v) for v in (cfg.iterations, cfg.seed, cfg.workers)] == [int] * 3
        plain = PropagationConfig(iterations=6, seed=3)
        for name, config in (("numpy", cfg), ("plain", plain)):
            result = propagate(small_unit, small_reference, small_models, config)
            write_report_json(result, tmp_path / f"{name}.json")
        written = (tmp_path / "numpy.json").read_bytes()
        assert written == (tmp_path / "plain.json").read_bytes()
        seed = json.loads(written)["seed"]
        assert seed == 3 and type(seed) is int

    @pytest.mark.parametrize(
        "values, name",
        [
            ({"seed": True}, "seed"),
            ({"seed": 3.0}, "seed"),
            ({"iterations": 2.5}, "iterations"),
            ({"iterations": np.bool_(True)}, "iterations"),
            ({"workers": 1.5}, "workers"),
            ({"workers": np.float64(2.0)}, "workers"),
            ({"workers": "2"}, "workers"),
        ],
    )
    def test_non_integer_settings_rejected(self, values, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            PropagationConfig(**values)

    def test_channels_as_one_string_rejected(self):
        # A string is a collection of its letters, not of channel names.
        message = "^channels must be a collection of channel names, not the string 'citations'$"
        with pytest.raises(UsageError, match=message):
            PropagationConfig(channels=CHANNEL_CITATIONS)
        assert PropagationConfig(channels=[CHANNEL_CITATIONS]).channels == {CHANNEL_CITATIONS}

    def test_pooled_normalization_takes_only_bools(self):
        # A truthy string or an int would pick a normalization by accident.
        message = "^pooled_normalization must be a bool, got "
        for value in ("false", 0, 1, None, np.int64(0)):
            with pytest.raises(ValidationError, match=message):
                PropagationConfig(pooled_normalization=value)
        for value, expected in ((True, True), (np.bool_(False), False)):
            stored = PropagationConfig(pooled_normalization=value).pooled_normalization
            assert stored is expected

    def test_empty_universe_rejected(self, small_models):
        empty = PublicationSet(name="A", members=())
        with pytest.raises(UsageError, match="normalization universe is empty"):
            propagate(empty, models=small_models, config=PropagationConfig(iterations=5))

    def test_repeated_unit_name_rejected(self, small_unit, small_reference, small_models):
        # Results are keyed by unit name, so a second "A" would overwrite the first.
        with pytest.raises(UsageError, match="unit names must be unique; repeated: A$"):
            propagate(
                [small_unit, small_unit],
                reference=small_reference,
                models=small_models,
                config=PropagationConfig(iterations=5),
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

    def test_dump_matches_replicates_and_leaves_report_unchanged(
        self, tmp_path, small_unit, small_reference, small_models
    ):
        second = make_pubset("B", [("review", 4), ("other", 9), ("article", 1), ("letter", 0)])
        units = [small_unit, second]
        cfg = PropagationConfig(iterations=30, seed=12)
        assert cfg.channels == ALL_CHANNELS and cfg.key_mode == "doctype"
        plain = propagate(units, reference=small_reference, models=small_models, config=cfg)
        dump = tmp_path / "items.csv"
        dumped = propagate(
            units, reference=small_reference, models=small_models, config=cfg, dump_items=dump
        )
        # These sets are too varied to group, so the run without the dump
        # also draws one publication at a time and the draws coincide.
        assert plain.run_info["grouped_draws"] is False
        write_report_json(plain, tmp_path / "plain.json")
        write_report_json(dumped, tmp_path / "dumped.json")
        assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "dumped.json").read_bytes()

        with dump.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == cfg.iterations * (len(small_unit) + len(second))
        unit_of = {pub.id: u for u, pubset in enumerate(units) for pub in pubset}
        p_dump = np.zeros((cfg.iterations, len(units)))
        c_dump = np.zeros((cfg.iterations, len(units)))
        for iteration, pub_id, citations, doctype in rows:
            if DocType.parse(doctype) in (DocType.ARTICLE, DocType.REVIEW):
                p_dump[int(iteration), unit_of[pub_id]] += 1
                c_dump[int(iteration), unit_of[pub_id]] += int(citations)
        for u, pubset in enumerate(units):
            for result in (plain, dumped):
                p_rep = result.distribution(pubset.name, "P").replicates
                c_rep = result.distribution(pubset.name, "C").replicates
                assert np.array_equal(p_rep, p_dump[:, u])
                assert np.array_equal(c_rep, c_dump[:, u])

    def test_dump_notes_single_process(
        self, tmp_path, capsys, small_unit, small_reference, small_models
    ):
        # The dump path never opens a pool, so workers=3 starts no process.
        def stderr_of(workers: int) -> str:
            propagate(
                small_unit,
                reference=small_reference,
                models=small_models,
                config=PropagationConfig(iterations=8, seed=2, workers=workers),
                dump_items=tmp_path / f"items{workers}.csv",
            )
            return capsys.readouterr().err

        assert stderr_of(1) == ""
        assert stderr_of(3) == (
            "note: running 1 of 3 requested worker processes "
            "(the item dump is written by one process)\n"
        )


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

    def test_numpy_integer_arguments_write_json_integers(self):
        # Stored as Python ints, so the payload is the one Python ints give.
        rep = run_exercise("2", iterations=np.int64(20), seed=np.int64(3))
        assert type(rep.iterations) is int and type(rep.seed) is int
        payload = json.loads(json.dumps(rep.to_dict()))
        plain = run_exercise("2", iterations=20, seed=3).to_dict()
        assert payload == json.loads(json.dumps(plain))
        assert payload["iterations"] == 20 and payload["seed"] == 3

    @pytest.mark.parametrize(
        "values, name",
        [
            ({"seed": True}, "seed"),
            ({"seed": 2.5}, "seed"),
            ({"seed": "3"}, "seed"),
            ({"iterations": np.bool_(True)}, "iterations"),
            ({"iterations": 20.0}, "iterations"),
            ({"iterations": "20"}, "iterations"),
        ],
    )
    def test_non_integer_arguments_rejected(self, values, name):
        with pytest.raises(ValidationError, match=f"^{name} must be an integer, got "):
            run_exercise("2", **values)

    def test_exercise_is_deterministic(self):
        a = run_exercise("2", iterations=40, seed=9)
        b = run_exercise("2", iterations=40, seed=9)
        assert json.dumps(report_payload(a.result), sort_keys=True) == json.dumps(
            report_payload(b.result), sort_keys=True
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

    def test_run_info_stays_out_of_report_json(self, tmp_path, result):
        info = result.run_info
        assert info["kernel_columns"] == info["publications"]  # too few to group
        assert sorted(info["timings"]) == ["kernel", "observed", "summaries", "workspace"]
        assert all(seconds >= 0.0 for seconds in info["timings"].values())
        with_info = tmp_path / "with.json"
        without = tmp_path / "without.json"
        write_report_json(result, with_info)
        write_report_json(dataclasses.replace(result, run_info={}), without)
        assert with_info.read_bytes() == without.read_bytes()

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


# ---------------------------------------------------------------------------
# Blocked kernel against the per-iteration oracle
# ---------------------------------------------------------------------------


def _field_pubset(unit: str, rows) -> PublicationSet:
    """A set from (doctype_label, citations, year, field) rows."""
    return PublicationSet(
        name=unit,
        members=tuple(
            Publication(
                id=f"{unit}-{i}",
                unit=unit,
                doctype=DocType.parse(label),
                year=year,
                citations=c,
                field=field_name,
            )
            for i, (label, c, year, field_name) in enumerate(rows)
        ),
    )


@pytest.fixture(scope="module")
def field_units():
    # Field-less core items, a cell ("z") the reference lacks and a cell
    # ("w") whose reference items are all uncited.
    return [
        _field_pubset(
            "F",
            [
                ("article", 4, 2010, "x"),
                ("article", 0, 2010, "x"),
                ("review", 9, 2010, "x"),
                ("article", 3, 2010, None),
                ("review", 2, 2011, None),
                ("letter", 1, 2010, "x"),
                ("article", 6, 2011, "y"),
                ("article", 5, 2012, "z"),
                ("article", 7, 2010, "w"),
                ("other", 2, 2011, "y"),
            ],
        ),
        _field_pubset(
            "G",
            [
                ("article", 1, 2011, "y"),
                ("review", 0, 2010, None),
                ("article", 12, 2010, "x"),
                ("letter", 0, 2010, "w"),
            ],
        ),
    ]


@pytest.fixture(scope="module")
def field_reference():
    rows = [("article", c, 2010, "x") for c in (2, 5, 8, 1, 0)]
    rows += [("review", 3, 2010, "x"), ("review", 11, 2010, "x")]
    rows += [("letter", 0, 2010, "x"), ("other", 4, 2010, "x")]
    rows += [("article", c, 2011, "y") for c in (0, 2, 6, 3)] + [("review", 1, 2011, "y")]
    rows += [("article", 0, 2010, "w")] * 3 + [("article", 5, 2010, None)]
    return _field_pubset("ref", rows)


@pytest.fixture(scope="module")
def grouped_units(field_units):
    return [_repeated(pubset, 6) for pubset in field_units]


@pytest.fixture(scope="module")
def grouped_reference(field_reference):
    return _repeated(field_reference, 6)


def _repeated(pubset: PublicationSet, times: int) -> PublicationSet:
    """Each publication ``times`` over under fresh ids, so groups have members."""
    members = tuple(
        Publication(
            id=f"{pub.id}-{r}",
            unit=pub.unit,
            doctype=pub.doctype,
            year=pub.year,
            citations=pub.citations,
            field=pub.field,
        )
        for r in range(times)
        for pub in pubset
    )
    return PublicationSet(name=pubset.name, members=members)


def _oracle_replicates(units, reference, models, config, block_size=None):
    """Per iteration and unit: P, C, MNCS, exclusions; unit citations, codes.

    Drawn block by block as ``oracle.simulate_block`` draws them, or one
    substream per iteration by ``oracle.simulate_one`` when
    ``block_size`` is None.
    """
    layout = oracle.publication_layout(units, reference, config)
    n = config.iterations
    if block_size is None:
        steps = [oracle.simulate_one(layout, models, config, j) for j in range(n)]
    else:
        steps = [
            step
            for lo in range(0, n, block_size)
            for step in oracle.simulate_block(
                layout, models, config, lo, min(lo + block_size, n), block_size
            )
        ]
    of_unit = layout.unit_index >= 0
    out = [np.array([step[k] for step in steps]) for k in range(4)]
    out += [np.array([step[k][of_unit] for step in steps]) for k in (4, 5)]
    return out


def _read_dump(path, units, iterations):
    """Dumped citations and doctype codes as (iterations, unit publications)."""
    ids = [pub.id for pubset in units for pub in pubset]
    with path.open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [(int(r[0]), r[1]) for r in rows] == [(j, i) for j in range(iterations) for i in ids]
    shape = (iterations, len(ids))
    citations = np.array([int(r[2]) for r in rows], dtype=np.int64).reshape(shape)
    codes = np.array([doctype_index(DocType.parse(r[3])) for r in rows]).reshape(shape)
    return citations, codes


def _replicates(result, indicator):
    return np.column_stack([result.distribution(u, indicator).replicates for u in result.units])


def _excluded(result):
    return np.column_stack([result.distribution(u, "MNCS").excluded for u in result.units])


_ONLY_C = frozenset({CHANNEL_CITATIONS})
_ONLY_D = frozenset({CHANNEL_DOCTYPES})

# (direction, key mode, channels, pooled normalization).  Cases 4 and 5
# redraw first-kind citations, so every publication is its own group;
# the others group the repeated publications.
_ORACLE_CASES = [
    (SECOND_KIND, KEY_DOCTYPE, ALL_CHANNELS, True),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, _ONLY_C, False),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, _ONLY_D, True),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, ALL_CHANNELS, False),
    (FIRST_KIND, KEY_DOCTYPE_YEAR_FIELD, ALL_CHANNELS, False),
    (FIRST_KIND, KEY_DOCTYPE, _ONLY_C, True),
    (FIRST_KIND, KEY_DOCTYPE, _ONLY_D, False),
]

_ORACLE_ITERATIONS = 23

# Block budgets in column-iterations, as a function of the run's kernel
# columns: one element (blocks of one iteration), an odd block of three
# that leaves a short last block, and one block past the run.
_BUDGETS = {
    "one-element": lambda columns: 1,
    "odd-block": lambda columns: 3 * columns + columns // 2,
    "past-the-run": lambda columns: 10**9,
}


def _case_config(case: int, iterations: int) -> PropagationConfig:
    direction, key_mode, channels, pooled = _ORACLE_CASES[case]
    return PropagationConfig(
        iterations=iterations,
        seed=31 + case,
        channels=channels,
        direction=direction,
        key_mode=key_mode,
        pooled_normalization=pooled,
    )


def _assert_matches(result, oracle_values):
    p, c, m, x = oracle_values[:4]
    assert np.array_equal(_replicates(result, "P"), p)
    assert np.array_equal(_replicates(result, "C"), c)
    assert np.array_equal(_replicates(result, "MNCS"), m, equal_nan=True)
    assert np.array_equal(_excluded(result), x)


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", range(len(_ORACLE_CASES)))
def test_block_kernel_matches_oracle(
    tmp_path,
    monkeypatch,
    budget,
    case,
    grouped_units,
    grouped_reference,
    small_models,
    first_kind_models,
):
    """The kernel against the per-publication oracle at three block sizes.

    Each kernel block draws from its own substream, every doctype draw
    first, and the oracle draws the same blocks.  Where every publication
    is its own group (first-kind citation redraws, and any dump run) all
    outputs and the dumped draws match the oracle at that block size bit
    for bit.  With citations alone the doctypes stay put, so P matches
    too.  Grouped doctype redraws tally each group's new types over
    article, review and non-core, the small groups' uniforms first and
    then one multinomial per large group, not one uniform per publication
    in layout order, and grouped citation draws sum a cell's omissions in
    one draw; those agree with the oracle only in distribution (see
    test_grouped_draws_agree_with_oracle_in_distribution).
    """
    direction, _, channels, _ = _ORACLE_CASES[case]
    models = small_models if direction == SECOND_KIND else first_kind_models
    cfg = _case_config(case, _ORACLE_ITERATIONS)
    all_single = direction == FIRST_KIND and CHANNEL_CITATIONS in channels
    columns = _build_workspace(grouped_units, grouped_reference, models, cfg).col_citations.size
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", _BUDGETS[budget](columns))
    ws = _build_workspace(grouped_units, grouped_reference, models, cfg)
    assert ws.per_item == all_single
    if all_single:
        assert ws.groups == ws.publications
    expected_block = {"one-element": 1, "odd-block": 3}.get(budget)
    if expected_block is None:
        assert ws.block_size > cfg.iterations
    else:
        assert ws.block_size == expected_block
    dump_block = _build_workspace(
        grouped_units, grouped_reference, models, cfg, keep_ids=True
    ).block_size

    expected = _oracle_replicates(grouped_units, grouped_reference, models, cfg, ws.block_size)
    expected_dump = _oracle_replicates(
        grouped_units, grouped_reference, models, cfg, dump_block
    )
    dump = tmp_path / "items.csv"
    plain = propagate(grouped_units, grouped_reference, models, cfg)
    dumped = propagate(grouped_units, grouped_reference, models, cfg, dump_items=dump)
    assert dumped.run_info["grouped_draws"] is False
    assert plain.run_info["grouped_draws"] is not all_single
    for result in (plain, dumped):
        assert _excluded(result).dtype == np.int64
    _assert_matches(dumped, expected_dump)
    if all_single:
        _assert_matches(plain, expected)
    if CHANNEL_DOCTYPES not in channels:
        assert np.array_equal(_replicates(plain, "P"), expected[0])
    dumped_citations, dumped_codes = _read_dump(dump, grouped_units, cfg.iterations)
    assert np.array_equal(dumped_citations, expected_dump[4])
    assert np.array_equal(dumped_codes, expected_dump[5])


@pytest.mark.parametrize("case", range(len(_ORACLE_CASES)))
def test_blocks_of_one_iteration_draw_per_iteration_substreams(
    tmp_path, monkeypatch, case, grouped_units, grouped_reference, small_models, first_kind_models
):
    """A block of one iteration is keyed and drawn as iteration keying was.

    With one iteration per block (the kernel's choice past
    ``BLOCK_BUDGET`` columns) every per-publication run matches
    ``oracle.simulate_one``, one (seed, iteration) substream each.
    """
    direction, _, channels, _ = _ORACLE_CASES[case]
    models = small_models if direction == SECOND_KIND else first_kind_models
    cfg = _case_config(case, _ORACLE_ITERATIONS)
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 1)
    expected = _oracle_replicates(grouped_units, grouped_reference, models, cfg)
    dump = tmp_path / "items.csv"
    dumped = propagate(grouped_units, grouped_reference, models, cfg, dump_items=dump)
    _assert_matches(dumped, expected)
    dumped_citations, dumped_codes = _read_dump(dump, grouped_units, cfg.iterations)
    assert np.array_equal(dumped_citations, expected[4])
    assert np.array_equal(dumped_codes, expected[5])
    if direction == FIRST_KIND and CHANNEL_CITATIONS in channels:
        _assert_matches(propagate(grouped_units, grouped_reference, models, cfg), expected)


# (doctype label, citations, year, field); zero citations are common so
# that zero-mean cells turn up.
_OBSERVED_ROW = st.tuples(
    st.sampled_from(["article", "review", "letter", "other"]),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=60)),
    st.sampled_from([2010, 2011]),
    st.sampled_from([None, "x", "y"]),
)

# Kernel layout: (direction, channels, copies of each input row, item
# dump, grouped).  Six copies make every group of rows that are not
# singletons at least six publications, so the grouped layouts always
# narrow the kernel; without copies, "per-item" runs almost always draw
# per publication, and first-kind citation redraws and the dump always do.
_OBSERVED_LAYOUTS = {
    "per-item": (SECOND_KIND, ALL_CHANNELS, 1, False, False),
    "grouped": (SECOND_KIND, _ONLY_C, 6, False, True),
    "runs": (SECOND_KIND, _ONLY_D, 6, False, True),
    "first-kind": (FIRST_KIND, ALL_CHANNELS, 1, False, False),
    "item-dump": (SECOND_KIND, ALL_CHANNELS, 3, True, False),
}


@pytest.mark.parametrize("layout", list(_OBSERVED_LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(
    units=st.lists(st.lists(_OBSERVED_ROW, max_size=12), min_size=1, max_size=3),
    reference=st.lists(_OBSERVED_ROW, min_size=1, max_size=12),
    key_mode=st.sampled_from([KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD]),
    pooled=st.booleans(),
)
# A unit with a field-less article, a cell the reference-only universe
# lacks, and a zero-mean cell holding an uncited and a cited article.
@example(
    units=[
        [
            ("article", 5, 2010, None),
            ("review", 2, 2011, "y"),
            ("article", 0, 2010, "x"),
            ("article", 3, 2010, "x"),
            ("letter", 2, 2010, "x"),
        ],
    ],
    reference=[("article", 0, 2010, "x"), ("article", 4, 2011, "x"), ("letter", 1, 2011, "y")],
    key_mode=KEY_DOCTYPE_YEAR_FIELD,
    pooled=False,
)
def test_observed_matches_library_path(
    layout, units, reference, key_mode, pooled, small_models, first_kind_models
):
    """``propagate``'s observed values are ``indicators_for``'s.

    P, C and the exclusions match exactly and MNCS to 1e-12 relative.
    When every kernel column is one publication, MNCS matches the oracle's
    ``score`` of the recorded data bit for bit: both add up the items'
    citations per (unit, cell) entry before dividing by the cell mean,
    where ``indicators_for`` divides item by item.
    """
    direction, channels, copies, dump, grouped = _OBSERVED_LAYOUTS[layout]
    unit_sets = [_field_pubset(f"U{u}", rows * copies) for u, rows in enumerate(units)]
    ref = _field_pubset("ref", reference * copies)
    models = small_models if direction == SECOND_KIND else first_kind_models
    config = PropagationConfig(
        iterations=1,
        seed=0,
        channels=channels,
        direction=direction,
        key_mode=key_mode,
        pooled_normalization=pooled,
    )
    try:
        cells = build_normalization(unit_sets + [ref] if pooled else [ref], key_mode)
    except UsageError:
        with pytest.raises(UsageError, match="normalization universe is empty"):
            propagate(unit_sets, ref, models, config)
        return
    with tempfile.TemporaryDirectory() as tmp:
        result = propagate(
            unit_sets, ref, models, config, dump_items=Path(tmp) / "items.csv" if dump else None
        )
    assume(result.run_info["grouped_draws"] == grouped)
    layout_rows = oracle.publication_layout(unit_sets, ref, config)
    scored = oracle.score(layout_rows, layout_rows.citations, layout_rows.dt_codes)
    for u, pubset in enumerate(unit_sets):
        got, want = result.observed[pubset.name], indicators_for(pubset, cells)
        assert (got.unit, got.p, got.c, got.excluded) == (want.unit, want.p, want.c, want.excluded)
        assert type(got.p) is int and type(got.c) is int and type(got.excluded) is int
        if want.mncs is None:
            assert got.mncs is None
        else:
            assert abs(got.mncs - want.mncs) <= 1e-12 * abs(want.mncs)
        if not grouped:
            assert _float_bits(got.mncs) == _float_bits(None if want.mncs is None else scored[2][u])


def _float_bits(value):
    return None if value is None else float(value).hex()


# Per-item layouts: (direction, channels, item dump).  First-kind citation
# redraws draw every publication on its own, and so does a dump.
_PER_ITEM_LAYOUTS = {
    "first-kind": (FIRST_KIND, ALL_CHANNELS, False),
    "first-kind-citations": (FIRST_KIND, _ONLY_C, False),
    "item-dump": (SECOND_KIND, ALL_CHANNELS, True),
    "item-dump-doctypes": (SECOND_KIND, _ONLY_D, True),
}


@pytest.mark.parametrize("layout", list(_PER_ITEM_LAYOUTS))
@settings(max_examples=50, deadline=None)
@given(
    units=st.lists(st.lists(_OBSERVED_ROW, max_size=12), min_size=1, max_size=3),
    reference=st.lists(_OBSERVED_ROW, min_size=1, max_size=12),
    key_mode=st.sampled_from([KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD]),
    pooled=st.booleans(),
    iterations=st.integers(min_value=2, max_value=5),
    rows_per_block=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=2**32),
)
# A unit with no core items; a unit with a field-less review, an uncited
# and a cited article in a cell whose reference items are all uncited,
# and a cell ("y", 2011) that only the reference set lacks.
@example(
    units=[
        [("letter", 3, 2010, "x"), ("other", 0, 2011, "y")],
        [
            ("review", 4, 2010, None),
            ("article", 0, 2010, "x"),
            ("article", 6, 2010, "x"),
            ("article", 2, 2011, "y"),
        ],
    ],
    reference=[("article", 0, 2010, "x"), ("article", 0, 2010, "x"), ("review", 5, 2011, "x")],
    key_mode=KEY_DOCTYPE_YEAR_FIELD,
    pooled=False,
    iterations=5,
    rows_per_block=2,
    seed=11,
)
def test_per_item_replicates_match_oracle(
    layout,
    units,
    reference,
    key_mode,
    pooled,
    iterations,
    rows_per_block,
    seed,
    small_models,
    first_kind_models,
):
    """Per-item rows, tallied into bins and scored, against the per-publication oracle.

    On random layouts and block sizes, P, C, the MNCS float bits and the
    exclusions of every replicate equal ``oracle.simulate_block``'s, and
    so do the dumped draws.
    """
    direction, channels, dump = _PER_ITEM_LAYOUTS[layout]
    unit_sets = [_field_pubset(f"U{u}", rows) for u, rows in enumerate(units)]
    ref = _field_pubset("ref", reference)
    models = small_models if direction == SECOND_KIND else first_kind_models
    config = PropagationConfig(
        iterations=iterations,
        seed=seed,
        channels=channels,
        direction=direction,
        key_mode=key_mode,
        pooled_normalization=pooled,
    )
    columns = sum(map(len, unit_sets)) + len(ref)
    with mock.patch.object(simulation, "BLOCK_BUDGET", rows_per_block * columns):
        try:
            ws = _build_workspace(unit_sets, ref, models, config, keep_ids=dump)
        except UsageError as err:
            assert str(err) == "normalization universe is empty"
            return
        assert ws.per_item and ws.block_size == rows_per_block
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "items.csv"
            result = propagate(unit_sets, ref, models, config, dump_items=path if dump else None)
            if dump:
                dumped = _read_dump(path, unit_sets, iterations)
    expected = _oracle_replicates(unit_sets, ref, models, config, rows_per_block)
    _assert_matches(result, expected)
    mncs = _replicates(result, "MNCS")
    assert np.array_equal(mncs.view(np.uint64), expected[2].view(np.uint64))
    if dump:
        assert all(np.array_equal(a, b) for a, b in zip(dumped, expected[4:]))


def _binned_per_column(ws, rows, k, types, change, col_bins=None):
    """``_binned``'s sums, each row's columns added into its bins with ``np.add.at``.

    Per item a core item goes to its pair's article bin, read from the
    first row of ``ws.bin_slots``, plus its doctype, 2 further when it is
    uncited under reference-only normalization, and a non-core item goes
    nowhere.  Grouped, column j of row r puts ``k[r, j]`` items into bin
    ``col_bins[r, j]``.
    """
    n = ws.col_citations.size
    bin_types = ws.unit_cells[: ws.n_bins] % 4
    items, citations = np.zeros((rows, ws.n_bins)), np.zeros((rows, ws.n_bins))
    for r in range(rows):
        if ws.per_item:
            row_types = np.broadcast_to(types, (rows, n))[r]
            c = ws.col_citations + (0 if change is None else change[r])
            bins = ws.bin_slots[0] + row_types
            if not ws.config.pooled_normalization:
                bins = bins + 2 * (c == 0)
            core = row_types < 2
            assert (bin_types[bins[core]] == row_types[core]).all()
            np.add.at(items[r], bins[core], 1)
            np.add.at(citations[r], bins[core], c[core])
        else:
            np.add.at(items[r], col_bins[r], k[r])
            np.add.at(citations[r], col_bins[r], k[r] * ws.col_citations)
            if change is not None:
                citations[r] += change[r]
    return items, citations


# _binned's layouts: (channels, copies of each input row, item dump).
# Grouped runs draw their columns' items per row; without doctype redraws
# every row shares the groups' sizes.  The per-item layout dumps its
# items, under reference-only normalization and with a letter and an
# uncited article in its first unit.
_BINNED_LAYOUTS = {
    "grouped-runs": (ALL_CHANNELS, 6, False),
    "grouped": (_ONLY_C, 6, False),
    "per-item": (ALL_CHANNELS, 1, True),
}


@pytest.mark.parametrize("layout", list(_BINNED_LAYOUTS))
@settings(max_examples=40, deadline=None)
@given(
    units=st.lists(st.lists(_OBSERVED_ROW, max_size=12), min_size=1, max_size=3),
    reference=st.lists(_OBSERVED_ROW, min_size=1, max_size=12),
    key_mode=st.sampled_from([KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD]),
    pooled=st.booleans(),
    short=st.booleans(),
    redrawn=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_binned_sums_match_a_sum_per_column(
    layout, units, reference, key_mode, pooled, short, redrawn, seed, small_models
):
    """``_binned`` over a block's leading rows equals a per-column sum.

    On random layouts, for a full block and a short last block, with and
    without drawn doctypes and citation changes, the per-(row, bin) items
    and citations equal ``_binned_per_column``'s exactly.
    """
    channels, copies, dump = _BINNED_LAYOUTS[layout]
    if dump:
        units[0] = units[0] + [("letter", 3, 2010, "x"), ("article", 0, 2010, "x")]
        pooled = False
    unit_sets = [_field_pubset(f"U{u}", rows * copies) for u, rows in enumerate(units)]
    ref = _field_pubset("ref", reference * copies)
    config = PropagationConfig(
        iterations=4, channels=channels, key_mode=key_mode, pooled_normalization=pooled
    )
    try:
        ws = _build_workspace(unit_sets, ref, small_models, config, keep_ids=dump)
    except UsageError as err:
        assert str(err) == "normalization universe is empty"
        return
    assume(ws.per_item == dump)
    assert ws.block_size >= config.iterations  # the index arrays hold 4 rows
    rows = 3 if short else 4
    n = ws.col_citations.size
    rng = np.random.default_rng(seed)
    types, change = ws.col_types, None
    if ws.per_item:
        if redrawn:
            types = rng.integers(0, 4, (rows, n))
            change = rng.integers(-ws.col_citations, 6, (rows, n))
        got = _binned_items(ws, rows, types, change)
        want = _binned_per_column(ws, rows, None, types, change)
    else:
        tally = None
        if CHANNEL_DOCTYPES in channels:
            # Random run tallies; a one-publication run holds one item.
            tally = rng.integers(0, 5, (ws.doctype_split.rows * 3, rows))
            lone_runs = ws.col_tally[ws.lone_cols] // 3
            drawn = rng.integers(0, 3, (lone_runs.size, rows))
            for category in range(3):
                tally[3 * lone_runs + category] = drawn == category
        k, slots = _grouped_columns(ws, rows, tally)
        if redrawn:
            change = rng.integers(0, 9, (rows, ws.n_bins))
        got = _binned(ws, rows, k, slots, change)
        # Column-major slots: column j's bin in row r is its slot less r * n_bins.
        col_bins = slots.reshape(n, rows).T - ws.n_bins * np.arange(rows)[:, None]
        want = _binned_per_column(ws, rows, np.broadcast_to(k, (n, rows)).T, None, change, col_bins)
        # A column's bin has its doctype; only a one-publication run's
        # column moves, into the review bin of its unit slot and cell.
        base = ws.bin_slots[:, 0]
        bin_types = ws.unit_cells[: ws.n_bins] % 4
        assert (bin_types[base] == ws.col_types).all()
        moved = col_bins != base
        lone = [] if tally is None else ws.lone_cols.tolist()
        assert set(np.flatnonzero(moved.any(axis=0))) <= set(lone)
        assert (bin_types[col_bins[moved]] == 1).all()
        for index in (ws.unit_slots, ws.unit_cells // 4):
            assert np.array_equal(index[col_bins], np.broadcast_to(index[base], col_bins.shape))
    assert [a.shape for a in got] == [(rows, ws.n_bins)] * 2
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


# sha256 of the field-keyed run's report.json (see
# test_field_keyed_report_bytes_are_pinned) with a one-chain citation
# posterior and blocks of one iteration, each keyed by (seed, iteration).
# A one-chain posterior is cycled in the same order chain-major and
# interleaved, so the bytes pin the grouped kernel's own draws at blocks
# of one iteration.  They no longer equal the output of the kernel that
# keyed a substream per iteration: re-pinned when the grouped columns
# became (run, new doctype) cells, a run being the groups that differ
# only in recorded doctype, and again when the observed values came to be
# scored per kernel column (the observed MNCS of unit F moved by 1 ULP),
# when the grouped columns became (run, new core doctype) cells drawn
# from a three-way doctype multinomial (no observed value moved), and
# when the omitted citations came to be drawn with one Poisson per
# scoring bin instead of one per column (no observed value moved), and
# when a group of at most 8 publications came to tally one uniform per
# publication instead of drawing a multinomial (no observed value moved).
_PER_ITERATION_FIELD_KEYED_SHA256 = (
    "d8409d4ac4083fcbd43d23f6924e7fd6a5888e4ea8b9367e76b1e1166253155d"
)


def test_grouped_blocks_of_one_iteration_bytes_are_pinned(
    tmp_path,
    monkeypatch,
    grouped_units,
    grouped_reference,
    second_kind_posterior,
    doctype_posterior,
):
    """The grouped kernel's report bytes at blocks of one iteration are pinned."""
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 1)
    models = FittedModels(
        citation=NegBinPosterior(draws=second_kind_posterior.draws[:1]), doctype=doctype_posterior
    )
    config = PropagationConfig(
        iterations=300, seed=0, key_mode=KEY_DOCTYPE_YEAR_FIELD, pooled_normalization=False
    )
    result = propagate(grouped_units, grouped_reference, models, config)
    assert result.run_info["grouped_draws"]
    path = tmp_path / "report.json"
    write_report_json(result, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PER_ITERATION_FIELD_KEYED_SHA256


# Paired z-score bound for the grouped-versus-oracle mean differences and
# the band for their ratio of standard deviations, at 2000 iterations.
# Iteration j of both runs uses the same substream and posterior draw, so
# each paired difference has mean zero and the z-score of their mean is
# about standard normal; |z| <= 4 fails a correct kernel with probability
# about 6e-5 per comparison.  The sd ratio of two 2000-replicate samples
# is within a few percent of 1; a sum drawn with the wrong variance (say,
# k times one item's draw) moves it far outside the band.
_AGREEMENT_ITERATIONS = 2000
_AGREEMENT_Z = 4.0
_AGREEMENT_SD_RATIO = (0.85, 1.15)


def _assert_same_law(result, units, reference, models, cfg):
    """P, C, MNCS and MNCS exclusions of a grouped run against the oracle."""
    assert result.run_info["grouped_draws"] is True
    block_size = _build_workspace(units, reference, models, cfg).block_size
    p, c, m, x, _, _ = _oracle_replicates(units, reference, models, cfg, block_size)
    pairs = (
        (_replicates(result, "P"), p),
        (_replicates(result, "C"), c),
        (_replicates(result, "MNCS"), m),
        (_excluded(result), x),
    )
    for kernel, oracle_values in pairs:
        for u in range(kernel.shape[1]):
            both = ~np.isnan(kernel[:, u]) & ~np.isnan(oracle_values[:, u])
            a, b = kernel[both, u], oracle_values[both, u]
            if not (a.std() or b.std()):
                assert np.array_equal(a, b)
                continue
            diff = a - b
            z = diff.mean() / (diff.std(ddof=1) / np.sqrt(diff.size))
            assert abs(z) <= _AGREEMENT_Z
            ratio = a.std(ddof=1) / b.std(ddof=1)
            assert _AGREEMENT_SD_RATIO[0] <= ratio <= _AGREEMENT_SD_RATIO[1]


@pytest.mark.parametrize("case", [0, 1, 2, 3, 6])
def test_grouped_draws_agree_with_oracle_in_distribution(
    case, grouped_units, grouped_reference, small_models, first_kind_models
):
    models = small_models if _ORACLE_CASES[case][0] == SECOND_KIND else first_kind_models
    cfg = _case_config(case, _AGREEMENT_ITERATIONS)
    result = propagate(grouped_units, grouped_reference, models, cfg)
    _assert_same_law(result, grouped_units, grouped_reference, models, cfg)


def test_uncited_unit_items_are_drawn_one_by_one_under_reference_only_normalization():
    # Few omissions (mean exp(-3) per item), so the reference cell of
    # uncited articles often stays at mean zero.  Each uncited unit
    # article is then left out of the MNCS only if it drew an omission
    # itself; were the twelve drawn as one group, all twelve would go
    # whenever any one did, about twelve times as many exclusions.
    unit = make_pubset("A", [("article", 0)] * 12 + [("review", 3)] * 4)
    reference = make_pubset("ref", [("article", 0)] * 12 + [("review", 3)] * 4)
    posterior = NegBinPosterior(draws=np.array([[[-3.0, 0.0, 2.0]]]))
    models = FittedModels(citation=posterior)
    cfg = PropagationConfig(
        iterations=_AGREEMENT_ITERATIONS,
        seed=53,
        channels=_ONLY_C,
        pooled_normalization=False,
    )
    ws = _build_workspace([unit], reference, models, cfg)
    assert ws.groups == 12 + 3  # twelve uncited singletons, cited unit, two reference
    result = propagate([unit], reference, models, cfg)
    assert result.distribution("A", "MNCS").excluded.mean() > 0
    _assert_same_law(result, [unit], reference, models, cfg)


def test_workspace_groups_exchangeable_publications(grouped_units, grouped_reference, small_models):
    cfg = PropagationConfig(iterations=5, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    ws = _build_workspace(grouped_units, grouped_reference, small_models, cfg)
    keys = {
        (u, pub.year if pub.field else None, pub.field, pub.doctype, pub.citations)
        for u, pubset in enumerate(grouped_units + [grouped_reference])
        for pub in pubset
    }
    assert ws.publications == 6 * 32
    assert ws.groups == len(keys)
    assert not ws.per_item
    # Two columns per run, one per core doctype: a run is the groups that
    # differ only in recorded doctype.
    runs = {(u, year, field_name, c) for u, year, field_name, _, c in keys}
    assert len(runs) < len(keys)
    assert ws.col_citations.size == 2 * len(runs)
    assert (ws.col_types.reshape(-1, 2) == np.arange(2)).all()
    # Publications a dump run needs one by one are their own groups.
    dumped = _build_workspace(grouped_units, grouped_reference, small_models, cfg, keep_ids=True)
    assert dumped.per_item and dumped.groups == dumped.publications
    # Uncited unit publications under reference-only normalization too.
    ref_only = PropagationConfig(
        iterations=5, key_mode=KEY_DOCTYPE_YEAR_FIELD, pooled_normalization=False
    )
    ws_ref = _build_workspace(grouped_units, grouped_reference, small_models, ref_only)
    uncited_unit = sum(pub.citations == 0 for pubset in grouped_units for pub in pubset)
    assert ws_ref.groups == ws.groups + uncited_unit - 3  # three uncited unit keys


def test_first_kind_workspace_indexes_citation_values(
    grouped_units, grouped_reference, small_models, first_kind_models
):
    # First-kind citation redraws read each column's law through the
    # distinct citation counts: values ascending and unique, one index per
    # column.  Other runs keep no index.
    cfg = PropagationConfig(iterations=5, direction=FIRST_KIND, channels=_ONLY_C)
    ws = _build_workspace(grouped_units, grouped_reference, first_kind_models, cfg)
    assert ws.per_item
    assert np.array_equal(ws.cite_values, np.unique(ws.col_citations))
    assert np.array_equal(ws.cite_values[ws.cite_index], ws.col_citations)
    only_d = PropagationConfig(iterations=5, direction=FIRST_KIND, channels=_ONLY_D)
    for models, config in ((first_kind_models, only_d), (small_models, PropagationConfig())):
        other = _build_workspace(grouped_units, grouped_reference, models, config)
        assert other.cite_values is None and other.cite_index is None


_RETYPED_LABELS = ("article", "review", "letter", "other")


@pytest.fixture(scope="module")
def retyped_units():
    # Every citation count recorded under all four doctypes, so the groups
    # of one count differ only in their recorded doctype.
    rows = [(label, c) for c in (0, 0, 2, 5, 11) for label in _RETYPED_LABELS]
    return [_repeated(make_pubset("M", rows), 4)]


@pytest.fixture(scope="module")
def retyped_reference():
    rows = [(label, c) for c in (0, 1, 2, 5, 9) for label in _RETYPED_LABELS]
    rows += [("article", 3)] * 4  # a count recorded under one doctype only
    return _repeated(make_pubset("ref", rows), 10)


def _run_shapes(ws):
    """Groups per run, items per run, and each run's citation count, in column order.

    Read from the doctype split, whose tally rows are the runs: a group is
    its run and recorded doctype, so each group of a run has its own
    recorded doctype when the distinct pairs are as many as the groups.
    A run has an article and a review column, or one column when it holds
    one publication.
    """
    split = ws.doctype_split
    runs = np.append(split.item_slots, split.large_slots[:, 0]) // split.categories
    types = np.append(split.item_codes, split.large_codes)
    sizes = np.append(np.ones(split.item_slots.size, dtype=np.int64), split.large_sizes)
    pairs = np.unique(4 * runs + types)
    assert pairs.size == ws.groups
    groups = np.bincount(pairs // 4, minlength=split.rows)
    items = np.bincount(runs, sizes, split.rows).astype(np.int64)
    width = np.where(items == 1, 1, 2)
    assert ws.col_citations.size == width.sum()
    first = np.cumsum(width) - width  # each run's first column
    citations = ws.col_citations[first]
    assert np.array_equal(ws.col_citations, np.repeat(citations, width))
    assert np.array_equal(ws.col_types, np.arange(ws.col_types.size) - np.repeat(first, width))
    return groups.tolist(), items.tolist(), citations.tolist()


def test_groups_that_differ_only_in_recorded_doctype_share_columns(
    retyped_units, retyped_reference, small_models
):
    cfg = PropagationConfig(iterations=5)
    ws = _build_workspace(retyped_units, retyped_reference, small_models, cfg)
    assert not ws.per_item
    assert ws.groups == 4 * 4 + (4 * 5 + 1)
    keys = {
        (u, pub.citations)
        for u, pubset in enumerate(retyped_units + [retyped_reference])
        for pub in pubset
    }
    assert ws.col_citations.size == 2 * len(keys) == 2 * (4 + 6)
    # The first row of the block's (row, bin) slots is each column's bin.
    # The unit bins come first, each scored in its unit's slot.
    col_bin = ws.bin_slots[:, 0]
    n_unit_bins = np.count_nonzero(ws.unit_slots[: ws.n_bins] < ws.n_units)
    assert np.count_nonzero(col_bin < n_unit_bins) == 2 * 4  # unit columns
    groups, items, citations = _run_shapes(ws)
    # Unit runs (counts 0, 2, 5, 11), then reference runs (0, 1, 2, 3, 5, 9).
    assert citations == [0, 2, 5, 11, 0, 1, 2, 3, 5, 9]
    assert groups == [4, 4, 4, 4, 4, 4, 4, 1, 4, 4]
    assert items == [32, 16, 16, 16, 40, 40, 40, 40, 40, 40]
    # _run_shapes checked that within a run each group has its own recorded doctype.


def test_uncited_unit_singletons_stay_unmerged_under_reference_only_normalization(
    retyped_units, retyped_reference, small_models
):
    cfg = PropagationConfig(iterations=5, pooled_normalization=False)
    ws = _build_workspace(retyped_units, retyped_reference, small_models, cfg)
    assert not ws.per_item
    # (slot, citations, singleton id) keys: each uncited unit item has its own id.
    keys = {
        (u, pub.citations, pub.id if u == 0 and pub.citations == 0 else None)
        for u, pubset in enumerate(retyped_units + [retyped_reference])
        for pub in pubset
    }
    # Each uncited unit publication is a run of its own, with one column.
    assert ws.col_citations.size == 32 + 2 * (len(keys) - 32) == 32 + 2 * (3 + 6)
    groups, items, citations = _run_shapes(ws)
    assert citations[:32] == [0] * 32
    assert groups[:32] == items[:32] == [1] * 32
    assert groups[32:35] == [4, 4, 4] and items[32:35] == [16, 16, 16]


@pytest.mark.parametrize("pooled", [True, False])
def test_columns_hold_their_recorded_items(pooled, retyped_units, retyped_reference, small_models):
    # Counted from the publications: with doctype redraws a run's two
    # columns hold its recorded articles and reviews, and a run of one
    # publication has one column, which holds its core count; without them
    # a column is a group and holds its size.  A run is a set's
    # publications of one citation count (one cell group here), an uncited
    # unit publication alone under reference-only normalization, and runs
    # and groups sort by set, count, layout position and then doctype.
    sets = retyped_units + [retyped_reference]
    pubs = [(slot, pub) for slot, pubset in enumerate(sets) for pub in pubset]
    runs = [
        (slot, pub.citations, i if not pooled and slot == 0 and pub.citations == 0 else -1)
        for i, (slot, pub) in enumerate(pubs)
    ]
    groups = Counter((run, doctype_index(pub.doctype)) for run, (_, pub) in zip(runs, pubs))
    run_sizes = Counter(runs)
    core = [
        items
        for run in sorted(run_sizes)
        for items in (
            [groups[run, 0] + groups[run, 1]]
            if run_sizes[run] == 1
            else [groups[run, 0], groups[run, 1]]
        )
    ]
    assert len(core) < 2 * len(run_sizes) or pooled
    sizes = [groups[group] for group in sorted(groups)]
    for channels, expected in ((ALL_CHANNELS, core), (_ONLY_C, sizes)):
        cfg = PropagationConfig(iterations=5, channels=channels, pooled_normalization=pooled)
        ws = _build_workspace(retyped_units, retyped_reference, small_models, cfg)
        assert not ws.per_item
        assert ws.col_items.tolist() == expected


@pytest.mark.parametrize("pooled", [True, False])
def test_merged_runs_agree_with_oracle_in_distribution(
    pooled, retyped_units, retyped_reference, small_models
):
    cfg = PropagationConfig(
        iterations=_AGREEMENT_ITERATIONS, seed=59, pooled_normalization=pooled
    )
    result = propagate(retyped_units, retyped_reference, small_models, cfg)
    _assert_same_law(result, retyped_units, retyped_reference, small_models, cfg)


_INVARIANT_ROW = st.tuples(st.sampled_from(_RETYPED_LABELS), st.integers(min_value=0, max_value=2))


# Iterations of the exact-law test of P, and the p-value below which its
# chi-square test fails: about one false failure in 10^5 examples.
_P_LAW_ITERATIONS = 3000
_P_LAW_ALPHA = 1e-5


def _chi_square_p(counts: np.ndarray, pmf: np.ndarray) -> float:
    """Chi-square goodness-of-fit p-value of ``counts`` under ``pmf``.

    Cells expecting fewer than 5 draws are pooled, in order, into the
    next, and a short tail into the last cell kept.
    """
    from scipy.stats import chi2

    expected = pmf * counts.sum()
    observed_cells, expected_cells = [], []
    seen = want = 0.0
    for got, exp in zip(counts.tolist(), expected.tolist()):
        seen, want = seen + got, want + exp
        if want >= 5:
            observed_cells.append(seen)
            expected_cells.append(want)
            seen = want = 0.0
    if want and expected_cells:
        observed_cells[-1] += seen
        expected_cells[-1] += want
    if len(expected_cells) < 2:
        return 1.0
    observed_cells, expected_cells = np.array(observed_cells), np.array(expected_cells)
    stat = ((observed_cells - expected_cells) ** 2 / expected_cells).sum()
    return float(chi2.sf(stat, len(expected_cells) - 1))


@settings(max_examples=25, deadline=None)
@given(
    unit_rows=st.lists(_INVARIANT_ROW, min_size=1, max_size=30),
    lone=st.lists(st.sampled_from(_RETYPED_LABELS), max_size=6),
    per_item=st.booleans(),
    pooled=st.booleans(),
    direction=st.sampled_from([SECOND_KIND, FIRST_KIND]),
    citations=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32),
)
@example(
    unit_rows=[("review", 1)] * 12 + [("article", 1)] * 6,
    lone=["review", "article"],
    per_item=False,
    pooled=True,
    direction=SECOND_KIND,
    citations=False,
    seed=0,
)
def test_p_replicates_follow_the_exact_law(
    unit_rows, lone, per_item, pooled, direction, citations, seed, small_models, first_kind_models
):
    """P's replicates under doctype redraws follow ``oracle.p_law``.

    On grouped layouts, whose unit publications of one citation count
    form runs and whose ``lone`` publications, each of its own count,
    are runs of one publication, and on per-item layouts (an item dump,
    or first-kind citation redraws), of either kind, with and without
    citation redraws, which P never reads, a chi-square test of the
    unit's P replicates against the exact law passes.
    """
    rows = unit_rows + [(label, 100 + i) for i, label in enumerate(lone)]
    unit = make_pubset("U", rows)
    reference = make_pubset("ref", [(label, c) for label in _RETYPED_LABELS for c in (0, 1, 2)] * 10)
    models = small_models if direction == SECOND_KIND else first_kind_models
    if not citations:
        models = FittedModels(doctype=models.doctype)
    cfg = PropagationConfig(
        iterations=_P_LAW_ITERATIONS,
        seed=seed,
        channels=ALL_CHANNELS if citations else _ONLY_D,
        direction=direction,
        pooled_normalization=pooled,
    )
    with tempfile.TemporaryDirectory() as tmp:
        dump = Path(tmp) / "items.csv" if per_item else None
        result = propagate(unit, reference, models, cfg, dump_items=dump)
    per_item = per_item or (citations and direction == FIRST_KIND)
    assert result.run_info["grouped_draws"] is not per_item
    replicates = result.distribution("U", "P").replicates.astype(np.int64)
    pmf = oracle.p_law(models.doctype.concentrations, unit.doctypes)
    assert replicates.max() < pmf.size
    p_value = _chi_square_p(np.bincount(replicates, minlength=pmf.size), pmf)
    assert p_value > _P_LAW_ALPHA


@settings(max_examples=40, deadline=None)
@given(
    unit_rows=st.lists(_INVARIANT_ROW, min_size=1, max_size=20),
    reference_rows=st.lists(_INVARIANT_ROW, min_size=6, max_size=20),
    pooled=st.booleans(),
    iterations=st.integers(min_value=1, max_value=12),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_run_columns_hold_every_item_in_every_iteration(
    unit_rows, reference_rows, pooled, iterations, seed, small_models
):
    """Every iteration's three-way tallies cover each run, and its core ones fill the columns.

    A run's (article, review, non-core) tallies sum to the run's size,
    counted from the publications.  A run of several publications has two
    columns, which hold its article and review tallies.  A run of one
    publication has one column, which holds its core count, the article
    plus review tally, and is summed into the bin of its drawn doctype.
    """
    # At most 20 unit groups (all singletons) and 12 reference groups, so
    # two columns per run stay below the 180 or more publications.
    unit = make_pubset("U", unit_rows)
    reference = make_pubset("ref", reference_rows * 30)
    cfg = PropagationConfig(iterations=iterations, seed=seed, pooled_normalization=pooled)
    ws = _build_workspace([unit], reference, small_models, cfg)
    assert not ws.per_item
    # One cell group, so a run is a set's publications of one citation
    # count, or an uncited unit publication alone under reference-only
    # normalization; runs sort by set, count and then layout position.
    runs = Counter(
        (0, c, i if c == 0 and not pooled else -1) for i, (_, c) in enumerate(unit_rows)
    )
    runs.update((1, c, -1) for _, c in reference_rows * 30)
    run_sizes = np.array([runs[key] for key in sorted(runs)])
    tallies, counts, slots = [], [], []
    draw_doctype_counts, draw_omitted = simulation.draw_doctype_counts, simulation.draw_omitted

    def recording_tallies(rng, prob_rows, split):
        tallies.append(draw_doctype_counts(rng, prob_rows, split))
        return tallies[-1]

    def recording(rng, params, log1p_predictor, k=None, bins=None):
        # k is (rows, columns); the slots list it in column-major order.
        rows = k.shape[0]
        counts.append(k)
        slots.append(bins[0].reshape(-1, rows).T - ws.n_bins * np.arange(rows)[:, None])
        return draw_omitted(rng, params, log1p_predictor, k, bins)

    with mock.patch.object(simulation, "draw_doctype_counts", recording_tallies), \
            mock.patch.object(simulation, "draw_omitted", recording):
        propagate(unit, reference, small_models, cfg)
    drawn = np.concatenate(tallies)
    assert drawn.shape == (iterations, run_sizes.size, 3)
    assert (drawn.sum(axis=2) == run_sizes).all()
    lone = run_sizes == 1
    core = [
        drawn[:, r, :2].sum(axis=1, keepdims=True) if lone[r] else drawn[:, r, :2]
        for r in range(run_sizes.size)
    ]
    assert np.array_equal(np.concatenate(counts), np.concatenate(core, axis=1))
    # Each column's bin per iteration is of the core doctype it holds: a
    # lone column's is a review bin exactly when its item is drawn a review.
    doctypes = [
        drawn[:, r, 1:2] if lone[r] else np.broadcast_to(np.arange(2), (iterations, 2))
        for r in range(run_sizes.size)
    ]
    bins = np.concatenate(slots)
    assert np.array_equal(ws.unit_cells[bins] % 4, np.concatenate(doctypes, axis=1))


@pytest.mark.parametrize("case", [0, 3])
def test_grouped_doctype_redraws_draw_citations_for_core_columns_only(
    case, grouped_units, grouped_reference, small_models
):
    # Both channels, drawn per group: every kernel column is an article or
    # review column, and those are the only columns whose omitted
    # citations are drawn.
    cfg = _case_config(case, 9)
    ws = _build_workspace(grouped_units, grouped_reference, small_models, cfg)
    assert not ws.per_item
    assert set(ws.col_types.tolist()) == {0, 1}
    seen = []
    draw_omitted = simulation.draw_omitted

    def recording(rng, params, log1p_predictor, k=None, bins=None):
        seen.append((log1p_predictor, k))
        return draw_omitted(rng, params, log1p_predictor, k, bins)

    with mock.patch.object(simulation, "draw_omitted", recording):
        propagate(grouped_units, grouped_reference, small_models, cfg)
    assert seen
    for log1p_predictor, k in seen:
        assert np.array_equal(log1p_predictor, ws.col_log1p)
        assert k.shape[1] == ws.col_types.size


@pytest.mark.parametrize("key_mode", [KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD])
def test_citation_draws_leave_the_doctype_stream_alone(
    key_mode, grouped_units, grouped_reference, small_models
):
    # Under pooled normalization both runs have one layout and one block
    # size, and each block draws its doctypes before its citations, so a
    # run with both channels has the P replicates of a doctypes-only run.
    runs = [
        propagate(
            grouped_units,
            grouped_reference,
            small_models,
            PropagationConfig(iterations=150, seed=67, channels=channels, key_mode=key_mode),
        )
        for channels in (ALL_CHANNELS, _ONLY_D)
    ]
    assert all(result.run_info["grouped_draws"] for result in runs)
    assert runs[0].run_info["kernel_columns"] == runs[1].run_info["kernel_columns"]
    assert runs[0].run_info["kernel_bins"] < runs[0].run_info["kernel_columns"]
    assert np.array_equal(_replicates(runs[0], "P"), _replicates(runs[1], "P"))
    assert not np.array_equal(_replicates(runs[0], "C"), _replicates(runs[1], "C"))


@pytest.fixture(scope="module")
def correct_small_shaped():
    # Two units and a reference set sized and cited like the correct-small
    # benchmark workload: 99 exchangeable groups in 75 runs over 290
    # publications.
    return generate_scenario(
        ScenarioConfig(
            unit_sizes={"A": 40, "B": 50},
            unit_locations={"A": 1.6, "B": 2.0},
            reference_size=200,
            reference_location=1.8,
            seed=0,
        )
    )


def test_run_width_layout_agrees_with_oracle_in_distribution(correct_small_shaped, small_models):
    # Four columns per group would not narrow this kernel, so it used to
    # draw per publication; two columns per run do.
    units, reference = correct_small_shaped
    cfg = PropagationConfig(iterations=_AGREEMENT_ITERATIONS, seed=61)
    ws = _build_workspace(units, reference, small_models, cfg)
    assert 4 * ws.groups >= ws.publications > ws.col_citations.size
    result = propagate(units, reference, small_models, cfg)
    _assert_same_law(result, units, reference, small_models, cfg)


def test_workers_agree_when_blocks_do_not_divide_iterations(
    monkeypatch, grouped_units, grouped_reference, small_models
):
    # 61 iterations in blocks of 7: the last block is short.
    cfg = PropagationConfig(iterations=61, seed=41, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    columns = _build_workspace(grouped_units, grouped_reference, small_models, cfg)
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 7 * columns.col_citations.size)
    arrays = []
    for workers in (1, 2, 3):
        result = propagate(
            grouped_units,
            grouped_reference,
            small_models,
            PropagationConfig(
                iterations=cfg.iterations, seed=cfg.seed, key_mode=cfg.key_mode, workers=workers
            ),
        )
        assert result.run_info["grouped_draws"] is True
        arrays.append(
            [_replicates(result, indicator) for indicator in ("P", "C", "MNCS")]
            + [_excluded(result)]
        )
    for other in arrays[1:]:
        for a, b in zip(arrays[0], other):
            assert np.array_equal(a, b, equal_nan=True)


def test_worker_chunks_hold_whole_blocks(
    monkeypatch, grouped_units, grouped_reference, small_models
):
    # An in-process stand-in for the pool records its imap tasks.
    cfg = PropagationConfig(iterations=61, seed=41, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    columns = _build_workspace(grouped_units, grouped_reference, small_models, cfg)
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 7 * columns.col_citations.size)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    calls = []

    class RecordingPool:
        def __init__(self, processes):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, tasks, chunksize):
            calls.append((list(tasks), chunksize))
            return (fn(task) for task in tasks)

    monkeypatch.setattr(multiprocessing, "Pool", RecordingPool)
    expected = propagate(grouped_units, grouped_reference, small_models, cfg)
    for workers, chunksize in ((2, 5), (3, 3)):
        calls.clear()
        result = propagate(
            grouped_units,
            grouped_reference,
            small_models,
            PropagationConfig(
                iterations=cfg.iterations, seed=cfg.seed, key_mode=cfg.key_mode, workers=workers
            ),
        )
        assert result.run_info["worker_processes"] == workers
        # Nine blocks of seven, the last one of five, each one task, in order.
        [(tasks, size)] = calls
        assert all(lo % 7 == 0 and hi == min(lo + 7, cfg.iterations) for lo, hi in tasks)
        assert [lo for lo, _ in tasks] == list(range(0, cfg.iterations, 7))
        assert size == chunksize  # ceil(blocks / processes)
        for indicator in ("P", "C", "MNCS"):
            assert np.array_equal(
                _replicates(result, indicator), _replicates(expected, indicator), equal_nan=True
            )
        assert np.array_equal(_excluded(result), _excluded(expected))


def test_dump_spans_blocks_and_ignores_the_worker_count(
    tmp_path, monkeypatch, grouped_units, grouped_reference, small_models
):
    # 61 iterations in blocks of 7: nine blocks, the last one of five.  A
    # dump draws every publication on its own, so its columns are the
    # publications, and it is written in this process whatever the workers.
    cfg = PropagationConfig(iterations=61, seed=41, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    layout = (grouped_units, grouped_reference, small_models, cfg)
    columns = _build_workspace(*layout, keep_ids=True).col_citations.size
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 7 * columns)
    assert _build_workspace(*layout, keep_ids=True).block_size == 7
    written = []
    for workers in (1, 3):
        out = tmp_path / f"workers{workers}"
        out.mkdir()
        result = propagate(
            grouped_units,
            grouped_reference,
            small_models,
            dataclasses.replace(cfg, workers=workers),
            dump_items=out / "items.csv",
        )
        write_report_json(result, out / "report.json")
        written.append([(out / name).read_bytes() for name in ("items.csv", "report.json")])
    assert written[0] == written[1]

    # _read_dump checks that iterations 0 to 60 appear once each, in order.
    dump = tmp_path / "workers1" / "items.csv"
    citations, codes = _read_dump(dump, grouped_units, cfg.iterations)
    unit_of = np.array([u for u, pubset in enumerate(grouped_units) for _ in pubset])
    core = np.isin(codes, [doctype_index(DocType.ARTICLE), doctype_index(DocType.REVIEW)])
    for u, name in enumerate(result.units):
        mine = core & (unit_of == u)
        assert np.array_equal(result.distribution(name, "P").replicates, mine.sum(axis=1))
        assert np.array_equal(
            result.distribution(name, "C").replicates, np.where(mine, citations, 0).sum(axis=1)
        )


def test_grouped_and_per_item_blocks_of_equal_columns_are_equal(
    grouped_units, grouped_reference, small_models
):
    # One budget sizes every block: a grouped workspace and a per-item one
    # (an item dump, each publication its own column) with as many columns
    # get the same block size, BLOCK_BUDGET // columns.
    cfg = PropagationConfig(iterations=10, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    grouped = _build_workspace(grouped_units, grouped_reference, small_models, cfg)
    columns = grouped.col_citations.size
    pubs = [pub for pubset in grouped_units for pub in pubset][:columns]
    assert len(pubs) == columns
    per_item = _build_workspace(
        [PublicationSet(name="U", members=pubs)], None, small_models, cfg, keep_ids=True
    )
    assert not grouped.per_item and per_item.per_item
    assert per_item.col_citations.size == columns
    assert grouped.block_size == per_item.block_size == simulation.BLOCK_BUDGET // columns > 1


# (models fixture, direction, keep ids): a grouped run with both channels
# drawn per group, and a per-item run, the item dump's layout, with both.
_SHORT_BLOCK_LAYOUTS = {
    "grouped": ("small_models", SECOND_KIND, False),
    "per-item": ("small_models", SECOND_KIND, True),
    "first-kind": ("first_kind_models", FIRST_KIND, False),
}


@pytest.mark.parametrize("layout", list(_SHORT_BLOCK_LAYOUTS))
def test_short_last_block_reads_the_leading_rows_of_the_block_indexes(
    request, monkeypatch, layout, grouped_units, grouped_reference
):
    # The block index arrays are built once, for the run's largest block.
    # The last block of a run whose iterations the block size does not
    # divide reads their leading rows, and scores exactly as a workspace
    # whose arrays were built for its rows alone, drawing from the same
    # substream key.
    models_name, direction, keep_ids = _SHORT_BLOCK_LAYOUTS[layout]
    models = request.getfixturevalue(models_name)
    cfg = PropagationConfig(iterations=1, seed=29, direction=direction)
    ws = _build_workspace(grouped_units, grouped_reference, models, cfg, keep_ids)
    block, width = ws.block_size, ws.col_citations.size
    assert ws.per_item == (layout != "grouped") and block > 2
    cfg = dataclasses.replace(cfg, iterations=2 * block + block // 2)
    ws = _build_workspace(grouped_units, grouped_reference, models, cfg, keep_ids)
    start, rows = 2 * block, block // 2
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", rows * width)
    exact = _build_workspace(grouped_units, grouped_reference, models, cfg, keep_ids)
    assert exact.block_size == rows
    assert ws.norm_keys.size == block * ws.n_bins and exact.norm_keys.size == rows * ws.n_bins
    exact = dataclasses.replace(exact, block_size=block)  # the same substream key
    ours = simulation._simulate_block(ws, (start, cfg.iterations))
    theirs = simulation._simulate_block(exact, (start, cfg.iterations))
    assert len(ours) == len(theirs) == 6
    assert ours[0].shape == (rows, len(grouped_units))
    # The unit publications' draws come exactly when the run keeps ids to dump.
    assert [a is None for a in ours[4:]] == [ws.ids is None] * 2
    for a, b in zip(ours, theirs):
        if a is None:
            assert b is None
        else:
            assert np.array_equal(a, b, equal_nan=True)


@pytest.mark.parametrize("layout", ["grouped", "per-item"])
def test_run_info_counts_kernel_blocks(layout, grouped_units, grouped_reference, small_models):
    # Three blocks, the last one short: run_info gives the block size and
    # the blocks run, so the kernel's time over the blocks is its cost per
    # block.
    dump = layout == "per-item"
    cfg = PropagationConfig(iterations=1, seed=3)
    block = _build_workspace(grouped_units, grouped_reference, small_models, cfg, dump).block_size
    assert block > 1
    cfg = dataclasses.replace(cfg, iterations=2 * block + 1)
    with tempfile.TemporaryDirectory() as scratch:
        dump_items = Path(scratch) / "items.csv" if dump else None
        info = propagate(grouped_units, grouped_reference, small_models, cfg, dump_items).run_info
    assert info["grouped_draws"] is not dump
    assert info["kernel_block_size"] == block
    assert info["kernel_blocks"] == 3


def test_first_kind_multi_row_blocks_agree_pooled_and_in_process(
    monkeypatch, grouped_units, grouped_reference, first_kind_models
):
    # First-kind citation redraws draw every publication on its own, in
    # blocks of many iterations: two whole blocks and a short one.
    cfg = PropagationConfig(
        iterations=1, seed=47, direction=FIRST_KIND, key_mode=KEY_DOCTYPE_YEAR_FIELD
    )
    block = _build_workspace(grouped_units, grouped_reference, first_kind_models, cfg).block_size
    assert block > 1
    cfg = dataclasses.replace(cfg, iterations=2 * block + block // 2)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 2)
    results = [
        propagate(
            grouped_units,
            grouped_reference,
            first_kind_models,
            dataclasses.replace(cfg, workers=workers),
        )
        for workers in (1, 2)
    ]
    assert [result.run_info["worker_processes"] for result in results] == [1, 2]
    assert results[0].run_info["grouped_draws"] is False
    for indicator in ("P", "C", "MNCS"):
        assert np.array_equal(
            _replicates(results[0], indicator), _replicates(results[1], indicator), equal_nan=True
        )
    assert np.array_equal(_excluded(results[0]), _excluded(results[1]))


def test_dump_rebuilds_replicates_across_multi_row_blocks(tmp_path, grouped_units, small_models):
    # Pooled normalization without a reference set, so the dump holds the
    # whole universe; two whole blocks of many iterations and a short one.
    # The oracle scores each dumped iteration as the kernel scores it.
    cfg = PropagationConfig(iterations=1, seed=53, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    block = _build_workspace(grouped_units, None, small_models, cfg, keep_ids=True).block_size
    assert block > 1
    cfg = dataclasses.replace(cfg, iterations=2 * block + block // 2)
    dump = tmp_path / "items.csv"
    result = propagate(grouped_units, None, small_models, cfg, dump_items=dump)
    citations, codes = _read_dump(dump, grouped_units, cfg.iterations)
    layout = oracle.publication_layout(grouped_units, None, cfg)
    rebuilt = [oracle.score(layout, c, dt)[:4] for c, dt in zip(citations, codes)]
    _assert_matches(result, [np.array([step[k] for step in rebuilt]) for k in range(4)])


def test_mncs_exclusions_match_dump_rebuild(tmp_path, field_units, small_models):
    # Pooled normalization without a reference set: the dump holds the
    # whole normalization universe, so every exclusion can be recounted.
    cfg = PropagationConfig(iterations=40, seed=43, key_mode=KEY_DOCTYPE_YEAR_FIELD)
    dump = tmp_path / "items.csv"
    result = propagate(field_units, None, small_models, cfg, dump_items=dump)
    citations, codes = _read_dump(dump, field_units, cfg.iterations)
    pubs = [pub for pubset in field_units for pub in pubset]
    unit_of = np.array([u for u, pubset in enumerate(field_units) for _ in pubset])

    expected = np.zeros((cfg.iterations, len(field_units)), dtype=np.int64)
    field_less = 0
    for j in range(cfg.iterations):
        cells: dict[tuple, list[int]] = {}
        for pub, cit, code in zip(pubs, citations[j], codes[j]):
            if pub.field is not None:
                cells.setdefault((pub.year, pub.field, code), []).append(int(cit))
        for pub, cit, code, u in zip(pubs, citations[j], codes[j], unit_of):
            if code > 1:
                continue  # not a core item
            if pub.field is None:
                expected[j, u] += 1
                field_less += 1
            elif cit > 0 and np.mean(cells[(pub.year, pub.field, code)]) == 0:
                expected[j, u] += 1
    assert field_less > 0
    for u, name in enumerate(result.units):
        assert result.distribution(name, "P").excluded is None
        assert result.distribution(name, "C").excluded is None
        assert np.array_equal(result.distribution(name, "MNCS").excluded, expected[:, u])


# sha256 of report.json for run_exercise(name, iterations=300, seed=0).
# They pin numpy's random stream as consumed by the kernel; a change that
# alters the stream must re-baseline them on purpose, with the reason in
# CHANGES.md.  "field-keyed" is the run of
# test_field_keyed_report_bytes_are_pinned.  All four were last re-pinned
# when the kernel moved from one substream per iteration to one per
# kernel block, and the iterations from chain-major posterior draws to
# interleaved chains; _PER_ITERATION_FIELD_KEYED_SHA256 pins the
# field-keyed run at blocks of one iteration.  All five were
# re-pinned again when the citation fit moved from an adaptive random
# walk to an independence sampler around the posterior mode, which
# changed every posterior draw.  "2", "4" and "field-keyed" were
# re-pinned when the grouped columns moved to (run, new doctype) cells:
# the groups sort by citation count before recorded doctype, which moves
# the columns of "2" too.  They were re-pinned once more when the
# observed values came to be scored by the kernel's own cell rebuild:
# a grouped run's observed MNCS sums one k * c / mean per column instead
# of k per-item terms and moved by at most 4 ULP; no replicate moved.
# "4" and "field-keyed" were re-pinned when a grouped run came to carry
# only its two core-doctype columns, its groups' doctypes drawn three-way
# (article, review, non-core): the replicate streams moved, no observed
# value did.  "2", "4" and "field-keyed" were re-pinned, with the outputs
# of "4" below, when the grouped kernel came to draw one Poisson per
# scoring bin (the columns that share unit, cell and doctype) instead of
# one per column, and to score the bins: the C and MNCS streams moved, no
# P replicate did, and the observed MNCS of unit A in "2" and "4" moved
# by 1 ULP.  "4" and "field-keyed" were re-pinned, with the outputs of
# "4" below, when a grouped doctype draw came to tally one uniform per
# publication in groups of at most 8 and to keep one multinomial for the
# larger groups: the P, C and MNCS streams moved, no observed value did.
# "A3", the one first-kind run, was re-pinned when first-kind citation
# redraws came to draw min(O, c) by inverting its CDF, one uniform per
# publication, instead of a gamma and a Poisson per publication: its C
# and MNCS streams moved, no P replicate and no observed value did.
# "A3" was re-pinned again when per-item blocks came to hold several
# iterations (its 1,050 publications: 19 a block where they were 7) and
# per-item rows came to be scored from per-(unit, cell) sums: every
# replicate stream moved, and the observed MNCS of unit A by 1 ULP.
# "2", "4" and "field-keyed" were re-pinned, with the outputs of "4"
# below, when grouped blocks came to take the per-item budget of 20,000
# column-iterations instead of 8,192 (the 82 columns of "4": 243 rows a
# block where they were 99): their blocks, and so their substreams,
# moved; no observed value moved, nor the constant P of "2".  "4" and
# "field-keyed" were re-pinned, with the outputs of "4" below, when a
# grouped run of one publication came to have one column where it had two:
# "4" has 71 columns where it had 82 (281 rows a block where they were
# 243), and "field-keyed" 70 where 88, so their blocks, and so their
# substreams, moved; at the old block size every byte of "4" is as before
# (test_one_publication_runs_keep_the_draws_of_their_two_columns).
_PINNED_REPORT_SHA256 = {
    "2": "1569c6874ce44bf1d8042f8db0b7f014c742c7974a866e95558e2e539bee300c",
    "4": "b1cafc515861846a503ad0a304171699cdd7778fa06d5c38b456c85adddab178",
    "A3": "efcde11ed94cd0dffbc67f0682eaf0f2e02d88e5074717f815a78a7f558eefab",
    "field-keyed": "ea56bca93817eab73c13be44066a2d4b2400a9e0551cc15345ddcb78c2719474",
}


@pytest.mark.parametrize("name", ["2", "4", "A3"])
def test_exercise_report_bytes_are_pinned(tmp_path, name):
    report = run_exercise(name, iterations=300, seed=0)
    path = tmp_path / "report.json"
    write_report_json(report.result, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_REPORT_SHA256[name]


# sha256 of the other outputs of exercises "1" and "4" (300 iterations,
# seed 0): the files `bibuq exercise --out` writes, the plot CSVs and
# the `bibuq report` text of "4"'s report.json.
_PINNED_OUTPUT_SHA256 = {
    ("1", "exercise.json"): "8bdb1bea6496c65584395733e5f7a18263fb0c1620ccf6bbfa0a051867a5e0d0",
    ("1", "exercise.txt"): "2639ee301b5f6d6ab21dae0bbe86d1f3857741cf5c2dd10d9679f21768981ee0",
    ("4", "exercise.json"): "7ed6d330d643f027780dfcbc864b061fc2f3844d8cef457d3592f147af1cbd64",
    ("4", "exercise.txt"): "1917b39ec2a9cd174ae4d151154019a3e23817e06c05113dfc388e8d61e648f5",
    ("4", "plot_summary.csv"): "977c271c96a81159fe67fa231aecaf6b873af7cccc54b17278d57028f1d89c5b",
    ("4", "plot_uncertainty.csv"):
        "0cace876dc4ce0f026ac9ecadedbbad1ace62b30be2e25824a508afde11e34d0",
    ("4", "report table"): "2a157a24748361bdc908900e63c81def9f5d70b9a03a2e3f92ecafbf4147a9ff",
}

# sha256 of exercise "4"'s outputs (300 iterations, seed 0) in blocks of
# 243 rows, as pinned while each grouped run had two columns, 82 in all:
# report.json, then the outputs of _PINNED_OUTPUT_SHA256.
_TWO_COLUMN_RUN_SHA256 = {
    "report.json": "04a7f4bd4c0264e99c51a1da21f6f180fbf530a611f1783871c4faa108c417a4",
    "exercise.json": "fb8580f47cc6ff8546d36bf157f00c50d3883a4542489335476a1f754db51244",
    "exercise.txt": "6a7b31f79b50f83fe0fe5d72437fba10b4cb6baf9708822a798b0eff6eb7e4af",
    "plot_summary.csv": "0498e8f3fa975b8e55fd75399a050fc78fc0439df0285776a520bc811d0c1228",
    "plot_uncertainty.csv": "d6f8ba1a00e41d788f820db7513b1cf8d5834934e0ddd47f0ab2f9969a6b6d4f",
    "report table": "5060d28a3cc1e8f63ec09c7ee286f84e2a87eb97548245ae40c8aa4d993d8cae",
}


@pytest.fixture(scope="module")
def pinned_exercises():
    return {name: run_exercise(name, iterations=300, seed=0) for name in ("1", "4")}


def _output_digest(report, output, tmp_path, capsys) -> str:
    """sha256 of one output of an exercise report, written as ``bibuq`` writes it."""
    path = tmp_path / output
    if output == "exercise.json":
        write_json(report.to_dict(), path)
    elif output == "exercise.txt":
        path.write_text(report.to_text() + "\n", encoding="utf-8")
    elif output == "plot_summary.csv":
        write_plot_summary(report.result, path)
    elif output == "plot_uncertainty.csv":
        write_uncertainty_plot(report.result, path)
    elif output == "report.json":
        write_report_json(report.result, path)
    else:
        write_report_json(report.result, tmp_path / "report.json")
        assert main(["report", str(tmp_path / "report.json")]) == 0
        path.write_text(capsys.readouterr().out, encoding="utf-8")
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name, output", sorted(_PINNED_OUTPUT_SHA256))
def test_exercise_output_bytes_are_pinned(tmp_path, capsys, pinned_exercises, name, output):
    digest = _output_digest(pinned_exercises[name], output, tmp_path, capsys)
    assert digest == _PINNED_OUTPUT_SHA256[name, output]


def test_one_publication_runs_keep_the_draws_of_their_two_columns(tmp_path, capsys):
    # A one-publication run's one column draws what its two columns drew:
    # its core count's gamma (the other column's zero count drew none) and
    # its rate in the bin of its drawn doctype (the other added zero rate).
    # So in blocks of the rows the 82 two-column layout had, exercise "4",
    # now of 71 columns, writes every byte as that layout did.
    with mock.patch.object(simulation, "_block_size", lambda columns: 243):
        report = run_exercise("4", iterations=300, seed=0)
    info = report.result.run_info
    assert (info["kernel_columns"], info["kernel_block_size"], info["kernel_blocks"]) == (71, 243, 2)
    for output, digest in _TWO_COLUMN_RUN_SHA256.items():
        assert _output_digest(report, output, tmp_path, capsys) == digest, output


def test_field_keyed_report_bytes_are_pinned(
    tmp_path, grouped_units, grouped_reference, small_models
):
    # doctype-year-field cells with field-less unit items, a cell the
    # reference lacks and a zero-mean cell; reference-only normalization
    # and both channels, drawn per group.
    config = PropagationConfig(
        iterations=300, seed=0, key_mode=KEY_DOCTYPE_YEAR_FIELD, pooled_normalization=False
    )
    result = propagate(grouped_units, grouped_reference, small_models, config)
    assert result.run_info["grouped_draws"]
    path = tmp_path / "report.json"
    write_report_json(result, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == _PINNED_REPORT_SHA256["field-keyed"]


def test_tracer_hook_points_resolve():
    # The benchmark's tracer replaces each (module, attribute) of
    # bench/spans.py POINTS while it runs; a name the package stops
    # binding would otherwise surface only in a traced benchmark run.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.POINTS
    unresolved = [
        (module, attr)
        for module, attr, _, _ in spans.POINTS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert unresolved == []
