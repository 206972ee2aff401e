"""Monte Carlo propagation, scenario generation, and exercises."""

from __future__ import annotations

import csv
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibuq import simulation
from bibuq.datamodel import (
    DocType,
    Publication,
    PublicationSet,
    UsageError,
    ValidationError,
    doctype_index,
    sample_statistics,
)
from bibuq.errormodels import FIRST_KIND, SECOND_KIND
from bibuq.indicators import KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD
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
from bibuq.simulation import _build_workspace, _result_payload
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

    def test_empty_universe_rejected(self, small_models):
        empty = PublicationSet(name="A", members=())
        with pytest.raises(UsageError, match="normalization universe is empty"):
            propagate(empty, models=small_models, config=PropagationConfig(iterations=5))

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


def _oracle_replicates(units, reference, models, config):
    """Per iteration and unit: P, C, MNCS, exclusions; unit citations, codes."""
    ws = _build_workspace(units, reference, models, config)
    layout = oracle.publication_layout(units, reference, config)
    steps = [oracle.simulate_one(ws, layout, j) for j in range(config.iterations)]
    of_unit = ws.unit_index >= 0
    out = [np.array([step[k] for step in steps]) for k in range(4)]
    out += [np.array([step[k][of_unit] for step in steps]) for k in (4, 5)]
    return ws, out


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


_ONLY_C = frozenset({CHANNEL_CITATIONS})
_ONLY_D = frozenset({CHANNEL_DOCTYPES})

# (direction, key mode, channels, parameter sharing, pooled normalization)
_ORACLE_CASES = [
    (SECOND_KIND, KEY_DOCTYPE, ALL_CHANNELS, "iteration", True),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, _ONLY_C, "iteration", False),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, _ONLY_D, "iteration", True),
    (SECOND_KIND, KEY_DOCTYPE_YEAR_FIELD, ALL_CHANNELS, "publication", True),
    (FIRST_KIND, KEY_DOCTYPE_YEAR_FIELD, ALL_CHANNELS, "iteration", False),
    (FIRST_KIND, KEY_DOCTYPE, _ONLY_C, "publication", True),
    (FIRST_KIND, KEY_DOCTYPE, _ONLY_D, "iteration", False),
]

_ORACLE_ITERATIONS = 23

# Block budgets in publication-iterations, as a function of the run's
# publication count: one element (blocks of one iteration), an odd block
# of three that leaves a short last block, and one block past the run.
_BUDGETS = {
    "one-element": lambda n_pubs: 1,
    "odd-block": lambda n_pubs: 3 * n_pubs + n_pubs // 2,
    "past-the-run": lambda n_pubs: 10**9,
}


@pytest.mark.parametrize("budget", sorted(_BUDGETS))
@pytest.mark.parametrize("case", range(len(_ORACLE_CASES)))
def test_block_kernel_matches_oracle(
    tmp_path,
    monkeypatch,
    budget,
    case,
    field_units,
    field_reference,
    small_models,
    first_kind_models,
):
    direction, key_mode, channels, sharing, pooled = _ORACLE_CASES[case]
    models = small_models if direction == SECOND_KIND else first_kind_models
    n_pubs = sum(len(u) for u in field_units) + len(field_reference)
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", _BUDGETS[budget](n_pubs))
    cfg = PropagationConfig(
        iterations=_ORACLE_ITERATIONS,
        seed=31 + case,
        channels=channels,
        direction=direction,
        key_mode=key_mode,
        parameter_sharing=sharing,
        pooled_normalization=pooled,
    )
    ws, (p, c, m, x, c_sim, dt_sim) = _oracle_replicates(
        field_units, field_reference, models, cfg
    )
    expected_block = {"one-element": 1, "odd-block": 3}.get(budget)
    if expected_block is None:
        assert ws.block_size > cfg.iterations
    else:
        assert ws.block_size == expected_block

    dump = tmp_path / "items.csv"
    plain = propagate(field_units, field_reference, models, cfg)
    dumped = propagate(field_units, field_reference, models, cfg, dump_items=dump)
    for result in (plain, dumped):
        for u, name in enumerate(result.units):
            assert np.array_equal(result.distribution(name, "P").replicates, p[:, u])
            assert np.array_equal(result.distribution(name, "C").replicates, c[:, u])
            mncs = result.distribution(name, "MNCS")
            assert np.array_equal(mncs.replicates, m[:, u], equal_nan=True)
            assert mncs.excluded.dtype == np.int64
            assert np.array_equal(mncs.excluded, x[:, u])
    dumped_citations, dumped_codes = _read_dump(dump, field_units, cfg.iterations)
    assert np.array_equal(dumped_citations, c_sim)
    assert np.array_equal(dumped_codes, dt_sim)


def test_workers_agree_when_chunk_edges_split_blocks(
    monkeypatch, field_units, field_reference, small_models
):
    n_pubs = sum(len(u) for u in field_units) + len(field_reference)
    monkeypatch.setattr(simulation, "BLOCK_BUDGET", 7 * n_pubs)
    iterations = 61
    for workers in (2, 3):
        edges = np.linspace(0, iterations, workers + 1, dtype=int)[1:-1]
        assert all(edge % 7 for edge in edges)  # every chunk starts inside a block
    arrays = []
    for workers in (1, 2, 3):
        cfg = PropagationConfig(
            iterations=iterations, seed=41, key_mode=KEY_DOCTYPE_YEAR_FIELD, workers=workers
        )
        result = propagate(field_units, field_reference, small_models, cfg)
        arrays.append(
            [
                result.distribution(name, indicator).replicates
                for name in result.units
                for indicator in ("P", "C", "MNCS")
            ]
            + [result.distribution(name, "MNCS").excluded for name in result.units]
        )
    for other in arrays[1:]:
        for a, b in zip(arrays[0], other):
            assert np.array_equal(a, b, equal_nan=True)


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
# CHANGES.md.
_PINNED_REPORT_SHA256 = {
    "2": "bb64257a4e0b5af72d21342abf589ba1def596935e4fbdf72b3ccfe43075e20c",
    "4": "7b9a2504660af4fb9fe6ac102c7eab616a89c2e13045baab91bbeb011ba4e473",
    "A3": "77969e60ccdd5546d1f7d17f17a488de689b7b3e8c8aaa3d3aa9324e73fd372a",
}


@pytest.mark.parametrize("name", sorted(_PINNED_REPORT_SHA256))
def test_exercise_report_bytes_are_pinned(tmp_path, name):
    report = run_exercise(name, iterations=300, seed=0)
    path = tmp_path / "report.json"
    write_report_json(report.result, path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _PINNED_REPORT_SHA256[name]
