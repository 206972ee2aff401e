"""Acceptance checks, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail
line per criterion.  Each test states its tolerance and time budget
inline; slow-path criteria measure wall time and fail when over budget.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bibuq.datamodel import (
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
    CitationErrorSample,
    DocType,
    DocTypeConfusionTable,
    Publication,
    PublicationSet,
    embedded_missed_citation_sample,
    write_citation_error_sample,
    write_publications,
)
from bibuq.errormodels import (
    FIRST_KIND,
    McmcConfig,
    NegBinModelSpec,
    fit_citation_error_model,
    fit_doctype_error_model,
    mcmc_diagnostics,
    negbin_logpmf,
    negbin_rvs,
    prior_predictive_check,
)
from bibuq.exercises import (
    ScenarioConfig,
    generate_scenario,
    run_exercise,
    synthesize_training_sample,
    synthetic_confusion_table,
)
from bibuq.indicators import build_normalization, indicators_for
from bibuq.predictive import (
    predict_error_affected_citations,
    predict_error_free_citations,
)
from bibuq.report import report_payload
from bibuq.simulation import (
    CHANNEL_CITATIONS,
    CHANNEL_DOCTYPES,
    FittedModels,
    PropagationConfig,
    propagate,
)
from helpers import make_pubset


def _line(criterion: int, slug: str) -> None:
    print(f"acceptance criterion {criterion} ({slug}): PASS")


def test_criterion_01_embedded_audit_statistics():
    """Embedded audit totals reproduce the published figures exactly (<1 s)."""
    t0 = time.perf_counter()
    marginal = embedded_missed_citation_sample()
    assert marginal.record_count() == 372
    assert marginal.total_missed() == 255
    assert EMBEDDED_SAMPLE_OBSERVED_CITATIONS == 6120
    # omission rate relative to observed citations, share of affected
    # records, and the mean shift after correction, all as exact fractions
    assert marginal.total_missed() / EMBEDDED_SAMPLE_OBSERVED_CITATIONS == 255 / 6120
    assert marginal.share_with_missing() == 109 / 372
    mean_observed = EMBEDDED_SAMPLE_OBSERVED_CITATIONS / marginal.record_count()
    mean_corrected = (
        EMBEDDED_SAMPLE_OBSERVED_CITATIONS + marginal.total_missed()
    ) / marginal.record_count()
    assert mean_observed == 6120 / 372
    assert mean_corrected == 6375 / 372
    # the shift is exactly 255/372 as a fraction; the difference of the two
    # separately rounded means may be off by one ulp
    assert marginal.total_missed() / marginal.record_count() == 255 / 372
    assert mean_corrected - mean_observed == pytest.approx(255 / 372, abs=1e-12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s, budget 1s"
    _line(1, "embedded audit statistics")


def test_criterion_02_prior_predictive_band():
    """Prior 95% multiplicative band is 0.20 +/- 0.05 to 4.95 +/- 0.15 (<5 s)."""
    t0 = time.perf_counter()
    summary = prior_predictive_check()
    assert summary.intercept_scale_low == pytest.approx(0.20, abs=0.05)
    assert summary.intercept_scale_high == pytest.approx(4.95, abs=0.15)
    assert summary.intercept_scale_median == pytest.approx(1.0, abs=1e-9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"took {elapsed:.2f}s, budget 5s"
    _line(2, "prior predictive band")


def test_criterion_03_dirichlet_conjugacy_closed_form():
    """Posterior concentrations equal counts plus pseudocount to 1e-12."""
    rng = np.random.default_rng(303)
    for trial in range(100):
        counts = rng.integers(0, 400, size=(4, 4))
        table = DocTypeConfusionTable(counts)
        pseudocount = float(rng.uniform(0.1, 3.0))
        second = fit_doctype_error_model(table, prior_pseudocount=pseudocount)
        first = fit_doctype_error_model(
            table, prior_pseudocount=pseudocount, direction=FIRST_KIND
        )
        assert np.abs(second.concentrations - (counts.T + pseudocount)).max() < 1e-12
        assert np.abs(first.concentrations - (counts + pseudocount)).max() < 1e-12
    _line(3, "dirichlet conjugacy closed form")


def test_criterion_04_parameter_recovery():
    """Known-parameter synthetic data is recovered inside 95% intervals (<60 s)."""
    t0 = time.perf_counter()
    true_intercept, true_slope, true_dispersion = -0.5, 0.45, 1.0
    rng = np.random.default_rng(2024)
    n = 2000
    citations = np.floor(rng.lognormal(mean=2.3, sigma=1.1, size=n)).astype(np.int64)
    mu = np.exp(true_intercept + true_slope * np.log1p(citations))
    omitted = negbin_rvs(rng, mu, true_dispersion)
    sample = CitationErrorSample(citations, omitted)

    posterior = fit_citation_error_model(sample, config=McmcConfig(seed=7))
    diag = mcmc_diagnostics(posterior)
    assert diag.converged, f"diagnostics: {diag}"
    assert max(diag.rhat.values()) < 1.05

    flat = posterior.flat()
    for index, truth, label in (
        (0, true_intercept, "intercept"),
        (1, true_slope, "slope"),
        (2, true_dispersion, "dispersion"),
    ):
        lo, hi = np.quantile(flat[:, index], [0.025, 0.975])
        assert lo <= truth <= hi, f"{label}: true {truth} outside [{lo:.3f}, {hi:.3f}]"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"took {elapsed:.2f}s, budget 60s"
    _line(4, "negative binomial parameter recovery")


def test_criterion_05_mcmc_matches_grid_posterior():
    """Sampler and dense-grid posterior agree: total variation < 0.05."""
    rng = np.random.default_rng(33)
    observed = rng.integers(0, 40, size=60)
    omitted = rng.poisson(1.2, size=60)
    sample = CitationErrorSample(observed, omitted)

    # Slope and dispersion pinned: the posterior is one-dimensional, so a
    # dense quadrature grid gives an independent reference distribution.
    spec = NegBinModelSpec(fixed_slope=0.0, fixed_dispersion=1e4)
    config = McmcConfig(chains=4, warmup=1000, keep=15000, seed=9)
    posterior = fit_citation_error_model(sample, spec=spec, config=config)
    diag = mcmc_diagnostics(posterior)
    assert diag.rhat["intercept"] < 1.05

    draws = posterior.flat()[:, 0]
    lo = draws.mean() - 8.0 * draws.std()
    hi = draws.mean() + 8.0 * draws.std()
    edges = np.linspace(lo, hi, 201)
    centers = 0.5 * (edges[:-1] + edges[1:])
    log_post = np.array(
        [
            float(np.sum(negbin_logpmf(omitted, np.full(60, np.exp(b)), 1e4)))
            for b in centers
        ]
    )
    log_post -= 0.5 * (centers / 0.8) ** 2
    weights = np.exp(log_post - log_post.max())
    weights /= weights.sum()
    hist, _ = np.histogram(draws, bins=edges)
    empirical = hist / hist.sum()
    tv_distance = 0.5 * float(np.abs(empirical - weights).sum())
    assert tv_distance < 0.05, f"TV distance {tv_distance:.4f} >= 0.05"
    _line(5, "sampler vs grid posterior")


class TestCriterion06ChannelIsolation:
    """The citation channel never touches types and vice versa."""

    @settings(max_examples=25, deadline=None)
    @given(citations=st.integers(min_value=0, max_value=200), seed=st.integers(0, 10**6))
    def test_correction_only_adds_citations(self, second_kind_posterior, citations, seed):
        draws = predict_error_free_citations(
            second_kind_posterior, citations=citations, n=40, seed=seed
        )
        assert draws.min() >= citations

    @settings(max_examples=25, deadline=None)
    @given(citations=st.integers(min_value=0, max_value=200), seed=st.integers(0, 10**6))
    def test_injection_stays_within_observed(self, first_kind_posterior, citations, seed):
        draws = predict_error_affected_citations(
            first_kind_posterior, citations=citations, n=40, seed=seed
        )
        assert draws.min() >= 0
        assert draws.max() <= citations

    @settings(max_examples=10, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["article", "review", "letter", "other"]),
                st.integers(min_value=0, max_value=60),
            ),
            min_size=2,
            max_size=12,
        ),
        seed=st.integers(0, 10**6),
    )
    def test_propagation_isolates_channels(
        self, second_kind_posterior, doctype_posterior, rows, seed
    ):
        unit = make_pubset("U", rows)
        reference = make_pubset("R", [("article", 4), ("review", 6), ("article", 1)])
        models = FittedModels(citation=second_kind_posterior, doctype=doctype_posterior)

        citations_only = propagate(
            unit,
            reference=reference,
            models=models,
            config=PropagationConfig(
                iterations=30, seed=seed, channels=frozenset({CHANNEL_CITATIONS})
            ),
        )
        # types untouched: output count is frozen at its observed value
        p = citations_only.distribution("U", "P").replicates
        assert np.all(p == citations_only.observed["U"].p)
        assert np.all(
            citations_only.distribution("U", "C").replicates
            >= citations_only.observed["U"].c
        )

        doctypes_only = propagate(
            unit,
            reference=reference,
            models=models,
            config=PropagationConfig(
                iterations=30, seed=seed, channels=frozenset({CHANNEL_DOCTYPES})
            ),
        )
        # citation values untouched: total citations bound every replicate
        total = sum(p_.citations for p_ in unit)
        c = doctypes_only.distribution("U", "C").replicates
        assert np.all(c <= total)
        assert np.all(c >= 0)

    def test_pass_line(self):
        _line(6, "channel isolation properties")


def test_criterion_07_correction_exercise_direction():
    """Second-kind correction raises C; MNCS stays within 0.15 (<120 s)."""
    t0 = time.perf_counter()
    report = run_exercise("2", iterations=2000, seed=0)
    for unit in ("A", "B"):
        observed = report.result.observed[unit]
        c_summary = report.result.distribution(unit, "C").summary
        assert c_summary.median > observed.c, (
            f"unit {unit}: corrected C median {c_summary.median} "
            f"not above observed {observed.c}"
        )
        m_summary = report.result.distribution(unit, "MNCS").summary
        assert m_summary.median == pytest.approx(observed.mncs, abs=0.15), (
            f"unit {unit}: MNCS median {m_summary.median:.3f} vs "
            f"observed {observed.mncs:.3f}"
        )
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"took {elapsed:.2f}s, budget 120s"
    _line(7, "correction exercise direction")


def _brute_force_indicators(unit: PublicationSet, universe: list[PublicationSet]):
    """Naive O(n^2)-style reference implementation of P, C, MNCS."""
    sums: dict[DocType, int] = {}
    counts: dict[DocType, int] = {}
    for pubset in universe:
        for pub in pubset:
            sums[pub.doctype] = sums.get(pub.doctype, 0) + pub.citations
            counts[pub.doctype] = counts.get(pub.doctype, 0) + 1
    means = {dt: sums[dt] / counts[dt] for dt in sums}

    p_total = 0
    c_total = 0
    scores: list[float] = []
    excluded = 0
    for pub in unit:
        if pub.doctype not in (DocType.ARTICLE, DocType.REVIEW):
            continue
        p_total += 1
        c_total += pub.citations
        mean = means.get(pub.doctype)
        if mean is None:
            excluded += 1
        elif mean == 0.0:
            if pub.citations == 0:
                scores.append(0.0)
            else:
                excluded += 1
        else:
            scores.append(pub.citations / mean)
    mncs_value = sum(scores) / len(scores) if scores else None
    return p_total, c_total, mncs_value, excluded


def test_criterion_08_normalization_identities():
    """Self-normalized MNCS is 1 to 1e-12; brute force agrees on 100 cases."""
    rng = np.random.default_rng(88)
    labels = ["article", "review", "letter", "other"]
    for trial in range(100):
        rows = [
            (labels[rng.integers(0, 4)], int(rng.poisson(2.0)))
            for _ in range(int(rng.integers(2, 40)))
        ]
        unit = make_pubset("U", rows)
        ref_rows = [
            (labels[rng.integers(0, 4)], int(rng.poisson(3.0)))
            for _ in range(int(rng.integers(5, 60)))
        ]
        reference = make_pubset("R", ref_rows)

        cells = build_normalization([unit, reference])
        result = indicators_for(unit, cells)
        brute_p, brute_c, brute_mncs, brute_excluded = _brute_force_indicators(
            unit, [unit, reference]
        )
        assert result.p == brute_p
        assert result.c == brute_c
        assert result.excluded == brute_excluded
        if brute_mncs is None:
            assert result.mncs is None
        else:
            assert result.mncs == pytest.approx(brute_mncs, abs=1e-12)

        # identity run: guarantee both core cells hold a cited publication
        identity_rows = rows + [("article", int(rng.integers(1, 9))), ("review", int(rng.integers(1, 9)))]
        identity_unit = make_pubset("I", identity_rows)
        identity_cells = build_normalization(identity_unit)
        identity = indicators_for(identity_unit, identity_cells)
        assert identity.mncs == pytest.approx(1.0, abs=1e-12)
    _line(8, "normalization identities")


def test_criterion_09_determinism_across_workers(tmp_path):
    """Same seed gives byte-identical output for 1, 2, and 8 workers."""
    payloads = []
    for workers in (1, 2, 8):
        report = run_exercise("2", iterations=300, seed=11, workers=workers)
        payloads.append(json.dumps(report_payload(report.result), sort_keys=True))
    assert payloads[0] == payloads[1] == payloads[2]

    # same guarantee through the command line, including the written report
    sample_path = tmp_path / "sample.csv"
    write_citation_error_sample(synthesize_training_sample(seed=0), sample_path)
    units, reference = generate_scenario(
        ScenarioConfig(
            unit_sizes={"A": 20},
            unit_locations={"A": 1.0},
            reference_size=80,
            reference_location=1.0,
            seed=2,
        )
    )
    pubs_path = tmp_path / "pubs.csv"
    ref_path = tmp_path / "ref.csv"
    write_publications(units, pubs_path)
    write_publications([reference], ref_path)
    fit_dir = tmp_path / "models"
    fit = subprocess.run(
        [
            sys.executable,
            "-m",
            "bibuq.cli",
            "fit",
            "--citation-sample",
            str(sample_path),
            "--chains",
            "2",
            "--warmup",
            "600",
            "--keep",
            "500",
            "--seed",
            "5",
            "--out",
            str(fit_dir),
        ],
        capture_output=True,
        text=True,
    )
    assert fit.returncode == 0, fit.stderr
    reports = []
    for workers in ("1", "8"):
        out_dir = tmp_path / f"run-w{workers}"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "bibuq.cli",
                "propagate",
                "--pubs",
                str(pubs_path),
                "--reference",
                str(ref_path),
                "--citation-model",
                str(fit_dir / "citation_posterior.json"),
                "--channels",
                "citations",
                "--iterations",
                "50",
                "--seed",
                "3",
                "--workers",
                workers,
                "--out",
                str(out_dir),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append((out_dir / "report.json").read_bytes())
    assert reports[0] == reports[1]
    _line(9, "determinism across workers")


def test_criterion_10_scale_budget():
    """Large inputs stay inside the 10-minute budget."""
    t0 = time.perf_counter()
    report = run_exercise("A4", iterations=2000, seed=0, workers=4)
    for unit in ("A", "B"):
        dist = report.result.distribution(unit, "MNCS")
        assert dist.replicates.shape == (2000,)
        assert dist.summary is not None

    units, reference = generate_scenario(
        ScenarioConfig(
            unit_sizes={"U": 4000},
            unit_locations={"U": 1.0},
            reference_size=40000,
            reference_location=1.0,
            seed=99,
        )
    )
    sample = synthesize_training_sample(seed=0)
    citation = fit_citation_error_model(sample, config=McmcConfig(seed=5))
    doctype = fit_doctype_error_model(synthetic_confusion_table())
    result = propagate(
        units,
        reference=reference,
        models=FittedModels(citation=citation, doctype=doctype),
        config=PropagationConfig(iterations=1000, seed=0, workers=4),
    )
    dist = result.distribution("U", "MNCS")
    assert dist.replicates.shape == (1000,)
    assert dist.summary is not None
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0, f"took {elapsed:.2f}s, budget 600s"
    _line(10, "scale and runtime budget")
