"""Scenario and audit synthesis, and the built-in demonstration exercises.

``generate_scenario`` draws a synthetic multi-unit publication scenario,
``synthesize_training_sample`` a paired citation audit from the embedded
audit marginal, and ``synthetic_confusion_table`` is the stand-in
document-type audit.  ``run_exercise`` fits the error models on them and
runs one exercise: item-level predictions ("1") or a propagation.
"""

from __future__ import annotations

import math
import warnings
from collections import Counter
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .datamodel import (
    CitationErrorSample,
    DocType,
    DOCTYPE_ORDER,
    DocTypeConfusionTable,
    Publication,
    PublicationSet,
    UsageError,
    ValidationError,
    embedded_missed_citation_sample,
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
)
from .errormodels import (
    FIRST_KIND,
    SECOND_KIND,
    McmcConfig,
    NegBinModelSpec,
    fit_citation_error_model,
    fit_doctype_error_model,
    is_integer,
    substream_rng,
)
from .indicators import KEY_DOCTYPE
from .predictive import predict_doctype, predict_error_free_citations
from .report import render_result_table, report_header, report_payload
from .simulation import (
    ALL_CHANNELS,
    CHANNEL_CITATIONS,
    CHANNEL_DOCTYPES,
    FittedModels,
    PropagationConfig,
    PropagationResult,
    propagate,
)

__all__ = [
    "subseed",
    "ScenarioConfig",
    "generate_scenario",
    "synthesize_training_sample",
    "synthetic_confusion_table",
    "list_exercises",
    "ItemPrediction",
    "ExerciseReport",
    "run_exercise",
]


def subseed(seed: int, index: int) -> int:
    """A derived 64-bit seed, stable across platforms and runs."""
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    state = ss.generate_state(2, dtype=np.uint64)
    return int(state[0])


# ---------------------------------------------------------------------------
# Scenario generation
# ---------------------------------------------------------------------------

# Doctype shares and per-doctype location factors, in DOCTYPE_ORDER.
_SCENARIO_MIX = np.array([0.68, 0.04, 0.03, 0.25])
_SCENARIO_SCALING = np.array([1.0, 1.5, 0.2, 0.1])
_SCENARIO_SIGMA = 1.0
_SCENARIO_YEAR = 2010
_SCENARIO_REFERENCE_NAME = "reference"


@dataclass(frozen=True)
class ScenarioConfig:
    """Synthetic multi-unit publication scenario.

    Each set (the units and the reference set, named "reference") has a
    size and a location.  A publication's citation count is the floor of
    a lognormal draw with sigma 1 whose location is its set's location
    scaled by a per-doctype factor (article 1, review 1.5, letter 0.2,
    other 0.1), so reviews run hotter and letters colder than articles.
    Document types follow a fixed mixture (68% articles, 4% reviews, 3%
    letters, 25% other).  All publications are dated 2010 and carry no
    field label.  The sizes and ``seed`` take Python or numpy integers,
    but not bools, and are stored as Python ints.
    """

    unit_sizes: Mapping[str, int]
    unit_locations: Mapping[str, float]
    reference_size: int
    reference_location: float
    seed: int = 0

    def __post_init__(self) -> None:
        values = {f"unit_sizes[{u!r}]": n for u, n in self.unit_sizes.items()}
        values.update(reference_size=self.reference_size, seed=self.seed)
        for label, value in values.items():
            if not is_integer(value):
                raise ValidationError(f"{label} must be an integer, got {value!r}")
        object.__setattr__(self, "unit_sizes", {u: int(n) for u, n in self.unit_sizes.items()})
        for name in ("reference_size", "seed"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a non-negative 64-bit integer")
        if set(self.unit_sizes) != set(self.unit_locations):
            raise ValidationError("unit_sizes and unit_locations must name the same units")
        if not self.unit_sizes:
            raise ValidationError("need at least one unit")
        if any(size < 1 for size in self.unit_sizes.values()) or self.reference_size < 1:
            raise ValidationError("set sizes must be >= 1")
        if _SCENARIO_REFERENCE_NAME in self.unit_sizes:
            raise ValidationError(f"reference name {_SCENARIO_REFERENCE_NAME!r} collides with a unit")


def _scenario_set(
    rng: np.random.Generator, name: str, size: int, location: float
) -> PublicationSet:
    codes = rng.choice(4, size=size, p=_SCENARIO_MIX / _SCENARIO_MIX.sum())
    raw = rng.lognormal(mean=location * _SCENARIO_SCALING[codes], sigma=_SCENARIO_SIGMA)
    counts = np.floor(raw).astype(np.int64)
    members = tuple(
        Publication(
            id=f"{name}-{k:05d}",
            unit=name,
            doctype=DOCTYPE_ORDER[codes[k]],
            year=_SCENARIO_YEAR,
            citations=int(counts[k]),
        )
        for k in range(size)
    )
    return PublicationSet(name=name, members=members)


def generate_scenario(cfg: ScenarioConfig) -> tuple[list[PublicationSet], PublicationSet]:
    """Draw the assessed units and the reference set of a scenario."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=cfg.seed))
    units = [
        _scenario_set(rng, name, cfg.unit_sizes[name], cfg.unit_locations[name])
        for name in cfg.unit_sizes
    ]
    reference = _scenario_set(
        rng, _SCENARIO_REFERENCE_NAME, cfg.reference_size, cfg.reference_location
    )
    return units, reference


# ---------------------------------------------------------------------------
# Audit stand-ins: the training sample and the confusion table
# ---------------------------------------------------------------------------


_SYNTH_TARGET_R = 0.31
_SYNTH_TOLERANCE = 0.05


def synthesize_training_sample(seed: int = 0) -> CitationErrorSample:
    """Build a paired training sample from the embedded 372-record audit.

    The omitted column reproduces the embedded omitted-count histogram
    exactly.  The observed column is a floored lognormal (sigma 1)
    calibrated so that its mean matches the audited citation total, 6120
    over 372 records.  The two columns are rank-coupled through a
    bivariate Gaussian copula whose correlation is searched so that the
    realized Pearson r lands within 0.05 of 0.31; when no coupling gets
    that close, the best achievable sample is returned with a warning.
    All randomness derives from ``seed``.
    """
    omitted_sorted = embedded_missed_citation_sample().expand()
    n = omitted_sorted.size
    target_mean_c = EMBEDDED_SAMPLE_OBSERVED_CITATIONS / n
    rng = substream_rng(seed, 11)
    z_obs = rng.standard_normal(n)
    z_noise = rng.standard_normal(n)

    # Calibrate the lognormal location so the floored draws hit the mean.
    sigma = 1.0
    mu = math.log(target_mean_c + 0.5 + 1e-9) - 0.5 * sigma**2

    def observed_for(location: float) -> np.ndarray:
        return np.floor(np.exp(location + sigma * z_obs)).astype(np.int64)

    for _ in range(12):
        mean = observed_for(mu).mean()
        if abs(mean - target_mean_c) < 1e-6:
            break
        mu += math.log((target_mean_c + 1e-9) / mean)
    observed = observed_for(mu)

    def coupled(rho: float) -> np.ndarray:
        z_latent = rho * z_obs + math.sqrt(max(1.0 - rho * rho, 0.0)) * z_noise
        out = np.empty(n, dtype=np.int64)
        out[np.argsort(z_latent, kind="stable")] = omitted_sorted
        return out

    def pearson(a: np.ndarray, b: np.ndarray) -> float:
        return float(np.corrcoef(a.astype(float), b.astype(float))[0, 1])

    best_rho, best_gap = 0.0, float("inf")
    grid = np.linspace(-0.999, 0.999, 81)
    for _ in range(2):
        for rho in grid:
            r = pearson(observed, coupled(float(rho)))
            gap = abs(r - _SYNTH_TARGET_R)
            if gap < best_gap:
                best_rho, best_gap = float(rho), gap
        width = grid[1] - grid[0]
        grid = np.linspace(
            max(best_rho - width, -0.999), min(best_rho + width, 0.999), 81
        )

    omitted = coupled(best_rho)
    if best_gap > _SYNTH_TOLERANCE:
        warnings.warn(
            f"target correlation {_SYNTH_TARGET_R:.3f} unreachable for this marginal; "
            f"best achieved {pearson(observed, omitted):.3f}",
            RuntimeWarning,
            stacklevel=2,
        )
    return CitationErrorSample(observed, omitted)


# Synthetic audit: invented counts with a plausible error pattern
# (recorded articles are nearly always true articles; recorded letters
# and "other" records hide a fair number of true articles).  Used by the
# exercises when no audited confusion table is supplied.
_STANDIN_CONFUSION = np.array(
    [
        # observed: article review letter other      true type:
        [1932, 31, 50, 400],  # article
        [44, 212, 0, 40],  # review
        [16, 0, 81, 12],  # letter
        [8, 7, 15, 540],  # other
    ],
    dtype=np.int64,
)


def synthetic_confusion_table() -> DocTypeConfusionTable:
    """The built-in synthetic document-type confusion stand-in."""
    return DocTypeConfusionTable(_STANDIN_CONFUSION.copy())


# ---------------------------------------------------------------------------
# Exercises
# ---------------------------------------------------------------------------


def _second_kind_scenario(seed: int) -> ScenarioConfig:
    return ScenarioConfig(
        unit_sizes={"A": 40, "B": 50},
        unit_locations={"A": 0.8, "B": 1.2},
        reference_size=200,
        reference_location=1.0,
        seed=seed,
    )


def _first_kind_scenario(seed: int, sizes: tuple[int, int, int] = (20, 30, 1000)) -> ScenarioConfig:
    size_a, size_b, size_ref = sizes
    return ScenarioConfig(
        unit_sizes={"A": size_a, "B": size_b},
        unit_locations={"A": math.log(5.0), "B": math.log(7.0)},
        reference_size=size_ref,
        reference_location=math.log(6.0),
        seed=seed,
    )


def _exercise_defs(seed: int) -> dict[str, tuple[str, frozenset, ScenarioConfig | None]]:
    """Each exercise's direction, channels and scenario (None: item predictions)."""
    second = _second_kind_scenario(seed)
    first = _first_kind_scenario(seed)
    first_large = _first_kind_scenario(seed, sizes=(2000, 3000, 10000))
    only_c = frozenset({CHANNEL_CITATIONS})
    only_d = frozenset({CHANNEL_DOCTYPES})
    return {
        "1": (SECOND_KIND, ALL_CHANNELS, None),
        "2": (SECOND_KIND, only_c, second),
        "3": (SECOND_KIND, only_d, second),
        "4": (SECOND_KIND, ALL_CHANNELS, second),
        "A1": (FIRST_KIND, only_c, first),
        "A2": (FIRST_KIND, only_d, first),
        "A3": (FIRST_KIND, ALL_CHANNELS, first),
        "A4": (FIRST_KIND, ALL_CHANNELS, first_large),
    }


def list_exercises() -> list[str]:
    return sorted(_exercise_defs(0), key=lambda k: (len(k), k))


@dataclass(frozen=True)
class ItemPrediction:
    """Replicate tallies for one demonstration publication."""

    label: str
    doctype: DocType
    citations: int
    doctype_draws: dict[str, int]
    citation_draws: dict[int, int]


@dataclass(frozen=True)
class ExerciseReport:
    """Everything a demonstration exercise produced."""

    name: str
    direction: str
    channels: tuple[str, ...]
    iterations: int
    seed: int
    items: tuple[ItemPrediction, ...] | None = None
    result: PropagationResult | None = None
    training_sample: CitationErrorSample | None = None
    confusion: DocTypeConfusionTable | None = None

    def to_dict(self) -> dict:
        payload: dict = {
            "exercise": self.name,
            "direction": self.direction,
            "channels": sorted(self.channels),
            "iterations": self.iterations,
            "seed": self.seed,
        }
        if self.items is not None:
            payload["items"] = [
                {
                    "label": item.label,
                    "doctype": item.doctype.value,
                    "citations": item.citations,
                    "doctype_draws": item.doctype_draws,
                    "citation_draws": {str(k): v for k, v in sorted(item.citation_draws.items())},
                }
                for item in self.items
            ]
        if self.result is not None:
            payload["units"] = report_payload(self.result)["units"]
        return payload

    def to_text(self) -> str:
        lines = [f"exercise {self.name}: {report_header(self.to_dict())}"]
        if self.items is not None:
            lines.append("")
            lines.append("predicted document types (tally over draws)")
            header = ["item".ljust(26)] + [dt.value.rjust(8) for dt in DOCTYPE_ORDER]
            lines.append("  ".join(header))
            for item in self.items:
                row = [f"{item.label} ({item.doctype.value}, {item.citations} cit)".ljust(26)]
                row += [str(item.doctype_draws.get(dt.value, 0)).rjust(8) for dt in DOCTYPE_ORDER]
                lines.append("  ".join(row))
            lines.append("")
            lines.append("predicted corrected citation counts (value: tally)")
            for item in self.items:
                pairs = "  ".join(f"{k}:{v}" for k, v in sorted(item.citation_draws.items()))
                lines.append(f"{item.label} ({item.doctype.value}, {item.citations} cit)  {pairs}")
        if self.result is not None:
            lines.append("")
            lines.append(render_result_table(self.result))
        return "\n".join(lines)


def run_exercise(
    name: str,
    iterations: int = PropagationConfig.iterations,
    seed: int = 0,
    citation_sample: CitationErrorSample | None = None,
    confusion: DocTypeConfusionTable | None = None,
    workers: int = PropagationConfig.workers,
) -> ExerciseReport:
    """Run one of the built-in demonstration exercises.

    Exercise "1" predicts corrected citation counts and true document
    types for three example publications (an article with 5 citations, a
    review with 10, a letter with 0) and tallies the draws.  Exercises
    "2"-"4" generate a small two-unit scenario and propagate second-kind
    errors through the citations channel, the doctypes channel, and
    both.  "A1"-"A3" are the first-kind (error injection) counterparts
    on a different scenario and "A4" repeats "A3" at a hundredfold
    publication volume.

    Training data defaults to the synthesized sample built from the
    embedded audit marginal and the synthetic confusion stand-in; pass
    explicit inputs to override.  All randomness derives from ``seed``.
    ``iterations`` and ``seed`` take Python or numpy integers, but not
    bools, and the report stores them as Python ints.
    """
    for label, value in (("iterations", iterations), ("seed", seed)):
        if not is_integer(value):
            raise ValidationError(f"{label} must be an integer, got {value!r}")
    iterations, seed = int(iterations), int(seed)
    if not 0 <= seed < 2**64:
        raise ValidationError("seed must be a non-negative 64-bit integer")
    defs = _exercise_defs(subseed(seed, 1))
    if name not in defs:
        raise UsageError(f"unknown exercise {name!r}; valid names: {', '.join(list_exercises())}")
    direction, channels, scenario = defs[name]
    # Built before any fit, so every exercise checks its settings; "1"
    # uses only the iteration count.
    config = PropagationConfig(
        iterations=iterations,
        seed=subseed(seed, 4),
        channels=channels,
        direction=direction,
        key_mode=KEY_DOCTYPE,
        workers=workers,
    )

    if citation_sample is None:
        citation_sample = synthesize_training_sample(seed=subseed(seed, 2))
    if confusion is None:
        confusion = synthetic_confusion_table()

    citation_posterior = None
    doctype_posterior = None
    if CHANNEL_CITATIONS in channels:
        spec = NegBinModelSpec(direction=direction)
        cfg = McmcConfig(seed=subseed(seed, 3))
        citation_posterior = fit_citation_error_model(citation_sample, spec, cfg)
    if CHANNEL_DOCTYPES in channels:
        doctype_posterior = fit_doctype_error_model(confusion, direction=direction)

    items = result = None
    if scenario is None:
        items = []
        demo = (("P1", DocType.ARTICLE, 5), ("P2", DocType.REVIEW, 10),
                ("P3", DocType.LETTER, 0))
        for k, (label, doctype, citations) in enumerate(demo):
            types = predict_doctype(doctype_posterior, doctype, iterations, subseed(seed, 10 + k))
            type_tally = dict(Counter(dt.value for dt in types))
            corrected = predict_error_free_citations(
                citation_posterior, citations, iterations, subseed(seed, 20 + k)
            )
            values, freqs = np.unique(corrected, return_counts=True)
            citation_tally = {int(v): int(f) for v, f in zip(values, freqs)}
            items.append(ItemPrediction(label, doctype, citations, type_tally, citation_tally))
        items = tuple(items)
    else:
        units, reference = generate_scenario(scenario)
        models = FittedModels(citation=citation_posterior, doctype=doctype_posterior)
        result = propagate(units, reference, models, config)
    return ExerciseReport(
        name=name,
        direction=direction,
        channels=tuple(sorted(channels)),
        iterations=iterations,
        seed=seed,
        items=items,
        result=result,
        training_sample=citation_sample,
        confusion=confusion,
    )

