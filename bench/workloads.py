"""Workload definitions and seeded input generation.

The benchmark makes every input file itself, from ``--seed`` and the
constants below, with numpy's generator.  It does not call the package's
own scenario or training-sample synthesis, so a change to those functions
cannot change a workload.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

# Document-type codes follow the package's DOCTYPE_ORDER; 0 and 1 are core.
DOCTYPES = ("article", "review", "letter", "other")
DOCTYPE_MIX = (0.68, 0.04, 0.03, 0.25)
# Added to a set's lognormal location, so reviews are cited more and
# letters and other items less than articles.
TYPE_LOCATION = (0.0, 0.4, -1.2, -1.8)
CITATION_SIGMA = 1.0

# P(recorded type | true type), rows and columns in DOCTYPES order.  The
# audited confusion counts are a multinomial draw from these rows.
CONFUSION_PROBS = (
    (0.93, 0.02, 0.01, 0.04),
    (0.06, 0.89, 0.01, 0.04),
    (0.03, 0.01, 0.89, 0.07),
    (0.07, 0.01, 0.03, 0.89),
)
CONFUSION_TRUE_SHARE = (0.55, 0.10, 0.10, 0.25)


@dataclass(frozen=True)
class Audit:
    """Generating model of the citation audit.

    The predictor (observed count for the second kind, error-free count for
    the first) is floor(lognormal(location, sigma)); the omitted count is
    negative binomial with mean exp(intercept + slope * log1p(predictor))
    and the given dispersion, the model the package fits.
    """

    records: int
    location: float
    sigma: float
    intercept: float
    slope: float
    dispersion: float


@dataclass(frozen=True)
class Workload:
    name: str
    direction: str
    key_mode: str
    # (unit name, publications, lognormal location)
    units: tuple[tuple[str, int, float], ...]
    reference_size: int
    reference_location: float
    years: tuple[int, ...]
    fields: tuple[str, ...]
    fieldless_share: float
    audit: Audit
    confusion_records: int
    iterations: int
    dump: bool


_YEARS = (2015, 2016, 2017, 2018, 2019)
_FIELDS = ("biology", "chemistry", "economics", "medicine", "physics", "sociology")

WORKLOADS: dict[str, Workload] = {
    # Institutional scale: the per-iteration kernel dominates.
    "correct-44k": Workload(
        name="correct-44k",
        direction="second-kind",
        key_mode="doctype",
        units=(("U01", 4000, 1.9),),
        reference_size=40000,
        reference_location=1.8,
        years=_YEARS,
        fields=_FIELDS,
        fieldless_share=0.0,
        audit=Audit(372, 2.0, 1.2, -1.2, 0.25, 0.5),
        confusion_records=600,
        iterations=800,
        dump=False,
    ),
    # Exercise scale: fixed per-iteration costs and the fit dominate.
    "correct-small": Workload(
        name="correct-small",
        direction="second-kind",
        key_mode="doctype",
        units=(("U01", 40, 1.6), ("U02", 50, 2.0)),
        reference_size=200,
        reference_location=1.8,
        years=_YEARS,
        fields=_FIELDS,
        fieldless_share=0.0,
        audit=Audit(3000, 1.8, 1.2, -1.0, 0.3, 0.8),
        confusion_records=600,
        iterations=20000,
        dump=False,
    ),
    # Injection over field-keyed cells with every replicate dumped.
    "inject-fields-dump": Workload(
        name="inject-fields-dump",
        direction="first-kind",
        key_mode="doctype-year-field",
        units=tuple((f"U{k + 1:02d}", 250, 1.2 + 0.05 * k) for k in range(20)),
        reference_size=0,
        reference_location=0.0,
        years=_YEARS,
        fields=_FIELDS,
        fieldless_share=1.0 / 7.0,
        audit=Audit(372, 2.2, 1.0, -1.2, 0.3, 0.5),
        confusion_records=600,
        iterations=300,
        dump=True,
    ),
}

# Tiny versions of each workload for the quick self-test; every check
# still applies to them.
QUICK: dict[str, Workload] = {
    "correct-44k": replace(
        WORKLOADS["correct-44k"], units=(("U01", 200, 1.9),), reference_size=2000, iterations=60
    ),
    "correct-small": replace(WORKLOADS["correct-small"], iterations=600),
    "inject-fields-dump": replace(
        WORKLOADS["inject-fields-dump"],
        units=tuple((f"U{k + 1:02d}", 60, 1.2 + 0.2 * k) for k in range(4)),
        iterations=25,
    ),
}

_WORKLOAD_TAG = {"correct-44k": 1, "correct-small": 2, "inject-fields-dump": 3}


@dataclass
class PubArrays:
    """The generated publications of one file, in file order."""

    ids: list[str]
    unit: np.ndarray  # unit index, -1 for the reference set
    doctype: np.ndarray
    year: np.ndarray
    group: np.ndarray  # (year, field) group code, -1 when field-less
    field: list[str]
    citations: np.ndarray


@dataclass
class Inputs:
    """Paths of the generated CSVs plus the arrays they were written from."""

    pubs_path: Path
    reference_path: Path | None
    audit_path: Path
    confusion_path: Path
    units: PubArrays
    reference: PubArrays | None
    confusion: np.ndarray  # (true, recorded) counts


def _rng(seed: int, workload: Workload, stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=seed, spawn_key=(_WORKLOAD_TAG[workload.name], stream))
    )


def _draw_set(
    rng: np.random.Generator,
    workload: Workload,
    members: list[tuple[str, int, float]],
    reference: bool,
) -> PubArrays:
    ids: list[str] = []
    unit_idx, doctype, year, group, fields, cites = [], [], [], [], [], []
    n_fields = len(workload.fields)
    for u, (name, size, location) in enumerate(members):
        codes = rng.choice(4, size=size, p=DOCTYPE_MIX)
        loc = location + np.asarray(TYPE_LOCATION)[codes]
        counts = np.floor(rng.lognormal(loc, CITATION_SIGMA)).astype(np.int64)
        yr = rng.integers(0, len(workload.years), size=size)
        fd = rng.integers(0, n_fields, size=size)
        fieldless = rng.random(size) < workload.fieldless_share
        ids.extend(f"{name}-{k:05d}" for k in range(size))
        unit_idx.append(np.full(size, -1 if reference else u))
        doctype.append(codes)
        year.append(np.asarray(workload.years)[yr])
        group.append(np.where(fieldless, -1, yr * n_fields + fd))
        fields.extend("" if fl else workload.fields[f] for fl, f in zip(fieldless, fd))
        cites.append(counts)
    return PubArrays(
        ids=ids,
        unit=np.concatenate(unit_idx),
        doctype=np.concatenate(doctype),
        year=np.concatenate(year),
        group=np.concatenate(group),
        field=fields,
        citations=np.concatenate(cites),
    )


def _write_pubs(path: Path, pubs: PubArrays, unit_names: list[str]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "unit", "doctype", "year", "field", "citations"])
        for k, pid in enumerate(pubs.ids):
            u = int(pubs.unit[k])
            writer.writerow(
                [
                    pid,
                    unit_names[u] if u >= 0 else "reference",
                    DOCTYPES[pubs.doctype[k]],
                    int(pubs.year[k]),
                    pubs.field[k],
                    int(pubs.citations[k]),
                ]
            )


def _draw_audit(rng: np.random.Generator, workload: Workload) -> tuple[np.ndarray, np.ndarray]:
    a = workload.audit
    predictor = np.floor(rng.lognormal(a.location, a.sigma, size=a.records)).astype(np.int64)
    mu = np.exp(a.intercept + a.slope * np.log1p(predictor))

    def draw(m: np.ndarray) -> np.ndarray:
        return rng.poisson(rng.gamma(a.dispersion, m / a.dispersion))

    omitted = draw(mu)
    if workload.direction == "first-kind":
        # The predictor is the error-free count, so a record cannot miss
        # more citations than it has: redraw the few that would.
        bad = omitted > predictor
        while bad.any():
            omitted[bad] = draw(mu[bad])
            bad = omitted > predictor
    return predictor, omitted


def generate(workload: Workload, seed: int, directory: Path) -> Inputs:
    """Write the workload's four input CSVs for ``seed`` into ``directory``."""
    unit_names = [name for name, _, _ in workload.units]
    units = _draw_set(_rng(seed, workload, 0), workload, list(workload.units), reference=False)
    pubs_path = directory / "pubs.csv"
    _write_pubs(pubs_path, units, unit_names)

    reference = None
    reference_path = None
    if workload.reference_size:
        reference = _draw_set(
            _rng(seed, workload, 1),
            workload,
            [("R", workload.reference_size, workload.reference_location)],
            reference=True,
        )
        reference_path = directory / "reference.csv"
        _write_pubs(reference_path, reference, unit_names)

    predictor, omitted = _draw_audit(_rng(seed, workload, 2), workload)
    if workload.direction == "second-kind":
        observed = predictor
    else:
        observed = predictor - omitted
    audit_path = directory / "audit.csv"
    with audit_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["observed_citations", "omitted_citations"])
        writer.writerows(zip(observed.tolist(), omitted.tolist()))

    rng = _rng(seed, workload, 3)
    true_counts = rng.multinomial(workload.confusion_records, CONFUSION_TRUE_SHARE)
    confusion = np.stack(
        [rng.multinomial(n, row) for n, row in zip(true_counts, CONFUSION_PROBS)]
    )
    confusion_path = directory / "confusion.csv"
    with confusion_path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["true_type", "observed_type", "count"])
        for i in range(4):
            for j in range(4):
                writer.writerow([DOCTYPES[i], DOCTYPES[j], int(confusion[i, j])])

    return Inputs(
        pubs_path=pubs_path,
        reference_path=reference_path,
        audit_path=audit_path,
        confusion_path=confusion_path,
        units=units,
        reference=reference,
        confusion=confusion,
    )
