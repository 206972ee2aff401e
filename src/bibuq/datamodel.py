"""Core data types and file formats for error-aware bibliometric data.

Publications carry the minimal attributes the indicators need (document
type, year, subject field, citation count).  Error-model training data
comes in two forms: paired observed/omitted citation counts from a manual
correction audit, and a document-type confusion table of true vs observed
labels.  All CSV readers validate eagerly and report the offending line.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "ValidationError",
    "UsageError",
    "DocType",
    "DOCTYPE_ORDER",
    "CORE_TYPES",
    "Publication",
    "PublicationSet",
    "CitationErrorSample",
    "DocTypeConfusionTable",
    "MissedCitationMarginal",
    "SampleStatistics",
    "embedded_missed_citation_sample",
    "EMBEDDED_SAMPLE_OBSERVED_CITATIONS",
    "sample_statistics",
    "load_publications",
    "write_publications",
    "load_citation_error_sample",
    "write_citation_error_sample",
    "load_doctype_confusion",
    "write_doctype_confusion",
]


class ValidationError(ValueError):
    """Input data violates a structural constraint (bad file, bad value)."""


class UsageError(ValueError):
    """An operation was invoked with inconsistent or unsupported arguments."""


class DocType(Enum):
    """Simplified document-type vocabulary.

    Every label outside the three named types collapses to OTHER; parsing
    is case-insensitive.
    """

    ARTICLE = "article"
    REVIEW = "review"
    LETTER = "letter"
    OTHER = "other"

    @classmethod
    def parse(cls, label: str) -> "DocType":
        norm = label.strip().lower()
        for member in (cls.ARTICLE, cls.REVIEW, cls.LETTER):
            if norm == member.value:
                return member
        return cls.OTHER


# Fixed category order used by all 4-vectors and confusion matrices.
DOCTYPE_ORDER: tuple[DocType, ...] = tuple(DocType)
_DT_INDEX: dict[DocType, int] = {dt: i for i, dt in enumerate(DOCTYPE_ORDER)}

# Types counted by the publication/citation indicators.
CORE_TYPES: tuple[DocType, ...] = (DocType.ARTICLE, DocType.REVIEW)


def doctype_index(dt: DocType) -> int:
    return _DT_INDEX[dt]


@dataclass(frozen=True)
class Publication:
    """One record of an assessed or reference publication.

    ``field`` may be None for records without a subject classification;
    such records still count toward output and citation totals but cannot
    be normalized under field-aware keys.
    """

    id: str
    unit: str
    doctype: DocType
    year: int
    citations: int
    field: str | None = None

    def __post_init__(self) -> None:
        if not self.id:
            raise ValidationError("publication id must be non-empty")
        if self.citations < 0:
            raise ValidationError(
                f"publication {self.id!r}: citations must be >= 0, got {self.citations}"
            )


@dataclass(frozen=True)
class PublicationSet:
    """A named collection of publications with unique ids."""

    name: str
    members: tuple[Publication, ...]

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for pub in self.members:
            if pub.id in seen:
                raise ValidationError(
                    f"publication set {self.name!r}: duplicate id {pub.id!r}"
                )
            seen.add(pub.id)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def with_members(self, members: Sequence[Publication]) -> "PublicationSet":
        return replace(self, members=tuple(members))


@dataclass(frozen=True)
class CitationErrorSample:
    """Paired (observed, omitted) citation counts from a correction audit.

    ``observed`` holds the counts as recorded by the database, ``omitted``
    the additional citations found by manual checking.  Both arrays are
    non-negative integers of equal length; at least two rows are required
    to fit a regression model.
    """

    observed: np.ndarray
    omitted: np.ndarray

    def __post_init__(self) -> None:
        obs = np.asarray(self.observed, dtype=np.int64)
        omi = np.asarray(self.omitted, dtype=np.int64)
        if obs.ndim != 1 or omi.ndim != 1 or obs.shape != omi.shape:
            raise ValidationError("observed and omitted must be 1-d arrays of equal length")
        if obs.size < 2:
            raise ValidationError("citation error sample needs at least 2 rows")
        if (obs < 0).any() or (omi < 0).any():
            raise ValidationError("citation counts must be >= 0")
        object.__setattr__(self, "observed", obs)
        object.__setattr__(self, "omitted", omi)

    def __len__(self) -> int:
        return int(self.observed.size)

    @property
    def corrected(self) -> np.ndarray:
        """Error-free counts: observed plus omitted."""
        return self.observed + self.omitted


@dataclass(frozen=True)
class DocTypeConfusionTable:
    """4x4 contingency table of true vs observed document types.

    ``counts[i, j]`` is the number of audited records whose true type is
    ``DOCTYPE_ORDER[i]`` and whose recorded type is ``DOCTYPE_ORDER[j]``.
    """

    counts: np.ndarray

    def __post_init__(self) -> None:
        arr = np.asarray(self.counts, dtype=np.int64)
        if arr.shape != (4, 4):
            raise ValidationError(f"confusion table must be 4x4, got {arr.shape}")
        if (arr < 0).any():
            raise ValidationError("confusion counts must be >= 0")
        object.__setattr__(self, "counts", arr)

    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class MissedCitationMarginal:
    """Histogram of omitted-citation counts: {count: number of records}."""

    histogram: Mapping[int, int]

    def __post_init__(self) -> None:
        for k, v in self.histogram.items():
            if k < 0 or v < 0:
                raise ValidationError("histogram keys and frequencies must be >= 0")
        object.__setattr__(self, "histogram", dict(self.histogram))

    def record_count(self) -> int:
        return sum(self.histogram.values())

    def total_missed(self) -> int:
        return sum(k * v for k, v in self.histogram.items())

    def share_with_missing(self) -> float:
        """Fraction of records with at least one omitted citation."""
        n = self.record_count()
        if n == 0:
            return 0.0
        return (n - self.histogram.get(0, 0)) / n

    def expand(self) -> np.ndarray:
        """All individual counts as a sorted array (one entry per record)."""
        out = np.repeat(
            np.fromiter(sorted(self.histogram), dtype=np.int64),
            [self.histogram[k] for k in sorted(self.histogram)],
        )
        return out


# Omitted-citation histogram from a manual audit of 372 Web of Science
# records: 263 records had no missing citations, one had 26, etc.  The
# audited records were cited 6120 times in total according to the
# database; checking reference lists turned up 255 additional citations.
_EMBEDDED_HISTOGRAM = {
    0: 263,
    1: 67,
    2: 20,
    3: 5,
    4: 5,
    5: 2,
    6: 3,
    8: 1,
    9: 4,
    15: 1,
    26: 1,
}

EMBEDDED_SAMPLE_OBSERVED_CITATIONS = 6120


def embedded_missed_citation_sample() -> MissedCitationMarginal:
    """The built-in omitted-citation marginal from the 372-record audit."""
    return MissedCitationMarginal(dict(_EMBEDDED_HISTOGRAM))


@dataclass(frozen=True)
class SampleStatistics:
    """Descriptive statistics of a citation error sample.

    ``omitted_rate`` is total omitted relative to total observed counts.
    ``pearson_r`` and its confidence bounds are None when either column
    has zero variance.
    """

    n_records: int
    total_observed: int
    total_omitted: int
    omitted_rate: float
    share_with_omission: float
    mean_observed: float
    mean_corrected: float
    pearson_r: float | None
    r_ci_low: float | None
    r_ci_high: float | None


def _pearson_with_ci(x: np.ndarray, y: np.ndarray) -> tuple[float | None, float | None, float | None]:
    # Raw-count correlation with a Fisher-z 95% interval.
    n = x.size
    xf = x.astype(np.float64)
    yf = y.astype(np.float64)
    sx = xf.std()
    sy = yf.std()
    if sx == 0.0 or sy == 0.0:
        return None, None, None
    r = float(np.corrcoef(xf, yf)[0, 1])
    if n <= 3 or abs(r) >= 1.0:
        return r, None, None
    z = math.atanh(r)
    se = 1.0 / math.sqrt(n - 3)
    return r, math.tanh(z - 1.96 * se), math.tanh(z + 1.96 * se)


def sample_statistics(sample: CitationErrorSample) -> SampleStatistics:
    """Summarize a correction audit sample.

    Returns record and citation totals, the omitted rate (omitted over
    observed citations), the share of records with at least one omission,
    observed and corrected means, and the Pearson correlation between
    observed and omitted counts with a Fisher-z 95% interval.
    """
    obs = sample.observed
    omi = sample.omitted
    n = len(sample)
    total_obs = int(obs.sum())
    total_omi = int(omi.sum())
    rate = total_omi / total_obs if total_obs > 0 else float("nan")
    r, lo, hi = _pearson_with_ci(obs, omi)
    return SampleStatistics(
        n_records=n,
        total_observed=total_obs,
        total_omitted=total_omi,
        omitted_rate=rate,
        share_with_omission=float((omi >= 1).mean()),
        mean_observed=total_obs / n,
        mean_corrected=(total_obs + total_omi) / n,
        pearson_r=r,
        r_ci_low=lo,
        r_ci_high=hi,
    )


# ---------------------------------------------------------------------------
# CSV formats
# ---------------------------------------------------------------------------

_PUB_HEADER = ["id", "unit", "doctype", "year", "field", "citations"]
_SAMPLE_HEADER = ["observed_citations", "omitted_citations"]
_CONFUSION_HEADER = ["true_type", "observed_type", "count"]


def _open_rows(path: str | Path, expected: list[str]):
    path = Path(path)
    handle = path.open(newline="", encoding="utf-8")
    reader = csv.DictReader(handle)
    got = reader.fieldnames or []
    missing = [c for c in expected if c not in got]
    if missing:
        handle.close()
        raise ValidationError(f"{path}: missing columns {missing}, header is {got}")
    return handle, reader


def _int_cell(row: dict, column: str, path: Path, line: int, minimum: int = 0) -> int:
    raw = (row.get(column) or "").strip()
    try:
        value = int(raw)
    except ValueError:
        raise ValidationError(f"{path}:{line}: {column} must be an integer, got {raw!r}") from None
    if value < minimum:
        raise ValidationError(f"{path}:{line}: {column} must be >= {minimum}, got {value}")
    return value


def load_publications(path: str | Path) -> list[PublicationSet]:
    """Read a publications CSV and group records into per-unit sets.

    Columns: id, unit, doctype, year, field, citations.  Document types
    are parsed case-insensitively, unknown labels collapse to "other",
    and an empty field column becomes None.  Units appear in first-seen
    order.  Raises ValidationError naming the line for malformed cells
    and for duplicate publication ids.
    """
    path = Path(path)
    handle, reader = _open_rows(path, _PUB_HEADER)
    by_unit: dict[str, list[Publication]] = {}
    seen_ids: set[str] = set()
    with handle:
        for row in reader:
            line = reader.line_num
            pid = (row.get("id") or "").strip()
            unit = (row.get("unit") or "").strip()
            if not pid:
                raise ValidationError(f"{path}:{line}: empty publication id")
            if not unit:
                raise ValidationError(f"{path}:{line}: empty unit name")
            if pid in seen_ids:
                raise ValidationError(f"{path}:{line}: duplicate publication id {pid!r}")
            seen_ids.add(pid)
            field_label = (row.get("field") or "").strip() or None
            pub = Publication(
                id=pid,
                unit=unit,
                doctype=DocType.parse(row.get("doctype") or ""),
                year=_int_cell(row, "year", path, line, minimum=-(10**9)),
                citations=_int_cell(row, "citations", path, line),
                field=field_label,
            )
            by_unit.setdefault(unit, []).append(pub)
    return [PublicationSet(name=unit, members=tuple(pubs)) for unit, pubs in by_unit.items()]


def write_publications(sets: Iterable[PublicationSet], path: str | Path) -> None:
    """Write publication sets back to the canonical CSV layout."""
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_PUB_HEADER)
        for pubset in sets:
            for p in pubset:
                writer.writerow(
                    [p.id, p.unit, p.doctype.value, p.year, p.field or "", p.citations]
                )


def load_citation_error_sample(path: str | Path) -> CitationErrorSample:
    """Read an observed/omitted citation-count CSV."""
    path = Path(path)
    handle, reader = _open_rows(path, _SAMPLE_HEADER)
    obs: list[int] = []
    omi: list[int] = []
    with handle:
        for row in reader:
            line = reader.line_num
            obs.append(_int_cell(row, "observed_citations", path, line))
            omi.append(_int_cell(row, "omitted_citations", path, line))
    if len(obs) < 2:
        raise ValidationError(f"{path}: need at least 2 rows to fit a model, got {len(obs)}")
    return CitationErrorSample(np.array(obs), np.array(omi))


def write_citation_error_sample(sample: CitationErrorSample, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_SAMPLE_HEADER)
        for c, o in zip(sample.observed.tolist(), sample.omitted.tolist()):
            writer.writerow([c, o])


def load_doctype_confusion(path: str | Path) -> DocTypeConfusionTable:
    """Read a (true_type, observed_type, count) CSV into a 4x4 table.

    Repeated label pairs accumulate.  Labels are parsed with the same
    collapse-to-other rule as publications.
    """
    path = Path(path)
    handle, reader = _open_rows(path, _CONFUSION_HEADER)
    counts = np.zeros((4, 4), dtype=np.int64)
    with handle:
        for row in reader:
            line = reader.line_num
            true_dt = DocType.parse(row.get("true_type") or "")
            obs_dt = DocType.parse(row.get("observed_type") or "")
            counts[doctype_index(true_dt), doctype_index(obs_dt)] += _int_cell(
                row, "count", path, line
            )
    return DocTypeConfusionTable(counts)


def write_doctype_confusion(table: DocTypeConfusionTable, path: str | Path) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(_CONFUSION_HEADER)
        for i, true_dt in enumerate(DOCTYPE_ORDER):
            for j, obs_dt in enumerate(DOCTYPE_ORDER):
                writer.writerow([true_dt.value, obs_dt.value, int(table.counts[i, j])])
