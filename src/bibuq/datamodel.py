"""Core data types and file formats for error-aware bibliometric data.

Publications carry the minimal attributes the indicators need (document
type, year, subject field, citation count).  A ``PublicationSet`` holds
them as columns: ids and units, int64 arrays of citations, doctype codes
and years, and field codes into a table of labels.  Iterating a set
yields a ``Publication`` view of each row.  Error-model training data
comes in two forms: paired observed/omitted citation counts from a manual
correction audit, and a document-type confusion table of true vs observed
labels.  All CSV readers share one column reader: a single ``csv.reader``
pass that yields the cells of up to ``LOAD_CHUNK`` records at a time, so
a load holds the raw strings of one chunk and not of the whole file.
Each chunk is converted and checked as it arrives.  The readers validate
eagerly and report the offending line.  Every JSON file the package
writes or reads goes through ``write_json`` or ``read_json_object``, and every CSV file it
writes through ``write_csv``, save the item dump of
``predictive.predictive_dump``.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from enum import Enum
from itertools import chain, islice
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

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


class PublicationSet:
    """A named collection of publications with unique ids, held as columns.

    ``ids`` and ``units`` are tuples with one string per row; a set merged
    from several units keeps each row's own unit.  ``citations``,
    ``doctypes`` (codes in ``DOCTYPE_ORDER``) and ``years`` are read-only
    int64 arrays.  ``fields`` holds each row's index into
    ``field_labels``, or -1 for a row without a field.  Iterating a set
    yields a ``Publication`` view of each row, in row order.
    """

    __slots__ = ("name", "ids", "units", "citations", "doctypes", "years", "fields", "field_labels")

    def __init__(self, name: str, members: Iterable[Publication] = ()) -> None:
        members = tuple(members)
        labels: dict[str, int] = {}
        self._assign(
            name,
            ids=tuple(p.id for p in members),
            units=tuple(p.unit for p in members),
            citations=[p.citations for p in members],
            doctypes=[doctype_index(p.doctype) for p in members],
            years=[p.year for p in members],
            fields=[
                -1 if p.field is None else labels.setdefault(p.field, len(labels))
                for p in members
            ],
            field_labels=tuple(labels),
        )
        repeat = _first_repeat(self.ids)
        if repeat is not None:
            raise ValidationError(
                f"publication set {name!r}: duplicate id {self.ids[repeat]!r}"
            )

    @classmethod
    def from_columns(
        cls, name: str, ids, units, citations, doctypes, years, fields, field_labels
    ) -> "PublicationSet":
        """A set of the given columns, taken as valid and not checked."""
        pubset = cls.__new__(cls)
        pubset._assign(name, ids, units, citations, doctypes, years, fields, field_labels)
        return pubset

    @classmethod
    def concat(cls, name: str, sets: Sequence["PublicationSet"]) -> "PublicationSet":
        """Every row of ``sets``, in order, as one set named ``name``.

        Each row keeps its own unit; equal field labels share one code.
        Ids are not checked for uniqueness across the sets.
        """
        if not sets:
            return cls(name)
        fields, field_labels = pooled_fields(sets)
        return cls.from_columns(
            name,
            ids=tuple(chain.from_iterable(s.ids for s in sets)),
            units=tuple(chain.from_iterable(s.units for s in sets)),
            citations=np.concatenate([s.citations for s in sets]),
            doctypes=np.concatenate([s.doctypes for s in sets]),
            years=np.concatenate([s.years for s in sets]),
            fields=fields,
            field_labels=field_labels,
        )

    def subset(self, name: str, rows: np.ndarray) -> "PublicationSet":
        """The rows at the indices ``rows``, in that order, as a set named ``name``."""
        picked = rows.tolist()
        return PublicationSet.from_columns(
            name,
            ids=tuple(self.ids[k] for k in picked),
            units=tuple(self.units[k] for k in picked),
            citations=self.citations[rows],
            doctypes=self.doctypes[rows],
            years=self.years[rows],
            fields=self.fields[rows],
            field_labels=self.field_labels,
        )

    def _assign(self, name, ids, units, citations, doctypes, years, fields, field_labels) -> None:
        self.name = name
        self.ids = tuple(ids)
        self.units = tuple(units)
        for attr, values in (
            ("citations", citations), ("doctypes", doctypes), ("years", years), ("fields", fields)
        ):
            column = np.asarray(values, dtype=np.int64)
            column.flags.writeable = False
            setattr(self, attr, column)
        self.field_labels = tuple(field_labels)

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        # Index -1 of the extended labels is None: no field.
        labels = self.field_labels + (None,)
        for pid, unit, code, year, citations, field in zip(
            self.ids,
            self.units,
            self.doctypes.tolist(),
            self.years.tolist(),
            self.citations.tolist(),
            self.fields.tolist(),
        ):
            yield Publication(pid, unit, DOCTYPE_ORDER[code], year, citations, labels[field])

    @property
    def members(self) -> tuple[Publication, ...]:
        return tuple(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PublicationSet):
            return NotImplemented
        return self.name == other.name and self.members == other.members

    __hash__ = None

    def __repr__(self) -> str:
        return f"PublicationSet(name={self.name!r}, {len(self)} publications)"


def pooled_fields(sets: Sequence[PublicationSet]) -> tuple[np.ndarray, tuple[str, ...]]:
    """The field code of every row of ``sets``, in order, and the labels they index.

    Equal labels share one code; a row without a field keeps -1.
    """
    labels: dict[str, int] = {}
    fields = []
    for pubset in sets:
        codes = [labels.setdefault(label, len(labels)) for label in pubset.field_labels]
        # A code of -1 picks the trailing -1: no field stays no field.
        fields.append(np.array(codes + [-1], dtype=np.int64)[pubset.fields])
    return np.concatenate(fields), tuple(labels)


def _first_repeat(values: Sequence) -> int | None:
    """Index of the first value that an earlier one equals, or None."""
    if len(set(values)) == len(values):
        return None
    seen = set()
    for k, value in enumerate(values):
        if value in seen:
            return k
        seen.add(value)
    return None


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
# JSON and CSV formats
# ---------------------------------------------------------------------------

_PUB_HEADER = ["id", "unit", "doctype", "year", "field", "citations"]
_SAMPLE_HEADER = ["observed_citations", "omitted_citations"]
_CONFUSION_HEADER = ["true_type", "observed_type", "count"]
_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1
# Records per chunk of the CSV readers: a load holds the raw cells of one
# chunk, not of the whole file.
LOAD_CHUNK = 4096


def write_json(payload, path: str | Path) -> None:
    """Write ``payload`` as JSON: sorted keys, one-space indent, a final newline."""
    with Path(path).open("w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")


def read_json_object(path: str | Path, what: str) -> dict:
    """Read a JSON file whose top level is an object; else a ValidationError naming it."""
    with Path(path).open(encoding="utf-8") as handle:
        try:
            payload = json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise ValidationError(f"{path}: not a JSON {what} ({err})") from None
    if not isinstance(payload, dict):
        raise ValidationError(f"{path}: {what} must be a JSON object")
    return payload


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header``, then ``rows``, with ``csv.writer`` (``\\r\\n`` line ends)."""
    with Path(path).open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        writer.writerows(rows)


def _read_columns(path: Path, expected: list[str]) -> Iterator[list[list[str]]]:
    """The raw cells of each ``expected`` column, in chunks of records.

    Each chunk holds one list per column, with a cell for each of up to
    ``LOAD_CHUNK`` consecutive non-blank records; only the last chunk is
    shorter.  One ``csv.reader`` pass reads the file.  Blank lines are
    skipped, and a record shorter than the header reads "" for its
    missing cells.  A file that is not UTF-8 or not CSV raises a
    ValidationError naming it.
    """
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, [])
            missing = [c for c in expected if c not in header]
            if missing:
                raise ValidationError(f"{path}: missing columns {missing}, header is {header}")
            position = {name: i for i, name in enumerate(header)}
            picks = [position[name] for name in expected]
            width = max(picks) + 1
            records = filter(None, reader)  # a blank line reads as []
            while True:
                columns: list[list[str]] = [[] for _ in expected]
                cells = [(column.append, i) for column, i in zip(columns, picks)]
                for row in islice(records, LOAD_CHUNK):
                    if len(row) < width:
                        row += [""] * (width - len(row))
                    for append, i in cells:
                        append(row[i])
                if not columns[0]:
                    break
                yield columns
        except (UnicodeDecodeError, csv.Error) as err:
            raise ValidationError(f"{path}: not a UTF-8 CSV file ({err})") from None


def _line_of(path: Path, record: int) -> int:
    """Line on which the ``record``-th non-blank data record (from 0) ends."""
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        next(reader, None)
        records = (reader.line_num for row in reader if row)
        return next(islice(records, record, None))


def _raise_first(path: Path, failures: list[tuple[int, str]]) -> None:
    """Raise the failure of the earliest record, the first one listed on a tie.

    Failures are listed in the order a record's cells are checked, so the
    error is the one a row-by-row reader would have stopped at.
    """
    if failures:
        record, message = min(failures, key=lambda failure: failure[0])
        raise ValidationError(f"{path}:{_line_of(path, record)}: {message}")


def _int_column(
    cells: list[str], column: str, minimum: int, failures: list[tuple[int, str]], start: int
) -> np.ndarray:
    """Parse a column of integer cells, listing its first failure.

    ``start`` is the record index of the first cell.  On a cell that is
    not an integer (or not an int64) the values stop short of it, so the
    minimum is checked on the cells before it.
    """
    try:
        values = np.fromiter(map(int, cells), dtype=np.int64, count=len(cells))
    except (ValueError, OverflowError):
        parsed: list[int] = []
        for k, cell in enumerate(cells):
            raw = cell.strip()
            try:
                value = int(raw)
            except ValueError:
                failures.append((start + k, f"{column} must be an integer, got {raw!r}"))
                break
            if not _INT64_MIN <= value <= _INT64_MAX:
                failures.append((start + k, f"{column} must fit in 64 bits, got {value}"))
                break
            parsed.append(value)
        values = np.array(parsed, dtype=np.int64)
    low = np.flatnonzero(values < minimum)
    if low.size:
        failures.append(
            (start + int(low[0]), f"{column} must be >= {minimum}, got {values[low[0]]}")
        )
    return values


def _doctype_codes(cells: list[str]) -> np.ndarray:
    """``DOCTYPE_ORDER`` code of each label, parsed once per distinct label."""
    code = {label: doctype_index(DocType.parse(label)) for label in set(cells)}
    return np.fromiter(map(code.__getitem__, cells), dtype=np.int64, count=len(cells))


def _label_codes(cells: list[str], labels: dict[str, int]) -> np.ndarray:
    """Each cell's index into ``labels``, the stripped labels in first-seen order.

    A label not yet in ``labels`` is added to it, so the chunks of one
    file share one table.  A cell that strips to "" gets -1.  Each
    distinct cell of a chunk is stripped once.
    """
    code = {}
    for raw in dict.fromkeys(cells):
        label = raw.strip()
        code[raw] = labels.setdefault(label, len(labels)) if label else -1
    return np.fromiter(map(code.__getitem__, cells), dtype=np.int64, count=len(cells))


def load_publications(path: str | Path) -> list[PublicationSet]:
    """Read a publications CSV and group records into per-unit sets.

    Columns: id, unit, doctype, year, field, citations.  Document types
    are parsed case-insensitively, unknown labels collapse to "other",
    and an empty field column becomes None.  Units appear in first-seen
    order.  Raises ValidationError naming the line for malformed cells
    and for duplicate publication ids.  The file is read once, in chunks
    of ``LOAD_CHUNK`` records, and each chunk is converted and checked as
    it arrives; the error of the earliest failing record is raised once
    the whole file has been read, and its line is looked up only then.
    """
    path = Path(path)
    ids: list[str] = []
    seen: set[str] = set()
    repeat = None
    unit_labels: dict[str, int] = {}
    field_labels: dict[str, int] = {}
    failures: list[tuple[int, str]] = []
    parts: list[tuple[np.ndarray, ...]] = []
    for id_cells, unit_cells, doctype_cells, year_cells, field_cells, citation_cells in (
        _read_columns(path, _PUB_HEADER)
    ):
        start = len(ids)
        chunk_ids = list(map(str.strip, id_cells))
        unit_slot = _label_codes(unit_cells, unit_labels)
        # Listed in the order a row-by-row reader checks a record's cells.
        if "" in chunk_ids:
            failures.append((start + chunk_ids.index(""), "empty publication id"))
        if unit_slot.min() < 0:
            failures.append((start + int(np.argmin(unit_slot)), "empty unit name"))
        if repeat is None:
            size = len(seen)
            seen.update(chunk_ids)
            if len(seen) < size + len(chunk_ids):
                # The file's first repeat: no earlier chunk held one.
                repeat = _first_repeat(ids + chunk_ids)
                pid = chunk_ids[repeat - start]
                failures.append((repeat, f"duplicate publication id {pid!r}"))
        years = _int_column(year_cells, "year", -(10**9), failures, start)
        citations = _int_column(citation_cells, "citations", 0, failures, start)
        codes = _label_codes(field_cells, field_labels)
        parts.append((unit_slot, citations, _doctype_codes(doctype_cells), years, codes))
        ids += chunk_ids
    _raise_first(path, failures)
    if not ids:
        return []
    # Dropped as soon as they are done with, which lowers the load's peak.
    del seen
    unit_slot, citations, doctypes, years, fields = map(np.concatenate, zip(*parts))
    del parts
    columns = (citations, doctypes, years, fields, tuple(field_labels))
    names = tuple(unit_labels)

    # Units in first-seen order; each keeps its rows in file order.
    if len(names) == 1:
        return [PublicationSet.from_columns(names[0], ids, names * len(ids), *columns)]
    whole = PublicationSet.from_columns("", ids, [names[u] for u in unit_slot.tolist()], *columns)
    order = np.argsort(unit_slot, kind="stable")
    bounds = np.cumsum(np.bincount(unit_slot))[:-1]
    return [whole.subset(name, rows) for name, rows in zip(names, np.split(order, bounds))]


def write_publications(sets: Iterable[PublicationSet], path: str | Path) -> None:
    """Write publication sets back to the canonical CSV layout."""
    rows = ([p.id, p.unit, p.doctype.value, p.year, p.field or "", p.citations]
            for pubset in sets for p in pubset)
    write_csv(path, _PUB_HEADER, rows)


def load_citation_error_sample(path: str | Path) -> CitationErrorSample:
    """Read an observed/omitted citation-count CSV."""
    path = Path(path)
    failures: list[tuple[int, str]] = []
    observed: list[np.ndarray] = []
    omitted: list[np.ndarray] = []
    rows = 0
    for observed_cells, omitted_cells in _read_columns(path, _SAMPLE_HEADER):
        observed.append(_int_column(observed_cells, "observed_citations", 0, failures, rows))
        omitted.append(_int_column(omitted_cells, "omitted_citations", 0, failures, rows))
        rows += len(observed_cells)
    _raise_first(path, failures)
    if rows < 2:
        raise ValidationError(f"{path}: need at least 2 rows to fit a model, got {rows}")
    return CitationErrorSample(np.concatenate(observed), np.concatenate(omitted))


def write_citation_error_sample(sample: CitationErrorSample, path: str | Path) -> None:
    write_csv(path, _SAMPLE_HEADER, zip(sample.observed.tolist(), sample.omitted.tolist()))


def load_doctype_confusion(path: str | Path) -> DocTypeConfusionTable:
    """Read a (true_type, observed_type, count) CSV into a 4x4 table.

    Repeated label pairs accumulate.  Labels are parsed with the same
    collapse-to-other rule as publications.
    """
    path = Path(path)
    failures: list[tuple[int, str]] = []
    counts = np.zeros(16, dtype=np.int64)
    rows = 0
    for true_cells, observed_cells, count_cells in _read_columns(path, _CONFUSION_HEADER):
        values = _int_column(count_cells, "count", 0, failures, rows)
        if not failures:  # else the values may stop short of the labels
            cells = 4 * _doctype_codes(true_cells) + _doctype_codes(observed_cells)
            np.add.at(counts, cells, values)
        rows += len(count_cells)
    _raise_first(path, failures)
    return DocTypeConfusionTable(counts.reshape(4, 4))


def write_doctype_confusion(table: DocTypeConfusionTable, path: str | Path) -> None:
    rows = ([true_dt.value, obs_dt.value, count]
            for true_dt, row in zip(DOCTYPE_ORDER, table.counts.tolist())
            for obs_dt, count in zip(DOCTYPE_ORDER, row))
    write_csv(path, _CONFUSION_HEADER, rows)
