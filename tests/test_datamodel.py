"""Core data types, embedded audit data, and CSV round trips."""

from __future__ import annotations

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracle

from bibuq import datamodel
from bibuq.datamodel import (
    EMBEDDED_SAMPLE_OBSERVED_CITATIONS,
    CitationErrorSample,
    DocType,
    DocTypeConfusionTable,
    MissedCitationMarginal,
    Publication,
    PublicationSet,
    ValidationError,
    doctype_index,
    embedded_missed_citation_sample,
    load_citation_error_sample,
    load_doctype_confusion,
    load_publications,
    read_json_object,
    sample_statistics,
    write_citation_error_sample,
    write_csv,
    write_doctype_confusion,
    write_json,
    write_publications,
)


class TestDocType:
    def test_parse_canonical_labels(self):
        assert DocType.parse("article") is DocType.ARTICLE
        assert DocType.parse("review") is DocType.REVIEW
        assert DocType.parse("letter") is DocType.LETTER
        assert DocType.parse("other") is DocType.OTHER

    def test_parse_is_case_and_whitespace_insensitive(self):
        assert DocType.parse(" Article ") is DocType.ARTICLE
        assert DocType.parse("REVIEW") is DocType.REVIEW

    def test_unrecognized_labels_collapse_to_other(self):
        for label in ("editorial", "proceedings paper", "note", ""):
            assert DocType.parse(label) is DocType.OTHER

    def test_doctype_index_is_stable(self):
        assert doctype_index(DocType.ARTICLE) == 0
        assert doctype_index(DocType.REVIEW) == 1
        assert doctype_index(DocType.LETTER) == 2
        assert doctype_index(DocType.OTHER) == 3


class TestPublication:
    def test_negative_citations_rejected(self):
        with pytest.raises(ValidationError):
            Publication("p1", "u", DocType.ARTICLE, 2010, -1)

    def test_field_defaults_to_none(self):
        pub = Publication("p1", "u", DocType.ARTICLE, 2010, 3)
        assert pub.field is None


class TestEmbeddedAudit:
    def test_histogram_totals(self):
        marginal = embedded_missed_citation_sample()
        assert marginal.record_count() == 372
        assert marginal.total_missed() == 255
        assert EMBEDDED_SAMPLE_OBSERVED_CITATIONS == 6120

    def test_share_with_missing(self):
        marginal = embedded_missed_citation_sample()
        assert marginal.share_with_missing() == 109 / 372

    def test_expand_matches_histogram(self):
        marginal = embedded_missed_citation_sample()
        expanded = marginal.expand()
        assert expanded.shape == (372,)
        assert expanded.sum() == 255
        values, counts = np.unique(expanded, return_counts=True)
        assert dict(zip(values.tolist(), counts.tolist())) == dict(marginal.histogram)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValidationError):
            MissedCitationMarginal({-1: 3})
        with pytest.raises(ValidationError):
            MissedCitationMarginal({1: -3})


class TestSampleStatistics:
    def test_hand_computed_example(self):
        sample = CitationErrorSample(observed=[10, 0, 5, 5], omitted=[2, 1, 0, 1])
        stats = sample_statistics(sample)
        assert stats.n_records == 4
        assert stats.total_observed == 20
        assert stats.total_omitted == 4
        assert stats.omitted_rate == 4 / 20
        assert stats.share_with_omission == 3 / 4
        assert stats.mean_observed == 5.0
        assert stats.mean_corrected == 6.0

    def test_pearson_r_matches_numpy(self):
        rng = np.random.default_rng(42)
        obs = rng.integers(0, 50, size=200)
        omit = rng.poisson(1.0, size=200)
        stats = sample_statistics(CitationErrorSample(obs.tolist(), omit.tolist()))
        expected = np.corrcoef(obs, omit)[0, 1]
        assert stats.pearson_r == pytest.approx(expected, abs=1e-12)

    def test_fisher_interval_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        obs = rng.integers(0, 50, size=372)
        omit = rng.poisson(1.0, size=372)
        stats = sample_statistics(CitationErrorSample(obs.tolist(), omit.tolist()))
        r = stats.pearson_r
        z = 0.5 * math.log((1 + r) / (1 - r))
        half = 1.96 / math.sqrt(372 - 3)
        assert stats.r_ci_low == pytest.approx(math.tanh(z - half), abs=1e-10)
        assert stats.r_ci_high == pytest.approx(math.tanh(z + half), abs=1e-10)

    def test_zero_variance_disables_correlation(self):
        stats = sample_statistics(CitationErrorSample([5, 5, 5], [0, 1, 2]))
        assert stats.pearson_r is None
        assert stats.r_ci_low is None
        assert stats.r_ci_high is None

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValidationError):
            CitationErrorSample([1, 2], [0])

    def test_corrected_adds_elementwise(self):
        sample = CitationErrorSample([3, 7], [1, 0])
        assert np.array_equal(sample.corrected, [4, 7])


class TestPublicationCsv:
    def test_round_trip(self, tmp_path):
        pubs = [
            Publication("a1", "A", DocType.ARTICLE, 2010, 4, field="phys"),
            Publication("a2", "A", DocType.REVIEW, 2011, 0),
            Publication("b1", "B", DocType.LETTER, 2009, 12),
        ]
        sets = [
            PublicationSet("A", tuple(pubs[:2])),
            PublicationSet("B", tuple(pubs[2:])),
        ]
        path = tmp_path / "pubs.csv"
        write_publications(sets, path)
        loaded = load_publications(path)
        assert [s.name for s in loaded] == ["A", "B"]
        assert loaded[0].members == tuple(pubs[:2])
        assert loaded[1].members == tuple(pubs[2:])

    def test_duplicate_id_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,unit,doctype,year,field,citations\n"
            "p1,A,article,2010,,3\n"
            "p1,A,article,2010,,4\n"
        )
        with pytest.raises(ValidationError, match=r":3: duplicate"):
            load_publications(path)

    def test_bad_citation_count_reports_line(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,unit,doctype,year,field,citations\np1,A,article,2010,,not-a-number\n"
        )
        with pytest.raises(ValidationError, match=r":2:"):
            load_publications(path)

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text("id,unit,doctype,year,field\np1,A,article,2010,\n")
        with pytest.raises(ValidationError, match="missing columns"):
            load_publications(path)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(
                st.sampled_from(["article", "review", "letter", "other"]),
                st.integers(min_value=0, max_value=10_000),
                st.integers(min_value=1900, max_value=2030),
                st.one_of(st.none(), st.sampled_from(["bio", "phys", "math"])),
            ),
            min_size=1,
            max_size=30,
        )
    )
    def test_round_trip_property(self, tmp_path_factory, rows):
        pubs = [
            Publication(f"p{i}", "U", DocType.parse(dt), year, cites, field)
            for i, (dt, cites, year, field) in enumerate(rows)
        ]
        path = tmp_path_factory.mktemp("rt") / "pubs.csv"
        write_publications([PublicationSet("U", tuple(pubs))], path)
        loaded = load_publications(path)
        assert len(loaded) == 1
        assert loaded[0].members == tuple(pubs)

    def test_year_beyond_int64_rejected_with_line(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,unit,doctype,year,field,citations\n"
            "p1,A,article,2010,,3\n"
            f"p2,A,article,{2**63},,3\n"
        )
        with pytest.raises(ValidationError) as info:
            load_publications(path)
        assert str(info.value) == f"{path}:3: year must fit in 64 bits, got {2**63}"

    def test_multi_line_cell_reports_the_line_its_record_ends_on(self, tmp_path):
        path = tmp_path / "pubs.csv"
        path.write_text(
            "id,unit,doctype,year,field,citations\n"
            '"p\n1",A,article,2010,,3\n'
            "\n"
            '"p\n\n2",A,article,2010,,-4\n'
        )
        with pytest.raises(ValidationError) as info:
            load_publications(path)
        assert str(info.value) == f"{path}:7: citations must be >= 0, got -4"


# A mostly valid file and up to three faults.  Valid ids hold the
# characters CSV quotes; labels come padded and in mixed case.  Faults are
# empty, repeated, bad and negative cells, blank lines and short rows.
_ID_TEXT = st.text(alphabet=["a", ",", '"', "\r", "\n", " "], max_size=3)
_PUB_ROW = st.fixed_dictionaries(
    {
        "id": _ID_TEXT,
        "unit": st.sampled_from(["A", " B ", "b", "C,D", 'q"u']),
        "doctype": st.sampled_from(["article", " Article ", "REVIEW", "letter", "note", ""]),
        "year": st.one_of(st.integers(1990, 2030).map(str), st.just(" 2010 ")),
        "field": st.sampled_from(["", " ", "bio", " phys ", "Bio", "x\ny"]),
        "citations": st.one_of(st.integers(0, 50).map(str), st.just(" 7\t")),
    }
)
_FAULT = st.one_of(
    st.tuples(st.just("id"), st.sampled_from(["", " ", "\n"])),
    st.tuples(st.just("repeated id"), st.none()),
    st.tuples(st.just("unit"), st.sampled_from(["", " "])),
    st.tuples(
        st.sampled_from(["year", "citations"]),
        st.sampled_from(["", "x", "3.0", "1_000", "+7", "-1", " -3 ", "-1000000001"]),
    ),
    st.tuples(st.just("blank line"), st.none()),
    st.tuples(st.just("short row"), st.integers(1, 5)),
)


def _sets_or_error(load, path):
    try:
        sets = load(path)
    except ValidationError as exc:
        return str(exc)
    return [(s.name, s.members) for s in sets]


_ORACLE_CASES = dict(
    header=st.permutations(["id", "unit", "doctype", "year", "field", "citations"]),
    rows=st.lists(_PUB_ROW, min_size=1, max_size=10),
    faults=st.lists(st.tuples(st.integers(0, 9), _FAULT), max_size=3),
)
_ODD_IDS = example(
    header=["id", "unit", "doctype", "year", "field", "citations"],
    rows=[
        {"id": "\r", "unit": "A", "doctype": "article", "year": "2010", "field": "",
         "citations": "2"},
        {"id": ",", "unit": "B", "doctype": "Review", "year": "2011", "field": "bio",
         "citations": "0"},
        {"id": '"', "unit": "A", "doctype": "letter", "year": "2010", "field": " bio ",
         "citations": "5"},
        {"id": "a\na", "unit": "B", "doctype": "other", "year": "2012", "field": "phys",
         "citations": "1"},
    ],
    faults=[(3, ("citations", "-1")), (2, ("blank line", None))],
)
_REPEAT_AND_BAD_YEAR = example(
    header=["citations", "field", "year", "doctype", "unit", "id"],
    rows=[
        {"id": "a", "unit": "A", "doctype": "article", "year": "2010", "field": "x\ny",
         "citations": "2"},
        {"id": "a", "unit": "A", "doctype": "article", "year": "2010", "field": "",
         "citations": "2"},
    ],
    faults=[(1, ("repeated id", None)), (1, ("year", "-1000000001"))],
)


def _assert_matches_row_oracle(tmp_path_factory, header, rows, faults):
    cells = [[row[c] for c in header] for row in rows]
    for k, row in enumerate(cells):
        row[header.index("id")] += str(k)  # unique unless a fault repeats one
    blank, short = set(), {}
    for k, (kind, value) in faults:
        k %= len(cells)
        if kind == "blank line":
            blank.add(k)
        elif kind == "short row":
            short[k] = value
        elif kind == "repeated id":
            cells[k][header.index("id")] = cells[k // 2][header.index("id")]
        else:
            cells[k][header.index(kind)] = value
    for k, width in short.items():
        del cells[k][width:]
    path = tmp_path_factory.mktemp("oracle") / "pubs.csv"
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for k, row in enumerate(cells):
            if k in blank:
                writer.writerow([])
            writer.writerow(row)
    assert _sets_or_error(load_publications, path) == _sets_or_error(
        oracle.load_publications_rows, path
    )


@settings(max_examples=300, deadline=None)
@given(**_ORACLE_CASES)
@_ODD_IDS
@_REPEAT_AND_BAD_YEAR
def test_column_loader_matches_row_oracle(tmp_path_factory, header, rows, faults):
    """Same sets as the row-by-row reader, or the same ValidationError text."""
    _assert_matches_row_oracle(tmp_path_factory, header, rows, faults)


@pytest.mark.parametrize("chunk", [1, 2, 3])
@settings(max_examples=200, deadline=None)
@given(**_ORACLE_CASES)
@_ODD_IDS
@_REPEAT_AND_BAD_YEAR
@example(
    # Multi-line cells, a blank line, a short row, and record 6 repeating
    # record 3's id, which at chunks of 1-3 sits in an earlier chunk.
    header=["unit", "id", "doctype", "year", "citations", "field"],
    rows=[
        {"id": "a", "unit": "A", "doctype": "article", "year": "2010", "field": "x\ny",
         "citations": "2"},
        {"id": "b\n", "unit": " B ", "doctype": "review", "year": "2011", "field": "bio",
         "citations": "0"},
        {"id": "c", "unit": "A", "doctype": "letter", "year": "2010", "field": "",
         "citations": "5"},
        {"id": "d", "unit": "b", "doctype": "note", "year": "2012", "field": "Bio",
         "citations": "1"},
        {"id": "e", "unit": "A", "doctype": "REVIEW", "year": "2013", "field": " phys ",
         "citations": "3"},
        {"id": "f", "unit": "C,D", "doctype": "article", "year": "2014", "field": "x\ny",
         "citations": "4"},
        {"id": "g", "unit": "A", "doctype": "article", "year": "2015", "field": "",
         "citations": "6"},
    ],
    faults=[(3, ("blank line", None)), (4, ("short row", 5)), (6, ("repeated id", None))],
)
@example(
    header=["id", "unit", "doctype", "year", "field", "citations"],
    rows=[
        {"id": "a", "unit": "A", "doctype": "article", "year": "2010", "field": "",
         "citations": "2"},
    ] * 8,
    # Bad cells past the first chunk; the earliest, record 5's year, wins.
    faults=[(7, ("citations", "x")), (5, ("year", "-1000000001")), (6, ("unit", " "))],
)
def test_chunked_loader_matches_row_oracle(tmp_path_factory, chunk, header, rows, faults):
    """The same at chunks of 1-3 records: chunk ends fall on blank lines,
    short rows and multi-line cells, between repeated ids, and before bad
    cells."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(datamodel, "LOAD_CHUNK", chunk)
        _assert_matches_row_oracle(tmp_path_factory, header, rows, faults)


def test_load_peak_stays_under_three_times_what_the_sets_keep(tmp_path):
    """A 40,000-row load holds the raw cells of one chunk at a time, so its
    traced peak stays under three times the memory of the sets it returns
    (a whole-file read peaked at about four times)."""
    rng = np.random.default_rng(0)
    n = 40_000
    path = tmp_path / "reference.csv"
    columns = (
        [f"R-{k:05d}" for k in range(n)],
        ["reference"] * n,
        rng.choice(["article", "review", "letter", "other"], n).tolist(),
        rng.integers(2000, 2020, n).tolist(),
        rng.choice(["medicine", "biology", "physics", ""], n).tolist(),
        rng.negative_binomial(1, 0.1, n).tolist(),
    )
    write_csv(path, ["id", "unit", "doctype", "year", "field", "citations"], zip(*columns))
    load_publications(path)  # one-off allocations of a first call are not counted
    tracemalloc.start()
    try:
        sets = load_publications(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [len(s) for s in sets] == [n]
    assert peak / kept < 3


def _loaded_or_error(load, path):
    try:
        loaded = load(path)
    except ValidationError as exc:
        return str(exc)
    return [np.asarray(value).tolist() for value in vars(loaded).values()]


@pytest.mark.parametrize(
    "load, body",
    [
        (load_citation_error_sample, "observed_citations,omitted_citations\n4,1\n\n3,0\n7,2\n"),
        (load_citation_error_sample, "observed_citations,omitted_citations\n1,0\n\n2,0\n4,x\n"),
        (load_citation_error_sample, 'observed_citations,omitted_citations\n"1\n",-2\n3, y\n'),
        (load_citation_error_sample, "observed_citations,omitted_citations\n3,0\n-1,x\n"),
        (load_doctype_confusion,
         "true_type,observed_type,count\narticle,article,5\n\narticle,article,2\nreview,letter,1\n"),
        (load_doctype_confusion,
         "true_type,observed_type,count\narticle,article,5\nreview,letter, 2x \nnote,review,-1\n"),
        (load_doctype_confusion, "true_type,observed_type,count\nreview,letter,1\nreview\n"),
    ],
)
def test_audit_loaders_read_the_same_one_record_per_chunk(tmp_path, monkeypatch, load, body):
    """Audit files give the same arrays, or the same error, at chunks of one record."""
    path = tmp_path / "audit.csv"
    path.write_text(body)
    whole = _loaded_or_error(load, path)
    monkeypatch.setattr(datamodel, "LOAD_CHUNK", 1)
    assert _loaded_or_error(load, path) == whole


class TestCitationSampleCsv:
    def test_round_trip(self, tmp_path):
        sample = CitationErrorSample([10, 0, 3], [1, 0, 2])
        path = tmp_path / "sample.csv"
        write_citation_error_sample(sample, path)
        loaded = load_citation_error_sample(path)
        assert np.array_equal(loaded.observed, sample.observed)
        assert np.array_equal(loaded.omitted, sample.omitted)

    def test_negative_value_reports_line(self, tmp_path):
        path = tmp_path / "sample.csv"
        path.write_text("observed_citations,omitted_citations\n5,-1\n")
        with pytest.raises(ValidationError, match=r":2:"):
            load_citation_error_sample(path)

    @pytest.mark.parametrize(
        "body, message",
        [
            ("observed,omitted_citations\n1,2\n",
             ": missing columns ['observed_citations'], "
             "header is ['observed', 'omitted_citations']"),
            ("observed_citations,omitted_citations\n1,0\n\n2,0\n4,x\n",
             ":5: omitted_citations must be an integer, got 'x'"),
            ('observed_citations,omitted_citations\n"1\n",-2\n3, y\n',
             ":3: omitted_citations must be >= 0, got -2"),
            ("observed_citations,omitted_citations\n4,1\n",
             ": need at least 2 rows to fit a model, got 1"),
        ],
    )
    def test_errors_name_file_and_line(self, tmp_path, body, message):
        path = tmp_path / "sample.csv"
        path.write_text(body)
        with pytest.raises(ValidationError) as info:
            load_citation_error_sample(path)
        assert str(info.value) == f"{path}{message}"


class TestConfusionCsv:
    def test_round_trip(self, tmp_path, confusion_table):
        path = tmp_path / "confusion.csv"
        write_doctype_confusion(confusion_table, path)
        loaded = load_doctype_confusion(path)
        assert np.array_equal(loaded.counts, confusion_table.counts)

    def test_counts_accumulate_per_cell(self, tmp_path):
        path = tmp_path / "confusion.csv"
        path.write_text(
            "true_type,observed_type,count\n"
            "article,article,5\n"
            "article,article,2\n"
            "review,letter,1\n"
        )
        table = load_doctype_confusion(path)
        assert table.counts[0, 0] == 7
        assert table.counts[1, 2] == 1

    def test_negative_count_rejected(self, tmp_path):
        path = tmp_path / "confusion.csv"
        path.write_text("true_type,observed_type,count\narticle,article,-2\n")
        with pytest.raises(ValidationError, match=r":2:"):
            load_doctype_confusion(path)

    def test_bad_count_reports_line_and_value(self, tmp_path):
        path = tmp_path / "confusion.csv"
        path.write_text("true_type,observed_type,count\narticle,article,5\nreview,letter, 2x \n")
        with pytest.raises(ValidationError) as info:
            load_doctype_confusion(path)
        assert str(info.value) == f"{path}:3: count must be an integer, got '2x'"

    def test_table_shape_is_4x4(self, confusion_table):
        assert confusion_table.counts.shape == (4, 4)
        assert isinstance(confusion_table, DocTypeConfusionTable)


class TestUnreadableCsv:
    @pytest.mark.parametrize(
        "load", [load_publications, load_citation_error_sample, load_doctype_confusion]
    )
    def test_non_utf8_file_is_named(self, tmp_path, load):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfeid,unit\n")
        with pytest.raises(ValidationError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}: not a UTF-8 CSV file (")

    def test_non_utf8_byte_past_the_first_read(self, tmp_path):
        path = tmp_path / "sample.csv"
        # Far past the first chunk the text decoder reads.
        rows = b"3,1\n" * 20_000 + b"\xff,0\n"
        path.write_bytes(b"observed_citations,omitted_citations\n" + rows)
        with pytest.raises(ValidationError, match="not a UTF-8 CSV file"):
            load_citation_error_sample(path)

    def test_field_over_the_csv_limit_is_named(self, tmp_path):
        path = tmp_path / "pubs.csv"
        long_id = "x" * (csv.field_size_limit() + 1)
        path.write_text(f'id,unit,doctype,year,field,citations\n"{long_id}",A,article,2010,,3\n')
        with pytest.raises(ValidationError, match="field larger than field limit") as info:
            load_publications(path)
        assert str(info.value).startswith(f"{path}: not a UTF-8 CSV file (")


class TestJsonAndCsvFiles:
    def test_json_bytes_are_sorted_indented_and_end_in_a_newline(self, tmp_path):
        path = tmp_path / "payload.json"
        write_json({"b": [1, 2.5], "a": None}, path)
        assert path.read_bytes() == b'{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}\n'
        assert read_json_object(path, "payload") == {"a": None, "b": [1, 2.5]}

    @pytest.mark.parametrize(
        "content, message",
        [
            (b"{not json", "not a JSON payload ("),
            (b"\xff\xfe{}", "not a JSON payload ("),
            (b'"text"', "payload must be a JSON object"),
            (b"[1, 2]", "payload must be a JSON object"),
        ],
    )
    def test_read_json_object_names_the_file(self, tmp_path, content, message):
        path = tmp_path / "payload.json"
        path.write_bytes(content)
        with pytest.raises(ValidationError) as info:
            read_json_object(path, "payload")
        assert str(info.value).startswith(f"{path}: {message}")

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "rows.csv"
        write_csv(path, ["name", "value"], iter([["a,b", 1], ['q"', ""], ["c", 2.5]]))
        assert path.read_bytes() == b'name,value\r\n"a,b",1\r\n"q""",\r\nc,2.5\r\n'
