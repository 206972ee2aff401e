"""Indicator computation: P, C, and mean normalized citation score."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bibuq.datamodel import DocType, Publication, PublicationSet
from bibuq.indicators import (
    KEY_DOCTYPE,
    KEY_DOCTYPE_YEAR_FIELD,
    _packed_key,
    build_normalization,
    cell_means,
    indicators_for,
    sorted_runs,
    unit_indicators,
)
from helpers import make_pubset

import oracle


@pytest.fixture()
def universe():
    a = make_pubset(
        "A",
        [("article", 10), ("article", 0), ("review", 6), ("letter", 3), ("other", 99)],
    )
    b = make_pubset("B", [("article", 2), ("review", 0)])
    return a, b


class TestNormalizationCells:
    def test_mean_citations_per_doctype(self, universe):
        cells = build_normalization(universe)
        assert cells.cells[(DocType.ARTICLE,)].expected_citations == pytest.approx(4.0)
        assert cells.cells[(DocType.REVIEW,)].expected_citations == pytest.approx(3.0)
        assert cells.cells[(DocType.LETTER,)].expected_citations == pytest.approx(3.0)
        assert cells.cells[(DocType.OTHER,)].expected_citations == pytest.approx(99.0)

    def test_pooling_over_sets_matches_single_set(self, universe):
        a, b = universe
        pooled = PublicationSet("all", a.members + b.members)
        assert (
            build_normalization([a, b]).cells == build_normalization(pooled).cells
        )

    def test_year_field_key_mode(self):
        pubs = [
            Publication("p1", "U", DocType.ARTICLE, 2010, 4, field="bio"),
            Publication("p2", "U", DocType.ARTICLE, 2011, 8, field="bio"),
            Publication("p3", "U", DocType.ARTICLE, 2010, 0, field="bio"),
        ]
        cells = build_normalization(
            PublicationSet("U", tuple(pubs)), key_mode=KEY_DOCTYPE_YEAR_FIELD
        )
        assert cells.cells[(DocType.ARTICLE, 2010, "bio")].expected_citations == pytest.approx(2.0)
        assert cells.cells[(DocType.ARTICLE, 2011, "bio")].expected_citations == pytest.approx(8.0)

    def test_missing_field_is_skipped_in_year_field_mode(self):
        pubs = PublicationSet(
            "U",
            (
                Publication("p1", "U", DocType.ARTICLE, 2010, 4),
                Publication("p2", "U", DocType.ARTICLE, 2010, 2, field="bio"),
            ),
        )
        cells = build_normalization(pubs, key_mode=KEY_DOCTYPE_YEAR_FIELD).cells
        assert list(cells) == [(DocType.ARTICLE, 2010, "bio")]
        assert cells[(DocType.ARTICLE, 2010, "bio")].size == 1
        cells = build_normalization(pubs, key_mode=KEY_DOCTYPE).cells
        assert list(cells) == [(DocType.ARTICLE,)]
        assert cells[(DocType.ARTICLE,)].size == 2


class TestIndicators:
    def test_hand_computed_example(self, universe):
        a, b = universe
        cells = build_normalization(universe)
        res_a = indicators_for(a, cells)
        assert res_a.p == 3
        assert res_a.c == 16
        assert res_a.mncs == pytest.approx((10 / 4 + 0 + 6 / 3) / 3)
        assert res_a.excluded == 0
        res_b = indicators_for(b, cells)
        assert res_b.p == 2
        assert res_b.c == 2
        assert res_b.mncs == pytest.approx((2 / 4 + 0) / 2)

    def test_pooled_universe_mncs_is_one(self, universe):
        a, b = universe
        cells = build_normalization(universe)
        pooled = PublicationSet("all", a.members + b.members)
        assert indicators_for(pooled, cells).mncs == pytest.approx(1.0, abs=1e-12)

    def test_letters_only_unit_has_no_mncs(self):
        unit = make_pubset("L", [("letter", 3), ("other", 0)])
        cells = build_normalization(unit)
        res = indicators_for(unit, cells)
        assert res.p == 0
        assert res.c == 0
        assert res.mncs is None
        assert res.excluded == 0

    def test_zero_expected_cell(self):
        unit = make_pubset("Z", [("article", 0), ("article", 4)])
        cells = build_normalization(make_pubset("ref", [("article", 0)]))
        res = indicators_for(unit, cells)
        # The zero-citation publication scores 0.0; the cited one cannot be
        # normalized by a zero-mean cell and is excluded from MNCS only.
        assert res.p == 2
        assert res.c == 4
        assert res.mncs == 0.0
        assert res.excluded == 1

    def test_single_publication_scores(self, universe):
        cells = build_normalization(universe)
        assert indicators_for(make_pubset("X", [("article", 10)]), cells).mncs == 2.5
        assert indicators_for(make_pubset("X", [("review", 0)]), cells).mncs == 0.0

    def test_missing_cell_is_excluded(self, universe):
        cells = build_normalization(
            make_pubset("ref", [("article", 5)]), key_mode=KEY_DOCTYPE
        )
        res = indicators_for(make_pubset("X", [("review", 3)]), cells)
        assert res.mncs is None
        assert res.excluded == 1

    @settings(max_examples=40, deadline=None)
    @given(
        citations=st.lists(st.integers(min_value=0, max_value=200), min_size=1, max_size=50),
        doctypes=st.data(),
    )
    def test_pooled_identity_property(self, citations, doctypes):
        labels = [
            doctypes.draw(st.sampled_from(["article", "review", "letter", "other"]))
            for _ in citations
        ]
        # Seed both core cells with a cited publication so no core cell has a
        # zero mean; the self-normalization identity is exact only then.
        rows = list(zip(labels, citations)) + [("article", 7), ("review", 3)]
        unit = make_pubset("U", rows)
        cells = build_normalization(unit)
        res = indicators_for(unit, cells)
        assert res.mncs == pytest.approx(1.0, abs=1e-12)


# (doctype label, citations, year, field); zero citations are common so
# that zero-mean cells turn up.
_ROW = st.tuples(
    st.sampled_from(["article", "review", "letter", "other"]),
    st.one_of(st.just(0), st.integers(min_value=0, max_value=60)),
    st.sampled_from([2010, 2011]),
    st.sampled_from([None, "x", "y"]),
)


def _field_set(name, rows) -> PublicationSet:
    return PublicationSet(
        name,
        tuple(
            Publication(f"{name}-{i}", name, DocType.parse(label), year, c, field=field)
            for i, (label, c, year, field) in enumerate(rows)
        ),
    )


def _bits(value):
    return None if value is None else float(value).hex()


@settings(max_examples=300, deadline=None)
@given(
    units=st.lists(st.lists(_ROW, max_size=30), min_size=1, max_size=3),
    reference=st.lists(_ROW, min_size=1, max_size=30),
    key_mode=st.sampled_from([KEY_DOCTYPE, KEY_DOCTYPE_YEAR_FIELD]),
    pooled=st.booleans(),
)
# An empty unit, a letters-only unit, and a unit with a field-less
# article, a cell the reference-only universe lacks, and a zero-mean cell
# holding an uncited and a cited article.
@example(
    units=[
        [],
        [("letter", 3, 2010, "x"), ("other", 0, 2010, None)],
        [
            ("article", 5, 2010, None),
            ("review", 2, 2011, "y"),
            ("article", 0, 2010, "x"),
            ("article", 3, 2010, "x"),
            ("article", 7, 2011, "x"),
            ("letter", 2, 2010, "x"),
        ],
    ],
    reference=[
        ("article", 0, 2010, "x"),
        ("article", 0, 2010, "x"),
        ("article", 4, 2011, "x"),
        ("letter", 1, 2011, "y"),
    ],
    key_mode=KEY_DOCTYPE_YEAR_FIELD,
    pooled=False,
)
@example(
    units=[[("article", 0, 2010, None), ("article", 2, 2010, None), ("review", 1, 2010, None)]],
    reference=[("article", 0, 2010, None), ("letter", 3, 2010, None)],
    key_mode=KEY_DOCTYPE,
    pooled=False,
)
def test_indicators_match_scalar_oracle_bit_for_bit(units, reference, key_mode, pooled):
    unit_sets = [_field_set(f"U{u}", rows) for u, rows in enumerate(units)]
    ref = _field_set("ref", reference)
    universe = unit_sets + [ref] if pooled else [ref]
    assume(
        any(oracle.cell_key(pub, key_mode) is not None for pubset in universe for pub in pubset)
    )
    cells = build_normalization(universe, key_mode)
    for pubset in unit_sets:
        got = indicators_for(pubset, cells)
        want = oracle.indicators_scalar(pubset, cells)
        assert got == want
        assert type(got.p) is int and type(got.c) is int
        assert _bits(got.mncs) == _bits(want.mncs)


# Entries of a cell rebuild: (unit slot, or -1 for the reference set;
# cell group; doctype code; citations; item count).
_ENTRY = st.tuples(
    st.integers(min_value=-1, max_value=2),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=1, max_value=5),
)


def _rebuild_and_score(entries, n_units, sized, spill=0):
    """Cell rebuild over every entry, then ``unit_indicators`` over the unit ones.

    A unit's non-core entry goes to slot ``n_units + spill``.
    """
    slot, group, code, citations, k = (np.array(column) for column in zip(*entries))
    cell = 4 * group + code
    counts, means = cell_means(cell, citations, 4 * 3, k if sized else None)
    unit = slot >= 0
    return unit_indicators(
        np.where(code[unit] <= 1, slot[unit], n_units + spill),
        n_units,
        citations[unit],
        counts[cell[unit]],
        means[cell[unit]],
        k[unit] if sized else None,
    )


@settings(max_examples=200, deadline=None)
@given(
    entries=st.lists(_ENTRY, min_size=1, max_size=30),
    new_citations=st.lists(st.integers(min_value=0, max_value=40), min_size=30, max_size=30),
    sized=st.booleans(),
    spill=st.integers(min_value=0, max_value=50),
)
def test_non_core_citations_never_change_the_indicators(entries, new_citations, sized, spill):
    # A letter or an "other" item is counted only in a non-core cell, and
    # only core items are scored against a cell, so its citations reach
    # no output, and neither does the item: the grouped kernel gives such
    # items no column and draws no citations for them.  Any slot at or
    # past n_units leaves an entry out alike.
    n_units = 3
    before = _rebuild_and_score(entries, n_units, sized)
    changed = [
        (slot, group, code, new if code > 1 else citations, k)
        for (slot, group, code, citations, k), new in zip(entries, new_citations)
    ]
    core = [entry for entry in entries if entry[2] <= 1]
    for other in [entries, changed] + ([core] if core else []):
        after = _rebuild_and_score(other, n_units, sized, spill)
        for a, b in zip(before, after):
            assert np.array_equal(a, b, equal_nan=True)


# Key columns for sorted_runs: small ranges, negative values, booleans,
# ranges near 2**62 wide, which overflow the 63 bits of a packed key,
# and ranges 2**58 - 1 wide, which fit alone and with the positions of
# up to 32 tuples, but not of more.
_narrow_key = st.lists(st.integers(-3, 5), min_size=1)
_wide_key = st.lists(st.sampled_from([-(2**62), -1, 0, 7, 2**62]), min_size=1)
_edge_key = st.lists(st.sampled_from([0, 3, 2**58 - 1]), min_size=1)


@settings(max_examples=120, deadline=None)
@given(
    columns=st.lists(st.one_of(_narrow_key, _wide_key, _edge_key), min_size=1, max_size=5),
    size=st.integers(0, 40),
    boolean_first=st.booleans(),
    data=st.data(),
)
def test_sorted_runs_is_lexsort_packed_or_not(columns, size, boolean_first, data):
    """Order and run starts equal np.lexsort's on both sides of the 63-bit fit."""
    keys = []
    for values in columns:
        picks = data.draw(st.lists(st.sampled_from(values), min_size=size, max_size=size))
        keys.append(np.array(picks, dtype=np.int64))
    if boolean_first:
        keys[0] = keys[0] > 0
    order, starts = sorted_runs(keys)
    expected = np.lexsort(keys[::-1])
    assert np.array_equal(order, expected)
    tuples = [tuple(int(key[i]) for key in keys) for i in expected]
    assert starts.tolist() == [i == 0 or tuples[i] != tuples[i - 1] for i in range(size)]
    if size:
        spans = sum((int(key.max()) - int(key.min())).bit_length() for key in keys)
        assert (_packed_key(keys) is None) == (spans + (size - 1).bit_length() > 63)


def test_sorted_runs_takes_both_paths():
    narrow = [np.array([2, 0, 2, 1]), np.array([5, 5, 5, 4])]
    wide = [np.array([2**62, -(2**62), 2**62, 0]), np.array([2**62, 0, -(2**62), 2**62])]
    # 61 bits of key range fit with the 2 position bits of 4 tuples, 62 do not.
    fits = [np.array([2**61 - 1, 0, 2**61 - 1, 5])]
    overflows = [np.array([2**62 - 1, 0, 2**62 - 1, 5])]
    assert _packed_key(narrow) is not None and _packed_key(fits) is not None
    assert _packed_key(wide) is None and _packed_key(overflows) is None
    for keys in (narrow, wide, fits, overflows):
        order, starts = sorted_runs(keys)
        assert np.array_equal(order, np.lexsort(keys[::-1]))
    assert sorted_runs(narrow)[0].tolist() == [1, 3, 0, 2]
    assert sorted_runs(narrow)[1].tolist() == [True, True, True, False]
