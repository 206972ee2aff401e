"""Posterior predictive draws for citations and document types."""

from __future__ import annotations

import csv
import io
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bibuq.datamodel import DOCTYPE_ORDER, DocType, UsageError
from bibuq.predictive import (
    _FIRST_CHUNK,
    _SMALL_GROUP,
    _WALK_MAX_MEAN,
    _WALK_MAX_RATIO,
    DUMP_TAIL_COUNTS,
    GroupSplit,
    cycled_params,
    draw_clamped_omitted,
    draw_doctype_codes,
    draw_doctype_counts,
    draw_omitted,
    predict_doctype,
    predict_error_affected_citations,
    predict_error_free_citations,
    predict_omitted,
    predictive_dump,
    sample_probability_rows,
)

import oracle


class TestPredictOmitted:
    def test_shape_dtype_and_support(self, second_kind_posterior):
        draws = predict_omitted(second_kind_posterior, citations=16, n=500, seed=3)
        assert draws.shape == (500,)
        assert np.issubdtype(draws.dtype, np.integer)
        assert draws.min() >= 0

    def test_deterministic_by_seed(self, second_kind_posterior):
        a = predict_omitted(second_kind_posterior, citations=10, n=200, seed=4)
        b = predict_omitted(second_kind_posterior, citations=10, n=200, seed=4)
        c = predict_omitted(second_kind_posterior, citations=10, n=200, seed=5)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_more_citations_mean_more_omissions(self, second_kind_posterior):
        low = predict_omitted(second_kind_posterior, citations=0, n=4000, seed=6)
        high = predict_omitted(second_kind_posterior, citations=100, n=4000, seed=6)
        assert high.mean() > low.mean()


class TestCitationChannels:
    def test_error_free_adds_omissions(self, second_kind_posterior):
        draws = predict_error_free_citations(
            second_kind_posterior, citations=12, n=300, seed=7
        )
        assert draws.min() >= 12

    def test_error_free_requires_second_kind(self, first_kind_posterior):
        with pytest.raises(UsageError):
            predict_error_free_citations(first_kind_posterior, citations=5, n=10, seed=0)

    def test_error_affected_subtracts_and_floors(self, first_kind_posterior):
        draws = predict_error_affected_citations(
            first_kind_posterior, citations=9, n=300, seed=8
        )
        assert draws.max() <= 9
        assert draws.min() >= 0

    def test_error_affected_requires_first_kind(self, second_kind_posterior):
        with pytest.raises(UsageError):
            predict_error_affected_citations(second_kind_posterior, citations=5, n=10, seed=0)


class TestCycledParams:
    def test_wraps_around_posterior_draws(self, second_kind_posterior):
        draws = second_kind_posterior.draws
        chains, kept = draws.shape[:2]
        n = chains * kept + 7
        params = cycled_params(second_kind_posterior, n)
        assert params.shape == (n, 3)
        # Replicate j takes chain j mod C, kept draw (j div C) mod kept.
        for j in (0, 1, chains - 1, chains, 5 * chains + 2, chains * kept - 1, n - 1):
            assert np.array_equal(params[j], draws[j % chains, (j // chains) % kept])
        assert np.array_equal(params[chains * kept :], params[:7])
        # Every draw is used once per cycle.
        cycle = params[: chains * kept]
        assert np.array_equal(np.unique(cycle, axis=0), np.unique(draws.reshape(-1, 3), axis=0))

    def test_first_replicates_use_every_chain(self, second_kind_posterior):
        draws = second_kind_posterior.draws
        chains = draws.shape[0]
        assert chains > 1
        params = cycled_params(second_kind_posterior, chains)
        assert np.array_equal(params, draws[:, 0])


class TestDoctypeDraws:
    def test_codes_follow_probability_rows(self):
        rng = np.random.default_rng(11)
        prob_rows = np.array(
            [
                [1.0, 0.0, 0.0, 0.0],
                [0.0, 0.5, 0.5, 0.0],
                [0.25, 0.25, 0.25, 0.25],
                [0.0, 0.0, 0.0, 1.0],
            ]
        )
        conditioning = np.repeat(np.arange(4), 20000)
        codes = draw_doctype_codes(rng, prob_rows, conditioning)
        assert np.all(codes[conditioning == 0] == 0)
        assert np.all(codes[conditioning == 3] == 3)
        row1 = codes[conditioning == 1]
        assert set(np.unique(row1)) == {1, 2}
        assert np.mean(row1 == 1) == pytest.approx(0.5, abs=0.02)
        row2 = codes[conditioning == 2]
        for k in range(4):
            assert np.mean(row2 == k) == pytest.approx(0.25, abs=0.02)

    def test_probability_rows_are_simplex_draws(self, doctype_posterior):
        rng = np.random.default_rng(12)
        rows = sample_probability_rows(rng, doctype_posterior.concentrations)
        assert rows.shape == (4, 4)
        assert np.all(rows >= 0)
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)

    def test_predict_doctype_matches_posterior_mean(self, doctype_posterior):
        n = 30000
        drawn = predict_doctype(doctype_posterior, DocType.ARTICLE, n=n, seed=13)
        assert len(drawn) == n
        freq = np.array([sum(d is t for d in drawn) for t in DocType]) / n
        row = doctype_posterior.row(DocType.ARTICLE)
        expected = row / row.sum()
        assert np.allclose(freq, expected, atol=0.02)

    def test_predict_doctype_deterministic(self, doctype_posterior):
        a = predict_doctype(doctype_posterior, DocType.REVIEW, n=50, seed=14)
        b = predict_doctype(doctype_posterior, DocType.REVIEW, n=50, seed=14)
        assert a == b


class _StubRng:
    """Stands in for a generator whose ``random`` returns chosen values."""

    def __init__(self, u: np.ndarray) -> None:
        self.u = u

    def random(self, size: int | tuple[int, ...]) -> np.ndarray:
        assert (size if isinstance(size, tuple) else (size,)) == self.u.shape
        return self.u.copy()


_weights = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-9, max_value=1e3)), min_size=4, max_size=4
).filter(lambda w: sum(w) > 0)


class TestDrawExactness:
    """The fast draws equal the direct per-item forms in tests/oracle.py."""

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(_weights, min_size=1, max_size=5),
        data=st.data(),
    )
    def test_threshold_draw_equals_cumsum_argmax(self, weights, data):
        prob_rows = np.array(weights) / np.array(weights).sum(axis=1, keepdims=True)
        k = prob_rows.shape[0]
        cond = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=40)), dtype=np.int64
        )
        # Each u is either uniform or lands exactly on one of the first
        # three cumulative sums of its row (kept below 1, as random() is).
        cum = np.cumsum(prob_rows, axis=1)
        below_one = np.nextafter(1.0, 0.0)
        picks = data.draw(st.lists(st.integers(0, 3), min_size=cond.size, max_size=cond.size))
        u = np.empty(cond.size)
        for i, (row, pick) in enumerate(zip(cond, picks)):
            if pick < 3:
                u[i] = min(cum[row, pick], below_one)
            else:
                u[i] = data.draw(st.floats(min_value=0.0, max_value=below_one))
        ours = draw_doctype_codes(_StubRng(u), prob_rows, cond)
        ref = oracle.draw_doctype_codes(_StubRng(u), prob_rows, cond)
        assert np.array_equal(ours, ref)

        seed = data.draw(st.integers(0, 2**32 - 1))
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(
            draw_doctype_codes(ours_rng, prob_rows, cond),
            oracle.draw_doctype_codes(ref_rng, prob_rows, cond),
        )
        assert ours_rng.random() == ref_rng.random()

    def test_zero_probability_categories_never_drawn(self):
        prob_rows = np.array([[0.0, 0.5, 0.0, 0.5], [0.0, 0.0, 0.0, 1.0]])
        cum = np.cumsum(prob_rows, axis=1)
        u = np.array([0.0, 0.5, cum[0, 2], np.nextafter(0.5, 0.0), 0.0, 0.999])
        cond = np.array([0, 0, 0, 0, 1, 1])
        codes = draw_doctype_codes(_StubRng(u), prob_rows, cond)
        assert codes.tolist() == [1, 3, 3, 1, 3, 3]
        assert np.array_equal(codes, oracle.draw_doctype_codes(_StubRng(u), prob_rows, cond))

    def test_last_cumulative_sum_is_never_compared(self):
        # A three-category row whose cumulative sum rounds to the largest
        # double below 1, which random() can return: the item falls in the
        # last category, not in a fourth one.
        below_one = np.nextafter(1.0, 0.0)
        prob_rows = np.array([[0.6, 0.3, 0.1]])
        assert np.cumsum(prob_rows[0])[-1] == below_one
        u = np.array([below_one])
        codes = draw_doctype_codes(_StubRng(u), prob_rows, np.zeros(1, dtype=np.int64))
        assert codes.tolist() == [2]
        blocked = draw_doctype_codes(_StubRng(u[None]), prob_rows[None], np.zeros(1, dtype=np.int64))
        assert blocked.tolist() == [[2]]

    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.lists(
            st.lists(
                st.one_of(
                    st.sampled_from([0.0, 1e-300]),
                    st.floats(min_value=1e-3, max_value=1e3),
                ),
                min_size=4,
                max_size=4,
            ).filter(lambda r: sum(r) > 0),
            min_size=1,
            max_size=6,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_probability_rows_equal_gamma_draws(self, rows, seed):
        # 1e-300 concentrations underflow every gamma draw of a row, which
        # takes the point-mass fallback.
        concentrations = np.array(rows)
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = sample_probability_rows(ours_rng, concentrations)
        ref = oracle.sample_probability_rows(ref_rng, concentrations)
        assert np.array_equal(ours, ref)
        assert ours_rng.random() == ref_rng.random()

    def test_underflow_falls_back_to_largest_concentration(self):
        concentrations = np.array([[1e-300, 3e-300, 2e-300, 0.0], [1.0, 2.0, 3.0, 4.0]])
        rows = sample_probability_rows(np.random.default_rng(0), concentrations)
        assert rows[0].tolist() == [0.0, 1.0, 0.0, 0.0]
        assert rows[1].sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("conditioning", list(DocType))
    def test_predict_doctype_keeps_its_stream(self, doctype_posterior, conditioning):
        drawn = predict_doctype(doctype_posterior, conditioning, n=500, seed=15)
        codes = oracle.predict_doctype_codes(doctype_posterior, conditioning, 500, 15)
        assert drawn == [DOCTYPE_ORDER[code] for code in codes]


# Group sizes on both sides of the count sampler's cutoff: small groups
# tally one uniform per item, large groups draw one multinomial.
_group_sizes = st.one_of(st.integers(0, _SMALL_GROUP), st.integers(_SMALL_GROUP + 1, 50))


def _counts(rng, prob_rows, sizes, conditioning_codes):
    """``draw_doctype_counts`` of groups split for these rows' categories, one row each."""
    split = GroupSplit(sizes, conditioning_codes, prob_rows.shape[-1], np.arange(sizes.size))
    return draw_doctype_counts(rng, prob_rows, split)


def _counts_split_per_call(rng, prob_rows, sizes, conditioning_codes):
    """The counts as drawn when each call split its own groups, the reference."""
    lead, k = prob_rows.shape[:-2], prob_rows.shape[-1]
    rows, groups = int(np.prod(lead)), sizes.size
    small = sizes <= _SMALL_GROUP
    group_of = np.repeat(np.flatnonzero(small), sizes[small])
    codes = draw_doctype_codes(rng, prob_rows, conditioning_codes[group_of])
    codes += group_of * k
    codes += (np.arange(rows) * (groups * k)).reshape(lead + (1,))
    counts = np.bincount(codes.ravel(), minlength=rows * groups * k).reshape(lead + (groups, k))
    large = np.flatnonzero(~small)
    if large.size:
        counts[..., large, :] = rng.multinomial(
            sizes[large], prob_rows[..., conditioning_codes[large], :]
        )
    return counts


class TestDoctypeCounts:
    """``draw_doctype_counts``: the tallied categories of groups of iid items."""

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["mixed", "all-small", "all-large"]),
        rows=st.integers(1, 70),
        block=st.booleans(),
        data=st.data(),
    )
    def test_split_once_per_run_draws_the_per_call_split_bit_for_bit(
        self, layout, rows, block, data
    ):
        # One split reused by every call gives the tallies, and leaves the
        # stream, exactly as a split made inside each call, for groups of
        # 1-40 items with random codes, in blocks of 1-70 rows and on the
        # unblocked 2-d path, at several seeds.
        sizes = {
            "mixed": st.integers(1, 40),
            "all-small": st.integers(1, _SMALL_GROUP),
            "all-large": st.integers(_SMALL_GROUP + 1, 40),
        }[layout]
        sizes = np.array(data.draw(st.lists(sizes, min_size=1, max_size=30)), dtype=np.int64)
        categories = data.draw(st.sampled_from([3, 4]))
        codes = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=sizes.size, max_size=sizes.size)),
            dtype=np.int64,
        )
        split = GroupSplit(sizes, codes, categories, np.arange(sizes.size))
        concentrations = np.arange(1.0, 4 * categories + 1).reshape(4, categories)
        for seed in data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4)):
            shape = (rows,) + concentrations.shape if block else concentrations.shape
            prob_rows = sample_probability_rows(
                np.random.default_rng(seed), np.broadcast_to(concentrations, shape)
            )
            ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = draw_doctype_counts(ours_rng, prob_rows, split)
            expected = _counts_split_per_call(ref_rng, prob_rows, sizes, codes)
            assert drawn.dtype == expected.dtype
            assert np.array_equal(drawn, expected)
            assert ours_rng.random() == ref_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(
        layout=st.sampled_from(["mixed", "all-small", "all-large"]),
        rows=st.integers(1, 70),
        block=st.booleans(),
        data=st.data(),
    )
    def test_tally_rows_are_their_groups_tallies_summed_bit_for_bit(
        self, layout, rows, block, data
    ):
        # Groups mapped to tally rows at random give, bit for bit, the
        # per-group tallies drawn from the same generator and summed over
        # each row's groups, and leave the stream where that draw leaves
        # it.  Past the random rows, some of which may be empty, one row
        # holds two large groups where the layout has large groups, and one
        # holds small groups only where it has small ones; the group order
        # is shuffled, so their items interleave with the others'.
        small, large = st.integers(1, _SMALL_GROUP), st.integers(_SMALL_GROUP + 1, 40)
        sizes = {"mixed": st.integers(1, 40), "all-small": small, "all-large": large}[layout]
        sizes = data.draw(st.lists(sizes, max_size=30))
        spread = data.draw(st.integers(1, 8))
        into = data.draw(
            st.lists(st.integers(0, spread - 1), min_size=len(sizes), max_size=len(sizes))
        )
        if layout != "all-small":
            sizes += data.draw(st.lists(large, min_size=2, max_size=2))
            into += [spread] * 2
        if layout != "all-large":
            sizes += data.draw(st.lists(small, min_size=2, max_size=3))
            into += [spread + 1] * (len(sizes) - len(into))
        order = data.draw(st.permutations(range(len(sizes))))
        sizes = np.array(sizes, dtype=np.int64)[order]
        into = np.array(into, dtype=np.int64)[order]
        categories = data.draw(st.sampled_from([3, 4]))
        codes = np.array(
            data.draw(st.lists(st.integers(0, 3), min_size=sizes.size, max_size=sizes.size)),
            dtype=np.int64,
        )
        split = GroupSplit(sizes, codes, categories, into)
        assert split.rows == into.max() + 1
        concentrations = np.arange(1.0, 4 * categories + 1).reshape(4, categories)
        for seed in data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4)):
            shape = (rows,) + concentrations.shape if block else concentrations.shape
            prob_rows = sample_probability_rows(
                np.random.default_rng(seed), np.broadcast_to(concentrations, shape)
            )
            ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            drawn = draw_doctype_counts(ours_rng, prob_rows, split)
            per_group = _counts_split_per_call(ref_rng, prob_rows, sizes, codes)
            expected = np.zeros(shape[:-2] + (split.rows, categories), dtype=per_group.dtype)
            for group, row in enumerate(into.tolist()):
                expected[..., row, :] += per_group[..., group, :]
            assert drawn.dtype == expected.dtype
            assert np.array_equal(drawn, expected)
            assert ours_rng.random() == ref_rng.random()

    @settings(max_examples=80, deadline=None)
    @given(
        weights=st.lists(_weights, min_size=1, max_size=5),
        data=st.data(),
    )
    def test_rows_sum_to_sizes_and_skip_impossible_categories(self, weights, data):
        prob_rows = np.array(weights) / np.array(weights).sum(axis=1, keepdims=True)
        groups = data.draw(
            st.lists(
                st.tuples(
                    st.integers(0, prob_rows.shape[0] - 1),
                    st.one_of(_group_sizes, st.integers(0, 10**6)),
                ),
                min_size=0,
                max_size=20,
            )
        )
        cond = np.array([g for g, _ in groups], dtype=np.int64)
        sizes = np.array([n for _, n in groups], dtype=np.int64)
        seed = data.draw(st.integers(0, 2**32 - 1))
        counts = _counts(np.random.default_rng(seed), prob_rows, sizes, cond)
        assert counts.shape == (sizes.size, 4)
        assert np.issubdtype(counts.dtype, np.integer)
        assert counts.min(initial=0) >= 0
        assert np.array_equal(counts.sum(axis=1), sizes)
        assert np.all(counts[prob_rows[cond] == 0.0] == 0)

    def test_point_mass_row_takes_the_whole_group(self):
        # The first row's gamma draws all underflow, so it is the point
        # mass on its largest concentration (category 1).
        concentrations = np.array([[1e-300, 3e-300, 2e-300, 0.0], [1.0, 2.0, 3.0, 4.0]])
        rng = np.random.default_rng(0)
        prob_rows = sample_probability_rows(rng, concentrations)
        sizes = np.array([5, 1, 10**6, 0])
        counts = _counts(rng, prob_rows, sizes, np.zeros(4, dtype=np.int64))
        assert counts.tolist() == [[0, 5, 0, 0], [0, 1, 0, 0], [0, 10**6, 0, 0], [0, 0, 0, 0]]

    @pytest.mark.parametrize("size", [_SMALL_GROUP, _SMALL_GROUP + 1])
    def test_cutoff_selects_item_codes_or_one_multinomial(self, size):
        # A group of at most _SMALL_GROUP items is the tally of that many
        # ``draw_doctype_codes`` codes; a larger one is one multinomial.
        prob_rows = np.array([[0.55, 0.15, 0.30], [0.2, 0.3, 0.5]])
        counts = _counts(np.random.default_rng(4), prob_rows, np.array([size]), np.array([1]))
        rng = np.random.default_rng(4)
        if size <= _SMALL_GROUP:
            codes = draw_doctype_codes(rng, prob_rows, np.ones(size, dtype=np.int64))
            expected = np.bincount(codes, minlength=3)
        else:
            expected = rng.multinomial(size, prob_rows[1])
        assert counts.tolist() == [expected.tolist()]

    # (group size, probability row): one item, a row with an impossible
    # category, a near-certain category, a large group, and the largest
    # group that tallies uniforms and the smallest that draws a
    # multinomial, over the kernel's three categories.
    _CASES = [
        (1, (0.25, 0.25, 0.3, 0.2)),
        (7, (0.62, 0.08, 0.0, 0.30)),
        (40, (0.97, 0.01, 0.005, 0.015)),
        (150, (0.4, 0.1, 0.2, 0.3)),
        (_SMALL_GROUP, (0.55, 0.15, 0.30)),
        (_SMALL_GROUP + 1, (0.55, 0.15, 0.30)),
    ]

    @pytest.mark.parametrize("size, row", _CASES)
    def test_counts_have_the_law_of_tallied_item_draws(self, size, row):
        # 10000 group counts against 10000 tallies of ``size`` per-item
        # codes from an independent stream.  Per category, each sample's
        # mean must lie within 5 standard errors of size * p and its
        # variance within 5 standard errors of size * p * q (the binomial
        # fourth central moment size * pq * (1 + 3pq(size - 2)) gives the
        # variance's standard error), and the two means within 5 standard
        # errors of each other.
        n = 10_000
        prob_rows = np.array([row, np.eye(len(row))[-1]])
        cond = np.zeros(n, dtype=np.int64)
        counts = _counts(np.random.default_rng(1), prob_rows, np.full(n, size), cond)
        items = np.zeros(n * size, dtype=np.int64)
        codes = draw_doctype_codes(np.random.default_rng(2), prob_rows, items)
        tallies = np.zeros((n, len(row)), dtype=np.int64)
        np.add.at(tallies, (np.repeat(np.arange(n), size), codes), 1)
        for k, p in enumerate(row):
            pq = p * (1.0 - p)
            var = size * pq
            if var == 0.0:
                assert not counts[:, k].any() and not tallies[:, k].any()
                continue
            mu4 = size * pq * (1.0 + 3.0 * pq * (size - 2))
            var_se = np.sqrt((mu4 - var * var) / n)
            for sample in (counts[:, k], tallies[:, k]):
                assert abs(sample.mean() - size * p) < 5 * np.sqrt(var / n)
                assert abs(sample.var(ddof=1) - var) < 5 * var_se
            assert abs(counts[:, k].mean() - tallies[:, k].mean()) < 5 * np.sqrt(2 * var / n)


_params = st.tuples(
    st.floats(min_value=-3.0, max_value=3.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=20.0),
)


class TestCountedOmittedDraws:
    """``draw_omitted`` with counts: one draw summing k iid items."""

    @settings(max_examples=60, deadline=None)
    @given(
        params=_params,
        citations=st.lists(st.integers(0, 10**6), min_size=0, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_count_one_is_the_per_item_draw(self, params, citations, seed):
        x = np.log1p(np.array(citations, dtype=np.float64))
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        counted = draw_omitted(ours_rng, np.array(params), x, np.ones(x.size, dtype=np.int64))
        assert np.array_equal(counted, draw_omitted(ref_rng, np.array(params), x))
        assert ours_rng.random() == ref_rng.random()

    @settings(max_examples=60, deadline=None)
    @given(
        params=_params,
        cells=st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 6)), min_size=0, max_size=30
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_empty_cells_draw_zero_and_consume_nothing(self, params, cells, seed):
        x = np.log1p(np.array([c for c, _ in cells], dtype=np.float64))
        counts = np.array([k for _, k in cells], dtype=np.int64)
        occupied = counts > 0
        all_rng, occ_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        everywhere = draw_omitted(all_rng, np.array(params), x, counts)
        assert np.all(everywhere[~occupied] == 0)
        only = draw_omitted(occ_rng, np.array(params), x[occupied], counts[occupied])
        assert np.array_equal(everywhere[occupied], only)
        assert all_rng.random() == occ_rng.random()

    # (b0, b1, theta, citations, k): below, at and above theta = 1, a
    # mean near zero and a large group.
    _CASES = [
        (-1.0, 0.3, 0.5, 7, 3),
        (0.2, 0.1, 1.0, 0, 2),
        (-4.0, 0.2, 0.3, 2, 5),
        (0.5, 0.25, 4.0, 40, 12),
        (-1.2, 0.25, 0.8, 15, 300),
    ]

    @pytest.mark.parametrize("b0, b1, theta, citations, k", _CASES)
    def test_counted_draw_is_the_sum_of_k_item_draws(self, b0, b1, theta, citations, k):
        # 20000 counted draws against 20000 sums of k per-item draws from an
        # independent stream.  The two-sample Kolmogorov-Smirnov distance
        # must stay below its 1e-4 critical value, 2.15 * sqrt(2 / n)
        # (conservative for discrete laws), and each sample mean within 5
        # standard errors of k * mu.
        n = 20_000
        params = np.array([b0, b1, theta])
        x = np.full(n, np.log1p(citations))
        counted = draw_omitted(np.random.default_rng(1), params, x, np.full(n, k))
        items = draw_omitted(np.random.default_rng(2), params, np.repeat(x, k))
        summed = items.reshape(n, k).sum(axis=1)
        values = np.union1d(counted, summed)
        cdf_a = np.searchsorted(np.sort(counted), values, side="right") / n
        cdf_b = np.searchsorted(np.sort(summed), values, side="right") / n
        assert np.abs(cdf_a - cdf_b).max() < 2.15 * np.sqrt(2.0 / n)
        mu = np.exp(b0 + b1 * np.log1p(citations))
        sd = np.sqrt(k * (mu + mu * mu / theta))
        for sample in (counted, summed):
            assert abs(sample.mean() - k * mu) < 5 * sd / np.sqrt(n)

    def test_mean_cap_applies_per_item(self):
        # exp(40) is far past the 1e12 cap; the summed mean is k * 1e12.
        params = np.array([40.0, 0.0, 50.0])
        draws = draw_omitted(np.random.default_rng(3), params, np.zeros(2000), np.full(2000, 4))
        assert abs(draws.mean() / 4e12 - 1.0) < 0.01


def _bin_pair(bins, rows=1, n_bins=None):
    """``draw_omitted``'s bins pair: each element's (row, bin) slot, and the bin count.

    ``bins`` gives each column's bin in every one of ``rows`` rows.
    """
    n_bins = int(bins.max()) + 1 if n_bins is None else n_bins
    return (np.arange(rows)[:, None] * n_bins + bins).ravel(), n_bins


class TestBinnedOmittedDraws:
    """``draw_omitted`` with bins: one Poisson per bin of summed rates."""

    @settings(max_examples=40, deadline=None)
    @given(
        params=st.lists(_params, min_size=1, max_size=4),
        cells=st.lists(
            st.tuples(st.integers(0, 10**4), st.integers(0, 6), st.integers(0, 3)),
            min_size=1,
            max_size=12,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_binned_draw_sums_rates_then_draws_poissons(self, params, cells, seed):
        # Every gamma as without bins, then one Poisson per (row, bin) of
        # the bin's summed gamma * mu / theta, summed in element order.
        params = np.array(params)
        x = np.log1p(np.array([c for c, _, _ in cells], dtype=np.float64))
        counts = np.array([k for _, k, _ in cells], dtype=np.int64)
        bins = np.array([b for _, _, b in cells], dtype=np.int64)
        n_bins = int(bins.max()) + 1
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = draw_omitted(ours_rng, params[:, None, :], x, counts, _bin_pair(bins, len(params)))
        assert drawn.shape == (params.shape[0], n_bins)
        mu = np.minimum(np.exp(params[:, :1] + params[:, 1:2] * x), 1e12)
        lam = ref_rng.gamma(shape=params[:, 2:] * counts, scale=mu / params[:, 2:])
        rates = np.zeros((params.shape[0], n_bins))
        for j, b in enumerate(bins.tolist()):
            rates[:, b] += lam[:, j]
        assert np.array_equal(drawn, ref_rng.poisson(rates))
        assert ours_rng.random() == ref_rng.random()

    def test_binned_sum_has_the_law_of_summed_element_draws(self):
        # 20000 binned draws against 20000 per-element draws summed by bin,
        # from an independent stream: per bin, the two-sample z of the
        # means within 4 and the ratio of standard deviations within 10%
        # of 1 (a bin drawn with one column's dispersion for all its items
        # misses both), and each mean within 5 standard errors of the sum
        # of k * mu.
        n = 20_000
        params = np.broadcast_to(np.array([-0.8, 0.4, 0.7]), (n, 1, 3))
        citations = np.array([0, 3, 3, 40, 7, 1, 250])
        counts = np.array([5, 2, 0, 1, 30, 4, 2])
        bins = np.array([0, 0, 0, 1, 2, 2, 2])
        x = np.log1p(citations.astype(np.float64))
        binned = draw_omitted(np.random.default_rng(5), params, x, counts, _bin_pair(bins, n))
        items = draw_omitted(np.random.default_rng(6), params, x, counts)
        summed = np.stack([items[:, bins == b].sum(axis=1) for b in range(3)], axis=1)
        mu = np.exp(-0.8 + 0.4 * x)
        for b in range(3):
            a, s = binned[:, b], summed[:, b]
            z = (a.mean() - s.mean()) / np.sqrt((a.var(ddof=1) + s.var(ddof=1)) / n)
            assert abs(z) <= 4.0
            assert 0.9 <= a.std(ddof=1) / s.std(ddof=1) <= 1.1
            mean = (counts * mu)[bins == b].sum()
            sd = np.sqrt((counts * (mu + mu * mu / 0.7))[bins == b].sum())
            assert abs(a.mean() - mean) < 5 * sd / np.sqrt(n)

    def test_mean_cap_applies_per_item_before_summing(self):
        # exp(40) is far past the 1e12 cap.  Bin 0 holds 4 + 1 items and
        # bin 1 holds 2, so their means are 5e12 and 2e12; a cap on the
        # summed rate would hold both at 1e12.
        params = np.broadcast_to(np.array([40.0, 0.0, 50.0]), (2000, 1, 3))
        draws = draw_omitted(
            np.random.default_rng(3),
            params,
            np.zeros(3),
            np.array([4, 1, 2]),
            _bin_pair(np.array([0, 0, 1]), 2000),
        )
        assert draws.shape == (2000, 2)
        assert np.abs(draws.mean(axis=0) / np.array([5e12, 2e12]) - 1.0).max() < 0.01

    @settings(max_examples=40, deadline=None)
    @given(
        params=_params,
        cells=st.lists(
            st.tuples(st.integers(0, 500), st.integers(0, 4), st.integers(0, 3)),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_zero_count_column_adds_zero_rate(self, params, cells, seed):
        # A zero-count column draws no gamma and adds nothing to its bin:
        # the draw equals the one without it, and a bin of zero-count
        # columns only draws 0.  A huge intercept makes a stray rate show.
        params = np.array(params) + np.array([30.0, 0.0, 0.0])
        x = np.log1p(np.array([c for c, _, _ in cells], dtype=np.float64))
        counts = np.array([k for _, k, _ in cells], dtype=np.int64)
        bins = np.array([b for _, _, b in cells], dtype=np.int64)
        n_bins = int(bins.max()) + 1
        # The bin past the last one holds one zero-count column only.
        x, counts, bins = np.append(x, 0.0), np.append(counts, 0), np.append(bins, n_bins)
        occupied = counts > 0
        all_rng, occ_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        everywhere = draw_omitted(all_rng, params, x, counts, (bins, n_bins + 1))
        assert everywhere.shape == (n_bins + 1,)
        assert everywhere[-1] == 0
        assert np.all(everywhere[np.setdiff1d(np.arange(n_bins), bins[occupied])] == 0)
        if occupied.any():
            only = draw_omitted(
                occ_rng, params, x[occupied], counts[occupied], (bins[occupied], n_bins + 1)
            )
            assert np.array_equal(everywhere, only)
        assert all_rng.random() == occ_rng.random()


def _clamped(rng, params, citations):
    """``draw_clamped_omitted`` of a block whose columns hold ``citations``."""
    values, index = np.unique(np.asarray(citations, dtype=np.int64), return_inverse=True)
    return draw_clamped_omitted(rng, np.asarray(params, dtype=np.float64), values, index)


def _walk_bounds(params, citations):
    """Per (row, column): mu, and whether the element walks its CDF."""
    params = np.asarray(params, dtype=np.float64)
    x = np.log1p(np.asarray(citations, dtype=np.float64))
    mu = np.minimum(np.exp(params[:, :1] + params[:, 1:2] * x), 1e12)
    ratio = mu / (params[:, 2:] + mu)
    return mu, (ratio <= _WALK_MAX_RATIO) & (mu <= _WALK_MAX_MEAN)


def _two_sample_chi2_p(a, b):
    """p-value of a two-sample chi-square over the integer values of a and b.

    Neighbouring values are pooled until each pool holds at least 10
    draws of the two samples together; a and b have equal sizes.
    """
    top = int(max(a.max(), b.max())) + 1
    ca, cb = np.bincount(a, minlength=top), np.bincount(b, minlength=top)
    pools, acc = [], np.zeros(2)
    for pair in zip(ca, cb):
        acc = acc + pair
        if acc.sum() >= 10:
            pools.append(acc)
            acc = np.zeros(2)
    if acc.sum():
        if pools:
            pools[-1] = pools[-1] + acc
        else:
            pools.append(acc)
    if len(pools) < 2:
        return 1.0
    pools = np.array(pools)
    statistic = ((pools[:, 0] - pools[:, 1]) ** 2 / pools.sum(axis=1)).sum()
    return float(stats.chi2.sf(statistic, len(pools) - 1))


_clamp_params = st.tuples(
    st.floats(min_value=-3.0, max_value=4.0),
    st.floats(min_value=-1.0, max_value=1.0),
    st.floats(min_value=0.05, max_value=20.0),
)


class TestClampedOmittedDraws:
    """``draw_clamped_omitted``: min(O, c) by inverting the bounded NB CDF."""

    @settings(max_examples=60, deadline=None)
    @given(
        params=st.lists(_clamp_params, min_size=1, max_size=4),
        citations=st.lists(
            st.one_of(st.integers(0, 3), st.integers(0, 400)), min_size=1, max_size=150
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_the_per_element_walk(self, params, citations, seed):
        # Same uniforms, same walks, and the same gamma and Poisson draws
        # for the elements past the walk bounds: the draws and the
        # generator's state afterwards equal the oracle's.
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        ours = _clamped(ours_rng, params, citations)
        block = np.tile(np.array(citations, dtype=np.int64), (len(params), 1))
        ref = oracle.clamped_omitted(ref_rng, np.array(params), block)
        assert np.array_equal(ours, ref)
        assert ours_rng.random() == ref_rng.random()

    def test_a_long_block_equals_the_per_element_walk(self):
        # Thousands of walking elements, some of them past the first chunk
        # of steps: the draws still equal the oracle's.
        params = np.array([[0.8, 0.3, 2.0], [-0.5, 0.6, 0.7], [1.5, 0.0, 9.0]])
        citations = np.arange(3000) % 90
        ours_rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        ours = _clamped(ours_rng, params, citations)
        assert ours.max() > _FIRST_CHUNK
        ref = oracle.clamped_omitted(ref_rng, params, np.tile(citations, (3, 1)))
        assert np.array_equal(ours, ref)
        assert ours_rng.random() == ref_rng.random()

    def test_a_uniform_on_a_cdf_value_moves_past_it(self):
        # Inversion takes the first j with u < F(j): a uniform equal to
        # F(j) gives j + 1, one just below it gives j, for every j up to
        # 60, so across the ends of the first two chunks of steps (16 and
        # 48).  The CDF sums are the walk's own, so the comparison is exact.
        theta, mu, c = 5.0, 15.0, 100
        params = np.array([[np.log(mu), 0.0, theta]])
        mu = np.exp(np.log(mu) + 0.0 * np.log1p(np.array([[float(c)]])))[0, 0]
        ratio = mu / (theta + mu)
        slope = ratio * (theta - 1.0)
        pmf = cdf = (theta / (theta + mu)) ** theta
        sums = [cdf]
        for j in range(1, 61):
            pmf = pmf * (slope / j + ratio)
            cdf = cdf + pmf
            sums.append(cdf)
        assert sums[-1] < np.nextafter(1.0, 0.0) and _FIRST_CHUNK == 16
        u = np.array([[value for s in sums for value in (np.nextafter(s, 0.0), s)]])
        values, index = np.array([c]), np.zeros(u.size, dtype=np.int64)
        draws = draw_clamped_omitted(_StubRng(u), params, values, index)
        assert draws[0].tolist() == [j + step for j in range(61) for step in (0, 1)]
        ref = oracle.clamped_omitted(_StubRng(u), params, np.full(u.shape, c))
        assert np.array_equal(draws, ref)

    def test_a_uniform_past_the_rounded_cdf_stops_where_the_sums_stop(self):
        # At theta 1.5 and mu 0.5 the CDF sums stop growing at j = 28, a
        # few ulp below 1, and random() can return a larger value.  The
        # walk stops there instead of running on to c.
        params = np.array([[np.log(0.5), 0.0, 1.5]])
        c = 500
        u = np.full((1, 3), np.nextafter(1.0, 0.0))
        values, index = np.array([c]), np.zeros(3, dtype=np.int64)
        draws = draw_clamped_omitted(_StubRng(u), params, values, index)
        ref = oracle.clamped_omitted(_StubRng(u), params, np.full(u.shape, c))
        assert np.array_equal(draws, ref)
        assert np.all((draws > _FIRST_CHUNK) & (draws < c))

    # (theta, mu) per block row: each dispersion with a mean whose walk is
    # short, and one past the walk bounds, by the tail ratio (theta 0.2
    # and 1) or by the mean (theta 5, ratio 0.8).
    _LAW_ROWS = [(0.2, 0.2), (0.2, 3.8), (1.0, 1.0), (1.0, 9.0), (5.0, 5.0), (5.0, 20.0)]
    _LAW_CITATIONS = (0, 1, 2, 7, 60)

    def test_law_is_the_clamped_negative_binomial(self):
        # One block, 4000 columns per citation count: per row and count, a
        # two-sample chi-square of c - draw against max(c - O, 0) with O
        # from oracle.negbin_rvs on an independent stream.  Each p-value
        # must exceed 1e-4.
        n = 4000
        params = np.array([[np.log(mu), 0.0, theta] for theta, mu in self._LAW_ROWS])
        citations = np.repeat(self._LAW_CITATIONS, n)
        mu, walks = _walk_bounds(params, citations)
        cited = citations > 0
        assert [bool(w) for w in walks[:, cited].all(axis=1)] == [True, False] * 3
        draws = _clamped(np.random.default_rng(21), params, citations)
        assert np.all((draws >= 0) & (draws <= citations))
        ref_rng = np.random.default_rng(22)
        for r, (theta, _) in enumerate(self._LAW_ROWS):
            for c in self._LAW_CITATIONS:
                ours = c - draws[r, citations == c]
                omitted = oracle.negbin_rvs(ref_rng, mu[r, citations == c], theta)
                ref = np.maximum(c - omitted, 0)
                assert _two_sample_chi2_p(ours, ref) > 1e-4, (theta, c)

    def test_extreme_parameters_finish_within_the_count(self):
        # The mean at the 1e12 cap, a dispersion of 1e-3 or 1e6, a mean
        # at the walk's bound with a huge dispersion, and a million
        # citations: every draw is in [0, c], quickly.
        params = np.array(
            [
                [40.0, 0.0, 1e-3],
                [40.0, 0.0, 50.0],
                [np.log(_WALK_MAX_MEAN) - 1e-9, 0.0, 1e6],
                [0.0, 0.0, 1e-3],
                [-30.0, 2.0, 1e-3],
            ]
        )
        citations = np.tile([0, 1, 3, 10**6], 250)
        started = time.perf_counter()
        draws = _clamped(np.random.default_rng(9), params, citations)
        assert time.perf_counter() - started < 5.0
        assert np.all((draws >= 0) & (draws <= citations))
        assert np.all(draws[:, citations == 0] == 0)
        # A mean of 1e12 with dispersion 50 omits nearly everything.
        assert np.all(draws[1, citations == 10**6] > 10**6 // 2)

    def test_one_uniform_per_element_when_every_element_walks(self):
        # Ratios at the cut (theta 1/7, mu 1: exactly 0.875), below it,
        # and uncited columns: the sampler consumes exactly the block's
        # uniforms and nothing else.
        params = np.array([[0.0, 0.0, 1.0 / 7.0], [0.3, 0.2, 2.0], [-2.0, 0.5, 0.4]])
        citations = np.arange(200) % 25
        mu, walks = _walk_bounds(params, citations)
        assert walks.all()
        assert (mu[0] / (1.0 / 7.0 + mu[0]) == _WALK_MAX_RATIO).all()
        rng, ref = np.random.default_rng(17), np.random.default_rng(17)
        draws = _clamped(rng, params, citations)
        ref.random((3, citations.size))
        assert rng.bit_generator.state == ref.bit_generator.state
        assert draws[0].max() > 0

    def test_predict_error_affected_citations_uses_the_sampler(self, first_kind_posterior):
        n, c = 500, 14
        draws = predict_error_affected_citations(first_kind_posterior, citations=c, n=n, seed=4)
        params = cycled_params(first_kind_posterior, n)
        ref = oracle.clamped_omitted(np.random.default_rng(4), params, np.full((n, 1), c))
        assert np.array_equal(draws, c - ref[:, 0])


class TestBlockAxis:
    """The samplers with a leading block axis, one row per iteration."""

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(_weights, min_size=1, max_size=4),
        block=st.integers(1, 5),
        data=st.data(),
    )
    def test_block_draws_equal_successive_row_draws(self, weights, block, data):
        # The Dirichlet rows, the category codes and the counts of groups
        # that are all small or all large are, draw for draw, the 2-d
        # calls made once per row.  A block of both kinds of group draws
        # every row's small-group uniforms first, then every row's
        # large-group multinomials: its counts are those of its small
        # groups alone followed by those of its large groups alone.
        concentrations = np.array(weights) * 3.0
        k = concentrations.shape[0]
        cond = np.array(
            data.draw(st.lists(st.integers(0, k - 1), min_size=0, max_size=12)), dtype=np.int64
        )
        sizes = np.array(
            data.draw(st.lists(_group_sizes, min_size=cond.size, max_size=cond.size)),
            dtype=np.int64,
        )
        small = sizes <= _SMALL_GROUP
        seed = data.draw(st.integers(0, 2**32 - 1))
        stacked = np.broadcast_to(concentrations, (block, k, 4))

        def small_counts(rng, rows, c):
            return _counts(rng, rows, sizes[small], c[small])

        def large_counts(rng, rows, c):
            return _counts(rng, rows, sizes[~small], c[~small])

        for draw in (draw_doctype_codes, small_counts, large_counts):
            block_rng, row_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            rows = sample_probability_rows(block_rng, stacked)
            assert rows.shape == (block, k, 4)
            drawn = draw(block_rng, rows, cond)
            for r in range(block):
                assert np.array_equal(rows[r], sample_probability_rows(row_rng, concentrations))
            for r in range(block):
                assert np.array_equal(drawn[r], draw(row_rng, rows[r], cond))
            assert block_rng.random() == row_rng.random()

        block_rng, parts_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        rows = sample_probability_rows(block_rng, stacked)
        sample_probability_rows(parts_rng, stacked)
        drawn = _counts(block_rng, rows, sizes, cond)
        assert drawn.shape == (block, sizes.size, 4)
        assert np.array_equal(drawn[:, small], small_counts(parts_rng, rows, cond))
        assert np.array_equal(drawn[:, ~small], large_counts(parts_rng, rows, cond))
        assert block_rng.random() == parts_rng.random()

    def test_block_underflow_falls_back_per_row(self):
        concentrations = np.array([[1e-300, 3e-300, 2e-300, 0.0], [1.0, 2.0, 3.0, 4.0]])
        stacked = np.broadcast_to(concentrations, (3, 2, 4))
        rows = sample_probability_rows(np.random.default_rng(0), stacked)
        assert rows[:, 0].tolist() == [[0.0, 1.0, 0.0, 0.0]] * 3
        assert np.allclose(rows[:, 1].sum(axis=1), 1.0)
        reference = oracle.sample_probability_rows(np.random.default_rng(0), stacked)
        assert np.array_equal(rows, reference)

    @settings(max_examples=40, deadline=None)
    @given(
        params=st.lists(_params, min_size=1, max_size=4),
        citations=st.lists(st.integers(0, 10**4), min_size=0, max_size=12),
        counted=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_block_omitted_draws_gammas_then_poissons(self, params, citations, counted, seed):
        # Row r uses parameter row r; the block draws every gamma, then
        # every Poisson, as rng.gamma with a scale followed by rng.poisson.
        params = np.array(params)
        x = np.log1p(np.array(citations, dtype=np.float64))
        counts = np.arange(x.size) % 3 if counted else None
        ours_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        drawn = draw_omitted(ours_rng, params[:, None, :], x, counts)
        assert drawn.shape == (params.shape[0], x.size)
        mu = np.minimum(np.exp(params[:, :1] + params[:, 1:2] * x), 1e12)
        shape = np.broadcast_to(params[:, 2:], mu.shape)
        if counts is not None:
            shape = shape * counts
        lam = ref_rng.gamma(shape=shape, scale=mu / params[:, 2:])
        assert np.array_equal(drawn, ref_rng.poisson(lam))
        assert ours_rng.random() == ref_rng.random()


def _csv_writer_bytes(draws, ids) -> bytes:
    """The dump as csv.writer writes it, one writerow call per row."""
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    writer.writerow(["iteration", "publication_id", "citations", "doctype"])
    for iteration, citations, codes in draws:
        for pub_id, count, code in zip(ids, citations, codes):
            writer.writerow([iteration, pub_id, int(count), DOCTYPE_ORDER[code].value])
    return buf.getvalue().encode("utf-8")


def _dump_blocks(path, ids, blocks) -> bytes:
    """Feed ``(first_iteration, citations_rows, codes_rows)`` blocks to the
    dump writer, as propagate does, and return the file's bytes."""
    with path.open("w", newline="", encoding="utf-8") as handle:
        write = predictive_dump(ids, handle)
        for block in blocks:
            write(*block)
    return path.read_bytes()


def _rows_of(blocks):
    """The ``(iteration, citations, codes)`` rows that blocks hold."""
    return [
        (first + r, citations, codes)
        for first, citations_rows, codes_rows in blocks
        for r, (citations, codes) in enumerate(zip(citations_rows, codes_rows))
    ]


_ID_CHARS = st.one_of(
    st.sampled_from(',"\r\n '),
    st.characters(blacklist_categories=("Cs",)),
)


@st.composite
def _dump_blocks_case(draw):
    """Ids, iterations from a random first one, and two ways to split them
    into blocks: at random cuts, which may make one-row blocks, and into
    blocks of a random size, as the kernel splits a run, the last one
    short when the size does not divide the iterations."""
    ids = draw(st.lists(st.text(_ID_CHARS, max_size=8), max_size=6))
    iterations = draw(st.integers(1, 9))
    n = iterations * len(ids)
    citations = draw(st.lists(st.integers(0, 2**62), min_size=n, max_size=n))
    codes = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    cuts = draw(st.sets(st.integers(1, iterations - 1))) if iterations > 1 else set()
    size = draw(st.integers(1, iterations))
    splits = [[0, *sorted(cuts), iterations], [*range(0, iterations, size), iterations]]
    return (
        ids,
        draw(st.integers(0, 10**6)),
        np.array(citations, dtype=np.int64).reshape(iterations, len(ids)),
        np.array(codes, dtype=np.int64).reshape(iterations, len(ids)),
        splits,
    )


class TestDumpFile:
    def test_rows_of_one_block(self, tmp_path):
        blocks = [(0, np.array([[5, 0, 6]]), np.array([[0, 3, 0]]))]
        _dump_blocks(tmp_path / "items.csv", ["p1", "p2", "p3"], blocks)
        lines = (tmp_path / "items.csv").read_text().strip().splitlines()
        assert lines[0] == "iteration,publication_id,citations,doctype"
        assert lines[1] == "0,p1,5,article"
        assert len(lines) == 4

    def test_no_blocks_gives_header_only(self, tmp_path):
        dumped = _dump_blocks(tmp_path / "items.csv", ["p1"], [])
        assert dumped == b"iteration,publication_id,citations,doctype\r\n"

    def test_awkward_ids_every_doctype(self, tmp_path):
        ids = ["a,b", 'say "hi"', "two\nlines", " padded ", "cr\r", ""]
        blocks = [
            (0, np.array([[0, 1, 2, 3, 4, 5]]), np.array([[0, 1, 2, 3, 0, 1]])),
            (7, np.array([[2**62, 0, 10**9, 0, 0, 1]]), np.array([[3, 2, 1, 0, 3, 2]])),
        ]
        path = tmp_path / "items.csv"
        assert _dump_blocks(path, ids, blocks) == _csv_writer_bytes(_rows_of(blocks), ids)
        with path.open(newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert [row[1] for row in rows[1:7]] == ids
        assert [row[3] for row in rows[1:5]] == [dt.value for dt in DOCTYPE_ORDER]

    def test_counts_at_and_over_the_tail_bound(self, tmp_path):
        bound = DUMP_TAIL_COUNTS
        ids = ["p1", "p2", "p3", "p4", "p5"]
        citations = np.array(
            [[bound - 1, bound, 2**62, 0, bound + 1], [bound, bound - 1, 1, 2**40, bound - 1]]
        )
        blocks = [(3, citations, np.array([[3, 2, 1, 0, 0], [0, 1, 2, 3, 2]]))]
        dumped = _dump_blocks(tmp_path / "items.csv", ids, blocks)
        assert dumped == _csv_writer_bytes(_rows_of(blocks), ids)

    def test_counts_that_grow_between_iterations(self, tmp_path):
        # Each iteration's largest count is beyond the last one's, so the
        # cached tails are extended mid-block and between blocks, and in
        # the end past the bound.
        ids = ["p1", "p2", "p3"]
        i = np.arange(12)[:, None]
        citations, codes = i * np.array([1, 10, 400]), (i + np.arange(3)) % 4
        assert citations[-1].max() > DUMP_TAIL_COUNTS
        blocks = [(lo, citations[lo : lo + 5], codes[lo : lo + 5]) for lo in range(0, 12, 5)]
        dumped = _dump_blocks(tmp_path / "items.csv", ids, blocks)
        assert dumped == _csv_writer_bytes(_rows_of(blocks), ids)

    def test_read_only_and_strided_rows(self, tmp_path):
        # A channel that is off leaves its (rows, columns) array a read-only
        # broadcast, and propagate dumps the rows of its unit columns.
        n_u = 4
        ids = ["a", "b,c", "d", "e"]
        c = (np.arange(18, dtype=np.int64).reshape(6, 3).T * 97)[:, :n_u]
        codes = np.broadcast_to(np.array([0, 1, 2, 3, 3, 2]), (3, 6))[:, :n_u]
        counts = np.broadcast_to(np.array([1, 5000, 2, 0, 9]), (2, 5))[:, :n_u]
        blocks = [(0, c, codes), (3, counts, (c % 4)[:2])]
        assert not c[0].flags.c_contiguous
        assert not codes.flags.writeable and not counts.flags.writeable
        dumped = _dump_blocks(tmp_path / "items.csv", ids, blocks)
        assert dumped == _csv_writer_bytes(_rows_of(blocks), ids)

    def test_no_ids_gives_header_only(self, tmp_path):
        empty = np.empty((3, 0), dtype=np.int64)
        dumped = _dump_blocks(tmp_path / "items.csv", [], [(0, empty, empty)])
        assert dumped == b"iteration,publication_id,citations,doctype\r\n"

    @settings(max_examples=60, deadline=None)
    @given(case=_dump_blocks_case())
    def test_any_block_split_gives_csv_writer_bytes(self, tmp_path_factory, case):
        ids, first, citations, codes, splits = case
        expected = _csv_writer_bytes(_rows_of([(first, citations, codes)]), ids)
        path = tmp_path_factory.mktemp("dump") / "items.csv"
        for edges in splits:
            blocks = [
                (first + lo, citations[lo:hi], codes[lo:hi]) for lo, hi in zip(edges, edges[1:])
            ]
            assert _dump_blocks(path, ids, blocks) == expected
