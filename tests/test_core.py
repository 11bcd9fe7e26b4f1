import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from outstream import (StreamObject, WindowConfig, distance, is_outlier,
                       is_safe_inlier, prune_nn_before, trim_nn_before, within)
from outstream.core import column_keys, key_limit, manhattan, sqdist

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def vec(dims):
    return st.tuples(*([finite] * dims))


def obj(count_after=0, nn_before=(), t=100):
    return StreamObject(id=0, value=(0.0,), t=t, count_after=count_after,
                        nn_before=list(nn_before))


class TestDistance:
    def test_identity_case(self):
        assert distance((0.0,), (0.0,)) == 0.0

    def test_pythagorean_triple(self):
        assert distance((0.0, 0.0), (3.0, 4.0)) == 5.0

    def test_one_dim_absolute_difference(self):
        assert distance((1.2,), (0.7,)) == pytest.approx(0.5)

    def test_dimensionality_mismatch(self):
        with pytest.raises(ValueError):
            distance((1.0,), (1.0, 2.0))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            distance((1.0,), (2.0,), metric="cosine")

    @settings(max_examples=200, derandomize=True)
    @given(st.integers(1, 4).flatmap(
        lambda d: st.tuples(vec(d), vec(d), vec(d), st.sampled_from(["euclidean", "manhattan"]))))
    def test_metric_contract(self, args):
        a, b, c, metric = args
        dab = distance(a, b, metric)
        assert dab >= 0
        assert dab == distance(b, a, metric)
        if a == b:
            assert dab == 0.0
        assert dab <= distance(a, c, metric) + distance(c, b, metric) + 1e-9

    def test_scalar_and_vectorized_kernels_agree_bitwise(self):
        rng = np.random.default_rng(0)
        for dims in (1, 2, 3, 5):
            pts = rng.normal(0, 10, size=(200, dims))
            center = tuple(rng.normal(0, 10, size=dims))
            c = np.asarray(center)
            sq_vec = ((pts - c) ** 2).sum(axis=1)
            for i in range(len(pts)):
                assert sqdist(tuple(pts[i]), center) == sq_vec[i]

    def test_within_mask_matches_scalar_predicate(self):
        rng = np.random.default_rng(1)
        pts = rng.normal(0, 1, size=(500, 3))
        center = tuple(rng.normal(0, 1, size=3))
        for metric in ("euclidean", "manhattan"):
            mask = column_keys(pts.T, center, metric) <= key_limit(1.3, metric)
            for i in range(len(pts)):
                assert mask[i] == within(tuple(pts[i]), center, 1.3, metric)


class TestColumnKernel:
    """`column_keys` sums one dimension at a time, left to right, at any d."""

    @pytest.mark.parametrize("dims", range(1, 11))
    def test_keys_equal_scalar_kernels_exactly(self, dims):
        rng = np.random.default_rng(100 + dims)
        pts = rng.normal(0, 3, size=(400, dims))
        center = tuple(rng.normal(0, 3, size=dims).tolist())
        sq = column_keys(pts.T, center, "euclidean")
        mh = column_keys(pts.T, center, "manhattan")
        for i, row in enumerate(pts.tolist()):
            assert sq[i] == sqdist(row, center)
            assert mh[i] == manhattan(row, center)

    @pytest.mark.parametrize("dims", [2, 8, 9, 16])
    def test_within_mask_agrees_with_within_on_each_rows_own_radius(self, dims):
        # every radius is some row's distance, so rows sit on the boundary and
        # a summation order other than `sqdist`'s shows as a flipped decision
        rng = np.random.default_rng(7 * dims)
        pts = rng.normal(0, 1, size=(300, dims))
        rows = [tuple(r) for r in pts.tolist()]
        center = tuple(rng.normal(0, 1, size=dims).tolist())
        for metric in ("euclidean", "manhattan"):
            for row in rows[:40]:
                d = sqdist(row, center) if metric == "euclidean" else manhattan(row, center)
                radius = math.sqrt(d) if metric == "euclidean" else d
                mask = column_keys(pts.T, center, metric) <= key_limit(radius, metric)
                assert mask.tolist() == [within(r, center, radius, metric) for r in rows]

    def test_dimensionality_mismatch(self):
        with pytest.raises(ValueError):
            column_keys(np.zeros((3, 5)), (0.0, 0.0))


class TestPruneNnBefore:
    def test_direct_from_definition(self):
        assert prune_nn_before([3, 7], 5) == [7]

    def test_empty_list(self):
        assert prune_nn_before([], 0) == []

    def test_boundary_inclusive(self):
        assert prune_nn_before([5, 6, 9], 5) == [5, 6, 9]

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(0, 1000)), st.integers(0, 1000), st.integers(0, 1000))
    def test_idempotent_and_monotone(self, ts, w1, w2):
        lo, hi = min(w1, w2), max(w1, w2)
        once = prune_nn_before(ts, lo)
        assert prune_nn_before(once, lo) == once
        assert len(prune_nn_before(ts, hi)) <= len(once)

    @settings(max_examples=100, derandomize=True)
    @given(st.lists(st.integers(0, 100), max_size=30), st.integers(1, 10), st.integers(0, 100))
    def test_trim_is_lossless_for_the_outlier_predicate(self, ts, k, w_start):
        # neighbors expire oldest first, so the k most recent entries carry
        # all the information the predicate needs
        full = len(prune_nn_before(sorted(ts), w_start))
        trimmed = len(prune_nn_before(trim_nn_before(ts, k), w_start))
        assert min(full, k) == min(trimmed, k)


class TestStatusPredicates:
    def test_isolated_point_is_outlier(self):
        assert is_outlier(obj(count_after=0, nn_before=[]), 0, k=1)

    def test_count_after_alone_satisfies_k(self):
        o = obj(count_after=2, nn_before=[1, 2])
        assert not is_outlier(o, 50, k=2)   # both preceding entries expired

    def test_alive_preceding_counts(self):
        o = obj(count_after=1, nn_before=[80])
        assert is_outlier(o, 50, k=3)       # 1 + 1 < 3

    def test_safe_at_threshold(self):
        assert is_safe_inlier(obj(count_after=4), k=4)

    def test_preceding_neighbors_do_not_confer_safety(self):
        assert not is_safe_inlier(obj(count_after=3, nn_before=list(range(10))), k=4)

    def test_zero_count_never_safe(self):
        assert not is_safe_inlier(obj(count_after=0), k=1)


class TestWindowConfig:
    def test_window_must_tile(self):
        with pytest.raises(ValueError):
            WindowConfig(W=10, S=3, R=1.0, k=1)

    def test_slide_bounds(self):
        with pytest.raises(ValueError):
            WindowConfig(W=10, S=0, R=1.0, k=1)
        with pytest.raises(ValueError):
            WindowConfig(W=10, S=20, R=1.0, k=1)

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            WindowConfig(W=10, S=5, R=0.0, k=1)
        with pytest.raises(ValueError):
            WindowConfig(W=10, S=5, R=1.0, k=0)

    def test_slides_per_window(self):
        assert WindowConfig(W=10, S=5, R=1.0, k=1).slides_per_window == 2

    def test_interval_of_slide(self):
        cfg = WindowConfig(W=10, S=5, R=1.0, k=1)
        iv = cfg.interval(3)
        assert (iv.start, iv.end, iv.slide_index) == (10, 20, 3)
        assert cfg.interval(0).start == -5    # the first window is still filling
