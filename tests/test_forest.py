import hashlib
import json
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumenrem import cli, evalmap
from lumenrem import forest as fr
from lumenrem._doc import MODEL_FORMAT_VERSIONS, _encode_array
from lumenrem.mlp import ModelFormatError, ModelVersionError


def _toy(n=200, k=3, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, (n, k))
    y = X[:, 0] ** 2 - 2.0 * X[:, min(1, k - 1)] + noise * rng.normal(size=n)
    return X, y


def _leaf_consistency(tree, X, y):
    """Route every training row, then compare leaf values to routed means."""
    routed = {}
    for i in range(len(X)):
        node = 0
        while tree.feature[node] >= 0:
            f, t = tree.feature[node], tree.threshold[node]
            node = tree.left[node] if X[i, f] < t else tree.right[node]
        routed.setdefault(node, []).append(y[i])
    assert routed, "no leaves reached"
    for node, vals in routed.items():
        assert math.isclose(tree.value[node], float(np.mean(vals)), rel_tol=1e-12, abs_tol=1e-12)


def _sse(v):
    return float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0


def _exhaustive_best(X, y, msl=1):
    """Brute-force the best (reduction, feature, threshold) by variance
    reduction over the cuts between consecutive distinct values that leave
    `msl` rows on each side, or None when there is no such cut."""
    n = len(y)
    parent = _sse(y)
    best = None
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals, vals[1:]):
            m = X[:, f] <= a
            nl = int(m.sum())
            if nl < msl or n - nl < msl:
                continue
            red = parent - _sse(y[m]) - _sse(y[~m])
            if best is None or red > best[0] + 1e-9:
                best = (red, f, (a + b) / 2.0)
    return best


def _node_rows(tree, X):
    """Each node's rows (a mask over X) and depth, from the split conditions on
    its path from the root; every node is checked to have exactly one parent."""
    rows = {0: np.ones(len(X), dtype=bool)}
    depth = {0: 0}
    order = [0]
    for node in order:
        f = tree.feature[node]
        if f >= 0:
            below = X[:, f] < tree.threshold[node]
            for child, mask in ((tree.left[node], below), (tree.right[node], ~below)):
                assert child not in rows, "a node with two parents"
                rows[child] = rows[node] & mask
                depth[child] = depth[node] + 1
                order.append(child)
    return rows, depth


# ---------------------------------------------------------------------------
# CART
# ---------------------------------------------------------------------------

def test_cart_constant_target_single_leaf():
    X = np.arange(12, dtype=float).reshape(4, 3)
    tree = fr.fit_cart(X, np.full(4, 7.5))
    assert tree.n_nodes == 1
    assert tree.feature[0] == -1
    assert tree.value[0] == 7.5


def test_cart_textbook_step_function():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 10.0, 10.0])
    tree = fr.fit_cart(X, y, fr.TreeParams(max_depth=1))
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.5
    leaves = sorted([tree.value[tree.left[0]], tree.value[tree.right[0]]])
    assert leaves == [0.0, 10.0]


def test_cart_zero_training_error_unconstrained():
    X, y = _toy(n=80, seed=1)
    tree = fr.fit_cart(X, y)
    np.testing.assert_allclose(tree.predict(X), y, atol=1e-12)


def test_cart_max_depth_respected():
    X, y = _toy(n=100, seed=2)
    tree = fr.fit_cart(X, y, fr.TreeParams(max_depth=3))
    # depth of every leaf <= 3: walk all paths
    def depth(node, d):
        if tree.feature[node] < 0:
            return d
        return max(depth(tree.left[node], d + 1), depth(tree.right[node], d + 1))
    assert depth(0, 0) <= 3


def test_cart_min_samples_leaf():
    X, y = _toy(n=60, seed=3)
    tree = fr.fit_cart(X, y, fr.TreeParams(min_samples_leaf=10))
    counts = np.zeros(tree.n_nodes, dtype=int)
    node_of = np.zeros(len(X), dtype=int)
    for i in range(len(X)):
        node = 0
        while tree.feature[node] >= 0:
            node = tree.left[node] if X[i, tree.feature[node]] < tree.threshold[node] else tree.right[node]
        counts[node] += 1
        node_of[i] = node
    assert all(c >= 10 for c in counts[counts > 0])


def test_cart_empty_input():
    for X, y in ((np.empty((0, 3)), np.empty(0)), (np.empty((3, 0)), np.zeros(3)),
                 (np.zeros((3, 2)), np.zeros((3, 1)))):
        with pytest.raises(ValueError, match="need an"):
            fr.fit_cart(X, y)


def test_cart_root_matches_exhaustive_search():
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(5, 200))
        k = int(rng.integers(1, 4))
        X = np.round(rng.uniform(0, 10, (n, k)), 2)  # duplicates likely
        y = rng.normal(size=n)
        tree = fr.fit_cart(X, y)
        want = _exhaustive_best(X, y)
        if want is None:
            assert tree.feature[0] == -1
        else:
            assert tree.feature[0] == want[1], trial
            assert math.isclose(tree.threshold[0], want[2], rel_tol=1e-12), trial


def test_cart_leaf_means_consistent():
    X, y = _toy(n=150, seed=5)
    tree = fr.fit_cart(X, y, fr.TreeParams(max_depth=5))
    _leaf_consistency(tree, X, y)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(("cart", "xt")), n=st.integers(1, 40), k=st.integers(1, 3),
       levels=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       max_depth=st.none() | st.integers(1, 5), min_leaf=st.integers(1, 3))
# X = [1,0,0,0,0,1], y = [-23,-22,-21,-30,-21,-24]: both sides of the only
# cut have mean -23.5, so the root's one valid cut reduces the error by exactly 0
@example(kind="cart", n=6, k=1, levels=2, seed=3, max_depth=None, min_leaf=1)
@example(kind="xt", n=6, k=1, levels=2, seed=3, max_depth=None, min_leaf=1)
def test_rows_reach_exactly_one_leaf_holding_their_mean(kind, n, k, levels, seed, max_depth,
                                                        min_leaf):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (n, k)).astype(float)  # few levels: ties and repeated rows
    y = np.round(rng.normal(-20.0, 5.0, n), int(rng.integers(0, 3)))  # and repeated targets
    params = fr.TreeParams(max_depth=max_depth, min_samples_leaf=min_leaf)
    if kind == "cart":
        tree = fr.fit_cart(X, y, params)
    else:
        tree = fr.fit_extra_trees(X, y, n_trees=1, params=params, seed=seed).trees[0]
    rows, _ = _node_rows(tree, X)
    assert sorted(rows) == list(range(tree.n_nodes)), "a node the root does not reach"
    leaves = [i for i in rows if tree.feature[i] < 0]
    assert np.all(sum(rows[i].astype(int) for i in leaves) == 1)
    fully_grown = max_depth is None and min_leaf == 1
    for i in leaves:
        xs, ys = X[rows[i]], y[rows[i]]
        assert len(ys) >= (min_leaf if i else 1)  # the root alone may hold fewer
        assert math.isclose(tree.value[i], float(ys.mean()), rel_tol=1e-12, abs_tol=1e-12)
        if fully_grown:  # a leaf is split until its rows share a target or a position
            assert np.all(ys == ys[0]) or np.all(xs == xs[0])


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(("cart", "xt")), n=st.integers(2, 60), k=st.integers(1, 3),
       levels=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       max_depth=st.none() | st.integers(1, 6), min_leaf=st.integers(1, 4))
# CART pads nodes to power-of-two size classes: node sizes at a power of two,
# one above and one below, with min_leaf > 1, so the cuts next to the padding
# are invalid
@example(kind="cart", n=2, k=2, levels=12, seed=1, max_depth=None, min_leaf=2)
@example(kind="cart", n=3, k=1, levels=12, seed=2, max_depth=None, min_leaf=2)
@example(kind="cart", n=4, k=2, levels=12, seed=3, max_depth=None, min_leaf=2)
@example(kind="cart", n=5, k=2, levels=12, seed=4, max_depth=None, min_leaf=2)
@example(kind="cart", n=33, k=3, levels=12, seed=5, max_depth=None, min_leaf=3)
@example(kind="cart", n=64, k=2, levels=12, seed=6, max_depth=None, min_leaf=4)
@example(kind="cart", n=65, k=3, levels=3, seed=7, max_depth=None, min_leaf=2)
def test_every_split_is_valid_and_cart_takes_the_best_cut(kind, n, k, levels, seed, max_depth,
                                                          min_leaf):
    """Node by node, not only at the root: both children keep `min_samples_leaf`
    rows, no node is deeper than `max_depth`, an Extra Trees cut lies within
    its rows' range, and a CART cut scores the exhaustive best over its rows."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (n, k)) + rng.integers(0, 2, (n, k)) * rng.uniform(0, 1, (n, k))
    y = np.round(rng.normal(-20.0, 5.0, n), int(rng.integers(0, 3)))
    params = fr.TreeParams(max_depth=max_depth, min_samples_leaf=min_leaf)
    if kind == "cart":
        tree = fr.fit_cart(X, y, params)
    else:
        tree = fr.fit_extra_trees(X, y, n_trees=1, params=params, seed=seed).trees[0]
    rows, depth = _node_rows(tree, X)
    for node, mask in rows.items():
        assert max_depth is None or depth[node] <= max_depth
        f = tree.feature[node]
        if f < 0:
            continue
        xs, ys = X[mask, f], y[mask]
        below = xs < tree.threshold[node]
        assert min_leaf <= below.sum() <= len(ys) - min_leaf
        if kind == "xt":
            assert xs.min() <= tree.threshold[node] <= xs.max()
        else:
            best = _exhaustive_best(X[mask], ys, min_leaf)[0]
            got = _sse(ys) - _sse(ys[below]) - _sse(ys[~below])
            assert got >= best - 1e-9 * _sse(ys)


# ---------------------------------------------------------------------------
# Extra Trees
# ---------------------------------------------------------------------------

def test_extra_trees_single_tree_mode():
    X, y = _toy(n=50, seed=6)
    f = fr.fit_extra_trees(X, y, n_trees=1, seed=6)
    assert len(f.trees) == 1
    np.testing.assert_array_equal(fr.predict_forest(f, X), f.trees[0].predict(X))


def test_extra_trees_constant_target():
    X, _ = _toy(n=30, seed=7)
    f = fr.fit_extra_trees(X, np.full(30, -3.25), n_trees=5, seed=7)
    assert np.all(fr.predict_forest(f, X) == -3.25)
    assert all(t.n_nodes == 1 for t in f.trees)


def test_extra_trees_full_sample_no_bootstrap():
    """Unconstrained trees on distinct rows interpolate all of them: every
    tree must have seen the full sample (a bootstrap would miss ~37%)."""
    X, y = _toy(n=120, seed=8)
    f = fr.fit_extra_trees(X, y, n_trees=10, seed=8)
    for t in f.trees:
        np.testing.assert_allclose(t.predict(X), y, atol=1e-12)


def test_extra_trees_leaf_consistency():
    X, y = _toy(n=100, seed=9)
    f = fr.fit_extra_trees(X, y, n_trees=3, params=fr.TreeParams(max_depth=4), seed=9)
    for t in f.trees:
        _leaf_consistency(t, X, y)


def test_extra_trees_deterministic():
    X, y = _toy(n=80, seed=10)
    a = fr.fit_extra_trees(X, y, n_trees=4, seed=11)
    b = fr.fit_extra_trees(X, y, n_trees=4, seed=11)
    for ta, tb in zip(a.trees, b.trees):
        np.testing.assert_array_equal(ta.threshold, tb.threshold)
        np.testing.assert_array_equal(ta.feature, tb.feature)
    c = fr.fit_extra_trees(X, y, n_trees=4, seed=12)
    assert any(
        ta.n_nodes != tc.n_nodes or not np.array_equal(ta.threshold, tc.threshold)
        for ta, tc in zip(a.trees, c.trees)
    )


def test_extra_trees_ensemble_beats_single_tree():
    """Averaged over 20 seeds, the ensemble's held-out MSE is no worse."""
    rng = np.random.default_rng(13)
    Xtr = rng.uniform(0, 4, (200, 2))
    ytr = Xtr[:, 0] ** 2 + Xtr[:, 1] ** 2
    Xte = rng.uniform(0, 4, (100, 2))
    yte = Xte[:, 0] ** 2 + Xte[:, 1] ** 2
    mse = lambda f: float(np.mean((fr.predict_forest(f, Xte) - yte) ** 2))
    singles, ensembles = [], []
    for s in range(20):
        singles.append(mse(fr.fit_extra_trees(Xtr, ytr, n_trees=1, seed=s)))
        ensembles.append(mse(fr.fit_extra_trees(Xtr, ytr, n_trees=30, seed=s)))
    assert np.mean(ensembles) <= np.mean(singles)


def test_extra_trees_mean_bound():
    X, y = _toy(n=90, seed=14)
    f = fr.fit_extra_trees(X, y, n_trees=7, seed=14)
    pts = X[:11]
    per_tree = np.stack([t.predict(pts) for t in f.trees])
    out = fr.predict_forest(f, pts)
    assert np.all(out >= per_tree.min(axis=0) - 1e-12)
    assert np.all(out <= per_tree.max(axis=0) + 1e-12)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 40), k=st.integers(1, 3), levels=st.integers(1, 8),
       n_trees=st.integers(1, 6), seed=st.integers(0, 2**32 - 1),
       params=st.builds(fr.TreeParams, max_depth=st.none() | st.integers(1, 6),
                        min_samples_split=st.integers(2, 5), min_samples_leaf=st.integers(1, 3)))
def test_each_tree_of_an_ensemble_is_the_tree_grown_alone_from_its_stream(n, k, levels, n_trees,
                                                                           seed, params):
    """The trees of a group share each depth's pass, but tree t draws only from
    `_stream(seed, t)`: it equals, in every bit, the one-tree group grown from
    that stream, whatever depth the other trees stop at."""
    rng = np.random.default_rng(seed)
    X = rng.integers(0, levels, (n, k)) + rng.integers(0, 2, (n, k)) * rng.uniform(0, 1, (n, k))
    y = np.round(rng.normal(-20.0, 5.0, n), int(rng.integers(0, 3)))
    forest = fr.fit_extra_trees(X, y, n_trees=n_trees, params=params, seed=seed)
    for t, tree in enumerate(forest.trees):
        alone, = fr._grow(X, y, params, fr._extra_splitter(params, [fr._stream(seed, t)]), 1)
        for a in ("feature", "threshold", "value"):
            assert getattr(tree, a).tobytes() == getattr(alone, a).tobytes()


def test_the_group_bound_does_not_change_the_forest(monkeypatch):
    """One tree per group, two groups of unequal size, or every tree in one
    group: the same trees in every bit."""
    X, y = _toy(n=150, seed=40, noise=0.5)
    hashes = set()
    for pairs in (1, 4 * 150, 1 << 30):  # groups of 1, of 4 (4 + 3), and of all 7
        monkeypatch.setattr(fr, "_GROW_PAIRS", pairs)
        f = fr.fit_extra_trees(X, y, n_trees=7, params=fr.TreeParams(min_samples_leaf=2),
                               seed=40)
        hashes.add(hashlib.sha1(b"".join(a.tobytes() for t in f.trees
                                         for a in (t.feature, t.threshold, t.value))).digest())
    assert len(hashes) == 1


def test_searching_size_classes_together_does_not_change_a_tree(monkeypatch):
    """CART searches each power-of-two size class on its own, or a small class
    with the next one, or every class of a depth together: the same tree in
    every bit."""
    X, y = _toy(n=300, seed=42, noise=0.5)
    X = np.round(X, 1)  # ties, which the padded sort must keep in order
    hashes = set()
    for slots in (0, fr._MERGE_SLOTS, 1 << 30):
        monkeypatch.setattr(fr, "_MERGE_SLOTS", slots)
        for params in (fr.TreeParams(), fr.TreeParams(min_samples_leaf=3)):
            t = fr.fit_cart(X, y, params)
            hashes.add((params, hashlib.sha1(b"".join(
                a.tobytes() for a in (t.feature, t.threshold, t.value))).digest()))
    assert len(hashes) == 2


def test_growth_memory_is_bounded_by_the_group(monkeypatch):
    """An ensemble grows a group of trees at a time: with one tree per group,
    the traced peak is the trees and one tree's depth arrays, not a depth of
    the whole ensemble's (tree, row, feature) cuts."""
    X, y = _toy(n=4000, k=4, seed=41)
    params = fr.TreeParams(max_depth=4)  # small trees: the depth arrays dominate
    peaks = []
    for pairs in (len(y), 1 << 30):
        monkeypatch.setattr(fr, "_GROW_PAIRS", pairs)
        tracemalloc.start()
        try:
            fr.fit_extra_trees(X, y, n_trees=16, params=params, seed=41)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    whole = 16 * X.nbytes  # one (tree, row, feature) float64 array of all 16 trees: 2 MB
    assert peaks[0] < whole // 2 and peaks[1] > whole


# ---------------------------------------------------------------------------
# AdaBoost.R2
# ---------------------------------------------------------------------------

def test_weighted_median_examples():
    assert fr.weighted_median([0.0, 1.0, 2.0], [1.0, 1.0, 3.0]) == 2.0
    assert fr.weighted_median([5.0], [0.7]) == 5.0
    assert fr.weighted_median([3.0, 1.0, 2.0], [1.0, 1.0, 1.0]) == 2.0
    with pytest.raises(ValueError):
        fr.weighted_median([], [])
    with pytest.raises(ValueError):
        fr.weighted_median([1.0, 2.0], [-1.0, 2.0])


def test_weighted_median_columns():
    """A (members, rows) matrix gets one median per column, each equal to the
    1-D median of that column."""
    v = np.array([[0.0, 5.0], [1.0, 4.0], [2.0, 3.0]])
    w = [1.0, 1.0, 3.0]
    np.testing.assert_array_equal(fr.weighted_median(v, w), [2.0, 3.0])
    rng = np.random.default_rng(8)
    v = rng.normal(size=(7, 30))
    w = rng.uniform(0.1, 2.0, 7)
    cols = fr.weighted_median(v, w)
    assert cols.tolist() == [fr.weighted_median(v[:, j], w) for j in range(30)]
    with pytest.raises(ValueError):
        fr.weighted_median(v, w[:3])


def test_adaboost_perfect_first_round():
    """A round with zero loss on the original rows stops boosting immediately.

    The base fits a resample, so the sure way to be perfect everywhere is a
    constant target: every resample yields the same single-leaf trees.
    """
    X, _ = _toy(n=60, seed=15)
    y = np.full(60, 4.25)
    f = fr.fit_adaboost_r2(X, y, n_estimators=10, base_n_trees=5, seed=15)
    assert f.n_members == 1
    assert f.tree_weights[0] == 1.0
    np.testing.assert_allclose(fr.predict_forest(f, X), y, atol=1e-12)


def test_adaboost_multiple_rounds_on_noisy_data():
    X, y = _toy(n=150, seed=16, noise=1.0)
    f = fr.fit_adaboost_r2(
        X, y, n_estimators=8, base_n_trees=3, params=fr.TreeParams(max_depth=3), seed=16
    )
    assert f.mode == "adaboost_r2"
    assert 1 <= f.n_members <= 8
    assert len(f.trees) == 3 * f.n_members
    assert np.all(f.tree_weights > 0)
    # held-out prediction lands inside the member range
    pts = X[:9]
    k = f.trees_per_member
    member = np.array([fr._predict_rows(fr._pack(f.trees[lo:lo + k]), pts)
                       for lo in range(0, len(f.trees), k)])
    out = fr.predict_forest(f, pts)
    assert np.all(out >= member.min(axis=0)) and np.all(out <= member.max(axis=0))


def test_adaboost_reweight_keeps_distribution():
    rng = np.random.default_rng(17)
    w = rng.uniform(0.1, 1.0, 50)
    w /= w.sum()
    loss = rng.uniform(0.0, 1.0, 50)
    beta = 0.3
    w2 = w * beta ** (1.0 - loss)
    w2 /= w2.sum()
    assert math.isclose(w2.sum(), 1.0, rel_tol=1e-12)
    assert np.all(w2 >= 0)
    # harder rows (higher loss) gain relative weight
    hard, easy = np.argmax(loss), np.argmin(loss)
    assert w2[hard] / w[hard] > w2[easy] / w[easy]


def test_adaboost_deterministic():
    X, y = _toy(n=100, seed=18, noise=0.5)
    kw = dict(n_estimators=4, base_n_trees=2, params=fr.TreeParams(max_depth=4), seed=19)
    a = fr.fit_adaboost_r2(X, y, **kw)
    b = fr.fit_adaboost_r2(X, y, **kw)
    np.testing.assert_array_equal(a.tree_weights, b.tree_weights)
    np.testing.assert_array_equal(
        fr.predict_forest(a, X[:20]), fr.predict_forest(b, X[:20])
    )


def test_adaboost_needs_two_rows():
    with pytest.raises(ValueError):
        fr.fit_adaboost_r2(np.array([[1.0]]), np.array([2.0]))


# ---------------------------------------------------------------------------
# Inputs every fitter refuses, and growth that does not depend on the machine
# ---------------------------------------------------------------------------

_FITTERS = {
    "cart": lambda X, y: fr.fit_cart(X, y),
    "xt": lambda X, y: fr.fit_extra_trees(X, y, n_trees=2, seed=1),
    "adaboost": lambda X, y: fr.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=1, seed=1),
}


@pytest.mark.parametrize("where", ["feature", "target"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("kind", sorted(_FITTERS))
def test_fitters_refuse_non_finite_input(kind, bad, where):
    X, y = _toy(n=30, seed=30)
    if where == "feature":
        X[7, 1] = bad
    else:
        y[7] = bad
    with pytest.raises(ValueError, match="feature column 1" if where == "feature" else "target"):
        _FITTERS[kind](X, y)


@pytest.mark.parametrize("kind", sorted(_FITTERS))
def test_fitters_refuse_a_feature_range_that_overflows(kind):
    """Both ends are finite, but max - min is not: no cut between them could be."""
    X, y = _toy(n=30, seed=31)
    X[3, 2], X[4, 2] = 1e308, -1e308
    with pytest.raises(ValueError, match="feature column 2 .* max - min overflows"):
        _FITTERS[kind](X, y)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("kind", sorted(_FITTERS))
def test_fitters_refuse_targets_whose_squared_sums_could_overflow(kind, sign):
    """Targets of 1e200 would overflow a node's squared target sum."""
    X, y = _toy(n=30, seed=32)
    y[5] = sign * 1e200
    with pytest.raises(ValueError, match=r"targets too large to score splits: n \* max\|y\|"):
        _FITTERS[kind](X, y)


@pytest.mark.parametrize("kind", sorted(_FITTERS))
def test_fitters_take_targets_just_under_the_bound(kind):
    """Targets within 1% of the largest allowed, all of one sign, so a node's
    target sum comes close to the bound: every split score stays finite (a
    warning would fail the test) and the tree still splits."""
    X, y = _toy(n=30, seed=33)
    y = (1.0 - 0.01 * (y - y.min()) / np.ptp(y)) * (fr._MAX_TARGET_MASS / len(y))
    model = _FITTERS[kind](X, y)
    trees = [model] if kind == "cart" else model.trees
    assert all(t.n_nodes > 1 and np.isfinite(t.value).all() for t in trees)


@pytest.mark.parametrize("field, value", [("max_depth", True), ("max_depth", 2.0),
                                          ("min_samples_split", 2.5), ("min_samples_leaf", 1.5),
                                          ("max_depth", 0), ("min_samples_split", 1),
                                          ("min_samples_leaf", 0)])
def test_tree_params_take_integers_only(field, value):
    # a value of another type is refused by its type hint, an int below the
    # field's least value by the range check
    message = (f"TreeParams {field} must be an int, got {value!r}" if type(value) is not int
               else f"{field} must be an int >= ., got {value!r}")
    with pytest.raises(ValueError, match=message):
        fr.TreeParams(**{field: value})


_FIT_AND_HASH = """
import hashlib
import numpy as np
from lumenrem import forest as fr
rng = np.random.default_rng(42)
X = np.round(rng.uniform(0.0, 5.0, (300, 3)), 2)
y = X[:, 0] ** 2 - 2.0 * X[:, 1] + rng.normal(size=300)
trees = [fr.fit_cart(X, y), *fr.fit_extra_trees(X, y, n_trees=5, seed=1).trees,
         *fr.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=2, seed=2).trees]
for t in trees:
    arrays = (t.feature, t.threshold, t.left, t.right, t.value)
    print(hashlib.sha1(b"".join(a.tobytes() for a in arrays)).hexdigest())
"""


def test_growth_does_not_depend_on_the_thread_count():
    """A CART tree, 5 Extra Trees and a 2 x 2 AdaBoost, grown in a process with
    one BLAS thread and in one with two, hash the same."""
    src = str(Path(fr.__file__).resolve().parents[1])
    runs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        runs.append(subprocess.run([sys.executable, "-c", _FIT_AND_HASH], env=env, check=True,
                                   capture_output=True, text=True, timeout=300).stdout.split())
    assert len(runs[0]) >= 8
    assert runs[0] == runs[1]


# sha1 of every tree's feature, threshold and value bytes and every AdaBoost.R2
# member weight, over the fits below, as trees grew one at a time with CART
# searching each distinct node size on its own
_GROWTH_SHA1 = "a66b2fd97df2e13377604f0ed73537ca38cc4a12"


def test_growth_keeps_its_bits():
    """CART, 6 Extra Trees and a 4 x 3 AdaBoost.R2 on continuous data, on the
    same features rounded to integers (many ties, which a sort must keep in
    order for the prefix sums to keep their bits), and on rounded features
    and targets, under the default stopping rules, max_depth=3, and
    min_samples_leaf=3 with min_samples_split=5."""
    rng = np.random.default_rng(19)
    X = rng.uniform(0.0, 4.0, (300, 3))
    y = X[:, 0] ** 2 - 2.0 * X[:, 1] + 0.5 * rng.normal(size=300)
    h = hashlib.sha1()
    for data in ((X, y), (np.round(X), y), (np.round(X), np.round(y))):
        for params in (fr.TreeParams(), fr.TreeParams(max_depth=3),
                       fr.TreeParams(min_samples_split=5, min_samples_leaf=3)):
            boost = fr.fit_adaboost_r2(*data, n_estimators=4, base_n_trees=3, params=params,
                                       seed=3)
            for t in (fr.fit_cart(*data, params),
                      *fr.fit_extra_trees(*data, n_trees=6, params=params, seed=2).trees,
                      *boost.trees):
                for a in (t.feature, t.threshold, t.value):
                    h.update(a.tobytes())
            h.update(boost.tree_weights.tobytes())
    assert h.hexdigest() == _GROWTH_SHA1


def test_adaboost_builds_and_checks_one_forest(monkeypatch):
    """An AdaBoost.R2 fit builds one forest, the final one, so each of its
    trees is checked once; no round's base ensemble is built as a forest, and
    no resample is checked again as training data."""
    rng = np.random.default_rng(23)
    X = rng.uniform(0.0, 4.0, (200, 3))
    y = X[:, 0] - X[:, 1] + 0.1 * rng.normal(size=200)
    counts = {"forests": 0, "checked": 0, "training": 0}

    def count(key, fn):
        def wrapped(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def check(trees, n_features):
        counts["checked"] += len(trees)
        return check_trees(trees, n_features)

    check_trees = fr._check_trees
    monkeypatch.setattr(fr.Forest, "__post_init__", count("forests", fr.Forest.__post_init__))
    monkeypatch.setattr(fr, "_check_trees", check)
    monkeypatch.setattr(fr, "_training_arrays", count("training", fr._training_arrays))
    boost = fr.fit_adaboost_r2(X, y, n_estimators=6, base_n_trees=3, seed=4)
    assert boost.n_members > 1
    assert counts == {"forests": 1, "checked": len(boost.trees), "training": 1}


@pytest.mark.parametrize("route_pairs", [1, 7, 1 << 18])
def test_ensemble_mean_is_an_extra_trees_forests_prediction(monkeypatch, route_pairs):
    """The mean an AdaBoost.R2 round scores with (`_predict_rows` on the
    round's packed trees) has the bits `predict_forest` gives the same trees
    as an Extra Trees forest, whatever the row blocks."""
    rng = np.random.default_rng(24)
    X = rng.uniform(0.0, 4.0, (150, 3))
    y = X[:, 0] * X[:, 2] + 0.1 * rng.normal(size=150)
    forest = fr.fit_extra_trees(X, y, n_trees=5, seed=6)
    want = fr.predict_forest(forest, X)
    monkeypatch.setattr(fr, "_ROUTE_PAIRS", route_pairs)
    assert fr._predict_rows(fr._pack(forest.trees), X).tolist() == want.tolist()


# ---------------------------------------------------------------------------
# Prediction mechanics
# ---------------------------------------------------------------------------

def test_hand_built_tree_routing():
    # root: x0 < 1 ? leaf(5) : (x1 < 2 ? leaf(-1) : leaf(3)), numbered breadth-first
    tree = fr.Tree(
        feature=[0, -1, 1, -1, -1],
        threshold=[1.0, np.nan, 2.0, np.nan, np.nan],
        value=[np.nan, 5.0, np.nan, -1.0, 3.0],
    )
    assert tree.left.tolist() == [1, -1, 3, -1, -1]
    assert tree.right.tolist() == [2, -1, 4, -1, -1]
    pts = np.array(
        [[0.5, 9.0], [1.0, 1.9], [1.0, 2.0], [2.0, -4.0], [0.99, 2.0]]
    )
    np.testing.assert_array_equal(tree.predict(pts), [5.0, -1.0, 3.0, -1.0, 5.0])
    assert [_walk_tree(tree, p) for p in pts] == [5.0, -1.0, 3.0, -1.0, 5.0]


def _walk_tree(t, x) -> float:
    """Reference walk of one tree over its own arrays: from the root, to the
    left child when x < threshold and to the right one otherwise (NaN too),
    down to a leaf."""
    i = 0
    while t.feature[i] >= 0:
        i = t.left[i] if x[t.feature[i]] < t.threshold[i] else t.right[i]
    return float(t.value[i])


def test_single_row_sum_starts_from_the_first_tree():
    """A walked row sums its trees from the first leaf value, as the batch's
    cumsum does, so leaves of -0.0 give -0.0 alone and in a batch."""
    stump = fr.Tree(feature=[0, -1, -1], threshold=[0.5, np.nan, np.nan],
                    value=[0.0, -0.0, -0.0])
    for kw in (dict(mode="extra_trees"),
               dict(mode="adaboost_r2", trees_per_member=2, tree_weights=[1.0])):
        f = fr.Forest(trees=(stump, stump), n_features=1, params=fr.TreeParams(), seed=0, **kw)
        alone = fr.predict_forest(f, [0.1])
        assert math.copysign(1.0, alone) == -1.0
        assert np.float64(alone).tobytes() == fr.predict_forest(f, [[0.1], [0.9]])[0].tobytes()


@st.composite
def _small_forests(draw):
    """A forest of any mode with 1 to 12 trees and random stopping rules,
    grown on a few rows whose features lie on a coarse grid, so many cuts
    fall on grid values; fewer rows than `min_samples_split` make a tree a
    single root leaf."""
    n, k = draw(st.integers(2, 40)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 5, (n, k)) / 2.0
    y = rng.normal(size=n)
    params = draw(st.builds(fr.TreeParams, max_depth=st.none() | st.integers(1, 8),
                            min_samples_split=st.integers(2, 6),
                            min_samples_leaf=st.integers(1, 3)))
    mode = draw(st.sampled_from(("single", "extra_trees", "adaboost_r2")))
    if mode == "single":
        return fr.Forest(mode="single", trees=(fr.fit_cart(X, y, params),), n_features=k,
                         params=params, seed=0)
    if mode == "extra_trees":
        return fr.fit_extra_trees(X, y, n_trees=draw(st.integers(1, 12)), params=params,
                                  seed=seed)
    return fr.fit_adaboost_r2(X, y, n_estimators=draw(st.integers(1, 4)),
                              base_n_trees=draw(st.integers(1, 3)), params=params, seed=seed)


@settings(max_examples=100, deadline=None)
@given(f=_small_forests(), m=st.integers(2, 30), seed=st.integers(0, 2**32 - 1))
def test_packed_router_matches_each_trees_walk(f, m, seed):
    """Rows drawn from the grid, from every split threshold and NaN: the
    packed router gives each tree's walked leaf value bit for bit, and a row
    alone, as a 1-D row or a one-row batch, gets the bits it gets inside the
    batch."""
    cuts = np.concatenate([t.threshold[t.feature >= 0] for t in f.trees])
    pool = np.concatenate([np.arange(5) / 2.0, cuts, [np.nan]])
    X = np.random.default_rng(seed).choice(pool, (m, f.n_features))
    packed = fr._route(*f._packed, X)
    walked = np.array([[_walk_tree(t, x) for x in X] for t in f.trees])
    assert packed.tobytes() == walked.tobytes()
    assert np.array([t.predict(X) for t in f.trees]).tobytes() == walked.tobytes()
    batch = fr.predict_forest(f, X)
    for i in range(m):
        assert np.float64(fr.predict_forest(f, X[i])).tobytes() == batch[i].tobytes()
        assert fr.predict_forest(f, X[i:i + 1]).tobytes() == batch[i:i + 1].tobytes()


def _max_depth(t) -> int:
    return max(_node_rows(t, np.empty((0, t.feature.max() + 1)))[1].values())


@settings(max_examples=60, deadline=None)
@given(f=_small_forests(), m=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
def test_every_pair_reaches_the_leaf_a_walk_reaches_whatever_the_level_block(f, m, seed):
    """Each leaf's value replaced by its node's number in the flat layout:
    the router sends every (tree, row) pair to the node `_walk_tree` reaches,
    with the pairs dropped every level, every `_ROUTE_LEVELS` levels, and
    only once, after a block longer than the deepest tree."""
    sizes = np.cumsum([0] + [t.n_nodes for t in f.trees])
    trees = [fr.Tree(t.feature, t.threshold, np.arange(lo, hi, dtype=np.float64))
             for t, lo, hi in zip(f.trees, sizes, sizes[1:])]
    cuts = np.concatenate([t.threshold[t.feature >= 0] for t in trees])
    pool = np.concatenate([np.arange(5) / 2.0, cuts, [np.nan, np.inf, -np.inf]])
    X = np.random.default_rng(seed).choice(pool, (m, f.n_features))
    walked = np.array([[_walk_tree(t, x) for x in X] for t in trees])
    deepest = max(_max_depth(t) for t in trees)
    for levels in (fr._ROUTE_LEVELS, 1, deepest + 1):
        with mock.patch.object(fr, "_ROUTE_LEVELS", levels):
            assert fr._route(*fr._pack(trees), X).tolist() == walked.tolist(), levels


def test_a_pickled_forest_predicts_as_the_original():
    X, y = _toy(n=60, seed=37)
    f = fr.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=2, seed=37)
    back = pickle.loads(pickle.dumps(f))
    assert fr.predict_forest(back, X).tobytes() == fr.predict_forest(f, X).tobytes()
    assert [fr.predict_forest(back, x) for x in X] == [fr.predict_forest(f, x) for x in X]


def test_routing_block_size_does_not_change_predictions(monkeypatch):
    """Same bits whatever the number of (tree, row) pairs per routing block."""
    X, y = _toy(n=120, seed=30, noise=0.3)
    models = [fr.Forest(mode="single", trees=(fr.fit_cart(X, y),), n_features=3,
                        params=fr.TreeParams(), seed=0),
              fr.fit_extra_trees(X, y, n_trees=4, seed=30),
              fr.fit_adaboost_r2(X, y, n_estimators=3, base_n_trees=2, seed=31)]
    pts = np.random.default_rng(32).uniform(0.0, 4.0, (50, 3))
    default = [fr.predict_forest(f, pts) for f in models]
    for pairs in (1, 7):  # one row per block, and blocks that split the rows unevenly
        monkeypatch.setattr(fr, "_ROUTE_PAIRS", pairs)
        for f, out in zip(models, default):
            np.testing.assert_array_equal(fr.predict_forest(f, pts), out)


def test_single_row_takes_the_router_from_the_crossover_on(monkeypatch):
    """A single row walks each tree of a forest with fewer than `_WALK_TREES`
    trees and takes `_route` from there on; it gets the bits it gets inside a
    batch either way."""
    X, y = _toy(n=120, seed=35, noise=0.3)
    pts = np.random.default_rng(36).uniform(0.0, 4.0, (20, 3))
    routed = []
    route = fr._route
    monkeypatch.setattr(fr, "_route", lambda *a: routed.append(len(a[-1])) or route(*a))
    for n_trees, walks in ((fr._WALK_TREES - 1, True), (fr._WALK_TREES, False)):
        f = fr.fit_extra_trees(X, y, n_trees=n_trees, seed=n_trees)
        batch = fr.predict_forest(f, pts)
        routed.clear()
        alone = np.array([fr.predict_forest(f, p) for p in pts])
        assert routed == ([] if walks else [1] * len(pts))
        assert alone.tobytes() == batch.tobytes()


def test_large_predict_memory_is_bounded_by_the_routing_block(monkeypatch):
    """A predict combines members a routing block of rows at a time: its
    traced peak is the output and one block's arrays, not the whole
    (trees, rows) matrix and its running sum."""
    X, y = _toy(n=120, seed=33, noise=0.3)
    f = fr.fit_extra_trees(X, y, n_trees=8, seed=33)
    pts = np.random.default_rng(34).uniform(0.0, 4.0, (100_000, 3))
    monkeypatch.setattr(fr, "_ROUTE_PAIRS", 1 << 14)  # 2,048 rows of 8 trees a block
    tracemalloc.start()
    try:
        out = fr.predict_forest(f, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    whole = 8 * len(pts) * 8  # one (trees, rows) float64 matrix: 6.4 MB
    assert peak < out.nbytes + whole // 2
    monkeypatch.setattr(fr, "_ROUTE_PAIRS", 1 << 18)
    np.testing.assert_array_equal(fr.predict_forest(f, pts), out)


def test_tree_predict_refuses_rows_without_its_split_features():
    tree = fr.Tree([2, -1, -1], [0.5, np.nan, np.nan], [np.nan, 1.0, 2.0])
    np.testing.assert_array_equal(tree.predict([[0, 0, 0.4], [0, 0, 0.6]]), [1.0, 2.0])
    with pytest.raises(ValueError, match=r"tree splits on feature 2, got shape \(2, 2\)"):
        tree.predict(np.zeros((2, 2)))


def test_threshold_scaling_invariance():
    X, y = _toy(n=70, seed=20)
    f = fr.fit_extra_trees(X, y, n_trees=3, seed=20)
    doubled = fr.Forest(
        mode=f.mode,
        trees=tuple(
            fr.Tree(t.feature, t.threshold * 2.0, t.value) for t in f.trees
        ),
        n_features=f.n_features,
        params=f.params,
        seed=f.seed,
    )
    np.testing.assert_array_equal(
        fr.predict_forest(f, X[:15]), fr.predict_forest(doubled, X[:15] * 2.0)
    )


def test_predict_arity_mismatch():
    X, y = _toy(n=30, seed=21)
    f = fr.fit_extra_trees(X, y, n_trees=1, seed=21)
    with pytest.raises(ValueError):
        fr.predict_forest(f, np.zeros((4, 2)))


def test_predict_scalar_row():
    X, y = _toy(n=40, seed=22)
    f = fr.fit_extra_trees(X, y, n_trees=3, seed=22)
    out = fr.predict_forest(f, X[5])
    assert isinstance(out, float)
    assert out == fr.predict_forest(f, X[5:6])[0]


@pytest.mark.parametrize("mode", ["single", "extra_trees"])
@pytest.mark.parametrize("field, value, message", [
    ("trees_per_member", 2, "forests take trees_per_member 1, got 2"),
    ("tree_weights", [1.0], "forests take no tree_weights"),
], ids=["trees_per_member", "tree_weights"])
def test_only_adaboost_holds_member_fields(tmp_path, capsys, mode, field, value, message):
    """`trees_per_member` and `tree_weights` combine an AdaBoost.R2 forest's
    trees by member, and no other forest's predict reads them: any other
    forest that carries them is refused when built, its model file fails to
    load naming the file, and `lumenrem predict` on that file exits 2."""
    message = f"{mode} {message}"
    stump = fr.Tree(feature=[0, -1, -1], threshold=[0.5, np.nan, np.nan], value=[0.0, -1.0, 1.0])
    with pytest.raises(ValueError, match=re.escape(message)):
        fr.Forest(mode=mode, trees=(stump, stump), n_features=3, params=fr.TreeParams(), seed=0,
                  **{field: value})
    p = tmp_path / "m.json"
    stored = value if field == "trees_per_member" else _array(value)
    p.write_text(json.dumps(_forest_doc(_TWO_STUMPS, mode=mode, **{field: stored})))
    with pytest.raises(ModelFormatError, match=re.escape(f"{p} is malformed: {message}")):
        fr.load_forest(p)
    out = tmp_path / "p.csv"
    assert cli.main(["predict", "--model", str(p), "--at", "0.5,0.5,0.5", "--out", str(out)]) == 2
    assert f"error: {p} is malformed: {message}" in capsys.readouterr().err
    assert not out.exists() and not list(tmp_path.glob("*.run.meta.json"))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_forest_save_load_round_trip(tmp_path):
    X, y = _toy(n=80, seed=23, noise=0.4)
    f = fr.fit_adaboost_r2(
        X, y, n_estimators=3, base_n_trees=2, params=fr.TreeParams(max_depth=4), seed=23
    )
    p = tmp_path / "f.json"
    fr.save_forest(f, p)
    back = fr.load_forest(p)
    assert back.mode == f.mode
    assert back.trees_per_member == f.trees_per_member
    np.testing.assert_array_equal(fr.predict_forest(back, X), fr.predict_forest(f, X))
    doc = json.loads(p.read_text())
    assert "meta" not in doc
    assert sorted(doc["trees"]) == ["feature", "nodes", "threshold", "value"]
    fr.save_forest(back, tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == p.read_bytes()


# sha1 of each model's trees' feature, threshold, left, right and value bytes,
# as growth wrote them when a tree stored its children: the same trees, saved
# and loaded, derive the same children from breadth-first order
_GROWN_TREES_SHA1 = {
    "cart": "c37b6c4e899c41fddf079858d8c0d0c1a0ba724c",
    "xt": "6ce6f5f26b458f60b14025de83d2bb21d19827f0",
    "adaboost": "9bdec7819ee4a72ddcf8dca4366a2a8f7d651972",
}


def _grown_models():
    rng = np.random.default_rng(42)
    X = np.round(rng.uniform(0.0, 5.0, (300, 3)), 2)
    y = X[:, 0] ** 2 - 2.0 * X[:, 1] + rng.normal(size=300)
    return {
        "cart": fr.Forest(mode="single", trees=(fr.fit_cart(X, y),), n_features=3,
                          params=fr.TreeParams(), seed=0),
        "xt": fr.fit_extra_trees(X, y, n_trees=5, seed=1),
        "adaboost": fr.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=2, seed=2),
    }


def _assert_loaded_as_grown(grown, loaded):
    """A loaded tree has the grown tree's features, thresholds, children and
    leaf values in every bit, and a NaN value at each split, which a model
    file does not store."""
    assert len(loaded) == len(grown)
    for g, t in zip(grown, loaded):
        for name in ("feature", "threshold", "left", "right"):
            assert getattr(t, name).tobytes() == getattr(g, name).tobytes(), name
        leaf = g.feature < 0
        assert t.value[leaf].tobytes() == g.value[leaf].tobytes()
        assert np.isnan(t.value[~leaf]).all()


def test_loaded_trees_derive_the_children_growth_numbered(tmp_path):
    for kind, model in _grown_models().items():
        h = hashlib.sha1()
        for t in model.trees:
            for a in (t.feature, t.threshold, t.left, t.right, t.value):
                h.update(a.tobytes())
        assert h.hexdigest() == _GROWN_TREES_SHA1[kind], kind
        fr.save_forest(model, tmp_path / "m.json")
        _assert_loaded_as_grown(model.trees, fr.load_forest(tmp_path / "m.json").trees)


@settings(max_examples=100, deadline=None)
@given(model=_small_forests(), seed=st.integers(0, 2**32 - 1))
def test_a_saved_forest_loads_with_its_bits(model, seed):
    """Saved and loaded, a forest keeps its fields, its trees' features,
    thresholds, children and leaf values in every bit (a NaN value at each
    split), and its predictions for a batch and for each row alone, rows
    drawn from the grid, every split threshold and NaN; saved again, it
    gives the same bytes, and a pickled copy predicts the same batch."""
    with tempfile.TemporaryDirectory() as d:
        fr.save_forest(model, Path(d, "a.json"))
        back = fr.load_forest(Path(d, "a.json"))
        fr.save_forest(back, Path(d, "b.json"))
        assert Path(d, "b.json").read_bytes() == Path(d, "a.json").read_bytes()
    for name in ("mode", "n_features", "params", "seed", "trees_per_member"):
        assert getattr(back, name) == getattr(model, name), name
    if model.tree_weights is not None:
        assert back.tree_weights.tobytes() == model.tree_weights.tobytes()
    _assert_loaded_as_grown(model.trees, back.trees)
    cuts = np.concatenate([t.threshold[t.feature >= 0] for t in model.trees])
    pool = np.concatenate([np.arange(5) / 2.0, cuts, [np.nan]])
    rows = np.random.default_rng(seed).choice(pool, (9, model.n_features))
    batch = fr.predict_forest(model, rows).tobytes()
    assert fr.predict_forest(back, rows).tobytes() == batch
    assert fr.predict_forest(pickle.loads(pickle.dumps(back)), rows).tobytes() == batch
    for row in rows:
        assert (np.float64(fr.predict_forest(back, row)).tobytes()
                == np.float64(fr.predict_forest(model, row)).tobytes())


# sha1 of a saved model file's bytes, for the models of `_grown_models`
_FILE_SHA1 = {
    "xt": "d932549f61159acb2df6786f218810faf83cdb3a",
    "adaboost": "945a0ae1db1641145c1b8083199bae391e924818",
}


def test_a_grown_forest_file_keeps_its_bytes(tmp_path):
    """A change to the forest file format, or to the bits it stores, shows here."""
    models = _grown_models()
    for kind, sha1 in _FILE_SHA1.items():
        fr.save_forest(models[kind], tmp_path / "m.json")
        assert hashlib.sha1((tmp_path / "m.json").read_bytes()).hexdigest() == sha1, kind


def test_forest_load_errors(tmp_path):
    p = tmp_path / "f.json"
    p.write_text("{not json")
    with pytest.raises(ModelFormatError):
        fr.load_forest(p)
    # 3.0 equals 3 in Python, but only the integer 3 is version 3
    for version in (99, 1, 2, True, 3.0, "3"):
        p.write_text(json.dumps({"format_version": version, "kind": "forest"}))
        with pytest.raises(ModelVersionError, match=re.escape(f"version {version!r}, expected 3")):
            fr.load_forest(p)
    # the kind is checked before the version, which is the kind's own
    p.write_text(json.dumps({"format_version": MODEL_FORMAT_VERSIONS["forest"], "kind": "mlp"}))
    with pytest.raises(ModelFormatError):
        fr.load_forest(p)


def _forest_doc(trees, **fields):
    doc = {"format_version": MODEL_FORMAT_VERSIONS["forest"], "kind": "forest",
           "mode": "extra_trees", "n_features": 3, "params": fr.TreeParams().to_dict(),
           "seed": 0, "trees_per_member": 1, "tree_weights": None, "trees": trees}
    doc.update(fields)
    return doc


def _array(values, dtype="<f8"):
    return _encode_array(np.asarray(values, dtype=dtype))


def _trees(feature, threshold, value, nodes=None, dtypes=("<i4", "<i2", "<f8", "<f8")):
    """The document of a forest's trees (`fr.Trees`): every node's feature,
    the split thresholds and the leaf values; `nodes` defaults to one tree
    holding every node."""
    nodes = [len(feature)] if nodes is None else nodes
    return dict(zip(("nodes", "feature", "threshold", "value"),
                    map(_array, (nodes, feature, threshold, value), dtypes)))


_NAN = float("nan")
_STUMP = _trees([0, -1, -1], [0.5], [-1.0, 1.0])
_TWO_STUMPS = _trees([0, -1, -1] * 2, [0.5] * 2, [-1.0, 1.0] * 2, nodes=[3, 3])


def test_hand_built_forest_file_loads(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(_forest_doc(_STUMP)))
    f = fr.load_forest(p)
    np.testing.assert_array_equal(fr.predict_forest(f, [[0.1, 0, 0], [0.9, 0, 0]]), [-1.0, 1.0])


def test_a_file_with_stored_children_is_refused(tmp_path):
    """The layouts written before a forest stored one array per field: a
    list of per-tree documents, with their children or without."""
    stump = {"feature": _array([0, -1, -1], "<i4"), "threshold": _array([0.5, _NAN, _NAN]),
             "value": _array([0.0, -1.0, 1.0])}
    children = {"left": _array([1, -1, -1], "<i4"), "right": _array([2, -1, -1], "<i4")}
    p = tmp_path / "f.json"
    for tree in (stump, {**stump, **children}):
        p.write_text(json.dumps(_forest_doc([tree])))
        with pytest.raises(ModelFormatError,
                           match=re.escape("a Trees document must be an object, got list")):
            fr.load_forest(p)


def test_a_version_2_forest_file_is_refused(monkeypatch, tmp_path, capsys):
    """A forest file as written before the forest's trees were stored one array
    per field: its version is refused before its layout is read."""
    monkeypatch.chdir(tmp_path)
    doc = _forest_doc([{"feature": _array([0, -1, -1], "<i4"),
                        "threshold": _array([0.5, _NAN, _NAN]),
                        "value": _array([0.0, -1.0, 1.0])}], format_version=2)
    Path("old.json").write_text(json.dumps(doc))
    message = "old.json has format version 2, expected 3"
    for load in (fr.load_forest, evalmap.load_any_model):
        with pytest.raises(ModelVersionError, match=message):
            load("old.json")
    assert cli.main(["predict", "--model", "old.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert message in capsys.readouterr().err
    assert not Path("p.csv").exists()


def _breadth_first(splits):
    """The feature array of the breadth-first tree whose nodes, in order, split
    (feature 0) or not as `splits` says; nodes past its end are leaves."""
    feature, waiting = [], 1
    for split in splits:
        if not waiting:
            break
        feature.append(0 if split else -1)
        waiting += 1 if split else -1
    return feature + [-1] * waiting


def _walk_reaches_every_node_once(feature) -> bool:
    """Walk from the root in pure Python, the k-th split node's children being
    nodes 2k + 1 and 2k + 2: False on a missing node or a node met twice."""
    children, k = {}, 0
    for i, f in enumerate(feature):
        if f >= 0:
            children[i], k = (2 * k + 1, 2 * k + 2), k + 1
    seen, todo = set(), [0]
    while todo:
        i = todo.pop()
        if i >= len(feature) or i in seen:
            return False
        seen.add(i)
        todo.extend(children.get(i, ()))
    return len(seen) == len(feature)


@settings(max_examples=300, deadline=None)
@given(feature=st.lists(st.integers(-1, 2), max_size=40)
       | st.lists(st.booleans(), max_size=19).map(_breadth_first))
@example(feature=[0, -1, 0, -1, -1])
@example(feature=[-1, 0, -1])
def test_check_tree_accepts_exactly_the_trees_a_walk_covers_once(feature):
    threshold = [0.5 if f >= 0 else _NAN for f in feature]
    tree = fr.Tree(feature, threshold, [0.0] * len(feature))
    if _walk_reaches_every_node_once(feature):
        fr._check_tree(tree, 3)
    else:
        with pytest.raises(ValueError):
            fr._check_tree(tree, 3)


def _refusal_alone(t):
    """The message a tree checked on its own gets, or None when it passes."""
    try:
        fr._check_tree(t, 3)
    except ValueError as e:
        return str(e)
    return None


@st.composite
def _hostile_trees(draw):
    feature = draw(st.lists(st.integers(-2, 3), max_size=9)
                   | st.lists(st.booleans(), max_size=9).map(_breadth_first))
    threshold = [draw(st.sampled_from((0.5, 0.5, _NAN))) if f >= 0 else _NAN for f in feature]
    value = draw(st.lists(st.sampled_from((0.0, 0.0, 0.0, math.inf)), min_size=len(feature),
                          max_size=len(feature)))
    if draw(st.integers(0, 9)) == 0:
        value = value[:-1] if value else [0.0]
    return fr.Tree(feature, threshold, value)


def _leaves_and_splits(feature, value=0.0):
    return fr.Tree(feature, [0.5 if f >= 0 else _NAN for f in feature], [value] * len(feature))


@settings(max_examples=300, deadline=None)
@given(trees=st.lists(_hostile_trees(), min_size=1, max_size=4))
# a good stump, then a split below a leaf root (its left child would be itself),
# then a tree with an infinite value
@example(trees=[_leaves_and_splits([0, -1, -1]), _leaves_and_splits([-1, 0, -1]),
                _leaves_and_splits([-1], math.inf)])
# a back edge after a tree whose value is infinite
@example(trees=[_leaves_and_splits([0, -1, -1], math.inf),
                _leaves_and_splits([0, -1, -1, 0, -1])])
# a ragged tree after an empty one
@example(trees=[_leaves_and_splits([]), fr.Tree([0, -1, -1], [0.5], [0.0] * 3)])
def test_a_forest_is_refused_as_its_first_bad_tree_alone(trees):
    """All trees are checked together, on their route layout: a forest is
    refused exactly when one of its trees is refused alone, and with the
    message the first such tree gets."""
    want = next(filter(None, map(_refusal_alone, trees)), None)
    if want is None:
        assert list(fr._check_trees(trees, 3)) == trees
    else:
        with pytest.raises(ValueError) as err:
            fr._check_trees(trees, 3)
        assert str(err.value) == want


_FEATURE_LIMIT = r"a split feature lies outside \[0, 3\)"
_NOT_FINITE_THRESHOLD = "a split threshold is not finite"
_NOT_FINITE_VALUE = "a leaf value is not finite"
_NOT_ABOVE = "a split node's derived left child is not numbered above it"
_STUMP_ARRAYS = ([0, -1, -1], [0.5], [-1.0, 1.0])


def _stump_with(**changes):
    """The stump's trees document with some arrays replaced: `feature`,
    `threshold`, `value` and `nodes` by their values, and `dtypes` by the
    dtypes all four are stored in."""
    arrays = [changes.pop(name, a) for name, a in zip(("feature", "threshold", "value"),
                                                      _STUMP_ARRAYS)]
    return _trees(*arrays, **changes)


def _wrong_dtype(name, dtype):
    dtypes = dict(zip(("nodes", "feature", "threshold", "value"), ("<i4", "<i2", "<f8", "<f8")))
    field = dtypes[name]
    dtypes[name] = dtype
    return (_forest_doc(_stump_with(dtypes=tuple(dtypes.values()))),
            re.escape(f"Trees.{name} has dtype '{dtype}', not its field's '{field}'"))


@pytest.mark.parametrize("doc, message", [
    # a split root with no children
    (_forest_doc(_trees([0], [0.5], [])), "a tree with 1 split nodes has 1 nodes, not 3"),
    # leaves the root never reaches
    (_forest_doc(_trees([-1, -1, -1], [], [0.0] * 3)),
     "a tree with 0 split nodes has 3 nodes, not 1"),
    # a split whose children would lie past the end
    (_forest_doc(_trees([0, 0, -1], [0.5, 0.5], [0.0])),
     "a tree with 2 split nodes has 3 nodes, not 5"),
    # a split below a leaf root: its children would be itself and the next node
    (_forest_doc(_trees([-1, 0, -1], [0.5], [0.0] * 2)), _NOT_ABOVE),
    # node 3 is the second split, so its left child would be node 3 itself: a back edge
    (_forest_doc(_trees([0, -1, -1, 0, -1], [0.5, 0.5], [0.0] * 3)), _NOT_ABOVE),
    (_forest_doc(_STUMP, trees_per_member=0), "trees_per_member must be >= 1, got 0"),
    (_forest_doc(_STUMP, mode="adaboost_r2", tree_weights=_array([_NAN])),
     "adaboost_r2 member weights must be finite"),
    # split on feature 3 of a 3-feature model
    (_forest_doc(_stump_with(feature=[3, -1, -1])), _FEATURE_LIMIT),
    (_forest_doc(_stump_with(feature=[0, -2, -1])), _FEATURE_LIMIT),
    (_forest_doc(_stump_with(threshold=[_NAN])), _NOT_FINITE_THRESHOLD),
    (_forest_doc(_trees([-1], [], [math.inf])), _NOT_FINITE_VALUE),
    # one threshold too few
    (_forest_doc(_stump_with(threshold=[])),
     re.escape("Trees.threshold holds 0 items, but Trees.feature has 1 split nodes")),
    (_forest_doc(_stump_with(feature=[[0, -1, -1]])),
     re.escape("Trees.feature is not one-dimensional")),
    (_forest_doc(_trees([], [], [], nodes=[0])), re.escape("Trees.nodes holds a node count below 1")),
    # a split feature that int16 does not hold
    (_forest_doc(_stump_with(feature=[2**40, -1, -1], dtypes=("<i4", "<i8", "<f8", "<f8"))),
     re.escape("Trees.feature has dtype '<i8', not its field's '<i2'")),
    *((_forest_doc(_STUMP, params={**fr.TreeParams().to_dict(), key: value}),
       re.escape(f"TreeParams {key} must be an int, got {value!r}"))
      for key, value in (("max_depth", True), ("max_depth", 2.0),
                         ("min_samples_split", 2.5), ("min_samples_leaf", 1.5))),
    (_forest_doc(_stump_with(nodes=[-1])), re.escape("Trees.nodes holds a node count below 1")),
    (_forest_doc(_stump_with(nodes=[4])),
     re.escape("Trees.nodes counts 4 nodes, but Trees.feature holds 3")),
    (_forest_doc(_stump_with(nodes=[2])),
     re.escape("Trees.nodes counts 2 nodes, but Trees.feature holds 3")),
    (_forest_doc(_stump_with(nodes=[3, 1])),
     re.escape("Trees.nodes counts 4 nodes, but Trees.feature holds 3")),
    (_forest_doc(_stump_with(threshold=[0.5, 0.5])),
     re.escape("Trees.threshold holds 2 items, but Trees.feature has 1 split nodes")),
    (_forest_doc(_stump_with(value=[0.0])),
     re.escape("Trees.value holds 1 items, but Trees.feature has 2 leaves")),
    (_forest_doc(_stump_with(value=[0.0] * 3)),
     re.escape("Trees.value holds 3 items, but Trees.feature has 2 leaves")),
    (_forest_doc(_stump_with(value=[0.0, _NAN])), _NOT_FINITE_VALUE),
    (_forest_doc({**_STUMP, "nodes": {**_STUMP["nodes"], "shape": [10**12]}}),
     re.escape("Trees.nodes declares shape [1000000000000], but holds 1 items")),
    _wrong_dtype("nodes", "<i8"),
    _wrong_dtype("feature", "<i4"),
    _wrong_dtype("threshold", "<f4"),
    _wrong_dtype("value", "<f4"),
    (_forest_doc(_STUMP, n_features=40000), re.escape("n_features must lie in [1, 32767], got 40000")),
], ids=["split-root-alone", "unreached-leaves", "child-past-end", "split-below-a-leaf",
        "back-edge", "zero-trees-per-member", "nan-member-weight", "feature-out-of-range",
        "feature-below-leaf-mark", "nan-threshold", "inf-value", "ragged-arrays",
        "two-dimensional-arrays", "empty-tree", "int32-overflow", "bool-max-depth",
        "float-max-depth", "float-min-samples-split", "float-min-samples-leaf",
        "negative-node-count", "counts-past-the-nodes", "counts-short-of-the-nodes",
        "two-counts-for-one-tree", "one-threshold-too-many", "one-value-too-few",
        "one-value-too-many", "nan-leaf-value", "huge-nodes-shape", "int64-nodes",
        "int32-features", "float32-thresholds", "float32-values", "too-many-features"])
def test_load_rejects_hostile_forest_files(monkeypatch, tmp_path, capsys, doc, message):
    """Each file fails at load time, naming the file; none is ever handed to
    predict, and `lumenrem predict` on it exits 2 and writes nothing."""
    monkeypatch.chdir(tmp_path)
    Path("f.json").write_text(json.dumps(doc))
    for load in (fr.load_forest, evalmap.load_any_model):
        with pytest.raises(ModelFormatError, match="f.json is malformed: .*" + message):
            load("f.json")
    assert cli.main(["predict", "--model", "f.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert re.search("f.json is malformed: .*" + message, capsys.readouterr().err)
    assert not list(Path().glob("p.csv*"))


@pytest.mark.parametrize("field, value", [
    ("trees_per_member", 2.0), ("n_features", 3.0), ("seed", 1.5), ("n_features", True),
    ("seed", None), ("trees_per_member", "2"),
])
def test_forest_scalar_fields_are_python_ints(monkeypatch, tmp_path, capsys, field, value):
    """A float, a bool or any other value that is not an int is refused in
    each of the forest's int fields, naming the field, whether the forest is
    built in Python or loaded; `lumenrem predict` on an AdaBoost.R2 file so
    edited exits 2 naming the file and the field, and writes nothing."""
    monkeypatch.chdir(tmp_path)
    message = f"Forest {field} must be an int, got {value!r}"
    fields = {"n_features": 3, "seed": 0, "trees_per_member": 2, field: value}
    with pytest.raises(ValueError, match=re.escape(message)):
        fr.Forest(mode="adaboost_r2", trees=(fr.Tree([-1], [_NAN], [1.0]),) * 2,
                  params=fr.TreeParams(), tree_weights=np.ones(1), **fields)
    X, y = _toy(n=40, seed=5)
    fr.save_forest(fr.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=2, seed=5), "m.json")
    doc = json.loads(Path("m.json").read_text())
    doc[field] = value
    Path("m.json").write_text(json.dumps(doc))
    expected = f"m.json is malformed: {message}"
    with pytest.raises(ModelFormatError, match=re.escape(expected)):
        evalmap.load_any_model("m.json")
    assert cli.main(["predict", "--model", "m.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert expected in capsys.readouterr().err
    assert not list(Path().glob("p.csv*"))
