import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumenrem import evalmap
from lumenrem import forest as fr
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


def _exhaustive_best_root(X, y, msl=1):
    """Brute-force the best (feature, threshold) by variance reduction."""
    n = len(y)
    sse = lambda v: float(np.sum((v - v.mean()) ** 2)) if len(v) else 0.0
    parent = sse(y)
    best = None
    for f in range(X.shape[1]):
        for t in _midpoints(np.unique(X[:, f])):
            m = X[:, f] < t
            nl = int(m.sum())
            if nl < msl or n - nl < msl or nl == 0 or nl == n:
                continue
            red = parent - sse(y[m]) - sse(y[~m])
            if best is None or red > best[0] + 1e-9:
                best = (red, f, t)
    return best


def _midpoints(sorted_unique):
    return [(a + b) / 2.0 for a, b in zip(sorted_unique, sorted_unique[1:])]


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
    with pytest.raises(ValueError):
        fr.fit_cart(np.empty((0, 3)), np.empty(0))


def test_cart_root_matches_exhaustive_search():
    for trial in range(50):
        rng = np.random.default_rng(4000 + trial)
        n = int(rng.integers(5, 200))
        k = int(rng.integers(1, 4))
        X = np.round(rng.uniform(0, 10, (n, k)), 2)  # duplicates likely
        y = rng.normal(size=n)
        tree = fr.fit_cart(X, y)
        want = _exhaustive_best_root(X, y)
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
    # each node's rows, from the split conditions on its path from the root
    rows = {0: np.ones(n, dtype=bool)}
    order = [0]
    for node in order:
        f = tree.feature[node]
        if f >= 0:
            below = X[:, f] < tree.threshold[node]
            for child, mask in ((tree.left[node], below), (tree.right[node], ~below)):
                assert child not in rows, "a node with two parents"
                rows[child] = rows[node] & mask
                order.append(child)
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
    member = fr._member_predictions(f, pts)
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
# Prediction mechanics
# ---------------------------------------------------------------------------

def test_hand_built_tree_routing():
    # root: x0 < 1 ? leaf(5) : (x1 < 2 ? leaf(-1) : leaf(3))
    tree = fr.Tree(
        feature=[0, -1, 1, -1, -1],
        threshold=[1.0, np.nan, 2.0, np.nan, np.nan],
        left=[1, -1, 3, -1, -1],
        right=[2, -1, 4, -1, -1],
        value=[np.nan, 5.0, np.nan, -1.0, 3.0],
    )
    pts = np.array(
        [[0.5, 9.0], [1.0, 1.9], [1.0, 2.0], [2.0, -4.0], [0.99, 2.0]]
    )
    np.testing.assert_array_equal(tree.predict(pts), [5.0, -1.0, 3.0, -1.0, 5.0])
    assert tree.predict_row(pts[2]) == 3.0


def test_threshold_scaling_invariance():
    X, y = _toy(n=70, seed=20)
    f = fr.fit_extra_trees(X, y, n_trees=3, seed=20)
    doubled = fr.Forest(
        mode=f.mode,
        trees=tuple(
            fr.Tree(t.feature, t.threshold * 2.0, t.left, t.right, t.value) for t in f.trees
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


def test_forest_load_errors(tmp_path):
    p = tmp_path / "f.json"
    p.write_text("{not json")
    with pytest.raises(ModelFormatError):
        fr.load_forest(p)
    p.write_text(json.dumps({"format_version": 99, "kind": "forest"}))
    with pytest.raises(ModelVersionError):
        fr.load_forest(p)
    p.write_text(json.dumps({"format_version": 1, "kind": "mlp"}))
    with pytest.raises(ModelFormatError):
        fr.load_forest(p)


def _forest_doc(trees, **fields):
    doc = {"format_version": 1, "kind": "forest", "mode": "extra_trees", "n_features": 3,
           "params": fr.TreeParams().to_dict(), "seed": 0, "trees_per_member": 1,
           "tree_weights": None, "meta": {}, "trees": trees}
    doc.update(fields)
    return doc


def _tree(feature, threshold, left, right, value):
    return {"feature": feature, "threshold": threshold, "left": left, "right": right,
            "value": value}


_NAN = float("nan")
_STUMP = _tree([0, -1, -1], [0.5, _NAN, _NAN], [1, -1, -1], [2, -1, -1], [0.0, -1.0, 1.0])


def test_hand_built_forest_file_loads(tmp_path):
    p = tmp_path / "f.json"
    p.write_text(json.dumps(_forest_doc([_STUMP])))
    f = fr.load_forest(p)
    np.testing.assert_array_equal(fr.predict_forest(f, [[0.1, 0, 0], [0.9, 0, 0]]), [-1.0, 1.0])


@pytest.mark.parametrize("doc", [
    # root whose children are itself: routing would never reach a leaf
    _forest_doc([_tree([0], [0.5], [0], [0], [1.0])]),
    # child pointing back above its parent
    _forest_doc([_tree([0, 0, -1], [0.5, 0.5, _NAN], [1, 0, -1], [2, 2, -1], [0.0, 0.0, 1.0])]),
    # child index past the end
    _forest_doc([_tree([0, -1, -1], [0.5, _NAN, _NAN], [1, -1, -1], [3, -1, -1], [0.0] * 3)]),
    _forest_doc([_STUMP], trees_per_member=0),
    _forest_doc([_STUMP], mode="adaboost_r2", tree_weights=[_NAN]),
    # split on feature 3 of a 3-feature model
    _forest_doc([_tree([3, -1, -1], [0.5, _NAN, _NAN], [1, -1, -1], [2, -1, -1], [0.0] * 3)]),
    _forest_doc([_tree([-1], [_NAN], [1], [-1], [0.0])]),  # leaf with a child
    _forest_doc([_tree([0, -1, -1], [_NAN] * 3, [1, -1, -1], [2, -1, -1], [0.0] * 3)]),
    _forest_doc([_tree([-1], [_NAN], [-1], [-1], [float("inf")])]),
    _forest_doc([_tree([0, -1, -1], [0.5, _NAN], [1, -1, -1], [2, -1, -1], [0.0] * 3)]),
    _forest_doc([_tree([], [], [], [], [])]),
    _forest_doc([_tree([0, -1, -1], [0.5, _NAN, _NAN], [1, -1, -1], [2**40, -1, -1], [0.0] * 3)]),
], ids=["cyclic-root", "back-edge", "child-past-end", "zero-trees-per-member", "nan-member-weight",
        "feature-out-of-range", "leaf-with-child", "nan-threshold", "inf-value",
        "ragged-arrays", "empty-tree", "int32-overflow"])
def test_load_rejects_hostile_forest_files(tmp_path, doc):
    """Each file fails at load time; none is ever handed to predict."""
    p = tmp_path / "f.json"
    p.write_text(json.dumps(doc))
    with pytest.raises(ModelFormatError, match="is malformed"):
        fr.load_forest(p)
    with pytest.raises(ModelFormatError, match="is malformed"):
        evalmap.load_any_model(p)
