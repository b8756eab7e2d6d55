"""Regression-tree baselines: a CART tree, Extra Trees, and AdaBoost.R2.

Trees store their nodes in flat parallel arrays (feature, threshold, value)
with -1 marking leaves, grown and numbered breadth-first, so the k-th split
node's children are nodes 2k + 1 and 2k + 2. One pass grows a whole depth of
every tree of a group: an Extra Trees ensemble's trees grow together, each
drawing from its own stream, and a CART tree is a group of one. CART
searches every midpoint between consecutive sorted distinct values, a depth's
nodes in power-of-two size classes; Extra Trees draws one uniform cut per
feature per node and keeps the best.
Both maximize the drop in squared error, scored from target sums alone, and
take their best valid cut even when it gains nothing. Cuts whose scores are
equal in every bit go to the lowest feature, then the lowest threshold; two
cuts that make the same or a mirrored partition may score differently in the
last bit, and then the higher score wins. Rows route left when
feature < threshold. Features are used raw —
axis-aligned splits don't care about scale, so trees skip the normalization
the MLP needs.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from ._doc import from_doc, read_model, to_doc, write_model
from .dataset import _stream

__all__ = [
    "TreeParams",
    "Tree",
    "Forest",
    "fit_cart",
    "fit_extra_trees",
    "fit_adaboost_r2",
    "predict_forest",
    "weighted_median",
    "save_forest",
    "load_forest",
]


@dataclass(frozen=True)
class TreeParams:
    """Stopping rules shared by all tree kinds."""

    max_depth: int | None = None
    min_samples_split: int = 2
    min_samples_leaf: int = 1

    def __post_init__(self):
        # a bool or a float passes the range checks, so the type is checked too
        for name, low in (("max_depth", 1), ("min_samples_split", 2), ("min_samples_leaf", 1)):
            v = getattr(self, name)
            if (type(v) is not int or v < low) and not (name == "max_depth" and v is None):
                raise ValueError(f"{name} must be an int >= {low}, got {v!r}")

    def to_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return from_doc(cls, d)


@dataclass(eq=False, slots=True)
class Tree:
    """One binary regression tree in flat-array form, numbered breadth-first.

    feature[i] is the split feature of node i, or -1 for a leaf; leaves keep
    their routed-target mean in value[i]. Node 0 is the root. The children
    follow from the order alone: the k-th split node's are nodes 2k + 1
    (`left`) and 2k + 2 (`right`), and a leaf's are -1.
    """

    feature: np.ndarray = field(metadata={"dtype": "<i4"})  # as a model file stores it
    threshold: np.ndarray
    value: np.ndarray
    left: np.ndarray = field(init=False)
    right: np.ndarray = field(init=False)

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)
        split = (self.feature >= 0).ravel()
        self.left = np.where(split, 2 * np.cumsum(split, dtype=np.int32) - 1, -1)
        self.right = np.where(split, self.left + 1, -1)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; rows go left when feature < threshold."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] <= self.feature.max():
            raise ValueError(f"tree splits on feature {self.feature.max()}, got shape {X.shape}")
        return _route(self.feature, self.threshold, self.right, self.value, _ROOT, X)[0]


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------

def _grow(X: np.ndarray, y: np.ndarray, params: TreeParams, splitter,
          n_trees: int = 1) -> list[Tree]:
    """Grow `n_trees` trees on the same rows together, breadth-first, a whole
    depth of every tree per pass. A depth holds the open nodes of every tree
    in tree-major order, each with its tree id, and its rows are kept grouped
    by node (node i owns `rows[starts[i]:starts[i] + counts[i]]`), so each
    per-node reduction is one `reduceat` over the depth. A node's arithmetic
    does not depend on the other nodes of its depth, so a tree gets the bits
    it gets when it grows alone.

    This is the one stop rule: a node stays a leaf only when its targets are
    equal, it is at `max_depth`, it has fewer than `min_samples_split` rows, or
    no valid cut exists. `splitter(X, y, rows, starts, counts, sums, opens)`
    gets the rows and target sums of the nodes left open and how many of
    them each tree holds. It returns each node's split feature (-1 when it
    has no valid cut) and threshold, the rows in the order the children keep
    them, and for each row whether it goes left. One stable partition then
    gives every child its rows. The next depth holds the children in their
    parents' order, and they inherit their parents' tree ids, so each tree's
    nodes of a depth keep the numbering `Tree` derives its children from. At
    the end one stable sort by tree id cuts the depths back into the trees.
    """
    max_depth = math.inf if params.max_depth is None else params.max_depth
    rows = np.tile(np.arange(len(y)), n_trees)
    counts = np.full(n_trees, len(y))
    tree = np.arange(n_trees)
    levels = []
    while len(counts):
        m = len(counts)
        starts = np.cumsum(counts) - counts
        yd = y[rows]
        # a 0.0 ahead of each node's rows makes reduceat sum them as np.add.reduce
        # does (from 0.0, pairwise), so a node's value is its rows' mean bit for bit
        sums = np.add.reduceat(np.insert(yd, starts, 0.0), starts + np.arange(m))
        level = (np.full(m, -1), np.full(m, math.nan), sums / counts, tree)
        levels.append(level)
        is_open = ((counts >= params.min_samples_split)
                   & (np.minimum.reduceat(yd, starts) < np.maximum.reduceat(yd, starts)))
        if len(levels) > max_depth or not is_open.any():
            break
        nodes = np.flatnonzero(is_open)
        rows = rows[np.repeat(is_open, counts)]
        counts = counts[is_open]
        tree = tree[is_open]
        f, thr, rows, go_left = splitter(X, y, rows, np.cumsum(counts) - counts, counts,
                                         sums[is_open], np.bincount(tree, minlength=n_trees))
        split = f >= 0
        inner = nodes[split]
        level[0][inner] = f[split]
        level[1][inner] = thr[split]
        # the k-th split node's children are the next depth's nodes 2k and 2k + 1
        kept = np.repeat(split, counts)
        child = (np.repeat(2 * np.cumsum(split) - 2, counts) + ~go_left)[kept]
        rows = rows[kept][np.argsort(child, kind="stable")]
        counts = np.bincount(child, minlength=2 * len(inner))
        tree = np.repeat(tree[split], 2)
    feature, threshold, value, tree = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(tree, kind="stable")
    cuts = np.cumsum(np.bincount(tree, minlength=n_trees))[:-1]
    return [Tree(*parts) for parts in zip(*(np.split(a[order], cuts)
                                            for a in (feature, threshold, value)))]


def _sse_reduction(n, sum_y, nl, syl):
    """Drop in squared error when `nl` of a node's `n` rows go left, from the
    node's target sum and the left side's (`syl`), for whole arrays of cuts at
    once. The sums of squares cancel out (Breiman et al., CART, 1984)."""
    rest = sum_y - syl
    return syl * syl / nl + rest * rest / (n - nl) - sum_y * sum_y / n


def _cart_splitter(params: TreeParams):
    """Exact CART: every midpoint between consecutive distinct values of every
    feature. Nodes are searched in power-of-two size classes, each class's
    nodes together and all features at once: a node's rows are padded after
    its last one to the class size with a row of feature +inf and target 0.0.
    Each node still gets the sums it would get alone: its rows stably sorted
    from the order its parent left them in, the padding after them, and
    sequential prefix sums, which the padding does not reach. A cut into the
    padding leaves fewer than `min_samples_leaf` rows right, so it is never
    valid. No BLAS call is made, so a tree does not depend on the thread
    count. Each child keeps its parent's rows in the split feature's order."""
    msl = params.min_samples_leaf

    def split(X, y, rows, starts, counts, sums, opens):
        feature = np.full(len(counts), -1)
        threshold = np.full(len(counts), math.nan)
        rows = rows.copy()
        go_left = np.zeros(len(rows), dtype=bool)
        pad = len(y)  # the padding row's index
        xt = np.concatenate([X, np.full((1, X.shape[1]), np.inf)]).T
        yp = np.append(y, 0.0)
        size = 1 << np.frexp(counts - 1.0)[1]  # the least power of two >= count
        for s in np.unique(size).tolist():
            nodes = np.flatnonzero(size == s)
            n = counts[nodes, None]
            real = np.arange(s) < n  # (c, s)
            at = starts[nodes, None] + np.arange(s)  # the nodes' places in `rows`
            r = np.where(real, rows.take(at, mode="clip"), pad)
            col = np.arange(len(nodes))
            # (k, c, s): every node's rows in each feature's stable order
            rs = r[col[:, None], np.argsort(xt[:, r], axis=2, kind="stable")]
            xs = xt[np.arange(X.shape[1])[:, None, None], rs]
            nl = np.arange(1, s)  # left-side row count of the cut after each position
            red = _sse_reduction(n, sums[nodes, None],
                                 np.minimum(nl, n - 1),  # cuts into the padding are dropped
                                 np.cumsum(yp[rs], axis=2)[..., :-1])
            valid = (xs[..., 1:] != xs[..., :-1]) & (nl >= msl) & (n - nl >= msl)
            red = np.where(valid, red, -np.inf)
            # argmax takes the first best: equal scores go to the lowest feature,
            # then the lowest threshold
            best = red.max(axis=2)
            f = np.argmax(best, axis=0)
            hit = np.flatnonzero(best[f, col] > -np.inf)
            f = f[hit]
            j = np.argmax(red[f, hit], axis=1)
            a, b = xs[f, hit, j], xs[f, hit, j + 1]
            thr = a + (b - a) / 2.0
            feature[nodes[hit]] = f
            # a midpoint that rounds onto a would send a right: b routes as intended
            threshold[nodes[hit]] = np.where(a < thr, thr, b)
            real = real[hit]
            rows[at[hit][real]] = rs[f, hit][real]
            go_left[at[hit][real]] = (np.arange(s) <= j[:, None])[real]
        return feature, threshold, rows, go_left

    return split


def _extra_splitter(params: TreeParams, rngs: list[np.random.Generator]):
    """Extra Trees (Geurts et al. 2006): one uniform cut per feature per node
    between the node's minimum and maximum, the best of them kept. Tree t
    draws from `rngs[t]`, one `random((open nodes of t, k))` block a depth,
    node by node and feature by feature, and nothing once it has no open
    node, so its stream sees the draws it would see if it grew alone. A
    constant feature burns its draw and gives no valid cut. Rows keep their
    order, so each child holds its rows in ascending order."""
    msl = params.min_samples_leaf

    def split(X, y, rows, starts, counts, sums, opens):
        m = len(counts)
        # (k, rows): each per-node reduction runs over contiguous memory, and a
        # sum adds the same values in the same order as over (rows, k)
        xd = X.T[:, rows]
        lo = np.minimum.reduceat(xd, starts, axis=1)
        draws = [rng.random((c, X.shape[1])) for rng, c in zip(rngs, opens.tolist()) if c]
        cuts = lo + (np.maximum.reduceat(xd, starts, axis=1) - lo) * np.concatenate(draws).T
        node = np.repeat(np.arange(m), counts)
        go = xd < cuts[:, node]
        nl = np.add.reduceat(go, starts, axis=1, dtype=np.intp)
        valid = (nl >= msl) & (counts - nl >= msl)
        red = _sse_reduction(counts, sums,
                             np.clip(nl, 1, counts - 1),  # invalid cuts are scored, then dropped
                             np.add.reduceat(go * y[rows], starts, axis=1))
        f = np.argmax(np.where(valid, red, -np.inf), axis=0)  # equal scores: the lowest feature
        return (np.where(valid.any(axis=0), f, -1), cuts[f, np.arange(m)], rows,
                go[f[node], np.arange(len(rows))])

    return split


# ---------------------------------------------------------------------------
# Forest container
# ---------------------------------------------------------------------------

def _check_tree(t: Tree, n_features: int) -> None:
    """Refuse a tree unless its arrays are 1-D and of equal length, features in
    range, nodes one more than twice the splits, each split's left child above
    it, and split thresholds and values finite. The node count and the child
    order make every node reached from the root once, so routing ends."""
    arrays = (t.feature, t.threshold, t.value)
    if any(a.ndim != 1 for a in arrays) or len({len(a) for a in arrays}) > 1:
        raise ValueError("tree arrays must be one-dimensional and of equal length")
    if np.any((t.feature < -1) | (t.feature >= n_features)):
        raise ValueError(f"a split feature lies outside [0, {n_features})")
    inner = np.flatnonzero(t.feature >= 0)
    if t.n_nodes != 1 + 2 * len(inner):
        raise ValueError(f"a tree with {len(inner)} split nodes has {t.n_nodes} nodes, "
                         f"not {1 + 2 * len(inner)}")
    if np.any(t.left[inner] <= inner):
        raise ValueError("a split node's derived left child is not numbered above it")
    if not (np.all(np.isfinite(t.threshold[inner])) and np.all(np.isfinite(t.value))):
        raise ValueError("a threshold or value is not finite")


@dataclass
class Forest:
    """A fitted tree model: one CART, an Extra Trees ensemble, or AdaBoost.R2.

    Every tree is checked when the forest is built, fitted or loaded alike.
    For adaboost_r2, `trees` holds members' trees back to back
    (`trees_per_member` each) and `tree_weights` carries one ln(1/beta)
    confidence per member.
    """

    mode: str
    trees: tuple[Tree, ...]
    n_features: int
    params: TreeParams
    seed: int
    trees_per_member: int = 1
    tree_weights: np.ndarray | None = None
    # every tree's feature, threshold, right child and value arrays back to
    # back, children offset to the flat numbering, and each tree's root
    _packed: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.mode not in ("single", "extra_trees", "adaboost_r2"):
            raise ValueError(f"unknown forest mode {self.mode!r}")
        self.trees = tuple(self.trees)
        if not self.trees:
            raise ValueError("forest holds no trees")
        if self.trees_per_member < 1:
            raise ValueError(f"trees_per_member must be >= 1, got {self.trees_per_member}")
        if len(self.trees) % self.trees_per_member:
            raise ValueError("tree count is not a multiple of trees_per_member")
        if self.mode == "adaboost_r2":
            n_members = len(self.trees) // self.trees_per_member
            if self.tree_weights is None or len(self.tree_weights) != n_members:
                raise ValueError("adaboost_r2 needs one weight per member")
            self.tree_weights = np.asarray(self.tree_weights, dtype=np.float64)
            if not np.all(np.isfinite(self.tree_weights)):
                raise ValueError("adaboost_r2 member weights must be finite")
        for t in self.trees:
            _check_tree(t, self.n_features)
        sizes = [t.n_nodes for t in self.trees]
        roots = np.cumsum([0, *sizes[:-1]], dtype=np.intp)
        feature, threshold, right, value = (np.concatenate([getattr(t, a) for t in self.trees])
                                            for a in ("feature", "threshold", "right", "value"))
        # a leaf's `right` (-1 plus the offset) is never read
        self._packed = (feature, threshold, right + np.repeat(roots, sizes), value, roots)

    @property
    def n_members(self) -> int:
        return len(self.trees) // self.trees_per_member


# n * max|y| at most this keeps every squared target sum of a split score, and
# the sum of two of them, below the float64 maximum (about 9.5e153)
_MAX_TARGET_MASS = math.sqrt(np.finfo(np.float64).max / 2)


def _training_arrays(features, targets, min_rows: int = 1):
    """The float64 (n, k) feature matrix and n targets a fitter grows trees on.
    ValueError unless there are at least `min_rows` rows and one feature, every
    target is finite, n * max|y| is at most `_MAX_TARGET_MASS`, and every
    feature column is finite with a finite max - min. So every cut a node draws
    or takes, and every split score, is finite too; a resample of accepted
    targets (AdaBoost.R2) is accepted as well."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] == 0 or len(X) < min_rows or y.shape != (len(X),):
        raise ValueError(f"need an (n, k) feature matrix with n >= {min_rows} and k >= 1, "
                         "and n targets")
    with np.errstate(over="ignore", invalid="ignore"):
        span = X.max(axis=0) - X.min(axis=0)
    bad = np.flatnonzero(~np.isfinite(span))
    if len(bad):
        raise ValueError(f"feature column {bad[0]} holds a non-finite value, "
                         "or its max - min overflows")
    if not np.isfinite(y).all():
        raise ValueError("a target is not finite")
    top = np.abs(y).max()
    if top > _MAX_TARGET_MASS / len(y):
        raise ValueError(f"targets too large to score splits: n * max|y| = {len(y)} * "
                         f"{top:.3g} exceeds {_MAX_TARGET_MASS:.3g}")
    return X, y


def fit_cart(features, targets, params: TreeParams = TreeParams(), seed: int = 0) -> Tree:
    """Greedy exact-split regression tree (the seed is accepted for interface
    symmetry; CART is deterministic)."""
    X, y = _training_arrays(features, targets)
    return _grow(X, y, params, _cart_splitter(params))[0]


def fit_extra_trees(
    features,
    targets,
    n_trees: int = 100,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> Forest:
    """Extra Trees: every tree sees the full sample; randomness is in the cuts."""
    X, y = _training_arrays(features, targets)
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    # the trees grow together, at most `_GROW_PAIRS` (tree, row) pairs at a time
    step = max(1, _GROW_PAIRS // len(y))
    trees = []
    for lo in range(0, n_trees, step):
        rngs = [_stream(seed, t) for t in range(lo, min(lo + step, n_trees))]
        trees += _grow(X, y, params, _extra_splitter(params, rngs), len(rngs))
    return Forest(mode="extra_trees", trees=trees, n_features=X.shape[1], params=params,
                  seed=seed)


def fit_adaboost_r2(
    features,
    targets,
    n_estimators: int = 50,
    base_n_trees: int = 10,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> Forest:
    """AdaBoost.R2 with linear loss over Extra Trees base learners.

    Each round resamples rows by the current weights, fits a base ensemble,
    and scores it on the ORIGINAL rows. Rounds with average loss >= 0.5 are
    rejected and boosting stops; a perfect round (zero loss) is kept with
    weight 1 and also stops. If the very first round is rejected it is kept
    anyway (weight 1) so the model is never empty.
    """
    X, y = _training_arrays(features, targets, min_rows=2)
    if n_estimators < 1 or base_n_trees < 1:
        raise ValueError("n_estimators and base_n_trees must be >= 1")
    n = len(y)
    w = np.full(n, 1.0 / n)
    member_trees: list[Tree] = []
    member_weights: list[float] = []
    for r in range(n_estimators):
        rows = _stream(seed, r, 0).choice(n, size=n, replace=True, p=w)
        base_seed = int(_stream(seed, r, 1).integers(0, 2**63 - 1))
        base = fit_extra_trees(X[rows], y[rows], n_trees=base_n_trees, params=params, seed=base_seed)
        pred = predict_forest(base, X)
        err = np.abs(pred - y)
        err_max = float(err.max())
        if err_max == 0.0:  # perfect member: keep it and stop
            member_trees.extend(base.trees)
            member_weights.append(1.0)
            break
        loss = err / err_max
        l_bar = float(w @ loss)
        if l_bar >= 0.5:
            if not member_weights:  # never return an empty ensemble
                member_trees.extend(base.trees)
                member_weights.append(1.0)
            break
        beta = l_bar / (1.0 - l_bar)
        member_trees.extend(base.trees)
        member_weights.append(math.log(1.0 / beta))
        w = w * beta ** (1.0 - loss)
        w /= w.sum()
    return Forest(mode="adaboost_r2", trees=tuple(member_trees), n_features=X.shape[1],
                  params=params, seed=seed, trees_per_member=base_n_trees,
                  tree_weights=np.asarray(member_weights))


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def weighted_median(values, weights):
    """Smallest value whose cumulative weight reaches half the total.

    `values` is 1-D (one value per weight; a float comes back) or a
    (len(weights), n) matrix, whose n columns get one median each.
    """
    v = np.asarray(values, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1 or v.ndim not in (1, 2) or len(v) != len(w) or v.size == 0:
        raise ValueError("values and weights must be equal-length and non-empty")
    if np.any(w < 0) or w.sum() == 0:
        raise ValueError("weights must be non-negative with positive sum")
    cols = v.reshape(len(w), -1)
    order = np.argsort(cols, axis=0, kind="stable")
    cum = np.cumsum(w[order], axis=0)
    ranks = np.argmax(cum >= 0.5 * cum[-1], axis=0)
    col = np.arange(cols.shape[1])
    out = cols[order[ranks, col], col]
    return float(out[0]) if v.ndim == 1 else out


def _sequential_mean(a: np.ndarray) -> np.ndarray:
    """Mean over the first axis, summed in order. NumPy's own mean sums a
    contiguous axis pairwise, so one row alone would round differently from
    the same row inside a batch."""
    return np.cumsum(a, axis=0)[-1] / len(a)


# at most this many (tree, row) pairs are routed and combined together, as
# the channel bounds its chunks: a block's arrays stay a few MB whatever the
# forest and the number of rows
_ROUTE_PAIRS = 1 << 18
# an ensemble grows as many trees together as keep its depth's (tree, row)
# pairs within this, one tree at least, as the channel bounds its chunks: a
# depth's work arrays stay under a MB for a few features
_GROW_PAIRS = 1 << 15
_ROOT = np.zeros(1, dtype=np.intp)
# a single row walks the packed arrays in Python when the forest has fewer
# trees than this; from here on the router's fixed cost per level is the
# cheaper one (measured on a 2-CPU VM with Extra Trees grown on 1,200 rows:
# the walk was cheaper up to 50 trees, and about as costly from 55 to 65)
_WALK_TREES = 55


def _route(feature, threshold, right, value, roots, X: np.ndarray) -> np.ndarray:
    """Leaf values of every (tree, row) pair, a (len(roots), len(X)) matrix.

    The trees' nodes lie in flat arrays, tree t's root at node roots[t] and a
    split node's children at right - 1 and right. All pairs step down one
    level per pass, and a pair leaves the active set at its leaf. A row goes
    left when x < threshold, so NaN goes right.
    """
    m, k = X.shape
    flat = X.ravel()
    node = np.repeat(roots, m)  # pair p is tree p // m and row p % m
    pairs = np.flatnonzero(feature[node] >= 0)
    cur = node[pairs]
    at = pairs % m * k  # where the pair's row starts in `flat`
    while len(pairs):
        nxt = right[cur] - (flat[at + feature[cur]] < threshold[cur])
        leaf = feature[nxt] < 0
        node[pairs[leaf]] = nxt[leaf]
        inner = ~leaf
        pairs, at, cur = pairs[inner], at[inner], nxt[inner]
    return value[node].reshape(len(roots), m)


def _walk(forest: Forest, x: list) -> float:
    """One row's prediction, each tree walked in Python over the packed arrays.

    A memoryview hands out Python ints and floats, so a level costs a few
    bytecodes instead of NumPy calls. Leaf values are added in tree order
    from the first one, as `_sequential_mean`'s cumsum does (so -0.0 stays
    -0.0; `sum` would start from 0 and, from Python 3.12 on, compensate), and
    a row gets the bits `_route` gives it.
    """
    feature, threshold, right, value = map(memoryview, forest._packed[:4])
    leaves = []
    for i in forest._packed[4].tolist():
        f = feature[i]
        while f >= 0:
            i = right[i] - (x[f] < threshold[i])
            f = feature[i]
        leaves.append(value[i])
    if forest.mode != "adaboost_r2":
        return reduce(operator.add, leaves) / len(leaves)
    k = forest.trees_per_member
    means = [reduce(operator.add, leaves[lo:lo + k]) / k for lo in range(0, len(leaves), k)]
    return weighted_median(means, forest.tree_weights)


def _member_predictions(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n_members, n_rows) matrix; a member's output averages its trees."""
    per_tree = _route(*forest._packed, X)
    if forest.trees_per_member == 1:
        return per_tree
    members = per_tree.reshape(forest.n_members, forest.trees_per_member, -1)
    return _sequential_mean(members.swapaxes(0, 1))


def predict_forest(forest: Forest, raw_features):
    """Prediction in the target's raw units; scalar in, scalar out. A row gets
    the same bits alone and inside any batch."""
    X = np.asarray(raw_features, dtype=np.float64)
    scalar = X.ndim == 1
    if scalar:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != forest.n_features:
        raise ValueError(f"expected {forest.n_features} features, got shape {X.shape}")
    if len(X) == 1 and len(forest.trees) < _WALK_TREES:
        value = _walk(forest, X[0].tolist())
        return value if scalar else np.array([value])
    # members are combined a routing block of rows at a time, so a large
    # predict never holds every (tree, row) output; a row's value depends on
    # its own column alone
    step = max(1, _ROUTE_PAIRS // len(forest.trees))
    out = np.empty(len(X))
    for lo in range(0, len(X), step):
        preds = _member_predictions(forest, X[lo:lo + step])
        if forest.mode in ("single", "extra_trees"):
            out[lo:lo + step] = _sequential_mean(preds)
        else:
            out[lo:lo + step] = weighted_median(preds, forest.tree_weights)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_forest(forest: Forest, path) -> None:
    write_model(path, "forest", forest)


def load_forest(path) -> Forest:
    return read_model(path, {"forest": Forest})
