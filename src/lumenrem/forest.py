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
from .dataset import _feature_rows, _stream

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
    (`left`) and 2k + 2 (`right`), and a leaf's are -1. They are derived when
    asked for; a forest derives every tree's at once.
    """

    feature: np.ndarray = field(metadata={"dtype": "<i4"})  # as a model file stores it
    threshold: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.value = np.asarray(self.value, dtype=np.float64)

    @property
    def left(self) -> np.ndarray:
        split = (self.feature >= 0).ravel()
        return np.where(split, 2 * np.cumsum(split, dtype=np.int32) - 1, -1)

    @property
    def right(self) -> np.ndarray:
        return np.where((self.feature >= 0).ravel(), self.left + 1, -1)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; rows go left when feature < threshold."""
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] <= self.feature.max():
            raise ValueError(f"tree splits on feature {self.feature.max()}, got shape {X.shape}")
        return _route(*_pack((self,)), X)[0]


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
    no valid cut exists. `splitter(cols, yp, rows, starts, counts, sums,
    opens)` gets the data with a padding row n of feature +inf and target 0.0
    after the n real ones (`cols` the (k, n + 1) feature columns, each
    contiguous, and `yp` the n + 1 targets), the rows and target sums of the
    nodes left open, and how many of them each tree holds. It returns each
    node's split feature (-1 when it has no valid cut) and threshold, the rows
    in the order the children keep them, and for each row whether it goes
    left. One stable partition then gives every child its rows. The next
    depth holds the children in their parents' order, and they inherit their
    parents' tree ids, so each tree's nodes of a depth keep the numbering
    `Tree` derives its children from. At the end one stable sort by tree id
    cuts the depths back into the trees.

    A pass is a few dozen NumPy calls on arrays as long as its rows, so on
    small depths their fixed cost is the pass's cost: the loop calls ufuncs
    and array methods directly, not the Python-level wrappers (`np.cumsum`,
    `np.insert`, `np.repeat`, ...) that give the same results more slowly.
    """
    max_depth = math.inf if params.max_depth is None else params.max_depth
    cols = np.concatenate([X, np.full((1, X.shape[1]), np.inf)]).T.copy()
    yp = np.append(y, 0.0)
    rows = np.tile(np.arange(len(y)), n_trees)
    counts = np.full(n_trees, len(y))
    tree = np.arange(n_trees)
    values, trees, splits = [], [], []
    first = 0  # the depth's first node, the depths of all trees numbered in turn
    while len(counts):
        m = len(counts)
        starts = np.add.accumulate(counts) - counts
        yd = y.take(rows)
        # a 0.0 ahead of each node's rows makes reduceat sum them as np.add.reduce
        # does (from 0.0, pairwise), so a node's value is its rows' mean bit for bit
        at = starts + np.arange(m)
        real = np.ones(len(rows) + m, dtype=bool)
        real[at] = False
        padded = np.zeros(len(real))
        padded[real] = yd
        sums = np.add.reduceat(padded, at)
        values.append(sums / counts)
        trees.append(tree)
        is_open = ((counts >= params.min_samples_split)
                   & (np.minimum.reduceat(yd, starts) < np.maximum.reduceat(yd, starts)))
        if len(values) > max_depth or not is_open.any():
            break
        nodes = is_open.nonzero()[0]
        rows = rows[is_open.repeat(counts)]
        counts = counts[is_open]
        tree = tree[is_open]
        f, thr, rows, go_left = splitter(cols, yp, rows, np.add.accumulate(counts) - counts,
                                         counts, sums[is_open],
                                         np.bincount(tree, minlength=n_trees))
        split = f >= 0
        splits.append((first + nodes[split], f[split], thr[split]))
        first += m
        # the k-th split node's children are the next depth's nodes 2k and 2k + 1
        kept = split.repeat(counts)
        parents = counts[split]
        child = np.arange(0, 2 * len(parents), 2).repeat(parents) + ~go_left[kept]
        rows = rows[kept][child.argsort(kind="stable")]
        counts = np.bincount(child, minlength=2 * len(parents))
        tree = tree[split].repeat(2)
    value, tree = np.concatenate(values), np.concatenate(trees)
    feature, threshold = np.full(len(value), -1), np.full(len(value), math.nan)
    for inner, f, thr in splits:
        feature[inner], threshold[inner] = f, thr
    order = tree.argsort(kind="stable")
    cuts = np.add.accumulate(np.bincount(tree, minlength=n_trees))[:-1]
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
    its last one to the class size with the padding row (feature +inf, target
    0.0). Each node still gets the sums it would get alone: its rows stably
    sorted from the order its parent left them in, the padding after them, and
    sequential prefix sums, which the padding does not reach. A cut into the
    padding leaves fewer than `min_samples_leaf` rows right, so it is never
    valid. So a class may be padded to a larger size than its nodes need, and
    a class whose nodes fill at most `_MERGE_SLOTS` rows at the next class's
    size is searched with that class, which saves a search's fixed cost. No
    BLAS call is made, so a tree does not depend on the thread count. Each
    child keeps its parent's rows in the split feature's order."""
    msl = params.min_samples_leaf

    def split(cols, yp, rows, starts, counts, sums, opens):
        feature = np.full(len(counts), -1)
        threshold = np.full(len(counts), math.nan)
        rows = rows.copy()
        go_left = np.zeros(len(rows), dtype=bool)
        pad = len(yp) - 1  # the padding row's index
        # (k, 1, 1): each feature's offset into the raveled columns
        feat = np.arange(0, cols.size, cols.shape[1])[:, None, None]
        exp = np.frexp(counts - 1.0)[1]  # 2 ** exp is the least power of two >= count
        by_size = exp.argsort(kind="stable")
        members = np.bincount(exp).tolist()
        classes = [e for e, c in enumerate(members) if c]
        lo = hi = 0
        for e, bigger in zip(classes, [*classes[1:], None]):
            hi += members[e]
            if bigger is not None and (hi - lo) << bigger <= _MERGE_SLOTS:
                continue  # searched with the next class
            s = 1 << e
            nodes = by_size[lo:hi]
            lo = hi
            n = counts[nodes, None]
            real = np.arange(s) < n  # (c, s)
            at = starts[nodes, None] + np.arange(s)  # the nodes' places in `rows`
            r = np.where(real, rows.take(at, mode="clip"), pad)
            col = np.arange(len(nodes))
            # (k, c, s): every node's rows in each feature's stable order
            order = cols.take(r, axis=1).argsort(axis=2, kind="stable")
            rs = r.take(order + (col * s)[:, None])
            xs = cols.take(rs + feat)
            nl = np.arange(1, s)  # left-side row count of the cut after each position
            red = _sse_reduction(n, sums[nodes, None],
                                 np.minimum(nl, n - 1),  # cuts into the padding are dropped
                                 np.add.accumulate(yp.take(rs), axis=2)[..., :-1])
            valid = (xs[..., 1:] != xs[..., :-1]) & (nl >= msl) & (n - nl >= msl)
            red = np.where(valid, red, -np.inf)
            # argmax takes the first best: equal scores go to the lowest feature,
            # then the lowest threshold
            best = np.maximum.reduce(red, axis=2)
            f = best.argmax(axis=0)
            hit = (best[f, col] > -np.inf).nonzero()[0]
            f = f[hit]
            j = red[f, hit].argmax(axis=1)
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

    def split(cols, yp, rows, starts, counts, sums, opens):
        m = len(counts)
        # (k, rows): each per-node reduction runs over contiguous memory, and a
        # sum adds the same values in the same order as over (rows, k)
        xd = cols.take(rows, axis=1)
        lo = np.minimum.reduceat(xd, starts, axis=1)
        draws = np.empty((m, len(cols)))
        at = 0
        for rng, c in zip(rngs, opens.tolist()):
            if c:
                rng.random(out=draws[at:at + c])  # the values of rng.random((c, k))
                at += c
        cuts = lo + (np.maximum.reduceat(xd, starts, axis=1) - lo) * draws.T
        node = np.arange(m).repeat(counts)
        go = xd < cuts.take(node, axis=1)
        # the counts and sums over float 0/1 go as over the bools, and faster
        went = go.astype(np.float64)
        nl = np.add.reduceat(went, starts, axis=1)
        valid = (nl >= msl) & (counts - nl >= msl)
        went *= yp.take(rows)
        red = _sse_reduction(counts, sums,
                             # invalid cuts are scored on 1 to count - 1 rows, then dropped
                             np.minimum(np.maximum(nl, 1.0), counts - 1),
                             np.add.reduceat(went, starts, axis=1))
        f = np.where(valid, red, -np.inf).argmax(axis=0)  # equal scores: the lowest feature
        return (np.where(valid.any(axis=0), f, -1), cuts[f, np.arange(m)], rows,
                go.ravel().take(f.take(node) * len(rows) + np.arange(len(rows))))

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


def _check_trees(trees, n_features: int) -> tuple:
    """The route layout (`_pack`) of trees that each pass `_check_tree`. The
    checks run over all trees' nodes at once, on the layout; only when one
    fails are the trees checked one by one, so the first tree that fails is
    refused with the message it gets alone."""
    if all(t.feature.ndim == t.threshold.ndim == t.value.ndim == 1
           and len(t.feature) == len(t.threshold) == len(t.value) for t in trees):
        packed = feature, threshold, right, value, roots = _pack(trees)
        inner = np.flatnonzero(feature >= 0)
        bounds = np.append(roots, len(feature))
        ahead = inner.searchsorted(bounds)
        # a leaf's threshold is NaN in the layout, so the finite ones are the
        # splits' when every split's is finite
        if (np.array_equal(bounds[1:] - roots, 1 + 2 * (ahead[1:] - ahead[:-1]))
                and feature.min() >= -1 and feature.max() < n_features
                and np.all(right.take(inner) - inner >= 2)  # the left child, right - 1, is above
                and np.count_nonzero(np.isfinite(threshold)) == len(inner)
                and np.isfinite(value).all()):
            return packed
    for t in trees:
        _check_tree(t, n_features)


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
    # the trees' route layout (`_pack`), and the memoryviews of its four node
    # arrays and its roots as a list, which `_walk` reads
    _packed: tuple = field(init=False, repr=False, compare=False)
    _walker: tuple = field(init=False, repr=False, compare=False)

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
        self._set_layout(_check_trees(self.trees, self.n_features))

    def _set_layout(self, packed: tuple) -> None:
        self._packed = packed
        self._walker = (*map(memoryview, packed[:4]), packed[4].tolist())

    def __getstate__(self):
        # memoryviews do not pickle: a copy builds its layout again
        return {k: v for k, v in vars(self).items() if k not in ("_packed", "_walker")}

    def __setstate__(self, state):
        vars(self).update(state)
        self._set_layout(_pack(self.trees))

    @property
    def n_members(self) -> int:
        return len(self.trees) // self.trees_per_member


def _pack(trees) -> tuple:
    """The route layout of `trees`: their feature, threshold, right-child and
    value arrays back to back, and each tree's root (its first node). A
    split's right child is numbered in the flat layout and its left child is
    the node before it. A leaf is its own right child and has a NaN
    threshold, so `x < threshold` is False at a leaf whatever x is, and a
    step from it stays on it; its feature stays -1, the leaf mark."""
    bounds = np.cumsum([0, *(len(t.feature) for t in trees)], dtype=np.intp)
    roots = bounds[:-1]
    feature, value = (np.concatenate([getattr(t, a) for t in trees]) for a in ("feature", "value"))
    inner = np.flatnonzero(feature >= 0)
    threshold = np.full(len(feature), np.nan)
    threshold[inner] = np.concatenate([t.threshold for t in trees])[inner]
    # the k-th split of tree t has its right child at roots[t] + 2k + 2, and
    # the splits of tree t are inner[ahead[t]:ahead[t + 1]]
    ahead = inner.searchsorted(bounds)
    right = np.arange(len(feature))
    right[inner] = (np.arange(2, 2 * len(inner) + 2, 2)
                    + (roots - 2 * ahead[:-1]).repeat(ahead[1:] - ahead[:-1]))
    return feature, threshold, right, value, roots


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
    return Forest(mode="extra_trees", trees=_grow_extra_trees(X, y, n_trees, params, seed),
                  n_features=X.shape[1], params=params, seed=seed)


def _grow_extra_trees(X: np.ndarray, y: np.ndarray, n_trees: int, params: TreeParams,
                      seed: int) -> list[Tree]:
    """The Extra Trees of `fit_extra_trees` on checked training arrays, tree
    t drawing from `_stream(seed, t)`. They grow together, at most
    `_GROW_PAIRS` (tree, row) pairs at a time."""
    step = max(1, _GROW_PAIRS // len(y))
    trees = []
    for lo in range(0, n_trees, step):
        rngs = [_stream(seed, t) for t in range(lo, min(lo + step, n_trees))]
        trees += _grow(X, y, params, _extra_splitter(params, rngs), len(rngs))
    return trees


def fit_adaboost_r2(
    features,
    targets,
    n_estimators: int = 50,
    base_n_trees: int = 10,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> Forest:
    """AdaBoost.R2 with linear loss over Extra Trees base learners.

    Each round resamples rows by the current weights, grows a base ensemble,
    and scores it on the ORIGINAL rows, packed as grown: only the final
    forest checks the trees. Rounds with average loss >= 0.5 are rejected and
    boosting stops; a perfect round (zero loss) is kept with weight 1 and
    also stops. If the very first round is rejected it is kept
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
        # a resample of checked arrays is checked too
        base = _grow_extra_trees(X[rows], y[rows], base_n_trees, params, base_seed)
        err = np.abs(_predict_rows(_pack(base), X) - y)
        err_max = float(err.max())
        if err_max == 0.0:  # perfect member: keep it and stop
            member_trees.extend(base)
            member_weights.append(1.0)
            break
        loss = err / err_max
        l_bar = float(w @ loss)
        if l_bar >= 0.5:
            if not member_weights:  # never return an empty ensemble
                member_trees.extend(base)
                member_weights.append(1.0)
            break
        beta = l_bar / (1.0 - l_bar)
        member_trees.extend(base)
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
# a CART size class whose nodes, padded to the next class's size, fill at most
# this many rows is searched with that class
_MERGE_SLOTS = 1024
# the router steps its pairs this many levels between two drops of the pairs
# that have reached their leaves
_ROUTE_LEVELS = 5
# a single row walks the route layout in Python when the forest has fewer
# trees than this; from here on the router's fixed cost per level is the
# cheaper one (measured on a 2-CPU VM with Extra Trees grown on 1,200 rows,
# walk/route time per row alternating: 0.91 at 50 trees, 0.97 at 55, 1.06 at
# 60 and 1.13 at 65)
_WALK_TREES = 60


def _route(feature, threshold, right, value, roots, X: np.ndarray) -> np.ndarray:
    """Leaf values of every (tree, row) pair, a (len(roots), len(X)) matrix.

    The trees lie in `_pack`'s layout, tree t's root at node roots[t]. Every
    pair takes the same step at every level, with no branch: to right - 1
    when x < threshold, to right otherwise. A row goes left when
    x < threshold, so NaN goes right. A leaf steps to itself (a leaf's
    feature -1 reads the value before the pair's row, or the last value of X,
    which the NaN threshold makes moot), so a pair that has reached its leaf
    stays there, and the pairs step `_ROUTE_LEVELS` levels a block. Only
    between blocks are the pairs at a leaf dropped.
    """
    m, k = X.shape
    flat = X.ravel()
    cur = np.repeat(roots, m)  # pair p is tree p // m and row p % m
    at = np.tile(np.arange(0, m * k, k), len(roots))  # where the pair's row starts in `flat`
    node = pairs = None  # every pair's node, and the pairs still stepping (None: all)
    while True:
        for _ in range(_ROUTE_LEVELS):
            cur = right.take(cur) - (flat.take(at + feature.take(cur)) < threshold.take(cur))
        if pairs is None:
            node = cur
        else:
            node[pairs] = cur
        inner = (feature.take(cur) >= 0).nonzero()[0]
        if not len(inner):
            return value.take(node).reshape(len(roots), m)
        pairs = inner if pairs is None else pairs.take(inner)
        at, cur = at.take(inner), cur.take(inner)


def _walk(forest: Forest, x: list) -> float:
    """One row's prediction, each tree walked in Python over the route layout.

    A memoryview hands out Python ints and floats, so a level costs a few
    bytecodes instead of NumPy calls; the views and the roots are made once,
    with the layout. Leaf values are added in tree order from the first one,
    as `_sequential_mean`'s cumsum does (so -0.0 stays -0.0; `sum` would
    start from 0 and, from Python 3.12 on, compensate), and a row gets the
    bits `_route` gives it.
    """
    feature, threshold, right, value, roots = forest._walker
    leaves = []
    for i in roots:
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


def _predict_rows(packed: tuple, X: np.ndarray, k: int = 1, weights=None) -> np.ndarray:
    """Each row's prediction from the trees of a route layout (`_pack`),
    routed and combined a block of at most `_ROUTE_PAIRS` (tree, row) pairs
    at a time, so a large predict never holds every pair's leaf value; a
    row's value depends on its own column alone. Without `weights` it is the
    mean over every tree, added in tree order; with them, the weighted median
    of the members' means, each member `k` consecutive trees. This serves
    `predict_forest`'s batches and each AdaBoost.R2 round's scoring."""
    n_trees = len(packed[4])
    step = max(1, _ROUTE_PAIRS // n_trees)
    out = np.empty(len(X))
    for lo in range(0, len(X), step):
        leaves = _route(*packed, X[lo:lo + step])
        if weights is None:
            out[lo:lo + step] = _sequential_mean(leaves)
        else:
            members = leaves.reshape(n_trees // k, k, -1).swapaxes(0, 1)
            out[lo:lo + step] = weighted_median(_sequential_mean(members), weights)
    return out


def predict_forest(forest: Forest, raw_features):
    """Prediction in the target's raw units; scalar in, scalar out. A row gets
    the same bits alone and inside any batch."""
    X, one_row = _feature_rows(raw_features, forest.n_features)
    if len(X) == 1 and len(forest.trees) < _WALK_TREES:
        value = _walk(forest, X[0].tolist())
        return value if one_row else np.array([value])
    weights = forest.tree_weights if forest.mode == "adaboost_r2" else None
    out = _predict_rows(forest._packed, X, forest.trees_per_member, weights)
    return float(out[0]) if one_row else out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_forest(forest: Forest, path) -> None:
    write_model(path, "forest", forest)


def load_forest(path) -> Forest:
    return read_model(path, {"forest": Forest})
