"""Regression-tree baselines: a CART tree, Extra Trees, and AdaBoost.R2.

Trees store their nodes in flat parallel arrays (feature, threshold, children,
value) with -1 marking leaves, grown iteratively with an explicit stack. CART
searches every midpoint between consecutive sorted distinct values; Extra
Trees draws one uniform cut per feature per node and keeps the best. Both
maximize variance reduction with ties broken by lowest feature index, then
lowest threshold, and take their best valid cut even when it gains nothing. Rows route left when feature < threshold. Features are used
raw — axis-aligned splits don't care about scale, so trees skip the
normalization the MLP needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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
        if self.max_depth is not None and self.max_depth < 1:
            raise ValueError("max_depth must be >= 1 or None")
        if self.min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")

    def to_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TreeParams":
        return from_doc(cls, d)


@dataclass(eq=False, slots=True)
class Tree:
    """One binary regression tree in flat-array form.

    feature[i] is the split feature of node i, or -1 for a leaf; leaves keep
    their routed-target mean in value[i]. Node 0 is the root.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray

    def __post_init__(self):
        self.feature = np.asarray(self.feature, dtype=np.int32)
        self.threshold = np.asarray(self.threshold, dtype=np.float64)
        self.left = np.asarray(self.left, dtype=np.int32)
        self.right = np.asarray(self.right, dtype=np.int32)
        self.value = np.asarray(self.value, dtype=np.float64)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Route every row to its leaf; rows go left when feature < threshold."""
        X = np.asarray(X, dtype=np.float64)
        node = np.zeros(len(X), dtype=np.int32)
        active = self.feature[node] >= 0
        while np.any(active):
            idx = np.nonzero(active)[0]
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] < self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] >= 0
        return self.value[node]

    def predict_row(self, x) -> float:
        i = 0
        while self.feature[i] >= 0:
            i = self.left[i] if x[self.feature[i]] < self.threshold[i] else self.right[i]
        return float(self.value[i])


# ---------------------------------------------------------------------------
# Growth
# ---------------------------------------------------------------------------

def _grow(X: np.ndarray, y: np.ndarray, params: TreeParams, splitter) -> Tree:
    """Iterative depth-first growth; `splitter(X, idx, yy, sum_y)` proposes the
    best valid split of rows `idx` (targets `yy`, summing to `sum_y`) at any
    reduction, or None when there is none. This is the one stop rule: a node
    stays a leaf only when its targets are equal, it is at `max_depth`, it has
    fewer than `min_samples_split` rows, or no valid cut exists.

    Growth is overhead-bound (one small NumPy call costs more than the
    arithmetic it does), so each node makes as few calls as it can: the target
    sum is taken once for the node mean and the splitter, and a one-row node
    makes no reduction at all. Every node value equals `y[idx].mean()` bit for bit.
    """
    feature, threshold, left, right, value = [], [], [], [], []
    max_depth = math.inf if params.max_depth is None else params.max_depth
    min_split = params.min_samples_split

    def new_node() -> int:
        feature.append(-1)
        threshold.append(math.nan)
        left.append(-1)
        right.append(-1)
        value.append(math.nan)
        return len(feature) - 1

    root = new_node()
    stack = [(root, np.arange(len(y), dtype=np.intp), 0)]
    while stack:
        nid, idx, depth = stack.pop()
        n = len(idx)
        if n == 1:
            # NumPy's sum starts from 0.0, which also turns -0.0 into 0.0
            value[nid] = 0.0 + float(y[idx[0]])
            continue
        yy = y[idx]
        sum_y = np.add.reduce(yy)
        value[nid] = float(sum_y / n)
        if depth >= max_depth or n < min_split or np.minimum.reduce(yy) == np.maximum.reduce(yy):
            continue
        best = splitter(X, idx, yy, sum_y)
        if best is None:
            continue
        f, thr, idx_l, idx_r = best
        lid, rid = new_node(), new_node()
        feature[nid] = f
        threshold[nid] = thr
        left[nid] = lid
        right[nid] = rid
        # left pushed last so it is grown first (fixed order keeps RNG replayable)
        stack.append((rid, idx_r, depth + 1))
        stack.append((lid, idx_l, depth + 1))
    return Tree(feature, threshold, left, right, value)


def _sse_reduction(n, sum_y, sum_y2, nl, syl, syl2):
    """Drop in squared error when `nl` of a node's `n` rows go left, from the
    node's target sum and sum of squares and the left side's (`syl`, `syl2`).
    Takes one cut as floats or many as arrays, with the same operations in the
    same order, so both splitters score a cut to the same bits."""
    rest = sum_y - syl
    return ((sum_y2 - sum_y * sum_y / n) - (syl2 - syl * syl / nl)
            - ((sum_y2 - syl2) - rest * rest / (n - nl)))


def _cart_splitter(params: TreeParams):
    msl = params.min_samples_leaf

    def splitter(X, idx, yv, sum_y):
        n = len(idx)
        sum_y2 = float(yv @ yv)
        best = None
        best_red = -math.inf
        for f in range(X.shape[1]):
            xv = X[idx, f]
            order = np.argsort(xv, kind="stable")
            xs = xv[order]
            ys = yv[order]
            cy = np.cumsum(ys)
            cy2 = np.cumsum(ys * ys)
            pos = np.nonzero(xs[1:] != xs[:-1])[0] + 1  # left-side row counts
            pos = pos[(pos >= msl) & (n - pos >= msl)]
            if len(pos) == 0:
                continue
            red = _sse_reduction(n, sum_y, sum_y2, pos.astype(np.float64), cy[pos - 1],
                                 cy2[pos - 1])
            j = int(np.argmax(red))  # first max -> lowest threshold
            if red[j] > best_red:
                i = int(pos[j])
                a, b = xs[i - 1], xs[i]
                thr = a + (b - a) / 2.0
                if not a < thr:  # midpoint collapsed onto a; b routes identically
                    thr = b
                best_red = float(red[j])
                best = (f, float(thr), idx[order[:i]], idx[order[i:]])
        return best

    return splitter


def _extra_splitter(params: TreeParams, rng: np.random.Generator, check_range: bool):
    """`check_range` may be False only when no node's feature range can be
    infinite, i.e. when the full sample's ranges are all finite."""
    msl = params.min_samples_leaf

    def splitter(X, idx, yv, sum_y):
        Xv = X[idx]
        n = len(idx)
        # one uniform draw per feature, in feature order; constant features
        # burn a draw and simply produce no usable candidate. This is
        # rng.uniform(lo, hi) draw for draw and bit for bit, including its
        # refusal of an infinite range, without its per-call overhead.
        lo = np.minimum.reduce(Xv)
        span = np.maximum.reduce(Xv) - lo
        if check_range and not np.logical_and.reduce(np.isfinite(span)):
            raise OverflowError("Range exceeds valid bounds")
        cuts = lo + span * rng.random(len(span))
        go_l = Xv < cuts
        nl = np.add.reduce(go_l, axis=0, dtype=np.intp).tolist()
        lim = max(msl, 1)
        valid = [f for f, k in enumerate(nl) if k >= lim and n - k >= lim]
        if not valid:
            return None
        # The sums go through the same NumPy/BLAS reductions whatever the node
        # size; the few per-feature scores are plain float arithmetic.
        sum_y = float(sum_y)
        sum_y2 = float(yv @ yv)
        syl = (yv @ go_l).tolist()
        syl2 = ((yv * yv) @ go_l).tolist()
        f, best = valid[0], -math.inf
        for j in valid:
            red = _sse_reduction(n, sum_y, sum_y2, nl[j], syl[j], syl2[j])
            if red != red:  # a NaN score (overflowed sums): the node stays a leaf
                return None
            if red > best:  # ties -> lowest feature index
                f, best = j, red
        mask = go_l[:, f]
        return f, float(cuts[f]), idx[mask], idx[~mask]

    return splitter


# ---------------------------------------------------------------------------
# Forest container
# ---------------------------------------------------------------------------

def _check_tree(t: Tree, n_features: int) -> None:
    """Refuse a tree unless its arrays describe a finite tree whose every
    internal node routes to higher-numbered nodes (so routing ends)."""
    arrays = (t.feature, t.threshold, t.left, t.right, t.value)
    n = t.n_nodes
    if n == 0 or any(a.ndim != 1 or len(a) != n for a in arrays):
        raise ValueError("tree arrays must be non-empty, one-dimensional and of equal length")
    leaf = t.feature == -1
    if np.any((t.left[leaf] != -1) | (t.right[leaf] != -1)):
        raise ValueError("a leaf has children")
    inner = np.nonzero(~leaf)[0]
    f, lo, hi = t.feature[inner], t.left[inner], t.right[inner]
    if np.any((f < 0) | (f >= n_features)):
        raise ValueError(f"a split feature lies outside [0, {n_features})")
    if np.any((lo <= inner) | (lo >= n) | (hi <= inner) | (hi >= n)):
        raise ValueError("a child index is not above its parent's and below the node count")
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
    meta: dict = field(default_factory=dict)

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

    @property
    def n_members(self) -> int:
        return len(self.trees) // self.trees_per_member


def fit_cart(features, targets, params: TreeParams = TreeParams(), seed: int = 0) -> Tree:
    """Greedy exact-split regression tree (the seed is accepted for interface
    symmetry; CART is deterministic)."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0 or len(X) != len(y):
        raise ValueError("need a non-empty (n, k) feature matrix with matching targets")
    return _grow(X, y, params, _cart_splitter(params))


def fit_extra_trees(
    features,
    targets,
    n_trees: int = 100,
    params: TreeParams = TreeParams(),
    seed: int = 0,
) -> Forest:
    """Extra Trees: every tree sees the full sample; randomness is in the cuts."""
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or len(X) == 0 or len(X) != len(y):
        raise ValueError("need a non-empty (n, k) feature matrix with matching targets")
    if n_trees < 1:
        raise ValueError(f"n_trees must be >= 1, got {n_trees}")
    # every node's ranges lie within the full sample's
    check_range = not np.all(np.isfinite(X.max(axis=0) - X.min(axis=0)))
    trees = tuple(
        _grow(X, y, params, _extra_splitter(params, _stream(seed, t), check_range))
        for t in range(n_trees)
    )
    return Forest(
        mode="extra_trees",
        trees=trees,
        n_features=X.shape[1],
        params=params,
        seed=seed,
        meta={"n_trees": n_trees},
    )


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
    X = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if X.ndim != 2 or len(X) < 2 or len(X) != len(y):
        raise ValueError("need at least 2 rows with matching targets")
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
    return Forest(
        mode="adaboost_r2",
        trees=tuple(member_trees),
        n_features=X.shape[1],
        params=params,
        seed=seed,
        trees_per_member=base_n_trees,
        tree_weights=np.asarray(member_weights),
        meta={"n_estimators": n_estimators, "base_n_trees": base_n_trees},
    )


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


def _member_predictions(forest: Forest, X: np.ndarray) -> np.ndarray:
    """(n_members, n_rows) matrix; a member's output averages its trees."""
    if len(X) == 1:
        # walk each tree in Python instead of paying the vectorized router's
        # per-level array overhead
        per_tree = np.array([[t.predict_row(X[0])] for t in forest.trees], dtype=np.float64)
    else:
        per_tree = np.stack([t.predict(X) for t in forest.trees])
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
    preds = _member_predictions(forest, X)
    if forest.mode in ("single", "extra_trees"):
        out = _sequential_mean(preds)
    else:
        out = weighted_median(preds, forest.tree_weights)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_forest(forest: Forest, path) -> None:
    write_model(path, "forest", forest)


def load_forest(path) -> Forest:
    return read_model(path, {"forest": Forest})
