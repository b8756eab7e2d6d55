"""Forest predictions held to fixed bits.

The sha1s below were computed before the batch router began to step its
(tree, row) pairs through self-looping leaves in blocks of levels, so a
change to how rows are routed, walked or combined must leave every
prediction as it was. Each case hashes the float64 bytes of its
predictions: a batch, and the same rows predicted one at a time.
"""

import hashlib

import numpy as np
import pytest

from lumenrem import forest as fr
from lumenrem.dataset import Dataset
from lumenrem.evalmap import evaluate_model, predict_map
from lumenrem.scene import preset_scene


def _training(n: int, seed: int):
    """Rows in the `mid` room (5 x 5 x 3 m) with a smooth target and noise."""
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 1.0, (n, 3)) * [5.0, 5.0, 3.0]
    d = np.hypot(X[:, 0] - 2.5, X[:, 1] - 2.5)
    y = -20.0 - 6.0 * d + 2.0 * X[:, 2] + 0.3 * rng.normal(size=n)
    return X, y


def _models():
    X, y = _training(400, 1)
    return {
        "dt": fr.Forest(mode="single", trees=(fr.fit_cart(X, y),), n_features=3,
                        params=fr.TreeParams(), seed=0),
        "xt": fr.fit_extra_trees(X, y, n_trees=10, seed=2),
        "adaboost": fr.fit_adaboost_r2(X, y, n_estimators=4, base_n_trees=3, seed=3),
        # enough trees that a single row is routed, not walked
        "xt64": fr.fit_extra_trees(X, y, n_trees=64, seed=4),
    }


def _chain():
    """A CART tree on y = 2 ** x, x = 0..59: each cut splits off the largest
    row, so the tree is a chain 59 levels deep, far past any level block."""
    x = np.arange(60.0)
    tree = fr.fit_cart(x[:, None], 2.0 ** x)
    return fr.Forest(mode="single", trees=(tree,), n_features=1, params=fr.TreeParams(),
                     seed=0), x


def _leaves():
    """Three trees that are each a single root leaf, one of them -0.0."""
    trees = tuple(fr.Tree([-1], [np.nan], [v]) for v in (-0.0, 2.5, -7.25))
    return fr.Forest(mode="extra_trees", trees=trees, n_features=3, params=fr.TreeParams(),
                     seed=0)


def _edge_rows(f: fr.Forest, seed: int) -> np.ndarray:
    """Rows whose entries are split thresholds, NaN, +inf, -inf or the
    neighbours of a threshold, so every tie and non-finite case is routed."""
    cuts = np.concatenate([t.threshold[t.feature >= 0] for t in f.trees])
    pool = np.concatenate([cuts, np.nextafter(cuts, -np.inf), np.nextafter(cuts, np.inf),
                           [np.nan, np.inf, -np.inf, 0.0, -0.0]])
    return np.random.default_rng(seed).choice(pool, (200, f.n_features))


def _sha1(batch: np.ndarray, f: fr.Forest, rows: np.ndarray) -> str:
    alone = np.array([fr.predict_forest(f, x) for x in rows])
    return hashlib.sha1(batch.tobytes() + alone.tobytes()).hexdigest()


def _cases():
    models = _models()
    mid = preset_scene("mid")
    ref_x, ref_y = _training(500, 9)
    reference = Dataset(feature_names=("x", "y", "z"), features=ref_x, rss_dbm=ref_y)
    out = {}
    for kind, f in models.items():
        if kind == "xt64":
            rows = _edge_rows(f, 6)
            out["xt64 edge rows"] = (fr.predict_forest(f, rows), f, rows)
            continue
        grid = predict_map(f, mid, 1.0, 0.1)
        out[f"{kind} mid map"] = (grid.values.ravel(), f, None)
        report = evaluate_model(f, reference)
        out[f"{kind} 500-row evaluate"] = (np.append(fr.predict_forest(f, ref_x), report.mae_dbm),
                                           f, ref_x)
        rows = _edge_rows(f, 4)
        out[f"{kind} edge rows"] = (fr.predict_forest(f, rows), f, rows)
    leaves = _leaves()
    rows = _edge_rows(models["xt"], 5)
    out["single-leaf trees"] = (fr.predict_forest(leaves, rows), leaves, rows)
    chain, x = _chain()
    rows = np.concatenate([x - 0.5, x, x + 0.5, [np.nan, np.inf, -np.inf]])[:, None]
    out["59-level chain"] = (fr.predict_forest(chain, rows), chain, rows)
    return out


_SHA1 = {
    "dt mid map": "214dd68c816ba584a7821df523c2ac001d44cd5e",
    "dt 500-row evaluate": "1ce1c9cfbca6bb7bc9eb93f9757d105b0fa49276",
    "dt edge rows": "1d179ddae0035ec64393d507174ba26afdce70f4",
    "xt mid map": "8c143718265c019df366cf2882890befebe7eb93",
    "xt 500-row evaluate": "2cd7985b5c611e482e083ad41bfeef22f2be850d",
    "xt edge rows": "3eebf78306213402885ec3b8b4f0f0d1c08d2cf8",
    "adaboost mid map": "c628be6005ed5ef685a7d9d96cb6a82452a765a2",
    "adaboost 500-row evaluate": "651672f1f9786e65f75fd5ed0081f700c9fb2810",
    "adaboost edge rows": "1024403e25ac4f8361436808862bfa329c27d3dc",
    "xt64 edge rows": "4856e74bba191c1f4283af2e7d16b0e983aefacf",
    "single-leaf trees": "a7d6f9e1d3b70b230cb2e827edbeb1f84b652b0b",
    "59-level chain": "eb7f8141a3c772d8e6d57f3e705796bdd5973900",
}


@pytest.fixture(scope="module")
def cases():
    return _cases()


@pytest.mark.parametrize("name", list(_SHA1))
def test_forest_predictions_keep_their_bits(cases, name):
    batch, f, rows = cases[name]
    if rows is None:  # a map's rows are its cells; they are predicted as one batch only
        assert hashlib.sha1(batch.tobytes()).hexdigest() == _SHA1[name]
    else:
        assert _sha1(batch, f, rows) == _SHA1[name]
