import json
import math

import numpy as np
import pytest

from lumenrem import dataset as dt
from lumenrem import evalmap, mlp
from lumenrem import forest as fr
from lumenrem._doc import _decode_array, _encode_array


def _model(input_dim, hidden, seed=0, **kw):
    return mlp.init(mlp.MlpConfig(input_dim=input_dim, hidden=hidden, seed=seed, **kw))


def _linear_splits(n=1000, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, 3.0, (n, 3))
    y = 2.0 * x[:, 0] - x[:, 1] + 0.5 * x[:, 2] - 20.0
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=x, rss_dbm=y)
    return dt.split(ds, seed=seed)


# ---------------------------------------------------------------------------
# Config and initialization
# ---------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=0)
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=3, hidden=())
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=3, hidden=(32, 0))
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=3, learning_rate=0.0)
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=3, beta1=1.0)
    with pytest.raises(ValueError):
        mlp.MlpConfig(input_dim=3, batch_size=0)


def test_init_shapes():
    m = _model(3, (32, 128))
    assert [w.shape for w in m.weights] == [(3, 32), (32, 128), (128, 1)]
    assert [b.shape for b in m.biases] == [(32,), (128,), (1,)]
    assert all(np.all(b == 0) for b in m.biases)


def test_init_deterministic():
    a = _model(3, (8, 8), seed=5)
    b = _model(3, (8, 8), seed=5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    c = _model(3, (8, 8), seed=6)
    assert not np.array_equal(a.weights[0], c.weights[0])


def test_init_he_scale():
    m = _model(3, (32, 128), seed=1)
    std = m.weights[1].std()
    assert abs(std - math.sqrt(2.0 / 32.0)) / math.sqrt(2.0 / 32.0) < 0.10


def test_preset_names():
    assert mlp.MLP_PRESETS["mlp32x128"] == (32, 128)
    assert mlp.MLP_PRESETS["mlp64x256"] == (64, 256)


# ---------------------------------------------------------------------------
# Forward pass
# ---------------------------------------------------------------------------

def test_forward_zero_net():
    m = _model(3, (4,))
    for w in m.weights:
        w[:] = 0.0
    assert mlp.forward(m, np.array([1.0, -2.0, 3.0])) == 0.0


def test_forward_relu_clips():
    m = _model(1, (1,))
    m.weights[0][:] = 1.0
    m.weights[1][:] = 1.0
    m.biases[0][:] = 0.0
    m.biases[1][:] = 0.0
    assert mlp.forward(m, np.array([-5.0])) == 0.0
    assert mlp.forward(m, np.array([2.0])) == 2.0


def test_forward_hand_computed_221():
    """2-2-1 net checked against pencil-and-paper matrix arithmetic."""
    m = _model(2, (2,))
    m.weights[0][:] = np.array([[1.0, 2.0], [3.0, 4.0]])
    m.biases[0][:] = np.array([0.5, -1.0])
    m.weights[1][:] = np.array([[1.0], [-1.0]])
    m.biases[1][:] = np.array([0.25])
    # x = (1, -1): z1 = (-1.5, -3) -> ReLU (0, 0) -> 0.25
    assert mlp.forward(m, np.array([1.0, -1.0])) == 0.25
    # x = (2, 0.5): z1 = (4, 5) -> 4 - 5 + 0.25 = -0.75
    assert math.isclose(mlp.forward(m, np.array([2.0, 0.5])), -0.75, rel_tol=1e-15)


def test_forward_arity_mismatch():
    m = _model(3, (4,))
    with pytest.raises(ValueError):
        mlp.forward(m, np.array([1.0, 2.0]))


# ---------------------------------------------------------------------------
# Gradients
# ---------------------------------------------------------------------------

def test_perfect_fit_zero_gradients():
    m = _model(2, (2,))
    for w in m.weights:
        w[:] = 0.0
    x = np.array([[1.0, 2.0], [3.0, -1.0]])
    y = np.zeros(2)
    loss, gw, gb = mlp.loss_and_gradients(m, x, y)
    assert loss == 0.0
    assert all(np.all(g == 0) for g in gw + gb)


def test_residual_sign_symmetry():
    m = _model(2, (3,), seed=2)
    x = np.array([[0.3, -0.4], [1.2, 0.9], [-0.5, 0.1]])
    out = mlp.forward(m, x)
    la, _, gba = mlp.loss_and_gradients(m, x, out - 1.0)
    lb, _, gbb = mlp.loss_and_gradients(m, x, out + 1.0)
    assert math.isclose(la, lb, rel_tol=1e-12)
    np.testing.assert_allclose(gba[-1], -gbb[-1], rtol=1e-12)


@pytest.mark.parametrize("dims,n_draws", [((3, (4,)), 10), ((5, (8, 8)), 20)])
def test_gradients_match_finite_differences(dims, n_draws):
    input_dim, hidden = dims
    h = 1e-5
    for draw in range(n_draws):
        rng = np.random.default_rng(1000 + draw)
        m = _model(input_dim, hidden, seed=draw)
        # keep every pre-activation off the ReLU kink, where the subgradient
        # convention and a finite difference legitimately disagree
        for p in m.params:
            p += rng.normal(0.0, 0.1, p.shape)
        x = rng.normal(0.0, 1.0, (8, input_dim))
        y = rng.normal(0.0, 1.0, 8)
        _, gw, gb = mlp.loss_and_gradients(m, x, y)
        analytic = gw + gb
        for p_idx, p in enumerate(m.params):
            it = np.nditer(p, flags=["multi_index"])
            for _ in it:
                ix = it.multi_index
                orig = p[ix]
                p[ix] = orig + h
                lp, _, _ = mlp.loss_and_gradients(m, x, y)
                p[ix] = orig - h
                lm, _, _ = mlp.loss_and_gradients(m, x, y)
                p[ix] = orig
                fd = (lp - lm) / (2.0 * h)
                an = analytic[p_idx][ix]
                denom = max(abs(fd), abs(an), 1e-6)
                assert abs(fd - an) / denom < 1e-5, (draw, p_idx, ix, fd, an)


def test_public_gradients_are_not_overwritten_by_the_next_call():
    """`train` reuses its gradient buffers from step to step; a call made
    outside it gets arrays of its own, which a later call leaves alone."""
    m = _model(3, (8, 4), seed=5)
    rng = np.random.default_rng(5)
    x, y = rng.normal(size=(6, 3)), rng.normal(size=6)
    _, gw, gb = mlp.loss_and_gradients(m, x, y)
    kept = [g.copy() for g in gw + gb]
    mlp.loss_and_gradients(m, 2.0 * x, y + 1.0)
    mlp.loss_and_gradients(m, x[:3], y[:3])
    assert all(np.array_equal(g, k) for g, k in zip(gw + gb, kept))


def test_train_drops_its_workspace_and_returns_plain_weights():
    model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=2, batch_size=7, seed=1),
                      _linear_splits(n=40, seed=1))
    assert not hasattr(model, "_work")
    assert [w.shape for w in model.weights] == [(3, 4), (4, 1)]
    assert [b.shape for b in model.biases] == [(4,), (1,)]
    assert all(p.flags.c_contiguous for p in model.params)


def test_empty_batch_rejected():
    m = _model(2, (2,))
    with pytest.raises(ValueError):
        mlp.loss_and_gradients(m, np.empty((0, 2)), np.empty(0))


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_first_step_magnitude():
    cfg = mlp.MlpConfig(input_dim=1, hidden=(1,))
    p = np.array([1.0])
    state = mlp.AdamState.for_params([p])
    mlp.adam_step(state, [p], [np.array([0.4])], cfg)
    assert math.isclose(p[0], 1.0 - cfg.learning_rate, rel_tol=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_fixed_point():
    cfg = mlp.MlpConfig(input_dim=1, hidden=(1,))
    p = np.array([3.0, -2.0])
    state = mlp.AdamState.for_params([p])
    mlp.adam_step(state, [p], [np.zeros(2)], cfg)
    np.testing.assert_array_equal(p, [3.0, -2.0])
    assert state.t == 1


def test_adam_recurrence_on_quadratic():
    """Five steps minimizing w^2 from w=1 vs. an independent scalar recurrence."""
    cfg = mlp.MlpConfig(input_dim=1, hidden=(1,), learning_rate=0.1)
    p = np.array([1.0])
    state = mlp.AdamState.for_params([p])

    w = 1.0
    m = v = 0.0
    lr, b1, b2, eps = 0.1, cfg.beta1, cfg.beta2, cfg.epsilon
    for t in range(1, 6):
        g = 2.0 * p[0]
        mlp.adam_step(state, [p], [np.array([g])], cfg)
        gh = 2.0 * w
        m = b1 * m + (1 - b1) * gh
        v = b2 * v + (1 - b2) * gh * gh
        w -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        assert math.isclose(p[0], w, rel_tol=1e-12, abs_tol=1e-12)
    assert state.t == 5


def test_adam_on_one_flat_vector_matches_adam_on_separate_arrays():
    """The flat update `train` makes gives every parameter the bits the same
    step gives it as a separate array, step after step."""
    cfg = mlp.MlpConfig(input_dim=3, hidden=(5,))
    rng = np.random.default_rng(11)
    params = [rng.normal(size=(3, 5)), rng.normal(size=(5, 1)), rng.normal(size=5),
              rng.normal(size=1)]
    flat = np.concatenate([p.ravel() for p in params])
    apart, joined = mlp.AdamState.for_params(params), mlp.AdamState.for_params([flat])
    for _ in range(4):
        grads = [rng.normal(size=p.shape) for p in params]
        mlp.adam_step(apart, params, grads, cfg)
        mlp.adam_step(joined, [flat], [np.concatenate([g.ravel() for g in grads])], cfg)
    assert flat.tobytes() == np.concatenate([p.ravel() for p in params]).tobytes()
    assert apart.m.tobytes() == joined.m.tobytes() and apart.v.tobytes() == joined.v.tobytes()


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def test_train_zero_epochs():
    splits = _linear_splits(n=50)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=0, seed=1)
    model = mlp.train(cfg, splits)
    ref = mlp.init(cfg)
    for w, wr in zip(model.weights, ref.weights):
        np.testing.assert_array_equal(w, wr)
    assert model.training_log == []
    assert model.norm is not None


def test_train_deterministic():
    splits = _linear_splits(n=100)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(8,), epochs=5, seed=3)
    a = mlp.train(cfg, splits)
    b = mlp.train(cfg, splits)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)
    assert a.training_log == b.training_log


def test_train_logs_every_epoch():
    splits = _linear_splits(n=60)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=7, seed=0)
    model = mlp.train(cfg, splits)
    assert [e["epoch"] for e in model.training_log] == list(range(7))
    assert all(math.isfinite(e["train_mse"]) and math.isfinite(e["val_mse"]) for e in model.training_log)


def test_train_mse_is_the_row_weighted_mean_of_minibatch_losses(monkeypatch):
    splits = _linear_splits(n=50, seed=2)
    losses = []
    real = mlp.loss_and_gradients

    def spy(model, x, y):
        out = real(model, x, y)
        losses.append((out[0], len(x)))
        return out

    monkeypatch.setattr(mlp, "loss_and_gradients", spy)
    model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(8,), epochs=2, batch_size=7, seed=2),
                      splits)
    n = len(splits.train)  # 30 rows: batches of 7, 7, 7, 7 and 2
    assert [rows for _, rows in losses] == [7, 7, 7, 7, 2] * 2
    for epoch, entry in enumerate(model.training_log):
        batches = losses[5 * epoch : 5 * epoch + 5]
        assert entry["train_mse"] == sum(loss * rows for loss, rows in batches) / n


def test_train_converges_on_linear_target():
    """Noiseless linear map: normalized training MSE < 1e-3 within 500 epochs."""
    splits = _linear_splits(n=1000, seed=7)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(32,), epochs=500, seed=7)
    model = mlp.train(cfg, splits)
    assert model.training_log[-1]["train_mse"] < 1e-3


def test_train_wrong_arity():
    splits = _linear_splits(n=50)
    cfg = mlp.MlpConfig(input_dim=5, hidden=(4,), epochs=1)
    with pytest.raises(ValueError):
        mlp.train(cfg, splits)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

def test_predict_overfits_tiny_dataset():
    rng = np.random.default_rng(9)
    x = rng.uniform(0.0, 3.0, (6, 3))
    y = rng.uniform(-30.0, -10.0, 6)
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=x, rss_dbm=y)
    splits = dt.SplitSets(train=ds, validation=ds.take([0]), test=ds.take([0]))
    cfg = mlp.MlpConfig(
        input_dim=3, hidden=(32,), learning_rate=0.01, epochs=2000, batch_size=6, seed=9
    )
    model = mlp.train(cfg, splits)
    pred = mlp.predict(model, x)
    assert np.max(np.abs(pred - y)) < 0.25


def test_predict_batch_equals_scalar():
    splits = _linear_splits(n=100)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(8,), epochs=10, seed=4)
    model = mlp.train(cfg, splits)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.0, 3.0, (1000, 3))
    batch = mlp.predict(model, x)
    for i in range(0, 1000, 97):
        assert math.isclose(batch[i], mlp.predict(model, x[i]), rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("kind", ["mlp", "forest"])
def test_predict_arity_mismatch(kind):
    """Every model's predict refuses a row of the wrong width, or a batch of
    such rows, by the one input rule and with its message."""
    splits = _linear_splits(n=50)
    if kind == "mlp":
        model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=1), splits)
        assert model.norm is not None  # the rows are checked before they are normalized
        predict = mlp.predict
    else:
        model = fr.fit_extra_trees(splits.train.features, splits.train.rss_dbm, n_trees=2)
        predict = fr.predict_forest
    with pytest.raises(ValueError, match=r"expected 3 features, got shape \(1, 4\)"):
        predict(model, np.array([1.0, 2.0, 3.0, 4.0]))
    with pytest.raises(ValueError, match=r"expected 3 features, got shape \(2, 4\)"):
        predict(model, np.zeros((2, 4)))
    with pytest.raises(ValueError, match=r"expected 3 features, got shape \(2, 3, 1\)"):
        predict(model, np.zeros((2, 3, 1)))


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path):
    splits = _linear_splits(n=100)
    cfg = mlp.MlpConfig(input_dim=3, hidden=(8, 4), epochs=5, seed=12)
    model = mlp.train(cfg, splits)
    p = tmp_path / "m.json"
    mlp.save_model(model, p)
    back = mlp.load_model(p)
    rng = np.random.default_rng(13)
    x = rng.uniform(0.0, 3.0, (100, 3))
    np.testing.assert_array_equal(mlp.predict(model, x), mlp.predict(back, x))
    assert back.config == model.config
    assert back.training_log == model.training_log


def test_load_truncated_file(tmp_path):
    splits = _linear_splits(n=50)
    model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=1), splits)
    p = tmp_path / "m.json"
    mlp.save_model(model, p)
    (tmp_path / "bad.json").write_text(p.read_text()[: p.stat().st_size // 2])
    with pytest.raises(mlp.ModelFormatError):
        mlp.load_model(tmp_path / "bad.json")


def test_load_version_mismatch(tmp_path):
    splits = _linear_splits(n=50)
    model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=1), splits)
    p = tmp_path / "m.json"
    mlp.save_model(model, p)
    doc = json.loads(p.read_text())
    doc["format_version"] = 0
    p.write_text(json.dumps(doc))
    with pytest.raises(mlp.ModelVersionError):
        mlp.load_model(p)


def test_load_wrong_kind(tmp_path):
    p = tmp_path / "m.json"
    p.write_text(json.dumps({"format_version": mlp.MODEL_FORMAT_VERSION, "kind": "forest"}))
    with pytest.raises(mlp.ModelFormatError):
        mlp.load_model(p)


def _set(path, value):
    """An edit of a model document: `path` walks to a field, whose item at the
    last step gets `value`; a tuple last step indexes the array the field stores."""
    def edit(doc):
        node = doc
        for key in path[:-2]:
            node = node[key]
        key, index = path[-2:]
        if isinstance(index, tuple):
            a = _decode_array(node[key], "edited", "<f8").copy()
            a[index] = value
            node[key] = _encode_array(a)
        else:
            node[key][index] = value
        return doc
    return edit


_NAN, _INF = float("nan"), float("inf")
_NOT_FINITE = "a weight or bias is not finite"
_BAD_NORM = "normalization statistics must be finite, standard deviations > 0"


@pytest.mark.parametrize("edit, message", [
    (_set(("weights", 0, (1, 2)), _NAN), _NOT_FINITE),
    (_set(("weights", 1, (0, 0)), -_INF), _NOT_FINITE),
    (_set(("biases", 0, (3,)), _INF), _NOT_FINITE),
    (_set(("norm", "feature_mean", (1,)), _NAN), _BAD_NORM),
    (_set(("norm", "target_mean"), _INF), _BAD_NORM),
    (_set(("norm", "feature_std", (0,)), 0.0), _BAD_NORM),
    (_set(("norm", "feature_std", (2,)), -1.0), _BAD_NORM),
    (_set(("norm", "target_std"), _NAN), _BAD_NORM),
], ids=["nan-weight", "inf-weight", "inf-bias", "nan-feature-mean", "inf-target-mean",
        "zero-feature-std", "negative-feature-std", "nan-target-std"])
def test_load_rejects_hostile_mlp_files(tmp_path, edit, message):
    """Each file fails at load time, naming the file and the fault; none is
    ever handed to predict."""
    model = mlp.train(mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=1), _linear_splits(n=50))
    p = tmp_path / "m.json"
    mlp.save_model(model, p)
    p.write_text(json.dumps(edit(json.loads(p.read_text()))))
    with pytest.raises(mlp.ModelFormatError, match=f"m.json is malformed: {message}"):
        mlp.load_model(p)
    with pytest.raises(mlp.ModelFormatError, match=f"m.json is malformed: {message}"):
        evalmap.load_any_model(p)
