"""Fully connected feedforward regressor trained with backpropagation + Adam.

Hand-rolled on numpy in double precision: ReLU hidden layers, a single linear
output neuron, MSE loss, He-normal initialization, and seeded epoch shuffling.
Feature/target standardization is captured at training time and applied
transparently by `predict`, so callers always work in raw units (meters in,
dBm out).

Training keeps every weight and bias as a view into one flat parameter
vector and steps it with whole-vector Adam updates, writing each minibatch's
activations and gradients into buffers reused from step to step. One forward
function serves the training step, the epoch's validation pass, `forward` and
`predict`: it writes each layer's output into the buffers training passes it,
or into new arrays. Its bits are those of the same arithmetic on separate,
freshly allocated arrays, and do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._doc import ModelFormatError, ModelVersionError  # re-exported
from ._doc import MODEL_FORMAT_VERSIONS, check_fields, read_model, write_model
from .dataset import NormStats, SplitSets, _feature_rows, _stream, apply_norm, fit_norm

__all__ = [
    "MLP_PRESETS",
    "MlpConfig",
    "MlpModel",
    "AdamState",
    "ModelFormatError",
    "ModelVersionError",
    "MODEL_FORMAT_VERSION",
    "init",
    "forward",
    "loss_and_gradients",
    "adam_step",
    "train",
    "predict",
    "save_model",
    "load_model",
]

# the format version of an MLP model file
MODEL_FORMAT_VERSION = MODEL_FORMAT_VERSIONS["mlp"]

# Hidden-layer widths selectable by name on the command line.
MLP_PRESETS = {
    "mlp32x128": (32, 128),
    "mlp64x256": (64, 256),
}

@dataclass(frozen=True)
class MlpConfig:
    """Architecture and optimizer settings for one training run."""

    input_dim: int
    hidden: tuple[int, ...] = MLP_PRESETS["mlp32x128"]
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 2000
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        for name in ("learning_rate", "epsilon"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)!r}")
        for name in ("beta1", "beta2"):
            if not 0 <= getattr(self, name) < 1:
                raise ValueError(f"{name} must lie in [0, 1), got {getattr(self, name)!r}")
        for name, low in (("epochs", 0), ("batch_size", 1)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be >= {low}, got {getattr(self, name)!r}")

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, 1)


@dataclass
class MlpModel:
    """Weights/biases plus the normalization captured when they were fit."""

    config: MlpConfig
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm: NormStats | None = None
    training_log: list[dict] = field(default_factory=list)

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        dims = self.config.layer_dims
        if len(self.weights) != len(dims) - 1 or len(self.biases) != len(dims) - 1:
            raise ValueError("layer count does not match the config")
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if w.shape != (dims[i], dims[i + 1]) or b.shape != (dims[i + 1],):
                raise ValueError(
                    f"layer {i} shapes {w.shape}/{b.shape} do not chain {dims[i]}->{dims[i+1]}"
                )
        if not all(np.all(np.isfinite(p)) for p in self.params):
            raise ValueError("a weight or bias is not finite")

    @property
    def n_features(self) -> int:
        return self.config.input_dim

    @property
    def params(self) -> list[np.ndarray]:
        return self.weights + self.biases


def init(config: MlpConfig) -> MlpModel:
    """He-normal weights (std sqrt(2/fan_in)), zero biases, seeded."""
    rng = _stream(config.seed, 0)
    dims = config.layer_dims
    weights = [
        rng.normal(0.0, np.sqrt(2.0 / dims[i]), size=(dims[i], dims[i + 1]))
        for i in range(len(dims) - 1)
    ]
    biases = [np.zeros(dims[i + 1]) for i in range(len(dims) - 1)]
    return MlpModel(config=config, weights=weights, biases=biases)


# ---------------------------------------------------------------------------
# Forward / backward
# ---------------------------------------------------------------------------

def _forward_into(model: MlpModel, x: np.ndarray, outs: list[np.ndarray] | None = None
                  ) -> list[np.ndarray]:
    """Every layer's output, the input not included: written into `outs` (one
    (rows, width) array per layer) when it is given, into new arrays
    otherwise. This one forward serves `forward`, `predict`, the training step
    and the validation pass.

    Bias and ReLU are applied in place on each product, which gives the same
    bits as `np.maximum(a @ w + b, 0)` without two extra temporaries per layer.
    Without `outs` the product is `a @ w`, which skips the keyword parsing of
    `np.matmul(..., out=None)` on a single row's small products.
    """
    last = len(model.weights) - 1
    a, acts = x, []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w if outs is None else np.matmul(a, w, out=outs[i])
        a += b
        if i < last:
            np.maximum(a, 0.0, out=a)
        acts.append(a)
    return acts


def forward(model: MlpModel, features):
    """Network output in the normalized target domain. 1D in, float out."""
    x, one_row = _feature_rows(features, model.config.input_dim)
    out = _forward_into(model, x)[-1][:, 0]
    return float(out[0]) if one_row else out


def loss_and_gradients(model: MlpModel, features: np.ndarray, targets: np.ndarray):
    """MSE over the batch and its gradients w.r.t. every weight and bias.

    During `train` the arrays are the model's buffers for the batch's row
    count and are overwritten by the next call; any other call gets fresh ones.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = x.shape[0]
    buf = _buffers(model, n)
    acts = [x, *_forward_into(model, x, buf.z)]
    resid = np.subtract(acts[-1], y, out=buf.resid)
    # np.add.reduce over every axis, then / n, is what np.mean does
    loss = float(np.add.reduce(np.square(resid, out=buf.sq), axis=None) / n)

    # delta = 2.0 * resid / n, in place
    delta = np.multiply(resid, 2.0, out=resid)
    delta /= n
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].T, delta, out=buf.gw[i])
        np.add.reduce(delta, axis=0, out=buf.gb[i])
        if i > 0:
            w = model.weights[i]
            back = buf.back[i - 1]
            if w.shape[1] == 1:
                # an outer product: delta @ w.T is 0.0 + each product, which
                # broadcasting gives bit for bit at a fraction of the cost
                np.multiply(delta, w[:, 0], out=back)
                back += 0.0
            else:
                np.matmul(delta, w.T, out=back)
            # ReLU subgradient: strictly positive pre-activations pass, 0 at 0;
            # the ReLU output is positive exactly where its input is
            back *= np.greater(acts[i], 0.0, out=buf.mask[i - 1])
            delta = back
    return loss, buf.gw, buf.gb


def _flat_views(flat: np.ndarray, dims: tuple[int, ...]) -> tuple[list, list]:
    """Weight and bias views into one flat vector laid out as `AdamState`
    lays out its moments: every weight matrix, then every bias, each raveled."""
    pairs = list(zip(dims[:-1], dims[1:]))
    sizes = [a * b for a, b in pairs] + list(dims[1:])
    parts = np.split(flat, np.cumsum(sizes)[:-1])
    return [p.reshape(s) for p, s in zip(parts, pairs)], parts[len(pairs):]


def _buffers(model: MlpModel, rows: int) -> "_Buffers":
    """The buffers `train` keeps on the model for `rows` rows, made on first
    use; outside `train`, new ones."""
    work = getattr(model, "_work", None)
    if work is None:
        return _Buffers(model.config.layer_dims, rows)
    if rows not in work:
        work[rows] = _Buffers(model.config.layer_dims, rows)
    return work[rows]


class _Buffers:
    """Every array one minibatch of `rows` rows writes, reused from step to
    step of one batch size: the gathered rows and targets, each layer's
    output, the residual and its square, each hidden layer's backpropagated
    delta and float ReLU mask, and the gradient as one flat vector in
    `AdamState`'s layout, with a view per weight and bias."""

    def __init__(self, dims: tuple[int, ...], rows: int):
        self.x = np.empty((rows, dims[0]))
        self.y = np.empty(rows)
        self.z = [np.empty((rows, d)) for d in dims[1:]]
        self.resid = np.empty((rows, 1))
        self.sq = np.empty((rows, 1))
        self.back = [np.empty((rows, d)) for d in dims[1:-1]]
        self.mask = [np.empty((rows, d)) for d in dims[1:-1]]
        self.g = np.empty(sum(a * b for a, b in zip(dims, dims[1:])) + sum(dims[1:]))
        self.gw, self.gb = _flat_views(self.g, dims)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators of every parameter, back to back in
    one flat array each (parameter order, each raveled), so a step is a few
    whole-vector operations instead of a few per parameter array. Two
    temporaries of the same size are kept for the step to write into."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0
    _tmp: tuple = field(default=(), init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        size = sum(p.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], config: MlpConfig) -> None:
    """One bias-corrected Adam update, applied to the parameters in place.

    The update is `lr * (m / c1) / (sqrt(v / c2) + epsilon)`, evaluated in that
    order into the state's two temporaries. A single flat parameter (as `train`
    passes) is updated by one subtraction.
    """
    if len(params) != len(grads) or any(p.shape != np.shape(g) for p, g in zip(params, grads)):
        raise ValueError("parameter/gradient shapes differ")
    if len(grads) == 1:
        g = np.ravel(grads[0])  # no copy of the one flat gradient `train` passes
    else:
        g = np.concatenate([np.ravel(x) for x in grads]) if grads else np.zeros(0)
    if g.size != state.m.size:
        raise ValueError("parameter/state sizes differ")
    if len(state._tmp) != 2 or state._tmp[0].shape != state.m.shape:
        state._tmp = (np.empty_like(state.m), np.empty_like(state.m))
    a, b = state._tmp
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += np.multiply(g, 1.0 - b1, out=a)
    v *= b2
    np.multiply(g, 1.0 - b2, out=a)
    a *= g
    v += a
    np.divide(m, c1, out=a)
    a *= config.learning_rate
    np.divide(v, c2, out=b)
    np.sqrt(b, out=b)
    b += config.epsilon
    a /= b
    lo = 0
    for p in params:
        p -= a[lo : lo + p.size].reshape(p.shape)
        lo += p.size


# ---------------------------------------------------------------------------
# Training and prediction
# ---------------------------------------------------------------------------

def train(config: MlpConfig, splits: SplitSets) -> MlpModel:
    """Fixed-epoch minibatch training; the validation set is logged, not used.

    Normalization is fit on the training split only. Every epoch reshuffles
    with the seeded generator and walks all minibatches including the final
    short one; there is no early stopping. Each epoch logs `train_mse`, the
    row-weighted mean of its minibatch losses (each taken before its update),
    and `val_mse`, the validation MSE after the epoch (NaN with no rows).

    The weights and biases are views into one flat parameter vector, which
    one `adam_step` call updates per minibatch. While training runs, the
    model holds a private workspace (`_Buffers` per row count), so a step
    gathers its rows, computes its activations and gradients, and the epoch's
    validation pass writes its outputs without allocating; the workspace is
    dropped before the model is returned. Every bit is what `init`,
    `loss_and_gradients` and `adam_step` on separate arrays give, and
    `tests/test_mlp_bits.py` holds them.
    """
    if len(splits.train) == 0:
        raise ValueError("training set is empty")
    if splits.train.n_features != config.input_dim:
        raise ValueError(
            f"config expects {config.input_dim} features, training set has {splits.train.n_features}"
        )
    stats = fit_norm(splits.train)
    x_tr, y_tr = apply_norm(stats, splits.train.features, splits.train.rss_dbm)
    have_val = len(splits.validation) > 0
    if have_val:
        x_va, y_va = apply_norm(stats, splits.validation.features, splits.validation.rss_dbm)
        val_z = [np.empty((len(x_va), d)) for d in config.layer_dims[1:]]
        val_err = np.empty(len(x_va))

    model = init(config)
    model.norm = stats
    theta = np.concatenate([p.ravel() for p in model.params])
    model.weights, model.biases = _flat_views(theta, config.layer_dims)
    state = AdamState.for_params(model.params)
    shuffle = _stream(config.seed, 1)
    n = len(x_tr)
    bs = config.batch_size
    model._work = {}  # _Buffers by row count, while training runs
    try:
        for epoch in range(config.epochs):
            perm = shuffle.permutation(n)
            sse = 0.0
            for lo in range(0, n, bs):
                idx = perm[lo : lo + bs]
                rows = len(idx)
                buf = _buffers(model, rows)
                # every index is in range, and mode="raise" would gather via a copy
                loss, _, _ = loss_and_gradients(
                    model, np.take(x_tr, idx, axis=0, out=buf.x, mode="clip"),
                    np.take(y_tr, idx, out=buf.y, mode="clip"))
                adam_step(state, [theta], [buf.g], config)
                sse += loss * rows
            if have_val:
                # the bits of np.mean((forward(model, x_va) - y_va) ** 2)
                out = _forward_into(model, x_va, val_z)[-1][:, 0]
                np.square(np.subtract(out, y_va, out=val_err), out=val_err)
                val_mse = float(np.add.reduce(val_err, axis=None) / len(val_err))
            else:
                val_mse = float("nan")
            model.training_log.append({"epoch": epoch, "train_mse": sse / n, "val_mse": val_mse})
    finally:
        del model._work
    return model


def predict(model: MlpModel, features):
    """RSS prediction in dBm from raw features; scalar for a single row."""
    x, one_row = _feature_rows(features, model.config.input_dim)
    if model.norm is not None:
        x = apply_norm(model.norm, x)
    out = _forward_into(model, x)[-1][:, 0]
    if model.norm is not None:
        out = out * model.norm.target_std + model.norm.target_mean
    return float(out[0]) if one_row else out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    write_model(path, "mlp", model)


def load_model(path) -> MlpModel:
    return read_model(path, {"mlp": MlpModel})
