"""Fully connected feedforward regressor trained with backpropagation + Adam.

Hand-rolled on numpy in double precision: ReLU hidden layers, a single linear
output neuron, MSE loss, He-normal initialization, and seeded epoch shuffling.
Feature/target standardization is captured at training time and applied
transparently by `predict`, so callers always work in raw units (meters in,
dBm out).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._doc import MODEL_FORMAT_VERSION, ModelFormatError, ModelVersionError  # re-exported
from ._doc import read_model, write_model
from .dataset import NormStats, SplitSets, _stream, apply_norm, fit_norm

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
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"hidden widths must be positive, got {self.hidden}")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if not (0 <= self.beta1 < 1 and 0 <= self.beta2 < 1):
            raise ValueError("beta1/beta2 must lie in [0, 1)")
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")

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

def _forward_cached(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Activations of every layer for backprop, the input first.

    Bias and ReLU are applied in place on each product, which gives the same
    bits as `np.maximum(a @ w + b, 0)` without two extra temporaries per layer.
    """
    acts = [x]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ w
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        acts.append(z)
    return acts


def _rows(model: MlpModel, features) -> tuple[np.ndarray, bool]:
    """Features as a (rows, input_dim) float array, and whether one 1D row came in."""
    x = np.asarray(features, dtype=np.float64)
    scalar = x.ndim == 1
    if scalar:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.config.input_dim:
        raise ValueError(
            f"expected {model.config.input_dim} features, got shape {x.shape}"
        )
    return x, scalar


def forward(model: MlpModel, features):
    """Network output in the normalized target domain. 1D in, float out."""
    x, scalar = _rows(model, features)
    out = _forward_cached(model, x)[-1][:, 0]
    return float(out[0]) if scalar else out


def loss_and_gradients(model: MlpModel, features: np.ndarray, targets: np.ndarray):
    """MSE over the batch and its gradients w.r.t. every weight and bias."""
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64).reshape(-1, 1)
    if x.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    n = x.shape[0]
    acts = _forward_cached(model, x)
    resid = acts[-1] - y
    loss = float(np.mean(resid ** 2))

    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = 2.0 * resid / n
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] = acts[i].T @ delta
        grads_b[i] = delta.sum(axis=0)
        if i > 0:
            w = model.weights[i]
            if w.shape[1] == 1:
                # an outer product: delta @ w.T is 0.0 + each product, which
                # broadcasting gives bit for bit at a fraction of the cost
                back = delta * w[:, 0]
                back += 0.0
            else:
                back = delta @ w.T
            # ReLU subgradient: strictly positive pre-activations pass, 0 at 0;
            # the ReLU output is positive exactly where its input is
            back *= acts[i] > 0.0
            delta = back
    return loss, grads_w, grads_b


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

@dataclass
class AdamState:
    """First/second moment accumulators of every parameter, back to back in
    one flat array each (parameter order, each raveled), so a step is a few
    whole-vector operations instead of a few per parameter array."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def for_params(cls, params: list[np.ndarray]) -> "AdamState":
        size = sum(p.size for p in params)
        return cls(m=np.zeros(size), v=np.zeros(size))


def adam_step(state: AdamState, params: list[np.ndarray], grads: list[np.ndarray], config: MlpConfig) -> None:
    """One bias-corrected Adam update, applied to the parameters in place."""
    if len(params) != len(grads) or any(p.shape != np.shape(g) for p, g in zip(params, grads)):
        raise ValueError("parameter/gradient shapes differ")
    g = np.concatenate([np.ravel(x) for x in grads]) if grads else np.zeros(0)
    if g.size != state.m.size:
        raise ValueError("parameter/state sizes differ")
    state.t += 1
    b1, b2 = config.beta1, config.beta2
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    step = config.learning_rate * (m / c1) / (np.sqrt(v / c2) + config.epsilon)
    lo = 0
    for p in params:
        p -= step[lo : lo + p.size].reshape(p.shape)
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

    model = init(config)
    model.norm = stats
    state = AdamState.for_params(model.params)
    shuffle = _stream(config.seed, 1)
    n = len(x_tr)
    bs = config.batch_size
    for epoch in range(config.epochs):
        perm = shuffle.permutation(n)
        sse = 0.0
        for lo in range(0, n, bs):
            idx = perm[lo : lo + bs]
            loss, gw, gb = loss_and_gradients(model, x_tr[idx], y_tr[idx])
            adam_step(state, model.params, gw + gb, config)
            sse += loss * len(idx)
        val_mse = float(np.mean((forward(model, x_va) - y_va) ** 2)) if have_val else float("nan")
        model.training_log.append({"epoch": epoch, "train_mse": sse / n, "val_mse": val_mse})
    return model


def predict(model: MlpModel, features):
    """RSS prediction in dBm from raw features; scalar for a single row."""
    x, scalar = _rows(model, features)
    if model.norm is not None:
        x = apply_norm(model.norm, x)
    out = _forward_cached(model, x)[-1][:, 0]
    if model.norm is not None:
        out = out * model.norm.target_std + model.norm.target_mean
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def save_model(model: MlpModel, path) -> None:
    write_model(path, "mlp", model)


def load_model(path) -> MlpModel:
    return read_model(path, {"mlp": MlpModel})
