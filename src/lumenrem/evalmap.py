"""Accuracy metrics, radio maps, profiles, timing, and experiment campaigns.

Everything downstream of a trained model lives here: MAE/MAPE scoring against
reference datasets, simulated and predicted RSS grids over a room, the
center-to-corner profile, a wall-clock benchmark harness, and the campaign
runner that sweeps model/size/epoch/batch/noise grids with per-repetition
derived seeds.
"""

from __future__ import annotations

import math
import os
import platform
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

import numpy as np

from . import channel, forest, mlp
from ._doc import check_fields, from_doc, read_model, to_doc, write_csv
from .dataset import (
    FEATURE_LAYOUTS, Dataset, SplitSets, _check_rows, _rss, _stream, add_noise,
    generate_fixed, generate_reference, split, subsample,
)
from .scene import Scene, preset_scene

__all__ = [
    "MODEL_KINDS",
    "DistributionSummary",
    "EvalReport",
    "TimingReport",
    "RadioMap",
    "CampaignSpec",
    "CampaignResult",
    "mae",
    "mape",
    "simulate_map",
    "predict_map",
    "half_diagonal_profile",
    "map_to_csv",
    "map_to_pgm",
    "fit_model",
    "predict_any",
    "finite_predictions",
    "NonFinitePrediction",
    "load_any_model",
    "model_label",
    "evaluate_model",
    "benchmark",
    "campaign",
]

MODEL_KINDS = ("mlp32x128", "mlp64x256", "dt", "xt", "adaboost")


def _seed_int(seed: int, *key: int) -> int:
    """Integer seed derived from the keyed stream: the first 32-bit word of its seed sequence."""
    return int(_stream(seed, *key).bit_generator.seed_seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def mae(predictions, truths) -> float:
    """Mean absolute error of paired values."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("predictions and truths must be equal-length and non-empty")
    return float(np.mean(np.abs(p - t)))


def mape(predictions, truths) -> float:
    """Mean absolute percentage error; undefined when any truth is 0."""
    p = np.asarray(predictions, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    if p.shape != t.shape or p.size == 0:
        raise ValueError("predictions and truths must be equal-length and non-empty")
    if np.any(t == 0.0):
        raise ValueError("MAPE is undefined when a true value is 0")
    return float(100.0 * np.mean(np.abs(p - t) / np.abs(t)))


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number-style summary used for violin-plot-like reporting."""

    median: float
    q1: float
    q3: float
    vmin: float
    vmax: float
    sem: float
    n: int

    def __post_init__(self):
        if not (self.vmin <= self.q1 <= self.median <= self.q3 <= self.vmax):
            raise ValueError("summary quantiles out of order")

    @classmethod
    def from_values(cls, values) -> "DistributionSummary":
        v = np.asarray(values, dtype=np.float64)
        if v.size == 0:
            raise ValueError("cannot summarize an empty sample")
        sem = float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
        return cls(
            median=float(np.median(v)),
            q1=float(np.quantile(v, 0.25)),
            q3=float(np.quantile(v, 0.75)),
            vmin=float(v.min()),
            vmax=float(v.max()),
            sem=sem,
            n=int(v.size),
        )

    def to_dict(self) -> dict:
        d = to_doc(self)
        d["min"], d["max"] = d.pop("vmin"), d.pop("vmax")
        return d


@dataclass(frozen=True)
class EvalReport:
    """Accuracy of one model against one reference dataset."""

    mae_dbm: float
    mape_percent: float | None
    n_points: int
    abs_errors: np.ndarray
    mean_osnr_db: float | None = None

    @classmethod
    def from_predictions(cls, predictions, truths, mean_osnr_db=None) -> "EvalReport":
        p = np.asarray(predictions, dtype=np.float64)
        t = np.asarray(truths, dtype=np.float64)
        mae_val = mae(p, t)
        mape_val = mape(p, t) if not np.any(t == 0.0) else None
        return cls(
            mae_dbm=mae_val,
            mape_percent=mape_val,
            n_points=int(p.size),
            abs_errors=np.abs(p - t),
            mean_osnr_db=mean_osnr_db,
        )

    def error_summary(self) -> DistributionSummary:
        return DistributionSummary.from_values(self.abs_errors)

    def to_dict(self, include_errors: bool = False) -> dict:
        d = to_doc(self)
        d["abs_error_summary"] = self.error_summary().to_dict()
        if not include_errors:
            del d["abs_errors"]
        return d


# ---------------------------------------------------------------------------
# Radio maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RadioMap:
    """RSS sampled on a regular grid of cell centers at one height.

    values[iy, ix] covers the cell [ix*sx, (ix+1)*sx) x [iy*sy, (iy+1)*sy);
    per-axis spacings are the requested spacing shrunk so whole cells tile
    the footprint exactly.
    """

    origin: tuple[float, float]
    spacing: tuple[float, float]
    z_plane: float
    values: np.ndarray
    source: str

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or not np.all(np.isfinite(v)):
            raise ValueError("map values must be a finite 2D grid")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def nx(self) -> int:
        return self.values.shape[1]

    @property
    def ny(self) -> int:
        return self.values.shape[0]

    def x_centers(self) -> np.ndarray:
        return self.origin[0] + (np.arange(self.nx) + 0.5) * self.spacing[0]

    def y_centers(self) -> np.ndarray:
        return self.origin[1] + (np.arange(self.ny) + 0.5) * self.spacing[1]

    def peak_cell(self) -> tuple[int, int, float, float]:
        """(ix, iy, x_center, y_center) of the maximum-RSS cell."""
        iy, ix = np.unravel_index(int(np.argmax(self.values)), self.values.shape)
        return int(ix), int(iy), float(self.x_centers()[ix]), float(self.y_centers()[iy])

    def value_at(self, x: float, y: float) -> float:
        """RSS of the cell containing (x, y)."""
        ix = min(max(int((x - self.origin[0]) / self.spacing[0]), 0), self.nx - 1)
        iy = min(max(int((y - self.origin[1]) / self.spacing[1]), 0), self.ny - 1)
        return float(self.values[iy, ix])


_MAX_MAP_CELLS = 1_000_000  # 1 cm cells in a 7 x 7 m room make 490,000


def _check_height(scene: Scene, z_plane: float) -> None:
    """Refuse a map or profile height outside the room (0 <= z < lz)."""
    room = scene.room
    if not 0 <= z_plane < room.lz:
        raise ValueError(f"map height z = {float(z_plane)} lies outside the "
                         f"{room.lx} x {room.ly} x {room.lz} m room (0 <= z < {room.lz})")


def _grid(scene: Scene, z_plane: float, spacing: float):
    """Cell spacings and (ny, nx) cell centers of a map inside the room at `z_plane`."""
    _check_height(scene, z_plane)
    room = scene.room
    if not (math.isfinite(spacing) and spacing > 0):
        raise ValueError(f"spacing must be finite and positive, got {spacing}")
    nx = math.ceil(room.lx / spacing - 1e-12)
    ny = math.ceil(room.ly / spacing - 1e-12)
    if nx * ny > _MAX_MAP_CELLS:
        raise ValueError(f"spacing {spacing} gives a {nx} x {ny} grid, more than the "
                         f"{_MAX_MAP_CELLS:,} cells a map may hold")
    sx, sy = room.lx / nx, room.ly / ny
    xs = (np.arange(nx) + 0.5) * sx
    ys = (np.arange(ny) + 0.5) * sy
    gx, gy = np.meshgrid(xs, ys, indexing="xy")  # rows vary in y
    return (sx, sy), gx, gy


def simulate_map(
    scene: Scene, z_plane: float, spacing: float,
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M,
) -> RadioMap:
    """Ground-truth RSS grid straight from the propagation model."""
    (sx, sy), gx, gy = _grid(scene, z_plane, spacing)
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(gx.size, float(z_plane))])
    values = _rss(pos, channel.received_power_many(scene, pos, patch_edge_m)).reshape(gx.shape)
    return RadioMap(origin=(0.0, 0.0), spacing=(sx, sy), z_plane=float(z_plane),
                    values=values, source="simulated")


def predict_map(model, scene: Scene, z_plane: float, spacing: float) -> RadioMap:
    """Model-inferred RSS grid over the same cell centers as simulate_map."""
    (sx, sy), gx, gy = _grid(scene, z_plane, spacing)
    feats = _scene_features(model, scene, gx.ravel(), gy.ravel(), z_plane)
    values = finite_predictions(model, feats).reshape(gx.shape)
    return RadioMap(origin=(0.0, 0.0), spacing=(sx, sy), z_plane=float(z_plane),
                    values=values, source=f"predicted:{model_label(model)}")


def half_diagonal_profile(source, scene: Scene, z_plane: float, n_points: int):
    """RSS along the segment from the floor-plan center to the (0, 0) corner.

    `source` selects where values come from: None for the simulator, a
    RadioMap for cell lookup, or a trained model for inference. A map must
    lie at `z_plane` and cover the scene's room. Returns a list of
    (x, rss_dbm) pairs; x is the point's abscissa, so it starts at lx/2 and
    falls to 0.
    """
    if n_points < 2:
        raise ValueError(f"need at least 2 profile points, got {n_points}")
    _check_height(scene, z_plane)
    room = scene.room
    if isinstance(source, RadioMap):
        span = (source.nx * source.spacing[0], source.ny * source.spacing[1])
        if source.z_plane != z_plane or not all(
                math.isclose(a, b, rel_tol=1e-9) for a, b in zip(span, (room.lx, room.ly))):
            raise ValueError(f"the map covers {span[0]:.6g} x {span[1]:.6g} m at "
                             f"z = {source.z_plane}, not the {room.lx} x {room.ly} m room "
                             f"at z = {float(z_plane)}")
    t = np.linspace(0.0, 1.0, n_points)
    xs = (1.0 - t) * (room.lx / 2.0)
    ys = (1.0 - t) * (room.ly / 2.0)
    if source is None:
        pos = np.column_stack([xs, ys, np.full(n_points, float(z_plane))])
        vals = _rss(pos, channel.received_power_many(scene, pos, channel.DEFAULT_PATCH_EDGE_M))
    elif isinstance(source, RadioMap):
        vals = np.array([source.value_at(x, y) for x, y in zip(xs, ys)])
    else:
        vals = finite_predictions(source, _scene_features(source, scene, xs, ys, z_plane))
    return [(float(x), float(v)) for x, v in zip(xs, vals)]


def _scene_features(model, scene: Scene, xs, ys, z_plane: float) -> np.ndarray:
    """Model input rows at floor points (xs, ys) and height z_plane, in the
    model's `FEATURE_LAYOUTS` order (the room footprint fills lx, ly)."""
    arity = model.n_features
    if arity not in FEATURE_LAYOUTS:
        raise ValueError(f"cannot build scene features for a {arity}-feature model")
    at = {"x": xs, "y": ys, "z": z_plane, "lx": scene.room.lx, "ly": scene.room.ly}
    return np.column_stack([np.broadcast_to(np.asarray(at[name], dtype=np.float64), len(xs))
                            for name in FEATURE_LAYOUTS[arity]])


def map_to_csv(radio_map: RadioMap, path) -> None:
    """Long-form x,y,rss rows, y-major then x, both ascending, each number its
    `repr`, as `write_csv` writes them. Each of the nx x-centres and ny
    y-centres is formatted once, not once per cell."""
    cells = product(map(repr, radio_map.y_centers().tolist()),
                    map(repr, radio_map.x_centers().tolist()))
    values = map(repr, radio_map.values.ravel().tolist())
    body = "".join([f"{x},{y},{v}\n" for (y, x), v in zip(cells, values)])
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# source={radio_map.source} z={radio_map.z_plane!r}\nx,y,rss_dbm\n")
        f.write(body)


def map_to_pgm(radio_map: RadioMap, path) -> None:
    """Plain (P2) grayscale, min-max scaled to 0..255, north-up row order."""
    v = radio_map.values
    span = float(v.max() - v.min())
    if span == 0.0:
        gray = np.zeros_like(v, dtype=np.int64)
    else:
        gray = np.rint((v - v.min()) / span * 255.0).astype(np.int64)
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"P2\n{radio_map.nx} {radio_map.ny}\n255\n")
        # top row = largest y
        f.writelines(" ".join(map(str, row)) + "\n" for row in gray[::-1].tolist())


# ---------------------------------------------------------------------------
# Model zoo helpers
# ---------------------------------------------------------------------------

def model_label(model) -> str:
    if isinstance(model, mlp.MlpModel):
        return "mlp" + "x".join(str(h) for h in model.config.hidden)
    if isinstance(model, forest.Forest):
        return {"single": "dt", "extra_trees": "xt", "adaboost_r2": "adaboost"}[model.mode]
    raise TypeError(f"not a known model type: {type(model).__name__}")


def predict_any(model, features):
    """Uniform prediction across model families; scalar in, scalar out."""
    if isinstance(model, mlp.MlpModel):
        return mlp.predict(model, features)
    if isinstance(model, forest.Forest):
        return forest.predict_forest(model, features)
    raise TypeError(f"not a known model type: {type(model).__name__}")


class NonFinitePrediction(ValueError):
    """A model predicted a value that is not finite."""


def finite_predictions(model, features) -> np.ndarray:
    """`predict_any` on an (n, k) batch, refused with NonFinitePrediction
    when a prediction is not finite (an MLP whose weights overflow, say).
    NumPy's overflow and invalid-value warnings are held back, as the
    refusal reports what they would."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = predict_any(model, features)
    if not np.isfinite(out).all():
        i = int(np.isfinite(out).argmin())
        raise NonFinitePrediction(f"the {model_label(model)} model predicts {float(out[i])!r} "
                                  f"at {tuple(features[i].tolist())}, which is not finite")
    return out


def load_any_model(path):
    """Open a model file regardless of family (dispatches on its kind tag)."""
    return read_model(path, {"mlp": mlp.MlpModel, "forest": forest.Forest})


def fit_model(
    kind: str,
    splits: SplitSets,
    *,
    epochs: int = 250,
    batch_size: int = 128,
    seed: int = 0,
    xt_trees: int = 100,
    adaboost_estimators: int = 50,
    adaboost_base_trees: int = 10,
    tree_params: forest.TreeParams = forest.TreeParams(),
):
    """Train any supported model kind on a split. Trees use the raw training
    rows; the epoch/batch settings only apply to the MLPs."""
    if kind in mlp.MLP_PRESETS:
        cfg = mlp.MlpConfig(
            input_dim=splits.train.n_features,
            hidden=mlp.MLP_PRESETS[kind],
            epochs=epochs,
            batch_size=batch_size,
            seed=seed,
        )
        return mlp.train(cfg, splits)
    x, y = splits.train.features, splits.train.rss_dbm
    if kind == "dt":
        tree = forest.fit_cart(x, y, tree_params, seed=seed)
        return forest.Forest(
            mode="single", trees=(tree,), n_features=x.shape[1],
            params=tree_params, seed=seed,
        )
    if kind == "xt":
        return forest.fit_extra_trees(x, y, n_trees=xt_trees, params=tree_params, seed=seed)
    if kind == "adaboost":
        return forest.fit_adaboost_r2(
            x, y, n_estimators=adaboost_estimators,
            base_n_trees=adaboost_base_trees, params=tree_params, seed=seed,
        )
    raise ValueError(f"unknown model kind {kind!r}; expected one of {MODEL_KINDS}")


def evaluate_model(model, reference: Dataset, mean_osnr_db=None) -> EvalReport:
    """Score a model against reference ground truth."""
    preds = finite_predictions(model, reference.features)
    return EvalReport.from_predictions(preds, reference.rss_dbm, mean_osnr_db=mean_osnr_db)


# ---------------------------------------------------------------------------
# Timing
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TimingReport:
    """Wall-clock training and single-point inference costs.

    `train_seconds` is the mean fit time over the repetitions.
    `predict_us_per_sample` is the per-row time of the median block: every
    repetition times its `n_predict` one-row predictions in blocks of
    `_PREDICT_BLOCK` rows, and one disturbed block does not move the median.
    """

    model_kind: str
    train_seconds: float
    predict_us_per_sample: float
    repetitions: int
    n_train_rows: int
    n_predict: int
    hardware_note: str

    def __post_init__(self):
        if self.train_seconds <= 0 or self.predict_us_per_sample <= 0:
            raise ValueError("measured times must be positive")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.hardware_note:
            raise ValueError("hardware note is mandatory")

    def to_dict(self) -> dict:
        return to_doc(self)


def hardware_note() -> str:
    return (
        f"{platform.platform()}; {platform.machine()}; "
        f"{os.cpu_count() or 1} cpu(s); Python {platform.python_version()}; "
        f"numpy {np.__version__}"
    )


# `benchmark` times single-row predictions in blocks of this many rows
_PREDICT_BLOCK = 500


def benchmark(
    kind: str,
    data: Dataset,
    repetitions: int = 3,
    *,
    epochs: int = 250,
    batch_size: int = 128,
    seed: int = 0,
    n_predict: int = 10_000,
    **fit_kw,
) -> TimingReport:
    """Average train wall time over repetitions, then single-point inference.

    Each repetition makes `n_predict` one-row predictions, timed in blocks of
    `_PREDICT_BLOCK` rows. Inference cost is the median over the blocks of
    all repetitions of a block's wall time divided by its rows, so a block
    slowed by something else on the machine does not move it.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    if n_predict < 10_000:
        raise ValueError("inference timing needs at least 10000 single-point predictions")
    train_times = []
    block_us = []  # per-row µs of each timed block
    for rep in range(repetitions):
        rep_seed = _seed_int(seed, rep)
        splits = split(data, seed=rep_seed)
        t0 = time.perf_counter()
        model = fit_model(kind, splits, epochs=epochs, batch_size=batch_size,
                          seed=rep_seed, **fit_kw)
        train_times.append(time.perf_counter() - t0)
        rows = data.features[_stream(rep_seed).integers(0, len(data), size=n_predict)]
        for lo in range(0, n_predict, _PREDICT_BLOCK):
            block = rows[lo:lo + _PREDICT_BLOCK]
            t0 = time.perf_counter()
            for row in block:
                predict_any(model, row)
            block_us.append((time.perf_counter() - t0) / len(block) * 1e6)
    return TimingReport(
        model_kind=kind,
        train_seconds=float(np.mean(train_times)),
        predict_us_per_sample=float(np.median(block_us)),
        repetitions=repetitions,
        n_train_rows=len(splits.train),  # the same count in every repetition's split
        n_predict=n_predict,
        hardware_note=hardware_note(),
    )


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CampaignSpec:
    """Cross-product experiment grid with derived per-repetition seeds."""

    preset: str = "mid"
    led_count: int = 1
    models: tuple[str, ...] = ("mlp32x128",)
    train_sizes: tuple[int, ...] = (12500,)
    epochs: tuple[int, ...] = (250,)
    batch_sizes: tuple[int, ...] = (128,)
    noise_factors: tuple[float, ...] = (0.0,)
    repetitions: int = 10
    seed: int = 0
    pool_per_axis: int = 25
    reference_n: int = 500
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M

    def __post_init__(self):
        check_fields(self)
        for name in ("models", "train_sizes", "epochs", "batch_sizes", "noise_factors"):
            v = getattr(self, name)
            if not v:
                raise ValueError(f"campaign {name} must be a non-empty list, got {v!r}")
            object.__setattr__(self, name, tuple(v))
        unknown = [m for m in self.models if m not in MODEL_KINDS]
        if unknown:
            raise ValueError(f"unknown model kinds {unknown}; expected {MODEL_KINDS}")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        # the scene, the pool and the reference set are made only when the
        # campaign runs, so what they would refuse is checked here: the
        # preset, the LED count and the patch edge, then the sizes, under the
        # campaign's names
        room = preset_scene(self.preset, self.led_count).room
        channel._wall_counts(room, self.patch_edge_m)
        for name, rows in (("pool_per_axis", self.pool_per_axis ** 3),
                           ("reference_n", self.reference_n)):
            v = getattr(self, name)
            if v < 1:
                raise ValueError(f"campaign {name} must be >= 1, got {v}")
            _check_rows(rows, f"campaign {name}={v}")
        if any(s < 5 for s in self.train_sizes):
            raise ValueError("train sizes must be >= 5 to split")
        if any(e < 0 for e in self.epochs) or any(b < 1 for b in self.batch_sizes):
            raise ValueError("epochs must be >= 0 and batch sizes >= 1")
        if any(nf < 0 for nf in self.noise_factors):
            raise ValueError("noise factors must be >= 0")

    def to_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_dict(cls, d: dict) -> "CampaignSpec":
        """A spec from a hand-written document: absent fields take their defaults."""
        return from_doc(cls, {**to_doc(cls()), **d} if isinstance(d, dict) else d)


@dataclass
class CampaignResult:
    """Per-repetition rows plus per-cell aggregate summaries."""

    spec: CampaignSpec
    rows: list[dict]
    summaries: list[dict]

    _CELL_COLS = ("model", "train_size", "epochs", "batch_size", "noise_factor")
    _ROW_COLS = _CELL_COLS + ("rep", "seed", "mae_dbm", "mape_percent", "mean_osnr_db")
    _SUMMARY_COLS = _CELL_COLS + ("mean_mae_dbm", "median", "q1", "q3", "min", "max", "sem", "n")

    def write_csv(self, out_dir) -> tuple[Path, Path]:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        paths = out_dir / "results.csv", out_dir / "summary.csv"
        for path, cols, dicts in zip(paths, (self._ROW_COLS, self._SUMMARY_COLS),
                                     (self.rows, self.summaries)):
            write_csv(path, cols, ([d[c] for c in cols] for d in dicts))
        return paths


def campaign(spec: CampaignSpec, pool: Dataset | None = None, reference: Dataset | None = None) -> CampaignResult:
    """Run the full cross-product of a campaign spec.

    The training pool and clean reference set are generated from the campaign
    settings unless supplied (e.g. to share one pool across several
    campaigns). Noise
    is injected into each repetition's training subsample; the reference stays
    noiseless ground truth.
    """
    scene = preset_scene(spec.preset, spec.led_count)
    if pool is None:
        pool = generate_fixed(scene, spec.pool_per_axis, spec.patch_edge_m, seed=_seed_int(spec.seed, 1))
    if reference is None:
        reference = generate_reference(scene, spec.reference_n, spec.patch_edge_m, seed=_seed_int(spec.seed, 2))
    too_big = [s for s in spec.train_sizes if s > len(pool)]
    if too_big:
        raise ValueError(f"train sizes {too_big} exceed the pool of {len(pool)} rows")

    cells = list(product(spec.models, spec.train_sizes, spec.epochs, spec.batch_sizes, spec.noise_factors))
    rows: list[dict] = []
    summaries: list[dict] = []
    for ci, cell in enumerate(cells):
        kind, size, n_epochs, bs, nf = cell
        keys = dict(zip(CampaignResult._CELL_COLS, cell))
        cell_maes = []
        for rep in range(spec.repetitions):
            rep_seed = _seed_int(spec.seed, 3, ci, rep)
            sub = subsample(pool, size, seed=_seed_int(rep_seed, 0))
            noisy, osnr = add_noise(sub, nf, seed=_seed_int(rep_seed, 1))
            splits = split(noisy, seed=_seed_int(rep_seed, 2))
            model = fit_model(kind, splits, epochs=n_epochs, batch_size=bs,
                              seed=_seed_int(rep_seed, 3))
            report = evaluate_model(model, reference, mean_osnr_db=osnr)
            cell_maes.append(report.mae_dbm)
            rows.append({**keys, "rep": rep, "seed": rep_seed, "mae_dbm": report.mae_dbm,
                         "mape_percent": report.mape_percent,
                         "mean_osnr_db": None if math.isinf(osnr) else osnr})
        summary = DistributionSummary.from_values(cell_maes).to_dict()
        summaries.append({**keys, "mean_mae_dbm": float(np.mean(cell_maes)), **summary})
    return CampaignResult(spec=spec, rows=rows, summaries=summaries)
