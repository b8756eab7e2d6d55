"""Dataset generation, noise injection, splitting, and normalization.

Rows pair an RSS value in dBm with the receiver position (and, for rooms of
varying footprint, the room length/width). Training sets combine per-axis
uniform draws into a Cartesian product; reference sets used as prediction
ground truth are fully independent draws. All randomness is derived from a
single user seed through keyed sub-streams, so any part of a dataset can be
regenerated independently and the result never depends on evaluation order
or worker count.

The four generators share one build path: keyed uniform draws per axis,
`_product` for the rows of a Cartesian product, one channel call
(`received_power_many` for a fixed room, `received_power_rooms` for all
rooms of varying footprint), `_rss` to turn its (LOS, NLOS) powers into dBm,
and `_dataset` for the record, whose layout follows the column count.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import channel
from ._doc import read_json, write_csv, write_json
from .scene import Scene, variable_scene

__all__ = [
    "RX_Z_MAX",
    "FEATURE_LAYOUTS",
    "ChannelSample",
    "Dataset",
    "SplitSets",
    "NormStats",
    "generate_fixed",
    "generate_variable",
    "generate_reference",
    "generate_reference_variable",
    "add_noise",
    "split",
    "subsample",
    "fit_norm",
    "apply_norm",
    "invert_norm",
]

# Receivers live between the floor and desk/head height, never near the ceiling.
RX_Z_MAX = 1.7

# Floor for noisy linear powers so the dBm transform stays defined.
_POWER_FLOOR_MW = 1e-12

# A generator refuses to make more rows than this, before it draws or
# allocates anything: eight times the 125,000-row pool of a 50-per-axis grid.
# At the default 0.2 m patches the channel simulates about 12,000 rows a
# second on one core, so the largest dataset takes a minute or two, and its
# feature matrix holds at most 40 MB.
_MAX_ROWS = 1_000_000

# Row layouts by feature count: the receiver position, plus the footprint of a varying room.
FEATURE_LAYOUTS = {3: ("x", "y", "z"), 5: ("x", "y", "z", "lx", "ly")}


def _stream(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (seed, key); the same key always replays.

    This is the one place a keyed seed sequence is built: `mlp`, `forest` and
    `evalmap` draw their sub-streams and derived integer seeds from it too.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _feature_rows(features, n_features: int) -> tuple[np.ndarray, bool]:
    """The one input rule of every model's predict: features as a float
    (rows, n_features) array, and whether one 1-D row came in (it becomes a
    one-row batch). Any other shape is refused."""
    X = np.asarray(features, dtype=np.float64)
    one_row = X.ndim == 1
    if one_row:
        X = X[None, :]
    if X.ndim != 2 or X.shape[1] != n_features:
        raise ValueError(f"expected {n_features} features, got shape {X.shape}")
    return X, one_row


# ---------------------------------------------------------------------------
# Container types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelSample:
    """One labelled row: RSS plus the inputs that produced it."""

    rss_dbm: float
    x: float
    y: float
    z: float
    lx: float | None = None
    ly: float | None = None


@dataclass(frozen=True)
class Dataset:
    """Immutable column store of samples.

    `features` is (n, k) float64 in the order of `feature_names`, a layout of
    `FEATURE_LAYOUTS`; `rss_dbm` is the (n,) target column. `meta` records how
    the rows were produced (generator, seeds, scene) so a dataset can be
    regenerated bit-for-bit.
    """

    feature_names: tuple[str, ...]
    features: np.ndarray
    rss_dbm: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        names = tuple(self.feature_names)
        if names not in FEATURE_LAYOUTS.values():
            raise ValueError(f"feature_names {names} are not a layout of {FEATURE_LAYOUTS}")
        feats = np.ascontiguousarray(self.features, dtype=np.float64)
        rss = np.ascontiguousarray(self.rss_dbm, dtype=np.float64)
        if feats.ndim != 2 or rss.ndim != 1 or feats.shape[0] != rss.shape[0]:
            raise ValueError("features must be (n, k) and rss_dbm (n,) with matching n")
        if feats.shape[1] != len(self.feature_names):
            raise ValueError("feature_names length does not match feature columns")
        for name, values in (("rss_dbm", rss), ("features", feats)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} holds a non-finite value")
        feats.setflags(write=False)
        rss.setflags(write=False)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "rss_dbm", rss)

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def sample(self, i: int) -> ChannelSample:
        # ChannelSample's fields after rss_dbm follow the layouts' column order
        return ChannelSample(float(self.rss_dbm[i]), *map(float, self.features[i]))

    def take(self, indices, extra_meta: dict | None = None) -> "Dataset":
        """New dataset holding the given rows, in the given order."""
        idx = np.asarray(indices, dtype=np.intp)
        return replace(self, features=self.features[idx], rss_dbm=self.rss_dbm[idx],
                       meta={**self.meta, **(extra_meta or {})})

    # -- persistence --------------------------------------------------------

    def save(self, path) -> tuple[Path, Path]:
        """Write `<path>` as CSV and a `<stem>.meta.json` sidecar; return both paths."""
        path = Path(path)
        rows = np.column_stack([self.rss_dbm, self.features]).tolist()
        write_csv(path, ("rss_dbm",) + self.feature_names, rows)
        sidecar = path.with_suffix(".meta.json")
        write_json(sidecar, {"feature_names": list(self.feature_names), "n_rows": len(self),
                             **self.meta}, indent=2)
        return path, sidecar

    @classmethod
    def load(cls, path) -> "Dataset":
        """Read a CSV written by `save`, and its sidecar if any; ValueError names the
        file when the header is not a layout's, a row does not parse or holds
        another number of values than the header, a value is not finite, no row follows the header, or the
        sidecar disagrees with it."""
        path = Path(path)
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            names = tuple(header.split(",")[1:])
            if not header.startswith("rss_dbm,") or names not in FEATURE_LAYOUTS.values():
                expected = " or ".join(",".join(("rss_dbm",) + n) for n in FEATURE_LAYOUTS.values())
                raise ValueError(f"{path} has header {header!r}, expected {expected}")
            width = 1 + len(names)
            try:
                with warnings.catch_warnings():  # an empty body is refused below, by name
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                    body = np.loadtxt(f, delimiter=",", ndmin=2)
            except ValueError as e:
                raise ValueError(f"{path}: {_width_problem(path, width) or e}") from e
        if body.size == 0:
            raise ValueError(f"{path} holds no rows")
        if body.shape[1] != width:  # every row has the same wrong number of values
            raise ValueError(f"{path}: {_width_problem(path, width)}")
        meta = {}
        sidecar = path.with_suffix(".meta.json")
        if sidecar.exists():
            meta = read_json(sidecar)
            said = (meta.pop("feature_names", None), meta.pop("n_rows", None))
            if said != (list(names), len(body)):
                raise ValueError(f"{sidecar} gives feature_names {said[0]!r} and n_rows "
                                 f"{said[1]!r}, but {path} has {list(names)} and {len(body)} rows")
        try:
            return cls(feature_names=names, features=body[:, 1:], rss_dbm=body[:, 0], meta=meta)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from e


def _width_problem(path, width: int) -> str | None:
    """The first line after the header that does not hold `width` values, named
    with both counts (NumPy's own message would name the previous row's count)."""
    with open(path, "r", encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            values = line.split("#")[0].strip()  # loadtxt skips comments and blank lines
            count = values.count(",") + 1
            if line_no > 1 and values and count != width:
                return f"line {line_no} has {count} values, but the header has {width}"
    return None


@dataclass(frozen=True)
class SplitSets:
    """Disjoint train/validation/test partition of one dataset."""

    train: Dataset
    validation: Dataset
    test: Dataset


@dataclass(frozen=True)
class NormStats:
    """Z-score statistics fit on a training set (features and target)."""

    feature_mean: np.ndarray
    feature_std: np.ndarray
    target_mean: float
    target_std: float

    def __post_init__(self):
        for name in ("feature_mean", "feature_std"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=np.float64))
        object.__setattr__(self, "target_mean", float(self.target_mean))
        object.__setattr__(self, "target_std", float(self.target_std))
        stats = np.concatenate([self.feature_mean, self.feature_std,
                                [self.target_mean, self.target_std]])
        if not (np.all(np.isfinite(stats)) and np.all(self.feature_std > 0.0)
                and self.target_std > 0.0):
            raise ValueError("normalization statistics must be finite, standard deviations > 0")


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def _rss(rows: np.ndarray, powers: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """RSS in dBm of (LOS, NLOS) power arrays received at `rows`, whose first
    three columns are the positions. The first position whose power is not
    finite (a scene value so large that the power overflows) is named, and
    then the first that gets no light (no LED in the FOV, every lit patch out
    of it or seen edge-on)."""
    total = powers[0] + powers[1]
    for bad, problem in ((~np.isfinite(total), "the received power is not finite at {}: "
                          "a scene value (LED power, receiver area or gain) is too large"),
                         (total <= 0, "no light reaches the receiver at {}: received power "
                          "must be positive to express in dBm")):
        if bad.any():
            x, y, z = rows[np.argmax(bad), :3].tolist()
            raise ValueError(problem.format(f"({x}, {y}, {z})"))
    return channel.rss_dbm(total)


def _check_rows(rows: int, counts: str) -> None:
    """Refuse a generator's row count, computed from Python ints so it cannot
    wrap, when it exceeds `_MAX_ROWS`; `counts` names the parameters."""
    if rows > _MAX_ROWS:
        raise ValueError(f"{counts}: {rows:,} rows, more than the {_MAX_ROWS:,} "
                         "a dataset may hold")


def _product(*axes) -> np.ndarray:
    """Rows of the Cartesian product of 1-D axes, the first axis slowest."""
    return np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])


def _dataset(features: np.ndarray, rss: np.ndarray, patch_edge_m: float, **meta) -> Dataset:
    """A generator's record; the layout follows the column count."""
    return Dataset(feature_names=FEATURE_LAYOUTS[features.shape[1]], features=features,
                   rss_dbm=rss, meta={**meta, "patch_edge_m": patch_edge_m})


def generate_fixed(
    scene: Scene,
    per_axis: int,
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M,
    seed: int = 0,
) -> Dataset:
    """Cartesian product of per-axis uniform draws in a fixed-size room.

    Draws `per_axis` values on each of [0, lx], [0, ly], [0, RX_Z_MAX] and
    combines them into per_axis**3 rows with features (x, y, z).
    """
    if per_axis < 1:
        raise ValueError(f"per_axis must be >= 1, got {per_axis}")
    _check_rows(int(per_axis) ** 3, f"per_axis={per_axis}")
    room = scene.room
    pos = _product(*(_stream(seed, 0, k).uniform(0.0, hi, per_axis)
                     for k, hi in enumerate((room.lx, room.ly, RX_Z_MAX))))
    return _dataset(pos, _rss(pos, channel.received_power_many(scene, pos, patch_edge_m)),
                    patch_edge_m, generator="fixed", scene=scene.to_dict(),
                    per_axis=per_axis, seed=seed)


def generate_variable(
    led_count: int,
    per_xy: int,
    per_z: int,
    per_dim: int,
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M,
    seed: int = 0,
) -> Dataset:
    """Cartesian-product rows across rooms of varying footprint.

    Draws per_dim lengths and per_dim widths on [3, 7]; every (lx, ly) pair is
    one room. Each room gets its own per_xy x/y position fractions and per_z
    heights, producing per_xy**2 * per_z rows per room with features
    (x, y, z, lx, ly).
    """
    if min(per_xy, per_z, per_dim) < 1:
        raise ValueError("all draw counts must be >= 1")
    _check_rows(int(per_xy) ** 2 * int(per_z) * int(per_dim) ** 2,
                f"per_xy={per_xy}, per_z={per_z} and per_dim={per_dim}")
    lxs = _stream(seed, 1, 0).uniform(3.0, 7.0, per_dim)
    lys = _stream(seed, 1, 1).uniform(3.0, 7.0, per_dim)
    scenes, blocks = [], []
    for i, lx in enumerate(lxs):
        for j, ly in enumerate(lys):
            fx = _stream(seed, 2, i, j, 0).uniform(0.0, 1.0, per_xy)
            fy = _stream(seed, 2, i, j, 1).uniform(0.0, 1.0, per_xy)
            zs = _stream(seed, 2, i, j, 2).uniform(0.0, RX_Z_MAX, per_z)
            blocks.append(_product(fx * lx, fy * ly, zs, [lx], [ly]))
            scenes.append(variable_scene(float(lx), float(ly), led_count))
    # one channel call for every room
    feats = np.concatenate(blocks)
    rss = _rss(feats, channel.received_power_rooms(scenes, [b[:, :3] for b in blocks],
                                                   patch_edge_m))
    return _dataset(feats, rss, patch_edge_m, generator="variable",
                    led_count=led_count, per_xy=per_xy, per_z=per_z, per_dim=per_dim, seed=seed)


def generate_reference(
    scene: Scene,
    n: int,
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M,
    seed: int = 0,
) -> Dataset:
    """n fully independent uniform positions in a fixed room (ground truth)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_rows(int(n), f"n={n}")
    room = scene.room
    pos = np.column_stack([_stream(seed, 3, k).uniform(0.0, hi, n)
                           for k, hi in enumerate((room.lx, room.ly, RX_Z_MAX))])
    return _dataset(pos, _rss(pos, channel.received_power_many(scene, pos, patch_edge_m)),
                    patch_edge_m, generator="reference", scene=scene.to_dict(), n=n, seed=seed)


def generate_reference_variable(
    led_count: int,
    n: int,
    patch_edge_m: float = channel.DEFAULT_PATCH_EDGE_M,
    seed: int = 0,
) -> Dataset:
    """n independent draws, each with its own room footprint on [3, 7]^2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    _check_rows(int(n), f"n={n}")
    lx = _stream(seed, 3, 3).uniform(3.0, 7.0, n)
    ly = _stream(seed, 3, 4).uniform(3.0, 7.0, n)
    x = _stream(seed, 3, 0).uniform(0.0, 1.0, n) * lx
    y = _stream(seed, 3, 1).uniform(0.0, 1.0, n) * ly
    z = _stream(seed, 3, 2).uniform(0.0, RX_Z_MAX, n)
    feats = np.column_stack([x, y, z, lx, ly])
    # every row has a room of its own; one channel call covers them all
    scenes = [variable_scene(a, b, led_count) for a, b in zip(lx.tolist(), ly.tolist())]
    rss = _rss(feats, channel.received_power_rooms(scenes, feats[:, None, :3], patch_edge_m))
    return _dataset(feats, rss, patch_edge_m, generator="reference_variable",
                    led_count=led_count, n=n, seed=seed)


# ---------------------------------------------------------------------------
# Noise injection
# ---------------------------------------------------------------------------

def add_noise(ds: Dataset, noise_factor: float, seed: int = 0) -> tuple[Dataset, float]:
    """Additive Gaussian noise in the linear power domain.

    sigma = noise_factor * std(P) over the dataset's clean linear powers; each
    power gets an independent zero-mean draw, is floored at 1e-12 mW, and is
    converted back to dBm. Returns the noisy dataset and the mean OSNR in dB,
    where per-row OSNR is clean power over sigma. A zero noise_factor returns
    the dataset unchanged with infinite OSNR.
    """
    if not (math.isfinite(noise_factor) and noise_factor >= 0):
        raise ValueError(f"noise_factor must be finite and >= 0, got {noise_factor}")
    if noise_factor == 0:
        return ds, math.inf
    p_clean = 10.0 ** (ds.rss_dbm / 10.0)
    sigma = noise_factor * float(np.std(p_clean))
    if sigma == 0.0:
        return ds, math.inf
    rng = _stream(seed, 4)
    p_noisy = np.maximum(p_clean + rng.normal(0.0, sigma, len(ds)), _POWER_FLOOR_MW)
    osnr_db = float(np.mean(10.0 * np.log10(p_clean / sigma)))
    meta = {**ds.meta, "noise_factor": noise_factor, "noise_seed": seed, "mean_osnr_db": osnr_db}
    return replace(ds, rss_dbm=10.0 * np.log10(p_noisy), meta=meta), osnr_db


# ---------------------------------------------------------------------------
# Splitting and subsampling
# ---------------------------------------------------------------------------

def split(ds: Dataset, seed: int = 0) -> SplitSets:
    """Seeded shuffle, then 60/20/20 (train/validation get the floors)."""
    n = len(ds)
    if n < 5:
        raise ValueError(f"need at least 5 rows to split 60/20/20, got {n}")
    perm = _stream(seed, 5).permutation(n)
    n_tr = math.floor(0.6 * n)
    parts = np.split(perm, [n_tr, n_tr + math.floor(0.2 * n)])
    return SplitSets(*(ds.take(part, {"split": name, "split_seed": seed})
                       for name, part in zip(("train", "validation", "test"), parts)))


def subsample(ds: Dataset, n: int, seed: int = 0) -> Dataset:
    """Uniform sample of n rows without replacement."""
    if not 1 <= n <= len(ds):
        raise ValueError(f"subsample size must be in [1, {len(ds)}], got {n}")
    idx = _stream(seed, 6).choice(len(ds), size=n, replace=False)
    return ds.take(idx, {"subsample_n": n, "subsample_seed": seed})


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def fit_norm(train: Dataset) -> NormStats:
    """Z-score statistics from a training set; constant columns are rejected."""
    f_mean = train.features.mean(axis=0)
    f_std = train.features.std(axis=0)
    t_mean = float(train.rss_dbm.mean())
    t_std = float(train.rss_dbm.std())
    if np.any(f_std == 0.0):
        bad = train.feature_names[int(np.argmax(f_std == 0.0))]
        raise ValueError(f"feature {bad!r} is constant; cannot z-score")
    if t_std == 0.0:
        raise ValueError("target is constant; cannot z-score")
    return NormStats(feature_mean=f_mean, feature_std=f_std, target_mean=t_mean, target_std=t_std)


def apply_norm(stats: NormStats, features: np.ndarray, targets: np.ndarray | None = None):
    """Standardize features (and optionally targets) with training statistics."""
    xn = (np.asarray(features, dtype=np.float64) - stats.feature_mean) / stats.feature_std
    if targets is None:
        return xn
    yn = (np.asarray(targets, dtype=np.float64) - stats.target_mean) / stats.target_std
    return xn, yn


def invert_norm(stats: NormStats, features: np.ndarray, targets: np.ndarray | None = None):
    """Inverse of apply_norm."""
    x = np.asarray(features, dtype=np.float64) * stats.feature_std + stats.feature_mean
    if targets is None:
        return x
    y = np.asarray(targets, dtype=np.float64) * stats.target_std + stats.target_mean
    return x, y
