"""The three benchmark workloads and the recorder that times and checks them.

Each workload has a set-up (everything before the timed section: the data
pool, fixture models and warm-up calls) and a cycle: a fixed list of steps
that is repeated, on the same seeded inputs, for the length of the run. A
step times one program call, or (`rows` in `query`) many single-row calls.
Each call is one operation; it fails if it raises or if an output check on it
fails. Checks run after the call's clock has stopped.
"""

from __future__ import annotations

import bisect
import contextlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lumenrem import cli, channel, dataset, evalmap, forest, mlp, scene

# Fit kinds in the order they are trained, and the layer each one exercises.
FIT_KINDS = {"mlp32x128": "mlp", "dt": "forest", "xt": "forest", "adaboost": "forest"}
QUERY_KINDS = {"mlp32x128": "mlp", "xt": "forest"}
# A single-row predict must equal a one-row batch predict exactly for forests
# and to this relative tolerance for the MLP, as the unit tests require. Against
# a batch of many rows both families are held to this tolerance, and the rows
# that differ at all are counted (`<layer>.row_batch_mismatches`): with 8 or
# more trees NumPy sums the per-tree outputs of a multi-row batch in another
# order than those of a single row.
MLP_RTOL = 1e-12
NOISE_FACTOR = 0.1
MAP_Z = 1.0


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. FULL is what the benchmark measures; TINY is for the smoke test."""

    setup_reps: int
    min_cycles: int
    fixed_per_axis: int
    fixed4_per_axis: int
    grid_calls: int  # generate_fixed calls per LED layout, each with its own seed
    reference_n: int
    variable: tuple[int, int, int]  # per_xy, per_z, per_dim
    reference_variable_n: int
    map_spacing: float
    pool_per_axis: int
    train_rows: int
    epochs: int
    xt_trees: int
    adaboost: tuple[int, int]  # estimators, base trees
    query_points: int


FULL = Sizes(
    setup_reps=3, min_cycles=3,
    fixed_per_axis=3, fixed4_per_axis=3, grid_calls=4,
    reference_n=500, variable=(2, 2, 6), reference_variable_n=300, map_spacing=0.1,
    pool_per_axis=14, train_rows=2000, epochs=40, xt_trees=10, adaboost=(5, 2),
    query_points=200,
)

TINY = Sizes(
    setup_reps=2, min_cycles=2,
    fixed_per_axis=3, fixed4_per_axis=2, grid_calls=1,
    reference_n=20, variable=(2, 2, 2), reference_variable_n=5, map_spacing=0.5,
    pool_per_axis=6, train_rows=120, epochs=2, xt_trees=2, adaboost=(2, 1),
    query_points=10,
)


def sub_seed(seed: int, *key: int) -> int:
    """Independent program seed for (workload seed, key)."""
    return int(np.random.SeedSequence([seed, *key]).generate_state(1)[0])


def rel_close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rtol * np.abs(b)))


def check_rows(rec, kind: str, layer: str, single, one_row, batch, rows_are_ops=False) -> None:
    """Check single-row predictions against one-row and multi-row batch predictions."""
    single, one_row, batch = (np.asarray(v, dtype=float) for v in (single, one_row, batch))
    ran = ~np.isnan(single)  # a predict that raised has already failed
    exact = layer == "forest"
    off_one = single != one_row if exact else np.abs(single - one_row) > MLP_RTOL * np.abs(one_row)
    off_batch = np.abs(single - batch) > MLP_RTOL * np.abs(batch)
    rec.count(f"{layer}.row_batch_mismatches", int((ran & (single != batch)).sum()))
    bad = ran & (off_one | off_batch)
    if bad.any():
        rec.fail(f"{kind}: {int((ran & off_one).sum())} single-row predicts differ from their "
                 f"one-row batch, {int((ran & off_batch).sum())} from a multi-row batch by more "
                 f"than {MLP_RTOL} relative", layer, ops=int(bad.sum()) if rows_are_ops else 1)


def file_bytes(*paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


def csv_column(path, skiprows: int, col: int) -> np.ndarray:
    """One numeric column of a CSV written by the program."""
    return np.loadtxt(path, delimiter=",", skiprows=skiprows, ndmin=2)[:, col]


_CAL_DATA = np.random.default_rng(0).normal(size=(200, 1500))
_CAL_JSON = json.dumps(_CAL_DATA[0].tolist())


def calibration_kernel(path: Path) -> float:
    """Fixed work mixing what the program spends its time on: an interpreter
    loop, many NumPy calls on small arrays, NumPy math on a large array, and
    writing, reading and parsing a small JSON file (4 to 6 ms on a shared 2-CPU
    x86-64 virtual machine). It calls no lumenrem code, so no change to the
    program moves it."""
    s = 0.0
    for i in range(5_000):
        s += i * 0.5
    small = _CAL_DATA[1, :200]
    for _ in range(30):
        order = np.argsort(small, kind="stable")
        s += float(np.cumsum(small[order])[-1]) + int((small < 0.1).sum())
    path.write_text(_CAL_JSON, encoding="utf-8")
    s += len(json.loads(path.read_text(encoding="utf-8")))
    return s + float(np.sqrt(_CAL_DATA * _CAL_DATA + 1.0).sum())


class Calibrator:
    """Times blocks of calibration-kernel runs between operations.

    The speed of a shared machine drifts by tens of percent over seconds.
    Dividing an operation's wall time by the kernel's time measured around it
    (the median over the blocks within WINDOW_S of the operation) removes
    most of that drift.
    """

    EVERY_S = 0.25  # at most one block per this many seconds
    REPS = 3  # kernel runs per block
    WINDOW_S = 1.0

    def __init__(self, path: Path):
        self.path = path
        self.times: list[float] = []  # when each block ended, ascending
        self.blocks: list[float] = []  # mean kernel seconds of each block

    def maybe(self, force: bool = False) -> None:
        """Run a block of kernel runs if one is due."""
        if force or not self.times or time.perf_counter() - self.times[-1] >= self.EVERY_S:
            runs = []
            for _ in range(self.REPS):
                start = time.perf_counter()
                calibration_kernel(self.path)
                runs.append(time.perf_counter() - start)
            self.blocks.append(sum(runs) / len(runs))
            self.times.append(time.perf_counter())

    def around(self, start: float, end: float) -> float:
        """Kernel seconds at the time of an operation that ran from start to end."""
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        near = self.blocks[lo:hi] or self.blocks[max(lo - 1, 0):lo + 1]
        return float(np.median(near))


class Recorder:
    """Times operations, runs their checks and keeps counts that must repeat.

    `tracer` (optional) is paused while checks run, so check work never shows
    up in the layer spans. With a `calibrator`, step times can also be read
    in calibration-kernel units.
    """

    def __init__(self, tracer=None, calibrator: Calibrator | None = None):
        self.tracer = tracer
        self.calibrator = calibrator
        self._pending: list[tuple[str, float, float]] = []  # (step, seconds, start)
        self._timed: list[list[tuple[str, float, float]]] = []  # _pending of each cycle
        self.samples: dict[str, list[float]] = {}
        self.values: dict[str, list] = {}
        self.attempted = 0
        self.failed = 0
        self.failed_by_layer: dict[str, int] = {}
        self.messages: list[str] = []
        self.cycle_counts: list[dict] = []
        self._counts: dict = {}
        self._layer = "bench"
        self._op_failed = False
        self.last_s = 0.0
        self.check_s = 0.0  # wall time spent in checks, left out of set-up time

    def op(self, name: str, layer: str, fn, step: str | None = None):
        """Run one operation; returns its result, or None if it raised.

        Its wall time counts towards cycle step `step` (default: `name`).
        """
        self.attempted += 1
        self._layer, self._op_failed = layer, False
        if self.calibrator:
            self.calibrator.maybe()
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises is a failed operation
            self.fail(f"{name} raised {exc!r}")
            return None
        self.last_s = time.perf_counter() - start
        self._pending.append((step or name, self.last_s, start))
        return result

    def fail(self, message: str, layer: str | None = None, ops: int = 1) -> None:
        """Fail the current operation, or `ops` operations already attempted."""
        layer = layer or self._layer
        if not self._op_failed or ops > 1:
            self.failed += ops
            self._op_failed = True
        self.failed_by_layer[layer] = self.failed_by_layer.get(layer, 0) + 1
        if len(self.messages) < 20:
            self.messages.append(f"[{layer}] {message}")

    def fail_op(self, message: str, layer: str = "bench") -> None:
        """Record a failed consistency check as an operation of its own."""
        self.attempted += 1
        self._op_failed = False
        self.fail(message, layer)

    @contextlib.contextmanager
    def checking(self):
        """Pause the tracer and book the wall time as check time."""
        paused = self.tracer is not None and self.tracer.active
        if paused:
            self.tracer.active = False
        start = time.perf_counter()
        try:
            yield
        finally:
            self.check_s += time.perf_counter() - start
            if paused:
                self.tracer.active = True

    def check(self, what: str, fn, layer: str | None = None) -> None:
        """Check the last operation's output; `fn` returns True when it is right."""
        with self.checking():
            try:
                ok = bool(fn())
            except Exception as exc:  # a check that cannot run counts as failed
                self.fail(f"check {what} raised {exc!r}", layer)
                return
        if not ok:
            self.fail(f"check failed: {what}", layer)

    def count(self, key: str, n) -> None:
        """Add to a per-cycle count (bytes written, rows); must repeat exactly."""
        self._counts[key] = self._counts.get(key, 0) + n

    def value(self, key: str, v) -> None:
        """Record a per-cycle result that must repeat exactly (an MAE, say)."""
        self.values.setdefault(key, []).append(v)
        self._counts["value:" + key] = v

    def sample(self, key: str, v: float) -> None:
        self.samples.setdefault(key, []).append(v)

    def end_cycle(self) -> dict:
        """Close a cycle: book its step times and compare its counts with the first cycle's."""
        if self.calibrator and self._pending:
            self.calibrator.maybe(force=True)
        self._timed.append(self._pending)
        self._pending = []
        counts, self._counts = self._counts, {}
        if self.cycle_counts and counts != self.cycle_counts[0]:
            diff = sorted(k for k in set(counts) | set(self.cycle_counts[0])
                          if counts.get(k) != self.cycle_counts[0].get(k))
            self.fail_op(f"counts differ from the first cycle: {diff}")
        self.cycle_counts.append(counts)
        return {k: v for k, v in counts.items() if not k.startswith("value:")}

    def step_times(self, calibrated: bool = False) -> dict[str, list[float]]:
        """Step -> its time in each cycle: wall seconds, or calibration-kernel units."""
        out: dict[str, list[float]] = {}
        for ops in self._timed:
            cycle: dict[str, float] = {}
            for step, seconds, start in ops:
                if calibrated:
                    seconds /= self.calibrator.around(start, start + seconds)
                cycle[step] = cycle.get(step, 0.0) + seconds
            for step, t in cycle.items():
                out.setdefault(step, []).append(t)
        return out

    def cycle_time(self, calibrated: bool = False) -> float:
        """Sum over the cycle's steps of each step's median time across cycles."""
        return float(sum(np.median(v) for v in self.step_times(calibrated).values()))

    def median(self, name: str) -> float:
        """Median wall seconds of one step across cycles."""
        times = self.step_times().get(name)
        return float(np.median(times)) if times else 0.0

    def merge_failures(self, other: "Recorder") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for k, v in other.failed_by_layer.items():
            self.failed_by_layer[k] = self.failed_by_layer.get(k, 0) + v
        self.messages += other.messages[: max(0, 20 - len(self.messages))]


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, sizes: Sizes, workdir: Path):
        self.seed = seed
        self.sizes = sizes
        self.workdir = workdir
        self.mid = scene.preset_scene("mid", 1)
        self.mid4 = scene.preset_scene("mid", 4)

    def setup(self, rec: Recorder) -> None:
        raise NotImplementedError

    def cycle(self, rec: Recorder) -> None:
        raise NotImplementedError

    def figures(self, rec: Recorder) -> dict:
        raise NotImplementedError

    def _path(self, name: str) -> Path:
        return self.workdir / name

    def _predict_map(self, model):
        return evalmap.predict_map(model, self.mid, MAP_Z, self.sizes.map_spacing)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

class Simulate(Workload):
    name = "simulate"
    why = ("channel-backed generators only, batched and per-point, over room sizes and "
           "LED counts, with CSV save and reload; no model code runs")

    def setup(self, rec: Recorder) -> None:
        s = self.sizes
        px, pz, pd = s.variable
        # (label, step, scene of every row or None for per-row rooms, generator).
        # A grid draws only per_axis values per axis, so how many of its rows sit
        # near a wall varies a lot between seeds; several small grids with their
        # own seeds keep that variation of the step small.
        jobs = []
        grids = ((1, self.mid, s.fixed_per_axis), (4, self.mid4, s.fixed4_per_axis))
        for leds, sc, n in grids:
            for k in range(s.grid_calls):
                seed = sub_seed(self.seed, leds, k)
                jobs.append((f"fixed_{leds}led_{k}", f"fixed_{leds}led", sc,
                             lambda sc=sc, n=n, seed=seed: dataset.generate_fixed(sc, n, seed=seed)))
        seeds = [sub_seed(self.seed, k) for k in range(2, 5)]
        jobs += [
            ("reference", "reference", self.mid,
             lambda: dataset.generate_reference(self.mid, s.reference_n, seed=seeds[0])),
            ("variable", "variable", None,
             lambda: dataset.generate_variable(1, px, pz, pd, seed=seeds[1])),
            ("reference_variable", "reference_variable", None,
             lambda: dataset.generate_reference_variable(1, s.reference_variable_n, seed=seeds[2])),
        ]
        self.jobs = jobs
        # Warm-up: every program call of the cycle once, on tiny inputs.
        warm = [dataset.generate_fixed(self.mid, 2, seed=self.seed),
                dataset.generate_fixed(self.mid4, 2, seed=self.seed),
                dataset.generate_reference(self.mid, 4, seed=self.seed),
                dataset.generate_variable(1, 2, 2, 1, seed=self.seed),
                dataset.generate_reference_variable(1, 2, seed=self.seed)]
        for i, ds in enumerate(warm):
            ds.save(self._path(f"warm{i}.csv"))
            dataset.Dataset.load(self._path(f"warm{i}.csv"))
        evalmap.map_to_csv(evalmap.simulate_map(self.mid, MAP_Z, 1.0), self._path("warm_map.csv"))

    def _gen_save_load(self, label, gen):
        ds = gen()
        path = self._path(f"{label}.csv")
        ds.save(path)
        return ds, dataset.Dataset.load(path)

    def _point_scene(self, ds, fixed_scene, i):
        if fixed_scene is not None:
            return fixed_scene
        f = ds.features[i]
        return scene.variable_scene(float(f[3]), float(f[4]), 1)

    def cycle(self, rec: Recorder) -> None:
        rng = np.random.default_rng(sub_seed(self.seed, 9))
        for label, step, fixed_scene, gen in self.jobs:
            out = rec.op(label, "dataset", lambda: self._gen_save_load(label, gen), step=step)
            if out is None:
                continue
            ds, back = out
            path = self._path(f"{label}.csv")
            rec.count("dataset.csv_bytes", file_bytes(path, path.with_suffix(".meta.json")))
            rec.count("sim.rows", len(ds))
            rec.check(f"{label}: every RSS is finite", lambda: np.isfinite(ds.rss_dbm).all())
            rec.check(f"{label}: reloaded CSV equals the generated dataset", lambda: (
                back.feature_names == ds.feature_names
                and np.array_equal(back.features, ds.features)
                and np.array_equal(back.rss_dbm, ds.rss_dbm)))
            for i in rng.choice(len(ds), size=min(2, len(ds)), replace=False):
                sc = self._point_scene(ds, fixed_scene, i)
                pos = ds.features[i, :3]
                rec.check(f"{label}: batched and per-point channel agree at row {i}",
                          lambda: self._agree(sc, pos, ds.rss_dbm[i]), "channel")
        path = self._path("map.csv")
        rmap = rec.op("simulate_map", "evalmap", lambda: self._map(path))
        if rmap is None:
            return
        rec.count("evalmap.output_bytes", file_bytes(path))
        rec.count("sim.rows", rmap.values.size)
        v = rmap.values
        rec.check("map: every RSS is finite", lambda: np.isfinite(v).all())
        rec.check("map: 1-LED map is mirror-symmetric in x and y",
                  lambda: rel_close(v, v[:, ::-1], 1e-9) and rel_close(v, v[::-1, :], 1e-9),
                  "channel")
        rec.check("map: CSV holds the simulated values",
                  lambda: np.array_equal(csv_column(path, 2, 2), v.ravel()))
        for k in rng.choice(v.size, size=2, replace=False):
            iy, ix = divmod(int(k), rmap.nx)
            pos = (rmap.x_centers()[ix], rmap.y_centers()[iy], MAP_Z)
            rec.check(f"map: batched and per-point channel agree at cell {k}",
                      lambda: self._agree(self.mid, pos, v[iy, ix]), "channel")

    def _map(self, path):
        rmap = evalmap.simulate_map(self.mid, MAP_Z, self.sizes.map_spacing)
        evalmap.map_to_csv(rmap, path)
        return rmap

    @staticmethod
    def _agree(sc, pos, rss) -> bool:
        """received_power_many's RSS against received_power at one point, 1e-12 relative."""
        single = channel.rss_dbm(channel.received_power(sc, pos).total_mw)
        p_los, p_nlos = channel.received_power_many(sc, np.asarray(pos, dtype=float)[None, :])
        many = channel.rss_dbm(p_los + p_nlos)[0]
        return (math.isclose(single, rss, rel_tol=1e-12)
                and math.isclose(many, rss, rel_tol=1e-12))

    def figures(self, rec: Recorder) -> dict:
        rows = rec.cycle_counts[0].get("sim.rows", 0) if rec.cycle_counts else 0
        cycle = rec.cycle_time()
        return {"sim_rows_per_s": rows / cycle if cycle else 0.0}


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def fit_kwargs(kind: str, sizes: Sizes, seed: int) -> dict:
    """evalmap.fit_model keyword arguments for one model kind."""
    kw = {"seed": sub_seed(seed, 20)}
    if kind in mlp.MLP_PRESETS:
        kw["epochs"] = sizes.epochs
    elif kind == "xt":
        kw["xt_trees"] = sizes.xt_trees
    elif kind == "adaboost":
        kw["adaboost_estimators"], kw["adaboost_base_trees"] = sizes.adaboost
    return kw


def training_pool(mid, sizes: Sizes, seed: int):
    return dataset.generate_fixed(mid, sizes.pool_per_axis, seed=sub_seed(seed, 10))


def prepare(pool, sizes: Sizes, seed: int):
    """The paper's preparation: subsample, add noise (factor 0.1), split 60/20/20."""
    seed = sub_seed(seed, 12)
    sub = dataset.subsample(pool, sizes.train_rows, seed=seed)
    noisy, _ = dataset.add_noise(sub, NOISE_FACTOR, seed=seed)
    return dataset.split(noisy, seed=seed)


class Fit(Workload):
    name = "fit"
    why = ("subsample, noise, split, then fit and score mlp32x128, dt, xt and adaboost; "
           "tree growth and MLP epochs do the work, no channel calls")

    def setup(self, rec: Recorder) -> None:
        self.pool = training_pool(self.mid, self.sizes, self.seed)
        self.reference = dataset.generate_reference(self.mid, self.sizes.reference_n,
                                                    seed=sub_seed(self.seed, 11))
        # Warm-up: each model kind once on a small split, scored and mapped coarsely.
        small = dataset.split(dataset.subsample(self.pool, 60, seed=self.seed), seed=self.seed)
        for kind in FIT_KINDS:
            kw = fit_kwargs(kind, self.sizes, self.seed)
            kw.update(epochs=1, xt_trees=1, adaboost_estimators=1, adaboost_base_trees=1)
            model = evalmap.fit_model(kind, small, **kw)
            evalmap.evaluate_model(model, self.reference)
            evalmap.predict_map(model, self.mid, MAP_Z, 1.0)
            evalmap.predict_any(model, self.reference.features[0])

    def cycle(self, rec: Recorder) -> None:
        splits = rec.op("prepare", "dataset", lambda: prepare(self.pool, self.sizes, self.seed))
        if splits is None:
            return
        n = self.sizes.train_rows
        rec.check("split partitions the subsample", lambda: (
            len(splits.train) + len(splits.validation) + len(splits.test) == n
            and np.isfinite(splits.train.rss_dbm).all()))
        ref = self.reference
        rows = np.random.default_rng(sub_seed(self.seed, 13)).choice(len(ref), 8, replace=False)
        for kind, layer in FIT_KINDS.items():
            kw = fit_kwargs(kind, self.sizes, self.seed)
            model = rec.op(f"fit:{kind}", layer, lambda: evalmap.fit_model(kind, splits, **kw))
            if model is None:
                continue
            report = rec.op(f"evaluate:{kind}", "evalmap",
                            lambda: evalmap.evaluate_model(model, ref))
            if report is not None:
                rec.value(f"mae:{kind}", report.mae_dbm)
                rec.check(f"{kind}: MAE is finite", lambda: math.isfinite(report.mae_dbm))
            rmap = rec.op(f"map:{kind}", "evalmap", lambda: self._predict_map(model))
            if rmap is not None:
                rec.check(f"{kind}: predicted map is finite",
                          lambda: np.isfinite(rmap.values).all())
            X = ref.features[rows]
            with rec.checking():
                check_rows(rec, kind, layer, [evalmap.predict_any(model, x) for x in X],
                           [evalmap.predict_any(model, X[i:i + 1])[0] for i in range(len(X))],
                           evalmap.predict_any(model, X))

    def figures(self, rec: Recorder) -> dict:
        out = {f"fit_{k.replace('32x128', '')}_s": rec.median(f"fit:{k}") for k in FIT_KINDS}
        for kind in ("mlp32x128", "xt", "adaboost"):
            maes = rec.values.get(f"mae:{kind}", [])
            out[f"mae_{kind.replace('32x128', '')}_dbm"] = maes[0] if maes else 0.0
        return out


# ---------------------------------------------------------------------------
# query
# ---------------------------------------------------------------------------

class Query(Workload):
    name = "query"
    why = ("single-row predicts interleaving mlp32x128 and xt, 50x50 maps and the CLI "
           "map/predict on saved model files; no training or simulation")

    def setup(self, rec: Recorder) -> None:
        splits = prepare(training_pool(self.mid, self.sizes, self.seed), self.sizes, self.seed)
        rng = np.random.default_rng(sub_seed(self.seed, 30))
        n = self.sizes.query_points
        room = self.mid.room
        self.points = np.column_stack([rng.uniform(0, room.lx, n), rng.uniform(0, room.ly, n),
                                       rng.uniform(0, dataset.RX_Z_MAX, n)])
        self.models, self.paths, self.maps = {}, {}, {}
        self.one_row, self.batch, self.cli_expected = {}, {}, {}
        for kind, layer in QUERY_KINDS.items():
            model = evalmap.fit_model(kind, splits, **fit_kwargs(kind, self.sizes, self.seed))
            path = self._path(f"{kind}.json")
            if layer == "mlp":
                mlp.save_model(model, path)
            else:
                forest.save_forest(model, path)
            self.models[kind], self.paths[kind] = model, path
            self.one_row[kind] = np.array([evalmap.predict_any(model, self.points[i:i + 1])[0]
                                           for i in range(n)])
            self.batch[kind] = evalmap.predict_any(model, self.points)
            self.cli_expected[kind] = evalmap.predict_any(model, self.points[:4])
            self.maps[kind] = self._predict_map(model).values
            rtol = MLP_RTOL if layer == "mlp" else 0.0
            rec.check(f"{kind}: saved-then-loaded model predicts as the in-memory one",
                      lambda: rel_close(evalmap.predict_any(evalmap.load_any_model(path),
                                                            self.points),
                                        self.batch[kind], rtol), layer)
            rec.count(f"{layer}.model_bytes", file_bytes(path))
        # Warm-up: the CLI once per model and a few single-row predicts.
        for kind in QUERY_KINDS:
            self._cli_map(kind)
            self._cli_predict(kind)
            for p in self.points[:5]:
                evalmap.predict_any(self.models[kind], p)

    def _cli(self, argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main(argv)

    def _cli_map(self, kind):
        out, pgm = self._path(f"map_{kind}.csv"), self._path(f"map_{kind}.pgm")
        rc = self._cli(["map", "--model", str(self.paths[kind]), "--scene", "mid",
                        "--z", repr(MAP_Z), "--spacing", repr(self.sizes.map_spacing),
                        "--out", str(out), "--pgm", str(pgm)])
        return rc, (out, pgm, Path(f"{out}.run.meta.json"))

    def _cli_predict(self, kind):
        out = self._path(f"predict_{kind}.csv")
        argv = ["predict", "--model", str(self.paths[kind]), "--out", str(out)]
        for p in self.points[:4]:
            argv += ["--at", ",".join(repr(float(c)) for c in p)]
        return self._cli(argv), (out, Path(f"{out}.run.meta.json"))

    def cycle(self, rec: Recorder) -> None:
        kinds = list(QUERY_KINDS.items())
        got = {kind: np.full(len(self.points), np.nan) for kind in QUERY_KINDS}
        for i, p in enumerate(self.points):
            for kind, layer in kinds:
                v = rec.op(f"row:{kind}", layer,
                           lambda: evalmap.predict_any(self.models[kind], p), step="rows")
                if v is not None:
                    rec.sample(kind, rec.last_s)
                    got[kind][i] = v
        for kind, layer in kinds:
            check_rows(rec, kind, layer, got[kind], self.one_row[kind], self.batch[kind],
                       rows_are_ops=True)
        for kind, layer in kinds:
            model = self.models[kind]
            rmap = rec.op(f"predict_map:{kind}", "evalmap", lambda: self._predict_map(model))
            if rmap is not None:
                rec.check(f"{kind}: predict_map repeats the set-up map",
                          lambda: np.array_equal(rmap.values, self.maps[kind]))
        for kind, layer in kinds:
            rtol = MLP_RTOL if layer == "mlp" else 0.0
            out = rec.op(f"cli_map:{kind}", "cli", lambda: self._cli_map(kind))
            if out is not None:
                rc, files = out
                rec.check(f"{kind}: lumenrem map exits 0", lambda: rc == 0)
                if rc == 0:
                    rec.count("cli.output_bytes", file_bytes(*files))
                    rec.check(f"{kind}: map from the saved model equals the in-memory map",
                              lambda: rel_close(csv_column(files[0], 2, 2),
                                                self.maps[kind].ravel(), rtol))
            out = rec.op(f"cli_predict:{kind}", "cli", lambda: self._cli_predict(kind))
            if out is not None:
                rc, files = out
                rec.check(f"{kind}: lumenrem predict exits 0", lambda: rc == 0)
                if rc == 0:
                    rec.count("cli.output_bytes", file_bytes(*files))
                    rec.check(f"{kind}: predictions from the saved model equal the in-memory ones",
                              lambda: rel_close(csv_column(files[0], 1, -1),
                                                self.cli_expected[kind], rtol))

    def figures(self, rec: Recorder) -> dict:
        out = {}
        for kind in QUERY_KINDS:
            us = np.asarray(rec.samples.get(kind, [0.0])) * 1e6
            short = kind.replace("32x128", "")
            out[f"{short}_row_us_p50"] = float(np.percentile(us, 50))
            out[f"{short}_row_us_p99"] = float(np.percentile(us, 99))
        out["row_latency_samples"] = min(len(rec.samples.get(k, [])) for k in QUERY_KINDS)
        out["map_s"] = float(np.median([rec.median(f"cli_map:{k}") for k in QUERY_KINDS]))
        return out


WORKLOADS = {w.name: w for w in (Simulate, Fit, Query)}

# Figures named by workload; each is reported (as 0) on the workloads it does not apply to.
FIGURES = ("sim_rows_per_s", "fit_mlp_s", "fit_dt_s", "fit_xt_s", "fit_adaboost_s",
           "mae_mlp_dbm", "mae_xt_dbm", "mae_adaboost_dbm", "mlp_row_us_p50", "mlp_row_us_p99",
           "xt_row_us_p50", "xt_row_us_p99", "row_latency_samples", "map_s")
