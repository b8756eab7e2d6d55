"""Per-layer metrics from traced spans and the counts taken at layer boundaries.

Every per-layer figure covers one set-up plus one timed cycle: the traced
set-up's spans plus, for times, the median over the traced cycles and, for
counts, the first traced cycle (counts must repeat exactly from cycle to
cycle; `cycle_phase` reports any that do not).
"""

from __future__ import annotations

import math
import statistics

import numpy as np

from tracer import LAYERS, busy_times, self_times

# Same rule and tiling as the channel: a (row, patch) pair is refined when the
# receiver is closer than four patch edges (edge <= d/4 fails).
_REFINE_FACTOR = 4.0
_DEFAULT_PATCH_EDGE_M = 0.2


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _tree_depth(tree) -> int:
    """Depth of a flat-array tree (root = 0), one level per NumPy pass."""
    frontier = np.zeros(1, dtype=np.intp)
    depth = -1
    while frontier.size:
        depth += 1
        inner = frontier[tree.feature[frontier] >= 0]
        frontier = np.concatenate([tree.left[inner], tree.right[inner]]).astype(np.intp)
    return depth


def _observe_trees(tracer, trees) -> None:
    tracer.count("forest.trees", len(trees))
    tracer.count("forest.nodes", sum(t.n_nodes for t in trees))
    tracer.note("forest.depths", max(_tree_depth(t) for t in trees))


def _observe_channel(tracer, args, kwargs, positions_name: str) -> None:
    scene = _arg(args, kwargs, 0, "scene")
    positions = _arg(args, kwargs, 1, positions_name)
    edge = _arg(args, kwargs, 2, "patch_edge_m", _DEFAULT_PATCH_EDGE_M)
    room = scene.room
    tracer.note("scene.rooms", (room.lx, room.ly, room.lz))
    pos = np.array(positions, dtype=float).reshape(-1, 3)
    tracer.note("channel.inputs", ((room.lx, room.ly, room.lz), pos, edge))


def _observe_many(tracer, args, kwargs, result) -> None:
    tracer.count("channel.received_power_many.rows", len(result[0]))
    _observe_channel(tracer, args, kwargs, "positions")


def _observe_single(tracer, args, kwargs, result) -> None:
    _observe_channel(tracer, args, kwargs, "rx_pos")


def _observe_rows(key):
    def observe(tracer, args, kwargs, result) -> None:
        tracer.count(key, len(result))
    return observe


def _observe_predict_forest(tracer, args, kwargs, result) -> None:
    tracer.count("forest.predict_forest.rows", 1 if np.ndim(result) == 0 else len(result))


def _observe_adaboost(tracer, args, kwargs, result) -> None:
    tracer.count("forest.adaboost_kept", result.n_members)


def _observe_train(tracer, args, kwargs, result) -> None:
    tracer.count("mlp.epochs", len(result.training_log))


GENERATORS = ("generate_fixed", "generate_variable", "generate_reference",
              "generate_reference_variable")

OBSERVERS = {
    "channel.received_power_many": _observe_many,
    "channel.received_power": _observe_single,
    **{f"dataset.{g}": _observe_rows(f"dataset.{g}.rows") for g in GENERATORS},
    "forest.fit_cart": lambda tracer, a, k, tree: _observe_trees(tracer, [tree]),
    "forest.fit_extra_trees": lambda tracer, a, k, model: _observe_trees(tracer, model.trees),
    "forest.fit_adaboost_r2": _observe_adaboost,
    "forest.predict_forest": _observe_predict_forest,
    "mlp.train": _observe_train,
}


def _wall_centers(room, edge):
    """Patch centers and refinement radius per patch, as the channel tiles walls."""
    lx, ly, lz = room
    centers, radius = [], []
    for axis, offset, extent in (("x", 0.0, ly), ("x", lx, ly), ("y", 0.0, lx), ("y", ly, lx)):
        nu = math.ceil(extent / edge - 1e-12)
        nv = math.ceil(lz / edge - 1e-12)
        du, dv = extent / nu, lz / nv
        uu, vv = np.meshgrid((np.arange(nu) + 0.5) * du, (np.arange(nv) + 0.5) * dv, indexing="ij")
        uu, vv = uu.ravel(), vv.ravel()
        off = np.full_like(uu, offset)
        centers.append(np.column_stack([off, uu, vv] if axis == "x" else [uu, off, vv]))
        radius.append(np.full(len(uu), _REFINE_FACTOR * max(du, dv)))
    return np.concatenate(centers), np.concatenate(radius)


def refine_counts(inputs) -> tuple[int, int, int]:
    """(pairs needing refinement, rows with any such pair, rows) over channel inputs.

    Computed from scene geometry, not measured inside the channel.
    """
    pairs = refined_rows = rows = 0
    tilings = {}
    for room, pos, edge in inputs:
        key = (room, edge)
        if key not in tilings:
            tilings[key] = _wall_centers(room, edge)
        centers, radius = tilings[key]
        for lo in range(0, len(pos), 256):
            block = pos[lo:lo + 256]
            d = np.sqrt(((block[:, None, :] - centers[None, :, :]) ** 2).sum(axis=-1))
            near = d < radius[None, :]
            pairs += int(near.sum())
            refined_rows += int(near.any(axis=1).sum())
        rows += len(pos)
    return pairs, refined_rows, rows


def phase_totals(spans, counts, notes) -> dict:
    """Additive figures of one traced phase (set-up or one cycle)."""
    out: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for name, (busy, calls) in busy_times(spans).items():
        add(f"{name}.busy_s", busy)
        add(f"{name}.calls", calls)
    own = self_times(spans)
    names = {s.sid: s.name for s in spans}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        add(f"{layer}.self_s", own[s.sid])
        if s.raised:
            add(f"{layer}.raised", 1)
        if s.name == "forest.fit_extra_trees" and names.get(s.parent) == "forest.fit_adaboost_r2":
            add("forest.adaboost_fitted", 1)
        if s.name == "mlp.adam_step":
            add("mlp.minibatches", 1)
    for key, value in counts.items():
        add(key, value)
    pairs, refined, rows = refine_counts(notes.get("channel.inputs", []))
    add("channel.refine_pairs", pairs)
    add("channel.refine_rows", refined)
    add("channel.refine_input_rows", rows)
    out["scene.rooms_set"] = set(notes.get("scene.rooms", []))
    out["forest.max_depth"] = max(notes.get("forest.depths", []), default=0)
    return out


def _is_time(key: str) -> bool:
    return key.endswith("_s")


def cycle_phase(per_cycle: list[dict]) -> tuple[dict, list[str]]:
    """One cycle's figures: median of times, first cycle's counts.

    Returns the figures and the count keys that differed between cycles.
    """
    keys = set().union(*per_cycle)
    out, unstable = {}, []
    for key in sorted(keys):
        values = [c.get(key, 0) for c in per_cycle]
        if _is_time(key):
            out[key] = statistics.median(values)
        else:
            out[key] = values[0]
            if any(v != values[0] for v in values[1:]):
                unstable.append(key)
    return out, unstable


def combine(setup: dict, cycle: dict) -> dict:
    out = dict(setup)
    for key, value in cycle.items():
        if key == "scene.rooms_set":
            out[key] = out.get(key, set()) | value
        elif key == "forest.max_depth":
            out[key] = max(out.get(key, 0), value)
        else:
            out[key] = out.get(key, 0) + value
    return out


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(t: dict, failed_by_layer: dict) -> dict:
    """Per-layer metric values by name from combined set-up + cycle figures."""
    g = lambda key: t.get(key, 0)  # noqa: E731
    m = {"scene.rooms": len(t.get("scene.rooms_set", ()))}
    for name in ("received_power_many", "received_power"):
        m[f"channel.{name}.busy_s"] = g(f"channel.{name}.busy_s")
        m[f"channel.{name}.calls"] = g(f"channel.{name}.calls")
    m["channel.received_power_many.rows"] = g("channel.received_power_many.rows")
    m["channel.rows_per_busy_s"] = _ratio(
        g("channel.received_power_many.rows") + g("channel.received_power.calls"),
        g("channel.received_power_many.busy_s") + g("channel.received_power.busy_s"))
    m["channel.tilings"] = g("channel.tilings")
    m["channel.refine_pairs"] = g("channel.refine_pairs")
    m["channel.refine_row_share"] = _ratio(g("channel.refine_rows"), g("channel.refine_input_rows"))
    for gen in GENERATORS:
        m[f"dataset.{gen}.busy_s"] = g(f"dataset.{gen}.busy_s")
        m[f"dataset.{gen}.rows"] = g(f"dataset.{gen}.rows")
    for name in ("add_noise", "split", "subsample", "save", "load"):
        m[f"dataset.{name}.busy_s"] = g(f"dataset.{name}.busy_s")
    m["dataset.csv_bytes"] = g("dataset.csv_bytes")
    m["mlp.train.busy_s"] = g("mlp.train.busy_s")
    m["mlp.epochs"] = g("mlp.epochs")
    m["mlp.minibatches"] = g("mlp.minibatches")
    m["mlp.s_per_epoch"] = _ratio(g("mlp.train.busy_s"), g("mlp.epochs"))
    for name in ("loss_and_gradients", "adam_step", "forward", "predict", "save_model",
                 "load_model"):
        m[f"mlp.{name}.busy_s"] = g(f"mlp.{name}.busy_s")
    m["mlp.predict.calls"] = g("mlp.predict.calls")
    m["mlp.model_bytes"] = g("mlp.model_bytes")
    for name in ("fit_cart", "fit_extra_trees", "fit_adaboost_r2", "predict_forest",
                 "save_forest", "load_forest"):
        m[f"forest.{name}.busy_s"] = g(f"forest.{name}.busy_s")
    m["forest.nodes"] = g("forest.nodes")
    m["forest.trees"] = g("forest.trees")
    m["forest.max_depth"] = g("forest.max_depth")
    m["forest.us_per_node"] = 1e6 * _ratio(
        g("forest.fit_cart.busy_s") + g("forest.fit_extra_trees.busy_s"), g("forest.nodes"))
    m["forest.adaboost_kept_ratio"] = _ratio(g("forest.adaboost_kept"), g("forest.adaboost_fitted"))
    m["forest.predict_forest.calls"] = g("forest.predict_forest.calls")
    m["forest.predict_forest.rows"] = g("forest.predict_forest.rows")
    m["forest.model_bytes"] = g("forest.model_bytes")
    for name in ("fit_model", "evaluate_model", "predict_map", "simulate_map", "map_to_csv",
                 "map_to_pgm", "load_any_model"):
        m[f"evalmap.{name}.busy_s"] = g(f"evalmap.{name}.busy_s")
    m["evalmap.load_any_model.parses_per_load"] = _ratio(
        g("evalmap.load_any_model.json_parses"), g("evalmap.load_any_model.calls"))
    m["evalmap.output_bytes"] = g("evalmap.output_bytes")
    m["cli.main.busy_s"] = g("cli.main.busy_s")
    m["cli.main.calls"] = g("cli.main.calls")
    m["cli.output_bytes"] = g("cli.output_bytes")
    m["mlp.row_batch_mismatches"] = g("mlp.row_batch_mismatches")
    m["forest.row_batch_mismatches"] = g("forest.row_batch_mismatches")
    for layer in LAYERS:
        if layer != "scene":
            m[f"{layer}.self_s"] = g(f"{layer}.self_s")
            m[f"{layer}.failed"] = failed_by_layer.get(layer, 0) + g(f"{layer}.raised")
    return m
