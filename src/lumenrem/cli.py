"""Command-line front end.

Subcommands cover the whole workflow: generate datasets, train surrogate
models, score them against references, predict single points, render radio
maps, benchmark wall-clock costs, and sweep experiment campaigns.

Each handler returns the outputs it wrote; `main` then writes the run's one
`run.meta.json` next to the primary output, holding the fully resolved
configuration and that list (a run that fails writes none). `argv_from_meta`
rebuilds the equivalent command line from it, so any run can be replayed
exactly. Exit codes: 0 on success, 1 on a usage error, 2 on a runtime failure.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__, evalmap, forest, mlp
from ._doc import read_json, write_csv, write_json
from .channel import DEFAULT_PATCH_EDGE_M
from .dataset import (
    FEATURE_LAYOUTS,
    Dataset,
    add_noise,
    generate_fixed,
    generate_reference,
    generate_reference_variable,
    generate_variable,
    split,
    subsample,
)
from .scene import PRESET_ROOMS, Scene, preset_scene


class UsageError(ValueError):
    """Malformed invocation detected after argparse (maps to exit code 1)."""


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _finite_float(text: str) -> float:
    """argparse type of every float flag: argparse names the flag and exits."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing reads it and
    changes nothing in it, so every call shares it."""
    parser = argparse.ArgumentParser(
        prog="lumenrem",
        description="Indoor visible-light RSS simulation, surrogate models, and radio maps.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scene_args(p):
        p.add_argument("--scene", default="mid",
                       help=f"room preset ({', '.join(PRESET_ROOMS)}) or a scene JSON file "
                            "(default: mid; files carry their own LED layout)")
        p.add_argument("--leds", type=int, default=1, choices=(1, 4),
                       help="LED count for presets (default: 1)")

    g = sub.add_parser("generate", help="simulate a dataset of RSS samples")
    add_scene_args(g)
    g.add_argument("--per-axis", type=int, help="fixed-room grid: draws per axis (rows = N^3)")
    g.add_argument("--variable", action="store_true",
                   help="draw room dimensions per sample instead of using one room")
    g.add_argument("--per-xy", type=int, help="variable mode: draws per horizontal axis")
    g.add_argument("--per-z", type=int, help="variable mode: draws for the height axis")
    g.add_argument("--per-dim", type=int, help="variable mode: draws per room dimension")
    g.add_argument("--reference", type=int, metavar="N",
                   help="draw N independent uniform test points instead of a grid")
    g.add_argument("--noise-factor", type=_finite_float, default=0.0,
                   help="optical noise std as a fraction of the clean power spread (default: 0)")
    g.add_argument("--patch-edge", type=_finite_float, default=DEFAULT_PATCH_EDGE_M,
                   help=f"wall discretization edge in meters (default: {DEFAULT_PATCH_EDGE_M})")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True, help="output CSV path")

    t = sub.add_parser("train", help="fit a surrogate model on a dataset")
    t.add_argument("--model", default="mlp32x128", choices=evalmap.MODEL_KINDS)
    t.add_argument("--data", required=True, help="training dataset CSV")
    t.add_argument("--train-size", type=int, default=12500,
                   help="rows subsampled from the dataset before splitting (default: 12500)")
    t.add_argument("--epochs", type=int, default=250)
    t.add_argument("--batch-size", type=int, default=128)
    t.add_argument("--noise-factor", type=_finite_float, default=0.0,
                   help="inject noise into the training subsample (default: 0)")
    t.add_argument("--xt-trees", type=int, default=100)
    t.add_argument("--adaboost-estimators", type=int, default=50)
    t.add_argument("--adaboost-base-trees", type=int, default=10)
    t.add_argument("--max-depth", type=int, default=None)
    t.add_argument("--min-samples-split", type=int, default=2)
    t.add_argument("--min-samples-leaf", type=int, default=1)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--out", required=True, help="model JSON path")

    e = sub.add_parser("evaluate", help="score a model against a reference dataset")
    e.add_argument("--model", required=True)
    e.add_argument("--reference", required=True, help="reference dataset CSV")
    e.add_argument("--out", required=True, help="report JSON path")

    p = sub.add_parser("predict", help="predict RSS at explicit points")
    p.add_argument("--model", required=True)
    p.add_argument("--at", action="append", required=True, metavar="X,Y,Z[,LX,LY]",
                   help="comma-separated features; repeatable")
    p.add_argument("--out", required=True, help="CSV of predictions")

    m = sub.add_parser("map", help="render an RSS grid at one height")
    src = m.add_mutually_exclusive_group(required=True)
    src.add_argument("--model", help="model file to infer the map from")
    src.add_argument("--simulate", action="store_true", help="ground-truth map from the simulator")
    add_scene_args(m)
    m.add_argument("--z", type=_finite_float, default=1.0,
                   help="receiver plane height (default: 1.0)")
    m.add_argument("--spacing", type=_finite_float, default=0.1,
                   help="cell edge in meters (default: 0.1)")
    m.add_argument("--patch-edge", type=_finite_float, default=DEFAULT_PATCH_EDGE_M)
    m.add_argument("--out", required=True, help="map CSV path")
    m.add_argument("--pgm", default=None, help="optional grayscale PGM path")

    b = sub.add_parser("bench", help="time training and single-point inference")
    b.add_argument("--model-kind", required=True, choices=evalmap.MODEL_KINDS)
    b.add_argument("--data", required=True, help="dataset CSV")
    b.add_argument("--reps", type=int, default=3)
    b.add_argument("--epochs", type=int, default=250)
    b.add_argument("--batch-size", type=int, default=128)
    b.add_argument("--n-predict", type=int, default=10_000)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True, help="timing report JSON path")

    c = sub.add_parser("campaign", help="run a cross-product experiment grid")
    c.add_argument("--spec", required=True, help="campaign spec JSON file")
    c.add_argument("--out", required=True, help="output directory")

    return parser


# ---------------------------------------------------------------------------
# run.meta.json
# ---------------------------------------------------------------------------

def argv_from_meta(meta: dict, **overrides) -> list[str]:
    """Rebuild the canonical argv of a recorded run.

    Keyword overrides replace resolved values (e.g. ``out="elsewhere.csv"``)
    before reconstruction, which is how a run is replayed into a fresh
    location.
    """
    command = meta["subcommand"]
    cfg = {**meta["resolved"], **overrides}
    argv = [command]
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    for action in subparsers.choices[command]._actions:
        value = cfg.get(action.dest)
        if value is None or value is False:
            continue
        flag = action.option_strings[-1]
        if action.nargs == 0:  # a store_true switch
            argv.append(flag)
            continue
        values = value if isinstance(value, list) else [value]
        for v in values:
            argv.extend([flag, repr(v) if isinstance(v, float) else str(v)])
    return argv


def _write_meta(args: argparse.Namespace, outputs: list[str]) -> None:
    primary = Path(getattr(args, "out"))
    meta_path = primary / "run.meta.json" if primary.is_dir() else Path(f"{primary}.run.meta.json")
    resolved = {key: value for key, value in vars(args).items() if key != "command"}
    doc = {"subcommand": args.command, "package_version": __version__,
           "resolved": resolved, "outputs": outputs}
    write_json(meta_path, doc, indent=2)


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

def _load_scene(name_or_path: str, leds: int) -> Scene:
    if name_or_path in PRESET_ROOMS:
        return preset_scene(name_or_path, leds)
    return Scene.load(name_or_path)


def _cmd_generate(args) -> list[str]:
    grid_flags = [args.per_xy, args.per_z, args.per_dim]
    if args.reference is not None:
        if args.per_axis is not None or any(v is not None for v in grid_flags):
            raise UsageError("--reference cannot be combined with grid size flags")
        if args.variable:
            ds = generate_reference_variable(args.leds, args.reference,
                                             args.patch_edge, seed=args.seed)
        else:
            scene = _load_scene(args.scene, args.leds)
            ds = generate_reference(scene, args.reference, args.patch_edge, seed=args.seed)
    elif args.variable:
        if any(v is None for v in grid_flags) or args.per_axis is not None:
            raise UsageError("--variable needs --per-xy, --per-z and --per-dim (and no --per-axis)")
        ds = generate_variable(args.leds, args.per_xy, args.per_z, args.per_dim,
                               args.patch_edge, seed=args.seed)
    else:
        if args.per_axis is None or any(v is not None for v in grid_flags):
            raise UsageError("fixed-room generation needs --per-axis (or use --variable/--reference)")
        scene = _load_scene(args.scene, args.leds)
        ds = generate_fixed(scene, args.per_axis, args.patch_edge, seed=args.seed)
    ds, osnr = add_noise(ds, args.noise_factor, seed=args.seed)
    _, sidecar = ds.save(args.out)
    note = "" if osnr == float("inf") else f", mean OSNR {osnr:.2f} dB"
    print(f"wrote {args.out} ({len(ds)} rows{note})")
    return [args.out, str(sidecar)]


def _cmd_train(args) -> list[str]:
    ds = Dataset.load(args.data)
    sub = subsample(ds, args.train_size, seed=args.seed)
    noisy, osnr = add_noise(sub, args.noise_factor, seed=args.seed)
    splits = split(noisy, seed=args.seed)
    params = forest.TreeParams(max_depth=args.max_depth,
                               min_samples_split=args.min_samples_split,
                               min_samples_leaf=args.min_samples_leaf)
    model = evalmap.fit_model(
        args.model, splits,
        epochs=args.epochs, batch_size=args.batch_size, seed=args.seed,
        xt_trees=args.xt_trees, adaboost_estimators=args.adaboost_estimators,
        adaboost_base_trees=args.adaboost_base_trees, tree_params=params,
    )
    if isinstance(model, mlp.MlpModel):
        mlp.save_model(model, args.out)
        last = model.training_log[-1] if model.training_log else None
        tail = f", final val MSE {last['val_mse']:.6f}" if last else ""
        print(f"wrote {args.out} (mlp on {len(splits.train)} rows, "
              f"{len(model.training_log)} epochs{tail})")
    else:
        forest.save_forest(model, args.out)
        print(f"wrote {args.out} ({args.model} on {len(splits.train)} rows, "
              f"{len(model.trees)} trees)")
    return [args.out]


def _cmd_evaluate(args) -> list[str]:
    model = evalmap.load_any_model(args.model)
    ref = Dataset.load(args.reference)
    report = evalmap.evaluate_model(model, ref, mean_osnr_db=ref.meta.get("mean_osnr_db"))
    write_json(args.out, report.to_dict(), indent=2)
    mape = "n/a" if report.mape_percent is None else f"{report.mape_percent:.3f}%"
    print(f"MAE {report.mae_dbm:.4f} dBm, MAPE {mape} over {report.n_points} points")
    return [args.out]


def _cmd_predict(args) -> list[str]:
    model = evalmap.load_any_model(args.model)
    arity = model.n_features
    if arity not in FEATURE_LAYOUTS:
        raise ValueError(f"{args.model} holds a {arity}-feature model; rows have 3 or 5 features")
    rows = []
    for spec in args.at:
        parts = spec.split(",")
        if len(parts) != arity:
            raise UsageError(f"--at {spec!r} has {len(parts)} values; model expects {arity}")
        try:
            rows.append([float(v) for v in parts])
        except ValueError as exc:
            raise UsageError(f"--at {spec!r} is not numeric") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise UsageError(f"--at {spec!r} holds a value that is not finite")
    preds = evalmap.finite_predictions(model, np.array(rows, dtype=np.float64))
    for v in preds:
        print(repr(float(v)))
    write_csv(args.out, FEATURE_LAYOUTS[arity] + ("prediction_dbm",),
              (row + [v] for row, v in zip(rows, preds)))
    return [args.out]


def _cmd_map(args) -> list[str]:
    scene = _load_scene(args.scene, args.leds)
    if args.simulate:
        radio_map = evalmap.simulate_map(scene, args.z, args.spacing, args.patch_edge)
    else:
        model = evalmap.load_any_model(args.model)
        radio_map = evalmap.predict_map(model, scene, args.z, args.spacing)
    evalmap.map_to_csv(radio_map, args.out)
    outputs = [args.out]
    if args.pgm:
        evalmap.map_to_pgm(radio_map, args.pgm)
        outputs.append(args.pgm)
    _, _, px, py = radio_map.peak_cell()
    print(f"wrote {args.out} ({radio_map.nx}x{radio_map.ny} cells, "
          f"source {radio_map.source}, peak at ({px:.2f}, {py:.2f}))")
    return outputs


def _cmd_bench(args) -> list[str]:
    ds = Dataset.load(args.data)
    report = evalmap.benchmark(
        args.model_kind, ds, args.reps,
        epochs=args.epochs, batch_size=args.batch_size,
        seed=args.seed, n_predict=args.n_predict,
    )
    write_json(args.out, report.to_dict(), indent=2)
    print(f"{args.model_kind}: train {report.train_seconds:.3f} s, "
          f"predict {report.predict_us_per_sample:.1f} us/sample "
          f"({report.repetitions} reps) [{report.hardware_note}]")
    return [args.out]


def _cmd_campaign(args) -> list[str]:
    doc = read_json(args.spec)
    try:
        spec = evalmap.CampaignSpec.from_dict(doc)
    except (TypeError, ValueError) as e:
        raise ValueError(f"{args.spec}: {e}") from e
    result = evalmap.campaign(spec)
    rows_path, summary_path = result.write_csv(args.out)
    print(f"wrote {rows_path} ({len(result.rows)} rows) and "
          f"{summary_path} ({len(result.summaries)} cells)")
    return [str(rows_path), str(summary_path)]


_COMMANDS = {
    "generate": _cmd_generate,
    "train": _cmd_train,
    "evaluate": _cmd_evaluate,
    "predict": _cmd_predict,
    "map": _cmd_map,
    "bench": _cmd_bench,
    "campaign": _cmd_campaign,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage and 0 for --help/--version
        return 0 if exc.code == 0 else 1
    try:
        _write_meta(args, _COMMANDS[args.command](args))
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failure: bad files, bad values, IO
        if isinstance(exc, evalmap.NonFinitePrediction) and getattr(args, "model", None):
            exc = f"{args.model}: {exc}"  # the model file whose model predicted it
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
