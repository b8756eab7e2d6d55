import json
import re
import shutil
import subprocess
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lumenrem import cli, evalmap, forest, mlp
from lumenrem._doc import MODEL_FORMAT_VERSIONS, _encode_array
from lumenrem.dataset import Dataset, generate_reference
from lumenrem.scene import Receiver, Scene, preset_scene


def run(monkeypatch, tmp_path, *argv):
    monkeypatch.chdir(tmp_path)
    return cli.main(list(argv))


@pytest.fixture()
def workdir(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """One small dataset + trained MLP + reference shared by read-only tests."""
    d = tmp_path_factory.mktemp("trained")
    assert cli.main(["generate", "--scene", "small", "--per-axis", "6",
                     "--seed", "3", "--out", str(d / "d.csv")]) == 0
    assert cli.main(["train", "--model", "mlp32x128", "--data", str(d / "d.csv"),
                     "--train-size", "100", "--epochs", "3", "--batch-size", "16",
                     "--seed", "1", "--out", str(d / "m.json")]) == 0
    assert cli.main(["generate", "--scene", "small", "--reference", "25",
                     "--seed", "5", "--out", str(d / "ref.csv")]) == 0
    return d


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def test_generate_fixed_grid(workdir):
    assert cli.main(["generate", "--scene", "small", "--per-axis", "4",
                     "--seed", "0", "--out", "d.csv"]) == 0
    ds = Dataset.load("d.csv")
    assert len(ds) == 64
    assert ds.feature_names == ("x", "y", "z")
    assert Path("d.meta.json").exists()
    assert Path("d.csv.run.meta.json").exists()


def test_generate_variable(workdir):
    assert cli.main(["generate", "--variable", "--per-xy", "2", "--per-z", "2",
                     "--per-dim", "2", "--seed", "0", "--out", "v.csv"]) == 0
    ds = Dataset.load("v.csv")
    assert len(ds) == 2 * 2 * 2 * 2 * 2
    assert ds.feature_names == ("x", "y", "z", "lx", "ly")


def test_generate_reference_modes(workdir):
    assert cli.main(["generate", "--scene", "small", "--reference", "10",
                     "--seed", "1", "--out", "r.csv"]) == 0
    assert len(Dataset.load("r.csv")) == 10
    assert cli.main(["generate", "--variable", "--reference", "8",
                     "--seed", "1", "--out", "rv.csv"]) == 0
    rv = Dataset.load("rv.csv")
    assert len(rv) == 8 and rv.n_features == 5


def test_generate_with_noise_records_osnr(workdir, capsys):
    assert cli.main(["generate", "--scene", "small", "--per-axis", "4",
                     "--noise-factor", "0.5", "--seed", "2", "--out", "n.csv"]) == 0
    out = capsys.readouterr().out
    assert "OSNR" in out
    meta = json.loads(Path("n.meta.json").read_text())
    assert meta["noise_factor"] == 0.5
    assert np.isfinite(meta["mean_osnr_db"])


def test_generate_scene_file(workdir):
    scene = preset_scene("small", led_count=4)
    scene.save("room.json")
    assert cli.main(["generate", "--scene", "room.json", "--per-axis", "3",
                     "--out", "d.csv"]) == 0
    loaded = json.loads(Path("d.meta.json").read_text())
    assert len(loaded["scene"]["transmitters"]) == 4


def test_generate_usage_conflicts(workdir):
    base = ["generate", "--out", "x.csv"]
    assert cli.main(base + ["--per-axis", "3", "--variable",
                            "--per-xy", "2", "--per-z", "2", "--per-dim", "2"]) == 1
    assert cli.main(base + ["--reference", "5", "--per-axis", "3"]) == 1
    assert cli.main(base + ["--variable", "--per-xy", "2"]) == 1
    assert cli.main(base) == 1  # no size flags at all


def test_missing_out_is_usage_error(workdir, capsys):
    assert cli.main(["generate", "--scene", "small", "--per-axis", "3"]) == 1
    capsys.readouterr()


def test_unknown_preset_is_runtime_error(workdir):
    assert cli.main(["generate", "--scene", "warehouse", "--per-axis", "3",
                     "--out", "d.csv"]) == 2


# ---------------------------------------------------------------------------
# train / evaluate / predict
# ---------------------------------------------------------------------------

def test_train_logs_requested_epochs(trained):
    model = mlp.load_model(trained / "m.json")
    assert len(model.training_log) == 3
    assert model.config.batch_size == 16


def test_train_tree_kinds(workdir, trained):
    for extra, kind in ((["--xt-trees", "4"], "xt"),
                        (["--adaboost-estimators", "2", "--adaboost-base-trees", "2"], "adaboost"),
                        (["--max-depth", "3"], "dt")):
        out = f"{kind}.json"
        assert cli.main(["train", "--model", kind, "--data", str(trained / "d.csv"),
                         "--train-size", "80", "--seed", "2", "--out", out] + extra) == 0
        model = forest.load_forest(out)
        assert evalmap.model_label(model) == kind
    assert forest.load_forest("dt.json").params.max_depth == 3


def test_train_size_too_big_is_runtime_error(workdir, trained):
    assert cli.main(["train", "--model", "dt", "--data", str(trained / "d.csv"),
                     "--train-size", "100000", "--out", "m.json"]) == 2


def test_evaluate_writes_report(workdir, trained, capsys):
    assert cli.main(["evaluate", "--model", str(trained / "m.json"),
                     "--reference", str(trained / "ref.csv"), "--out", "report.json"]) == 0
    report = json.loads(Path("report.json").read_text())
    assert report["n_points"] == 25
    assert report["mae_dbm"] > 0
    assert "abs_error_summary" in report
    assert "MAE" in capsys.readouterr().out


def test_predict_matches_library(workdir, trained, capsys):
    rc = cli.main(["predict", "--model", str(trained / "m.json"),
                   "--at", "1.5,1.5,1.0", "--at", "0.5,2.0,0.25", "--out", "p.csv"])
    assert rc == 0
    model = mlp.load_model(trained / "m.json")
    expected = evalmap.predict_any(
        model, np.array([[1.5, 1.5, 1.0], [0.5, 2.0, 0.25]]))
    lines = Path("p.csv").read_text().splitlines()
    assert lines[0] == "x,y,z,prediction_dbm"
    got = [float(line.split(",")[-1]) for line in lines[1:]]
    assert got == list(expected)
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert printed == list(expected)


def test_predict_arity_mismatch_is_usage_error(workdir, trained):
    assert cli.main(["predict", "--model", str(trained / "m.json"),
                     "--at", "1.0,2.0", "--out", "p.csv"]) == 1
    assert cli.main(["predict", "--model", str(trained / "m.json"),
                     "--at", "a,b,c", "--out", "p.csv"]) == 1


# ---------------------------------------------------------------------------
# map / bench / campaign
# ---------------------------------------------------------------------------

def test_map_simulate_matches_library(workdir):
    assert cli.main(["map", "--simulate", "--scene", "small", "--z", "1.0",
                     "--spacing", "1.0", "--out", "map.csv", "--pgm", "map.pgm"]) == 0
    m = evalmap.simulate_map(preset_scene("small"), 1.0, 1.0)
    lines = Path("map.csv").read_text().splitlines()
    assert len(lines) == 2 + 9
    x, y, v = (float(t) for t in lines[2].split(","))
    assert (x, y) == (0.5, 0.5)
    assert v == m.values[0, 0]
    assert Path("map.pgm").read_text().startswith("P2\n3 3\n255\n")


def test_map_from_model(workdir, trained, capsys):
    assert cli.main(["map", "--model", str(trained / "m.json"), "--scene", "small",
                     "--z", "1.0", "--spacing", "1.5", "--out", "pm.csv"]) == 0
    assert "predicted:mlp32x128" in capsys.readouterr().out


def test_main_calls_in_a_row_share_no_values(workdir, trained):
    """One parser serves every call in a process; no flag value of one call
    reaches the next."""
    model = str(trained / "m.json")
    assert cli.main(["map", "--model", model, "--scene", "small", "--spacing", "1.5",
                     "--out", "a.csv", "--pgm", "a.pgm"]) == 0
    assert cli.main(["map", "--model", model, "--scene", "small", "--out", "b.csv"]) == 0
    assert cli.main(["predict", "--model", model, "--at", "1,1,1", "--at", "2,2,1",
                     "--out", "c.csv"]) == 0
    assert cli.main(["predict", "--model", model, "--at", "0.5,0.5,1", "--out", "d.csv"]) == 0
    resolved = {name: json.loads(Path(f"{name}.csv.run.meta.json").read_text())["resolved"]
                for name in "abcd"}
    assert (resolved["a"]["pgm"], resolved["a"]["spacing"]) == ("a.pgm", 1.5)
    assert (resolved["b"]["pgm"], resolved["b"]["spacing"]) == (None, 0.1)
    assert not Path("b.pgm").exists()
    assert resolved["c"]["at"] == ["1,1,1", "2,2,1"]
    assert resolved["d"]["at"] == ["0.5,0.5,1"]
    assert cli.build_parser() is cli.build_parser()


def test_map_from_malformed_forest_file_is_runtime_error(workdir, capsys):
    # the root splits on feature 3 of a 3-feature model
    doc = {"format_version": MODEL_FORMAT_VERSIONS["forest"], "kind": "forest",
           "mode": "extra_trees", "n_features": 3, "params": forest.TreeParams().to_dict(),
           "seed": 0, "trees_per_member": 1, "tree_weights": None,
           "trees": {"nodes": _encode_array(np.array([3], dtype="<i4")),
                     "feature": _encode_array(np.array([3, -1, -1], dtype="<i2")),
                     "threshold": _encode_array(np.array([0.5])),
                     "value": _encode_array(np.zeros(2))}}
    Path("bad.json").write_text(json.dumps(doc))
    assert cli.main(["map", "--model", "bad.json", "--out", "m.csv"]) == 2
    assert "bad.json is malformed: a split feature lies outside [0, 3)" in capsys.readouterr().err
    assert not Path("m.csv").exists()


@pytest.mark.parametrize("source", ["simulate", "model"])
@pytest.mark.parametrize("flags, message", [
    (["--spacing", "1e-09"], "spacing 1e-09 gives a 3000000000 x 3000000000 grid, "
                             "more than the 1,000,000 cells a map may hold"),
    (["--z", "50"], "map height z = 50.0 lies outside the 3.0 x 3.0 x 2.8 m room (0 <= z < 2.8)"),
    (["--z", "-0.1"], "map height z = -0.1 lies outside the 3.0 x 3.0 x 2.8 m room"),
])
def test_map_refuses_a_grid_too_fine_or_a_plane_outside_the_room(workdir, trained, capsys,
                                                                 source, flags, message):
    """Both map kinds, refused before any cell is allocated or computed."""
    src = ["--simulate"] if source == "simulate" else ["--model", str(trained / "m.json")]
    assert cli.main(["map", *src, "--scene", "small", *flags, "--out", "m.csv"]) == 2
    assert message in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


def test_map_requires_exactly_one_source(workdir, trained):
    assert cli.main(["map", "--scene", "small", "--out", "m.csv"]) == 1
    assert cli.main(["map", "--simulate", "--model", str(trained / "m.json"),
                     "--out", "m.csv"]) == 1


def test_bench_writes_timing_report(workdir, trained):
    assert cli.main(["bench", "--model-kind", "dt", "--data", str(trained / "d.csv"),
                     "--reps", "1", "--out", "bench.json"]) == 0
    report = json.loads(Path("bench.json").read_text())
    assert report["train_seconds"] > 0
    assert report["predict_us_per_sample"] > 0
    assert report["hardware_note"]
    assert report["n_predict"] == 10_000


def test_bench_rejects_small_prediction_count(workdir, trained):
    assert cli.main(["bench", "--model-kind", "dt", "--data", str(trained / "d.csv"),
                     "--reps", "1", "--n-predict", "10", "--out", "b.json"]) == 2


def test_campaign_runs_tiny_grid(workdir, capsys):
    spec = {
        "preset": "small", "models": ["dt"], "train_sizes": [60],
        "epochs": [1], "batch_sizes": [32], "noise_factors": [0.0],
        "repetitions": 2, "seed": 3, "pool_per_axis": 5, "reference_n": 15,
    }
    Path("spec.json").write_text(json.dumps(spec))
    assert cli.main(["campaign", "--spec", "spec.json", "--out", "camp"]) == 0
    rows = Path("camp/results.csv").read_text().splitlines()
    assert len(rows) == 1 + 2
    assert Path("camp/summary.csv").exists()
    assert Path("camp/run.meta.json").exists()


def test_campaign_rejects_unknown_field(workdir):
    Path("spec.json").write_text(json.dumps({"models": ["dt"], "mystery": 1}))
    assert cli.main(["campaign", "--spec", "spec.json", "--out", "camp"]) == 2


# ---------------------------------------------------------------------------
# hostile input files: exit 2 with the file named
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("header", ["rss_dbm,a,b,c", "rss_dbm,x,y", "rss_dbm,x,y,z,lx",
                                    "rss_dbm,y,x,z", "x,y,z,rss_dbm"])
def test_train_rejects_a_foreign_dataset_header(workdir, capsys, header):
    rows = "\n".join(",".join(str(-20.0 + i + j) for j in range(header.count(",") + 1))
                     for i in range(30))
    Path("bad.csv").write_text(f"{header}\n{rows}\n")
    assert cli.main(["train", "--model", "dt", "--data", "bad.csv", "--train-size", "20",
                     "--out", "m.json"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err and repr(header) in err
    assert not Path("m.json").exists()


@pytest.mark.parametrize("edit", [
    lambda meta: [meta],
    lambda meta: {**meta, "feature_names": ["x", "y", "z", "lx", "ly"]},
    lambda meta: {**meta, "n_rows": meta["n_rows"] + 1},
    lambda meta: {k: v for k, v in meta.items() if k != "n_rows"},
])
def test_train_rejects_a_sidecar_that_disagrees(workdir, capsys, edit):
    assert cli.main(["generate", "--scene", "small", "--per-axis", "3", "--out", "d.csv"]) == 0
    meta = json.loads(Path("d.meta.json").read_text())
    Path("d.meta.json").write_text(json.dumps(edit(meta)))
    assert cli.main(["train", "--model", "dt", "--data", "d.csv", "--train-size", "20",
                     "--out", "m.json"]) == 2
    assert "d.meta.json" in capsys.readouterr().err
    assert not Path("m.json").exists()


@pytest.mark.parametrize("model", ["dt", "mlp32x128", "xt"])
@pytest.mark.parametrize("bad_row", ["-20.0,1.0,abc,1.0", "-20.0,1.0,1.0,1.0,2.0",
                                     "-20.0,1.0,1.0", "nan,1.0,1.0,1.0", "-20.0,1.0,nan,1.0",
                                     None],
                         ids=["not-a-number", "too-many-values", "too-few-values", "nan-rss",
                              "nan-feature", "header-only"])
def test_train_rejects_a_bad_dataset_body(workdir, capsys, model, bad_row):
    rows = [f"{-20.0 - i},{i % 5}.0,{i % 3}.5,1.0" for i in range(30)]
    rows = [] if bad_row is None else rows[:15] + [bad_row] + rows[15:]
    Path("bad.csv").write_text("\n".join(["rss_dbm,x,y,z"] + rows) + "\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--model", model, "--data", "bad.csv", "--train-size", "20",
                         "--epochs", "1", "--out", "m.json"]) == 2
    err = capsys.readouterr().err
    assert "bad.csv" in err
    assert "usecols" not in err  # NumPy's advice names an option lumenrem does not have
    if bad_row is not None and bad_row.count(",") != 3:  # the line after the header and 15 rows
        assert f"line 17 has {bad_row.count(',') + 1} values, but the header has 4" in err
    assert [str(w.message) for w in caught] == []
    assert not Path("m.json").exists()


@pytest.mark.parametrize("raw", ["{not json", "[1, 2]", '"mid"'])
def test_scene_file_and_campaign_spec_must_be_json_objects(workdir, capsys, raw):
    Path("bad.json").write_text(raw)
    assert cli.main(["generate", "--scene", "bad.json", "--per-axis", "2", "--out", "d.csv"]) == 2
    assert cli.main(["campaign", "--spec", "bad.json", "--out", "camp"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all("bad.json" in line for line in err)
    assert not Path("d.csv").exists() and not Path("camp").exists()


def test_scene_file_with_an_infinite_room_side_is_refused_by_name(workdir, capsys):
    doc = preset_scene("mid").to_dict()
    doc["room"]["lx"] = float("inf")
    Path("room.json").write_text(json.dumps(doc))
    assert '"lx": Infinity' in Path("room.json").read_text()
    assert cli.main(["generate", "--scene", "room.json", "--reference", "2",
                     "--out", "d.csv"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "room.json" in err[0] and "lx must be finite" in err[0]
    assert not Path("d.csv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda d: d["transmitters"][0].update(power_mw="1000"),
     "Transmitter power_mw must be a real number, got '1000'"),
    (lambda d: d["room"].update(lx=10**400),
     "Room lx must be finite, got an int too large for a float"),
    (lambda d: d["room"].update(lx=True), "Room lx must be a real number, got True"),
    (lambda d: d["receiver"].update(area_m2=None), "Receiver area_m2 must be a real number, got None"),
    (lambda d: d.update(wall_reflectance="0.8"),
     "Scene wall_reflectance must be a real number, got '0.8'"),
    (lambda d: d["transmitters"][0].update(position=["1", 2, 3]),
     "Transmitter position must be a real number, got '1'"),
])
def test_a_scene_field_that_is_not_a_number_is_refused_by_name(workdir, capsys, edit, named):
    doc = preset_scene("mid").to_dict()
    edit(doc)
    Path("room.json").write_text(json.dumps(doc))
    assert cli.main(["generate", "--scene", "room.json", "--reference", "2",
                     "--out", "d.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: room.json: {named}"]
    assert not Path("d.csv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda d: d["transmitters"][0].update(hpa_deg=1e-9),
     "Transmitter hpa_deg must give a finite Lambertian order -ln 2 / ln cos(hpa_deg), "
     "got 1e-09"),
    (lambda d: d["receiver"].update(fov_deg=1e-300),
     "Receiver fov_deg must give a finite concentrator gain n^2 / sin^2(fov_deg) with "
     "refractive_index 1.5, got 1e-300"),
    (lambda d: d["receiver"].update(refractive_index=1e200),
     "Receiver refractive_index must give a finite concentrator gain n^2 / sin^2(fov_deg), "
     "got 1e+200"),
])
def test_a_scene_value_whose_channel_constant_is_not_finite_is_refused_by_name(
        workdir, capsys, edit, named):
    """These loaded once and then failed inside the channel with a bare
    'float division by zero' or '(34, 'Numerical result out of range')'."""
    doc = preset_scene("mid").to_dict()
    edit(doc)
    Path("s.json").write_text(json.dumps(doc))
    assert cli.main(["generate", "--scene", "s.json", "--reference", "2", "--out", "d.csv"]) == 2
    assert capsys.readouterr().err.splitlines() == [f"error: s.json: {named}"]
    assert not Path("d.csv").exists()


def _traced_main(argv):
    """Exit code and traced allocation peak of one in-process CLI run."""
    tracemalloc.start()
    try:
        code = cli.main(argv)
        return code, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("lx, argv, room", [
    (5.0, ["generate", "--reference", "1", "--patch-edge", "0.001", "--out", "d.csv"],
     "patch edge 0.001 m tiles the walls of the 5.0 x 5.0 x 3.0 m room with 60,000,000 patches"),
    (1e5, ["map", "--simulate", "--spacing", "1000", "--out", "d.csv"],
     "patch edge 0.2 m tiles the walls of the 100000.0 x 5.0 x 3.0 m room with 15,000,750 patches"),
])
def test_a_tiling_over_the_patch_bound_exits_2_before_allocating(workdir, capsys, lx, argv, room):
    doc = preset_scene("mid").to_dict()
    doc["room"]["lx"] = lx
    Path("room.json").write_text(json.dumps(doc))
    code, peak = _traced_main(argv + ["--scene", "room.json"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and room in err[0]
    assert peak < 4 * 2**20
    assert not Path("d.csv").exists()


def test_a_map_cell_that_gets_no_light_is_named(workdir, capsys):
    """At 2.9 m in the mid room the LED is outside the 85 deg FOV and the top
    patch row is seen edge-on: the first such cell is named."""
    assert cli.main(["map", "--simulate", "--scene", "mid", "--z", "2.9", "--out", "m.csv"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "no light reaches the receiver at (0.65, 0.65, 2.9)" in err[0]
    assert not Path("m.csv").exists()


@pytest.mark.parametrize("argv", [["generate", "--reference", "3"],
                                  ["map", "--simulate", "--spacing", "1"]])
def test_a_received_power_that_is_not_finite_is_named(workdir, capsys, argv):
    """A receiver area of 1e308 makes the received-power constant overflow,
    and an LED power of 1e-320 makes it underflow to 0: the scene file is
    refused when it loads, naming the file and the fields, before any
    position is simulated."""
    for where, field, value, constant in (("receiver", "area_m2", 1e308, "inf"),
                                          ("transmitters", "power_mw", 1e-320, "0.0")):
        doc = preset_scene("mid").to_dict()
        (doc["transmitters"][0] if where == "transmitters" else doc[where])[field] = value
        Path("huge.json").write_text(json.dumps(doc))
        assert cli.main(argv + ["--scene", "huge.json", "--out", "d.csv"]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "huge.json: transmitters[0] power_mw=" in err[0]
        assert f"{field}={value!r}" in err[0]
        assert ("received-power constant power_mw * (m + 1) * area_m2 * filter_gain * g"
                f" / (2 pi) of {constant}, which must be finite and positive") in err[0]
        assert not Path("d.csv").exists()


@pytest.mark.parametrize("argv", [["generate", "--reference", "3"],
                                  ["map", "--simulate", "--spacing", "1"]])
def test_a_filter_gain_above_one_in_a_scene_file_is_named(workdir, capsys, argv):
    """A filter gain of 1e308 keeps the received-power constant finite, and
    would give RSS near 3,000 dBm: the scene file is refused when it loads,
    naming the file and the field, and nothing is written."""
    doc = preset_scene("mid").to_dict()
    doc["receiver"]["filter_gain"] = 1e308
    Path("bright.json").write_text(json.dumps(doc))
    assert cli.main(argv + ["--scene", "bright.json", "--out", "d.csv"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and "bright.json: filter_gain must be in (0, 1], got 1e+308" in err[0]
    assert not Path("d.csv").exists()


def test_a_received_power_that_overflows_at_a_position_is_named():
    """A scene built in Python is not checked as a file is: a receiver area
    of 1e308 overflows the power at the first position, which is named, not
    only the non-finite result, by the generators and the simulated map."""
    scene = replace(preset_scene("mid"), receiver=Receiver(area_m2=1e308))
    for make in (lambda: generate_reference(scene, 3),
                 lambda: evalmap.simulate_map(scene, 1.0, 1.0)):
        with pytest.raises(ValueError, match=r"^the received power is not finite at "
                                             r"\([-\d.e]+, [-\d.e]+, [-\d.e]+\): a scene value"):
            make()


@pytest.mark.parametrize("argv, message", [
    (["generate", "--per-axis", "3000"], "per_axis=3000: 27,000,000,000 rows"),
    (["generate", "--variable", "--per-xy", "1000", "--per-z", "1000", "--per-dim", "1000"],
     "per_xy=1000, per_z=1000 and per_dim=1000: 1,000,000,000,000,000 rows"),
    (["generate", "--reference", "100000000"], "n=100000000: 100,000,000 rows"),
])
def test_a_dataset_over_the_row_bound_exits_2_before_allocating(workdir, capsys, argv, message):
    code, peak = _traced_main(argv + ["--out", "d.csv"])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and f"{message}, more than the 1,000,000 a dataset may hold" in err[0]
    assert peak < 4 * 2**20
    assert not Path("d.csv").exists()


@pytest.mark.parametrize("argv, flag", [
    (["generate", "--per-axis", "2", "--noise-factor", "nan"], "--noise-factor"),
    (["generate", "--per-axis", "2", "--patch-edge", "inf"], "--patch-edge"),
    (["train", "--data", "d.csv", "--noise-factor=-inf"], "--noise-factor"),
    (["map", "--simulate", "--scene", "small", "--z", "nan"], "--z"),
    (["map", "--simulate", "--scene", "small", "--spacing", "nan"], "--spacing"),
    (["map", "--simulate", "--scene", "small", "--spacing", "inf"], "--spacing"),
    (["map", "--simulate", "--scene", "small", "--patch-edge", "nan"], "--patch-edge"),
])
def test_float_flags_refuse_non_finite_values(workdir, capsys, argv, flag):
    assert cli.main(argv + ["--out", "o.csv"]) == 1
    assert f"argument {flag}: not a finite number" in capsys.readouterr().err
    assert list(workdir.iterdir()) == []


@pytest.mark.parametrize("kind", ["mlp32x128", "dt"])
@pytest.mark.parametrize("at", ["nan,1,1", "1,inf,1", "1,1,-inf"])
def test_predict_refuses_non_finite_rows(workdir, trained, capsys, kind, at):
    model = str(trained / "m.json")
    if kind == "dt":
        model = "dt.json"
        assert cli.main(["train", "--model", "dt", "--data", str(trained / "d.csv"),
                         "--train-size", "100", "--out", model]) == 0
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["predict", "--model", model, "--at", at, "--out", "p.csv"]) == 1
    assert f"--at {at!r} holds a value that is not finite" in capsys.readouterr().err
    assert [str(w.message) for w in caught] == []
    assert not Path("p.csv").exists()


@pytest.mark.parametrize("argv, output", [
    (["predict", "--at", "1,1,1", "--out", "o.csv"], "o.csv"),
    (["map", "--scene", "small", "--spacing", "1.0", "--out", "o.csv", "--pgm", "o.pgm"],
     "o.csv"),
    (["evaluate", "--reference", "REF", "--out", "o.json"], "o.json"),
])
def test_a_model_that_predicts_a_non_finite_value_is_named(workdir, trained, capsys, argv,
                                                          output):
    """Every weight times 1e300 overflows the MLP's second layer: each
    command exits 2 naming the model file, writes nothing, and lets no NumPy
    warning out."""
    model = mlp.load_model(trained / "m.json")
    mlp.save_model(mlp.MlpModel(config=model.config, weights=[w * 1e300 for w in model.weights],
                                biases=model.biases, norm=model.norm), "huge.json")
    argv = [str(trained / "ref.csv") if a == "REF" else a for a in argv]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main([argv[0], "--model", "huge.json", *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert re.search(r"huge\.json: the mlp32x128 model predicts (nan|inf|-inf) at \(", err), err
    assert [str(w.message) for w in caught] == []
    assert sorted(p.name for p in workdir.iterdir()) == ["huge.json"]


@pytest.mark.parametrize("argv, error", [
    (["generate", "--scene", "s.json", "--reference", "2", "--out", "o.csv"],
     r"error: s\.json: Receiver fov_deg must give a finite concentrator gain"),
    (["evaluate", "--model", "bad.json", "--reference", "REF", "--out", "o.json"],
     r"error: bad\.json is not a JSON file"),
    (["map", "--model", "huge.json", "--scene", "small", "--spacing", "1.0", "--out", "o.csv"],
     r"error: huge\.json: the mlp32x128 model predicts (nan|inf|-inf) at \("),
], ids=["generate-hostile-scene", "evaluate-malformed-model", "map-non-finite-model"])
def test_only_a_run_that_succeeds_leaves_a_record(workdir, trained, capsys, argv, error):
    """A command that fails exits 2 with its message and writes no output and
    no run.meta.json: the record is written once, after the command's work."""
    doc = preset_scene("mid").to_dict()
    doc["receiver"]["fov_deg"] = 1e-300
    Path("s.json").write_text(json.dumps(doc))
    Path("bad.json").write_text("{not json")
    model = mlp.load_model(trained / "m.json")
    mlp.save_model(mlp.MlpModel(config=model.config, weights=[w * 1e300 for w in model.weights],
                                biases=model.biases, norm=model.norm), "huge.json")
    argv = [str(trained / "ref.csv") if a == "REF" else a for a in argv]
    assert cli.main(argv) == 2
    assert re.match(error, capsys.readouterr().err)
    assert not list(workdir.glob("*.run.meta.json"))
    assert sorted(p.name for p in workdir.iterdir()) == ["bad.json", "huge.json", "s.json"]


@pytest.mark.parametrize("edit, message", [
    ({"repetitions": 1.5}, "CampaignSpec repetitions must be an int, got 1.5"),
    ({"train_sizes": [20.0]}, "CampaignSpec train_sizes must be an int, got 20.0"),
    ({"noise_factors": [float("nan")]}, "CampaignSpec noise_factors must be finite, got nan"),
    ({"noise_factors": ["a"]}, "CampaignSpec noise_factors must be a real number, got 'a'"),
    ({"noise_factors": [True]}, "CampaignSpec noise_factors must be a real number, got True"),
    ({"models": "dt"}, "CampaignSpec models must be a list, got 'dt'"),
    ({"train_sizes": 60}, "CampaignSpec train_sizes must be a list, got 60"),
    ({"epochs": []}, "campaign epochs must be a non-empty list, got []"),
    ({"patch_edge_m": 10**400},
     "CampaignSpec patch_edge_m must be finite, got an int too large for a float"),
    ({"noise_factors": [10**400]},
     "CampaignSpec noise_factors must be finite, got an int too large for a float"),
    ({"preset": "huge"}, "unknown preset 'huge'; expected one of ['big', 'mid', 'small']"),
    ({"led_count": 2}, "led_count must be 1 or 4, got 2"),
    ({"preset": "small", "patch_edge_m": 2.9},
     "patch edge must be in (0, min room extent], got 2.9"),
], ids=[  # the first eight keep the ids they had when CampaignSpec worded its own refusals
    "edit0-campaign repetitions takes ints only, got 1.5",
    r"edit1-campaign train_sizes takes ints only, got \(20.0,\)",
    "edit2-campaign noise_factors takes finite numbers only",
    r"edit3-campaign noise_factors takes finite numbers only, got \('a',\)",
    "edit4-campaign noise_factors takes finite numbers only",
    "edit5-campaign models must be a non-empty list, got 'dt'",
    "edit6-campaign train_sizes must be a non-empty list, got 60",
    r"edit7-campaign epochs must be a non-empty list, got \[\]",
    "huge-int-patch-edge", "huge-int-noise-factor",
    "unknown-preset", "led-count-2", "patch-edge-over-the-room",
])
def test_campaign_spec_values_are_named(workdir, capsys, edit, message):
    Path("spec.json").write_text(json.dumps({"models": ["dt"], **edit}))
    assert cli.main(["campaign", "--spec", "spec.json", "--out", "camp"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: spec.json: {message}"]
    assert not Path("camp").exists()


def test_predict_rejects_a_model_without_a_row_layout(workdir, capsys):
    x = np.random.default_rng(0).uniform(size=(20, 4))
    forest.save_forest(forest.fit_extra_trees(x, x.sum(axis=1), n_trees=2), "four.json")
    assert cli.main(["predict", "--model", "four.json", "--at", "1,2,3,4", "--out", "p.csv"]) == 2
    assert "four.json holds a 4-feature model" in capsys.readouterr().err
    assert not Path("p.csv").exists()


# ---------------------------------------------------------------------------
# replay and plumbing
# ---------------------------------------------------------------------------

def _replay_and_compare(monkeypatch, tmp_path, first_argv, stage=()):
    """Run a command in one directory, replay it from run.meta.json in a
    second one, and require byte-identical outputs (meta included)."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    monkeypatch.chdir(a)
    assert cli.main(list(first_argv)) == 0
    metas = list(a.glob("**/run.meta.json")) + list(a.glob("*.run.meta.json"))
    assert len(metas) == 1
    meta = json.loads(metas[0].read_text())
    for name in stage:
        shutil.copy(a / name, b / name)
    monkeypatch.chdir(b)
    assert cli.main(cli.argv_from_meta(meta)) == 0
    for out in meta["outputs"] + [str(metas[0].relative_to(a))]:
        assert (b / out).read_bytes() == (a / out).read_bytes(), out


def test_replay_generate(monkeypatch, tmp_path):
    _replay_and_compare(monkeypatch, tmp_path,
                        ["generate", "--scene", "small", "--per-axis", "4",
                         "--noise-factor", "0.3", "--seed", "11", "--out", "d.csv"])


def test_replay_map(monkeypatch, tmp_path):
    _replay_and_compare(monkeypatch, tmp_path,
                        ["map", "--simulate", "--scene", "small", "--z", "0.75",
                         "--spacing", "0.8", "--out", "map.csv", "--pgm", "map.pgm"])


def test_replay_train(monkeypatch, tmp_path, trained):
    _replay_and_compare(monkeypatch, tmp_path,
                        ["train", "--model", "xt", "--xt-trees", "4",
                         "--data", str(trained / "d.csv"), "--train-size", "60",
                         "--seed", "4", "--out", "model.json"])


def test_help_and_version_exit_zero(capsys):
    assert cli.main(["--help"]) == 0
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "lumenrem" in out


def test_no_subcommand_is_usage_error(capsys):
    assert cli.main([]) == 1
    capsys.readouterr()


def test_console_script_installed():
    exe = shutil.which("lumenrem")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "--version"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "lumenrem" in proc.stdout


def test_argv_round_trip_through_parser():
    meta = {
        "subcommand": "generate",
        "resolved": {
            "scene": "mid", "leds": 4, "per_axis": None, "variable": True,
            "per_xy": 3, "per_z": 2, "per_dim": 2, "reference": None,
            "noise_factor": 0.25, "patch_edge": 0.2, "seed": 9, "out": "d.csv",
        },
    }
    argv = cli.argv_from_meta(meta, out="other.csv")
    args = cli.build_parser().parse_args(argv)
    assert args.variable is True
    assert args.per_axis is None
    assert args.noise_factor == 0.25
    assert args.out == "other.csv"
