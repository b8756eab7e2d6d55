"""Records as JSON documents: round trips, strict keys, the one JSON reader
and writer, the one CSV writer and the files written through them, and forest
predictions that do not depend on the batch a row sits in."""

import base64
import contextlib
import copy
import dataclasses
import functools
import io
import json
import math
import operator
import os
import re
import tempfile
import tracemalloc
import typing
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumenrem import cli, evalmap, forest, mlp
from lumenrem._doc import _field_types, from_doc, read_json, to_doc, write_csv, write_json
from lumenrem.dataset import Dataset, NormStats
from lumenrem.scene import Receiver, Scene, preset_scene, variable_scene

finite = st.floats(-1e6, 1e6, allow_nan=False)
positive = st.floats(1e-6, 1e3)

mlp_configs = st.builds(
    mlp.MlpConfig,
    input_dim=st.integers(1, 8),
    hidden=st.lists(st.integers(1, 256), min_size=1, max_size=3).map(tuple),
    learning_rate=positive,
    beta1=st.floats(0.0, 0.999),
    beta2=st.floats(0.0, 0.999),
    epsilon=positive,
    epochs=st.integers(0, 5000),
    batch_size=st.integers(1, 1024),
    seed=st.integers(0, 2**63 - 1),
)

tree_params = st.builds(
    forest.TreeParams,
    max_depth=st.none() | st.integers(1, 64),
    min_samples_split=st.integers(2, 100),
    min_samples_leaf=st.integers(1, 100),
)


@st.composite
def norm_stats(draw):
    k = draw(st.integers(1, 5))
    means, stds = (st.lists(s, min_size=k, max_size=k) for s in (finite, positive))
    return NormStats(feature_mean=np.array(draw(means)), feature_std=np.array(draw(stds)),
                     target_mean=draw(finite), target_std=draw(positive))


@st.composite
def scenes(draw):
    sc = variable_scene(draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0)),
                        draw(st.sampled_from((1, 4))))
    rx = Receiver(area_m2=draw(positive), fov_deg=draw(st.floats(1.0, 90.0)),
                  refractive_index=draw(st.floats(1.0, 3.0)))
    return replace(sc, receiver=rx, wall_reflectance=draw(st.floats(0.0, 1.0)))


records = st.one_of(mlp_configs, tree_params, norm_stats(), scenes())


def _same(a, b) -> bool:
    """Record equality; NormStats holds arrays, which `==` cannot compare."""
    if not isinstance(a, NormStats):
        return a == b
    arrays = [(getattr(a, f), getattr(b, f)) for f in ("feature_mean", "feature_std")]
    return (type(b) is NormStats
            and all(np.array_equal(x, y) and y.dtype == np.float64 for x, y in arrays)
            and (a.target_mean, a.target_std) == (b.target_mean, b.target_std))


@given(records)
def test_round_trip_through_json(record):
    doc = to_doc(record)
    back = from_doc(type(record), json.loads(json.dumps(doc)))
    assert _same(back, record)
    assert to_doc(back) == doc


def _key_paths(doc, prefix=()):
    """Every (path to a dict, key) in a document, nested records included."""
    for key, value in doc.items():
        yield prefix, key
        if isinstance(value, dict):
            yield from _key_paths(value, prefix + (key,))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield from _key_paths(value[0], prefix + (key, 0))


def _at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


@given(records, st.data())
def test_missing_key_is_named(record, data):
    doc = json.loads(json.dumps(to_doc(record)))
    path, key = data.draw(st.sampled_from(list(_key_paths(doc))))
    del _at(doc, path)[key]
    with pytest.raises(ValueError, match=f"missing keys \\['{key}'\\]"):
        from_doc(type(record), doc)


@given(records, st.data())
def test_unknown_key_is_named(record, data):
    doc = json.loads(json.dumps(to_doc(record)))
    path, _ = data.draw(st.sampled_from(list(_key_paths(doc))))
    _at(doc, path)["surplus"] = 1
    with pytest.raises(ValueError, match="unknown keys \\['surplus'\\]"):
        from_doc(type(record), doc)


def test_defaults_are_not_filled_in():
    """A Receiver or TreeParams field left out is an error, not a default."""
    doc = to_doc(variable_scene(4.0, 5.0))
    del doc["receiver"]["responsivity"]
    with pytest.raises(ValueError, match=r"Receiver document has missing keys \['responsivity'\]"):
        Scene.from_dict(doc)
    with pytest.raises(ValueError, match=r"TreeParams document has missing keys \['max_depth'\]"):
        forest.TreeParams.from_dict({"min_samples_split": 2, "min_samples_leaf": 1})


def test_not_an_object_is_rejected():
    with pytest.raises(ValueError, match="a Room document must be an object"):
        Scene.from_dict({**to_doc(variable_scene(4.0, 5.0)), "room": [4.0, 5.0, 3.0]})
    with pytest.raises(ValueError, match="a CampaignSpec document must be an object"):
        evalmap.CampaignSpec.from_dict(["dt"])


def test_campaign_spec_keeps_its_defaults():
    """Spec files are written by hand: absent keys take the defaults."""
    spec = evalmap.CampaignSpec.from_dict({"models": ["dt"]})
    assert spec == evalmap.CampaignSpec(models=("dt",))
    with pytest.raises(ValueError, match=r"unknown keys \['mystery'\]"):
        evalmap.CampaignSpec.from_dict({"mystery": 1})


def test_write_json_format(tmp_path):
    p = tmp_path / "d.json"
    write_json(p, {"b": (1, 2.5), "a": None})
    assert p.read_text() == '{"a": null, "b": [1, 2.5]}\n'
    write_json(p, {"b": 1, "a": [2]}, indent=2)
    assert p.read_text() == '{\n  "a": [\n    2\n  ],\n  "b": 1\n}\n'


def test_read_json_names_the_file(tmp_path):
    p = tmp_path / "d.json"
    p.write_text('{"threshold": NaN, "x": [1]}')
    doc = read_json(p)
    assert np.isnan(doc["threshold"]) and doc["x"] == [1]
    # an integer of more digits than Python converts from a string included
    for raw in (b"{not json", b"[1, 2]", b"null", b'"text"', b"\xff\xfe{}",
                b'{"seed": 1' + b"0" * 5000 + b"}"):
        p.write_bytes(raw)
        with pytest.raises(ValueError, match="d.json"):
            read_json(p)


def test_write_csv_cell_rule(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ("a", "b", "c", "d", "e"),
              [[None, 0.1, np.float64(-1e-05), np.float32(0.1), 3],
               ("name", 2.0, np.int64(7), float("inf"), True)])
    assert p.read_text() == ("a,b,c,d,e\n"
                             ",0.1,-1e-05,0.10000000149011612,3\n"
                             "name,2.0,7,inf,True\n")
    write_csv(p, ("x",), [])
    assert p.read_text() == "x\n"


def test_dataset_save_exact_bytes(tmp_path):
    ds = Dataset(feature_names=("x", "y", "z"),
                 features=[[0.1, 2.0, 1.7], [3.0, 0.0, 1.0 / 3.0]],
                 rss_dbm=[-20.5, -1e-05], meta={"seed": 7, "generator": "fixed"})
    paths = ds.save(tmp_path / "ds.csv")
    assert paths == (tmp_path / "ds.csv", tmp_path / "ds.meta.json")
    assert paths[0].read_bytes() == (b"rss_dbm,x,y,z\n"
                                     b"-20.5,0.1,2.0,1.7\n"
                                     b"-1e-05,3.0,0.0,0.3333333333333333\n")
    assert paths[1].read_bytes() == (b'{\n  "feature_names": [\n    "x",\n    "y",\n    "z"\n  ],\n'
                                     b'  "generator": "fixed",\n  "n_rows": 2,\n  "seed": 7\n}\n')


def test_campaign_results_exact_bytes(tmp_path):
    cells = {"model": "xt", "train_size": 60, "epochs": 250, "batch_size": 128}
    rows = [{**cells, "noise_factor": 0, "rep": 0, "seed": 2691845202, "mae_dbm": 0.5,
             "mape_percent": 4.125, "mean_osnr_db": None},
            {**cells, "noise_factor": 0.1, "rep": 1, "seed": 17, "mae_dbm": 0.75,
             "mape_percent": None, "mean_osnr_db": 21.5}]
    result = evalmap.CampaignResult(spec=evalmap.CampaignSpec(), rows=rows, summaries=[])
    rows_path, summary_path = result.write_csv(tmp_path / "camp")
    assert rows_path.read_bytes() == (
        b"model,train_size,epochs,batch_size,noise_factor,rep,seed,mae_dbm,mape_percent,"
        b"mean_osnr_db\n"
        b"xt,60,250,128,0,0,2691845202,0.5,4.125,\n"
        b"xt,60,250,128,0.1,1,17,0.75,,21.5\n")
    assert summary_path.read_text().splitlines() == [",".join(result._SUMMARY_COLS)]


# ---------------------------------------------------------------------------
# Through the CLI
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    d = tmp_path_factory.mktemp("doc")
    assert cli.main(["generate", "--scene", "small", "--per-axis", "4", "--seed", "1",
                     "--out", str(d / "d.csv")]) == 0
    assert cli.main(["train", "--model", "dt", "--data", str(d / "d.csv"),
                     "--train-size", "40", "--out", str(d / "m.json")]) == 0
    return d / "m.json"


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc.update(surplus=1), "unknown keys ['surplus']"),
    (lambda doc: doc["params"].pop("max_depth"), "missing keys ['max_depth']"),
    (lambda doc: doc["trees"].update(extra=[]), "unknown keys ['extra']"),
])
def test_cli_map_rejects_a_model_file_with_bad_keys(monkeypatch, tmp_path, capsys, model_file,
                                                     edit, named):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(model_file.read_text())
    edit(doc)
    Path("bad.json").write_text(json.dumps(doc))
    assert cli.main(["map", "--model", "bad.json", "--scene", "small", "--out", "m.csv"]) == 2
    err = capsys.readouterr().err
    assert "bad.json is malformed" in err and named in err
    assert not Path("m.csv").exists()


@pytest.mark.parametrize("edit, named", [
    (lambda doc: doc["receiver"].pop("fov_deg"), "missing keys ['fov_deg']"),
    (lambda doc: doc["transmitters"][0].update(colour="warm"), "unknown keys ['colour']"),
    (lambda doc: doc.pop("wall_reflectance"), "missing keys ['wall_reflectance']"),
])
def test_cli_generate_rejects_a_scene_file_with_bad_keys(monkeypatch, tmp_path, capsys,
                                                          edit, named):
    monkeypatch.chdir(tmp_path)
    doc = to_doc(variable_scene(4.0, 5.0))
    edit(doc)
    Path("scene.json").write_text(json.dumps(doc))
    assert cli.main(["generate", "--scene", "scene.json", "--per-axis", "2",
                     "--out", "d.csv"]) == 2
    assert named in capsys.readouterr().err
    assert not Path("d.csv").exists()


# ---------------------------------------------------------------------------
# Model files: each array as its dtype, shape and base64 bytes
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def saved_models(tmp_path_factory):
    """A directory holding a saved 2-tree Extra Trees forest and a saved MLP."""
    d = tmp_path_factory.mktemp("codec")
    X = np.random.default_rng(3).uniform(0.0, 3.0, (40, 3))
    forest.save_forest(forest.fit_extra_trees(X, X[:, 0] - X[:, 1], n_trees=2, seed=3),
                       d / "f.json")
    mlp.save_model(mlp.init(mlp.MlpConfig(input_dim=3, hidden=(4,))), d / "m.json")
    return d


def test_model_file_arrays_are_little_endian_base64(saved_models, tmp_path):
    """Decoding an array field by hand gives the model's array, and saving a
    loaded model again gives the same bytes. A forest stores all its trees'
    node counts, features, split thresholds and leaf values, one array each."""
    f = forest.load_forest(saved_models / "f.json")
    doc = json.loads((saved_models / "f.json").read_text())["trees"]
    feature = np.concatenate([t.feature for t in f.trees])
    split = feature >= 0
    for name, dtype, want in (
            ("nodes", "<i4", [t.n_nodes for t in f.trees]),
            ("feature", "<i2", feature),
            ("threshold", "<f8", np.concatenate([t.threshold for t in f.trees])[split]),
            ("value", "<f8", np.concatenate([t.value for t in f.trees])[~split])):
        a = doc[name]
        assert (a["dtype"], a["shape"]) == (dtype, [len(want)])
        assert base64.b64decode(a["base64"]) == np.asarray(want).astype(dtype).tobytes()
    m = mlp.load_model(saved_models / "m.json")
    w = json.loads((saved_models / "m.json").read_text())["weights"][0]
    assert (w["dtype"], w["shape"]) == ("<f8", [3, 4])
    assert base64.b64decode(w["base64"]) == m.weights[0].astype("<f8").tobytes()
    for name, save, load in (("f.json", forest.save_forest, forest.load_forest),
                             ("m.json", mlp.save_model, mlp.load_model)):
        save(load(saved_models / name), tmp_path / name)
        assert (tmp_path / name).read_bytes() == (saved_models / name).read_bytes()


def _array_object(dtype, shape, data: bytes):
    return {"dtype": dtype, "shape": shape, "base64": base64.b64encode(data).decode("ascii")}


_THREE = np.array([0.5, 1.5, -2.0]).tobytes()


@pytest.mark.parametrize("array, message", [
    ({**_array_object("<f8", [1], bytes(8)), "base64": "AAAAAA*AAAAA="}, "is not valid base64"),
    ({**_array_object("<f8", [1], bytes(8)), "base64": "AAAAAAAAAAA"}, "is not valid base64"),
    (_array_object("<f8", [1], bytes(7)), "holds 7 bytes, not a whole number of 8-byte items"),
    (_array_object("<f8", [4], _THREE), "declares shape [4], but holds 3 items"),
    (_array_object("<f8", [10**7], _THREE), "declares shape [10000000], but holds 3 items"),
    (_array_object("<f8", [2**40, 2**40], _THREE),
     "declares shape [1099511627776, 1099511627776], but holds 3 items"),
    (_array_object("<f8", [-3], _THREE), "has shape [-3], not a list of counts"),
    (_array_object("<f4", [6], _THREE), "has dtype '<f4', not its field's '<f8'"),
    ([0.5, 1.5, -2.0], "is not an array object with keys base64, dtype and shape"),
], ids=["bad-alphabet", "bad-padding", "ragged-bytes", "short-shape", "large-shape",
        "huge-shape", "negative-shape", "float32", "list-of-numbers"])
@pytest.mark.parametrize("name, path, field", [
    ("f.json", ("trees", "threshold"), "Trees.threshold"),
    ("m.json", ("weights", 0), "MlpModel.weights[0]"),
], ids=["forest", "mlp"])
def test_hostile_array_objects_are_refused(saved_models, monkeypatch, tmp_path, capsys,
                                           array, message, name, path, field):
    """Refused naming the file and the field, before anything the size of a
    declared shape is allocated; the CLI exits 2."""
    monkeypatch.chdir(tmp_path)
    doc = json.loads((saved_models / name).read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = array
    Path("bad.json").write_text(json.dumps(doc))
    expected = re.escape(f"bad.json is malformed: {field} {message}")
    tracemalloc.start()
    try:
        with pytest.raises(mlp.ModelFormatError, match=expected):
            evalmap.load_any_model("bad.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cli.main(["predict", "--model", "bad.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert re.search(expected, capsys.readouterr().err)
    assert not Path("p.csv").exists()


@pytest.mark.parametrize("name, path, field, array, message", [
    ("f.json", ("trees", "feature"), "Trees.feature",
     _array_object("<f8", [5], np.array([0.7, 0.7, -1.0, -1.0, -1.0]).tobytes()),
     "has dtype '<f8', not its field's '<i2'"),
    ("f.json", ("trees", "threshold"), "Trees.threshold",
     _array_object("<i4", [3], np.array([1, 2, 3], dtype="<i4").tobytes()),
     "has dtype '<i4', not its field's '<f8'"),
    ("m.json", ("biases", 0), "MlpModel.biases[0]",
     _array_object("<i4", [4], np.zeros(4, dtype="<i4").tobytes()),
     "has dtype '<i4', not its field's '<f8'"),
], ids=["float-features", "int-thresholds", "int-biases"])
def test_a_model_array_of_another_dtype_is_refused(saved_models, monkeypatch, tmp_path, capsys,
                                                   name, path, field, array, message):
    """An array of an allowed dtype that is not its field's is refused, not
    cast: float split features [0.7, 0.7, -1, ...] would load as feature 0."""
    monkeypatch.chdir(tmp_path)
    doc = json.loads((saved_models / name).read_text())
    node = doc
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = array
    Path("bad.json").write_text(json.dumps(doc))
    expected = re.escape(f"bad.json is malformed: {field} {message}")
    with pytest.raises(mlp.ModelFormatError, match=expected):
        evalmap.load_any_model("bad.json")
    assert cli.main(["predict", "--model", "bad.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert re.search(expected, capsys.readouterr().err)
    assert not Path("p.csv").exists()


def test_a_version_1_file_is_refused(monkeypatch, tmp_path, capsys):
    """The layout written before arrays were stored as bytes: lists of numbers
    under format version 1."""
    monkeypatch.chdir(tmp_path)
    nan = float("nan")
    doc = {"format_version": 1, "kind": "forest", "mode": "extra_trees", "n_features": 3,
           "params": forest.TreeParams().to_dict(), "seed": 0, "trees_per_member": 1,
           "tree_weights": None, "trees": [{"feature": [0, -1, -1], "threshold": [0.5, nan, nan],
                                            "value": [0.0, -1.0, 1.0]}]}
    Path("old.json").write_text(json.dumps(doc))
    message = "old.json has format version 1, expected 3"
    with pytest.raises(mlp.ModelVersionError, match=message):
        forest.load_forest("old.json")
    assert cli.main(["predict", "--model", "old.json", "--at", "1,1,1", "--out", "p.csv"]) == 2
    assert message in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Scalar fields: each one's type hint is its rule, in every file a command reads
# ---------------------------------------------------------------------------

def _scalar_fields(cls, doc, path=()):
    """(path, record, field, hint, optional) of every int, float and str
    field in a record's document, its nested records' included: the hint is
    X of `X | None` (then `optional`), and a tuple field's path ends at its
    first item, whose hint it is."""
    for name, hint in _field_types(cls).items():
        at, value, args = (*path, name), doc[name], typing.get_args(hint)
        if typing.get_origin(hint) is tuple:
            at, value = (*at, 0), value[0]
        optional, hint = type(None) in args, (args or (hint,))[0]
        if dataclasses.is_dataclass(hint) and value is not None:
            yield from _scalar_fields(hint, value, at)
        elif hint in (int, float, str):
            yield at, cls, name, hint, optional


# for each hint, values it refuses: never a valid one, as a valid seed of
# 10**400 would run a whole campaign
_REFUSED = {
    int: st.floats() | st.booleans() | st.none() | st.text(max_size=3),
    float: st.booleans() | st.none() | st.text(max_size=3)
    | st.sampled_from([math.nan, math.inf, -math.inf, 10**400, -10**400]),
    str: st.integers() | st.none(),
}


@pytest.fixture(scope="module")
def readable_files(tmp_path_factory):
    """For each file a command reads: its record class, a valid document and
    the command's arguments around the file and output paths."""
    d = tmp_path_factory.mktemp("scalars")
    X = np.random.default_rng(5).uniform(0.0, 3.0, (40, 3))
    y = X[:, 0] - X[:, 1]
    model = mlp.init(mlp.MlpConfig(input_dim=3, hidden=(4,)))
    model.norm = NormStats(np.zeros(3), np.ones(3), -20.0, 3.0)
    mlp.save_model(model, d / "mlp.json")
    forest.save_forest(forest.fit_extra_trees(X, y, n_trees=2, seed=5), d / "xt.json")
    forest.save_forest(forest.fit_adaboost_r2(X, y, n_estimators=2, base_n_trees=1, seed=5),
                       d / "adaboost.json")
    predict = ["predict", "--model", "{in}", "--at", "1,1,0.5", "--out", "{out}"]
    return {
        "scene": (Scene, preset_scene("mid").to_dict(),
                  ["generate", "--scene", "{in}", "--reference", "2", "--out", "{out}"]),
        "campaign": (evalmap.CampaignSpec, evalmap.CampaignSpec.from_dict({"models": ["dt"]})
                     .to_dict(), ["campaign", "--spec", "{in}", "--out", "{out}"]),
        **{kind: (cls, json.loads((d / f"{kind}.json").read_text()), predict)
           for kind, cls in (("mlp", mlp.MlpModel), ("xt", forest.Forest),
                             ("adaboost", forest.Forest))},
    }


def test_every_kind_of_file_has_scalar_fields(readable_files):
    named = {f"{cls.__name__} {name}" for cls, doc, _ in readable_files.values()
             for _, cls, name, *_ in _scalar_fields(cls, doc)}
    assert {"Transmitter position", "Receiver responsivity", "CampaignSpec models",
            "MlpConfig hidden", "NormStats target_std", "Forest mode",
            "TreeParams max_depth"} <= named


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_scalar_its_type_hint_refuses_is_named(readable_files, data):
    """Any int, float or str field of any file, set to a value its type hint
    refuses: the command exits 2 with one line naming the file, the record
    and the field, writes nothing and lets no warning escape."""
    cls, doc, command = readable_files[data.draw(st.sampled_from(sorted(readable_files)))]
    path, owner, name, hint, optional = data.draw(st.sampled_from(list(_scalar_fields(cls, doc))))
    refused = _REFUSED[hint].filter(lambda v: v is not None) if optional else _REFUSED[hint]
    doc = copy.deepcopy(doc)
    node = functools.reduce(operator.getitem, path[:-1], doc)
    node[path[-1]] = data.draw(refused, label=f"{owner.__name__} {name}")
    with tempfile.TemporaryDirectory() as d:
        src, out = Path(d, "in.json"), Path(d, "out")
        src.write_text(json.dumps(doc))
        argv = [a.format_map({"in": src, "out": out}) for a in command]
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stderr(io.StringIO()) as err, \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("always")
            assert cli.main(argv) == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and str(src) in lines[0]
        assert f"{owner.__name__} {name} must " in lines[0]
        assert os.listdir(d) == ["in.json"]
    assert not caught


# ---------------------------------------------------------------------------
# Forests: a row alone and inside a batch
# ---------------------------------------------------------------------------

@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(("xt", "adaboost")), trees=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1), batch=st.integers(2, 12), data=st.data())
def test_forest_single_row_equals_its_row_in_a_batch(kind, trees, seed, batch, data):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0.0, 4.0, (60, 3))
    y = X[:, 0] ** 2 - 2.0 * X[:, 1] + rng.normal(size=60)
    if kind == "xt":
        f = forest.fit_extra_trees(X, y, n_trees=trees, seed=seed)
    else:
        f = forest.fit_adaboost_r2(X, y, n_estimators=3, base_n_trees=trees, seed=seed)
    rows = rng.uniform(0.0, 4.0, (batch, 3))
    i = data.draw(st.integers(0, batch - 1))
    alone = np.float64(forest.predict_forest(f, rows[i]))
    assert alone.tobytes() == forest.predict_forest(f, rows)[i].tobytes()
