import json
import math
import re

import numpy as np
import pytest

from lumenrem import channel, dataset, evalmap, forest, mlp
from lumenrem.scene import preset_scene


@pytest.fixture(scope="module")
def small_scene():
    return preset_scene("small")


@pytest.fixture(scope="module")
def small_pool(small_scene):
    return dataset.generate_fixed(small_scene, 6, seed=11)  # 216 rows


@pytest.fixture(scope="module")
def constant_model(small_pool):
    # A depth-0 CART is a single leaf predicting the training mean: an exact,
    # hand-checkable oracle for everything that consumes a model.
    x, y = small_pool.features, small_pool.rss_dbm
    tree = forest.fit_cart(x, y, forest.TreeParams(max_depth=1, min_samples_split=10**9), seed=0)
    return forest.Forest(mode="single", trees=(tree,), n_features=3,
                         params=forest.TreeParams(), seed=0)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def test_mae_worked_example():
    assert evalmap.mae([-20.0, -18.0], [-20.5, -17.0]) == pytest.approx(0.75, abs=1e-12)


def test_mape_worked_example():
    assert evalmap.mape([90.0, 110.0], [100.0, 100.0]) == pytest.approx(10.0, abs=1e-12)


def test_mae_rejects_mismatch_and_empty():
    with pytest.raises(ValueError):
        evalmap.mae([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        evalmap.mae([], [])


def test_mape_rejects_zero_truth():
    with pytest.raises(ValueError):
        evalmap.mape([1.0], [0.0])


def test_distribution_summary_odd_sample():
    s = evalmap.DistributionSummary.from_values([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.median == 3.0
    assert s.q1 == 2.0 and s.q3 == 4.0
    assert s.vmin == 1.0 and s.vmax == 5.0
    assert s.sem == pytest.approx(math.sqrt(2.5) / math.sqrt(5), abs=1e-15)
    assert s.n == 5


def test_distribution_summary_single_value():
    s = evalmap.DistributionSummary.from_values([2.5])
    assert s.vmin == s.median == s.vmax == 2.5
    assert s.sem == 0.0 and s.n == 1


def test_distribution_summary_rejects_disorder():
    with pytest.raises(ValueError):
        evalmap.DistributionSummary(median=1.0, q1=2.0, q3=3.0, vmin=0.0, vmax=4.0, sem=0.1, n=3)


def test_eval_report_fields():
    r = evalmap.EvalReport.from_predictions([-20.0, -18.0], [-20.5, -17.0])
    assert r.mae_dbm == pytest.approx(0.75, abs=1e-12)
    assert r.n_points == 2
    assert np.allclose(r.abs_errors, [0.5, 1.0])
    assert r.mean_osnr_db is None
    d = r.to_dict()
    assert set(d) == {"mae_dbm", "mape_percent", "n_points", "mean_osnr_db", "abs_error_summary"}
    assert "abs_errors" in r.to_dict(include_errors=True)


def test_eval_report_mape_none_on_zero_truth():
    r = evalmap.EvalReport.from_predictions([1.0, 2.0], [0.0, 4.0])
    assert r.mape_percent is None
    assert r.mae_dbm == pytest.approx(1.5)


# ---------------------------------------------------------------------------
# Radio maps
# ---------------------------------------------------------------------------

def test_simulated_map_matches_pointwise_simulator(small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=0.7)
    assert m.source == "simulated"
    assert (m.nx, m.ny) == (5, 5)  # ceil(3 / 0.7)
    assert m.spacing == (pytest.approx(0.6), pytest.approx(0.6))
    for iy in (0, 2, 4):
        for ix in (0, 3):
            x = m.x_centers()[ix]
            y = m.y_centers()[iy]
            p = channel.received_power(small_scene, (x, y, 1.0)).total_mw
            assert m.values[iy, ix] == channel.rss_dbm(p)  # bitwise


def test_map_grid_covers_footprint(small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=0.5, spacing=0.7)
    assert m.nx * m.spacing[0] == pytest.approx(small_scene.room.lx, abs=1e-12)
    assert m.ny * m.spacing[1] == pytest.approx(small_scene.room.ly, abs=1e-12)


def test_map_peak_under_central_led():
    sc = preset_scene("mid")
    m = evalmap.simulate_map(sc, z_plane=1.0, spacing=0.5)
    _, _, cx, cy = m.peak_cell()
    assert abs(cx - 2.5) <= m.spacing[0] / 2 + 1e-9
    assert abs(cy - 2.5) <= m.spacing[1] / 2 + 1e-9


def test_map_rejects_bad_spacing(small_scene):
    with pytest.raises(ValueError):
        evalmap.simulate_map(small_scene, 1.0, 0.0)


@pytest.mark.parametrize("spacing", [-0.5, math.nan, math.inf])
@pytest.mark.parametrize("make", ["simulate", "predict"])
def test_map_spacing_must_be_finite_and_positive(small_scene, constant_model, make, spacing):
    with pytest.raises(ValueError, match="spacing must be finite and positive"):
        if make == "simulate":
            evalmap.simulate_map(small_scene, 1.0, spacing)
        else:
            evalmap.predict_map(constant_model, small_scene, 1.0, spacing)


def test_predicted_map_constant_model(small_scene, small_pool, constant_model):
    m = evalmap.predict_map(constant_model, small_scene, z_plane=1.0, spacing=0.7)
    assert m.source == "predicted:dt"
    expected = float(np.mean(small_pool.rss_dbm))
    assert np.all(m.values == expected)


def test_predicted_map_rejects_odd_arity(small_scene, small_pool):
    x = np.column_stack([small_pool.features, small_pool.features[:, :1]])  # 4 cols
    tree = forest.fit_cart(x, small_pool.rss_dbm, forest.TreeParams(max_depth=1), seed=0)
    f4 = forest.Forest(mode="single", trees=(tree,), n_features=4,
                       params=forest.TreeParams(), seed=0)
    with pytest.raises(ValueError, match="4-feature"):
        evalmap.predict_map(f4, small_scene, 1.0, 0.7)
    with pytest.raises(ValueError, match="4-feature"):
        evalmap.half_diagonal_profile(f4, small_scene, 1.0, 5)


def test_predicted_map_five_feature_model(small_scene, small_pool):
    n = len(small_pool)
    x5 = np.column_stack([
        small_pool.features,
        np.full(n, small_scene.room.lx),
        np.full(n, small_scene.room.ly),
    ])
    tree = forest.fit_cart(x5, small_pool.rss_dbm,
                           forest.TreeParams(max_depth=1, min_samples_split=10**9), seed=0)
    f5 = forest.Forest(mode="single", trees=(tree,), n_features=5,
                       params=forest.TreeParams(), seed=0)
    m = evalmap.predict_map(f5, small_scene, 1.0, 0.9)
    assert np.all(m.values == float(np.mean(small_pool.rss_dbm)))


def test_map_value_lookup(small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=1.0)
    assert m.value_at(0.1, 0.1) == m.values[0, 0]
    assert m.value_at(2.9, 0.1) == m.values[0, 2]
    # out-of-room coordinates clamp to the border cell
    assert m.value_at(-5.0, 99.0) == m.values[2, 0]


# ---------------------------------------------------------------------------
# Profiles
# ---------------------------------------------------------------------------

def test_profile_simulated(small_scene):
    prof = evalmap.half_diagonal_profile(None, small_scene, z_plane=1.0, n_points=5)
    xs = [p[0] for p in prof]
    assert xs == [1.5, 1.125, 0.75, 0.375, 0.0]
    p = channel.received_power(small_scene, (1.5, 1.5, 1.0)).total_mw
    assert prof[0][1] == channel.rss_dbm(p)
    # RSS falls monotonically toward the corner for a single centered source
    vals = [p[1] for p in prof]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_profile_from_map(small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=0.5)
    prof = evalmap.half_diagonal_profile(m, small_scene, z_plane=1.0, n_points=4)
    for x, v in prof:
        assert v == m.value_at(x, x)  # square room: y == x along this diagonal


def test_profile_from_map_refuses_another_height_or_room(small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=0.5)
    with pytest.raises(ValueError, match=re.escape(
            "the map covers 3 x 3 m at z = 1.0, not the 3.0 x 3.0 m room at z = 0.2")):
        evalmap.half_diagonal_profile(m, small_scene, z_plane=0.2, n_points=3)
    big = preset_scene("big")
    room = big.room
    with pytest.raises(ValueError, match=re.escape(
            f"the map covers 3 x 3 m at z = 1.0, not the {room.lx} x {room.ly} m room "
            "at z = 1.0")):
        evalmap.half_diagonal_profile(m, big, z_plane=1.0, n_points=3)


def test_profile_from_model(small_scene, small_pool, constant_model):
    prof = evalmap.half_diagonal_profile(constant_model, small_scene, 1.0, 3)
    expected = float(np.mean(small_pool.rss_dbm))
    assert all(v == expected for _, v in prof)


def test_profile_needs_two_points(small_scene):
    with pytest.raises(ValueError):
        evalmap.half_diagonal_profile(None, small_scene, 1.0, 1)


def test_profile_height_outside_room_refused_for_every_source(small_scene, constant_model):
    radio_map = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=1.0)
    for source in (None, radio_map, constant_model):
        with pytest.raises(ValueError, match=r"z = 50.0 lies outside the 3.0 x 3.0 x 2.8 m room"):
            evalmap.half_diagonal_profile(source, small_scene, 50.0, 3)


# ---------------------------------------------------------------------------
# Map serialization
# ---------------------------------------------------------------------------

def test_map_csv_layout(tmp_path, small_scene):
    m = evalmap.simulate_map(small_scene, z_plane=1.0, spacing=1.0)
    path = tmp_path / "m.csv"
    evalmap.map_to_csv(m, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# source=simulated")
    assert lines[1] == "x,y,rss_dbm"
    assert len(lines) == 2 + m.nx * m.ny
    x0, y0, v0 = (float(t) for t in lines[2].split(","))
    assert (x0, y0) == (0.5, 0.5)
    assert v0 == m.values[0, 0]


def test_pgm_exact_bytes(tmp_path):
    m = evalmap.RadioMap(origin=(0.0, 0.0), spacing=(1.0, 1.0), z_plane=0.0,
                         values=np.array([[1.0, 2.0], [3.0, 4.0]]), source="simulated")
    path = tmp_path / "m.pgm"
    evalmap.map_to_pgm(m, path)
    # north-up: the iy=1 row (larger y) is written first
    assert path.read_text() == "P2\n2 2\n255\n170 255\n0 85\n"


def test_pgm_constant_map(tmp_path):
    m = evalmap.RadioMap(origin=(0.0, 0.0), spacing=(1.0, 1.0), z_plane=0.0,
                         values=np.full((2, 2), -17.0), source="simulated")
    path = tmp_path / "m.pgm"
    evalmap.map_to_pgm(m, path)
    assert path.read_text() == "P2\n2 2\n255\n0 0\n0 0\n"


def _row_by_row_map_files(m) -> tuple[bytes, bytes]:
    """The CSV and PGM bytes of a map as a row-by-row writer makes them: a
    `repr(float)` per CSV cell, x and y again for every cell, and a
    `str(int)` per PGM cell."""
    rows = np.column_stack([np.tile(m.x_centers(), m.ny), np.repeat(m.y_centers(), m.nx),
                            m.values.ravel()])
    csv = [f"# source={m.source} z={m.z_plane!r}", "x,y,rss_dbm"]
    csv += [",".join(repr(float(c)) for c in row) for row in rows]
    v = m.values
    span = float(v.max() - v.min())
    gray = (np.zeros_like(v, dtype=np.int64) if span == 0.0
            else np.rint((v - v.min()) / span * 255.0).astype(np.int64))
    pgm = [f"P2\n{m.nx} {m.ny}\n255"]
    pgm += [" ".join(str(int(g)) for g in gray[iy]) for iy in range(m.ny - 1, -1, -1)]
    return ("\n".join(csv) + "\n").encode(), ("\n".join(pgm) + "\n").encode()


def _hand_map(values, spacing=(0.1, 0.3), z=0.5):
    return evalmap.RadioMap(origin=(0.0, 0.0), spacing=spacing, z_plane=z,
                            values=np.asarray(values, dtype=np.float64), source="hand")


@pytest.mark.parametrize("make", [
    lambda: evalmap.simulate_map(preset_scene("mid"), 1.0, 0.1),
    lambda: _hand_map([[-0.0, 1e-300, 1e16], [0.1 + 0.2, 3.0, -7.0], [1e22, -2.5e-8, 40.0]]),
    lambda: _hand_map(np.arange(7.0)[None, :] / 3, spacing=(1 / 7, 0.2), z=-0.0),
    lambda: _hand_map(np.arange(7.0)[:, None] - 3.0, spacing=(0.7, 0.1 + 0.2)),
], ids=["mid-50x50", "odd-floats", "1xN", "Nx1"])
def test_map_files_match_a_row_by_row_writer(tmp_path, make):
    """map_to_csv and map_to_pgm write the very bytes a cell-by-cell writer
    does, for a simulated 50x50 map, floats whose repr is unusual, and maps
    one cell wide or tall."""
    m = make()
    csv, pgm = _row_by_row_map_files(m)
    evalmap.map_to_csv(m, tmp_path / "m.csv")
    evalmap.map_to_pgm(m, tmp_path / "m.pgm")
    assert (tmp_path / "m.csv").read_bytes() == csv
    assert (tmp_path / "m.pgm").read_bytes() == pgm


# ---------------------------------------------------------------------------
# Model zoo plumbing
# ---------------------------------------------------------------------------

def test_fit_model_all_kinds(small_pool):
    splits = dataset.split(small_pool, seed=0)
    m = evalmap.fit_model("mlp32x128", splits, epochs=1, batch_size=64, seed=0)
    assert isinstance(m, mlp.MlpModel)
    assert evalmap.model_label(m) == "mlp32x128"
    for kind, mode in (("dt", "single"), ("xt", "extra_trees"), ("adaboost", "adaboost_r2")):
        f = evalmap.fit_model(kind, splits, seed=0, xt_trees=5,
                              adaboost_estimators=3, adaboost_base_trees=2)
        assert isinstance(f, forest.Forest)
        assert f.mode == mode
        assert evalmap.model_label(f) == kind


def test_fit_model_unknown_kind(small_pool):
    with pytest.raises(ValueError):
        evalmap.fit_model("svm", dataset.split(small_pool, seed=0))


def test_load_any_model_dispatch(tmp_path, small_pool, constant_model):
    fpath = tmp_path / "f.json"
    forest.save_forest(constant_model, fpath)
    assert isinstance(evalmap.load_any_model(fpath), forest.Forest)

    cfg = mlp.MlpConfig(input_dim=3, hidden=(4,), epochs=0)
    mpath = tmp_path / "m.json"
    mlp.save_model(mlp.init(cfg), mpath)
    assert isinstance(evalmap.load_any_model(mpath), mlp.MlpModel)


def test_load_any_model_rejects_garbage(tmp_path):
    p = tmp_path / "junk.json"
    for raw in (b"{not json", b"[1, 2]", b"\xff\xfe{}"):
        p.write_bytes(raw)
        with pytest.raises(mlp.ModelFormatError, match="junk.json"):
            evalmap.load_any_model(p)
    for kind in ("nonsense", ["mlp"]):
        p.write_text(json.dumps({"format_version": mlp.MODEL_FORMAT_VERSION, "kind": kind}))
        with pytest.raises(mlp.ModelFormatError):
            evalmap.load_any_model(p)


def test_evaluate_model_exact(small_pool, constant_model):
    ref = small_pool.take(np.arange(20))
    report = evalmap.evaluate_model(constant_model, ref)
    const = float(np.mean(small_pool.rss_dbm))
    assert report.mae_dbm == pytest.approx(
        float(np.mean(np.abs(const - ref.rss_dbm))), abs=1e-12)
    assert report.n_points == 20


# ---------------------------------------------------------------------------
# Benchmark
# ---------------------------------------------------------------------------

def test_benchmark_dt(small_pool):
    rep = evalmap.benchmark("dt", small_pool, repetitions=2, seed=0)
    assert rep.train_seconds > 0
    assert rep.predict_us_per_sample > 0
    assert rep.repetitions == 2
    assert rep.n_predict == 10_000
    assert rep.n_train_rows == int(0.6 * len(small_pool))
    assert rep.hardware_note  # mandatory
    d = rep.to_dict()
    assert d["model_kind"] == "dt" and d["hardware_note"] == rep.hardware_note


def test_benchmark_rejects_small_prediction_batch(small_pool):
    with pytest.raises(ValueError):
        evalmap.benchmark("dt", small_pool, repetitions=1, n_predict=500)


def test_timing_report_validation():
    with pytest.raises(ValueError):
        evalmap.TimingReport("dt", 0.0, 1.0, 1, 10, 10_000, "cpu")
    with pytest.raises(ValueError):
        evalmap.TimingReport("dt", 1.0, 1.0, 1, 10, 10_000, "")


# ---------------------------------------------------------------------------
# Campaigns
# ---------------------------------------------------------------------------

def test_campaign_spec_validation():
    with pytest.raises(ValueError):
        evalmap.CampaignSpec(models=())
    with pytest.raises(ValueError):
        evalmap.CampaignSpec(models=("mlp32x128", "svm"))
    with pytest.raises(ValueError):
        evalmap.CampaignSpec(train_sizes=(3,))
    with pytest.raises(ValueError):
        evalmap.CampaignSpec(noise_factors=(-0.1,))
    with pytest.raises(ValueError):
        evalmap.CampaignSpec(repetitions=0)


@pytest.mark.parametrize("field, value", [
    ("repetitions", 1.5), ("repetitions", True), ("seed", 2.0), ("seed", False),
    ("led_count", True), ("pool_per_axis", 5.0), ("reference_n", 50.0),
    ("train_sizes", (20.0,)), ("epochs", (True,)), ("batch_sizes", (16, 32.0)),
])
def test_campaign_spec_integer_fields_take_ints_only(field, value):
    with pytest.raises(ValueError, match=f"campaign {field} takes ints only"):
        evalmap.CampaignSpec(**{field: value})


@pytest.mark.parametrize("field, value, message", [
    ("pool_per_axis", 0, "campaign pool_per_axis must be >= 1, got 0"),
    ("pool_per_axis", -1, "campaign pool_per_axis must be >= 1, got -1"),
    ("reference_n", 0, "campaign reference_n must be >= 1, got 0"),
    ("pool_per_axis", 101, "campaign pool_per_axis=101: 1,030,301 rows, more than the 1,000,000"),
    ("reference_n", 10**7, "campaign reference_n=10000000: 10,000,000 rows, more than the"),
])
def test_campaign_spec_refuses_pool_and_reference_sizes_by_name(field, value, message):
    """Refused when the spec is built, not when the campaign generates its data."""
    with pytest.raises(ValueError, match=re.escape(message)):
        evalmap.CampaignSpec(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("noise_factors", (math.nan,)), ("noise_factors", (0.1, math.inf)),
    ("patch_edge_m", math.nan), ("patch_edge_m", math.inf),
])
def test_campaign_spec_float_fields_take_finite_numbers_only(field, value):
    with pytest.raises(ValueError, match=f"campaign {field} takes finite numbers only"):
        evalmap.CampaignSpec(**{field: value})


def test_campaign_spec_round_trip():
    spec = evalmap.CampaignSpec(models=("dt",), train_sizes=(40,), repetitions=2)
    again = evalmap.CampaignSpec.from_dict(spec.to_dict())
    assert again == spec
    with pytest.raises(ValueError):
        evalmap.CampaignSpec.from_dict({"models": ["dt"], "bogus": 1})


@pytest.fixture(scope="module")
def tiny_campaign(small_pool):
    spec = evalmap.CampaignSpec(
        preset="small",
        models=("dt", "xt"),
        train_sizes=(40, 80),
        epochs=(1,),
        batch_sizes=(32,),
        noise_factors=(0.0, 0.5),
        repetitions=2,
        seed=7,
        reference_n=30,
    )
    ref = dataset.generate_reference(preset_scene("small"), 30, seed=5)
    return spec, evalmap.campaign(spec, pool=small_pool, reference=ref), ref


def test_campaign_shape(tiny_campaign):
    spec, result, _ = tiny_campaign
    assert len(result.rows) == 2 * 2 * 2 * 2  # models x sizes x noises x reps
    assert len(result.summaries) == 2 * 2 * 2
    for row in result.rows:
        assert row["mae_dbm"] > 0
        if row["noise_factor"] == 0.0:
            assert row["mean_osnr_db"] is None
        else:
            assert np.isfinite(row["mean_osnr_db"])


def test_campaign_summary_matches_rows(tiny_campaign):
    _, result, _ = tiny_campaign
    for s in result.summaries:
        maes = [r["mae_dbm"] for r in result.rows
                if all(r[k] == s[k] for k in ("model", "train_size", "epochs",
                                              "batch_size", "noise_factor"))]
        assert len(maes) == 2
        assert s["mean_mae_dbm"] == pytest.approx(float(np.mean(maes)), abs=1e-12)
        assert s["min"] <= s["median"] <= s["max"]
        assert s["n"] == 2


def test_campaign_deterministic(tiny_campaign, small_pool):
    spec, result, ref = tiny_campaign
    again = evalmap.campaign(spec, pool=small_pool, reference=ref)
    assert [r["mae_dbm"] for r in again.rows] == [r["mae_dbm"] for r in result.rows]
    assert [r["seed"] for r in again.rows] == [r["seed"] for r in result.rows]


def test_campaign_csv_output(tmp_path, tiny_campaign):
    _, result, _ = tiny_campaign
    rows_path, summary_path = result.write_csv(tmp_path / "camp")
    rows_lines = rows_path.read_text().splitlines()
    assert rows_lines[0].split(",")[:4] == ["model", "train_size", "epochs", "batch_size"]
    assert len(rows_lines) == 1 + len(result.rows)
    # noiseless rows leave the OSNR cell empty
    first = dict(zip(rows_lines[0].split(","), rows_lines[1].split(",")))
    assert first["mean_osnr_db"] == ""
    summary_lines = summary_path.read_text().splitlines()
    assert len(summary_lines) == 1 + len(result.summaries)


def test_campaign_rejects_oversized_train(small_pool):
    spec = evalmap.CampaignSpec(preset="small", models=("dt",),
                                train_sizes=(10**6,), repetitions=1)
    ref = dataset.generate_reference(preset_scene("small"), 10, seed=5)
    with pytest.raises(ValueError):
        evalmap.campaign(spec, pool=small_pool, reference=ref)
