import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from lumenrem import dataset as dt
from lumenrem.channel import received_power, rss_dbm
from lumenrem.scene import preset_scene


@pytest.fixture(scope="module")
def small_ds():
    return dt.generate_fixed(preset_scene("small"), per_axis=6, seed=11)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def test_generate_fixed_shape_and_ranges(small_ds):
    assert len(small_ds) == 6 ** 3
    assert small_ds.feature_names == ("x", "y", "z")
    x, y, z = small_ds.features.T
    assert np.all((x >= 0) & (x <= 3.0))
    assert np.all((y >= 0) & (y <= 3.0))
    assert np.all((z >= 0) & (z <= 1.7))
    assert np.all(np.isfinite(small_ds.rss_dbm))


def test_generate_fixed_is_cartesian(small_ds):
    """Exactly per_axis distinct values per axis, each repeated per_axis^2 times."""
    for col in range(3):
        vals, counts = np.unique(small_ds.features[:, col], return_counts=True)
        assert len(vals) == 6
        assert np.all(counts == 36)


def test_generate_fixed_deterministic():
    sc = preset_scene("small")
    a = dt.generate_fixed(sc, per_axis=3, seed=42)
    b = dt.generate_fixed(sc, per_axis=3, seed=42)
    np.testing.assert_array_equal(a.features, b.features)
    np.testing.assert_array_equal(a.rss_dbm, b.rss_dbm)
    c = dt.generate_fixed(sc, per_axis=3, seed=43)
    assert not np.array_equal(a.features, c.features)


def test_generate_fixed_rss_matches_channel(small_ds):
    """Spot-check rows against the scalar simulator."""
    sc = preset_scene("small")
    for i in (0, 57, 215):
        bd = received_power(sc, small_ds.features[i])
        assert small_ds.rss_dbm[i] == rss_dbm(bd.total_mw)  # bitwise


def test_generate_fixed_bad_count():
    with pytest.raises(ValueError):
        dt.generate_fixed(preset_scene("small"), per_axis=0)


def test_generate_variable_shape():
    ds = dt.generate_variable(led_count=1, per_xy=3, per_z=2, per_dim=2, seed=7)
    assert len(ds) == 3 * 3 * 2 * 2 * 2
    assert ds.feature_names == ("x", "y", "z", "lx", "ly")
    x, y, z, lx, ly = ds.features.T
    assert np.all((lx >= 3.0) & (lx <= 7.0))
    assert np.all((ly >= 3.0) & (ly <= 7.0))
    assert np.all(x <= lx) and np.all(x >= 0)
    assert np.all(y <= ly) and np.all(y >= 0)
    assert np.all((z >= 0) & (z <= 1.7))
    # exactly per_dim^2 distinct rooms
    rooms = {(a, b) for a, b in zip(lx, ly)}
    assert len(rooms) == 4


def test_generate_variable_rows_match_their_rooms():
    """One channel call covers every room; each row still gets the bits of
    its own room's simulation."""
    from lumenrem.scene import variable_scene

    ds = dt.generate_variable(led_count=4, per_xy=2, per_z=1, per_dim=2, seed=11)
    for (x, y, z, lx, ly), rss in zip(ds.features, ds.rss_dbm):
        bd = received_power(variable_scene(float(lx), float(ly), 4), (x, y, z))
        assert rss == rss_dbm(bd.total_mw)  # bitwise


def test_generate_variable_minimal():
    ds = dt.generate_variable(led_count=4, per_xy=1, per_z=1, per_dim=1, seed=3)
    assert len(ds) == 1
    s = ds.sample(0)
    assert s.lx is not None and 3.0 <= s.lx <= 7.0
    assert s.ly is not None and 3.0 <= s.ly <= 7.0


def test_generate_reference_independent_draws():
    sc = preset_scene("mid")
    ds = dt.generate_reference(sc, n=200, seed=5)
    assert len(ds) == 200
    # no Cartesian structure: all coordinates distinct per axis
    for col in range(3):
        assert len(np.unique(ds.features[:, col])) == 200
    other = dt.generate_reference(sc, n=200, seed=6)
    assert not np.array_equal(ds.features, other.features)
    again = dt.generate_reference(sc, n=200, seed=5)
    np.testing.assert_array_equal(ds.features, again.features)


def test_generate_reference_variable_rows():
    ds = dt.generate_reference_variable(led_count=1, n=25, seed=9)
    assert len(ds) == 25
    x, y, z, lx, ly = ds.features.T
    assert np.all(x <= lx) and np.all(y <= ly)
    assert len(np.unique(lx)) == 25
    # each row's RSS matches its own-room simulation
    from lumenrem.scene import variable_scene

    for i in range(len(ds)):
        bd = received_power(variable_scene(float(lx[i]), float(ly[i])), (x[i], y[i], z[i]))
        assert ds.rss_dbm[i] == rss_dbm(bd.total_mw)  # bitwise


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_add_noise_zero_factor_identity(small_ds):
    noisy, osnr = dt.add_noise(small_ds, 0.0, seed=1)
    assert osnr == math.inf
    np.testing.assert_array_equal(noisy.rss_dbm, small_ds.rss_dbm)


def test_add_noise_statistics():
    """Empirical std of injected noise within 5% of noise_factor * std(P)."""
    rng = np.random.default_rng(0)
    n = 100_000
    feats = rng.uniform(0, 3, (n, 3))
    rss = rng.uniform(-30.0, -10.0, n)
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=rss)
    factor = 0.05
    noisy, osnr = dt.add_noise(ds, factor, seed=2)
    p_clean = 10.0 ** (ds.rss_dbm / 10.0)
    p_noisy = 10.0 ** (noisy.rss_dbm / 10.0)
    sigma_target = factor * np.std(p_clean)
    sigma_emp = np.std(p_noisy - p_clean)
    assert abs(sigma_emp - sigma_target) / sigma_target < 0.05
    expected_osnr = float(np.mean(10.0 * np.log10(p_clean / sigma_target)))
    assert math.isclose(osnr, expected_osnr, rel_tol=1e-12)


def test_add_noise_halving_factor_gains_3db(small_ds):
    _, osnr_a = dt.add_noise(small_ds, 0.10, seed=3)
    _, osnr_b = dt.add_noise(small_ds, 0.05, seed=3)
    assert math.isclose(osnr_b - osnr_a, 10.0 * math.log10(2.0), rel_tol=1e-9)


def test_add_noise_preserves_positions_and_order(small_ds):
    noisy, _ = dt.add_noise(small_ds, 0.1, seed=4)
    np.testing.assert_array_equal(noisy.features, small_ds.features)
    assert noisy.feature_names == small_ds.feature_names


def test_add_noise_floor_keeps_rss_finite():
    # powers small enough that noise drives some negative pre-floor
    feats = np.zeros((500, 3))
    rss = np.full(500, -110.0)
    rss[0] = -60.0  # spread so sigma > 0
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=rss)
    noisy, _ = dt.add_noise(ds, 5.0, seed=5)
    assert np.all(np.isfinite(noisy.rss_dbm))
    assert np.all(10.0 ** (noisy.rss_dbm / 10.0) >= 1e-12 * (1 - 1e-12))


def test_add_noise_negative_factor():
    ds = dt.generate_fixed(preset_scene("small"), per_axis=2, seed=0)
    with pytest.raises(ValueError):
        dt.add_noise(ds, -0.1, seed=0)


# ---------------------------------------------------------------------------
# Split / subsample
# ---------------------------------------------------------------------------

def test_split_sizes_and_partition(small_ds):
    parts = dt.split(small_ds, seed=8)
    n = len(small_ds)
    assert len(parts.train) == math.floor(0.6 * n)
    assert len(parts.validation) == math.floor(0.2 * n)
    assert len(parts.test) == n - len(parts.train) - len(parts.validation)
    # disjoint union: row multisets match exactly
    stacked = np.concatenate(
        [parts.train.features, parts.validation.features, parts.test.features]
    )
    a = np.sort(stacked.view([("", stacked.dtype)] * 3).ravel())
    b = np.sort(small_ds.features.view([("", stacked.dtype)] * 3).ravel())
    assert np.array_equal(a, b)


def test_split_seven_rows():
    feats = np.arange(21, dtype=float).reshape(7, 3)
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=np.zeros(7))
    parts = dt.split(ds, seed=0)
    assert (len(parts.train), len(parts.validation), len(parts.test)) == (4, 1, 2)


def test_split_too_small():
    feats = np.zeros((4, 3))
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=np.zeros(4))
    with pytest.raises(ValueError):
        dt.split(ds, seed=0)


def test_split_deterministic(small_ds):
    a = dt.split(small_ds, seed=1)
    b = dt.split(small_ds, seed=1)
    np.testing.assert_array_equal(a.train.features, b.train.features)
    c = dt.split(small_ds, seed=2)
    assert not np.array_equal(a.train.features, c.train.features)


def _numbered(n: int) -> dt.Dataset:
    """n rows whose x is the row number."""
    feats = np.column_stack([np.arange(n, dtype=float), np.zeros(n), np.zeros(n)])
    return dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=np.zeros(n))


@given(n=st.integers(5, 400), seed=st.integers(0, 2**63 - 1))
def test_split_partitions_any_dataset(n, seed):
    parts = dt.split(_numbered(n), seed=seed)
    ids = [p.features[:, 0] for p in (parts.train, parts.validation, parts.test)]
    assert [len(i) for i in ids] == [math.floor(0.6 * n), math.floor(0.2 * n),
                                     n - math.floor(0.6 * n) - math.floor(0.2 * n)]
    assert np.array_equal(np.sort(np.concatenate(ids)), np.arange(n))


@given(data=st.data(), n=st.integers(1, 400), seed=st.integers(0, 2**63 - 1))
def test_subsample_draws_distinct_rows(data, n, seed):
    size = data.draw(st.integers(1, n))
    ids = dt.subsample(_numbered(n), size, seed=seed).features[:, 0]
    assert len(np.unique(ids)) == size
    assert np.all((ids >= 0) & (ids < n))


def test_subsample(small_ds):
    sub = dt.subsample(small_ds, 50, seed=3)
    assert len(sub) == 50
    # sampled rows are actual rows of the source
    src = {tuple(r) for r in small_ds.features}
    assert all(tuple(r) in src for r in sub.features)
    # full-size subsample is a permutation
    full = dt.subsample(small_ds, len(small_ds), seed=3)
    assert len(np.unique(full.features[:, 0])) == len(np.unique(small_ds.features[:, 0]))
    with pytest.raises(ValueError):
        dt.subsample(small_ds, len(small_ds) + 1, seed=0)
    with pytest.raises(ValueError):
        dt.subsample(small_ds, 0, seed=0)


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------

def test_fit_apply_norm(small_ds):
    stats = dt.fit_norm(small_ds)
    xn, yn = dt.apply_norm(stats, small_ds.features, small_ds.rss_dbm)
    np.testing.assert_allclose(xn.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(xn.std(axis=0), 1.0, rtol=1e-9)
    assert abs(yn.mean()) < 1e-9
    assert abs(yn.std() - 1.0) < 1e-9


def test_norm_round_trip(small_ds):
    stats = dt.fit_norm(small_ds)
    rng = np.random.default_rng(4)
    x = rng.uniform(-5, 5, (40, 3))
    y = rng.uniform(-40, -10, 40)
    xn, yn = dt.apply_norm(stats, x, y)
    x2, y2 = dt.invert_norm(stats, xn, yn)
    np.testing.assert_allclose(x2, x, atol=1e-12)
    np.testing.assert_allclose(y2, y, atol=1e-12)


def test_norm_constant_feature_rejected():
    feats = np.column_stack([np.arange(10.0), np.full(10, 2.0), np.arange(10.0)])
    ds = dt.Dataset(feature_names=("x", "y", "z"), features=feats, rss_dbm=np.arange(10.0))
    with pytest.raises(ValueError):
        dt.fit_norm(ds)


def test_test_rows_use_training_stats(small_ds):
    parts = dt.split(small_ds, seed=5)
    stats = dt.fit_norm(parts.train)
    xn = dt.apply_norm(stats, parts.test.features)
    # test-set means are near but not exactly zero under training stats
    assert np.all(np.abs(xn.mean(axis=0)) > 0)


# ---------------------------------------------------------------------------
# Persistence
# ---------------------------------------------------------------------------

def test_save_load_round_trip(tmp_path, small_ds):
    p = tmp_path / "ds.csv"
    small_ds.save(p)
    assert (tmp_path / "ds.meta.json").exists()
    back = dt.Dataset.load(p)
    assert back.feature_names == small_ds.feature_names
    np.testing.assert_array_equal(back.features, small_ds.features)
    np.testing.assert_array_equal(back.rss_dbm, small_ds.rss_dbm)
    assert back.meta["generator"] == "fixed"
    assert back.meta["seed"] == 11
    assert back.meta == small_ds.meta  # the scene's tuples were stored as lists


def test_csv_header_variable(tmp_path):
    ds = dt.generate_variable(led_count=1, per_xy=1, per_z=1, per_dim=1, seed=1)
    p = tmp_path / "v.csv"
    ds.save(p)
    header = p.read_text().splitlines()[0]
    assert header == "rss_dbm,x,y,z,lx,ly"


def test_dataset_arrays_immutable(small_ds):
    with pytest.raises(ValueError):
        small_ds.features[0, 0] = 99.0
    with pytest.raises(ValueError):
        small_ds.rss_dbm[0] = 0.0


def test_only_the_two_layouts_are_datasets():
    for names in (("a", "b", "c"), ("x", "y"), ("y", "x", "z"), ("x", "y", "z", "lx")):
        with pytest.raises(ValueError, match="not a layout"):
            dt.Dataset(feature_names=names, features=np.zeros((2, len(names))), rss_dbm=[0.0, 0.0])
    assert dt.FEATURE_LAYOUTS == {3: ("x", "y", "z"), 5: ("x", "y", "z", "lx", "ly")}


def test_load_rejects_foreign_csv(tmp_path):
    p = tmp_path / "junk.csv"
    p.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ValueError):
        dt.Dataset.load(p)
