import math
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lumenrem import channel as ch
from lumenrem.scene import Receiver, Room, Scene, Transmitter, preset_scene, variable_scene


# ---------------------------------------------------------------------------
# Frozen reference values (computed independently with 40-digit arithmetic)
# ---------------------------------------------------------------------------

def test_lambertian_order_values():
    assert math.isclose(ch.lambertian_order(60.0), 1.0, rel_tol=1e-12)
    assert math.isclose(ch.lambertian_order(45.0), 2.0, rel_tol=1e-12)
    assert math.isclose(ch.lambertian_order(30.0), 4.818841679306418, rel_tol=1e-12)


def test_lambertian_order_domain():
    for bad in (0.0, 90.0, -5.0, 120.0):
        with pytest.raises(ValueError):
            ch.lambertian_order(bad)


def test_concentrator_gain_values():
    # n=1.5, FOV 85 deg -> n^2 / sin^2(85 deg)
    assert math.isclose(ch.concentrator_gain(1.0, 85.0, 1.5), 2.2672220990524927, rel_tol=1e-12)
    assert ch.concentrator_gain(1.0, 90.0, 1.0) == 1.0
    # outside the FOV the concentrator passes nothing
    assert ch.concentrator_gain(math.cos(math.radians(86.0)), 85.0, 1.5) == 0.0


def test_concentrator_gain_array():
    cos_psi = np.array([1.0, math.cos(math.radians(84.0)), math.cos(math.radians(86.0))])
    g = ch.concentrator_gain(cos_psi, 85.0, 1.5)
    expected = 1.5 ** 2 / math.sin(math.radians(85.0)) ** 2
    np.testing.assert_allclose(g, [expected, expected, 0.0], rtol=1e-12)


def test_concentrator_gain_domain():
    with pytest.raises(ValueError):
        ch.concentrator_gain(1.0, 85.0, 0.5)
    with pytest.raises(ValueError):
        ch.concentrator_gain(1.0, 0.0, 1.5)
    with pytest.raises(ValueError):
        ch.concentrator_gain(1.0, 95.0, 1.5)


def _los_mw(scene, pos, **kw):
    """Direct-path power of the first transmitter, read from the per-tx breakdown."""
    return ch.received_power(scene, pos, **kw).per_tx[0][0]


def test_los_gain_mid_room_center():
    """5x5x3 room, LED at ceiling center, PD directly below at z=1: d=2, angles=0."""
    sc = preset_scene("mid")
    p = _los_mw(sc, (2.5, 2.5, 1.0))
    h = p / sc.transmitters[0].power_mw
    assert math.isclose(h, 1.8041980207569349e-05, rel_tol=1e-12)
    assert math.isclose(ch.rss_dbm(p), -17.437157979457319, rel_tol=1e-12)
    assert math.isclose(ch.path_loss_db(h), 47.437157979457319, rel_tol=1e-12)


def test_los_gain_off_axis_matches_closed_form():
    """Hand-expanded formula at an off-axis point (m = 1 for a 60 deg HPA)."""
    sc = preset_scene("mid")
    pos = (1.0, 3.5, 0.8)
    dx, dy, dz = 1.0 - 2.5, 3.5 - 2.5, 0.8 - 3.0
    d = math.sqrt(dx * dx + dy * dy + dz * dz)
    cos_t = -dz / d
    g = 1.5 ** 2 / math.sin(math.radians(85.0)) ** 2
    expected = 2.0 * 1e-4 / (2.0 * math.pi * d * d) * cos_t * g * cos_t
    assert math.isclose(_los_mw(sc, pos), sc.transmitters[0].power_mw * expected, rel_tol=1e-12)


def test_los_gain_fov_cutoff():
    # narrow-FOV receiver far off-axis: incidence angle exceeds the cutoff
    sc = preset_scene("mid")
    narrow = Scene(room=sc.room, transmitters=sc.transmitters, receiver=Receiver(fov_deg=30.0))
    assert _los_mw(narrow, (0.1, 0.1, 0.1)) == 0.0
    # the same geometry passes with the default wide FOV
    assert _los_mw(sc, (0.1, 0.1, 0.1)) > 0.0


def test_los_gain_coincident_raises():
    sc = preset_scene("mid")
    tx = sc.transmitters[0]
    # the public entry point refuses the ceiling plane the LED sits on ...
    with pytest.raises(ValueError):
        ch.received_power(sc, tx.position)
    # ... and the LOS kernel itself refuses a zero-length link
    with pytest.raises(ValueError, match="coincides"):
        ch._los_gain_block(tx, sc.receiver, np.array([tx.position]))


def test_link_geometry_cosines():
    """LED in a ceiling corner, PD on the floor 3 m away: both the emission and
    the incidence cosine are dz/d, so the gain carries (3/sqrt(18))^(m+1)."""
    sc = Scene(room=Room(5.0, 5.0, 3.0), transmitters=(Transmitter(position=(0.0, 0.0, 3.0)),))
    d_sq = 18.0
    cos_t = 3.0 / math.sqrt(d_sq)
    g = 1.5 ** 2 / math.sin(math.radians(85.0)) ** 2
    expected = 2.0 * 1e-4 / (2.0 * math.pi * d_sq) * cos_t * g * cos_t
    assert math.isclose(_los_mw(sc, (3.0, 0.0, 0.0)), 1000.0 * expected, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# Wall discretization
# ---------------------------------------------------------------------------

def test_discretize_walls_counts_and_area():
    room = Room(5.0, 5.0, 3.0)
    pa = ch._PatchArrays.from_room(room, 0.2)
    assert len(pa) == 4 * 25 * 15
    assert math.isclose(pa.areas.sum(), 2 * 5.0 * 3.0 + 2 * 5.0 * 3.0, rel_tol=1e-9)
    np.testing.assert_array_equal(pa.areas, pa.edges_u * pa.edges_v)


def test_discretize_walls_non_divisible_edge():
    """Edge 0.3 on a 5 m extent rounds the count up and shrinks patches to fit."""
    room = Room(5.0, 5.0, 3.0)
    pa = ch._PatchArrays.from_room(room, 0.3)
    nu, nv = math.ceil(5.0 / 0.3), math.ceil(3.0 / 0.3)
    assert len(pa) == 4 * nu * nv
    assert math.isclose(pa.areas.sum(), 60.0, rel_tol=1e-9)
    # every patch is strictly inside its wall plane and normals point inward
    for (x, y, z), normal in zip(pa.centers, pa.normals):
        normal = tuple(normal)
        assert 0.0 < z < room.lz
        if normal == (1.0, 0.0, 0.0):
            assert x == 0.0
        elif normal == (-1.0, 0.0, 0.0):
            assert x == room.lx
        elif normal == (0.0, 1.0, 0.0):
            assert y == 0.0
        else:
            assert normal == (0.0, -1.0, 0.0)
            assert y == room.ly


def test_discretize_walls_bad_edge():
    room = Room(5.0, 5.0, 3.0)
    with pytest.raises(ValueError):
        ch._PatchArrays.from_room(room, 0.0)
    with pytest.raises(ValueError):
        ch._PatchArrays.from_room(room, 10.0)


# ---------------------------------------------------------------------------
# NLOS: naive loop oracle vs. vectorized kernel
# ---------------------------------------------------------------------------

def _naive_term(tx, rx_pos, center, normal, eu, ev, m, cos_fov, depth):
    """One (sub-)patch midpoint term with the same close-range split rule as
    the kernel: subdivide 2x2 while edge > d2/4, up to 12 levels."""
    v2 = tuple(rx_pos[i] - center[i] for i in range(3))
    d2 = math.sqrt(sum(c * c for c in v2))
    if 4.0 * max(eu, ev) > d2 and depth < 12:
        du = (0.0, eu / 4) if normal[0] != 0 else (eu / 4, 0.0)
        total = 0.0
        for su in (-1, 1):
            for sv in (-1, 1):
                child = (center[0] + su * du[0], center[1] + su * du[1],
                         center[2] + sv * ev / 4)
                total += _naive_term(tx, rx_pos, child, normal,
                                     eu / 2, ev / 2, m, cos_fov, depth + 1)
        return total
    cos_beta = sum(v2[i] * normal[i] for i in range(3)) / d2
    cos_psi = -v2[2] / d2
    if cos_beta <= 0 or cos_psi <= 0 or cos_psi < cos_fov:
        return 0.0
    v1 = tuple(center[i] - tx.position[i] for i in range(3))
    d1 = math.sqrt(sum(c * c for c in v1))
    cos_phi = -v1[2] / d1
    cos_alpha = -sum(v1[i] * normal[i] for i in range(3)) / d1
    if cos_phi <= 0 or cos_alpha <= 0:
        return 0.0
    return (eu * ev) * cos_phi ** m * cos_alpha * cos_beta * cos_psi \
        / (d1 * d1 * d2 * d2)


def _nlos_naive(tx, rx, rx_pos, pa, rho):
    """Straightforward per-patch loop, written independently of the kernel."""
    m = ch.lambertian_order(tx.hpa_deg)
    fov = math.radians(rx.fov_deg)
    g = rx.refractive_index ** 2 / math.sin(fov) ** 2
    total = 0.0
    for center, normal, eu, ev in zip(pa.centers.tolist(), pa.normals.tolist(),
                                      pa.edges_u.tolist(), pa.edges_v.tolist()):
        total += _naive_term(tx, rx_pos, center, normal, eu, ev, m, math.cos(fov), 0)
    return total * (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * rho * rx.filter_gain * g


def test_nlos_gain_matches_naive_loop():
    sc = preset_scene("mid")
    tx, rx = sc.transmitters[0], sc.receiver
    pa = ch._PatchArrays.from_room(sc.room, 0.5)  # coarse keeps the loop fast
    for pos in [(2.5, 2.5, 1.0), (0.4, 4.2, 0.3), (4.9, 0.2, 1.7)]:
        want = tx.power_mw * _nlos_naive(tx, rx, pos, pa, sc.wall_reflectance)
        got = ch.received_power(sc, pos, patch_edge_m=0.5).per_tx[0][1]
        assert math.isclose(got, want, rel_tol=1e-12)


def test_nlos_gain_zero_reflectance():
    sc = preset_scene("small")
    dark = Scene(room=sc.room, transmitters=sc.transmitters, wall_reflectance=0.0)
    bd = ch.received_power(dark, (1.0, 1.0, 1.0), patch_edge_m=0.5)
    assert bd.p_nlos_mw == 0.0
    assert bd.p_los_mw > 0.0


def test_nlos_refinement_converges():
    """Halving the patch edge changes the reflected gain less and less."""
    sc = preset_scene("mid")
    pos = (1.0, 1.0, 0.85)
    vals = {edge: ch.received_power(sc, pos, patch_edge_m=edge).p_nlos_mw
            for edge in (0.4, 0.2, 0.1)}
    d1 = abs(vals[0.2] - vals[0.4])
    d2 = abs(vals[0.1] - vals[0.2])
    assert d2 < d1
    assert d2 / vals[0.1] < 0.01


# ---------------------------------------------------------------------------
# Received power
# ---------------------------------------------------------------------------

def test_received_power_breakdown_consistent():
    sc = preset_scene("mid", led_count=4)
    bd = ch.received_power(sc, (2.0, 3.1, 0.9))
    assert len(bd.per_tx) == 4
    assert math.isclose(bd.p_los_mw, sum(p for p, _ in bd.per_tx), rel_tol=1e-12)
    assert math.isclose(bd.p_nlos_mw, sum(p for _, p in bd.per_tx), rel_tol=1e-12)
    assert math.isclose(bd.total_mw, bd.p_los_mw + bd.p_nlos_mw, rel_tol=1e-15)
    assert bd.p_los_mw > 0 and bd.p_nlos_mw > 0


def test_received_power_scales_with_tx_power():
    room = Room(5.0, 5.0, 3.0)
    pos = (1.3, 2.2, 0.6)
    bds = []
    for p_mw in (500.0, 1000.0):
        sc = Scene(room=room, transmitters=(Transmitter(position=(2.5, 2.5, 3.0), power_mw=p_mw),))
        bds.append(ch.received_power(sc, pos))
    assert math.isclose(bds[1].p_los_mw, 2.0 * bds[0].p_los_mw, rel_tol=1e-12)
    assert math.isclose(bds[1].p_nlos_mw, 2.0 * bds[0].p_nlos_mw, rel_tol=1e-12)


def test_received_power_four_led_symmetry():
    """At the room center all four quadrant LEDs contribute identically."""
    sc = preset_scene("mid", led_count=4)
    bd = ch.received_power(sc, (2.5, 2.5, 1.0))
    los = [p for p, _ in bd.per_tx]
    ref = [p for _, p in bd.per_tx]
    for v in los[1:]:
        assert math.isclose(v, los[0], rel_tol=1e-12)
    for v in ref[1:]:
        assert math.isclose(v, ref[0], rel_tol=1e-12)


def test_received_power_outside_room_raises():
    sc = preset_scene("small")
    for bad in [(-0.1, 1.0, 1.0), (1.0, 3.1, 1.0), (1.0, 1.0, 2.8)]:
        with pytest.raises(ValueError):
            ch.received_power(sc, bad)


def test_mirror_symmetry_of_total_power():
    """Centered single LED: the field is symmetric under x and y mirroring."""
    sc = preset_scene("mid")
    rng = np.random.default_rng(1234)
    for _ in range(25):
        x = rng.uniform(0.0, 5.0)
        y = rng.uniform(0.0, 5.0)
        z = rng.uniform(0.0, 1.7)
        a = ch.received_power(sc, (x, y, z))
        b = ch.received_power(sc, (5.0 - x, y, z))
        c = ch.received_power(sc, (x, 5.0 - y, z))
        assert math.isclose(a.total_mw, b.total_mw, rel_tol=1e-9)
        assert math.isclose(a.total_mw, c.total_mw, rel_tol=1e-9)


def _rss(scene, x, y, z):
    return ch.rss_dbm(ch.received_power(scene, (x, y, z)).total_mw)


def _same_rss(a, b):
    return abs(a - b) / abs(a) < 1e-6  # C04's tolerance


_SIDE, _FRACTION, _HEIGHT = st.floats(3.0, 7.0), st.floats(0.0, 1.0), st.floats(0.0, 1.7)


@settings(max_examples=100, deadline=None)
@given(lx=_SIDE, ly=_SIDE, fx=_FRACTION, fy=_FRACTION, z=_HEIGHT)
def test_single_led_field_is_mirror_symmetric(lx, ly, fx, fy, z):
    """A centred LED in any footprint: RSS is unchanged under x -> lx-x and y -> ly-y."""
    scene = variable_scene(lx, ly)
    x, y = fx * lx, fy * ly
    base = _rss(scene, x, y, z)
    assert _same_rss(base, _rss(scene, lx - x, y, z))
    assert _same_rss(base, _rss(scene, x, ly - y, z))


@settings(max_examples=100, deadline=None)
@given(side=_SIDE, fx=_FRACTION, fy=_FRACTION, z=_HEIGHT)
def test_single_led_field_is_rotation_symmetric_in_square_rooms(side, fx, fy, z):
    """In a square room a quarter turn, (x, y) -> (y, side-x), leaves RSS unchanged."""
    scene = variable_scene(side, side)
    x, y = fx * side, fy * side
    assert _same_rss(_rss(scene, x, y, z), _rss(scene, y, side - x, z))


def test_los_decreases_away_from_axis():
    """At fixed height the direct gain drops monotonically with radial offset."""
    sc = preset_scene("mid")
    gains = [_los_mw(sc, (2.5 + r, 2.5, 1.0)) for r in np.linspace(0.0, 2.4, 13)]
    assert all(a > b for a, b in zip(gains, gains[1:]))


def test_received_power_many_matches_scalar():
    sc = preset_scene("mid", led_count=4)
    rng = np.random.default_rng(77)
    pts = np.column_stack(
        [rng.uniform(0, 5, 40), rng.uniform(0, 5, 40), rng.uniform(0, 1.7, 40)]
    )
    p_los, p_nlos = ch.received_power_many(sc, pts)
    for i in range(len(pts)):
        bd = ch.received_power(sc, pts[i])
        assert math.isclose(p_los[i], bd.p_los_mw, rel_tol=1e-12)
        assert math.isclose(p_nlos[i], bd.p_nlos_mw, rel_tol=1e-12)


def test_received_power_many_thread_count_invariant(monkeypatch):
    """Same bits regardless of the worker cap."""
    sc = preset_scene("small")
    rng = np.random.default_rng(5)
    n = 1300  # spans multiple chunks
    pts = np.column_stack(
        [rng.uniform(0, 3, n), rng.uniform(0, 3, n), rng.uniform(0, 1.7, n)]
    )
    monkeypatch.setenv("LUMEN_REM_THREADS", "1")
    serial = ch.received_power_many(sc, pts)
    for raw in ("4", "0"):  # 0 = one worker per CPU
        monkeypatch.setenv("LUMEN_REM_THREADS", raw)
        threaded = ch.received_power_many(sc, pts)
        np.testing.assert_array_equal(serial[0], threaded[0])
        np.testing.assert_array_equal(serial[1], threaded[1])


def test_received_power_many_chunk_size_invariant(monkeypatch):
    """Same bits whatever the number of positions per chunk."""
    sc = preset_scene("small")
    rng = np.random.default_rng(6)
    pts = np.column_stack(
        [rng.uniform(0, 3, 200), rng.uniform(0, 3, 200), rng.uniform(0, 1.7, 200)]
    )
    pts[:20, 0] = 0.0  # on the x = 0 wall: refined to full depth
    default = ch.received_power_many(sc, pts)
    monkeypatch.setattr(ch, "_CHUNK_PAIRS", 1)  # one position per chunk
    single = ch.received_power_many(sc, pts)
    np.testing.assert_array_equal(default[0], single[0])
    np.testing.assert_array_equal(default[1], single[1])


@pytest.mark.parametrize("on_patch, beside", [
    ((0.0, 0.1, 0.1), (0.0, 0.1000001, 0.1)),  # x = 0 wall
    ((0.1, 0.0, 0.1), (0.1000001, 0.0, 0.1)),  # y = 0 wall
])
def test_receiver_on_a_wall_patch_centre(on_patch, beside):
    """A receiver exactly on a patch centre is refined like any close pair,
    without a division warning, and agrees with a point 0.1 um away."""
    sc = preset_scene("mid")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = ch.received_power(sc, on_patch).total_mw
        p_los, p_nlos = ch.received_power_many(sc, [on_patch, beside])
    assert math.isfinite(at)
    assert math.isclose(at, ch.received_power(sc, beside).total_mw, rel_tol=1e-6)
    assert math.isclose(p_los[0] + p_nlos[0], at, rel_tol=1e-12)


@pytest.mark.parametrize("raw", ["abc", "-3", "1.5"])
def test_received_power_many_rejects_bad_thread_env(monkeypatch, raw):
    monkeypatch.setenv("LUMEN_REM_THREADS", raw)
    with pytest.raises(ValueError, match=f"LUMEN_REM_THREADS .*'{re.escape(raw)}'"):
        ch.received_power_many(preset_scene("small"), [(1.0, 1.0, 1.0)])


def test_rss_and_path_loss_edges():
    assert math.isclose(ch.rss_dbm(1.0), 0.0, abs_tol=1e-15)
    assert math.isclose(ch.rss_dbm(100.0), 20.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        ch.rss_dbm(0.0)
    with pytest.raises(ValueError):
        ch.rss_dbm(-1.0)
    with pytest.raises(ValueError):
        ch.path_loss_db(0.0)
    np.testing.assert_allclose(ch.rss_dbm(np.array([1.0, 10.0])), [0.0, 10.0], atol=1e-15)
