import math
import re
import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from lumenrem import channel as ch
from lumenrem import dataset
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
    c = ch._constants(sc)
    with pytest.raises(ValueError, match="coincides"):
        ch._los_gain_block(c, c.m[0], np.asarray(tx.position), np.array([tx.position]))


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
    assert math.isclose((pa.edges_u * pa.edges_v).sum(), 2 * 5.0 * 3.0 + 2 * 5.0 * 3.0,
                        rel_tol=1e-9)


def _normals(pa):
    """(N, 3) inward unit normals built from each patch's wall axis and sign."""
    normals = np.zeros((len(pa), 3))
    normals[np.arange(len(pa)), pa.axis] = pa.sign
    return normals


def test_discretize_walls_non_divisible_edge():
    """Edge 0.3 on a 5 m extent rounds the count up and shrinks patches to fit."""
    room = Room(5.0, 5.0, 3.0)
    pa = ch._PatchArrays.from_room(room, 0.3)
    nu, nv = math.ceil(5.0 / 0.3), math.ceil(3.0 / 0.3)
    assert len(pa) == 4 * nu * nv
    assert math.isclose((pa.edges_u * pa.edges_v).sum(), 60.0, rel_tol=1e-9)
    # every patch is strictly inside its wall plane and normals point inward
    for (x, y, z), normal in zip(pa.centers, _normals(pa)):
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


def _meshgrid_tiling(room, edge):
    """Per-wall meshgrid tiling, written independently of `from_room`:
    centres, normals and edges of the walls x=0, x=lx, y=0, y=ly in turn."""
    parts = []
    for axis, offset, normal, extent in [
        ("x", 0.0, (1.0, 0.0, 0.0), room.ly), ("x", room.lx, (-1.0, 0.0, 0.0), room.ly),
        ("y", 0.0, (0.0, 1.0, 0.0), room.lx), ("y", room.ly, (0.0, -1.0, 0.0), room.lx),
    ]:
        nu = math.ceil(extent / edge - 1e-12)
        nv = math.ceil(room.lz / edge - 1e-12)
        du, dv = extent / nu, room.lz / nv
        uu, vv = np.meshgrid((np.arange(nu) + 0.5) * du, (np.arange(nv) + 0.5) * dv,
                             indexing="ij")
        uu, vv = uu.ravel(), vv.ravel()
        wall = np.full_like(uu, offset)
        centers = np.column_stack([wall, uu, vv] if axis == "x" else [uu, wall, vv])
        parts.append((centers, np.tile(normal, (len(uu), 1)),
                      np.full(len(uu), du), np.full(len(uu), dv)))
    return [np.concatenate(arrays) for arrays in zip(*parts)]


@pytest.mark.parametrize("room, edge", [
    (preset_scene("small").room, 0.2),
    (preset_scene("mid").room, 0.2),
    (preset_scene("big").room, 0.2),
    (variable_scene(3.7, 6.1).room, 0.2),
    (variable_scene(7.0, 3.0).room, 0.13),
    (Room(5.0, 5.0, 3.0), 0.3),  # non-divisible edge
])
def test_tiling_matches_per_wall_meshgrid(room, edge):
    pa = ch._PatchArrays.from_room(room, edge)
    centers, normals, edges_u, edges_v = _meshgrid_tiling(room, edge)
    for got, want in [(pa.centers, centers), (_normals(pa), normals),
                      (pa.edges_u, edges_u), (pa.edges_v, edges_v)]:
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_discretize_walls_bad_edge():
    room = Room(5.0, 5.0, 3.0)
    with pytest.raises(ValueError):
        ch._PatchArrays.from_room(room, 0.0)
    with pytest.raises(ValueError):
        ch._PatchArrays.from_room(room, 10.0)


def test_tiling_over_the_patch_bound_is_refused_before_any_allocation():
    """The bound admits 2 cm patches in the largest preset room and in the
    largest varying room; a finer tiling is refused, naming the room and the
    edge, before its arrays exist."""
    assert len(ch._PatchArrays.from_room(preset_scene("big").room, 0.02)) <= ch._MAX_PATCHES
    assert len(ch._PatchArrays.from_room(variable_scene(7.0, 7.0).room, 0.02)) <= ch._MAX_PATCHES
    for room, edge in ((Room(5.0, 5.0, 3.0), 0.001), (Room(1e5, 5.0, 3.0), 0.2),
                       (Room(1e300, 1e300, 3.0), 0.2)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=re.escape(
                    f"patch edge {edge} m tiles the walls of the {room.lx} x {room.ly} x "
                    f"{room.lz} m room with ")) as info:
                ch._PatchArrays.from_room(room, edge)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"more than the {ch._MAX_PATCHES:,} a tiling may hold" in str(info.value)
        assert peak < 64 * 1024


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
    if d2 == 0.0:  # the receiver on a sub-patch centre lies in its plane: it adds 0
        return 0.0
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
    for center, normal, eu, ev in zip(pa.centers.tolist(), _normals(pa).tolist(),
                                      pa.edges_u.tolist(), pa.edges_v.tolist()):
        total += _naive_term(tx, rx_pos, center, normal, eu, ev, m, math.cos(fov), 0)
    return total * (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * rho * rx.filter_gain * g


def _near_wall(wall, depth, along, z):
    """A point `depth` m in front of one of the four walls of the 5 x 5 m room."""
    across = (depth, 5.0 - depth)[wall % 2]
    return (across, along, z) if wall < 2 else (along, across, z)


# up to four 0.5 m patch edges from a wall, the wall plane itself included:
# every such receiver has pairs that are refined
_NEAR_WALL = st.tuples(st.integers(0, 3), st.floats(0.0, 2.0), st.floats(0.0, 5.0),
                       st.floats(0.0, 1.7)).map(lambda t: _near_wall(*t))


@settings(max_examples=100, deadline=None)
@given(pos=_NEAR_WALL)
@example(pos=(2.5, 2.5, 1.0))
@example(pos=(0.4, 4.2, 0.3))
@example(pos=(4.9, 0.2, 1.7))
@example(pos=(0.0, 0.5 / 2**13, 0.5 / 2**13))  # on the wall, at a depth-12 sub-patch centre
def test_nlos_gain_matches_naive_loop(pos):
    sc = preset_scene("mid")
    tx, rx = sc.transmitters[0], sc.receiver
    pa = ch._PatchArrays.from_room(sc.room, 0.5)  # coarse keeps the loop fast
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
        with pytest.raises(ValueError, match=re.escape(f"receiver position {bad} outside")):
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
        assert (p_los[i], p_nlos[i]) == (bd.p_los_mw, bd.p_nlos_mw)


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
    for batch in (1, 7):  # refined pairs per batch, splitting a row's pairs
        monkeypatch.setattr(ch, "_REFINE_BATCH", batch)
        small = ch.received_power_many(sc, pts)
        np.testing.assert_array_equal(default[0], small[0])
        np.testing.assert_array_equal(default[1], small[1])


def _rooms_and_rows(seed: int):
    """Three rooms, one with four LEDs, each with rows inside it, the first
    rows of each on its x = 0 wall (refined to full depth)."""
    scenes = [variable_scene(3.0, 4.5), variable_scene(6.2, 3.3, led_count=4),
              preset_scene("small")]
    rng = np.random.default_rng(seed)
    blocks = []
    for sc, n in zip(scenes, (90, 40, 120)):
        room = sc.room
        pts = np.column_stack([rng.uniform(0, room.lx, n), rng.uniform(0, room.ly, n),
                               rng.uniform(0, 1.7, n)])
        pts[:5, 0] = 0.0
        blocks.append(pts)
    return scenes, blocks


def test_received_power_rooms_matches_one_call_per_room():
    """A many-room call gives each room's rows the bits its own call gives them."""
    scenes, blocks = _rooms_and_rows(8)
    p_los, p_nlos = ch.received_power_rooms(scenes, blocks)
    start = 0
    for sc, pts in zip(scenes, blocks):
        one = ch.received_power_many(sc, pts)
        np.testing.assert_array_equal(p_los[start:start + len(pts)], one[0])
        np.testing.assert_array_equal(p_nlos[start:start + len(pts)], one[1])
        start += len(pts)
    assert start == len(p_los)


def test_received_power_rooms_chunk_size_invariant(monkeypatch):
    """Same bits in a many-room call whatever the chunk size and the
    refinement batch."""
    scenes, blocks = _rooms_and_rows(9)
    default = ch.received_power_rooms(scenes, blocks)
    for chunk, batch in ((ch._CHUNK_PAIRS, ch._REFINE_BATCH), (1, 1), (1, 7), (5000, 7)):
        monkeypatch.setattr(ch, "_CHUNK_PAIRS", chunk)
        monkeypatch.setattr(ch, "_REFINE_BATCH", batch)
        other = ch.received_power_rooms(scenes, blocks)
        np.testing.assert_array_equal(default[0], other[0])
        np.testing.assert_array_equal(default[1], other[1])


def test_received_power_rooms_starts_no_thread(monkeypatch):
    """Every chunk of a call, however many, runs on the calling thread."""
    scenes = [preset_scene("small"), preset_scene("mid", 4)]
    rng = np.random.default_rng(12)
    blocks = [rng.uniform(0.0, 1.0, (n, 3)) * [s.room.lx, s.room.ly, 1.7]
              for s, n in zip(scenes, (200, 300))]
    # several full chunks in each room
    assert all(len(b) * len(ch._PatchArrays.from_room(s.room, ch.DEFAULT_PATCH_EDGE_M))
               > 4 * ch._CHUNK_PAIRS for s, b in zip(scenes, blocks))

    def refuse(thread):
        raise AssertionError(f"a thread was started: {thread!r}")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    ch.received_power_rooms(scenes, blocks)


def test_received_power_rooms_rejects_a_row_outside_its_room():
    small, big = preset_scene("small"), preset_scene("big")
    ch.received_power_rooms([small, big], [[(1.0, 1.0, 1.0)], [(5.0, 5.0, 1.0)]])
    with pytest.raises(ValueError, match=r"receiver position \(5.0, 5.0, 1.0\) outside"):
        ch.received_power_rooms([big, small], [[(1.0, 1.0, 1.0)], [(5.0, 5.0, 1.0)]])
    with pytest.raises(ValueError, match="2 scenes but 1 position blocks"):
        ch.received_power_rooms([small, big], [[(1.0, 1.0, 1.0)]])


_SCENES = st.builds(variable_scene, st.floats(3.0, 7.0), st.floats(3.0, 7.0), st.sampled_from([1, 4]))


@st.composite
def _row_in_a_batch(draw):
    """A scene, a batch of rows in its room (one of them drawn near or on a
    wall) and the index of that row."""
    sc = draw(_SCENES)
    room = sc.room
    fractions = st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.7 / 3.0))
    rows = draw(st.lists(fractions, min_size=1, max_size=6))
    pts = np.array(rows) * [room.lx, room.ly, room.lz]
    i = draw(st.integers(0, len(pts) - 1))
    pts[i, draw(st.integers(0, 1))] = draw(st.sampled_from([0.0, 1e-3, 0.05]))
    return sc, pts, i


@settings(max_examples=30, deadline=None)
@given(case=_row_in_a_batch(), others=st.lists(_SCENES, max_size=2), at=st.integers(0, 2))
def test_single_batched_and_many_room_powers_are_the_same_bits(case, others, at):
    """A position's LOS and NLOS powers are the same bits from
    `received_power`, inside a `received_power_many` batch of its room, and
    inside a `received_power_rooms` call among other rooms."""
    sc, pts, i = case
    bd = ch.received_power(sc, pts[i], patch_edge_m=0.5)
    p_los, p_nlos = ch.received_power_many(sc, pts, patch_edge_m=0.5)
    assert (p_los[i], p_nlos[i]) == (bd.p_los_mw, bd.p_nlos_mw)
    scenes = list(others)
    blocks = [np.array([[o.room.lx / 2, o.room.ly / 3, 1.0]] * 3) for o in others]
    at = min(at, len(scenes))
    scenes.insert(at, sc)
    blocks.insert(at, pts)
    row = sum(len(b) for b in blocks[:at]) + i
    p_los, p_nlos = ch.received_power_rooms(scenes, blocks, patch_edge_m=0.5)
    assert (p_los[row], p_nlos[row]) == (bd.p_los_mw, bd.p_nlos_mw)


def test_refinement_queue_memory_does_not_grow_with_rows():
    """Close pairs are refined as the queue fills, so four times the rows
    near a wall add only their output arrays (about 100 bytes a row) to the
    traced peak, not their close pairs (about 50 a row, over 5 KB if queued whole)."""
    sc = preset_scene("small")
    rng = np.random.default_rng(10)
    n = 1000
    pts = np.column_stack([rng.uniform(0.0, 0.3, 4 * n), rng.uniform(0, 3, 4 * n),
                           rng.uniform(0, 1.7, 4 * n)])

    def peak(rows):
        tracemalloc.start()
        try:
            ch.received_power_many(sc, rows)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(pts) - peak(pts[:n]) < 3 * n * 300


def _patches_below(pa, z):
    """Indices of the patches whose top edge is at or below height z."""
    return np.nonzero(pa.centers[:, 2] + 0.5 * pa.edges_v <= z)[0]


@settings(max_examples=60, deadline=None)
@given(edge=st.sampled_from([0.1, 0.2, 0.3, 0.5]), wall=st.integers(0, 3),
       depth=st.floats(0.0, 1.0), along=st.floats(0.0, 5.0), z=st.floats(0.0, 2.9),
       led=st.integers(0, 3), fov=st.floats(10.0, 90.0))
@example(edge=0.5, wall=0, depth=0.0, along=2.5, z=1.0, led=0, fov=85.0)  # on a top edge
@example(edge=0.1, wall=2, depth=0.05, along=1.05, z=1.5, led=3, fov=90.0)
def test_a_patch_at_or_below_the_receiver_plane_refines_to_exactly_zero(
        edge, wall, depth, along, z, led, fov):
    """A close patch whose top edge is at or below the receiver's plane adds
    exactly 0.0 when refined, whether its close sub-patches are split at every
    depth (the pruning test switched off) or left as the channel leaves them."""
    sc = preset_scene("mid", led_count=4)
    pa = ch._PatchArrays.from_room(sc.room, edge)
    pos = np.array(_near_wall(wall, depth * 4.0 * edge, along, z))
    below = _patches_below(pa, z)
    close = below[np.linalg.norm(pos - pa.centers[below], axis=1) < 4.0 * edge]
    assume(len(close))
    k = len(close)
    q = ch._Pairs(np.arange(k), np.tile(pos, (k, 1)),
                  np.tile(sc.transmitters[led].position, (k, 1)), pa.centers[close],
                  pa.axis[close], pa.sign[close], pa.edges_u[close], pa.edges_v[close])
    m = ch.lambertian_order(sc.transmitters[led].hpa_deg)
    cos_fov = math.cos(math.radians(fov))
    assert ch._refined_terms(m, cos_fov, q).tolist() == [0.0] * k
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch, "_rises_above", lambda center_z, edge_v, rx_z: np.ones(len(rx_z), bool))
        assert ch._refined_terms(m, cos_fov, q).tolist() == [0.0] * k


def test_only_close_pairs_rising_above_the_receiver_plane_are_refined(monkeypatch):
    """The pairs that reach refinement are exactly the close (row, patch,
    LED) triples whose patch top edge is above the row's height, counted by
    brute force over every row and patch."""
    sc = preset_scene("mid", led_count=4)
    edge = 0.5
    pa = ch._PatchArrays.from_room(sc.room, edge)
    rng = np.random.default_rng(17)
    rows = [_near_wall(w, d, a, z) for w, d, a, z in zip(
        rng.integers(0, 4, 40), rng.uniform(0.0, 2.0, 40), rng.uniform(0.0, 5.0, 40),
        rng.uniform(0.0, 1.7, 40))]
    rows += [(0.3, 2.2, 1.0), (2.6, 0.0, 1.5), (4.9, 4.9, 0.5)]  # on top-edge heights
    reached = []

    def record(m, cos_fov, q):
        reached.extend(zip(q.lane.tolist(), map(tuple, q.centers.tolist()),
                           (q.centers[:, 2] + 0.5 * q.edges_v).tolist(), q.rx[:, 2].tolist()))
        return refine(m, cos_fov, q)

    refine = ch._refined_terms
    monkeypatch.setattr(ch, "_refined_terms", record)
    ch.received_power_many(sc, rows, patch_edge_m=edge)
    assert all(top > rx_z for *_, top, rx_z in reached)
    want, skipped = [], 0
    for i, (x, y, z) in enumerate(rows):
        for (cx, cy, cz), ev in zip(pa.centers.tolist(), pa.edges_v.tolist()):
            dx, dy, dz = x - cx, y - cy, z - cz
            if math.sqrt(dx * dx + dy * dy + dz * dz) < 4.0 * edge:
                if cz + 0.5 * ev > z:
                    want += [(4 * i + t, (cx, cy, cz)) for t in range(4)]
                else:
                    skipped += 4
    assert want and skipped
    assert len(reached) == len(want)
    assert sorted(pair[:2] for pair in reached) == sorted(want)


def test_refinement_prunes_through_rises_above(monkeypatch):
    """Refinement asks `_rises_above` at every depth which close sub-patches
    to split, by that module name: the exactly-zero property above patches
    it, and against an inlined copy of the test its patch would do nothing
    and the property would still pass."""
    sc = preset_scene("mid", led_count=4)
    edge = 0.5
    pa = ch._PatchArrays.from_room(sc.room, edge)
    pos = np.array([0.05, 2.4, 1.1])  # 5 cm from the x = 0 wall
    close = np.nonzero(np.linalg.norm(pos - pa.centers, axis=1) < 4.0 * edge)[0]
    close = close[ch._rises_above(pa.centers[close, 2], pa.edges_v[close], pos[2])]
    k = len(close)
    q = ch._Pairs(np.arange(k), np.tile(pos, (k, 1)), np.tile(sc.transmitters[0].position, (k, 1)),
                  pa.centers[close], pa.axis[close], pa.sign[close], pa.edges_u[close],
                  pa.edges_v[close])
    m, cos_fov = ch.lambertian_order(sc.transmitters[0].hpa_deg), math.cos(math.radians(85.0))
    flagged, asked = [], []
    rx_geometry, rises_above = ch._rx_geometry, ch._rises_above

    def count_close(*args):
        g = rx_geometry(*args)
        flagged.append(0 if g.close is None else int(g.close.sum()))
        return g

    def ask(center_z, edge_v, rx_z):
        asked.append(len(rx_z))
        return rises_above(center_z, edge_v, rx_z)

    monkeypatch.setattr(ch, "_rx_geometry", count_close)
    monkeypatch.setattr(ch, "_rises_above", ask)
    sums = ch._refined_terms(m, cos_fov, q)
    splits = [n for n in flagged if n]
    assert len(splits) >= 3
    assert [n for n in asked if n] == splits
    # and what it answers decides what is split
    monkeypatch.setattr(ch, "_rises_above",
                        lambda center_z, edge_v, rx_z: np.zeros(len(rx_z), bool))
    assert ch._refined_terms(m, cos_fov, q).tolist() != sums.tolist()


# ---------------------------------------------------------------------------
# Height-ordered chunks: each meets only the patch rows above its lowest row
# ---------------------------------------------------------------------------

def _top_edge_heights(pa, lz):
    """Every computed patch top edge, both float neighbours of each, the floor
    and, when the highest top edge lies below the ceiling, a height above it:
    every height at which a height cut could be off by one patch row."""
    tops = np.unique(pa.centers[:, 2] + 0.5 * pa.edges_v)
    heights = {0.0, *tops.tolist(), *np.nextafter(tops, -np.inf).tolist(),
               *np.nextafter(tops, np.inf).tolist()}
    return sorted(z for z in heights if 0.0 <= z < lz)


def _wall_point(room, wall, depth, along, z):
    """A point `depth` m in front of wall x=0, x=lx, y=0 or y=ly (0-3)."""
    if wall < 2:
        return ((depth, room.lx - depth)[wall], min(along, room.ly), z)
    return (min(along, room.lx), (depth, room.ly - depth)[wall - 2], z)


@st.composite
def _rows_at_patch_top_edges(draw):
    """A 1- or 4-LED room, a patch edge, 2 to 6 rows on or near its walls at
    the heights of `_top_edge_heights`, and a permutation of the rows."""
    sc = variable_scene(draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0)),
                        draw(st.sampled_from([1, 4])))
    # 0.11, 0.29 and 0.35 tile a 3 m wall with a top edge just below it
    edge = draw(st.one_of(st.sampled_from([0.1, 0.11, 0.29, 0.35, 0.5]), st.floats(0.1, 0.5)))
    room = sc.room
    heights = _top_edge_heights(ch._PatchArrays.from_room(room, edge), room.lz)
    rows = [_wall_point(room, draw(st.integers(0, 3)),
                        draw(st.sampled_from([0.0, 0.25, 1.0, 4.5])) * edge,
                        draw(st.floats(0.0, 7.0)), draw(st.sampled_from(heights)))
            for _ in range(draw(st.integers(2, 6)))]
    return sc, edge, np.array(rows), draw(st.permutations(range(len(rows))))


_TOP = 2.9999999999999996  # the highest top edge of 0.35 m patches on a 3 m wall


@settings(max_examples=30, deadline=None)
@given(case=_rows_at_patch_top_edges())
@example(case=(variable_scene(5.0, 5.0, 4), 0.35,
               np.array([[0.0, 2.5, _TOP], [0.05, 1.0, 1.0], [2.5, 0.1, math.nextafter(1.0, 0.0)],
                         [4.9, 4.0, 2.0], [1.0, 5.0, 0.0]]), [2, 0, 4, 1, 3]))
def test_height_ordered_chunks_give_every_row_its_own_bits(case):
    """Rows at, just below and just above every patch top edge get the bits
    of their own one-row calls from `received_power_many`, in any order, and
    with the default chunk or two rows a chunk, so a chunk whose height cut
    drops one patch row too many fails."""
    sc, edge, rows, perm = case
    want = [ch.received_power(sc, p, patch_edge_m=edge) for p in rows]
    want = [(bd.p_los_mw, bd.p_nlos_mw) for bd in want]
    two_rows = 2 * len(ch._PatchArrays.from_room(sc.room, edge))
    for chunk in (ch._CHUNK_PAIRS, two_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ch, "_CHUNK_PAIRS", chunk)
            for order in (list(range(len(rows))), list(perm)):
                p_los, p_nlos = ch.received_power_many(sc, rows[order], patch_edge_m=edge)
                assert list(zip(p_los.tolist(), p_nlos.tolist())) == [want[i] for i in order]


@settings(max_examples=30, deadline=None)
@given(case=_rows_at_patch_top_edges())
def test_each_led_lane_keeps_the_bits_of_its_one_led_scene(case):
    """Each LED's LOS and NLOS power at a row are the bits of the one-LED
    scene that holds only that LED, one row at a time and in a many-row
    call, with the default chunk or two rows a chunk, so a light pass that
    reads another LED's leg or a geometry not shared exactly fails."""
    sc, edge, rows, _ = case
    want = [[ch.received_power(replace(sc, transmitters=(tx,)), p, patch_edge_m=edge).per_tx[0]
             for tx in sc.transmitters] for p in rows]
    assert [list(ch.received_power(sc, p, patch_edge_m=edge).per_tx) for p in rows] == want
    two_rows = 2 * len(ch._PatchArrays.from_room(sc.room, edge))
    for chunk in (ch._CHUNK_PAIRS, two_rows):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ch, "_CHUNK_PAIRS", chunk)
            los, nlos = ch._lane_powers([sc], [rows], edge)
        assert [list(zip(a, b)) for a, b in zip(los.tolist(), nlos.tolist())] == want


def test_height_ordered_chunks_compute_only_the_patch_rows_above_them(monkeypatch):
    """A 50 x 50 map at 1 m runs the midpoint kernel on the 1,000 of the 1,500
    patches whose top edge is above 1 m, and refines 25,952 close pairs into
    198,592 sub-patches."""
    counts = {"terms": 0, "sub-patches": 0, "pairs": 0}
    rx_geometry, refined_terms = ch._rx_geometry, ch._refined_terms

    def count_terms(*args):
        g = rx_geometry(*args)
        counts["terms" if g.d2_sq.ndim == 3 else "sub-patches"] += g.d2_sq.size
        return g

    def count_pairs(m, cos_fov, q):
        counts["pairs"] += len(q.lane)
        return refined_terms(m, cos_fov, q)

    monkeypatch.setattr(ch, "_rx_geometry", count_terms)
    monkeypatch.setattr(ch, "_refined_terms", count_pairs)
    xy = (np.arange(50) + 0.5) * 0.1
    gx, gy = np.meshgrid(xy, xy)
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(2500, 1.0)])
    ch.received_power_many(preset_scene("mid"), pos)
    assert counts == {"terms": 2500 * 1000, "sub-patches": 198_592, "pairs": 25_952}


def test_a_chunk_computes_its_geometry_once_for_all_its_leds(monkeypatch):
    """A 4-LED 50 x 50 map at 1 m computes the midpoint geometry of its
    2,500 x 1,000 (row, patch) pairs once, and runs the light pass on four
    times as many terms, one pass per LED."""
    counts = {"geometry": 0, "light": 0}
    rx_geometry, rx_light = ch._rx_geometry, ch._rx_light

    def count_geometry(*args):
        g = rx_geometry(*args)
        if g.d2_sq.ndim == 3:  # the wall grid, not refinement's flat sub-patches
            counts["geometry"] += g.d2_sq.size
        return g

    def count_light(led_leg, g, out=None):
        term = rx_light(led_leg, g, out)
        if term.ndim == 3:
            counts["light"] += term.size
        return term

    monkeypatch.setattr(ch, "_rx_geometry", count_geometry)
    monkeypatch.setattr(ch, "_rx_light", count_light)
    xy = (np.arange(50) + 0.5) * 0.1
    gx, gy = np.meshgrid(xy, xy)
    pos = np.column_stack([gx.ravel(), gy.ravel(), np.full(2500, 1.0)])
    ch.received_power_many(preset_scene("mid", 4), pos)
    assert counts == {"geometry": 2500 * 1000, "light": 4 * 2500 * 1000}


# ---------------------------------------------------------------------------
# Close pairs from the plane distance; LED legs from wall offsets
# ---------------------------------------------------------------------------

def _close_distance_rows(pa, j):
    """Rows in front of patch j: on its centre, and at its column's close-range
    distance and one ulp inside it, at its height on the line through its centre
    along the wall normal. On an x = 0 or y = 0 wall these in-plane distances
    are exact, so d2 is exactly the close-range distance, or one ulp under it."""
    center = pa.centers[j].tolist()
    near = 4.0 * max(float(pa.edges_u[j]), float(pa.edges_v[j]))
    axis, sign = int(pa.axis[j]), float(pa.sign[j])
    rows = [center]
    for d in (near, math.nextafter(near, 0.0)):
        row = list(center)
        row[axis] += sign * d
        rows.append(row)
    return rows


@st.composite
def _rows_at_the_close_distance(draw):
    """A 1- or 4-LED room of 3 to 7 m, a patch edge, and 3 to 12 rows, lowest
    first: on a wall plane, on a patch centre, at exactly a column's
    close-range distance or one ulp inside it, or anywhere near a wall."""
    sc = variable_scene(draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0)),
                        draw(st.sampled_from([1, 4])))
    edge = draw(st.one_of(st.sampled_from([0.1, 0.2, 0.29, 0.5]), st.floats(0.1, 0.5)))
    room = sc.room
    pa = ch._PatchArrays.from_room(room, edge)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        rows += _close_distance_rows(pa, draw(st.integers(0, len(pa) - 1)))
    rows += [_wall_point(room, draw(st.integers(0, 3)),
                         draw(st.sampled_from([0.0, 0.0, 0.5, 1.0, 3.9, 4.0])) * edge,
                         draw(st.floats(0.0, 7.0)), draw(st.floats(0.0, 2.9)))
             for _ in range(draw(st.integers(0, 3)))]
    rows = np.array([row for row in rows if row[0] <= room.lx and row[1] <= room.ly
                     and row[2] < room.lz])
    assume(len(rows))
    return sc, edge, rows[np.argsort(rows[:, 2], kind="stable")]


def _mid_close_distance_case():
    """Rows at the close-range distance of the lowest patch of the mid room's
    x = 0 and y = 0 walls and of a patch of its x = 5 wall, and one ulp inside."""
    sc = variable_scene(5.0, 5.0, 4)
    pa = ch._PatchArrays.from_room(sc.room, 0.2)
    rows = np.array([r for j in (0, 750, 383)
                     for r in _close_distance_rows(pa, j)])
    return sc, 0.2, rows[np.argsort(rows[:, 2], kind="stable")]


@settings(max_examples=60, deadline=None)
@given(case=_rows_at_the_close_distance())
@example(case=_mid_close_distance_case())
def test_the_grid_finds_the_close_pairs_of_the_whole_block_rule(case):
    """The close pairs `start_chunk` finds from each (row, column) plane
    distance, and the terms it leaves out, are those of the whole-block
    rule: d2 < near over every (row, patch row, column) pair of the chunk's
    geometry, then the close mask's nonzeros in (rows, columns, patch rows)
    order, which is the tiling's order within each row. Rows exactly at a
    column's close-range distance and one ulp inside it make a candidate
    radius one ulp short miss a close pair."""
    sc, edge, rows = case
    room = ch._TiledRoom(ch._constants(sc), edge)
    lanes = ch._Lanes(len(rows), len(sc.transmitters))
    with pytest.MonkeyPatch.context() as mp:  # every close pair, seen or not
        mp.setattr(ch, "_rises_above", lambda center_z, edge_v, rx_z: np.ones(len(rx_z), bool))
        r, c = room.start_chunk(rows, lanes)
    g, near = room.g, room.columns[4]
    close = np.sqrt(g.d2_sq) < near
    keep = (g.cos_beta > 0) & (g.cos_psi >= room.cos_fov) & ~close
    assert np.array_equal(g.drop, ~keep)
    want_r, column, row = np.nonzero(close.transpose(0, 2, 1))
    assert r.tolist() == want_r.tolist()
    assert c.tolist() == (column * room.patch_rows + room.cut + row).tolist()


_FOUR_WALLS = st.tuples(st.integers(0, 3), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
                        st.integers(0, 12))


@settings(max_examples=60, deadline=None)
@given(side=st.tuples(st.floats(3.0, 7.0), st.floats(3.0, 7.0)),
       leds=st.sampled_from([1, 4]), edge=st.floats(0.1, 0.5),
       subpatches=st.lists(st.tuples(_FOUR_WALLS, st.integers(0, 3)), min_size=1, max_size=20))
def test_the_led_leg_has_the_same_bits_from_centres_or_wall_offsets(side, leds, edge,
                                                                    subpatches):
    """`_led_leg` gives the same bits whether its offsets come from the wall
    grid, a column's x and y and a patch row's height minus the LED position
    (`_PatchArrays.led_legs`), or from a pair's fixed wall offsets and a
    sub-patch's tangent and height, as refinement builds them, for
    sub-patches on all four walls, any depth, and one LED position per
    sub-patch."""
    sc = variable_scene(*side, leds)
    room = sc.room
    extent = (room.ly, room.ly, room.lx, room.lx)
    wall, along, up, depth = np.array([w for w, _ in subpatches], dtype=float).T
    wall = wall.astype(int)
    axis, sign = (wall >= 2).astype(int), ch._WALL_SIGNS[wall]
    plane = np.where(wall % 2 == 0, 0.0, np.where(axis == 0, room.lx, room.ly))
    t, z = along * np.take(extent, wall), up * np.nextafter(room.lz, 0.0)
    centers = np.empty((len(wall), 3))
    centers[np.arange(len(wall)), axis], centers[np.arange(len(wall)), 1 - axis] = plane, t
    centers[:, 2] = z
    tx = np.array([sc.transmitters[i % leds].position for _, i in subpatches])
    sub_edge = edge / 2.0 ** depth
    areas = sub_edge ** 2
    m = ch.lambertian_order(sc.transmitters[0].hpa_deg)
    x_wall = axis == 0
    v1 = centers - tx
    pair = np.arange(len(wall))
    tx_n = plane - tx[pair, axis]
    v1_wall = ch._leg_offsets(x_wall, tx_n, t - tx[pair, 1 - axis], z - tx[:, 2])
    assert v1_wall.tobytes() == v1.tobytes()
    assert (-tx_n * sign).tobytes() == (-np.where(x_wall, v1[:, 0], v1[:, 1]) * sign).tobytes()
    # each sub-patch as the one patch of a one-column grid
    grid = [ch._PatchArrays(*map(np.array, ([cx], [cy], [a], [s], [e], [cz])), e)
            .led_legs(p, m)[0, 0]
            for (cx, cy, cz), a, s, e, p in zip(centers.tolist(), axis, sign, sub_edge, tx)]
    assert (ch._led_leg(v1_wall, -tx_n * sign, m, areas).tobytes()
            == np.array(grid).tobytes())


@pytest.mark.parametrize("on_patch, beside", [
    ((0.0, 0.1, 0.1), (0.0, 0.1000001, 0.1)),  # x = 0 wall
    ((0.1, 0.0, 0.1), (0.1000001, 0.0, 0.1)),  # y = 0 wall
    # the centre of a sub-patch 12 splits deep, on the x = 0 wall
    ((0.0, 2.4000244140625, 1.4000244140625), (0.0, 2.4000245140625, 1.4000244140625)),
])
def test_receiver_on_a_wall_patch_centre(on_patch, beside):
    """A receiver exactly on a (sub-)patch centre is refined like any close
    pair, without a division warning, and agrees with a point 0.1 um away."""
    sc = preset_scene("mid")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at = ch.received_power(sc, on_patch).total_mw
        p_los, p_nlos = ch.received_power_many(sc, [on_patch, beside])
    assert math.isfinite(at)
    assert math.isclose(at, ch.received_power(sc, beside).total_mw, rel_tol=1e-6)
    assert p_los[0] + p_nlos[0] == at


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


# ---------------------------------------------------------------------------
# Small rooms sharing a chunk
# ---------------------------------------------------------------------------

_EDGE = 0.5  # coarse patches keep the per-row reference calls fast


@st.composite
def _small_room(draw):
    """A room with 1 or 4 LEDs, the default or a 60 deg FOV receiver, and now
    and then one LED of another half-power angle, and 1 to 9 rows in it, some
    on or near a wall."""
    sc = variable_scene(draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0)),
                        draw(st.sampled_from([1, 4])))
    if draw(st.booleans()):
        sc = replace(sc, receiver=Receiver(fov_deg=60.0))
    if draw(st.integers(0, 3)) == 0:
        txs = list(sc.transmitters)
        t = draw(st.integers(0, len(txs) - 1))
        txs[t] = replace(txs[t], hpa_deg=45.0)
        sc = replace(sc, transmitters=tuple(txs))
    room = sc.room
    rows = []
    for _ in range(draw(st.integers(1, 9))):
        x, y = draw(st.floats(0.0, room.lx)), draw(st.floats(0.0, room.ly))
        wall = draw(st.sampled_from([None, None, 0, 1, 2, 3]))
        if wall is not None:
            off = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.3]))
            if wall < 2:
                x = (off, room.lx - off)[wall]
            else:
                y = (off, room.ly - off)[wall - 2]
        rows.append((x, y, draw(st.floats(0.0, 1.7))))
    return sc, np.array(rows)


def _triples(sc, n_rows):
    """A room's (row, LED, patch) triples at the test's patch edge."""
    nu, nv = ch._wall_counts(sc.room, _EDGE)
    return n_rows * len(sc.transmitters) * sum(nu) * nv


@settings(max_examples=40, deadline=None)
@given(rooms=st.lists(_small_room(), min_size=1, max_size=6))
def test_each_row_of_small_rooms_sharing_a_chunk_keeps_its_own_bits(rooms):
    """Every row of a many-room call gets the bits of its own one-row call,
    whether each room's rows have a chunk of their own (chunk bound 1), three
    rooms share one, or the default bound decides."""
    scenes, blocks = [sc for sc, _ in rooms], [rows for _, rows in rooms]
    want = [ch.received_power(sc, p, patch_edge_m=_EDGE)
            for sc, rows in rooms for p in rows]
    few = 4 * sum(_triples(sc, len(rows)) for sc, rows in rooms[:3])  # a quarter is shared
    for chunk in (1, few, ch._CHUNK_PAIRS):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ch, "_CHUNK_PAIRS", chunk)
            p_los, p_nlos = ch.received_power_rooms(scenes, blocks, patch_edge_m=_EDGE)
        assert list(zip(p_los.tolist(), p_nlos.tolist())) == [
            (bd.p_los_mw, bd.p_nlos_mw) for bd in want]


def test_rooms_share_a_chunk_only_with_the_same_receiver_and_lambertian_order():
    plain = variable_scene(4.0, 5.0)
    narrow = replace(plain, receiver=Receiver(fov_deg=60.0))
    four = variable_scene(4.0, 5.0, 4)
    mixed = replace(four, transmitters=(replace(four.transmitters[0], hpa_deg=45.0),
                                        *four.transmitters[1:]))
    steep = replace(plain, transmitters=(replace(plain.transmitters[0], hpa_deg=45.0),))
    scenes = [plain, plain, narrow, narrow, plain, mixed, mixed, four, steep, steep]
    ones = [1] * len(scenes)  # one row and one patch a room
    assert ch._room_groups(scenes, ones, ones) == [
        [0, 1], [2, 3], [4], [5], [6], [7], [8, 9]]
    # nor with a room of another height (other patch rows) or LED count: the
    # 2.8 m small and 3.5 m big presets beside 3 m rooms, the 3 m mid preset
    # among them
    small, mid, big = (preset_scene(name) for name in ("small", "mid", "big"))
    scenes = [plain, small, small, plain, big, big, mid, plain, four, four, plain, small]
    ones = [1] * len(scenes)
    assert ch._room_groups(scenes, ones, ones) == [
        [0], [1, 2], [3], [4, 5], [6, 7], [8, 9], [10], [11]]


@st.composite
def _preset_or_variable_room(draw):
    """A small, mid or big preset room, or a 3 m room of 3 to 7 m sides, with
    1 or 4 LEDs, and 1 to 3 rows in it, some on or near a wall."""
    leds = draw(st.sampled_from([1, 4]))
    name = draw(st.sampled_from(["small", "mid", "big", None, None]))
    sc = (preset_scene(name, leds) if name else
          variable_scene(draw(st.floats(3.0, 7.0)), draw(st.floats(3.0, 7.0)), leds))
    room = sc.room
    rows = [_wall_point(room, draw(st.integers(0, 3)),
                        draw(st.sampled_from([0.0, 0.05, 0.3, 1.5])),
                        draw(st.floats(0.0, 7.0)), draw(st.floats(0.0, 1.7)))
            for _ in range(draw(st.integers(1, 3)))]
    return sc, np.array(rows)


@settings(max_examples=30, deadline=None)
@given(rooms=st.lists(_preset_or_variable_room(), min_size=2, max_size=8))
def test_rooms_of_other_heights_and_led_counts_keep_each_rows_bits(rooms):
    """Preset and 3 m rooms with 1 and 4 LEDs side by side in one call, the
    rooms of one height and LED count sharing chunks: every row gets the
    bits of its own one-row call, LED by LED."""
    scenes, blocks = [sc for sc, _ in rooms], [rows for _, rows in rooms]
    want = [ch.received_power(sc, p, patch_edge_m=_EDGE).per_tx
            for sc, rows in rooms for p in rows]
    los, nlos = ch._lane_powers(scenes, blocks, _EDGE)
    leds = [len(sc.transmitters) for sc, rows in rooms for _ in rows]
    assert [tuple(zip(a[:t], b[:t])) for a, b, t in zip(los.tolist(), nlos.tolist(), leds)] == want


def _handed_to_refinement(scenes, blocks):
    """Per lane, the close pairs a call hands to the refinement queue, in
    order: each pair's receiver, LED and patch fields."""
    handed, put = {}, ch._RefineQueue.put

    def record(self, key, q):
        for lane, *pair in zip(q.lane.tolist(), q.rx.tolist(), np.asarray(q.tx).tolist(),
                               q.centers.tolist(), q.axis.tolist(), q.sign.tolist(),
                               q.edges_u.tolist(), q.edges_v.tolist()):
            handed.setdefault(lane, []).append((key, *pair))
        put(self, key, q)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ch._RefineQueue, "put", record)
        ch.received_power_rooms(scenes, blocks, patch_edge_m=_EDGE)
    return handed


def _near_walls(leds, sides):
    """One-row 3 m rooms, each row 5 cm in front of a wall."""
    return [(sc, np.array([_wall_point(sc.room, i % 4, 0.05, 1.3 * i, 0.4 + 0.1 * i)]))
            for i, sc in enumerate(variable_scene(a, b, leds) for a, b in sides)]


@settings(max_examples=30, deadline=None)
@given(rooms=st.lists(_preset_or_variable_room(), min_size=2, max_size=8))
@example(rooms=_near_walls(1, [(3.0, 4.0), (5.5, 3.2), (6.9, 6.1), (4.4, 4.4)])
         + _near_walls(4, [(3.3, 6.0), (5.0, 5.0), (7.0, 3.0)]))
def test_a_shared_chunk_hands_each_lane_its_own_rooms_close_pairs_in_order(rooms):
    """Every lane's close pairs reach `_RefineQueue.put` as the same pairs,
    in the same order, as in its own room's call: the order in which the
    queue adds a lane's refined terms, so its sum keeps its bits."""
    scenes, blocks = [sc for sc, _ in rooms], [rows for _, rows in rooms]
    width = max(len(sc.transmitters) for sc in scenes)
    want, start = {}, 0
    for sc, rows in rooms:
        for lane, pairs in _handed_to_refinement([sc], [rows]).items():
            row, t = divmod(lane, len(sc.transmitters))
            want[(start + row) * width + t] = pairs
        start += len(rows)
    assert _handed_to_refinement(scenes, blocks) == want


def test_four_led_rooms_share_chunks_and_keep_their_bits(monkeypatch):
    """The one-row 4-LED rooms of `generate_reference_variable` share chunks,
    fewer tilings than rooms, and each row keeps the bits of its own
    one-row call."""
    tiled, from_room = [], ch._PatchArrays.from_room

    def record(room, patch_edge_m):
        tiled.append(1 if isinstance(room, Room) else len(room))
        return from_room(room, patch_edge_m)

    monkeypatch.setattr(ch._PatchArrays, "from_room", record)
    ds = dataset.generate_reference_variable(4, 60, seed=3)
    assert sum(tiled) == 60 and len(tiled) < 60 / 3
    monkeypatch.undo()
    for (x, y, z, lx, ly), rss in zip(ds.features.tolist(), ds.rss_dbm.tolist()):
        assert rss == ch.rss_dbm(ch.received_power(variable_scene(lx, ly, 4), (x, y, z)).total_mw)


def test_small_rooms_are_tiled_a_chunk_at_a_time(monkeypatch):
    """300 one-row rooms take one tiling per shared chunk, every room tiled
    once, and give each row the bits of its own room's call."""
    rng = np.random.default_rng(21)
    scenes = [variable_scene(a, b) for a, b in rng.uniform(3.0, 7.0, (300, 2)).tolist()]
    blocks = [rng.uniform(0.0, 1.0, (1, 3)) * [s.room.lx, s.room.ly, 1.7] for s in scenes]
    tiled = []
    from_room = ch._PatchArrays.from_room

    def record(room, patch_edge_m):
        tiled.append(1 if isinstance(room, Room) else len(room))
        return from_room(room, patch_edge_m)

    monkeypatch.setattr(ch._PatchArrays, "from_room", record)
    p_los, p_nlos = ch.received_power_rooms(scenes, blocks)
    assert sum(tiled) == 300 and len(tiled) < 300 / 3
    monkeypatch.undo()
    for i in range(0, 300, 37):
        one = ch.received_power_many(scenes[i], blocks[i])
        assert (p_los[i], p_nlos[i]) == (one[0][0], one[1][0])


def test_small_rooms_memory_stays_that_of_one_full_chunk():
    """A 300-room call's traced peak stays under twice that of one room whose
    rows fill a whole chunk: the chunks, not the call, bound the temporaries
    (one pass over all 300 rooms would hold about 450,000 pairs)."""
    rng = np.random.default_rng(22)
    scenes = [variable_scene(a, b) for a, b in rng.uniform(3.0, 7.0, (300, 2)).tolist()]
    blocks = [rng.uniform(0.0, 1.0, (1, 3)) * [s.room.lx, s.room.ly, 1.7] for s in scenes]
    mid = preset_scene("mid")  # 1,500 wall patches at the default edge
    full = rng.uniform(0.0, 1.0, (ch._CHUNK_PAIRS // 1500, 3)) * [5.0, 5.0, 1.7]

    def peak(call):
        call()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak(lambda: ch.received_power_many(mid, full))
    assert peak(lambda: ch.received_power_rooms(scenes, blocks)) < 2 * one_chunk
