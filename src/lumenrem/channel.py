"""Lambertian DC channel gains and received optical power.

The direct path uses the generalized-Lambertian LOS gain; the reflected path
integrates single-bounce contributions over a midpoint-rule tiling of the four
walls. Ceiling and floor are non-reflective, rooms are empty, and all angles
come from exact vector geometry against the fixed +/-z transceiver normals.
A wall patch carries the axis its wall is normal to and the inward sign along
that axis, so a wall cosine is one offset component times the sign over the
distance; the tiling, the midpoint kernel and close-range refinement share
this one description.

Every call is one pass: `received_power_rooms` takes the rows of any number of
rooms, `received_power_many` is its one-room call and `received_power` its
one-row call. The rows meet the wall tilings in cache-sized chunks.
Consecutive small rooms of one height share a chunk; any other room's rows
meet its own tiling in (rows, patches) blocks, taken in height order (a
stable sort), lowest first. The (row, patch) pairs too close for the
midpoint rule, from every chunk and room, wait in one refinement queue that
is refined in fixed-size batches whenever one fills. A position's powers are
the same bits whichever call, chunk or batch it falls in: a row's midpoint
sum is NumPy's pairwise sum over exactly its own room's patches wherever it
is taken.

Only what the receiver can see is refined. The receiver faces up, so a
(sub-)patch whose top edge is at or below its plane has cos(psi) <= 0 at every
point: each of its sub-patches fails the FOV test and adds exactly 0.0 at any
depth. Such a close pair, or close sub-patch, is not split; its own midpoint
term is left out as for any close pair, so it adds the same 0.0 it would have
added split, and the sums keep their bits.

The walls are a regular grid: a wall column shares its x, y and wall
normal, and a patch row its height. A block of rows meets its room's
tiling as (rows, patch rows, columns) pairs built from per-(row, column)
offsets (the squared in-plane distance dx^2 + dy^2 and the normal offset)
and per-(row, patch row) height offsets. Only the LED leg of a midpoint term
depends on the LED, so the block's geometry (d2^2, d2, cos(beta),
cos(psi), the FOV and close-range masks, the close pairs) is computed once,
and each LED then runs one light pass, ((leg / d2^2) cos(beta)) cos(psi),
over it: every term is the same expression as computed alone, so it keeps
its bits. The close pairs are the same for every LED; each LED's lanes send
them to refinement. They are looked for only where a pair can be close:
d2 is at least the in-plane distance sqrt(dx^2 + dy^2), so only the (row,
column) pairs whose in-plane distance is under the column's close-range
distance are tested, on their own patch rows.

A shared chunk is on the same grid. Its rooms lay their wall columns back
to back and share one set of patch rows, and each row meets its own room's
columns: its pairs are (row-column, patch row) pairs, built the same way,
row after row in the tiling's (column, patch row) order, so its terms sum
as they lie. Two of its rows share a patch only when they share a room,
so its LED legs are computed per row-column, one LED at a time.

Refinement works in wall coordinates. A close pair's wall plane is fixed,
and so are its receiver's and its LED's offsets along the wall normal: they
are computed once per pair, and each sub-patch adds only its tangent
coordinate and its height. The LED leg and the receiver geometry read the
same offsets, in the same order, as they would from materialized sub-patch
centres, so the sums keep their bits.

The test that prunes refinement also cuts work before any term is computed.
The rows of a block come in height order, and its geometry covers only the
patch rows whose top edge is above its lowest receiver. A patch of a row
cut is at or below every receiver of the block: its midpoint term fails the
FOV test and its refinement would add exactly 0.0. Each LED's terms are put
back in the tiling's patch order beside the 0.0 the cut rows add, so each
row still sums all its patches in the same pairwise order and keeps its
bits.

Each call derives a scene's constants once (`_constants`), from the formulas
in `scene` that its records check; no kernel computes one itself. Everything
here is pure and deterministic; the additive noise applied to training data
lives in `dataset`, keeping this module usable as ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scene import Room, Scene, _concentrator, _power_constant, lambertian_order

__all__ = [
    "DEFAULT_PATCH_EDGE_M",
    "PowerBreakdown",
    "lambertian_order",
    "concentrator_gain",
    "received_power",
    "received_power_many",
    "received_power_rooms",
    "rss_dbm",
    "path_loss_db",
]

DEFAULT_PATCH_EDGE_M = 0.2

# Positions go through the midpoint kernel in chunks of at most this many
# (position, patch) pairs, so the kernel's (chunk x patches) work arrays, the
# geometry its LEDs share and one LED's terms, stay in cache whatever the
# dataset size and the patch count.
_CHUNK_PAIRS = 1 << 15

# A room's wall tiling holds at most this many patches; every row costs one
# midpoint term per patch. 2 cm patches on the walls of the 6.5 x 6.5 x 3.5 m
# "big" preset make 227,500.
_MAX_PATCHES = 250_000


# ---------------------------------------------------------------------------
# Closed-form channel quantities
# ---------------------------------------------------------------------------

def concentrator_gain(cos_psi, fov_deg: float, n: float):
    """Non-imaging concentrator gain: n^2 / sin^2(fov) inside the FOV, else 0.

    Accepts a scalar or an ndarray of incidence cosines.
    """
    if n < 1:
        raise ValueError(f"refractive index must be >= 1, got {n}")
    if not 0 < fov_deg <= 90:
        raise ValueError(f"FOV semi-angle must be in (0, 90] degrees, got {fov_deg}")
    g_inside, cos_fov = _concentrator(fov_deg, n)
    if np.isscalar(cos_psi):
        return g_inside if cos_psi >= cos_fov else 0.0
    cos_psi = np.asarray(cos_psi, dtype=float)
    return np.where(cos_psi >= cos_fov, g_inside, 0.0)


class _Constants(NamedTuple):
    """A scene, its receiver's in-FOV concentrator gain g and FOV cosine, and
    each LED's Lambertian order m and NLOS constant k, in the scene's order."""

    scene: Scene
    g: float
    cos_fov: float
    m: tuple[float, ...]
    k: tuple[float, ...]


def _constants(scene: Scene) -> _Constants:
    """The channel constants of a scene, derived once per call."""
    rx = scene.receiver
    g, cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)
    m = tuple(lambertian_order(tx.hpa_deg) for tx in scene.transmitters)
    k = tuple(_power_constant(order, rx, g, scene.wall_reflectance) for order in m)
    return _Constants(scene, g, cos_fov, m, k)


# ---------------------------------------------------------------------------
# Wall discretization
# ---------------------------------------------------------------------------

def _wall_counts(room: Room, patch_edge_m: float) -> tuple[list[int], int]:
    """Patches along each wall (x=0, x=lx, y=0, y=ly) and up every wall of a
    room's tiling, as Python ints, so a tiling over the bound is refused
    before anything is allocated."""
    if not 0 < patch_edge_m <= min(room.lx, room.ly, room.lz):
        raise ValueError(
            f"patch edge must be in (0, min room extent], got {patch_edge_m}"
        )
    nu = [math.ceil(extent / patch_edge_m - 1e-12)
          for extent in (room.ly, room.ly, room.lx, room.lx)]
    nv = math.ceil(room.lz / patch_edge_m - 1e-12)
    if sum(nu) * nv > _MAX_PATCHES:
        raise ValueError(
            f"patch edge {patch_edge_m} m tiles the walls of the {room.lx} x {room.ly} x "
            f"{room.lz} m room with {sum(nu) * nv:,} patches, more than the "
            f"{_MAX_PATCHES:,} a tiling may hold"
        )
    return nu, nv


# the inward sign of the walls x=0, x=lx, y=0, y=ly along their normal axis
_WALL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


@dataclass(slots=True)
class _PatchArrays:
    """The wall tiling of a room, or of rooms of one height back to back,
    held as the grid it is, shared by the vector kernels.

    Each wall column has its centre's x and y, the axis its wall is normal to
    (0 for the x walls, 1 for the y walls), the sign of the inward normal
    along that axis and its edge along the wall (u); each patch row, the same
    in every column, has its height, and every patch the one edge up z (v).
    Patch (column i, patch row j) is patch i * nv + j of the tiling. The
    per-patch fields (`centers`, `axis`, `sign`, `edges_u`, `edges_v`) are
    derived from the grid when read (`patches`).
    """

    x: np.ndarray
    y: np.ndarray
    column_axis: np.ndarray
    column_sign: np.ndarray
    edge_u: np.ndarray
    heights: np.ndarray
    edge_v: float

    @classmethod
    def from_room(cls, room, patch_edge_m: float) -> "_PatchArrays":
        """The tiling of a room's walls, or of a sequence of rooms' walls of
        one height back to back, room after room, each as it would be tiled
        alone. Every room's counts are checked before anything is allocated
        (`_wall_counts`).

        A room's four walls come in a fixed order, x=0, x=lx, y=0, y=ly: the
        x walls have nx columns along y, the y walls ny columns along x. Each
        direction is tiled with exact sizes extent/count, so the tiling covers
        every wall exactly and is reflection-symmetric."""
        rooms = [room] if isinstance(room, Room) else list(room)
        counts = [_wall_counts(r, patch_edge_m) for r in rooms]
        lz, nv = rooms[0].lz, counts[0][1]
        if any(r.lz != lz for r in rooms):
            raise ValueError("rooms tiled together must share their height")
        # one entry per wall, wall after wall, room after room: its columns,
        # their edge along the wall and the wall plane's coordinate
        n, du, plane = [], [], []
        for r, (nu, _) in zip(rooms, counts):
            n += nu
            du += [r.ly / nu[0], r.ly / nu[1], r.lx / nu[2], r.lx / nu[3]]
            plane += [0.0, r.lx, 0.0, r.ly]
        n = np.array(n)
        edge_u, plane = np.repeat(du, n), np.repeat(plane, n)
        along = (np.arange(len(edge_u)) - np.repeat(np.cumsum(n) - n, n) + 0.5) * edge_u
        axis = np.repeat([0, 0, 1, 1] * len(rooms), n)
        x_wall = axis == 0
        return cls(np.where(x_wall, plane, along), np.where(x_wall, along, plane), axis,
                   np.repeat(_WALL_SIGNS.tolist() * len(rooms), n), edge_u,
                   (np.arange(nv) + 0.5) * (lz / nv), lz / nv)

    def __len__(self) -> int:
        return len(self.x) * len(self.heights)

    def take(self, columns: np.ndarray) -> "_PatchArrays":
        """The grid of the given columns, in that order, and all patch rows."""
        return _PatchArrays(self.x[columns], self.y[columns], self.column_axis[columns],
                            self.column_sign[columns], self.edge_u[columns], self.heights,
                            self.edge_v)

    def near(self) -> np.ndarray:
        """Each column's close-range distance, four times its longer edge.

        The midpoint rule degrades when the receiver sits close to a patch
        (the 1/d2^2 factor varies too much across it). Such pairs are
        re-evaluated by subdivision until every sub-patch satisfies
        edge <= d2/4, keeping the discretization error small everywhere."""
        return 4.0 * np.maximum(self.edge_u, self.edge_v)

    def led_legs(self, tx: np.ndarray, m: float) -> np.ndarray:
        """The (columns, patch rows) LED legs from an LED of order m at `tx`,
        (3,), or one per column, (columns, 3): each patch's LED -> centre
        offsets, built from its column and its patch row, are laid out as a
        C-contiguous (patches, 3) array, the same bits as materialized centres
        minus the LED position."""
        v1 = np.empty((len(self.x), len(self.heights), 3))
        v1[..., 0] = (self.x - tx[..., 0])[:, None]
        v1[..., 1] = (self.y - tx[..., 1])[:, None]
        v1[..., 2] = self.heights - tx[..., 2, None]
        # the cos(alpha) numerator: minus the offset along the wall normal
        # times the inward sign
        facing = -np.where(self.column_axis == 0, v1[:, 0, 0], v1[:, 0, 1]) * self.column_sign
        return _led_leg(v1, facing[:, None], m, (self.edge_u * self.edge_v)[:, None])

    def patches(self, j: np.ndarray | None = None) -> tuple[np.ndarray, ...]:
        """The per-patch fields of patches `j` (tiling indices), or of every
        patch in tiling order: centres (k, 3), axis, sign and the edges along
        u and v, as refinement's `_Pairs` take them."""
        nv = len(self.heights)
        if j is not None:
            column, row = np.divmod(j, nv)
            centers = np.column_stack((self.x[column], self.y[column], self.heights[row]))
            return (centers, self.column_axis[column], self.column_sign[column],
                    self.edge_u[column], np.full(len(j), self.edge_v))
        centers = np.empty((len(self.x), nv, 3))
        centers[..., 0], centers[..., 1] = self.x[:, None], self.y[:, None]
        centers[..., 2] = self.heights
        per_column = (np.repeat(a, nv) for a in (self.column_axis, self.column_sign, self.edge_u))
        return (centers.reshape(-1, 3), *per_column, np.full(len(self), self.edge_v))

    centers = property(lambda self: self.patches()[0])
    axis = property(lambda self: self.patches()[1])
    sign = property(lambda self: self.patches()[2])
    edges_u = property(lambda self: self.patches()[3])
    edges_v = property(lambda self: self.patches()[4])




# ---------------------------------------------------------------------------
# Vectorized gain kernels
# ---------------------------------------------------------------------------

def _los_gain_block(c: _Constants, m: float, tx_pos: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """LOS DC gain for a (n, 3) block of receiver positions in a scene of
    constants `c`, from an LED of order m at `tx_pos` (3,) or one per row (n, 3)."""
    delta = pos - tx_pos
    d_sq = np.einsum("ij,ij->i", delta, delta)
    if np.any(d_sq == 0.0):
        raise ValueError("receiver position coincides with a transmitter")
    d = np.sqrt(d_sq)
    cos_phi = (tx_pos[..., 2] - pos[:, 2]) / d
    visible = cos_phi > 0
    in_fov = cos_phi >= c.cos_fov
    cos_clip = np.where(visible, cos_phi, 0.0)
    rx, g = c.scene.receiver, c.g
    gain = (
        (m + 1.0) * rx.area_m2 / (2.0 * math.pi * d_sq)
        * cos_clip ** m * rx.filter_gain * g * cos_clip
    )
    return np.where(visible & in_fov, gain, 0.0)


def _leg_offsets(x_wall, normal, tangent, dz) -> np.ndarray:
    """The (k, 3) LED -> (sub-)patch offsets, in x, y, z order, of sub-patches
    given in wall coordinates: the offset along the wall normal (x on an x
    wall, y on a y wall), along the wall's tangent and up z."""
    v1 = np.empty((len(dz), 3))
    v1[:, 0] = np.where(x_wall, normal, tangent)
    v1[:, 1] = np.where(x_wall, tangent, normal)
    v1[:, 2] = dz
    return v1


def _led_leg(v1, facing, m: float, areas) -> np.ndarray:
    """LED -> (sub-)patch leg cos^m(phi) cos(alpha) A / d1^2 of each LED ->
    centre offset `v1` (x, y, z), a C-contiguous (..., 3) array, where
    `facing` is the cos(alpha) numerator, minus the offset along the wall
    normal times the inward sign; `facing` and `areas` broadcast against the
    offsets' leading shape. The offsets come from the wall grid
    (`_PatchArrays.led_legs`) or from a close pair's fixed wall offsets
    (`_leg_offsets`), with the same bits: d1^2 is read from the offsets, as
    one (k, 3) array, in x, y, z order, and the LED is -v1[..., 2] above the
    centre."""
    flat = v1.reshape(-1, 3)
    d1_sq = np.einsum("ij,ij->i", flat, flat).reshape(v1.shape[:-1])
    if np.any(d1_sq == 0.0):
        raise ValueError("a wall patch coincides with a transmitter")
    d1 = np.sqrt(d1_sq)
    cos_phi = np.negative(v1[..., 2]) / d1
    cos_alpha = facing / d1
    return np.where(
        (cos_phi > 0) & (cos_alpha > 0),
        np.where(cos_phi > 0, cos_phi, 0.0) ** m * cos_alpha * areas / d1_sq,
        0.0,
    )


class _Geometry(NamedTuple):
    """The LED-independent half of the midpoint terms of some receiver -
    patch pairs: d2^2, cos(beta), cos(psi), the terms left out (`drop`) and,
    when asked for, the close pairs among them (`close`, else None)."""

    d2_sq: np.ndarray
    cos_beta: np.ndarray
    cos_psi: np.ndarray
    drop: np.ndarray
    close: np.ndarray | None


def _rx_geometry(plane, dz, normal, cos_fov: float, near=None, out=None) -> _Geometry:
    """The geometry of the receiver - patch pairs from the squared in-plane
    offset `plane` (dx^2 + dy^2), the height offset dz and the signed normal
    offset `normal` (the offset along the wall normal times the inward sign),
    which broadcast together to the pairs' shape: on the wall grid a wall
    column's plane and normal offsets are shared by its patches and a patch
    row's dz by its columns; in refinement a pair's squared normal offset is
    fixed and only the tangent and height change. d2^2 is plane + dz^2, the
    same bits as (dx^2 + dy^2) + dz^2, and cos(beta) is `normal` over the
    patch -> receiver distance d2.

    `out` holds four arrays of the pairs' shape for d2^2, d2, cos(beta) and
    cos(psi); d2 stays in its array until the caller reuses it. With `near`,
    a pair with d2 < near is left out of the terms and flagged in `close`,
    for refinement.

    A receiver on a (sub-)patch centre (d2 = 0) lies in its plane: the 0/0
    cosines fail the acceptance test, so the term is 0 as for any coplanar patch.
    """
    d2_sq, d2, cos_beta, cos_psi = out or (None,) * 4
    d2_sq = np.add(plane, dz * dz, out=d2_sq)
    d2 = np.sqrt(d2_sq, out=d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_beta = np.divide(normal, d2, out=cos_beta)
        # the patch is -dz above the receiver plane
        cos_psi = np.divide(np.negative(dz), d2, out=cos_psi)
    # a FOV of at most 90 deg has cos_fov > 0, so this also asks cos(psi) > 0
    keep = cos_beta > 0
    keep &= cos_psi >= cos_fov
    close = None
    if near is not None:
        close = d2 < near
        keep &= ~close
    return _Geometry(d2_sq, cos_beta, cos_psi, np.logical_not(keep, out=keep), close)


def _rx_light(led_leg, g: _Geometry, out=None) -> np.ndarray:
    """Midpoint terms (without the constant k) of one LED, whose leg to each
    patch broadcasts against the pairs of `g`: ((leg / d2^2) cos(beta))
    cos(psi), and 0.0 for every term the geometry leaves out."""
    with np.errstate(divide="ignore", invalid="ignore"):
        term = np.divide(led_leg, g.d2_sq, out=out)
        term *= g.cos_beta
        term *= g.cos_psi
    np.copyto(term, 0.0, where=g.drop)
    return term


_REFINE_MAX_DEPTH = 12
# close (row, patch) pairs refined together; bounds the breadth-first arrays
_REFINE_BATCH = 1024


class _Pairs(NamedTuple):
    """Close (lane, patch) pairs waiting for refinement, one entry per pair:
    the lane whose sum the pair's terms go to, its receiver and LED positions,
    and its patch."""

    lane: np.ndarray
    rx: np.ndarray
    tx: np.ndarray
    centers: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray

    def rows(self, lo: int, hi: int | None = None) -> "_Pairs":
        return _Pairs(*(a[lo:hi] for a in self))


def _rises_above(center_z, edge_v, rx_z) -> np.ndarray:
    """Which (sub-)patches have their top edge above their receiver's plane.

    The receiver faces up, so a (sub-)patch that does not has cos(psi) <= 0
    at every point, and each of its sub-patches, at any depth, fails the FOV
    test and adds exactly 0.0: a close pair is split only when this holds.
    This holds in floating point too: under _MAX_PATCHES, a depth-12
    sub-patch's half edge is over a million ulps of its height, so rounding
    never lifts a sub-patch centre above its ancestor's top edge.
    """
    return center_z + 0.5 * edge_v > rx_z


# the children of a (sub-)patch, in the order (-,-), (-,+), (+,-), (+,+): a
# quarter edge along the wall's tangent axis (u) and up z (v)
_CHILD_U = np.array([-1.0, -1.0, 1.0, 1.0])
_CHILD_V = np.array([-1.0, 1.0, -1.0, 1.0])


def _refined_terms(m: float, cos_fov: float, q: _Pairs) -> np.ndarray:
    """Sums of the midpoint terms (without the constant k) over the sub-patches
    of each pair's patch seen from its receiver, each patch split 2x2 while a
    (sub-)patch is closer to its receiver than four times its edge and its top
    edge is above the receiver's plane, at most _REFINE_MAX_DEPTH times. The
    pairs are close and rise above the plane, so each patch starts split.

    A close sub-patch that does not rise above the plane is not split: its
    own term is left out as a close one, and its sub-patches would all add
    exactly 0.0 (`_rises_above`), so the sums are the same bits as with it
    split. The subdivision runs breadth-first over every pair at once. Each
    depth's terms are added into their pair's sum in child order (0 for a
    close sub-patch), so a pair's value does not depend on which other pairs
    share the batch.

    Sub-patches live in wall coordinates, as 1-D arrays gathered from their
    pair with `take`: a pair's wall plane is fixed, and so are its
    receiver's offset from it along the normal (its square and the cos(beta)
    numerator) and its LED's (the cos(alpha) numerator), so these are
    computed once per pair. Only the tangent coordinate and the height change
    from child to child; the LED leg reads offsets built from them
    (`_leg_offsets`), and `_rx_geometry` the squared in-plane offset
    tangent^2 + normal^2: a sum of two terms rounds the same in either
    order, so this is the bits of dx^2 + dy^2 on every wall.
    """
    pair = np.arange(len(q.lane))
    x_wall = q.axis == 0
    wall = q.centers[pair, q.axis]  # the wall plane's coordinate along its normal
    rx_n = q.rx[pair, q.axis] - wall  # receiver offset along the normal
    rx_nn, rx_normal = rx_n * rx_n, rx_n * q.sign
    tx_n = wall - q.tx[pair, q.axis]  # LED -> wall plane offset along the normal
    tx_facing = -tx_n * q.sign
    rx_t, rx_z = q.rx[pair, 1 - q.axis], q.rx[:, 2]
    tx_t, tx_z = q.tx[pair, 1 - q.axis], q.tx[:, 2]
    node = split = pair  # pair each sub-patch of this depth belongs to
    t, z, eu, ev = q.centers[pair, 1 - q.axis], q.centers[:, 2], q.edges_u, q.edges_v
    sums = np.zeros(len(pair))
    for depth in range(1, _REFINE_MAX_DEPTH + 1):
        node = node.take(split).repeat(4)
        eu, ev = eu.take(split), ev.take(split)
        t = (t.take(split)[:, None] + (0.25 * eu)[:, None] * _CHILD_U).ravel()
        z = (z.take(split)[:, None] + (0.25 * ev)[:, None] * _CHILD_V).ravel()
        eu, ev = (0.5 * eu).repeat(4), (0.5 * ev).repeat(4)
        v1 = _leg_offsets(x_wall.take(node), tx_n.take(node), t - tx_t.take(node),
                          z - tx_z.take(node))
        led_leg = _led_leg(v1, tx_facing.take(node), m, eu * ev)
        near = 4.0 * np.maximum(eu, ev) if depth < _REFINE_MAX_DEPTH else None
        plane = rx_t.take(node) - t
        plane *= plane
        plane += rx_nn.take(node)
        g = _rx_geometry(plane, rx_z.take(node) - z, rx_normal.take(node), cos_fov, near)
        np.add.at(sums, node, _rx_light(led_leg, g))
        if near is None:
            break
        (split,) = g.close.nonzero()
        split = split[_rises_above(z.take(split), ev.take(split), rx_z.take(node.take(split)))]
        if not len(split):
            break
    return sums


class _RefineQueue:
    """The close pairs of one call that rise above their receiver's plane,
    whatever chunk or room they come from, refined in full _REFINE_BATCH
    blocks as they arrive and added into their lanes' midpoint sums (`sums`,
    flat), so at most a batch waits between chunks. The other close pairs never
    come here: refined, they would add exactly 0.0 (`_rises_above`). Pairs
    wait by (Lambertian order, FOV cosine), so that `** m` and the FOV test
    take scalars, with a running count per key. A lane's pairs arrive
    together, patch after patch, and are added in that order, as a loop over
    the pairs would add them: its sum does not depend on the batching.
    """

    def __init__(self, sums: np.ndarray):
        self.sums = sums
        self.waiting: dict[tuple[float, float], list[_Pairs]] = {}
        self.counts: dict[tuple[float, float], int] = {}

    def put(self, key: tuple[float, float], pairs: _Pairs) -> None:
        self.waiting.setdefault(key, []).append(pairs)
        self.counts[key] = count = self.counts.get(key, 0) + len(pairs.lane)
        if count >= _REFINE_BATCH:
            self._refine(key, whole_batches=True)

    def drain(self) -> None:
        for key in list(self.waiting):
            self._refine(key, whole_batches=False)

    def _refine(self, key: tuple[float, float], whole_batches: bool) -> None:
        parts, n = self.waiting.pop(key), self.counts.pop(key)
        q = parts[0] if len(parts) == 1 else _Pairs(*map(np.concatenate, zip(*parts)))
        stop = n - n % _REFINE_BATCH if whole_batches else n
        for lo in range(0, stop, _REFINE_BATCH):
            batch = q.rows(lo, min(lo + _REFINE_BATCH, stop))
            np.add.at(self.sums, batch.lane, _refined_terms(*key, batch))
        if stop < n:
            self.waiting[key], self.counts[key] = [q.rows(stop)], n - stop


# ---------------------------------------------------------------------------
# Received power
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PowerBreakdown:
    """Received optical power in mW, split by path and by transmitter."""

    p_los_mw: float
    p_nlos_mw: float
    per_tx: tuple[tuple[float, float], ...]

    @property
    def total_mw(self) -> float:
        return self.p_los_mw + self.p_nlos_mw


class _TiledRoom:
    """A scene's wall tiling and the LED leg of each patch, made once per
    call, and the midpoint geometry of the current chunk of rows.

    Every wall column shares its x, y, wall axis and sign, and every patch
    row its height, so a chunk's (row, patch) pairs are laid out as (rows,
    patch rows, columns) and built from per-(row, column) and per-(row,
    patch row) offsets. The LED legs are kept in the (patch rows, columns)
    layout, so the patch rows above a height cut are a slice of them."""

    def __init__(self, c: _Constants, patch_edge_m: float):
        self.pa = pa = _PatchArrays.from_room(c.scene.room, patch_edge_m)
        self.cos_fov = c.cos_fov
        self.patch_rows = len(pa.heights)
        self.led_legs = [np.ascontiguousarray(pa.led_legs(np.asarray(tx.position), m).T)
                         for tx, m in zip(c.scene.transmitters, c.m)]
        # per column: centre x and y, wall axis mask, sign and close-range
        # distance; per patch row: height and top edge, the sum `_rises_above`
        # takes, which never falls as the row rises
        self.columns = (pa.x, pa.y, pa.column_axis == 0, pa.column_sign, pa.near())
        self.heights = pa.heights
        self.tops = pa.heights + 0.5 * pa.edge_v
        self.patches = pa.patches()  # each patch's fields, as `_Pairs` takes them

    def start_chunk(self, pos: np.ndarray, lanes: "_Lanes"):
        """Compute the LED-independent midpoint geometry of a chunk of rows,
        lowest first, and return the (rows, patches) of the close pairs left
        out of its terms whose patch rises above the row's receiver plane,
        the only ones to refine, in patch order within each row.

        The geometry covers only the patch rows whose top edge is above the
        chunk's lowest receiver. A patch of a row cut is at or below every
        receiver's plane, so its term and, were it close, its refinement are
        exactly 0.0 (`_rises_above`); the cut is a start index on the patch
        row axis.

        Close pairs are looked for only where a pair can be close: the
        (row, column) candidates whose in-plane distance sqrt(dx^2 + dy^2) is
        under the column's close-range distance. Adding dz^2 and a correctly
        rounded square root never lower a value, so d2 >= that distance and
        no close pair is missed. d2 < near is tested on the candidates'
        patch rows alone, and the close pairs, read off that (candidates,
        patch rows) array, come row after row, column after column, patch
        row after patch row: the tiling's order within each row."""
        cx, cy, x_wall, sign, near = self.columns
        nv, n = self.patch_rows, len(pos)
        self.cut = cut = int(np.searchsorted(self.tops, pos[0, 2], side="right"))
        *out, self.full = lanes.work(*[(n, nv - cut, len(cx))] * 4, (n, len(cx), nv))
        dx = pos[:, 0, None, None] - cx
        dy = pos[:, 1, None, None] - cy
        dz = pos[:, 2, None, None] - self.heights[cut:, None]
        plane = dx * dx
        plane += dy * dy
        self.g = g = _rx_geometry(plane, dz, np.where(x_wall, dx, dy) * sign, self.cos_fov,
                                  None, out)
        self.term = d2 = out[1]  # d2's array, reused for the terms
        self.full[:, :, :cut] = 0.0
        r, column = np.nonzero(np.sqrt(plane[:, 0]) < near)
        close = d2[r, :, column] < near[column, None]
        g.drop[r, :, column] |= close
        pair, row = np.nonzero(close)
        r, c = r[pair], column[pair] * nv + cut + row  # the patch's index in the tiling
        seen = _rises_above(self.heights[cut + row], self.pa.edge_v, pos[r, 2])
        return r[seen], c[seen]

    def midpoint_sums(self, t: int) -> np.ndarray:
        """Per-row midpoint-rule sum over the patches (without the constant k)
        for transmitter t on the current chunk: one light pass over its
        geometry, the terms put back in the tiling's patch order beside the
        0.0 the rows cut add, so each row's sum is NumPy's pairwise sum over
        all its room's patches, the same bits as with no cut."""
        term = _rx_light(self.led_legs[t][self.cut:], self.g, out=self.term)
        self.full[:, :, self.cut:] = term.transpose(0, 2, 1)
        return self.full.reshape(len(term), -1).sum(axis=1)


class _Lanes:
    """What one call fills for every (row, transmitter) lane, each an (n, T)
    array: LOS power, midpoint sum, NLOS constant k and LED power. The
    refinement queue adds into the sums; the midpoint temporaries share one
    work buffer, reused chunk after chunk and grown when a chunk needs more."""

    def __init__(self, n: int, width: int):
        self.width = width
        self.los, self.sums, self.k, self.power = (np.zeros((n, width)) for _ in range(4))
        self.queue = _RefineQueue(self.sums.reshape(-1))
        self._buffer = np.empty(0)

    def work(self, *shapes: tuple[int, ...]) -> list[np.ndarray]:
        """Temporaries of the given shapes, back to back in the work buffer."""
        sizes = [math.prod(shape) for shape in shapes]
        if self._buffer.size < sum(sizes):
            self._buffer = np.empty(sum(sizes))
        return [self._buffer[end - size:end].reshape(shape)
                for shape, size, end in zip(shapes, sizes, itertools.accumulate(sizes))]


def _one_room(c: _Constants, pos: np.ndarray, lo: int, hi: int, lanes: _Lanes,
              patch_edge_m: float) -> None:
    """Rows lo:hi of `pos`, all in the scene's room, lowest first (a stable
    sort by height), in (rows, patches) chunks of at most _CHUNK_PAIRS pairs
    (one row at least) against the room's tiling. Each chunk's midpoint
    geometry is computed once, against only the patch rows above its lowest
    row (`_TiledRoom.start_chunk`), so the cut rises chunk after chunk; then
    each LED runs one light pass over it and sends the chunk's close pairs,
    the same for every LED, to refinement for its own lanes."""
    room = _TiledRoom(c, patch_edge_m)
    step = max(1, _CHUNK_PAIRS // len(room.pa))
    order = lo + np.argsort(pos[lo:hi, 2], kind="stable")
    for a in range(0, hi - lo, step):
        rows = order[a:a + step]
        p = pos[rows]
        r, j = room.start_chunk(p, lanes)
        close = _Pairs(rows[r] * lanes.width, p[r], None, *(field[j] for field in room.patches))
        for t, (tx, m, k) in enumerate(zip(c.scene.transmitters, c.m, c.k)):
            lanes.los[rows, t] = tx.power_mw * _los_gain_block(c, m, np.asarray(tx.position), p)
            lanes.sums[rows, t] = room.midpoint_sums(t)
            lanes.k[rows, t], lanes.power[rows, t] = k, tx.power_mw
            if len(r):
                lanes.queue.put((m, c.cos_fov), close._replace(
                    lane=close.lane + t, tx=np.broadcast_to(tx.position, (len(r), 3))))


def _shared_chunk(consts, spans, patches, pos: np.ndarray, lanes: _Lanes,
                  patch_edge_m: float) -> None:
    """The rows of several whole rooms in one chunk on the wall grid: one
    tiling of all their walls back to back, one geometry pass over all
    their rows, then one LOS and one light pass per LED.

    Room i has constants consts[i], rows spans[i] = (first, count) of `pos`
    (the rooms are consecutive) and patches[i] wall patches. The rooms share
    their height, so one set of patch rows, their receiver, their LED count
    and one Lambertian order (`_room_groups`), so `** m` and the FOV test
    take the scalars each room's own chunk gives them.

    Each row meets its own room's columns: its (column, patch row) pairs are
    built from per-(row, column) plane and normal offsets and the row's
    height offsets, row after row, in the tiling's order within each row. So
    a lane's midpoint sum is NumPy's pairwise sum over exactly its own room's
    patches, and its close pairs, looked for as `_TiledRoom.start_chunk`
    does, reach the refinement queue in the order its room's own chunk gives
    them: every lane keeps its bits.
    """
    pa = _PatchArrays.from_room([c.scene.room for c in consts], patch_edge_m)
    nv = len(pa.heights)
    c0, lo = consts[0], spans[0][0]
    m, cos_fov = c0.m[0], c0.cos_fov
    count = np.array([n for _, n in spans])
    p = pos[lo:lo + count.sum()]
    columns = np.array(patches) // nv
    width = np.repeat(columns, count)  # each row's columns
    # every row's copy of its own room's columns, row after row
    first = np.repeat(np.cumsum(columns) - columns, count) - (np.cumsum(width) - width)
    grid = pa.take(np.arange(width.sum()) + np.repeat(first, width))
    p_rc = np.repeat(p, width, axis=0)
    dx, dy = p_rc[:, 0] - grid.x, p_rc[:, 1] - grid.y
    plane = dx * dx
    plane += dy * dy
    normal = np.where(grid.column_axis == 0, dx, dy) * grid.column_sign
    out = lanes.work(*[(len(p_rc), nv)] * 4)
    dz = np.subtract(p_rc[:, 2, None], pa.heights, out=out[3])  # cos(psi) overwrites it
    g = _rx_geometry(plane[:, None], dz, normal[:, None], cos_fov, None, out)
    # the close pairs, looked for as `_TiledRoom.start_chunk` does: row after
    # row, column after column, patch row after patch row
    d2, near = out[1], grid.near()
    (rc,) = np.nonzero(np.sqrt(plane) < near)
    close = d2[rc] < near[rc, None]
    g.drop[rc] |= close
    pair, row = np.nonzero(close)
    rc = rc[pair]
    seen = _rises_above(pa.heights[row], pa.edge_v, p_rc[rc, 2])
    rc, row = rc[seen], row[seen]
    r = np.repeat(np.arange(len(p)), width)[rc]  # each close pair's row
    close = grid.patches(rc * nv + row)

    rows = slice(lo, lo + len(p))
    leds = np.array([[(*tx.position, tx.power_mw, k) for tx, k in zip(c.scene.transmitters, c.k)]
                     for c in consts]).repeat(count, axis=0)  # (rows, LEDs, 5)
    for t in range(leds.shape[1]):
        tx, power, k = leds[:, t, :3], leds[:, t, 3], leds[:, t, 4]
        lanes.los[rows, t] = power * _los_gain_block(c0, m, tx, p)
        lanes.k[rows, t], lanes.power[rows, t] = k, power
        term = _rx_light(grid.led_legs(np.repeat(tx, width, axis=0), m), g, out=d2).reshape(-1)
        end = 0
        for (a, n), size in zip(spans, patches):
            lanes.sums[a:a + n, t] = term[end:end + n * size].reshape(n, size).sum(axis=1)
            end += n * size
        if len(r):
            lanes.queue.put((m, cos_fov), _Pairs((lo + r) * lanes.width + t, p[r], tx[r], *close))


def _check_inside(scenes, counts, pos: np.ndarray) -> None:
    """Every row of the (n, 3) positions inside its scene's room, `counts[i]`
    rows for scene i in turn."""
    ext = np.repeat(np.array([(s.room.lx, s.room.ly, s.room.lz) for s in scenes],
                             dtype=float).reshape(-1, 3), counts, axis=0)
    ok = np.all(pos >= 0, axis=1) & np.all(pos[:, :2] <= ext[:, :2], axis=1) & (pos[:, 2] < ext[:, 2])
    if not np.all(ok):
        bad = pos[~ok][0].tolist()
        raise ValueError(f"receiver position {tuple(bad)} outside the room (or on the ceiling)")


# Both chunk layouts stay. 300 one-row rooms (generate_reference_variable)
# take 2.6 times as long with every room a grid chunk of its own as in
# shared chunks (2-CPU VM, best of 15 calls, the same bits either way); a
# room alone in its run, or too big to share one, keeps its grid chunks,
# whose rows come in height order so that each cuts the patch rows below it.
def _room_groups(scenes, counts, patches) -> list[list[int]]:
    """The scenes, by index, in runs of consecutive whole rooms that share one
    chunk: their (row, patch) pairs fit in half of _CHUNK_PAIRS together, and
    they share their height, so one set of patch rows, their receiver, their
    LED count and one half-power angle, so one Lambertian order, for every
    LED. Any other room is a run of its own.

    Per (row, patch) pair, a shared chunk holds the four geometry arrays a
    grid chunk holds and, one LED at a time, that LED's offsets, leg and
    their temporaries: about twice as much, so half of _CHUNK_PAIRS keeps
    its traced peak under twice that of one full grid chunk (1.6 times for
    300 one-row rooms).
    """
    budget = _CHUNK_PAIRS // 2
    groups, pairs, key = [], 0, None
    for i, (scene, count, size) in enumerate(zip(scenes, counts, patches)):
        size *= count
        angles = {tx.hpa_deg for tx in scene.transmitters}
        room_key = ((angles.pop(), scene.receiver, scene.room.lz, len(scene.transmitters))
                    if len(angles) == 1 else None)
        if not groups or room_key is None or room_key != key or pairs + size > budget:
            groups.append([])
            pairs = 0
        groups[-1].append(i)
        pairs, key = pairs + size, room_key
    return groups


def _lane_powers(scenes, positions, patch_edge_m: float) -> tuple[np.ndarray, np.ndarray]:
    """LOS and NLOS power (mW) of every (row, transmitter) lane, two (n, T)
    arrays: the rows of `positions[i]` in scene i's room, room after room, and
    T the most transmitters of any scene (a scene with fewer leaves its other
    lanes 0).

    Everything runs on the calling thread, in chunks of at most _CHUNK_PAIRS
    (row, patch) pairs that share one work buffer. Consecutive small rooms
    share a chunk (`_shared_chunk`): one tiling and one geometry pass for all
    their rows, then one LOS and light pass per LED. A room alone in its run,
    or too big to share one, is split by rows into grid chunks (`_one_room`).
    Every chunk's close pairs that rise above their receiver's plane join one
    refinement queue.
    """
    blocks = [np.asarray(p, dtype=float).reshape(-1, 3) for p in positions]
    if len(blocks) != len(scenes):
        raise ValueError(f"{len(scenes)} scenes but {len(blocks)} position blocks")
    counts = [len(b) for b in blocks]
    pos = np.concatenate(blocks) if blocks else np.empty((0, 3))
    _check_inside(scenes, counts, pos)
    # every tiling is checked against the patch bound before anything is built
    patches = [sum(nu) * nv for nu, nv in (_wall_counts(s.room, patch_edge_m) for s in scenes)]
    starts = np.cumsum([0] + counts).tolist()
    consts = [_constants(s) for s in scenes]
    lanes = _Lanes(len(pos), max((len(s.transmitters) for s in scenes), default=1))
    for group in _room_groups(scenes, counts, patches):
        if len(group) == 1:
            i = group[0]
            _one_room(consts[i], pos, starts[i], starts[i + 1], lanes, patch_edge_m)
        else:
            _shared_chunk([consts[i] for i in group], [(starts[i], counts[i]) for i in group],
                          [patches[i] for i in group], pos, lanes, patch_edge_m)
    lanes.queue.drain()
    return lanes.los, lanes.power * (lanes.k * lanes.sums)


def _add_transmitters(lanes: np.ndarray) -> np.ndarray:
    """Per-row sums of (n, T) lane powers, transmitter after transmitter."""
    total = np.zeros(len(lanes))
    for column in lanes.T:
        total += column
    return total


def received_power(scene: Scene, rx_pos, patch_edge_m: float = DEFAULT_PATCH_EDGE_M) -> PowerBreakdown:
    """Deterministic received power at one position, LOS/NLOS per transmitter:
    the one-row call of `received_power_rooms`, with the same bits."""
    los, nlos = _lane_powers([scene], [np.asarray(rx_pos, dtype=float).reshape(1, 3)],
                             patch_edge_m)
    per_tx = tuple(zip(los[0].tolist(), nlos[0].tolist()))
    return PowerBreakdown(
        p_los_mw=sum(p for p, _ in per_tx),
        p_nlos_mw=sum(p for _, p in per_tx),
        per_tx=per_tx,
    )


def received_power_many(
    scene: Scene, positions, patch_edge_m: float = DEFAULT_PATCH_EDGE_M
) -> tuple[np.ndarray, np.ndarray]:
    """Total LOS and NLOS received power (mW) for an (n, 3) array of positions:
    the one-room call of `received_power_rooms`."""
    return received_power_rooms([scene], [positions], patch_edge_m)


def received_power_rooms(
    scenes, positions, patch_edge_m: float = DEFAULT_PATCH_EDGE_M
) -> tuple[np.ndarray, np.ndarray]:
    """Total LOS and NLOS received power (mW) at the rows of `positions[i]`
    (an (n_i, 3) array) in the room of `scenes[i]`, room after room, in one
    pass.

    A row's powers are the same bits whichever rooms and rows share the call
    and whatever the chunk size.
    """
    los, nlos = _lane_powers(scenes, positions, patch_edge_m)
    return _add_transmitters(los), _add_transmitters(nlos)


# ---------------------------------------------------------------------------
# Decibel conversions
# ---------------------------------------------------------------------------

def rss_dbm(p_mw):
    """Optical power in mW to RSS in dBm. Vectorizes over ndarrays.

    Scalars go through the same log10 kernel as arrays so that a value
    converted alone is bit-identical to the same value inside a batch.
    """
    arr = np.asarray(p_mw, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("received power must be positive to express in dBm")
    out = 10.0 * np.log10(arr)
    return float(out) if arr.ndim == 0 else out


def path_loss_db(h0: float) -> float:
    """Path loss in dB of a total DC gain."""
    if h0 <= 0:
        raise ValueError("DC gain must be positive to express a path loss")
    return -10.0 * math.log10(h0)
