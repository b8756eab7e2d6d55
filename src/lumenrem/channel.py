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
Consecutive small rooms share a chunk, with one tiling of all their walls
back to back and one LED-leg, LOS and midpoint pass over all their rows; any
other room's rows meet its own tiling in (rows, patches) blocks, taken in
height order (a stable sort), lowest first. The (row, patch) pairs too close
for the midpoint rule, from every chunk and room, wait in one refinement
queue that is refined in fixed-size batches whenever one fills. A position's
powers are the same bits whichever call, chunk or batch it falls in: a row's
midpoint sum is NumPy's pairwise sum over exactly its own room's patches
wherever it is taken.

Only what the receiver can see is refined. The receiver faces up, so a
(sub-)patch whose top edge is at or below its plane has cos(psi) <= 0 at every
point: each of its sub-patches fails the FOV test and adds exactly 0.0 at any
depth. Such a close pair, or close sub-patch, is not split; its own midpoint
term is left out as for any close pair, so it adds the same 0.0 it would have
added split, and the sums keep their bits.

The same test cuts work before any term is computed. Every wall column has
the same rows of patches, so a block of rows in height order runs the
midpoint kernel only on the patch rows whose top edge is above its lowest
receiver. A patch of a row cut is at or below every receiver of the block:
its midpoint term fails the FOV test and its refinement would add exactly
0.0. The cut terms are written as the 0.0 they are, in place, so each row
still sums all its patches in the same pairwise order and keeps its bits.

Everything here is pure and deterministic; the additive noise applied to
training data lives in `dataset`, keeping this module usable as ground truth.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .scene import Receiver, Room, Scene, Transmitter

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
# (position, patch) pairs, so the kernel's (chunk x patches) work arrays stay
# in cache whatever the dataset size and the patch count.
_CHUNK_PAIRS = 1 << 15

# A room's wall tiling holds at most this many patches; every row costs one
# midpoint term per patch. 2 cm patches on the walls of the 6.5 x 6.5 x 3.5 m
# "big" preset make 227,500.
_MAX_PATCHES = 250_000


# ---------------------------------------------------------------------------
# Closed-form channel quantities
# ---------------------------------------------------------------------------

def lambertian_order(hpa_deg: float) -> float:
    """Lambertian order m = -ln 2 / ln cos(half-power semi-angle)."""
    if not 0 < hpa_deg < 90:
        raise ValueError(f"half-power semi-angle must be in (0, 90) degrees, got {hpa_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(hpa_deg)))


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


def _concentrator(fov_deg: float, n: float) -> tuple[float, float]:
    """In-FOV concentrator gain n^2 / sin^2(fov) and the FOV acceptance cosine."""
    fov_rad = math.radians(fov_deg)
    return n ** 2 / math.sin(fov_rad) ** 2, math.cos(fov_rad)


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


@dataclass(slots=True)
class _PatchArrays:
    """Struct-of-arrays view of the wall tiling, shared by the vector kernels.

    A patch is its centre, the axis its wall is normal to (0 for the x walls,
    1 for the y walls), the sign of the inward normal along that axis, and its
    edges along the wall (u) and up z (v).
    """

    centers: np.ndarray
    axis: np.ndarray
    sign: np.ndarray
    edges_u: np.ndarray
    edges_v: np.ndarray

    @classmethod
    def from_room(cls, room, patch_edge_m: float) -> "_PatchArrays":
        """The tiling of a room's walls, or of a sequence of rooms' walls back
        to back, room after room, each as it would be tiled alone. Every
        room's counts are checked before anything is allocated (`_wall_counts`)."""
        rooms = [room] if isinstance(room, Room) else list(room)
        counts = [_wall_counts(r, patch_edge_m) for r in rooms]
        parts = [_wall_patches(r, nu[0], nu[2], nv) for r, (nu, nv) in zip(rooms, counts)]
        return cls(*(parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))))

    def __len__(self) -> int:
        return len(self.centers)


_WALL_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])


def _wall_patches(room: Room, nx: int, ny: int, nv: int):
    """One room's `_PatchArrays` fields. Its four walls come in a fixed order,
    x=0, x=lx, y=0, y=ly: the x walls have nx columns along y, the y walls ny
    columns along x, and every column nv patches up z, wall by wall, u-major
    (patch (iu, iv) of a wall is iu * nv + iv). Each direction is tiled with
    exact sizes extent/count, so the tiling covers every wall exactly and is
    reflection-symmetric; a column's centre along its wall and a patch row's
    height are each computed once and broadcast."""
    du_x, du_y, dv = room.ly / nx, room.lx / ny, room.lz / nv
    centers = np.empty((2 * (nx + ny), nv, 3))
    x_walls = centers[:2 * nx].reshape(2, nx, nv, 3)
    x_walls[..., 0] = np.array([0.0, room.lx])[:, None, None]
    x_walls[..., 1] = ((np.arange(nx) + 0.5) * du_x)[:, None]
    y_walls = centers[2 * nx:].reshape(2, ny, nv, 3)
    y_walls[..., 0] = ((np.arange(ny) + 0.5) * du_y)[:, None]
    y_walls[..., 1] = np.array([0.0, room.ly])[:, None, None]
    centers[..., 2] = (np.arange(nv) + 0.5) * dv
    on_x = 2 * nx * nv  # patches on the x walls
    axis = np.zeros(len(centers) * nv, dtype=int)
    axis[on_x:] = 1
    edges_u = np.full(len(axis), du_y)
    edges_u[:on_x] = du_x
    sign = np.repeat(_WALL_SIGNS, [nx * nv, nx * nv, ny * nv, ny * nv])
    return centers.reshape(-1, 3), axis, sign, edges_u, np.full(len(axis), dv)


# ---------------------------------------------------------------------------
# Vectorized gain kernels
# ---------------------------------------------------------------------------

def _los_gain_block(tx: Transmitter, rx: Receiver, pos: np.ndarray, tx_pos=None) -> np.ndarray:
    """LOS DC gain for a (n, 3) block of receiver positions, from `tx` or,
    given `tx_pos` (n, 3), from an LED of tx's half-power angle per row."""
    tx_pos = np.asarray(tx.position) if tx_pos is None else tx_pos
    delta = pos - tx_pos
    d_sq = np.einsum("ij,ij->i", delta, delta)
    if np.any(d_sq == 0.0):
        raise ValueError("receiver position coincides with a transmitter")
    d = np.sqrt(d_sq)
    cos_phi = (tx_pos[..., 2] - pos[:, 2]) / d
    m = lambertian_order(tx.hpa_deg)
    g, cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)
    visible = cos_phi > 0
    in_fov = cos_phi >= cos_fov
    cos_clip = np.where(visible, cos_phi, 0.0)
    gain = (
        (m + 1.0) * rx.area_m2 / (2.0 * math.pi * d_sq)
        * cos_clip ** m * rx.filter_gain * g * cos_clip
    )
    return np.where(visible & in_fov, gain, 0.0)


def _led_leg(tx_pos: np.ndarray, m: float, centers, x_wall, sign, areas) -> np.ndarray:
    """LED -> (sub-)patch leg cos^m(phi) cos(alpha) A / d1^2 of each (k, 3)
    centre, from one LED position (3,) or one per centre (k, 3)."""
    v1 = centers - tx_pos
    d1_sq = np.einsum("ij,ij->i", v1, v1)
    if np.any(d1_sq == 0.0):
        raise ValueError("a wall patch coincides with a transmitter")
    d1 = np.sqrt(d1_sq)
    cos_phi = (tx_pos[..., 2] - centers[:, 2]) / d1
    cos_alpha = -np.where(x_wall, v1[:, 0], v1[:, 1]) * sign / d1
    return np.where(
        (cos_phi > 0) & (cos_alpha > 0),
        np.where(cos_phi > 0, cos_phi, 0.0) ** m * cos_alpha * areas / d1_sq,
        0.0,
    )


def _rx_leg(dx, dy, dz, x_wall, sign, led_leg, cos_fov: float, near=None, work=None):
    """Midpoint terms (without the constant k) from per-component receiver -
    patch offsets: (rows, patches) against a tiling's per-patch walls, or one
    flat (receiver, sub-patch) list. cos(beta) is the offset along the wall
    normal over the patch -> receiver distance d2.

    The kernel works in place: it overwrites the offsets and keeps its two
    other temporaries, the returned terms one of them, in `work` when given.
    With `near`, a pair with d2 < near (per patch) is left out of the terms and
    flagged in the returned mask, for refinement; without, the mask is None.

    A receiver on a (sub-)patch centre (d2 = 0) lies in its plane: the 0/0
    cosines fail the acceptance test, so the term is 0 as for any coplanar patch.
    """
    d2_sq, d2 = (np.empty_like(dx), np.empty_like(dx)) if work is None else work
    np.multiply(dx, dx, out=d2_sq)
    np.multiply(dy, dy, out=d2)
    d2_sq += d2
    np.multiply(dz, dz, out=d2)
    d2_sq += d2
    np.sqrt(d2_sq, out=d2)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos_beta = dy
        np.copyto(cos_beta, dx, where=x_wall)  # the offset along the wall normal
        cos_beta *= sign
        cos_beta /= d2
        cos_psi = np.negative(dz, out=dz)  # the patch is -dz above the receiver plane
        cos_psi /= d2
        term = np.divide(led_leg, d2_sq, out=d2_sq)
        term *= cos_beta
        term *= cos_psi
    # a FOV of at most 90 deg has cos_fov > 0, so this also asks cos(psi) > 0
    keep = cos_beta > 0
    keep &= cos_psi >= cos_fov
    if near is not None:
        near = d2 < near
        keep &= ~near
    np.copyto(term, 0.0, where=~keep)
    return term, near


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
    pair with `take`: a pair's wall plane and its receiver's offset from it
    along the normal are fixed, and only the tangent coordinate and the
    height change from child to child. The receiver offsets go to `_rx_leg`
    as (tangent, normal, z), the normal one where a y wall has it; their
    squares add in either order to the same bits.
    """
    pair = np.arange(len(q.lane))
    x_wall = q.axis == 0
    plane = q.centers[pair, q.axis]
    rx_n = q.rx[pair, q.axis] - plane  # receiver offset along the normal
    rx_t, rx_z = q.rx[pair, 1 - q.axis], q.rx[:, 2]
    node = split = pair  # pair each sub-patch of this depth belongs to
    t, z, eu, ev = q.centers[pair, 1 - q.axis], q.centers[:, 2], q.edges_u, q.edges_v
    sums = np.zeros(len(pair))
    for depth in range(1, _REFINE_MAX_DEPTH + 1):
        node = node.take(split).repeat(4)
        eu, ev = eu.take(split), ev.take(split)
        t = (t.take(split)[:, None] + (0.25 * eu)[:, None] * _CHILD_U).ravel()
        z = (z.take(split)[:, None] + (0.25 * ev)[:, None] * _CHILD_V).ravel()
        eu, ev = (0.5 * eu).repeat(4), (0.5 * ev).repeat(4)
        on_x, sign, wall = x_wall.take(node), q.sign.take(node), plane.take(node)
        centers = np.empty((len(node), 3))
        centers[:, 0] = np.where(on_x, wall, t)
        centers[:, 1] = np.where(on_x, t, wall)
        centers[:, 2] = z
        led_leg = _led_leg(q.tx.take(node, axis=0), m, centers, on_x, sign, eu * ev)
        near = 4.0 * np.maximum(eu, ev) if depth < _REFINE_MAX_DEPTH else None
        term, near = _rx_leg(rx_t.take(node) - t, rx_n.take(node), rx_z.take(node) - z,
                             False, sign, led_leg, cos_fov, near)
        np.add.at(sums, node, term)
        if near is None:
            break
        (split,) = near.nonzero()
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
    """A scene's wall tiling and per-transmitter constants, made once per call,
    and the patches of it that rise above the current height cut."""

    def __init__(self, scene: Scene, patch_edge_m: float):
        self.pa = pa = _PatchArrays.from_room(scene.room, patch_edge_m)
        rx = scene.receiver
        g, self.cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)
        x_wall = pa.axis == 0
        # The midpoint rule degrades when the receiver sits close to a patch
        # (the 1/d2^2 factor varies too much across it). Such pairs are
        # re-evaluated by subdivision until every sub-patch satisfies
        # edge <= d2/4, keeping the discretization error small everywhere.
        near = 4.0 * np.maximum(pa.edges_u, pa.edges_v)
        areas = pa.edges_u * pa.edges_v
        # per transmitter: itself, its Lambertian order and the NLOS constant
        # k, and apart the LED leg of every patch
        self.transmitters, led_legs = [], []
        for tx in scene.transmitters:
            m = lambertian_order(tx.hpa_deg)
            k = (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * scene.wall_reflectance * rx.filter_gain * g
            self.transmitters.append((tx, m, k))
            led_legs.append(
                _led_leg(np.asarray(tx.position), m, pa.centers, x_wall, pa.sign, areas))
        # Every wall column has the same patch rows, so the patches above a
        # height cut are the same rows of every column. Row iv's top edge,
        # the sum `_rises_above` takes, is the same bits in every column and
        # never falls as iv rises.
        self.patch_rows = nv = _wall_counts(scene.room, patch_edge_m)[1]
        self.tops = pa.centers[:nv, 2] + 0.5 * pa.edges_v[:nv]
        # what the midpoint kernel reads of each patch, each array apart: the
        # centre as (3, patches), the wall axis mask, sign, close-range
        # distance and LED legs
        self._patches = (np.ascontiguousarray(pa.centers.T), x_wall, pa.sign, near, *led_legs)
        self.cut = -1

    def cut_below(self, z: float) -> None:
        """Keep only the patch rows whose top edge rises above height z, the
        lowest receiver of the rows to come. A patch of a row cut is at or
        below every such receiver's plane, so its term and, were it close, its
        refinement are exactly 0.0 (`_rises_above`). The kept patches are one
        contiguous copy, made again only when the cut moves."""
        cut = int(np.searchsorted(self.tops, z, side="right"))
        if cut == self.cut:
            return
        self.cut, self.kept = cut, self._patches
        if cut:
            # each array as a (..., columns, patch rows) view, its upper rows copied
            nv = self.patch_rows
            self.kept = [np.ascontiguousarray(a.reshape(*a.shape[:-1], -1, nv)[..., cut:])
                         .reshape(*a.shape[:-1], -1) for a in self._patches]

    def midpoint_sums(self, pos: np.ndarray, t: int, lanes: "_Lanes"):
        """Per-row midpoint-rule sum over the patches (without the constant k)
        for transmitter t, and the (rows, patches) of the close pairs left out
        of it whose patch rises above the row's receiver plane, the only ones
        to refine. The kernel runs on the kept patches only; the rows cut are
        written as the 0.0 they add, so each row's sum is NumPy's pairwise sum
        over all its room's patches, the same bits as with no cut."""
        pa, cut, nv, n = self.pa, self.cut, self.patch_rows, len(pos)
        centers, x_wall, sign, near, *led_legs = self.kept
        columns, kept = len(pa) // nv, nv - cut
        work, *full = lanes.work((5, n, columns * kept), *([(n, len(pa))] if cut else []))
        for axis in range(3):
            np.subtract(pos[:, axis, None], centers[axis], out=work[axis])
        terms, near = _rx_leg(*work[:3], x_wall, sign, led_legs[t], self.cos_fov, near, work[3:])
        r, c = np.nonzero(near)
        if cut:
            c += cut * (c // kept + 1)  # the kept patch's index in the tiling
            by_row = full[0].reshape(n, columns, nv)
            by_row[:, :, :cut] = 0.0
            by_row[:, :, cut:] = terms.reshape(n, columns, kept)
            terms = full[0]
        seen = _rises_above(pa.centers[c, 2], pa.edges_v[c], pos[r, 2])
        return terms.sum(axis=1), (r[seen], c[seen])


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


def _one_room(scene: Scene, pos: np.ndarray, lo: int, hi: int, lanes: _Lanes,
              patch_edge_m: float) -> None:
    """Rows lo:hi of `pos`, all in the scene's room, lowest first (a stable
    sort by height), in (rows, patches) chunks of at most _CHUNK_PAIRS pairs
    (one row at least) against the room's tiling, one LED after another.
    A chunk meets only the patch rows above its lowest row
    (`_TiledRoom.cut_below`); the cut rises chunk after chunk."""
    room = _TiledRoom(scene, patch_edge_m)
    pa = room.pa
    step = max(1, _CHUNK_PAIRS // len(pa))
    order = lo + np.argsort(pos[lo:hi, 2], kind="stable")
    for a in range(0, hi - lo, step):
        rows = order[a:a + step]
        p = pos[rows]
        room.cut_below(p[0, 2])
        for t, (tx, m, k) in enumerate(room.transmitters):
            lanes.los[rows, t] = tx.power_mw * _los_gain_block(tx, scene.receiver, p)
            lanes.sums[rows, t], (r, c) = room.midpoint_sums(p, t, lanes)
            lanes.k[rows, t], lanes.power[rows, t] = k, tx.power_mw
            if len(r):
                lanes.queue.put((m, room.cos_fov), _Pairs(
                    rows[r] * lanes.width + t, p[r], np.broadcast_to(tx.position, (len(r), 3)),
                    pa.centers[c], pa.axis[c], pa.sign[c], pa.edges_u[c], pa.edges_v[c]))


def _shared_chunk(scenes, spans, patches, pos: np.ndarray, lanes: _Lanes,
                  patch_edge_m: float) -> None:
    """The rows of several whole rooms in one chunk: one tiling of all their
    walls back to back, one LED leg, LOS and midpoint pass over all of them.

    Room i has rows spans[i] = (first, count) of `pos` and patches[i] wall
    patches; the rooms share their receiver and one Lambertian order
    (`_room_groups`), so `** m` and the FOV test take the scalars each room's
    own chunk gives them. A segment is one (room, LED): its lanes (the room's
    rows) against its room's patches. The pass runs over the (lane, patch)
    pairs segment after segment, each row-major, so the close pairs reach the
    refinement queue in the order one-room chunks give them, and a lane's
    midpoint sum is NumPy's pairwise sum over its own room's patches, as in a
    (rows, patches) block: every lane keeps its bits.
    """
    pa = _PatchArrays.from_room([s.room for s in scenes], patch_edge_m)
    rx, led = scenes[0].receiver, scenes[0].transmitters[0]
    m = lambertian_order(led.hpa_deg)
    g, cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)
    segments, first = [], 0
    for scene, (lo, count), size in zip(scenes, spans, patches):
        k_room = ((m + 1.0) * rx.area_m2 / (2.0 * math.pi) * scene.wall_reflectance
                  * rx.filter_gain * g)
        segments += [(lo, count, first, size, t, tx.power_mw, k_room, *tx.position)
                     for t, tx in enumerate(scene.transmitters)]
        first += size
    seg = np.array(segments)
    row0, n, patch0, size, column = seg[:, :5].T.astype(np.intp)
    power, k, tx_pos = seg[:, 5], seg[:, 6], seg[:, 7:]

    # lanes, segment after segment: their rows, LEDs and flat (row, LED) index
    lane_row, lane_tx = _ranges(row0, n), np.repeat(tx_pos, n, axis=0)
    lane = lane_row * lanes.width + np.repeat(column, n)
    rows = pos[lane_row]
    lanes.los.reshape(-1)[lane] = np.repeat(power, n) * _los_gain_block(led, rx, rows, lane_tx)
    lanes.k.reshape(-1)[lane] = np.repeat(k, n)
    lanes.power.reshape(-1)[lane] = np.repeat(power, n)
    # The patch of every (segment, patch) leg and the leg of every (lane,
    # patch) pair, lane after lane; None where they are the same (one LED, or
    # one row, a room), so nothing is gathered.
    leg_patch = None if len(seg) == len(scenes) else _ranges(patch0, size)
    lane_size = np.repeat(size, n)
    pair_leg = None if np.all(n == 1) else _ranges(np.repeat(np.cumsum(size) - size, n), lane_size)
    pair_patch = _take(leg_patch, pair_leg)
    x_wall = pa.axis == 0
    led_leg = _led_leg(np.repeat(tx_pos, size, axis=0), m, _take(pa.centers, leg_patch),
                       _take(x_wall, leg_patch), _take(pa.sign, leg_patch),
                       _take(pa.edges_u * pa.edges_v, leg_patch))
    work, = lanes.work((5, lane_size.sum()))
    for axis in range(3):
        np.subtract(np.repeat(rows[:, axis], lane_size), _take(pa.centers[:, axis], pair_patch),
                    out=work[axis])
    near = 4.0 * np.maximum(pa.edges_u, pa.edges_v)
    terms, close = _rx_leg(*work[:3], _take(x_wall, pair_patch), _take(pa.sign, pair_patch),
                           _take(led_leg, pair_leg), cos_fov, _take(near, pair_patch), work[3:])
    end = 0
    for a, count, width, t in zip(row0.tolist(), n.tolist(), size.tolist(), column.tolist()):
        block = terms[end:end + count * width].reshape(count, width)
        lanes.sums[a:a + count, t] = block.sum(axis=1)
        end += count * width
    (i,) = np.nonzero(close)
    c, j = _take(pair_patch, i), np.searchsorted(np.cumsum(lane_size), i, side="right")
    seen = _rises_above(pa.centers[c, 2], pa.edges_v[c], rows[j, 2])
    if seen.any():
        c, j = c[seen], j[seen]
        lanes.queue.put((m, cos_fov), _Pairs(
            lane[j], rows[j], lane_tx[j],
            pa.centers[c], pa.axis[c], pa.sign[c], pa.edges_u[c], pa.edges_v[c]))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The ranges starts[i] + arange(lengths[i]), back to back."""
    return np.repeat(starts - (np.cumsum(lengths) - lengths), lengths) + np.arange(lengths.sum())


def _take(a, index):
    """The rows a[index], or `a` when `index` is None; an index array `a`
    that is None stands for the identity, so this also composes indexes."""
    if index is None:
        return a
    return index if a is None else np.take(a, index, axis=0)


def _check_inside(scenes, counts, pos: np.ndarray) -> None:
    """Every row of the (n, 3) positions inside its scene's room, `counts[i]`
    rows for scene i in turn."""
    ext = np.repeat(np.array([(s.room.lx, s.room.ly, s.room.lz) for s in scenes],
                             dtype=float).reshape(-1, 3), counts, axis=0)
    ok = np.all(pos >= 0, axis=1) & np.all(pos[:, :2] <= ext[:, :2], axis=1) & (pos[:, 2] < ext[:, 2])
    if not np.all(ok):
        bad = pos[~ok][0].tolist()
        raise ValueError(f"receiver position {tuple(bad)} outside the room (or on the ceiling)")


# Both chunk layouts stay because each is the faster one on a workload the
# benchmark runs, and this grouping picks between them from each room's row
# and patch counts. Many one-row rooms (generate_reference_variable) run
# 1.7 times slower with every room on `_one_room`, and a 50x50 map's rows
# (simulate_map) 1.5 times slower through `_shared_chunk`'s per-pair gathers
# (2-CPU VM, alternating runs, the same bits on both sides).
def _room_groups(scenes, counts, patches) -> list[list[int]]:
    """The scenes, by index, in runs of consecutive whole rooms that share one
    chunk: their (row, LED, patch) triples fit in a quarter of _CHUNK_PAIRS
    together, and they share their receiver and one Lambertian order for
    every LED. Any other room is a run of its own.

    A shared chunk also holds its rooms' tilings and LED legs, and gathers
    per-pair copies of them: with one row and one LED a room, that is about
    four times the memory of the pair temporaries alone, so a quarter keeps
    its peak near that of one full one-room chunk.
    """
    budget = _CHUNK_PAIRS // 4
    groups, pairs, key = [], 0, None
    for i, (scene, count, size) in enumerate(zip(scenes, counts, patches)):
        size *= count * len(scene.transmitters)
        orders = {lambertian_order(tx.hpa_deg) for tx in scene.transmitters}
        room_key = (orders.pop(), scene.receiver) if len(orders) == 1 else None
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
    (row, LED, patch) triples that share one work buffer. Consecutive small
    rooms share a chunk (`_shared_chunk`): one tiling, LED leg, LOS and
    midpoint pass for all their rows. A room alone in its chunk, or too big to
    share one, is split by rows into (rows, patches) chunks (`_one_room`).
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
    lanes = _Lanes(len(pos), max((len(s.transmitters) for s in scenes), default=1))
    for group in _room_groups(scenes, counts, patches):
        if len(group) == 1:
            i = group[0]
            _one_room(scenes[i], pos, starts[i], starts[i + 1], lanes, patch_edge_m)
        else:
            _shared_chunk([scenes[i] for i in group], [(starts[i], counts[i]) for i in group],
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
