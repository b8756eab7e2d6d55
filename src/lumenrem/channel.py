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
one-row call. Each room's rows meet its tiling in cache-sized (rows, patches)
blocks; the (row, patch) pairs too close for the midpoint rule, from every
block and room, wait in one refinement queue that is refined in fixed-size
batches whenever one fills. A position's powers are the same bits whichever
call, block or batch it falls in.

Everything here is pure and deterministic; the additive noise applied to
training data lives in `dataset`, keeping this module usable as ground truth.
"""

from __future__ import annotations

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
    def from_room(cls, room: Room, patch_edge_m: float) -> "_PatchArrays":
        if not 0 < patch_edge_m <= min(room.lx, room.ly, room.lz):
            raise ValueError(
                f"patch edge must be in (0, min room extent], got {patch_edge_m}"
            )
        # Four walls, fixed order x=0, x=lx, y=0, y=ly, as (axis, offset,
        # inward sign, extent). Each is tiled with ceil(extent/edge) patches
        # per direction and exact sizes extent/count, so the tiling covers the
        # wall exactly and is reflection-symmetric.
        walls = np.array([(0, 0.0, 1.0, room.ly), (0, room.lx, -1.0, room.ly),
                          (1, 0.0, 1.0, room.lx), (1, room.ly, -1.0, room.lx)])
        nu = np.ceil(walls[:, 3] / patch_edge_m - 1e-12).astype(int)
        nv = math.ceil(room.lz / patch_edge_m - 1e-12)
        per_wall = nu * nv
        axis, offset, sign, extent = np.repeat(walls, per_wall, axis=0).T
        # index of each patch on its wall, u-major: patch (iu, iv) is iu * nv + iv
        k = np.arange(per_wall.sum()) - np.repeat(np.cumsum(per_wall) - per_wall, per_wall)
        du = extent / np.repeat(nu, per_wall)
        u = (k // nv + 0.5) * du
        v = (k % nv + 0.5) * (room.lz / nv)
        x_wall = axis == 0
        return cls(
            centers=np.column_stack([np.where(x_wall, offset, u), np.where(x_wall, u, offset), v]),
            axis=axis.astype(int),
            sign=sign,
            edges_u=du,
            edges_v=np.full_like(v, room.lz / nv),
        )

    def __len__(self) -> int:
        return len(self.centers)


# ---------------------------------------------------------------------------
# Vectorized gain kernels
# ---------------------------------------------------------------------------

def _los_gain_block(tx: Transmitter, rx: Receiver, pos: np.ndarray) -> np.ndarray:
    """LOS DC gain for a (n, 3) block of receiver positions."""
    tx_pos = np.asarray(tx.position)
    delta = pos - tx_pos
    d_sq = np.einsum("ij,ij->i", delta, delta)
    if np.any(d_sq == 0.0):
        raise ValueError("receiver position coincides with a transmitter")
    d = np.sqrt(d_sq)
    cos_phi = (tx_pos[2] - pos[:, 2]) / d
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


def _refined_terms(m: float, cos_fov: float, q: _Pairs) -> np.ndarray:
    """Sums of the midpoint terms (without the constant k) over the sub-patches
    of each pair's patch seen from its receiver, each patch split 2x2 while a
    (sub-)patch is closer to its receiver than four times its edge, at most
    _REFINE_MAX_DEPTH times. The pairs are close, so each patch starts split.

    The subdivision runs breadth-first over every pair at once. Each depth's
    terms are added into their pair's sum in child order (0 for a sub-patch
    split further), so a pair's value does not depend on which other pairs
    share the batch.
    """
    centers, eu, ev = q.centers, q.edges_u, q.edges_v
    node = split = np.arange(len(q.lane))  # pair each sub-patch of this depth belongs to
    sums = np.zeros(len(node))
    for depth in range(1, _REFINE_MAX_DEPTH + 1):
        # children in the order (-,-), (-,+), (+,-), (+,+), a quarter edge
        # away along the wall's tangent axis (1 - axis) and up z
        node = np.repeat(node[split], 4)
        centers = np.repeat(centers[split], 4, axis=0)
        centers[np.arange(len(node)), 1 - q.axis[node]] += np.outer(
            0.25 * eu[split], [-1, -1, 1, 1]).ravel()
        centers[:, 2] += np.outer(0.25 * ev[split], [-1, 1, -1, 1]).ravel()
        eu, ev = np.repeat(0.5 * eu[split], 4), np.repeat(0.5 * ev[split], 4)
        x_wall, sign = q.axis[node] == 0, q.sign[node]
        led_leg = _led_leg(q.tx[node], m, centers, x_wall, sign, eu * ev)
        near = 4.0 * np.maximum(eu, ev) if depth < _REFINE_MAX_DEPTH else None
        term, near = _rx_leg(*(q.rx[node] - centers).T, x_wall, sign, led_leg, cos_fov, near)
        np.add.at(sums, node, term)
        if near is None or not near.any():
            break
        split = np.nonzero(near)[0]
    return sums


class _RefineQueue:
    """The close pairs of one call, whatever chunk or room they come from,
    refined in full _REFINE_BATCH blocks as they arrive and added into their
    lanes' midpoint sums (`sums`, flat), so at most a batch waits between
    chunks. Pairs wait by (Lambertian order, FOV cosine), so that `** m` and
    the FOV test take scalars. A lane's pairs arrive together, patch after
    patch, and are added in that order, as a loop over the pairs would add
    them: its sum does not depend on the batching.
    """

    def __init__(self, sums: np.ndarray):
        self.sums = sums
        self.waiting: dict[tuple[float, float], list[_Pairs]] = {}

    def put(self, key: tuple[float, float], pairs: _Pairs) -> None:
        if len(pairs.lane):
            parts = self.waiting.setdefault(key, [])
            parts.append(pairs)
            if sum(len(p.lane) for p in parts) >= _REFINE_BATCH:
                self._refine(key, whole_batches=True)

    def drain(self) -> None:
        for key in list(self.waiting):
            self._refine(key, whole_batches=False)

    def _refine(self, key: tuple[float, float], whole_batches: bool) -> None:
        parts = self.waiting.pop(key)
        q = parts[0] if len(parts) == 1 else _Pairs(*map(np.concatenate, zip(*parts)))
        n = len(q.lane)
        stop = n - n % _REFINE_BATCH if whole_batches else n
        for lo in range(0, stop, _REFINE_BATCH):
            batch = q.rows(lo, min(lo + _REFINE_BATCH, stop))
            np.add.at(self.sums, batch.lane, _refined_terms(*key, batch))
        if stop < n:
            self.waiting[key] = [q.rows(stop)]


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
    """A scene's wall tiling and per-transmitter constants, made once per call."""

    def __init__(self, scene: Scene, patch_edge_m: float):
        pa = _PatchArrays.from_room(scene.room, patch_edge_m)
        rx = scene.receiver
        g, self.cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)
        self.pa = pa
        self.x_wall = pa.axis == 0
        # The midpoint rule degrades when the receiver sits close to a patch
        # (the 1/d2^2 factor varies too much across it). Such pairs are
        # re-evaluated by subdivision until every sub-patch satisfies
        # edge <= d2/4, keeping the discretization error small everywhere.
        self.near = 4.0 * np.maximum(pa.edges_u, pa.edges_v)
        areas = pa.edges_u * pa.edges_v
        # per transmitter: itself, its Lambertian order, the LED leg of every
        # patch and the NLOS constant k
        self.transmitters = []
        for tx in scene.transmitters:
            m = lambertian_order(tx.hpa_deg)
            k = (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * scene.wall_reflectance * rx.filter_gain * g
            led_leg = _led_leg(np.asarray(tx.position), m, pa.centers, self.x_wall, pa.sign, areas)
            self.transmitters.append((tx, m, led_leg, k))

    def midpoint_sums(self, pos: np.ndarray, led_leg: np.ndarray, work: np.ndarray):
        """Per-row midpoint-rule sum over the patches (without the constant k)
        and the (rows, patches) of the close pairs left out of it; `work` holds
        five (rows, patches) temporaries."""
        c = self.pa.centers
        for axis in range(3):
            np.subtract(pos[:, axis, None], c[:, axis], out=work[axis])
        terms, near = _rx_leg(*work[:3], self.x_wall, self.pa.sign, led_leg, self.cos_fov,
                              self.near, work[3:])
        return terms.sum(axis=1), np.nonzero(near)


def _check_inside(scenes, counts, pos: np.ndarray) -> None:
    """Every row of the (n, 3) positions inside its scene's room, `counts[i]`
    rows for scene i in turn."""
    ext = np.repeat(np.array([(s.room.lx, s.room.ly, s.room.lz) for s in scenes],
                             dtype=float).reshape(-1, 3), counts, axis=0)
    ok = np.all(pos >= 0, axis=1) & np.all(pos[:, :2] <= ext[:, :2], axis=1) & (pos[:, 2] < ext[:, 2])
    if not np.all(ok):
        bad = pos[~ok][0].tolist()
        raise ValueError(f"receiver position {tuple(bad)} outside the room (or on the ceiling)")


def _lane_powers(scenes, positions, patch_edge_m: float) -> tuple[np.ndarray, np.ndarray]:
    """LOS and NLOS power (mW) of every (row, transmitter) lane, two (n, T)
    arrays: the rows of `positions[i]` in scene i's room, room after room, and
    T the most transmitters of any scene (a scene with fewer leaves its other
    lanes 0).

    Each room's rows go through the midpoint kernel on the calling thread, in
    chunks of at most _CHUNK_PAIRS (row, patch) pairs that share one work
    buffer, and every chunk's close pairs join one refinement queue.
    """
    blocks = [np.asarray(p, dtype=float).reshape(-1, 3) for p in positions]
    if len(blocks) != len(scenes):
        raise ValueError(f"{len(scenes)} scenes but {len(blocks)} position blocks")
    counts = [len(b) for b in blocks]
    pos = np.concatenate(blocks) if blocks else np.empty((0, 3))
    _check_inside(scenes, counts, pos)
    n, width = len(pos), max((len(s.transmitters) for s in scenes), default=1)
    los, sums = np.zeros((n, width)), np.zeros((n, width))
    k, power = np.zeros((n, width)), np.zeros((n, width))
    queue = _RefineQueue(sums.reshape(-1))
    buffer, start = np.empty(0), 0  # the midpoint temporaries, reused chunk after chunk
    for scene, count in zip(scenes, counts):
        room = _TiledRoom(scene, patch_edge_m)
        pa = room.pa
        step = max(1, _CHUNK_PAIRS // len(pa))
        for lo in range(start, start + count, step):
            hi = min(lo + step, start + count)
            p, size = pos[lo:hi], 5 * (hi - lo) * len(pa)
            if buffer.size < size:
                buffer = np.empty(size)
            work = buffer[:size].reshape(5, hi - lo, len(pa))
            for t, (tx, m, led_leg, k_t) in enumerate(room.transmitters):
                los[lo:hi, t] = tx.power_mw * _los_gain_block(tx, scene.receiver, p)
                sums[lo:hi, t], (r, c) = room.midpoint_sums(p, led_leg, work)
                k[lo:hi, t], power[lo:hi, t] = k_t, tx.power_mw
                queue.put((m, room.cos_fov), _Pairs(
                    (lo + r) * width + t, p[r], np.broadcast_to(tx.position, (len(r), 3)),
                    pa.centers[c], pa.axis[c], pa.sign[c], pa.edges_u[c], pa.edges_v[c]))
        start += count
    queue.drain()
    return los, power * (k * sums)


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
