"""Lambertian DC channel gains and received optical power.

The direct path uses the generalized-Lambertian LOS gain; the reflected path
integrates single-bounce contributions over a midpoint-rule tiling of the four
walls. Ceiling and floor are non-reflective, rooms are empty, and all angles
come from exact vector geometry against the fixed +/-z transceiver normals.

Everything here is pure and deterministic; the additive noise applied to
training data lives in `dataset`, keeping this module usable as ground truth.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .scene import Receiver, Room, Scene, Transmitter

__all__ = [
    "DEFAULT_PATCH_EDGE_M",
    "PowerBreakdown",
    "lambertian_order",
    "concentrator_gain",
    "received_power",
    "received_power_many",
    "rss_dbm",
    "path_loss_db",
]

DEFAULT_PATCH_EDGE_M = 0.2

# Positions are processed in chunks this size so the (chunk x patches) work
# arrays stay small regardless of dataset size.
_CHUNK = 512

_THREADS_ENV = "LUMEN_REM_THREADS"


def _max_workers() -> int:
    """Worker cap from LUMEN_REM_THREADS: a positive count, or 0/unset for one per CPU."""
    raw = os.environ.get(_THREADS_ENV, "").strip()
    try:
        n = int(raw) if raw else 0
    except ValueError:
        n = -1
    if n < 0:
        raise ValueError(
            f"{_THREADS_ENV} must be a non-negative integer (0 = automatic), got {raw!r}"
        )
    return n or os.cpu_count() or 1


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

class _PatchArrays:
    """Struct-of-arrays view of the wall tiling, shared by the vector kernels."""

    __slots__ = ("centers", "normals", "areas", "edges_u", "edges_v")

    def __init__(self, centers, normals, areas, edges_u, edges_v):
        self.centers = centers
        self.normals = normals
        self.areas = areas
        self.edges_u = edges_u
        self.edges_v = edges_v

    @classmethod
    def from_room(cls, room: Room, patch_edge_m: float) -> "_PatchArrays":
        if not 0 < patch_edge_m <= min(room.lx, room.ly, room.lz):
            raise ValueError(
                f"patch edge must be in (0, min room extent], got {patch_edge_m}"
            )
        centers, normals, areas, edges_u, edges_v = [], [], [], [], []
        # Four walls, fixed order: x=0, x=lx, y=0, y=ly. Each is tiled with
        # ceil(extent/edge) patches per direction and exact sizes extent/count,
        # so the tiling covers the wall exactly and is reflection-symmetric.
        walls = [
            ("x", 0.0, (1.0, 0.0, 0.0), room.ly),
            ("x", room.lx, (-1.0, 0.0, 0.0), room.ly),
            ("y", 0.0, (0.0, 1.0, 0.0), room.lx),
            ("y", room.ly, (0.0, -1.0, 0.0), room.lx),
        ]
        for axis, offset, normal, extent in walls:
            nu = math.ceil(extent / patch_edge_m - 1e-12)
            nv = math.ceil(room.lz / patch_edge_m - 1e-12)
            du = extent / nu
            dv = room.lz / nv
            u = (np.arange(nu) + 0.5) * du
            v = (np.arange(nv) + 0.5) * dv
            uu, vv = np.meshgrid(u, v, indexing="ij")
            uu = uu.ravel()
            vv = vv.ravel()
            if axis == "x":
                c = np.column_stack([np.full_like(uu, offset), uu, vv])
            else:
                c = np.column_stack([uu, np.full_like(uu, offset), vv])
            centers.append(c)
            normals.append(np.tile(np.asarray(normal), (len(uu), 1)))
            areas.append(np.full(len(uu), du * dv))
            edges_u.append(np.full(len(uu), du))
            edges_v.append(np.full(len(uu), dv))
        return cls(
            centers=np.concatenate(centers),
            normals=np.concatenate(normals),
            areas=np.concatenate(areas),
            edges_u=np.concatenate(edges_u),
            edges_v=np.concatenate(edges_v),
        )

    def __len__(self) -> int:
        return len(self.areas)


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


def _nlos_gain_block(
    tx: Transmitter, rx: Receiver, pos: np.ndarray, pa: _PatchArrays, rho: float
) -> np.ndarray:
    """Single-bounce reflected DC gain for a (n, 3) block of positions."""
    tx_pos = np.asarray(tx.position)
    m = lambertian_order(tx.hpa_deg)
    g, cos_fov = _concentrator(rx.fov_deg, rx.refractive_index)

    # Tx -> patch leg depends only on the tiling; computed once per block.
    v1 = pa.centers - tx_pos
    d1_sq = np.einsum("ij,ij->i", v1, v1)
    if np.any(d1_sq == 0.0):
        raise ValueError("a wall patch coincides with a transmitter")
    d1 = np.sqrt(d1_sq)
    cos_phi = (tx_pos[2] - pa.centers[:, 2]) / d1
    cos_alpha = -np.einsum("ij,ij->i", v1, pa.normals) / d1
    tx_leg = np.where(
        (cos_phi > 0) & (cos_alpha > 0),
        np.where(cos_phi > 0, cos_phi, 0.0) ** m * cos_alpha * pa.areas / d1_sq,
        0.0,
    )

    k = (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * rho * rx.filter_gain * g
    total, (rows, cols) = _midpoint_sums(tx_leg, cos_fov, pos, pa)
    # row by row, patch after patch, as a loop over the pairs would add them;
    # in batches, because a receiver on a wall refines its pairs to full depth
    for lo in range(0, len(rows), _REFINE_BATCH):
        r, c = rows[lo : lo + _REFINE_BATCH], cols[lo : lo + _REFINE_BATCH]
        np.add.at(total, r, _refined_terms(tx_pos, m, cos_fov, pos[r], pa, c))
    return k * total


def _midpoint_sums(tx_leg: np.ndarray, cos_fov: float, pos: np.ndarray, pa: _PatchArrays):
    """Per-row midpoint-rule sum over the patches (without the constant k) and
    the (rows, cols) of the pairs left out of it for refinement.

    The (n, N) temporaries live only in here, so they are freed before the
    refinement builds its own arrays.
    """
    # Patch -> Rx leg, (n, N) per component to avoid an (n, N, 3) temporary.
    dx = pos[:, 0, None] - pa.centers[None, :, 0]
    dy = pos[:, 1, None] - pa.centers[None, :, 1]
    dz = pos[:, 2, None] - pa.centers[None, :, 2]
    d2_sq = dx * dx + dy * dy + dz * dz
    if np.any(d2_sq == 0.0):
        raise ValueError("receiver position coincides with a wall patch")
    d2 = np.sqrt(d2_sq)
    cos_beta = (
        dx * pa.normals[None, :, 0]
        + dy * pa.normals[None, :, 1]
        + dz * pa.normals[None, :, 2]
    ) / d2
    cos_psi = -dz / d2  # patch is at -dz above the receiver plane
    accept = (cos_beta > 0) & (cos_psi > 0) & (cos_psi >= cos_fov)
    contrib = np.where(accept, tx_leg[None, :] / d2_sq * cos_beta * cos_psi, 0.0)

    # The midpoint rule degrades when the receiver sits close to a patch
    # (the 1/d2^2 factor varies too much across it). Such patches are
    # re-evaluated by subdivision until every sub-patch satisfies
    # edge <= d2/4, keeping the discretization error small everywhere.
    needs = d2 < 4.0 * np.maximum(pa.edges_u, pa.edges_v)[None, :]
    if needs.any():
        contrib = np.where(needs, 0.0, contrib)
    return contrib.sum(axis=1), np.nonzero(needs)


_REFINE_MAX_DEPTH = 12
# (row, patch) pairs refined together; bounds the breadth-first arrays
_REFINE_BATCH = 1024


def _refined_terms(tx_pos, m: float, cos_fov: float, rx: np.ndarray, pa: _PatchArrays,
                   cols: np.ndarray) -> np.ndarray:
    """Midpoint terms (without the leading constant k) of patches `cols` seen
    from the receivers `rx`, one per pair, each patch split 2x2 while a
    (sub-)patch is closer to its receiver than four times its edge, at most
    _REFINE_MAX_DEPTH times.

    The subdivision runs breadth-first over every pair at once. Each term and
    each four-way sum is formed with the same float operations, in the same
    order, as a depth-first recursion over one pair would use, so a pair's
    value does not depend on which other pairs share the batch. The Lambertian
    power goes through Python's `**` term by term, because NumPy's vectorized
    power may round differently on some CPUs.
    """
    tx_x, tx_y, tx_z = (float(c) for c in tx_pos)
    centers = pa.centers[cols]
    x_wall = pa.normals[cols, 0] != 0.0
    # a sub-patch centre is (wall, u, v) on x walls and (u, wall, v) on y walls
    wall = np.where(x_wall, centers[:, 0], centers[:, 1])
    u = np.where(x_wall, centers[:, 1], centers[:, 0])
    v = centers[:, 2]
    eu, ev = pa.edges_u[cols], pa.edges_v[cols]
    node = np.arange(len(cols))  # pair each sub-patch of this depth belongs to
    levels = []  # per depth: (split mask, node values)
    for depth in range(_REFINE_MAX_DEPTH + 1):
        xw = x_wall[node]
        cx = np.where(xw, wall[node], u)
        cy = np.where(xw, u, wall[node])
        wx, wy, wz = rx[node, 0] - cx, rx[node, 1] - cy, rx[node, 2] - v
        d2 = np.sqrt(wx * wx + wy * wy + wz * wz)
        split = 4.0 * np.where(eu > ev, eu, ev) > d2
        if depth == _REFINE_MAX_DEPTH:
            split[:] = False
        value = np.zeros(len(node))
        leaf = np.nonzero(~split)[0]
        if len(leaf):
            if np.any(d2[leaf] == 0.0):
                raise ZeroDivisionError("float division by zero")
            nrm = pa.normals[cols[node[leaf]]]
            d2l, wzl = d2[leaf], wz[leaf]
            cos_beta = (wx[leaf] * nrm[:, 0] + wy[leaf] * nrm[:, 1] + wzl * nrm[:, 2]) / d2l
            cos_psi = -wzl / d2l
            seen = ~((cos_beta <= 0.0) | (cos_psi <= 0.0) | (cos_psi < cos_fov))
            v1x, v1y, v1z = cx[leaf] - tx_x, cy[leaf] - tx_y, v[leaf] - tx_z
            d1_sq = v1x * v1x + v1y * v1y + v1z * v1z
            if np.any(seen & (d1_sq == 0.0)):
                raise ZeroDivisionError("float division by zero")
            d1 = np.sqrt(np.where(seen, d1_sq, 1.0))
            cos_phi = -v1z / d1
            cos_alpha = -(v1x * nrm[:, 0] + v1y * nrm[:, 1] + v1z * nrm[:, 2]) / d1
            lit = np.nonzero(seen & ~((cos_phi <= 0.0) | (cos_alpha <= 0.0)))[0]
            power = np.array([c ** m for c in cos_phi[lit].tolist()])
            i = leaf[lit]
            value[i] = (
                power * cos_alpha[lit] * (eu[i] * ev[i]) / d1_sq[lit]
                * cos_beta[lit] * cos_psi[lit] / (d2l[lit] * d2l[lit])
            )
        levels.append((split, value))
        s = np.nonzero(split)[0]
        if len(s) == 0:
            break
        # children in the recursion's order: (-,-), (-,+), (+,-), (+,+)
        qu, qv = 0.25 * eu[s], 0.25 * ev[s]
        lo_u, hi_u, lo_v, hi_v = u[s] - qu, u[s] + qu, v[s] - qv, v[s] + qv
        u = np.column_stack([lo_u, lo_u, hi_u, hi_u]).ravel()
        v = np.column_stack([lo_v, hi_v, lo_v, hi_v]).ravel()
        eu, ev = np.repeat(0.5 * eu[s], 4), np.repeat(0.5 * ev[s], 4)
        node = np.repeat(node[s], 4)
    # fold each split node's four sub-terms back up, deepest level first
    for (split, value), (_, below) in zip(levels[-2::-1], levels[:0:-1]):
        four = below.reshape(-1, 4)
        value[split] = four[:, 0] + four[:, 1] + four[:, 2] + four[:, 3]
    return levels[0][1]


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


def _room_tiling(scene: Scene, pos: np.ndarray, patch_edge_m: float) -> _PatchArrays:
    """Wall tiling of the scene's room, once every (n, 3) position is checked inside it."""
    room = scene.room
    ok = (
        (pos[:, 0] >= 0) & (pos[:, 0] <= room.lx)
        & (pos[:, 1] >= 0) & (pos[:, 1] <= room.ly)
        & (pos[:, 2] >= 0) & (pos[:, 2] < room.lz)
    )
    if not np.all(ok):
        bad = pos[~ok][0]
        raise ValueError(f"receiver position {tuple(bad)} outside the room (or on the ceiling)")
    return _PatchArrays.from_room(room, patch_edge_m)


def _tx_powers(scene: Scene, pos: np.ndarray, pa: _PatchArrays):
    """(LOS, NLOS) received power arrays in mW at (n, 3) positions, one pair
    per transmitter in scene order; callers sum them in that order."""
    rx, rho = scene.receiver, scene.wall_reflectance
    return [
        (tx.power_mw * _los_gain_block(tx, rx, pos),
         tx.power_mw * _nlos_gain_block(tx, rx, pos, pa, rho))
        for tx in scene.transmitters
    ]


def received_power(scene: Scene, rx_pos, patch_edge_m: float = DEFAULT_PATCH_EDGE_M) -> PowerBreakdown:
    """Deterministic received power at one position, LOS/NLOS per transmitter."""
    pos = np.asarray(rx_pos, dtype=float).reshape(1, 3)
    pa = _room_tiling(scene, pos, patch_edge_m)
    per_tx = tuple((float(los[0]), float(nlos[0])) for los, nlos in _tx_powers(scene, pos, pa))
    return PowerBreakdown(
        p_los_mw=sum(p for p, _ in per_tx),
        p_nlos_mw=sum(p for _, p in per_tx),
        per_tx=per_tx,
    )


def received_power_many(
    scene: Scene, positions, patch_edge_m: float = DEFAULT_PATCH_EDGE_M
) -> tuple[np.ndarray, np.ndarray]:
    """Total LOS and NLOS received power (mW) for an (n, 3) array of positions.

    Positions are evaluated in fixed-size chunks; chunks are independent, so the
    result is identical whether they run serially or on the worker pool capped
    by LUMEN_REM_THREADS.
    """
    pos = np.asarray(positions, dtype=float).reshape(-1, 3)
    pa = _room_tiling(scene, pos, patch_edge_m)
    n = len(pos)
    p_los = np.zeros(n)
    p_nlos = np.zeros(n)

    def work(lo: int, hi: int) -> None:
        for los, nlos in _tx_powers(scene, pos[lo:hi], pa):
            p_los[lo:hi] += los
            p_nlos[lo:hi] += nlos

    spans = [(lo, min(lo + _CHUNK, n)) for lo in range(0, n, _CHUNK)]
    workers = min(_max_workers(), len(spans))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(lambda s: work(*s), spans))
    else:
        for lo, hi in spans:
            work(lo, hi)
    return p_los, p_nlos


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
