"""Physical configuration of an indoor VLC link: room, LED transmitters, photodetector.

Coordinates use a corner-origin frame: (0, 0, 0) at a floor corner, x in [0, lx],
y in [0, ly], z in [0, lz]. LEDs sit on the ceiling plane facing straight down;
the photodetector faces straight up. Orientations are fixed and not configurable.
The transceiver formulas, an LED's Lambertian order, the receiver's
concentrator gain and the power constant (m + 1) A T g / (2 pi) of an LED,
live here: the records refuse a value they cannot compute, a scene file also
one whose received-power constant is not finite and positive, and the channel
derives its constants from them, so the two cannot disagree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ._doc import check_fields, from_doc, read_json, to_doc, write_json

__all__ = [
    "Room",
    "Transmitter",
    "Receiver",
    "Scene",
    "preset_scene",
    "variable_scene",
    "PRESET_ROOMS",
]

# Room dimensions (lx, ly, lz) in meters for the three fixed-size presets.
PRESET_ROOMS = {
    "small": (3.0, 3.0, 2.8),
    "mid": (5.0, 5.0, 3.0),
    "big": (6.5, 6.5, 3.5),
}

# Shared transceiver parameters across all presets.
_PD_AREA_M2 = 1e-4
_HPA_DEG = 60.0
_FOV_DEG = 85.0
_TX_POWER_MW = 1000.0
_FILTER_GAIN = 1.0
_REFRACTIVE_INDEX = 1.5
_WALL_REFLECTANCE = 0.8
_RESPONSIVITY = 1.0


def lambertian_order(hpa_deg: float) -> float:
    """Lambertian order m = -ln 2 / ln cos(half-power semi-angle)."""
    if not 0 < hpa_deg < 90:
        raise ValueError(f"half-power semi-angle must be in (0, 90) degrees, got {hpa_deg}")
    return -math.log(2.0) / math.log(math.cos(math.radians(hpa_deg)))


def _concentrator(fov_deg: float, n: float) -> tuple[float, float]:
    """In-FOV concentrator gain n^2 / sin^2(fov) and the FOV acceptance cosine."""
    fov_rad = math.radians(fov_deg)
    return n ** 2 / math.sin(fov_rad) ** 2, math.cos(fov_rad)


def _power_constant(m: float, rx: Receiver, g: float, reflectance: float = 1.0) -> float:
    """(m + 1) A / (2 pi) rho T g: what an LED of Lambertian order m delivers
    per mW to receiver `rx` of in-FOV gain g, before the geometry. With the
    wall reflectance rho it is the channel's NLOS constant; with 1.0, times
    the LED power, the received-power constant a scene file must keep finite
    and positive."""
    return (m + 1.0) * rx.area_m2 / (2.0 * math.pi) * reflectance * rx.filter_gain * g


def _gain_fails(fov_deg: float, n: float) -> bool:
    """Whether the in-FOV concentrator gain raises or is not finite."""
    try:
        return not math.isfinite(_concentrator(fov_deg, n)[0])
    except (ZeroDivisionError, OverflowError):
        return True


@dataclass(frozen=True)
class Room:
    """Rectangular room extents in meters."""

    lx: float
    ly: float
    lz: float

    def __post_init__(self):
        check_fields(self)
        if not (self.lx > 0 and self.ly > 0 and self.lz > 0):
            raise ValueError(f"room dimensions must be positive, got {self.lx}x{self.ly}x{self.lz}")


@dataclass(frozen=True)
class Transmitter:
    """Ceiling-mounted LED, normal fixed to (0, 0, -1)."""

    position: tuple[float, float, float]
    power_mw: float = _TX_POWER_MW
    hpa_deg: float = _HPA_DEG

    def __post_init__(self):
        check_fields(self)
        if len(self.position) != 3:
            raise ValueError("position must be a 3D point")
        object.__setattr__(self, "position", tuple(float(c) for c in self.position))
        if self.power_mw <= 0:
            raise ValueError(f"power_mw must be positive, got {self.power_mw}")
        if not 0 < self.hpa_deg < 90:
            raise ValueError(f"hpa_deg must be in (0, 90), got {self.hpa_deg}")
        try:
            lambertian_order(self.hpa_deg)
        except ZeroDivisionError:  # a cosine that rounds to 1
            raise ValueError("Transmitter hpa_deg must give a finite Lambertian order "
                             f"-ln 2 / ln cos(hpa_deg), got {self.hpa_deg!r}") from None


@dataclass(frozen=True)
class Receiver:
    """Upward-facing photodetector, normal fixed to (0, 0, +1).

    Responsivity is carried for completeness but not applied to RSS: with
    responsivity 1.0 the photocurrent-domain figure equals the optical one.
    """

    area_m2: float = _PD_AREA_M2
    fov_deg: float = _FOV_DEG
    filter_gain: float = _FILTER_GAIN
    refractive_index: float = _REFRACTIVE_INDEX
    responsivity: float = _RESPONSIVITY

    def __post_init__(self):
        check_fields(self)
        if self.area_m2 <= 0:
            raise ValueError(f"area_m2 must be positive, got {self.area_m2}")
        if not 0 < self.fov_deg <= 90:
            raise ValueError(f"fov_deg must be in (0, 90], got {self.fov_deg}")
        # an optical filter passes at most all the light
        if not 0 < self.filter_gain <= 1:
            raise ValueError(f"filter_gain must be in (0, 1], got {self.filter_gain}")
        if self.refractive_index < 1:
            raise ValueError(f"refractive_index must be >= 1, got {self.refractive_index}")
        # at a 90 deg FOV the sine is 1.0 and the gain n^2 alone
        n, fov = self.refractive_index, self.fov_deg
        if _gain_fails(90.0, n):
            raise ValueError("Receiver refractive_index must give a finite concentrator gain "
                             f"n^2 / sin^2(fov_deg), got {n!r}")
        if _gain_fails(fov, n):
            raise ValueError("Receiver fov_deg must give a finite concentrator gain "
                             f"n^2 / sin^2(fov_deg) with refractive_index {n!r}, got {fov!r}")


@dataclass(frozen=True)
class Scene:
    """Immutable description of one VLC system under simulation."""

    room: Room
    transmitters: tuple[Transmitter, ...]
    receiver: Receiver = field(default_factory=Receiver)
    wall_reflectance: float = _WALL_REFLECTANCE

    def __post_init__(self):
        check_fields(self)
        object.__setattr__(self, "transmitters", tuple(self.transmitters))
        if not self.transmitters:
            raise ValueError("scene needs at least one transmitter")
        if not 0 <= self.wall_reflectance <= 1:
            raise ValueError(f"wall_reflectance must be in [0, 1], got {self.wall_reflectance}")
        for tx in self.transmitters:
            x, y, z = tx.position
            if not (0 <= x <= self.room.lx and 0 <= y <= self.room.ly):
                raise ValueError(f"transmitter at {tx.position} outside the ceiling rectangle")
            if abs(z - self.room.lz) > 1e-9:
                raise ValueError(f"transmitter z={z} must sit on the ceiling plane z={self.room.lz}")

    def to_dict(self) -> dict:
        return to_doc(self)

    @classmethod
    def from_dict(cls, d: dict) -> "Scene":
        return from_doc(cls, d)

    def save(self, path) -> None:
        write_json(path, self.to_dict(), indent=2)

    @classmethod
    def load(cls, path) -> "Scene":
        """Read a file written by `save`; ValueError names the file whatever
        the document gets wrong."""
        doc = read_json(path)
        try:
            scene = cls.from_dict(doc)
        except (TypeError, ValueError) as e:
            raise ValueError(f"{path}: {e}") from e
        scene._check_power_constants(path)
        return scene

    def _check_power_constants(self, path) -> None:
        """Refuse, naming `path` and the fields, an LED whose received-power
        constant power_mw (m + 1) area_m2 filter_gain g / (2 pi) is not finite
        and positive: every power it scales would overflow, or underflow to 0.
        Only files are checked, so scenes built in Python pay nothing."""
        rx = self.receiver
        g = _concentrator(rx.fov_deg, rx.refractive_index)[0]
        for i, tx in enumerate(self.transmitters):
            value = tx.power_mw * _power_constant(lambertian_order(tx.hpa_deg), rx, g)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{path}: transmitters[{i}] power_mw={tx.power_mw!r} and hpa_deg="
                    f"{tx.hpa_deg!r} with receiver area_m2={rx.area_m2!r}, filter_gain="
                    f"{rx.filter_gain!r}, fov_deg={rx.fov_deg!r} and refractive_index="
                    f"{rx.refractive_index!r} give a received-power constant power_mw * "
                    f"(m + 1) * area_m2 * filter_gain * g / (2 pi) of {value!r}, which "
                    "must be finite and positive")


def _led_positions(room: Room, led_count: int) -> list[tuple[float, float, float]]:
    """One LED at the ceiling center, or four at the quadrant centers."""
    lx, ly, lz = room.lx, room.ly, room.lz
    if led_count == 1:
        return [(lx / 2, ly / 2, lz)]
    if led_count == 4:
        return [
            (lx / 4, ly / 4, lz),
            (3 * lx / 4, ly / 4, lz),
            (lx / 4, 3 * ly / 4, lz),
            (3 * lx / 4, 3 * ly / 4, lz),
        ]
    raise ValueError(f"led_count must be 1 or 4, got {led_count}")


def _build_scene(room: Room, led_count: int) -> Scene:
    txs = tuple(Transmitter(position=p) for p in _led_positions(room, led_count))
    return Scene(room=room, transmitters=txs)


def preset_scene(name: str, led_count: int = 1) -> Scene:
    """Return one of the fixed-size scenes ('small', 'mid', 'big') with 1 or 4 LEDs."""
    if name not in PRESET_ROOMS:
        raise ValueError(f"unknown preset {name!r}; expected one of {sorted(PRESET_ROOMS)}")
    return _build_scene(Room(*PRESET_ROOMS[name]), led_count)


def variable_scene(lx: float, ly: float, led_count: int = 1) -> Scene:
    """Scene with a 3 m tall room of configurable footprint, both sides in [3, 7] m."""
    if not (3.0 <= lx <= 7.0 and 3.0 <= ly <= 7.0):
        raise ValueError(f"room footprint must lie in [3, 7] m, got {lx}x{ly}")
    return _build_scene(Room(lx, ly, 3.0), led_count)
