import json
import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lumenrem import channel as ch
from lumenrem.scene import (
    PRESET_ROOMS,
    Receiver,
    Room,
    Scene,
    Transmitter,
    preset_scene,
    variable_scene,
)


def test_preset_room_dimensions():
    assert PRESET_ROOMS["small"] == (3.0, 3.0, 2.8)
    assert PRESET_ROOMS["mid"] == (5.0, 5.0, 3.0)
    assert PRESET_ROOMS["big"] == (6.5, 6.5, 3.5)


@pytest.mark.parametrize("name", ["small", "mid", "big"])
def test_preset_defaults(name):
    sc = preset_scene(name)
    lx, ly, lz = PRESET_ROOMS[name]
    assert (sc.room.lx, sc.room.ly, sc.room.lz) == (lx, ly, lz)
    assert len(sc.transmitters) == 1
    tx = sc.transmitters[0]
    assert tx.position == (lx / 2, ly / 2, lz)
    assert tx.power_mw == 1000.0
    assert tx.hpa_deg == 60.0
    rx = sc.receiver
    assert rx.area_m2 == 1e-4
    assert rx.fov_deg == 85.0
    assert rx.filter_gain == 1.0
    assert rx.refractive_index == 1.5
    assert rx.responsivity == 1.0
    assert sc.wall_reflectance == 0.8


def test_four_led_layout():
    sc = preset_scene("mid", led_count=4)
    got = sorted(tx.position for tx in sc.transmitters)
    assert got == [
        (1.25, 1.25, 3.0),
        (1.25, 3.75, 3.0),
        (3.75, 1.25, 3.0),
        (3.75, 3.75, 3.0),
    ]


def test_unknown_preset_and_led_count():
    with pytest.raises(ValueError):
        preset_scene("huge")
    with pytest.raises(ValueError):
        preset_scene("mid", led_count=2)


def test_variable_scene_bounds():
    sc = variable_scene(3.0, 7.0)
    assert (sc.room.lx, sc.room.ly, sc.room.lz) == (3.0, 7.0, 3.0)
    assert sc.transmitters[0].position == (1.5, 3.5, 3.0)
    with pytest.raises(ValueError):
        variable_scene(2.9, 5.0)
    with pytest.raises(ValueError):
        variable_scene(5.0, 7.1)


def test_validation_errors():
    with pytest.raises(ValueError):
        Room(0.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        Transmitter(position=(1.0, 1.0, 3.0), power_mw=0.0)
    with pytest.raises(ValueError):
        Transmitter(position=(1.0, 1.0, 3.0), hpa_deg=90.0)
    with pytest.raises(ValueError):
        Receiver(fov_deg=0.0)
    with pytest.raises(ValueError):
        Receiver(refractive_index=0.9)
    room = Room(3.0, 3.0, 3.0)
    with pytest.raises(ValueError):
        Scene(room=room, transmitters=())
    with pytest.raises(ValueError):
        # off the ceiling plane
        Scene(room=room, transmitters=(Transmitter(position=(1.0, 1.0, 2.0)),))
    with pytest.raises(ValueError):
        # outside the ceiling rectangle
        Scene(room=room, transmitters=(Transmitter(position=(4.0, 1.0, 3.0)),))
    with pytest.raises(ValueError):
        Scene(room=room, transmitters=(Transmitter(position=(1.0, 1.0, 3.0)),), wall_reflectance=1.2)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["lx", "ly", "lz"])
def test_room_refuses_non_finite_sides(field, value):
    sides = {"lx": 3.0, "ly": 3.0, "lz": 3.0, field: value}
    with pytest.raises(ValueError, match=f"Room {field} must be finite"):
        Room(**sides)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["position", "power_mw", "hpa_deg"])
def test_transmitter_refuses_non_finite_numbers(field, value):
    kw = {"position": (1.0, 1.0, value) if field == "position" else (1.0, 1.0, 3.0)}
    if field != "position":
        kw[field] = value
    with pytest.raises(ValueError, match=f"Transmitter {field} must be finite"):
        Transmitter(**kw)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["area_m2", "fov_deg", "filter_gain", "refractive_index",
                                   "responsivity"])
def test_receiver_refuses_non_finite_numbers(field, value):
    with pytest.raises(ValueError, match=f"Receiver {field} must be finite"):
        Receiver(**{field: value})


@pytest.mark.parametrize("make, named", [
    # cos(1e-9 deg) rounds to 1.0: -ln 2 / ln 1 divides by zero
    (lambda: Transmitter(position=(1.0, 1.0, 3.0), hpa_deg=1e-9),
     "Transmitter hpa_deg must give a finite Lambertian order"),
    # sin^2(1e-300 deg) is 0
    (lambda: Receiver(fov_deg=1e-300), "Receiver fov_deg must give a finite concentrator gain"),
    # 1.5^2 / sin^2(1e-160 deg) overflows: the sine squared underflows to 0
    (lambda: Receiver(fov_deg=1e-160), "Receiver fov_deg must give a finite concentrator gain"),
    # (1e200)^2 overflows
    (lambda: Receiver(refractive_index=1e200),
     "Receiver refractive_index must give a finite concentrator gain"),
])
def test_records_refuse_values_whose_channel_constants_are_not_finite(make, named):
    with pytest.raises(ValueError, match=f"^{named}"):
        make()


@pytest.mark.parametrize("gain", [1.0000000000000002, 1e308, 0.0, -1.0])
def test_a_filter_gain_outside_zero_to_one_is_refused_by_name(gain):
    """An optical filter passes at most all the light, and some of it: a
    filter gain one ulp above 1, or one large enough to give RSS near
    3,000 dBm, is refused as a zero or negative one is, naming the field."""
    with pytest.raises(ValueError, match=r"^filter_gain must be in \(0, 1\], got "):
        Receiver(filter_gain=gain)
    assert Receiver(filter_gain=1.0).filter_gain == Receiver().filter_gain == 1.0


def test_the_edges_of_the_channel_constants_stay_accepted():
    """A half-power angle whose cosine is the float just below 1, a narrow FOV
    whose gain is still finite and a large refractive index all load."""
    assert Transmitter(position=(1.0, 1.0, 3.0), hpa_deg=1e-6).hpa_deg == 1e-6
    assert Receiver(fov_deg=1e-100).fov_deg == 1e-100
    assert Receiver(refractive_index=1e150).refractive_index == 1e150


def _refused(make) -> bool:
    try:
        make()
    except ValueError:
        return True
    return False


def _fails(formula) -> bool:
    """Whether `formula()` raises or gives a value that is not finite."""
    try:
        return not math.isfinite(formula())
    except (ValueError, ArithmeticError):
        return True


def _powers_of_ten(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


_REALS = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=300, deadline=None)
@given(hpa=st.one_of(st.floats(0.0, 90.0, exclude_min=True, exclude_max=True),
                     _powers_of_ten(-12.0, 1.9)),
       fov=st.one_of(_REALS, _powers_of_ten(-330.0, 2.5)),
       n=st.one_of(_REALS, _powers_of_ten(-1.0, 308.0)))
@example(hpa=1e-12, fov=1e-300, n=1.5)
@example(hpa=1e-9, fov=1e-160, n=1.5)
@example(hpa=1e-6, fov=85.0, n=1e150)
@example(hpa=60.0, fov=85.0, n=1e200)
@example(hpa=89.99999999999999, fov=90.0, n=1.0)
def test_records_refuse_exactly_what_the_channel_cannot_use(hpa, fov, n):
    """A Transmitter refuses exactly the half-power angles whose Lambertian
    order the channel cannot compute, and a Receiver exactly the FOVs and
    refractive indices whose concentrator gain raises or is not finite."""
    assert (_refused(lambda: Transmitter(position=(1.0, 1.0, 3.0), hpa_deg=hpa))
            == _fails(lambda: ch.lambertian_order(hpa)))
    assert (_refused(lambda: Receiver(fov_deg=fov, refractive_index=n))
            == _fails(lambda: ch.concentrator_gain(1.0, fov, n)))


def test_scene_load_names_the_file_in_every_refusal(tmp_path):
    path = tmp_path / "room.json"
    for edit in (lambda d: d["room"].update(lx=math.inf),
                 lambda d: d["transmitters"][0].update(power_mw=math.inf),
                 lambda d: d["receiver"].update(area_m2=math.inf),
                 lambda d: d.update(wall_reflectance=2.0),
                 lambda d: d.update(extra=1)):
        doc = preset_scene("mid").to_dict()
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ")):
            Scene.load(path)


def test_json_round_trip(tmp_path):
    """save/load must reconstruct an identical scene, with stable file content."""
    sc = preset_scene("big", led_count=4)
    p = tmp_path / "scene.json"
    sc.save(p)
    assert Scene.load(p) == sc
    # deterministic serialization: saving again yields identical bytes
    p2 = tmp_path / "scene2.json"
    sc.save(p2)
    assert p.read_bytes() == p2.read_bytes()
    # keys are sorted for reproducible diffs
    d = json.loads(p.read_text())
    assert list(d) == sorted(d)


def test_positions_coerced_to_float_tuple():
    tx = Transmitter(position=[1, 2, 3])
    assert tx.position == (1.0, 2.0, 3.0)
    assert all(isinstance(c, float) for c in tx.position)


def test_scene_is_immutable():
    sc = preset_scene("small")
    with pytest.raises(Exception):
        sc.wall_reflectance = 0.5
    assert isinstance(sc.transmitters, tuple)


def test_led_height_matches_room():
    for name, (_, _, lz) in PRESET_ROOMS.items():
        for tx in preset_scene(name, led_count=4).transmitters:
            assert math.isclose(tx.position[2], lz)


_NON_NUMBERS = [("1000", "a real number"), (True, "a real number"), (None, "a real number"),
                (10**400, "finite")]


@pytest.mark.parametrize("value, must", _NON_NUMBERS)
@pytest.mark.parametrize("cls, field", [
    (Room, "lx"), (Room, "lz"), (Transmitter, "position"), (Transmitter, "power_mw"),
    (Transmitter, "hpa_deg"), (Receiver, "area_m2"), (Receiver, "fov_deg"),
    (Receiver, "filter_gain"), (Receiver, "refractive_index"), (Receiver, "responsivity"),
    (Scene, "wall_reflectance")])
def test_scene_records_refuse_non_numbers_by_name(cls, field, value, must):
    """A str, a bool, None or an int too large for a float is refused with
    the class and field named, before any other check can trip on it."""
    room, tx = Room(3.0, 3.0, 3.0), Transmitter(position=(1.0, 1.0, 3.0))
    kw = {Room: {"lx": 3.0, "ly": 3.0, "lz": 3.0}, Transmitter: {"position": (1.0, 1.0, 3.0)},
          Receiver: {}, Scene: {"room": room, "transmitters": (tx,)}}[cls]
    kw[field] = (1.0, value, 3.0) if field == "position" else value
    with pytest.raises(ValueError, match=f"^{cls.__name__} {field} must be {must}, got "):
        cls(**kw)


def test_whole_numbers_stay_accepted():
    assert Room(3, 4, 3).lx == 3
    assert Transmitter(position=(1, 2, 3), power_mw=10**300).power_mw == 10**300
    assert Scene(room=Room(3, 3, 3), transmitters=(Transmitter(position=(1, 1, 3)),),
                 wall_reflectance=1).wall_reflectance == 1
