"""Every generator's output, and a simulated map, held to fixed bits.

The sha1 of each case below was computed before rooms began to share the
midpoint kernel's chunks, or (the 1-LED maps and the 2,000-row 4-LED
reference) before a chunk's rows began to skip the patch rows below them, so
a change to how rows, rooms or chunks are batched or cut must leave each
dataset and map byte for byte as it was. A dataset
hashes its features, its RSS column and its sorted-key `meta`; a map hashes
its values.
"""

import hashlib
import json

import pytest

from lumenrem import channel
from lumenrem import dataset as ds
from lumenrem.evalmap import simulate_map
from lumenrem.scene import preset_scene


def _dataset_sha1(d) -> str:
    return hashlib.sha1(d.features.tobytes() + d.rss_dbm.tobytes()
                        + json.dumps(d.meta, sort_keys=True).encode()).hexdigest()


_CASES = {
    "fixed mid 14": (
        lambda: ds.generate_fixed(preset_scene("mid"), 14),
        "617a82f04a0eb6c9d8178e9bed21bbd6b39f49b4"),
    "fixed mid 4-LED 10 seed 2": (
        lambda: ds.generate_fixed(preset_scene("mid", 4), 10, seed=2),
        "98a85d726538d8d2d12a7977529d9925efeb4325"),
    "variable 4 LEDs 3x3x3 seed 1": (
        lambda: ds.generate_variable(4, 3, 3, 3, seed=1),
        "11a7e3f4eab72ff6e8349fb00750b2e81d3ff8e5"),
    "variable 1 LED 2x2x6 seed 3": (
        lambda: ds.generate_variable(1, 2, 2, 6, seed=3),
        "e134ba1037490ce31d75a9baa6793f77bc22bd2c"),
    "reference mid 500 seed 101": (
        lambda: ds.generate_reference(preset_scene("mid"), 500, seed=101),
        "15b5d67bde370e942fd87c6932cc0afa1f57ea5b"),
    "reference_variable 1 LED 300 seed 3": (
        lambda: ds.generate_reference_variable(1, 300, seed=3),
        "c48f0054b27004ab1b5fffdd7bb0121fcc87de59"),
    "reference_variable 1 LED 300 seed 4": (
        lambda: ds.generate_reference_variable(1, 300, seed=4),
        "9e0c4f3fd07e398f9464cc97445d24c69344341c"),
    "reference_variable 4 LEDs 300 seed 5": (
        lambda: ds.generate_reference_variable(4, 300, seed=5),
        "b2e02d558dda52506922443e70b3dd85608f9c0a"),
    "reference_variable 4 LEDs 300 edge 0.1 seed 5": (
        lambda: ds.generate_reference_variable(4, 300, 0.1, seed=5),
        "f7ac279e6fd85a1d01ba66c6332721711337d384"),
    # rows at every height, so every height cut and many refinement batches
    "reference mid 4-LED 2000 seed 7": (
        lambda: ds.generate_reference(preset_scene("mid", 4), 2000, seed=7),
        "e83f1e9cf3fbae0e44f45b078bab672553d1a9d4"),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_generated_dataset_keeps_its_bits(name):
    make, sha1 = _CASES[name]
    assert _dataset_sha1(make()) == sha1


def test_simulated_map_keeps_its_bits():
    m = simulate_map(preset_scene("mid", 4), 1.0, 0.1)
    sha1 = hashlib.sha1(m.values.tobytes()).hexdigest()
    assert sha1 == "4f66904a6cf972c55535b406a9c93d118ddddba3"


def _map_sha1(scene, z_plane: float) -> str:
    return hashlib.sha1(simulate_map(scene, z_plane, 0.1).values.tobytes()).hexdigest()


def test_the_one_led_map_keeps_its_bits():
    # the benchmark's map; 1.0 m is also the top edge of a patch row
    assert _map_sha1(preset_scene("mid"), 1.0) == "a4dadcf3724733a0435fdd5be1c992b86c18ef6b"


def test_a_map_on_a_computed_patch_top_edge_keeps_its_bits():
    scene = preset_scene("mid")
    pa = channel._PatchArrays.from_room(scene.room, channel.DEFAULT_PATCH_EDGE_M)
    top = float(pa.centers[6, 2] + 0.5 * pa.edges_v[6])  # 1.4000000000000001
    assert top == 1.4000000000000001
    assert _map_sha1(scene, top) == "fb67d3b0a68f6e4d594626cd515b2446f8c696f1"
