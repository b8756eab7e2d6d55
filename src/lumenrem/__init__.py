"""lumenrem: indoor visible-light RSS simulation, surrogate models, radio maps."""

from .scene import Receiver, Room, Scene, Transmitter, preset_scene, variable_scene
from .channel import (
    received_power, received_power_many, received_power_rooms, rss_dbm, path_loss_db,
)

__version__ = "0.1.0"

__all__ = [
    "Room",
    "Transmitter",
    "Receiver",
    "Scene",
    "preset_scene",
    "variable_scene",
    "received_power",
    "received_power_many",
    "received_power_rooms",
    "rss_dbm",
    "path_loss_db",
    "__version__",
]
