"""Shared pytest set-up: the `ci` hypothesis profile.

CI selects it with `--hypothesis-profile=ci`. It draws its examples from a
fixed seed, so a property that fails there fails the same way for anyone who
runs the same command, and it sets no deadline, as shared runners are slow
and uneven. Without the option, hypothesis keeps its default profile.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
