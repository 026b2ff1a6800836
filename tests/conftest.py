"""Suite-wide hypothesis profile: property tests draw the same examples on
every run and have no per-example deadline, so a loaded host can neither
change what they check nor fail them on time."""

from hypothesis import settings

settings.register_profile("qgpc", derandomize=True, deadline=None)
settings.load_profile("qgpc")

pytest_plugins = ["pytester"]
