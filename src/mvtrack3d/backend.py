"""Name of the kernel implementation, reported in benchmark environments."""

BACKEND = "numpy"
