"""Finite constructions over markered symbolic arrays: canonical-chain
windows, two-gap marker hierarchies, truncated empirical-measure distances,
staged good/bad purification, and tabbed-rectangle stitching."""

__version__ = "0.1.0"
