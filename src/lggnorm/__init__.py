"""lggnorm: non-standard Korean word forms — detection, classification,
normalization via local grammar graphs compiled to transducers."""

__version__ = "0.1.0"
