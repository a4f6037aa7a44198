"""Gas-sensor fusion classification toolkit."""

__version__ = "0.1.0"
