"""Uplink multi-cell MIMO: large-system SINR limits and Monte Carlo validation."""

__version__ = "0.1.0"
