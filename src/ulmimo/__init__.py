"""Uplink multi-cell MIMO: large-system SINR limits and Monte Carlo validation."""

__version__ = "0.1.0"

from .asymptotic import (DetEqSolution, det_eq_sinr_rows, perfect_suppression,
                         solve_det_eq, solve_eta1_perfect, to_db)
from .fading import FadingDistribution, expect_total_gain
from .geometry import (CellLayout, Cost231Params, UserDrop, cost231_pathloss_db,
                       drop_users, hex_layout, idealized_gains,
                       large_scale_gains)
from .montecarlo import (ChannelRealization, EstimateSet, SinrBreakdown,
                         draw_channels, empirical_sinr, generate_pilot_sequences,
                         matched_filter, mmse_filter_perfect, mmse_filter_pilot,
                         pilot_estimate_noiseless, pilot_estimate_noisy,
                         theta_effective, training_based_estimate)
from .rng import seed_substream
from .scenario import Scenario, parse_scenario, scenario_hash

__all__ = [name for name in dir() if not name.startswith("_")]
