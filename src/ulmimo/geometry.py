"""Cell geometry and large-scale gain models.

Two gain models feed the rest of the package. The idealized model gives
every in-cell user unit gain and every other-cell user a constant
``beta_other``, which makes the fading law a point mass. The drop model
places users uniformly in a ring of hexagonal cells (one center cell plus
its six neighbours), applies a fixed urban path-loss law, and scales the
received power by the transmit-power-to-noise budget, so the resulting
gains are received-SNR units consumed directly by the solvers with the
scenario's configured noise variance.

Frozen propagation choices (conventional values, see the scenario files):
carrier 1900 MHz, base-station height 30 m, terminal height 1.5 m, urban
correction, 35 m exclusion disk around the serving base station,
log-normal shadowing available but off by default. The stated noise power
is ambiguous between a total and a per-Hz figure; ``noise_bandwidth_hz``
is the multiplier that re-anchors it (1.0 means "total as stated").
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from .errors import InvalidInputError, check_count, check_real
from .fading import FadingDistribution

SQRT3 = np.sqrt(3.0)

# Floor on every link gain: the drop law squares the gains, and 1e-150
# squared is still a normal float. Shadow fades count to 10 standard
# deviations (a normal draw exceeds that with probability below 1e-22).
_GAIN_FLOOR_DB = -1500.0
_SHADOW_FADE_SIGMAS = 10.0

@dataclass(frozen=True)
class CellLayout:
    """Hexagonal cells of circumradius ``radius_m`` centred at ``centers``.

    Cell 1 (index 0) is the receiving base station at the origin; hexagon
    vertices point along 0, 60, ..., 300 degrees, so neighbours sit at
    sqrt(3) * radius along 30 + 60k degrees.
    """

    centers: np.ndarray  # (B, 2) meters
    radius_m: float

    @property
    def num_cells(self) -> int:
        return self.centers.shape[0]


@dataclass(frozen=True)
class UserDrop:
    """Uniform user positions, one row of K users per cell."""

    positions: np.ndarray  # (B, K, 2) meters
    layout: CellLayout


@dataclass(frozen=True)
class Cost231Params:
    """Urban COST231-Hata propagation with a link budget.

    ``noise_bandwidth_hz`` multiplies the linear noise power; it is the
    single re-anchoring knob for the ambiguous noise reference.
    """

    cell_radius_m: float = 1000.0
    tx_power_dbm: float = 23.0
    noise_power_dbm: float = -174.0
    noise_bandwidth_hz: float = 1.0
    carrier_freq_mhz: float = 1900.0
    bs_height_m: float = 30.0
    ms_height_m: float = 1.5
    shadowing_sigma_db: float | None = None
    exclusion_radius_m: float = 35.0

    def __post_init__(self):
        # every check is written so that NaN fails it
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None and f.type == "float | None":
                continue
            if not math.isfinite(check_real(f.name, value)):
                raise InvalidInputError(f"{f.name} must be finite")
        if not self.cell_radius_m > 0.0:
            raise InvalidInputError("cell radius must be positive")
        # the ring's centres sit sqrt(3) R out, its candidates R around them
        edge_m = (math.sqrt(3.0) + 1.0) * self.cell_radius_m
        if not math.isfinite(edge_m):
            raise InvalidInputError("cell radius too large for finite coordinates")
        # a path gain is clamped at 1, so no gain exceeds r; the drop law
        # sums up to seven squared gains, all finite when 1 + 7 r^2 is
        try:
            r = self.tx_power_mw / self.noise_power_mw
            powers = (self.tx_power_mw, self.noise_power_mw, r, 1.0 + 7.0 * r * r)
        except (OverflowError, ZeroDivisionError):
            powers = (math.nan,)
        if not all(0.0 < p < math.inf for p in powers):
            raise InvalidInputError(
                "transmit power, noise power and their ratio must be finite "
                "and positive, and 7 times the ratio squared finite")
        if not 1500.0 <= self.carrier_freq_mhz <= 2000.0:
            raise InvalidInputError("carrier frequency outside model validity")
        if not 30.0 <= self.bs_height_m <= 200.0:
            raise InvalidInputError("base-station height outside model validity")
        if not 1.0 <= self.ms_height_m <= 10.0:
            raise InvalidInputError("terminal height outside model validity")
        # beyond the apothem the exclusion disk covers most of the cell and
        # the rejection sampler in drop_users stalls
        apothem = SQRT3 / 2.0 * self.cell_radius_m
        if not 0.0 < self.exclusion_radius_m <= apothem:
            raise InvalidInputError(
                "exclusion radius must be positive and not exceed the cell "
                f"apothem ({apothem:.1f} m)")
        if self.shadowing_sigma_db is not None and not self.shadowing_sigma_db >= 0.0:
            raise InvalidInputError("shadowing sigma must be nonnegative")
        # the weakest gain large_scale_gains can give: a user at the ring's
        # edge, under the deepest fade the sigma span allows
        edge_db = 10.0 * math.log10(r) - cost231_pathloss_db(edge_m, self)
        if not edge_db >= _GAIN_FLOOR_DB:
            raise InvalidInputError(
                f"cell_radius_m too large for the link budget: a user at the "
                f"ring's edge gets {edge_db:.0f} dB, below the "
                f"{_GAIN_FLOOR_DB:.0f} dB gain floor")
        max_sigma_db = (edge_db - _GAIN_FLOOR_DB) / _SHADOW_FADE_SIGMAS
        if not (self.shadowing_sigma_db or 0.0) <= max_sigma_db:
            raise InvalidInputError(
                f"shadowing_sigma_db above {max_sigma_db:.1f} dB: a 10-sigma "
                f"fade at the ring's edge falls below the "
                f"{_GAIN_FLOOR_DB:.0f} dB gain floor")

    @cached_property
    def pathloss_intercept_db(self) -> float:
        """Path loss at 1 km: the distance-free terms of the urban formula."""
        f = self.carrier_freq_mhz
        # medium-city mobile antenna correction, 0 dB area correction
        a_hm = (1.1 * np.log10(f) - 0.7) * self.ms_height_m - (1.56 * np.log10(f) - 0.8)
        return 46.3 + 33.9 * np.log10(f) - 13.82 * np.log10(self.bs_height_m) - a_hm

    @cached_property
    def pathloss_slope_db(self) -> float:
        """Path loss increase per decade of distance."""
        return 44.9 - 6.55 * np.log10(self.bs_height_m)

    @property
    def noise_power_mw(self) -> float:
        return 10.0 ** (self.noise_power_dbm / 10.0) * self.noise_bandwidth_hz

    @property
    def tx_power_mw(self) -> float:
        return 10.0 ** (self.tx_power_dbm / 10.0)


def hex_layout(B: int, radius_m: float) -> CellLayout:
    """Center cell alone (B=1) or with its first interfering ring (B=7)."""
    check_count("B", B)
    check_real("radius_m", radius_m)
    if not 0.0 < radius_m < math.inf:
        raise InvalidInputError("radius must be positive and finite")
    if B == 1:
        centers = np.zeros((1, 2))
    elif B == 7:
        angles = np.deg2rad(30.0 + 60.0 * np.arange(6))
        ring = SQRT3 * radius_m * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        centers = np.vstack([np.zeros((1, 2)), ring])
    else:
        raise InvalidInputError("only B=1 and B=7 layouts are supported")
    return CellLayout(centers=centers, radius_m=radius_m)


def points_in_hex(points: np.ndarray, center: np.ndarray, radius_m: float) -> np.ndarray:
    """Boolean mask of points inside the hexagon, the boundary inside with
    1e-9 m of slack; ``center`` is one (2,) centre or one (N, 2) row per
    point. By symmetry about both axes, the top edge (|y|) and the 30-degree
    edge (sqrt(3)/2 |x| + |y|/2) bound all six, each within the apothem."""
    if np.shape(points)[-1:] != (2,) or np.shape(center)[-1:] != (2,):
        raise InvalidInputError("points and center need a last axis of 2")
    offsets = np.subtract(np.atleast_2d(points), center, dtype=float)
    x, y = np.abs(offsets, out=offsets).T
    b = SQRT3 / 2.0 * radius_m + 1e-9
    inside = y <= b
    x *= SQRT3 / 2.0  # SQRT3 / 2 * x + 0.5 * y, in place on the offsets
    y *= 0.5
    x += y
    inside &= x <= b
    return inside


def _outside_disk(rel: np.ndarray, radius: float) -> np.ndarray:
    """``np.hypot(x, y) >= radius`` for each row (x, y) of ``rel``, with
    hypot called only inside the disk's bounding square: a faithfully
    rounded hypot is never below max(|x|, |y|). A NaN fails the strict
    test and takes the exact one. Overwrites ``rel`` with its magnitudes
    (hypot is symmetric in sign)."""
    x, y = np.abs(rel, out=rel).T
    out = (x > radius) | (y > radius)
    near = np.flatnonzero(~out)
    out[near] = np.hypot(x[near], y[near]) >= radius
    return out


# Bound on the candidates of every draw of drop_users and the users of every
# piece of large_scale_gains: the first rounds of 7 cells of up to 292 users
# share one draw, a longer round is drawn in pieces of at most this many,
# and a Monte Carlo trial's gains, up to 585 users a cell in 7 cells, are
# one piece.
_BLOCK_POINTS = 4096


def drop_users(layout: CellLayout, K: int, rng: np.random.Generator,
               exclusion_m: float) -> UserDrop:
    """K uniform positions per cell, outside the serving-BS exclusion disk.

    Rejection sampling from each cell's bounding square, bit-identical to
    the per-cell loop: cell by cell, draw max(2(K - got), 8) candidates and
    keep the accepted ones in draw order until K are kept. A cell's first
    round is drawn with those of the cells after it in its block; a cell
    that comes up short keeps what it accepted, the PCG64 stream jumps back
    over the later cells' rounds, and the cell finishes alone. A round of
    more than ``_BLOCK_POINTS`` candidates is drawn in pieces of at most
    that many; once the cell is full, the stream advances over the round's
    undrawn rest.
    """
    check_count("K", K)
    if not isinstance(rng.bit_generator, np.random.PCG64):
        raise InvalidInputError("drop_users needs a PCG64-backed generator")
    R = layout.radius_m
    # a NaN or wider disk would leave the rejection loop spinning
    if not 0.0 <= exclusion_m <= SQRT3 / 2.0 * R:
        raise InvalidInputError(
            "exclusion radius must lie between 0 and the cell apothem")
    per_block = max(1, _BLOCK_POINTS // max(2 * K, 8))
    pos = np.empty((layout.num_cells, K, 2))
    flat = pos.reshape(-1, 2)  # cell j, slot got is row j K + got
    filled, alone, rest = 0, False, 0
    while filled < flat.shape[0]:
        j, got = divmod(filled, K)
        need = K - got
        if not rest:  # a new round; only a lone cell's round outgrows a piece
            g = 1 if alone else min(per_block, layout.num_cells - j)
            rest = max(2 * need, 8)
        m = min(rest, _BLOCK_POINTS)
        rest -= m
        centers = np.repeat(layout.centers[j:j + g], m, axis=0)
        cand = rng.uniform(-R, R, size=centers.shape)
        cand += centers
        keep = (points_in_hex(cand, centers, R)
                & _outside_disk(cand - centers, exclusion_m)).reshape(g, m)
        # int32 counts: a piece holds at most _BLOCK_POINTS candidates
        kept = np.cumsum(keep, axis=1, dtype=np.int32)
        short = np.flatnonzero(kept[:, -1] < need)
        full = int(short[0]) if short.size else g
        # full cells take their first `need` accepted candidates, a short
        # one all of its own, and the cells after it none
        keep &= kept <= need
        keep[full + 1:] = False
        n = int(np.count_nonzero(keep))
        cand.compress(keep.ravel(), axis=0, out=flat[filled:filled + n])
        filled += n
        alone = full < g  # a short cell's next piece or round is its own
        # a short cell's stream jumps back over the later cells' rounds, a
        # full one's skips its round's undrawn rest
        skip, rest = (-m * (g - full - 1), rest) if alone else (rest, 0)
        if skip:
            rng.bit_generator.advance(2 * skip % 2**128)
    return UserDrop(positions=pos, layout=layout)


def cost231_pathloss_db(distance_m, params: Cost231Params):
    """Urban COST231-Hata path loss in dB; finite distances at or above the
    exclusion disk."""
    d = np.asarray(distance_m, dtype=float)
    if not np.isfinite(d).all():
        raise InvalidInputError("distance must be finite")
    if (d < params.exclusion_radius_m).any():
        raise InvalidInputError(
            f"distance below the {params.exclusion_radius_m} m exclusion disk")
    pl = np.asarray(d / 1000.0)  # a scalar quotient becomes a 0-d array
    np.log10(pl, out=pl)
    pl *= params.pathloss_slope_db
    pl += params.pathloss_intercept_db
    return pl if pl.ndim else float(pl)


def large_scale_gains(drop: UserDrop, params: Cost231Params,
                      rng: np.random.Generator) -> np.ndarray:
    """(B, K) linear gains of every user to base station 1, in SNR units.

    Path gain (with optional log-normal shadowing) is clamped at 1 so no
    link delivers more power than was transmitted, then scaled by transmit
    power over the noise reference. The generator is consumed only when
    shadowing is on, so the no-shadowing gains are a pure function of the
    positions.
    """
    bs1 = drop.layout.centers[0]
    gain = np.empty(drop.positions.shape[:-1])
    xy, flat = drop.positions.reshape(-1, 2), gain.reshape(-1)
    # distance and path loss in pieces of at most _BLOCK_POINTS users, the
    # rest in place on the whole array
    for start in range(0, flat.size, _BLOCK_POINTS):
        x, y = xy[start:start + _BLOCK_POINTS].T
        d = flat[start:start + _BLOCK_POINTS]
        np.subtract(x, bs1[0], out=d)
        np.hypot(d, y - bs1[1], out=d)
        np.maximum(d, params.exclusion_radius_m, out=d)
        d[:] = cost231_pathloss_db(d, params)
    gain /= -10.0
    np.power(10.0, gain, out=gain)
    if params.shadowing_sigma_db is not None and params.shadowing_sigma_db > 0.0:
        shadow = params.shadowing_sigma_db * rng.standard_normal(gain.shape)
        shadow /= 10.0
        gain *= np.power(10.0, shadow, out=shadow)
    clamped = int(np.count_nonzero(gain > 1.0))
    if clamped:
        import logging  # here, not at import: no bundled scenario clamps
        logging.getLogger(__name__).warning(
            "clamped %d link gains at unit path gain", clamped)
        np.minimum(gain, 1.0, out=gain)
    gain *= params.tx_power_mw / params.noise_power_mw
    return gain


def idealized_row(B: int, beta_other: float) -> np.ndarray:
    """(B,) gains of a user in each cell: unit in-cell, constant other-cell."""
    check_count("B", B)
    if not 0.0 < check_real("beta_other", beta_other) < 1.0:
        raise InvalidInputError("beta_other must lie in (0, 1)")
    return np.concatenate([[1.0], np.full(B - 1, beta_other)])


def idealized_gains(B: int, beta_other: float) -> FadingDistribution:
    """Point-mass law of the idealized row."""
    return FadingDistribution(idealized_row(B, beta_other))

