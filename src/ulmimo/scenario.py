"""Scenario files: strict JSON configs that pin every experiment input.

A scenario fixes the cell count, noise variance, gain model and pilot
settings. Parsing is strict: unknown and repeated keys, NaN and
infinities, and values of the wrong JSON type are rejected, and every
range is validated, so a scenario hash plus a master seed fully determines
a run. Bundled scenarios (the idealized three and the 7-cell drop model)
live inside the package and can be referenced by name.
"""

from __future__ import annotations

import hashlib
import json
import math
import reprlib
from dataclasses import asdict, dataclass, field
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import geometry
from .errors import InvalidInputError, ScenarioError
from .geometry import Cost231Params, hex_layout

SCHEMA_VERSION = 1

# cap on cells: the idealized rate table holds a (cells, 10,000) gain array
MAX_CELLS = 100

# pilot SNR range in dB, wide enough for any link and keeping 10**(x/10) finite
PILOT_SNR_DB_RANGE = (-100.0, 100.0)

# accepted values of pilot.mode; they name the CLI's --estimate choices
# noiseless, noisy and training, but no run reads the field
_PILOT_MODES = ("noiseless-repeated", "noisy-repeated", "independent-training")


@dataclass(frozen=True)
class IdealizedGains:
    beta_other: float

    def __post_init__(self):
        if not 0.0 < self.beta_other < 1.0:
            raise ScenarioError("beta_other must lie in (0, 1)")


@dataclass(frozen=True)
class PilotSettings:
    """Pilot SNR of the noisy and training estimators.

    ``mode`` is parsed and hashed, but no run reads it: the runners take
    the estimate mode as an argument.
    """

    mode: str = _PILOT_MODES[0]
    pilot_snr_db: float = 28.0

    def __post_init__(self):
        if self.mode not in _PILOT_MODES:
            raise ScenarioError(f"unknown pilot mode {self.mode!r}")
        lo, hi = PILOT_SNR_DB_RANGE
        if not lo <= self.pilot_snr_db <= hi:
            raise ScenarioError(f"pilot_snr_db must lie in [{lo:g}, {hi:g}] dB")

    @property
    def pilot_snr(self) -> float:
        return 10.0 ** (self.pilot_snr_db / 10.0)


@dataclass(frozen=True)
class Coherence:
    """Coherent symbols and subcarriers; parsed and hashed, read by no run."""

    symbols: int = 7
    subcarriers: int = 14

    def __post_init__(self):
        if not (1 <= self.symbols and 1 <= self.subcarriers):
            raise ScenarioError("coherence block must be at least 1x1")


@dataclass(frozen=True)
class Scenario:
    name: str
    cells: int
    alpha: float  # parsed and hashed, read by no run: runners take a grid
    noise_var: float
    gain_model: IdealizedGains | Cost231Params
    pilot: PilotSettings = field(default_factory=PilotSettings)
    coherence: Coherence = field(default_factory=Coherence)

    def __post_init__(self):
        if not 1 <= self.cells <= MAX_CELLS:
            raise ScenarioError(f"cells must lie in [1, {MAX_CELLS}]")
        if not self.alpha > 0.0:
            raise ScenarioError("alpha must be positive")
        if not self.noise_var > 0.0:
            raise ScenarioError("noise_var must be positive")
        if not self.is_idealized and self.cells not in (1, 7):
            raise ScenarioError("cost231 scenarios need cells = 1 or 7")

    @property
    def is_idealized(self) -> bool:
        return isinstance(self.gain_model, IdealizedGains)

    @cached_property
    def layout(self) -> geometry.CellLayout:
        """Cell layout of a drop scenario, built on first use and kept for
        the scenario's life; idealized cells have no geometry."""
        if self.is_idealized:
            raise ScenarioError("an idealized scenario has no cell layout")
        return hex_layout(self.cells, self.gain_model.cell_radius_m)

    def gain_matrix(self, K: int, rng: np.random.Generator) -> np.ndarray:
        """(B, K) gains of K users per cell: one Monte Carlo trial or, transposed,
        K samples of the drop law (C-ordered, the order its mean is summed in)."""
        if self.is_idealized:
            row = geometry.idealized_row(self.cells, self.gain_model.beta_other)
            return np.repeat(row[None, :], K, axis=0).T
        drop = geometry.drop_users(self.layout, K, rng,
                                   exclusion_m=self.gain_model.exclusion_radius_m)
        return geometry.large_scale_gains(drop, self.gain_model, rng)


# ---------------------------------------------------------------------------
# strict parsing
# ---------------------------------------------------------------------------

# JSON value kinds of the fields below. A bool is not a number, an int
# field takes only ints, and a float field takes an int or a finite float,
# kept as written so that the scenario_sha of a valid file does not move.
_NULLABLE_FLOAT = "float or null"
_KIND_NAMES = {int: "an integer", float: "a finite number", str: "a string",
               dict: "a JSON object", _NULLABLE_FLOAT: "a finite number or null"}


def _has_kind(value, kind) -> bool:
    if kind is _NULLABLE_FLOAT:
        return value is None or _has_kind(value, float)
    if isinstance(value, bool):
        return False
    if kind is float:
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, kind)


def _take(mapping: dict, where: str, known: dict):
    """The fields of ``mapping``, checked against ``known``: key -> (required, kind)."""
    unknown = set(mapping) - set(known)
    if unknown:
        raise ScenarioError(f"unknown field(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (required, kind) in known.items():
        if key in mapping:
            value = mapping[key]
            if not _has_kind(value, kind):
                raise ScenarioError(
                    f"{where}.{key} must be {_KIND_NAMES[kind]}, "
                    f"got {reprlib.repr(value)}")
            out[key] = value
        elif required:
            raise ScenarioError(f"missing required field {key!r} in {where}")
    return out


_COST231_FIELDS = {f: (False, float) for f in (
    "cell_radius_m", "tx_power_dbm", "noise_power_dbm", "noise_bandwidth_hz",
    "carrier_freq_mhz", "bs_height_m", "ms_height_m", "exclusion_radius_m")}
_COST231_FIELDS["shadowing_sigma_db"] = (False, _NULLABLE_FLOAT)


def scenario_from_dict(data: dict) -> Scenario:
    top = _take(data, "scenario", {
        "schema": (True, int), "name": (True, str), "cells": (True, int),
        "alpha": (True, float), "noise_var": (True, float),
        "gain_model": (True, dict), "pilot": (False, dict),
        "coherence": (False, dict),
    })
    if top["schema"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {top['schema']!r}")

    gm = dict(top["gain_model"])
    kind = gm.pop("kind", None)
    try:
        if kind == "idealized":
            gain_model = IdealizedGains(
                **_take(gm, "gain_model", {"beta_other": (True, float)}))
        elif kind == "cost231":
            gain_model = Cost231Params(**_take(gm, "gain_model", _COST231_FIELDS))
        else:
            raise ScenarioError(f"unknown gain model kind {kind!r}")

        pilot = PilotSettings(**_take(top.get("pilot", {}), "pilot", {
            "mode": (False, str), "pilot_snr_db": (False, float)}))
        coherence = Coherence(**_take(top.get("coherence", {}), "coherence", {
            "symbols": (False, int), "subcarriers": (False, int)}))
        return Scenario(name=top["name"], cells=top["cells"],
                        alpha=float(top["alpha"]),
                        noise_var=float(top["noise_var"]),
                        gain_model=gain_model, pilot=pilot, coherence=coherence)
    except ScenarioError:
        raise
    except InvalidInputError as exc:  # the geometry's own range checks
        raise ScenarioError(str(exc)) from exc


def scenario_to_dict(scenario: Scenario) -> dict:
    gm = asdict(scenario.gain_model)
    gm["kind"] = "idealized" if scenario.is_idealized else "cost231"
    return {
        "schema": SCHEMA_VERSION,
        "name": scenario.name,
        "cells": scenario.cells,
        "alpha": scenario.alpha,
        "noise_var": scenario.noise_var,
        "gain_model": gm,
        "pilot": asdict(scenario.pilot),
        "coherence": asdict(scenario.coherence),
    }


def serialize_scenario(scenario: Scenario) -> str:
    return json.dumps(scenario_to_dict(scenario), indent=2, sort_keys=True) + "\n"


def scenario_hash(scenario: Scenario) -> str:
    canonical = json.dumps(scenario_to_dict(scenario), sort_keys=True,
                           separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


def bundled_scenario_names() -> list[str]:
    base = resources.files("ulmimo") / "scenarios"
    return sorted(p.name.removesuffix(".json")
                  for p in base.iterdir() if p.name.endswith(".json"))


def parse_scenario(path: str | Path) -> Scenario:
    """Parse a scenario file, or a bundled scenario referenced by name."""
    candidate = Path(path)
    if not candidate.exists():
        bundle = resources.files("ulmimo") / "scenarios" / f"{path}.json"
        if bundle.is_file():
            text = bundle.read_text()
            return _parse_text(text, str(path))
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        text = candidate.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"{path}: cannot read scenario: {exc}") from exc
    return _parse_text(text, str(path))


def _refuse_constant(name: str):
    raise ScenarioError(f"{name} is not a number a scenario may hold")


def _unique_keys(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ScenarioError(f"key {key!r} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def _parse_text(text: str, origin: str) -> Scenario:
    try:
        data = json.loads(text, parse_constant=_refuse_constant,
                          object_pairs_hook=_unique_keys)
        if not isinstance(data, dict):
            raise ScenarioError("scenario must be a JSON object")
        return scenario_from_dict(data)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{origin}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise ScenarioError(f"{origin}: JSON nested too deeply") from exc
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}") from exc
