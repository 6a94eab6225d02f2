"""Scenario files: strict JSON configs that pin every experiment input.

A scenario fixes the cell count, loading, noise variance, gain model and
pilot settings. Parsing is strict: unknown keys are rejected and every
range is validated, so a scenario hash plus a master seed fully determines
a run. Bundled scenarios (the idealized three and the 7-cell drop model)
live inside the package and can be referenced by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, replace
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import geometry
from .errors import ScenarioError
from .geometry import Cost231Params, hex_layout

SCHEMA_VERSION = 1

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

    @property
    def pilot_snr(self) -> float:
        return 10.0 ** (self.pilot_snr_db / 10.0)


@dataclass(frozen=True)
class Coherence:
    """Coherent symbols and subcarriers; parsed and hashed, read by no run."""

    symbols: int = 7
    subcarriers: int = 14

    def __post_init__(self):
        if self.symbols < 1 or self.subcarriers < 1:
            raise ScenarioError("coherence block must be at least 1x1")


@dataclass(frozen=True)
class Scenario:
    name: str
    cells: int
    alpha: float
    noise_var: float
    gain_model: IdealizedGains | Cost231Params
    pilot: PilotSettings = field(default_factory=PilotSettings)
    coherence: Coherence = field(default_factory=Coherence)

    def __post_init__(self):
        if self.cells < 1:
            raise ScenarioError("cells must be at least 1")
        if not self.alpha > 0.0:
            raise ScenarioError("alpha must be positive")
        if not self.noise_var > 0.0:
            raise ScenarioError("noise_var must be positive")
        if not self.is_idealized and self.cells not in (1, 7):
            raise ScenarioError("cost231 scenarios need cells = 1 or 7")

    @property
    def is_idealized(self) -> bool:
        return isinstance(self.gain_model, IdealizedGains)

    def with_alpha(self, alpha: float) -> "Scenario":
        return replace(self, alpha=alpha)

    @cached_property
    def layout(self) -> geometry.CellLayout:
        """Cell layout, built on first use and kept for the scenario's life."""
        radius = (self.gain_model.cell_radius_m
                  if isinstance(self.gain_model, Cost231Params) else 1000.0)
        return hex_layout(self.cells, radius)

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

def _take(mapping: dict, where: str, known: dict):
    unknown = set(mapping) - set(known)
    if unknown:
        raise ScenarioError(f"unknown field(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, required in known.items():
        if key in mapping:
            out[key] = mapping[key]
        elif required:
            raise ScenarioError(f"missing required field {key!r} in {where}")
    return out


def scenario_from_dict(data: dict) -> Scenario:
    top = _take(data, "scenario", {
        "schema": True, "name": True, "cells": True, "alpha": True,
        "noise_var": True, "gain_model": True, "pilot": False,
        "coherence": False,
    })
    if top["schema"] != SCHEMA_VERSION:
        raise ScenarioError(f"unsupported schema version {top['schema']!r}")

    gm = dict(top["gain_model"])
    kind = gm.pop("kind", None)
    try:
        if kind == "idealized":
            fields = _take(gm, "gain_model", {"beta_other": True})
            gain_model = IdealizedGains(**fields)
        elif kind == "cost231":
            fields = _take(gm, "gain_model", {
                "cell_radius_m": False, "tx_power_dbm": False,
                "noise_power_dbm": False, "noise_bandwidth_hz": False,
                "carrier_freq_mhz": False, "bs_height_m": False,
                "ms_height_m": False, "shadowing_sigma_db": False,
                "exclusion_radius_m": False,
            })
            gain_model = Cost231Params(**fields)
        else:
            raise ScenarioError(f"unknown gain model kind {kind!r}")

        pilot = PilotSettings(**_take(top.get("pilot", {}), "pilot", {
            "mode": False, "pilot_snr_db": False}))
        coherence = Coherence(**_take(top.get("coherence", {}), "coherence", {
            "symbols": False, "subcarriers": False}))
        return Scenario(name=str(top["name"]), cells=int(top["cells"]),
                        alpha=float(top["alpha"]),
                        noise_var=float(top["noise_var"]),
                        gain_model=gain_model, pilot=pilot, coherence=coherence)
    except ScenarioError:
        raise
    except (TypeError, ValueError) as exc:
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
    return _parse_text(candidate.read_text(), str(path))


def _parse_text(text: str, origin: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{origin}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    if not isinstance(data, dict):
        raise ScenarioError(f"{origin}: scenario must be a JSON object")
    try:
        return scenario_from_dict(data)
    except ScenarioError as exc:
        raise ScenarioError(f"{origin}: {exc}") from exc
