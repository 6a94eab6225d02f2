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
from dataclasses import MISSING, asdict, dataclass, field, fields
from functools import cached_property
from importlib import resources
from pathlib import Path

import numpy as np

from . import geometry
from .errors import InvalidInputError
from .geometry import Cost231Params, hex_layout

SCHEMA_VERSION = 1

# cap on cells: the idealized rate table holds a (cells, 10,000) gain array
MAX_CELLS = 100

# cap on noise_var, mirroring the drop model's 1e-150 gain floor: past it
# eta1**-2 overflows and the simulated powers underflow to zero
MAX_NOISE_VAR = 1e150

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
            raise InvalidInputError("beta_other must lie in (0, 1)")


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
            raise InvalidInputError(f"unknown pilot mode {self.mode!r}")
        lo, hi = PILOT_SNR_DB_RANGE
        if not lo <= self.pilot_snr_db <= hi:
            raise InvalidInputError(f"pilot_snr_db must lie in [{lo:g}, {hi:g}] dB")

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
            raise InvalidInputError("coherence block must be at least 1x1")


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
        # the name is one value of the CSV header's space-separated key=value
        if not self.name or not self.name.isprintable() or " " in self.name:
            raise InvalidInputError(
                "name must be non-empty printable text without whitespace")
        if not 1 <= self.cells <= MAX_CELLS:
            raise InvalidInputError(f"cells must lie in [1, {MAX_CELLS}]")
        if not self.alpha > 0.0:
            raise InvalidInputError("alpha must be positive")
        if not 0.0 < self.noise_var <= MAX_NOISE_VAR:
            raise InvalidInputError(
                f"noise_var must lie in (0, {MAX_NOISE_VAR:g}]")
        if not self.is_idealized and self.cells not in (1, 7):
            raise InvalidInputError("cost231 scenarios need cells = 1 or 7")

    @property
    def is_idealized(self) -> bool:
        return isinstance(self.gain_model, IdealizedGains)

    @cached_property
    def layout(self) -> geometry.CellLayout:
        """Cell layout of a drop scenario, built on first use and kept for
        the scenario's life; idealized cells have no geometry."""
        if self.is_idealized:
            raise InvalidInputError("an idealized scenario has no cell layout")
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
# strict parsing: the dataclasses above and geometry.Cost231Params are the
# schema, one field per key
# ---------------------------------------------------------------------------

# JSON value kinds, read from the dataclass annotations (strings under
# postponed evaluation); any other annotation takes a JSON object. A bool is
# not a number, an int field takes only ints, and a float field takes an int
# or a finite float, kept as written so that the scenario_sha of a valid
# file does not move.
_KIND_NAMES = {"int": "an integer", "float": "a finite number",
               "str": "a string", "float | None": "a finite number or null"}
_JSON_TYPES = {"int": int, "str": str}


def _has_kind(value, kind: str) -> bool:
    if value is None or isinstance(value, bool):
        return value is None and kind == "float | None"
    if kind.startswith("float"):
        try:
            return isinstance(value, (int, float)) and math.isfinite(value)
        except OverflowError:  # an int beyond the float range
            return False
    return isinstance(value, _JSON_TYPES.get(kind, dict))


def _take(mapping: dict, where: str, cls, **extra: str) -> dict:
    """The fields of ``mapping``, checked against the fields of dataclass
    ``cls`` plus the required ``extra`` keys (key -> kind)."""
    known = {key: (True, kind) for key, kind in extra.items()}
    for f in fields(cls):
        known[f.name] = (f.default is MISSING and f.default_factory is MISSING,
                         f.type)
    unknown = set(mapping) - set(known)
    if unknown:
        raise InvalidInputError(f"unknown field(s) in {where}: {sorted(unknown)}")
    out = {}
    for key, (required, kind) in known.items():
        if key in mapping:
            value = mapping[key]
            if not _has_kind(value, kind):
                raise InvalidInputError(
                    f"{where}.{key} must be "
                    f"{_KIND_NAMES.get(kind, 'a JSON object')}, "
                    f"got {reprlib.repr(value)}")
            out[key] = value
        elif required:
            raise InvalidInputError(f"missing required field {key!r} in {where}")
    return out


_GAIN_MODELS = {"idealized": IdealizedGains, "cost231": Cost231Params}
_GAIN_KINDS = {model: kind for kind, model in _GAIN_MODELS.items()}


def scenario_from_dict(data: dict) -> Scenario:
    top = _take(data, "scenario", Scenario, schema="int")
    schema = top.pop("schema")
    if schema != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported schema version {schema!r}")

    gm = dict(top["gain_model"])
    kind = gm.pop("kind", None)
    model = _GAIN_MODELS.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise InvalidInputError(f"unknown gain model kind {kind!r}")
    top.update(
        alpha=float(top["alpha"]), noise_var=float(top["noise_var"]),
        gain_model=model(**_take(gm, "gain_model", model)),
        pilot=PilotSettings(**_take(top.get("pilot", {}), "pilot",
                                    PilotSettings)),
        coherence=Coherence(**_take(top.get("coherence", {}), "coherence",
                                    Coherence)))
    return Scenario(**top)


def scenario_to_dict(scenario: Scenario) -> dict:
    data = {"schema": SCHEMA_VERSION, **asdict(scenario)}
    data["gain_model"]["kind"] = _GAIN_KINDS[type(scenario.gain_model)]
    return data


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
            return _parse_text(bundle.read_text(), str(path))
        raise InvalidInputError(f"scenario file not found: {path}")
    try:
        text = candidate.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: cannot read scenario: {exc}") from exc
    return _parse_text(text, str(path))


def _refuse_constant(name: str):
    raise InvalidInputError(f"{name} is not a number a scenario may hold")


def _unique_keys(pairs: list) -> dict:
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise InvalidInputError(f"key {key!r} appears twice in one object")
        seen.add(key)
    return dict(pairs)


def _parse_text(text: str, origin: str) -> Scenario:
    try:
        data = json.loads(text, parse_constant=_refuse_constant,
                          object_pairs_hook=_unique_keys)
        if not isinstance(data, dict):
            raise InvalidInputError("scenario must be a JSON object")
        return scenario_from_dict(data)
    except json.JSONDecodeError as exc:
        raise InvalidInputError(
            f"{origin}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except RecursionError as exc:
        raise InvalidInputError(f"{origin}: JSON nested too deeply") from exc
    except InvalidInputError as exc:
        raise InvalidInputError(f"{origin}: {exc}") from exc
    except ValueError as exc:  # an integer past int's digit limit
        # the message's advice after ';' names a Python call, not an input
        raise InvalidInputError(f"{origin}: {str(exc).partition(';')[0]}") from exc
