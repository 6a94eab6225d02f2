"""Scenario files: strict JSON configs that pin every experiment input.

A scenario fixes the cell count, noise variance, gain model and pilot
settings. Parsing is strict: unknown, missing and repeated keys, NaN and
infinities, and a block that is not a JSON object are rejected, and the
config dataclasses refuse every value outside their field's kind or range,
so a scenario hash plus a master seed fully determines a run. Bundled
scenarios (the idealized three and the 7-cell drop model) live inside the
package and can be referenced by name.
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
from .errors import InvalidInputError, check_count, check_real
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
        if not 0.0 < check_real("beta_other", self.beta_other) < 1.0:
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
        if not lo <= check_real("pilot_snr_db", self.pilot_snr_db) <= hi:
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
        check_count("symbols", self.symbols)
        check_count("subcarriers", self.subcarriers)


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
        if not (isinstance(self.name, str) and self.name
                and self.name.isprintable() and " " not in self.name):
            raise InvalidInputError(
                "name must be non-empty printable text without whitespace")
        check_count("cells", self.cells)
        if self.cells > MAX_CELLS:
            raise InvalidInputError(f"cells must lie in [1, {MAX_CELLS}]")
        if not 0.0 < check_real("alpha", self.alpha) < math.inf:  # NaN fails too
            raise InvalidInputError("alpha must be positive and finite")
        if not 0.0 < check_real("noise_var", self.noise_var) <= MAX_NOISE_VAR:
            raise InvalidInputError(
                f"noise_var must lie in (0, {MAX_NOISE_VAR:g}]")
        for key, kinds in (("gain_model", (IdealizedGains, Cost231Params)),
                           ("pilot", (PilotSettings,)), ("coherence", (Coherence,))):
            value = getattr(self, key)
            if not isinstance(value, kinds):
                raise InvalidInputError(
                    f"{key} must be {' or '.join(k.__name__ for k in kinds)}, "
                    f"got {reprlib.repr(value)}")
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
        check_count("K", K)
        if self.is_idealized:
            row = geometry.idealized_row(self.cells, self.gain_model.beta_other)
            return np.repeat(row[None, :], K, axis=0).T
        drop = geometry.drop_users(self.layout, K, rng,
                                   exclusion_m=self.gain_model.exclusion_radius_m)
        return geometry.large_scale_gains(drop, self.gain_model, rng)


# ---------------------------------------------------------------------------
# strict parsing: the dataclasses above and geometry.Cost231Params are the
# schema, one field per key, and each refuses its own bad values
# ---------------------------------------------------------------------------

def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise InvalidInputError(
            f"{where} must be a JSON object, got {reprlib.repr(value)}")
    return value


def _take(mapping, where: str, cls, *extra: str) -> dict:
    """JSON object ``mapping``, checked to hold only the fields of dataclass
    ``cls`` plus the ``extra`` keys, and every one without a default."""
    required = dict.fromkeys(extra, True)
    required.update((f.name, f.default is MISSING and f.default_factory is MISSING)
                    for f in fields(cls))
    unknown = set(_object(mapping, where)) - set(required)
    if unknown:
        raise InvalidInputError(f"unknown field(s) in {where}: {sorted(unknown)}")
    for key, needed in required.items():
        if needed and key not in mapping:
            raise InvalidInputError(f"missing required field {key!r} in {where}")
    return mapping


_GAIN_MODELS = {"idealized": IdealizedGains, "cost231": Cost231Params}
_GAIN_KINDS = {model: kind for kind, model in _GAIN_MODELS.items()}


def scenario_from_dict(data: dict) -> Scenario:
    top = dict(_take(data, "scenario", Scenario, "schema"))
    schema = top.pop("schema")
    # 1.0 and True equal 1, but only the integer is the version
    if type(schema) is not int or schema != SCHEMA_VERSION:
        raise InvalidInputError(f"unsupported schema version {schema!r}")

    gm = dict(_object(top["gain_model"], "gain_model"))
    kind = gm.pop("kind", None)
    model = _GAIN_MODELS.get(kind) if isinstance(kind, str) else None
    if model is None:
        raise InvalidInputError(f"unknown gain model kind {kind!r}")
    # every other number is kept as written, so a valid file's hash holds
    top.update(
        alpha=check_real("alpha", top["alpha"]),
        noise_var=check_real("noise_var", top["noise_var"]),
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
        return scenario_from_dict(json.loads(
            text, parse_constant=_refuse_constant, object_pairs_hook=_unique_keys))
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
