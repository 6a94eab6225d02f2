import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ulmimo
from ulmimo.errors import InvalidInputError
from ulmimo.fading import FadingDistribution
from ulmimo.geometry import Cost231Params
from ulmimo.rng import seed_substream
from ulmimo.scenario import (_GAIN_MODELS, MAX_CELLS, Coherence,
                             IdealizedGains, PilotSettings, Scenario,
                             _parse_text, parse_scenario, scenario_from_dict,
                             scenario_hash, scenario_to_dict,
                             serialize_scenario)

MINIMAL = {
    "schema": 1,
    "name": "tiny",
    "cells": 1,
    "alpha": 0.5,
    "noise_var": 0.01,
    "gain_model": {"kind": "idealized", "beta_other": 0.1},
}

APOTHEM_1KM = np.sqrt(3.0) / 2.0 * 1000.0

# MINIMAL's fields as Scenario arguments, for building past the parser
DIRECT = dict(name="tiny", cells=1, alpha=0.5, noise_var=0.01,
              gain_model=IdealizedGains(beta_other=0.1))


class TestParsing:
    def test_minimal_single_cell(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(MINIMAL))
        sc = parse_scenario(path)
        assert sc.cells == 1 and sc.is_idealized
        assert sc.pilot.mode == "noiseless-repeated"  # defaults applied

    def test_beta_other_range_error(self, tmp_path):
        bad = dict(MINIMAL, gain_model={"kind": "idealized", "beta_other": 1.5})
        path = tmp_path / "s.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(InvalidInputError, match="beta_other"):
            parse_scenario(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra_field=1),
        lambda d: d["gain_model"].update(bogus=2),
        lambda d: d.update(pilot={"mode": "noiseless-repeated", "oops": 3}),
    ])
    def test_unknown_keys_rejected(self, mutate):
        data = json.loads(json.dumps(MINIMAL))
        mutate(data)
        with pytest.raises(InvalidInputError, match="unknown field"):
            scenario_from_dict(data)

    def test_missing_required_field(self):
        data = dict(MINIMAL)
        del data["noise_var"]
        with pytest.raises(InvalidInputError, match="noise_var"):
            scenario_from_dict(data)

    def test_schema_version_checked(self):
        data = dict(MINIMAL, schema=99)
        with pytest.raises(InvalidInputError, match="schema"):
            scenario_from_dict(data)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "schema": 1,\n  broken\n}')
        with pytest.raises(InvalidInputError, match="line 3"):
            parse_scenario(path)

    def test_missing_file(self):
        with pytest.raises(InvalidInputError, match="not found"):
            parse_scenario("no-such-scenario")

    @pytest.mark.parametrize("cells", [2, 3, 19])
    def test_cost231_cell_count_rejected(self, cells):
        data = dict(MINIMAL, cells=cells, gain_model={"kind": "cost231"})
        with pytest.raises(InvalidInputError, match="cells"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("exclusion", [APOTHEM_1KM + 1.0, 5000.0])
    def test_exclusion_beyond_apothem_rejected(self, exclusion):
        data = dict(MINIMAL, cells=7, gain_model={
            "kind": "cost231", "cell_radius_m": 1000.0,
            "exclusion_radius_m": exclusion})
        with pytest.raises(InvalidInputError, match="apothem"):
            scenario_from_dict(data)

    def test_exclusion_at_apothem_accepted_and_drops(self):
        sc = scenario_from_dict(dict(MINIMAL, cells=7, gain_model={
            "kind": "cost231", "cell_radius_m": 1000.0,
            "exclusion_radius_m": APOTHEM_1KM}))
        assert sc.gain_matrix(5, seed_substream(4, "apothem")).shape == (7, 5)

    @pytest.mark.parametrize("text", [
        '{"alpha": NaN}', '{"alpha": Infinity}', '{"alpha": -Infinity}',
        '{"pilot": {"pilot_snr_db": NaN}}'])
    def test_non_finite_json_constants_rejected(self, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="not a number"):
            parse_scenario(path)

    @pytest.mark.parametrize("text", [
        '{"alpha": 0.5, "alpha": 0.9}',
        '{"gain_model": {"kind": "idealized", "kind": "cost231"}}'])
    def test_repeated_key_rejected(self, tmp_path, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(InvalidInputError, match="appears twice"):
            parse_scenario(path)

    def test_unreadable_file_is_scenario_error(self, tmp_path):
        (tmp_path / "s.json").write_bytes(b'{"name": "\xff"}')
        with pytest.raises(InvalidInputError, match="cannot read"):
            parse_scenario(tmp_path / "s.json")
        with pytest.raises(InvalidInputError, match="cannot read"):
            parse_scenario(tmp_path)

    def test_deeply_nested_json_is_scenario_error(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(InvalidInputError, match="nested"):
            parse_scenario(path)

    @pytest.mark.parametrize("cells", [0, MAX_CELLS + 1, 1_000_000])
    def test_cell_count_outside_cap_rejected(self, cells):
        message = "cells must be at least 1" if cells < 1 else "cells must lie"
        with pytest.raises(InvalidInputError, match=message):
            scenario_from_dict(dict(MINIMAL, cells=cells))

    @pytest.mark.parametrize("cells, message", [
        (True, "cells must be an integer"), (7.0, "cells must be an integer"),
        ("7", "cells must be an integer"), (None, "cells must be an integer")])
    def test_cell_count_not_an_integer_refused(self, cells, message):
        # built directly, past the parser
        with pytest.raises(InvalidInputError, match=message):
            Scenario(name="tiny", cells=cells, alpha=0.5, noise_var=0.01,
                     gain_model=IdealizedGains(beta_other=0.1))

    @pytest.mark.parametrize("field", ["alpha", "noise_var"])
    @pytest.mark.parametrize("value", [True, "0.5", None])
    def test_real_field_not_a_real_number_refused(self, field, value):
        # built directly, past the parser: True was taken as 1
        kwargs = dict(name="tiny", cells=1, alpha=0.5, noise_var=0.01,
                      gain_model=IdealizedGains(beta_other=0.1))
        with pytest.raises(InvalidInputError,
                           match=f"^{field} must be a real number"):
            Scenario(**dict(kwargs, **{field: value}))

    def test_cell_cap_accepted(self):
        assert scenario_from_dict(dict(MINIMAL, cells=MAX_CELLS)).cells == MAX_CELLS

    @pytest.mark.parametrize("snr_db", [-100.5, 100.5, 1e6, -1e6])
    def test_pilot_snr_outside_range_rejected(self, snr_db):
        with pytest.raises(InvalidInputError, match="pilot_snr_db"):
            scenario_from_dict(dict(MINIMAL, pilot={"pilot_snr_db": snr_db}))

    @pytest.mark.parametrize("snr_db", [-100, 100.0])
    def test_pilot_snr_range_ends_accepted(self, snr_db):
        sc = scenario_from_dict(dict(MINIMAL, pilot={"pilot_snr_db": snr_db}))
        assert 0.0 < sc.pilot.pilot_snr < float("inf")

    def test_settings_checks_fail_on_nan(self):
        with pytest.raises(InvalidInputError):
            PilotSettings(pilot_snr_db=float("nan"))
        with pytest.raises(InvalidInputError):
            Coherence(symbols=float("nan"))

    # built directly, past the parser: the bools and the 2.5 were
    # accepted, the strings raised TypeError and the name AttributeError
    @pytest.mark.parametrize("build, message", [
        (lambda: PilotSettings(pilot_snr_db=True), "pilot_snr_db must be a real"),
        (lambda: PilotSettings(pilot_snr_db="x"), "pilot_snr_db must be a real"),
        (lambda: Coherence(symbols=True, subcarriers=2.5),
         "symbols must be an integer"),
        (lambda: Coherence(subcarriers=2.5), "subcarriers must be an integer"),
        (lambda: Coherence(symbols="a"), "symbols must be an integer"),
        (lambda: IdealizedGains(beta_other="x"), "beta_other must be a real"),
        (lambda: Scenario(**dict(DIRECT, gain_model={})),
         "gain_model must be IdealizedGains or Cost231Params"),
        (lambda: Scenario(**dict(DIRECT, pilot=None)), "pilot must be PilotSettings"),
        (lambda: Scenario(**dict(DIRECT, name=5)), "name must be non-empty")],
        ids=["snr-bool", "snr-str", "coherence-bool-float", "coherence-float",
             "coherence-str", "beta-str", "gain-model-dict", "pilot-none",
             "name-int"])
    def test_settings_built_directly_refuse_what_parsing_refuses(self, build,
                                                                 message):
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            build()

    # refusals past the key checks, each with its message and the origin
    # prefix; the last comes from geometry.Cost231Params
    @pytest.mark.parametrize("text, message", [
        (json.dumps(dict(MINIMAL, pilot={"mode": "noisy"})),
         "unknown pilot mode 'noisy'"),
        (json.dumps(dict(MINIMAL, alpha=0)), "alpha must be positive and finite"),
        (json.dumps(dict(MINIMAL, gain_model={"kind": "rayleigh"})),
         "unknown gain model kind 'rayleigh'"),
        ("[]", "scenario must be a JSON object, got []"),
        (json.dumps(dict(MINIMAL, gain_model={"kind": "cost231",
                                              "carrier_freq_mhz": 100.0})),
         "carrier frequency outside model validity")],
        ids=["pilot-mode", "alpha-zero", "gain-model-kind", "json-array",
             "cost231-range"])
    def test_value_refused_with_its_message(self, text, message):
        with pytest.raises(InvalidInputError) as info:
            _parse_text(text, "s.json")
        assert str(info.value) == f"s.json: {message}"

    def test_cost231_validity_wrapped(self):
        data = dict(MINIMAL, gain_model={"kind": "cost231",
                                         "carrier_freq_mhz": 100.0})
        with pytest.raises(InvalidInputError):
            scenario_from_dict(data)


# a JSON value of every kind but the one a field takes
_NOT_NUMBER = st.one_of(st.booleans(), st.text(max_size=3), st.none(),
                        st.lists(st.integers(), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(),
                                        max_size=1))
_NON_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf")])
_BAD_VALUES = {
    "int": st.one_of(_NOT_NUMBER, st.floats(allow_nan=True)),
    "float": st.one_of(_NOT_NUMBER, _NON_FINITE),
    "nullable float": st.one_of(_NOT_NUMBER.filter(lambda v: v is not None),
                                _NON_FINITE),
    "str": st.one_of(st.booleans(), st.integers(), st.floats(), st.none(),
                     st.lists(st.text(max_size=2), max_size=2)),
    "object": st.one_of(st.booleans(), st.integers(), st.floats(), st.none(),
                        st.text(max_size=3), st.lists(st.integers(), max_size=2)),
}
_COMMON_FIELDS = {
    ("schema",): "int", ("name",): "str", ("cells",): "int",
    ("alpha",): "float", ("noise_var",): "float", ("gain_model",): "object",
    ("pilot",): "object", ("coherence",): "object",
    ("pilot", "mode"): "str", ("pilot", "pilot_snr_db"): "float",
    ("coherence", "symbols"): "int", ("coherence", "subcarriers"): "int",
}


def _field_kinds(data: dict) -> dict:
    kinds = dict(_COMMON_FIELDS)
    for key in data["gain_model"]:
        if key != "kind":
            kinds["gain_model", key] = ("nullable float"
                                        if key == "shadowing_sigma_db" else "float")
    return kinds


@st.composite
def fuzzed_scenarios(draw):
    """A bundled scenario with one field set to a wrong type or non-finite value."""
    data = scenario_to_dict(parse_scenario(
        draw(st.sampled_from(["idealized-01", "cost231-7cell"]))))
    kinds = _field_kinds(data)
    path = draw(st.sampled_from(sorted(kinds)))
    *parents, key = path
    holder = data
    for p in parents:
        holder = holder[p]
    holder[key] = draw(_BAD_VALUES[kinds[path]])
    return data


# every field set to each of these, parsed and built directly
_PARITY_VALUES = [True, False, None, "1", [1], {}, float("inf"), float("-inf"),
                  float("nan"), 10 ** 400, 0, -1, 2.5]


def _built_directly(data: dict) -> Scenario:
    """The config dataclasses of ``data`` built past the parser: a block that
    is a JSON object builds its class, any other value is passed as it is."""
    kwargs = {key: value for key, value in data.items() if key != "schema"}
    gm = kwargs["gain_model"]
    model = _GAIN_MODELS.get(gm.get("kind") if isinstance(gm, dict) else None)
    if model:
        kwargs["gain_model"] = model(**{k: v for k, v in gm.items()
                                        if k != "kind"})
    for key, cls in (("pilot", PilotSettings), ("coherence", Coherence)):
        if isinstance(kwargs[key], dict):
            kwargs[key] = cls(**kwargs[key])
    return Scenario(**kwargs)


def _refuses(build, data: dict) -> bool:
    try:
        build(data)
    except InvalidInputError:
        return True
    return False


class TestTypedFields:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(fuzzed_scenarios())
    def test_wrong_type_or_non_finite_value_rejected(self, data):
        with pytest.raises(InvalidInputError):
            scenario_from_dict(data)
        # the same file as text: NaN and infinities stop at the JSON layer
        with pytest.raises(InvalidInputError):
            _parse_text(json.dumps(data), "fuzzed")

    @pytest.mark.parametrize("field, value", [
        ("cells", True), ("cells", 1.5), ("cells", "7"), ("cells", 7.0),
        ("alpha", "0.5"), ("alpha", True), ("schema", True), ("schema", 1.0),
        ("name", 5), ("gain_model", [1, 2]), ("pilot", "noisy"),
        ("coherence", None),
        pytest.param("noise_var", 10 ** 400, id="noise_var-int-past-float")])
    def test_top_level_field_kinds(self, field, value):
        # a block's kind is judged by the parser, any other by the dataclass
        # that holds the value, or for schema by the version check
        message = {
            "cells": "cells must be an integer",
            "alpha": "alpha must be a real number",
            "noise_var": "noise_var must be a real number within the float range",
            "schema": "unsupported schema version",
            "name": "name must be non-empty printable text",
        }.get(field, f"{field} must be a JSON object")
        with pytest.raises(InvalidInputError, match=f"^{message}"):
            scenario_from_dict(dict(MINIMAL, **{field: value}))

    @pytest.mark.parametrize("bundled", ["idealized-01", "cost231-7cell"])
    def test_parser_refuses_exactly_what_the_dataclasses_refuse(self, bundled):
        # the parser judges keys and blocks only: a value set on any field
        # is refused parsed if and only if it is refused built directly
        # (alpha=inf was refused parsed and accepted built)
        base = scenario_to_dict(parse_scenario(bundled))
        disagree = []
        paths = {path for path in _field_paths(Scenario)
                 if path[0] != "gain_model" or path[-1] in base["gain_model"]}
        for path in sorted(paths | {("gain_model",), ("pilot",), ("coherence",)}):
            for value in _PARITY_VALUES:
                data = json.loads(json.dumps(base))
                *parents, key = path
                holder = data
                for p in parents:
                    holder = holder[p]
                holder[key] = value
                refused = [_refuses(scenario_from_dict, data),
                           _refuses(_built_directly, data)]
                if refused[0] != refused[1]:
                    disagree.append((path, value, refused))
        assert disagree == []

    def test_int_in_float_field_kept_as_written(self):
        # scenario_sha of a valid file with integer-valued floats does not
        # move (value recorded before the typed parser)
        data = scenario_to_dict(parse_scenario("cost231-7cell"))
        data.update(alpha=1, noise_var=1)
        data["gain_model"].update(cell_radius_m=1000, bs_height_m=30,
                                  exclusion_radius_m=35, shadowing_sigma_db=8)
        data["pilot"]["pilot_snr_db"] = 28
        sc = scenario_from_dict(data)
        assert scenario_hash(sc) == "39b5effd3bd8"
        assert '"pilot_snr_db": 28\n' in serialize_scenario(sc)

    def test_bundled_hashes_unchanged(self):
        # every file the package ships, so a new or renamed one fails here
        bundled = (Path(ulmimo.__file__).parent / "scenarios").glob("*.json")
        assert {path.stem: scenario_hash(parse_scenario(path.stem))
                for path in bundled} == {
            "cost231-7cell": "be87adebbf06", "idealized-001": "4dca3355b0d5",
            "idealized-01": "4f7b885c4343", "idealized-1": "45d9b30ee2e2"}


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["idealized-001", "idealized-01",
                                      "idealized-1", "cost231-7cell"])
    def test_bundled_roundtrip_fixpoint(self, name, tmp_path):
        sc = parse_scenario(name)
        path = tmp_path / "copy.json"
        path.write_text(serialize_scenario(sc))
        again = parse_scenario(path)
        assert again == sc
        assert scenario_hash(again) == scenario_hash(sc)

    def test_hash_changes_with_content(self):
        a = scenario_from_dict(MINIMAL)
        b = scenario_from_dict(dict(MINIMAL, noise_var=0.02))
        assert scenario_hash(a) != scenario_hash(b)

    def test_roundtrip_gains_identical(self):
        sc = parse_scenario("cost231-7cell")
        again = scenario_from_dict(scenario_to_dict(sc))
        g1 = sc.gain_matrix(20, seed_substream(3, "rt")).T
        g2 = again.gain_matrix(20, seed_substream(3, "rt")).T
        assert np.array_equal(g1, g2)


# a valid value other than the bundled one, for every field of every config
# dataclass, keyed by the field's path in the JSON file
NON_DEFAULT = {
    ("name",): "other", ("cells",): 1, ("alpha",): 0.75, ("noise_var",): 0.5,
    ("pilot", "mode"): "noisy-repeated", ("pilot", "pilot_snr_db"): 10.0,
    ("coherence", "symbols"): 3, ("coherence", "subcarriers"): 5,
    ("gain_model", "beta_other"): 0.2,
    ("gain_model", "cell_radius_m"): 500.0,
    ("gain_model", "tx_power_dbm"): 20.0,
    ("gain_model", "noise_power_dbm"): -170.0,
    ("gain_model", "noise_bandwidth_hz"): 1000.0,
    ("gain_model", "carrier_freq_mhz"): 1800.0,
    ("gain_model", "bs_height_m"): 40.0, ("gain_model", "ms_height_m"): 2.0,
    ("gain_model", "shadowing_sigma_db"): 8.0,
    ("gain_model", "exclusion_radius_m"): 50.0,
}


def _field_paths(cls, prefix=()) -> set:
    """JSON paths of the scalar fields of ``cls`` and of its nested configs."""
    nested = {"gain_model": (IdealizedGains, Cost231Params),
              "pilot": (PilotSettings,), "coherence": (Coherence,)}
    paths = set()
    for f in fields(cls):
        if f.name in nested:
            for inner in nested[f.name]:
                paths |= _field_paths(inner, (f.name,))
        else:
            paths.add((*prefix, f.name))
    return paths


class TestSchema:
    def test_every_field_has_a_non_default_value(self):
        assert _field_paths(Scenario) == set(NON_DEFAULT)

    @pytest.mark.parametrize("path", sorted(NON_DEFAULT), ids="-".join)
    def test_field_roundtrips_and_moves_the_hash(self, path, tmp_path):
        bundled = ("idealized-01" if path == ("gain_model", "beta_other")
                   else "cost231-7cell")
        data = scenario_to_dict(parse_scenario(bundled))
        *parents, key = path
        holder = data
        for p in parents:
            holder = holder[p]
        assert holder[key] != NON_DEFAULT[path]
        holder[key] = NON_DEFAULT[path]
        sc = scenario_from_dict(data)
        file = tmp_path / "edited.json"
        file.write_text(serialize_scenario(sc))
        again = parse_scenario(file)
        assert again == sc
        value = again
        for name in path:
            value = getattr(value, name)
        assert value == NON_DEFAULT[path]
        assert scenario_hash(again) != scenario_hash(parse_scenario(bundled))


_GAIN_FIELDS = [("idealized-01", f.name) for f in fields(IdealizedGains)] + [
    ("cost231-7cell", f.name) for f in fields(Cost231Params)]


class TestGainModelRanges:
    """Any finite number in a gain-model field is refused at parse time or
    gives gains a drop law accepts; none ends in another exception."""

    @settings(derandomize=True, max_examples=400, deadline=None,
              database=None)
    @given(field=st.sampled_from(_GAIN_FIELDS),
           value=st.floats(allow_nan=False, allow_infinity=False))
    # each passed parsing and then ended in OverflowError (transmit power,
    # drop sampler) or ZeroDivisionError (noise power) on the first drop
    @example(field=("cost231-7cell", "tx_power_dbm"), value=4000.0)
    # passed parsing, then its squared gains overflowed in the drop law
    @example(field=("cost231-7cell", "tx_power_dbm"), value=2500.0)
    @example(field=("cost231-7cell", "noise_power_dbm"), value=-4000.0)
    @example(field=("cost231-7cell", "cell_radius_m"), value=1e308)
    def test_finite_value_parses_and_drops_or_is_refused(self, field, value):
        bundled, key = field
        data = scenario_to_dict(parse_scenario(bundled))
        data["gain_model"][key] = value
        try:
            sc = scenario_from_dict(data)
            law = FadingDistribution(
                sc.gain_matrix(4, seed_substream(0, "fuzz")).T)
        except InvalidInputError:
            return
        assert np.isfinite(law.est_gain).all()
        assert np.isfinite(law.cross_est_gain).all()


class TestScenarioBehaviour:
    def test_idealized_gain_matrix(self):
        sc = parse_scenario("idealized-1")
        g = sc.gain_matrix(4, seed_substream(0, "gm"))
        assert g.shape == (7, 4)
        assert (g[0] == 1.0).all() and (g[1:] == 0.1).all()
        # the drop law's (n, B) samples are the transpose, summed in memory
        # order by FadingDistribution.mean_gains
        assert g.T.flags.c_contiguous
        assert np.array_equal(g, sc.gain_matrix(4, None))

    @pytest.mark.parametrize("name", ["idealized-1", "cost231-7cell"])
    @pytest.mark.parametrize("K", [True, 2.0])
    def test_non_integer_user_count_refused(self, name, K):
        with pytest.raises(InvalidInputError, match="K must be an integer"):
            parse_scenario(name).gain_matrix(K, seed_substream(0, "gm"))

    def test_layout_built_once(self, monkeypatch):
        from ulmimo import scenario as scenario_module
        calls = []
        real_hex_layout = scenario_module.hex_layout

        def counting(*args):
            calls.append(args)
            return real_hex_layout(*args)
        monkeypatch.setattr(scenario_module, "hex_layout", counting)
        sc = parse_scenario("cost231-7cell")
        for t in range(3):
            sc.gain_matrix(4, seed_substream(t, "gm"))
        sc.gain_matrix(10, seed_substream(0, "rows"))
        assert calls == [(7, 1000.0)]

    def test_idealized_scenario_has_no_layout(self):
        with pytest.raises(InvalidInputError, match="no cell layout"):
            parse_scenario("idealized-01").layout
