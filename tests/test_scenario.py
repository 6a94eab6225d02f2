import json

import numpy as np
import pytest

from ulmimo.errors import ScenarioError
from ulmimo.rng import seed_substream
from ulmimo.scenario import (Scenario, bundled_scenario_names, parse_scenario,
                             scenario_from_dict, scenario_hash,
                             scenario_to_dict, serialize_scenario)

MINIMAL = {
    "schema": 1,
    "name": "tiny",
    "cells": 1,
    "alpha": 0.5,
    "noise_var": 0.01,
    "gain_model": {"kind": "idealized", "beta_other": 0.1},
}

APOTHEM_1KM = np.sqrt(3.0) / 2.0 * 1000.0


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
        with pytest.raises(ScenarioError, match="beta_other"):
            parse_scenario(path)

    @pytest.mark.parametrize("mutate", [
        lambda d: d.update(extra_field=1),
        lambda d: d["gain_model"].update(bogus=2),
        lambda d: d.update(pilot={"mode": "noiseless-repeated", "oops": 3}),
    ])
    def test_unknown_keys_rejected(self, mutate):
        data = json.loads(json.dumps(MINIMAL))
        mutate(data)
        with pytest.raises(ScenarioError, match="unknown field"):
            scenario_from_dict(data)

    def test_missing_required_field(self):
        data = dict(MINIMAL)
        del data["noise_var"]
        with pytest.raises(ScenarioError, match="noise_var"):
            scenario_from_dict(data)

    def test_schema_version_checked(self):
        data = dict(MINIMAL, schema=99)
        with pytest.raises(ScenarioError, match="schema"):
            scenario_from_dict(data)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "schema": 1,\n  broken\n}')
        with pytest.raises(ScenarioError, match="line 3"):
            parse_scenario(path)

    def test_missing_file(self):
        with pytest.raises(ScenarioError, match="not found"):
            parse_scenario("no-such-scenario")

    @pytest.mark.parametrize("cells", [2, 3, 19])
    def test_cost231_cell_count_rejected(self, cells):
        data = dict(MINIMAL, cells=cells, gain_model={"kind": "cost231"})
        with pytest.raises(ScenarioError, match="cells"):
            scenario_from_dict(data)

    @pytest.mark.parametrize("exclusion", [APOTHEM_1KM + 1.0, 5000.0])
    def test_exclusion_beyond_apothem_rejected(self, exclusion):
        data = dict(MINIMAL, cells=7, gain_model={
            "kind": "cost231", "cell_radius_m": 1000.0,
            "exclusion_radius_m": exclusion})
        with pytest.raises(ScenarioError, match="apothem"):
            scenario_from_dict(data)

    def test_exclusion_at_apothem_accepted_and_drops(self):
        sc = scenario_from_dict(dict(MINIMAL, cells=7, gain_model={
            "kind": "cost231", "cell_radius_m": 1000.0,
            "exclusion_radius_m": APOTHEM_1KM}))
        assert sc.gain_matrix(5, seed_substream(4, "apothem")).shape == (7, 5)

    def test_cost231_validity_wrapped(self):
        data = dict(MINIMAL, gain_model={"kind": "cost231",
                                         "carrier_freq_mhz": 100.0})
        with pytest.raises(ScenarioError):
            scenario_from_dict(data)


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

    def test_bundled_names(self):
        names = bundled_scenario_names()
        assert {"idealized-001", "idealized-01", "idealized-1",
                "cost231-7cell"} <= set(names)

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

    def test_with_alpha(self):
        sc = parse_scenario("idealized-01")
        assert sc.with_alpha(0.7).alpha == 0.7
        assert sc.alpha == 0.5
