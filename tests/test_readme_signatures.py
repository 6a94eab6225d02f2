"""Every call signature README.md shows for a package function matches it,
the cost231 fields README lists are the fields of ``Cost231Params``, and
the exit code README gives each ``ulmimo.errors`` type is its ``exit_code``.

A backticked ``name(a, b, ...)`` whose name resolves to a function of a
``ulmimo`` module, or to a ``Scenario`` method, must list that function's
parameter names in order (``self`` left out); a parameter shown as
``name=value`` must have that default, spelled as its ``repr``. A
trailing ``...`` stands for any remaining parameters. Spans whose name
resolves to nothing in the package, such as the maths ``I(c)``, are not
signatures and are skipped.
"""

import inspect
import re
from dataclasses import fields
from pathlib import Path

import ulmimo
from ulmimo import (asymptotic, cli, errors, experiments, fading, geometry,
                    montecarlo, rng, scenario, validate)
from ulmimo.geometry import Cost231Params

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = (asymptotic, cli, experiments, fading, geometry, montecarlo, rng,
           scenario, validate)
CALL = re.compile(r"([A-Za-z_][\w.]*)\((.*)\)")
COST231_LIST = '`gain_model.kind` may also be `"cost231"` with fields'
EXIT_CODES = "Exit codes:"


def package_function(name: str):
    """The ulmimo function or Scenario method ``name`` names, else None."""
    owner, _, attr = name.rpartition(".")
    if owner == "Scenario":
        found = getattr(scenario.Scenario, attr, None)
        return found if inspect.isfunction(found) else None
    if owner:
        return None
    for module in MODULES:
        found = vars(module).get(name)
        if (inspect.isfunction(found)
                and found.__module__.startswith(ulmimo.__name__)):
            return found
    return None


def signature_drift(text: str) -> tuple[list[str], list[str]]:
    """(names checked, mismatches) over the inline code spans of ``text``."""
    text = re.sub(r"```.*?```", "", text, flags=re.DOTALL)  # fenced blocks
    checked, drift = [], []
    for span in re.findall(r"`([^`]+)`", text):
        match = CALL.fullmatch(" ".join(span.split()))
        if match is None:
            continue
        name, params = match.groups()
        function = package_function(name)
        if function is None:
            continue
        shown = [p.strip() for p in params.split(",")]
        defaulted = {p.partition("=")[0] for p in shown if "=" in p}
        actual = [f"{p.name}={p.default!r}" if p.name in defaulted else p.name
                  for p in inspect.signature(function).parameters.values()
                  if p.name != "self"]
        if shown[-1] == "...":
            shown, actual = shown[:-1], actual[:len(shown) - 1]
        checked.append(name)
        if shown != actual:
            drift.append(f"{name}({params}) but the function takes "
                         f"({', '.join(inspect.signature(function).parameters)})")
    return checked, drift


def test_readme_signatures_match_the_package():
    checked, drift = signature_drift(README.read_text())
    assert drift == []
    # spans that break across lines are checked too
    assert {"Scenario.gain_matrix", "monte_carlo_sweep", "percentile_sweep",
            "rate_table", "run_trial", "mmse_filter_pilot",
            "mmse_filter_perfect", "solve_det_eq",
            "solve_eta1_perfect"} <= set(checked)


def test_detects_a_renamed_parameter():
    text = ("`percentile_sweep(scenario, M, alpha_grid, trials, mode,\n"
            "master_seed)` over `I(c)` with `run_trial(scenario, K, M, ...)`"
            " and `Scenario.gain_matrix(K, generator)`")
    checked, drift = signature_drift(text)
    assert checked == ["percentile_sweep", "run_trial", "Scenario.gain_matrix"]
    assert [d.split("(")[0] for d in drift] == ["percentile_sweep",
                                               "Scenario.gain_matrix"]


def test_detects_a_wrong_default():
    text = ("`seed_substream(master_seed, tag, index=0)` and "
            "`run_all(emit=repr)`")
    checked, drift = signature_drift(text)
    assert checked == ["seed_substream", "run_all"]
    assert [d.split("(")[0] for d in drift] == ["run_all"]


def cost231_fields_listed(text: str) -> list[str]:
    """The names README lists as cost231 fields, up to the sentence's end."""
    listed = text[text.index(COST231_LIST) + len(COST231_LIST):]
    return re.findall(r"`([^`]+)`", re.split(r"\.\s", listed, maxsplit=1)[0])


def test_readme_lists_every_cost231_field():
    assert cost231_fields_listed(README.read_text()) == [
        f.name for f in fields(Cost231Params)]


def test_detects_a_missing_cost231_field():
    text = (f"{COST231_LIST} `cell_radius_m` and `tx_power_dbm`. Drop-model "
            "gains are `noise_var` units.")
    assert cost231_fields_listed(text) == ["cell_radius_m", "tx_power_dbm"]


def exit_codes_listed(text: str) -> dict[str, int]:
    """Type name to code over the ``<code> <what> (`Type`...`` entries of the
    exit-code paragraph, up to its blank line."""
    listed = text[text.index(EXIT_CODES):].split("\n\n", 1)[0]
    return {name: int(code) for code, name in re.findall(
        r"\b(\d) [\w -]+\(`(\w+)`", " ".join(listed.split()))}


def test_readme_exit_codes_match_the_error_types():
    defined = {cls.__name__: cls.exit_code for cls in vars(errors).values()
               if inspect.isclass(cls) and cls.__module__ == errors.__name__}
    assert exit_codes_listed(README.read_text()) == defined


def test_detects_a_wrong_exit_code():
    text = (f"{EXIT_CODES} 0 success; 2 bad input (`InvalidInputError`); 5\n"
            "no convergence (`ConvergenceError`).\n\n3 later (`NumericalError`)")
    assert exit_codes_listed(text) == {"InvalidInputError": 2,
                                       "ConvergenceError": 5}
