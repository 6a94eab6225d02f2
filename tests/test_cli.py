import contextlib
import hashlib
import inspect
import io
import itertools
import json
import re
import tempfile
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ulmimo import asymptotic as la
from ulmimo import cli, errors
from ulmimo import rng as rng_module
from ulmimo.errors import ConvergenceError, InvalidInputError, NumericalError
from ulmimo.geometry import idealized_gains
from ulmimo.rng import seed_substream
from ulmimo.scenario import (MAX_NOISE_VAR, parse_scenario, scenario_to_dict,
                             serialize_scenario)

# Monte Carlo outputs pinned bit for bit: SHA-256 of the CSV from each run
# below at seed 7. The Monte Carlo and percentile pins were re-recorded when
# the dense filter solve moved from Cholesky to LU (np.linalg.solve), after
# a check that only float cells moved, each by at most 1e-12 relative. The
# percentile and rates pins were re-recorded when eta1 moved to Newton's
# root and E[B] - C to a sum without that difference: only the pilot-MMSE
# limit columns moved, by at most 1.1e-12 relative.
_GOLDEN_MC = ("--antennas", "8", "--alpha", "0.25,0.5,1.0", "--trials", "20",
              "--seed", "7")
GOLDEN_MC_RUNS = {
    "montecarlo-noiseless": (
        ("montecarlo", "--scenario", "idealized-01", "--estimate", "noiseless")
        + _GOLDEN_MC, "montecarlo.csv",
        "83336b5f9b87937ce57db64f2e7d06bf1bf35014731181853df57f51232202a1"),
    "montecarlo-noisy": (
        ("montecarlo", "--scenario", "idealized-01", "--estimate", "noisy")
        + _GOLDEN_MC, "montecarlo.csv",
        "cb08a6b4357e9e81b734f90cbeeccf202cabdefa5042ec090e2fe10b769b86a7"),
    "montecarlo-training": (
        ("montecarlo", "--scenario", "idealized-01", "--estimate", "training")
        + _GOLDEN_MC, "montecarlo.csv",
        "c4d5908f695e9569c28666925dffbefbb70135a9ef8de35e33531df0c1885c4a"),
    "percentile-cost231": (
        ("percentile", "--scenario", "cost231-7cell") + _GOLDEN_MC,
        "percentile.csv",
        "f4933f6e0a1b7c9cfdbb44d8aa6ec456123762a8494b1f28a243ea484415fa97"),
    # The drop-law runners, recorded before the drop law moved onto
    # Scenario.gain_matrix: the idealized rows feed mean_gains, whose sum
    # depends on the memory layout of the (n, B) gain array.
    "percentile-idealized-1": (
        ("percentile", "--scenario", "idealized-1") + _GOLDEN_MC,
        "percentile.csv",
        "a131ca416653d8a7754e8172122a1b0eaebb1425db69e979af90e8ed98aeb729"),
    "rates-idealized-01": (
        ("rates", "--scenario", "idealized-01"), "rates.csv",
        "8cfc9d22818962cd392f03426f870f14d506d9cfc5b9d99d1969dbc3d31aabe0"),
    "rates-cost231": (
        ("rates", "--scenario", "cost231-7cell"), "rates.csv",
        "93d8831f95a378ffbdb0b2b656c3ae2ba724909ef0d633b6081b9d3148f6ad72"),
    # The 10,000-drop rate table at the benchmark's holdout seed (its
    # default seed 0 is pinned just above), first recorded before the
    # det-eq maps read per-law constants and a reused scratch.
    "rates-cost231-seed4099": (
        ("rates", "--scenario", "cost231-7cell", "--seed", "4099"), "rates.csv",
        "ff287490cd3bdbf8f2ac1363e5054199364afca591634262fa2edcc803ee8a89"),
}

# Monte Carlo on cost231-7cell with 8 dB shadowing, recorded before the
# block drop sampler (shadowing and channel draws follow a stream that
# the sampler may have rewound and advanced) and re-recorded with the
# Monte Carlo pins above.
GOLDEN_SHADOWED_MC = {
    "noiseless": "d16168017f10dcbdac3f00bca4bf9313abee00be4b7ec5d8822c1a7293f4ab0c",
    "noisy": "8984b28279de2a7c0a0c45d2a14543976017a6b3b6cf6f60c27487da7f16f78f",
    "training": "81f5fe1267daa2f5641aca66886a309fd1ec54d644a6073740d2d24a82e1748a",
}


README = Path(__file__).resolve().parents[1] / "README.md"
# a value for each flag, for the cells of the README's flag table
FLAG_VALUES = {"scenario": "idealized-01", "seed": "3", "out": "run",
               "alpha": "0.5", "antennas": "7", "trials": "5",
               "estimate": "noisy", "filters": "mf"}


def flag_table() -> list[tuple[str, str, bool]]:
    """(row, flag, marked) for each cell of the README's flag table."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("| command "))
    table = itertools.takewhile(lambda line: line.startswith("|"),
                                lines[start:])
    header, _, *rows = [[cell.strip().replace("`", "")
                         for cell in line.strip("|").split("|")]
                        for line in table]
    flags = [name.removeprefix("--") for name in header[1:]]
    return [(row[0], flag, cell == "x")
            for row in rows for flag, cell in zip(flags, row[1:])]


def cell_argv(row: str, flag: str) -> list[str]:
    """The command of a table row given only ``--flag``, plus --trials for
    the row of rates with --trials."""
    argv = [row.split()[0]]
    if row.endswith(" with --trials") and flag != "trials":
        argv += ["--trials", FLAG_VALUES["trials"]]
    return argv + [f"--{flag}", FLAG_VALUES[flag]]


# giving --trials to rates selects the row of rates with --trials instead
BLANK_CELLS = [(row, flag) for row, flag, marked in flag_table()
               if not marked and (row, flag) != ("rates without --trials",
                                                 "trials")]
MARKED_CELLS = [(row, flag) for row, flag, marked in flag_table() if marked]


def cell_ids(cells) -> list[str]:
    return ["-".join(cell).replace(" ", "_") for cell in cells]


@pytest.fixture
def no_trials(monkeypatch):
    """Fail the test if any Monte Carlo trial runs."""
    from ulmimo import experiments

    def fail(*args, **kwargs):
        raise AssertionError("run_trial called")
    monkeypatch.setattr(experiments, "run_trial", fail)


def cost231_scenario_file(tmp_path, **gain_model):
    """cost231-7cell written to a file with some gain-model fields replaced."""
    data = scenario_to_dict(parse_scenario("cost231-7cell"))
    data["gain_model"].update(gain_model)
    path = tmp_path / "cost231-edited.json"
    path.write_text(json.dumps(data))
    return path


def scenario_file(directory, base="idealized-01", **top):
    """A bundled scenario written to a file with some top-level fields replaced."""
    data = scenario_to_dict(parse_scenario(base))
    data.update(top)
    path = Path(directory) / f"{base}-edited.json"
    path.write_text(json.dumps(data))
    return path


# one short run of each command that reads a scenario's noise_var
SHORT_RUNS = {
    "asymptotic": ("asymptotic",),
    "rates": ("rates", "--alpha", "0.5"),
    "montecarlo": ("montecarlo", "--antennas", "8", "--trials", "3",
                   "--alpha", "0.5,1.0"),
}


def substream_key(master_seed, tag, index=0):
    """The key of the scheme the rng docstring states: SHA-256 of
    tag || 0x00 || index_le8 || master_le8, read as a little-endian integer."""
    message = (tag.encode("utf-8") + b"\x00" + index.to_bytes(8, "little")
               + master_seed.to_bytes(8, "little"))
    return int.from_bytes(hashlib.sha256(message).digest(), "little")


class TestSubstreams:
    def test_same_inputs_same_state(self):
        a = seed_substream(7, "alpha", 3).standard_normal(4)
        b = seed_substream(7, "alpha", 3).standard_normal(4)
        assert np.array_equal(a, b)

    def test_distinct_tags_distinct_states(self):
        a = seed_substream(7, "alpha", 3).standard_normal(4)
        b = seed_substream(7, "beta", 3).standard_normal(4)
        c = seed_substream(7, "alpha", 4).standard_normal(4)
        d = seed_substream(8, "alpha", 3).standard_normal(4)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)
        assert not np.array_equal(a, d)

    def test_substream_states_do_not_collide(self):
        # 10^4 keys, seeds one bit apart: a derivation that dropped or
        # truncated the seed or the index would repeat a PCG64 state
        states = {seed_substream(seed, "trial", i).bit_generator.state[
                      "state"]["state"]
                  for seed in (0, 1) for i in range(5000)}
        assert len(states) == 10_000

    @staticmethod
    def integer_seeded(key):
        return np.random.PCG64(np.random.SeedSequence(key)).state

    def test_word_seeding_matches_integer_key(self):
        for seed in (0, 1, 7, 4099, 2 ** 63, 2 ** 64 - 1):
            for tag in ("trial", "drop-law", "x"):
                for index in [*range(40), 2 ** 32, 2 ** 64 - 1]:
                    expected = self.integer_seeded(substream_key(seed, tag, index))
                    assert seed_substream(seed, tag, index).bit_generator.state \
                        == expected, (seed, tag, index)

    # a masked seed would alias: 2**64 would give seed 0's draws, -1 2**64-1's
    @pytest.mark.parametrize("seed, index", [
        (-1, 0), (2 ** 64, 0), (2 ** 70, 0), (0, -1), (0, 2 ** 64)])
    def test_seed_or_index_outside_64_bits_refused(self, seed, index):
        with pytest.raises(InvalidInputError, match=r"\[0, 2\*\*64\)"):
            seed_substream(seed, "trial", index)

    # truncated, each would alias an integer seed: 1, 1, 7 and 1
    @pytest.mark.parametrize("value", [1.5, True, "7", np.float64(1.0)],
                             ids=["float", "bool", "str", "numpy-float"])
    @pytest.mark.parametrize("name", ["seed", "substream index"])
    def test_non_integer_seed_or_index_refused(self, name, value):
        seed, index = (value, 0) if name == "seed" else (0, value)
        with pytest.raises(InvalidInputError,
                           match=rf"^{name} {re.escape(repr(value))} is not "
                                 "an integer$"):
            seed_substream(seed, "trial", index)

    def test_numpy_integers_accepted(self):
        assert (seed_substream(np.uint64(7), "x", np.int32(3)).bit_generator.state
                == seed_substream(7, "x", 3).bit_generator.state)

    # about one key in 2**32 has a zero top word, which the integer key drops
    @pytest.mark.parametrize("zero_words", [1, 2, 7])
    def test_word_seeding_drops_high_zero_words(self, monkeypatch, zero_words):
        digest = bytes(range(1, 33 - 4 * zero_words)) + bytes(4 * zero_words)
        monkeypatch.setattr(rng_module, "_digest", lambda *args: digest)
        expected = self.integer_seeded(int.from_bytes(digest, "little"))
        assert seed_substream(0, "x").bit_generator.state == expected


class TestExitCodes:
    def _run(self, monkeypatch, exc):
        def boom(args):
            raise exc
        monkeypatch.setattr(cli, "dispatch", boom)
        return cli.main(["validate"])

    # every exception class ulmimo.errors defines, by the exit code main
    # gives it
    EXIT_CODES = {2: (InvalidInputError,),
                  3: (ConvergenceError,),
                  4: (NumericalError,)}

    def _check_exit_code(self, monkeypatch, capsys, code):
        for cls in self.EXIT_CODES[code]:
            assert self._run(monkeypatch, cls("stuck")) == code, cls
            assert capsys.readouterr().err == "error: stuck\n", cls

    def test_config_error(self, monkeypatch, capsys):
        self._check_exit_code(monkeypatch, capsys, 2)

    def test_convergence_error(self, monkeypatch, capsys):
        self._check_exit_code(monkeypatch, capsys, 3)

    def test_numerical_error(self, monkeypatch, capsys):
        self._check_exit_code(monkeypatch, capsys, 4)

    def test_exit_code_table_lists_every_error_class(self):
        defined = {obj for obj in vars(errors).values()
                   if inspect.isclass(obj) and issubclass(obj, Exception)
                   and obj.__module__ == errors.__name__}
        assert defined == {cls for classes in self.EXIT_CODES.values()
                           for cls in classes}

    def test_missing_scenario_is_config_error(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["asymptotic", "--scenario", "nope",
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_validate_refuses_the_scenario_flag(self, tmp_path, capsys,
                                                 monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate", "--scenario", "nope"]) == 2
        assert ("error: --scenario is not read by validate"
                in capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    def test_unknown_filter_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["montecarlo", "--filters", "zf",
                         "--out", str(out)]) == 2
        assert "error: unknown filter 'zf'" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_filters_refused_before_any_trial(self, tmp_path, capsys,
                                                    no_trials):
        out = tmp_path / "run"
        for filters in (",", "mf,,mmse"):
            assert cli.main(["montecarlo", "--filters", filters, "--trials",
                             "3", "--antennas", "8", "--alpha", "0.5",
                             "--out", str(out)]) == 2, filters
            assert "--filters" in capsys.readouterr().err
            assert not out.exists()

    # a repeated filter used to run twice per trial and be written once
    def test_repeated_filter_refused_before_any_trial(self, tmp_path, capsys,
                                                      no_trials):
        out = tmp_path / "run"
        assert cli.main(["montecarlo", "--filters", "mf,mmse,mf", "--trials",
                         "2", "--antennas", "8", "--alpha", "0.5",
                         "--out", str(out)]) == 2
        assert ("error: filter 'mf' is named twice"
                in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["asymptotic", "percentile", "rates",
                                         "rategap"])
    @pytest.mark.parametrize("filters", ["mmse", "mf,mmse", ","])
    def test_filters_on_command_that_ignores_them_is_config_error(
            self, tmp_path, capsys, command, filters):
        out = tmp_path / "run"
        assert cli.main([command, "--filters", filters,
                         "--out", str(out)]) == 2
        assert "--filters" in capsys.readouterr().err
        assert not out.exists()

    # a given flag is told apart from its default, so spelling the default
    # out to a command that does not read it is refused too
    @pytest.mark.parametrize("command", ["asymptotic", "rategap"])
    def test_default_filters_spelled_out_are_refused(self, tmp_path, capsys,
                                                     command):
        out = tmp_path / "run"
        assert cli.main([command, "--filters", "mf,mmse,mmse-perfect",
                         "--alpha", "0.5", "--out", str(out)]) == 2
        assert f"--filters is not read by {command}" in capsys.readouterr().err
        assert not out.exists()

    def test_rategap_refuses_drop_scenario(self, tmp_path, capsys):
        out = tmp_path / "run"
        assert cli.main(["rategap", "--scenario", "cost231-7cell",
                         "--out", str(out)]) == 2
        assert "idealized scenario" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["montecarlo", "percentile"])
    def test_zero_trials_is_config_error(self, tmp_path, capsys, command):
        out = tmp_path / "run"
        assert cli.main([command, "--trials", "0", "--out", str(out)]) == 2
        assert "trials" in capsys.readouterr().err
        assert not out.exists()

    # the sample arrays of these runs would need terabytes (montecarlo) or
    # exceed numpy's largest dimension (rates)
    @pytest.mark.parametrize("command,trials", [
        ("montecarlo", "1000000000000"), ("rates", "100000000000000000000")])
    def test_trials_above_sample_cap_is_config_error(self, tmp_path, capsys,
                                                     no_trials, command,
                                                     trials):
        out = tmp_path / "run"
        assert cli.main([command, "--trials", trials, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "SINR samples" in err
        assert not out.exists()

    def test_percentile_refuses_too_few_trials_before_work(
            self, tmp_path, capsys, no_trials):
        out = tmp_path / "run"
        assert cli.main(["percentile", "--scenario", "cost231-7cell",
                         "--trials", "19", "--out", str(out)]) == 2
        assert "20 trials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["montecarlo", "percentile"])
    @pytest.mark.parametrize("antennas", ["0", "-3"])
    def test_antennas_below_one_is_config_error(self, tmp_path, capsys,
                                                command, antennas):
        out = tmp_path / "run"
        assert cli.main([command, "--antennas", antennas, "--trials", "20",
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "antenna count must be at least 1" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["asymptotic", "montecarlo",
                                         "percentile", "rates", "rategap"])
    @pytest.mark.parametrize("alpha", ["0.2,abc", ",", "0.5,0.2", "",
                                       "0.2,,0.5", "0.2,0.5,"])
    def test_malformed_alpha_is_config_error(self, tmp_path, capsys, command,
                                             alpha):
        out = tmp_path / "run"
        assert cli.main([command, "--alpha", alpha, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    # every blank cell of the README's flag table; --out is given only as
    # the flag under test, so the default ./out must not appear either
    @pytest.mark.parametrize("row,flag", BLANK_CELLS,
                             ids=cell_ids(BLANK_CELLS))
    def test_flag_the_command_does_not_read_is_config_error(
            self, tmp_path, capsys, monkeypatch, row, flag):
        monkeypatch.chdir(tmp_path)
        assert cli.main(cell_argv(row, flag)) == 2
        assert (f"error: --{flag} is not read by {row}\n"
                == capsys.readouterr().err)
        assert list(tmp_path.iterdir()) == []

    # every marked cell: the flag passes the check and keeps its value
    @pytest.mark.parametrize("row,flag", MARKED_CELLS,
                             ids=cell_ids(MARKED_CELLS))
    def test_flag_the_command_reads_is_kept(self, row, flag):
        args = cli.build_parser().parse_args(cell_argv(row, flag))
        cli._resolve_flags(args)
        assert str(getattr(args, flag)) == FLAG_VALUES[flag]

    def test_flag_table_lists_every_command(self):
        rows = dict.fromkeys(row.split()[0] for row, _, _ in flag_table())
        assert list(rows) == list(cli.COMMANDS)

    # each of these used to exit 0 and record the unread flag in the manifest
    @pytest.mark.parametrize("argv", [
        ("asymptotic", "--antennas", "7"),
        ("asymptotic", "--estimate", "training"),
        ("asymptotic", "--antennas", "7", "--estimate", "training"),
        ("rategap", "--antennas", "7"),
        ("rategap", "--estimate", "noisy"),
        ("validate", "--estimate", "noisy"),
        ("validate", "--antennas", "7"),
        ("rates", "--scenario", "cost231-7cell", "--antennas", "7"),
        ("rates", "--scenario", "cost231-7cell", "--estimate", "training"),
    ], ids=lambda argv: "_".join(a.lstrip("-") for a in argv))
    def test_unread_flag_refused_in_a_fresh_process(self, tmp_path, argv):
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", "ulmimo", *argv, "--out", str(out)],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert " is not read by " in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_rates_with_trials_reads_antennas(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["rates", "--scenario", "cost231-7cell", "--alpha",
                         "0.5", "--trials", "5", "--antennas", "10",
                         "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["overrides"] == {
            "alpha": "0.5", "antennas": 10, "trials": 5,
            "estimate": "noiseless", "filters": "mf,mmse,mmse-perfect"}
        header = (out / "rates.csv").read_text().splitlines()[0]
        assert "antennas=10" in header and "trials=5" in header

    @pytest.mark.parametrize("command,trials", [("montecarlo", "1"),
                                                ("percentile", "20")])
    def test_huge_antenna_count_refused_before_any_draw(self, tmp_path,
                                                        command, trials):
        # a 7-cell trial at M = 100000 and alpha = 1 would need 1 TiB
        proc = subprocess.run(
            [sys.executable, "-m", "ulmimo", command, "--antennas", "100000",
             "--alpha", "1.0", "--trials", trials,
             "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "above the cap" in proc.stderr
        assert not (tmp_path / "o").exists()

    # --out is checked before any compute, and without being created
    @staticmethod
    def assert_out_refused(tmp_path, capsys, below):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = cli.main(["montecarlo", "--alpha", "0.5", "--trials", "2",
                         "--antennas", "8", "--out", str(blocker / below)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert f"{blocker} is not a writable directory" in err
        assert blocker.read_text() == "not a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_unwritable_out_is_config_error(self, tmp_path, capsys,
                                            no_trials):
        self.assert_out_refused(tmp_path, capsys, "run")

    @pytest.mark.parametrize("below", ["", "run/deeper"])
    def test_out_on_or_deeper_below_a_file_is_config_error(
            self, tmp_path, capsys, no_trials, below):
        self.assert_out_refused(tmp_path, capsys, below)

    def test_out_at_a_dangling_symlink_is_config_error(self, tmp_path, capsys,
                                                      no_trials):
        link = tmp_path / "link"
        link.symlink_to(tmp_path / "missing")
        code = cli.main(["montecarlo", "--alpha", "0.5", "--trials", "2",
                         "--antennas", "8", "--out", str(link)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert [p.name for p in tmp_path.iterdir()] == ["link"]

    def test_out_with_an_overlong_name_is_config_error(self, tmp_path,
                                                       capsys):
        out = tmp_path / ("x" * 300) / "run"
        code = cli.main(["montecarlo", "--alpha", "0.5", "--trials", "2",
                         "--antennas", "8", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot create output directory")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_out_below_missing_directories_is_made_after_the_run(
            self, tmp_path):
        out = tmp_path / "a" / "b" / "run"
        assert cli.main(["asymptotic", "--alpha", "0.5",
                         "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "asymptotic.csv", "manifest.json", "scenario.json"]

    @pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
    def test_seed_outside_64_bits_is_config_error(self, tmp_path, capsys,
                                                  seed):
        out = tmp_path / "run"
        code = cli.main(["rates", "--alpha", "0.5", "--seed", seed,
                         "--out", str(out)])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_largest_seed_accepted(self, tmp_path):
        out = tmp_path / "run"
        assert cli.main(["rates", "--alpha", "0.5",
                         "--seed", str(2 ** 64 - 1), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 2 ** 64 - 1

    @staticmethod
    def run_rates(tmp_path, scenario_path):
        return subprocess.run(
            [sys.executable, "-m", "ulmimo", "rates", "--scenario",
             str(scenario_path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60)

    def test_exclusion_beyond_apothem_fails_fast(self, tmp_path):
        proc = self.run_rates(
            tmp_path, cost231_scenario_file(tmp_path, exclusion_radius_m=5000.0))
        assert proc.returncode == 2
        assert "apothem" in proc.stderr
        assert not (tmp_path / "o").exists()

    # NaN exclusion used to hang the drop sampler, a non-finite radius to
    # end in an OverflowError traceback, and NaN shadowing to turn it off;
    # the finite link budgets and radius below passed parsing and then ended
    # in an OverflowError or ZeroDivisionError traceback, the last one in a
    # nan fixed point once its squared gains overflowed. A zero, negative or
    # subnormal noise bandwidth makes the noise power zero or negative, so the
    # link-budget check refuses it
    @pytest.mark.parametrize("field, value", [
        ("exclusion_radius_m", float("nan")), ("cell_radius_m", float("nan")),
        ("cell_radius_m", float("inf")), ("shadowing_sigma_db", float("nan")),
        ("tx_power_dbm", 4000.0), ("noise_power_dbm", -4000.0),
        ("cell_radius_m", 1e308), ("tx_power_dbm", 2500.0),
        ("noise_bandwidth_hz", 0), ("noise_bandwidth_hz", -1.0),
        ("noise_bandwidth_hz", 1e-320), ("noise_bandwidth_hz", -0.0)])
    def test_non_finite_geometry_fails_at_parse(self, tmp_path, field, value):
        proc = self.run_rates(
            tmp_path, cost231_scenario_file(tmp_path, **{field: value}))
        message = ("is not a number a scenario may hold"
                   if not np.isfinite(value)
                   else "cell radius too large for finite coordinates"
                   if field == "cell_radius_m"
                   else "transmit power, noise power and their ratio must be "
                        "finite and positive, and 7 times the ratio squared "
                        "finite")
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert proc.stderr.endswith(f"{message}\n")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    # both passed parsing, drew the whole drop law and then exited 2 with an
    # error naming no field: the far drops' path gain underflowed to 0, and
    # the sigma's shadow factor also overflowed with a numpy RuntimeWarning
    @pytest.mark.parametrize("field, value", [
        ("shadowing_sigma_db", 1e300), ("cell_radius_m", 1e100)])
    def test_gain_beyond_float_range_fails_at_parse(self, tmp_path, capsys,
                                                    field, value):
        path = cost231_scenario_file(tmp_path, **{field: value})
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["rates", "--scenario", str(path), "--out", str(out)])
        assert code == 2
        assert field in capsys.readouterr().err
        assert not out.exists()


    # each used to run with a silently coerced or substituted value, or to
    # end in a TypeError, OverflowError or ArrayMemoryError traceback
    @pytest.mark.parametrize("edit, command", [
        (('"pilot_snr_db": 28.0', '"pilot_snr_db": NaN'), ("montecarlo",)),
        (('"alpha": 0.5', '"alpha": 0.5, "alpha": 0.9'), ("rates",)),
        (('"gain_model": {\n    "beta_other": 0.01,\n    "kind": "idealized"\n  }',
          '"gain_model": [1, 2]'), ("rates",)),
        (('"pilot_snr_db": 28.0', '"pilot_snr_db": 1e6'),
         ("montecarlo", "--estimate", "noisy")),
        (('"cells": 7', '"cells": true'), ("rates",)),
        (('"cells": 7', '"cells": 1.5'), ("rates",)),
        (('"cells": 7', '"cells": "7"'), ("rates",)),
        (('"cells": 7', '"cells": 1000000'), ("rates",)),
        (('"alpha": 0.5', '"alpha": "0.5"'), ("rates",)),
        (('"schema": 1', '"schema": true'), ("rates",)),
        (('"symbols": 7', '"symbols": 1.5'), ("rates",)),
        # the name is one key=value pair of the CSV header: a newline split
        # the header over two lines (and the run exited 0), a space made the
        # pairs ambiguous
        (('"name": "idealized-01"', '"name": "bad name\\nsecond=line"'),
         ("montecarlo",)),
        (('"name": "idealized-01"', '"name": "bad name"'), ("montecarlo",)),
    ], ids=["nan-pilot-snr", "repeated-alpha", "gain-model-list",
            "huge-pilot-snr", "cells-bool", "cells-float", "cells-string",
            "cells-million", "alpha-string", "schema-bool", "symbols-float",
            "name-newline", "name-space"])
    def test_bad_scenario_value_fails_at_parse(self, tmp_path, edit, command):
        text = serialize_scenario(parse_scenario("idealized-01"))
        assert edit[0] in text
        path = tmp_path / "edited.json"
        path.write_text(text.replace(edit[0], edit[1], 1))
        proc = subprocess.run(
            [sys.executable, "-m", "ulmimo", *command, "--scenario", str(path),
             "--trials", "2", "--antennas", "4", "--out", str(tmp_path / "o")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "o").exists()

    # both passed parsing, then asymptotic and rates ended in an
    # OverflowError traceback at eta1**-2, montecarlo in a ZeroDivisionError
    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    @pytest.mark.parametrize("noise_var", [1e155, 1e200])
    def test_noise_var_above_cap_fails_at_parse(self, tmp_path, capsys,
                                                command, noise_var):
        path = scenario_file(tmp_path, noise_var=noise_var)
        out = tmp_path / "o"
        assert cli.main([*SHORT_RUNS[command], "--scenario", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "noise_var" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", list(SHORT_RUNS))
    def test_noise_var_at_cap_runs(self, tmp_path, command):
        path = scenario_file(tmp_path, noise_var=1e150)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*SHORT_RUNS[command], "--scenario", str(path),
                             "--out", str(tmp_path / "o")]) == 0

    # an antenna count past the float range ended in an OverflowError
    # traceback at alpha * M; one inside it was refused by the trial cap
    # with every digit of M and of the entry count printed
    @pytest.mark.parametrize("antennas, reason", [
        (10 ** 400, "overflows"), (10 ** 300, "above the cap")],
        ids=["past-float-range", "huge"])
    @pytest.mark.parametrize("argv", [
        ("montecarlo", "--trials", "3"), ("percentile", "--trials", "20"),
        ("rates", "--trials", "20")], ids=["montecarlo", "percentile", "rates"])
    def test_antennas_past_float_range_is_config_error(
            self, tmp_path, capsys, monkeypatch, argv, antennas, reason):
        def fail(*args, **kwargs):
            raise AssertionError("gains drawn")
        monkeypatch.setattr(cli.Scenario, "gain_matrix", fail)
        out = tmp_path / "o"
        assert cli.main([*argv, "--antennas", str(antennas),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert reason in err and len(err) < 200
        assert not out.exists()

    # once shrink rounded to mean_total, the eta1 map's denominator was
    # noise_var + alpha mean_total - alpha shrink = 0 and the run ended in a
    # ZeroDivisionError traceback; Newton's eta1 converges here, and the
    # run stops in the perfect-estimate eta1's damped Picard iteration
    def test_eta1_step_dividing_by_zero_is_convergence_error(self, tmp_path,
                                                             capsys):
        path = scenario_file(tmp_path, cells=1, noise_var=1e-20)
        out = tmp_path / "o"
        assert cli.main(["asymptotic", "--scenario", str(path),
                         "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(
            "error: perfect-estimate eta1 fixed point did not converge")
        assert not out.exists()

    # the one-cell pilot-MMSE filter is about b / noise_var, whose norm
    # overflows: numpy warned and the run went on with inf and NaN
    def test_float_overflow_is_numerical_error(self, tmp_path, capsys):
        path = scenario_file(tmp_path, cells=1, noise_var=1e-300)
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([*SHORT_RUNS["montecarlo"], "--scenario",
                             str(path), "--out", str(out)]) == 4
        assert capsys.readouterr().err == (
            "error: overflow encountered in dot\n")
        assert not out.exists()

    # an integer of more than 4300 digits ended in a ValueError traceback
    @pytest.mark.parametrize("field", ['"cells": 7', '"noise_var": 1.0'],
                             ids=["cells", "noise_var"])
    def test_overlong_integer_fails_at_parse(self, tmp_path, capsys, field):
        text = serialize_scenario(parse_scenario("cost231-7cell"))
        assert field in text
        key = field.partition(":")[0]
        path = tmp_path / "big.json"
        path.write_text(text.replace(field, f"{key}: 1{'0' * 5000}", 1))
        out = tmp_path / "o"
        assert cli.main(["asymptotic", "--scenario", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert not out.exists()


@st.composite
def accepted_scenarios(draw):
    """Scenarios parsing accepts: idealized cells 1-8 with beta_other in
    (0, 1), or COST231 with 1 or 7 cells; noise_var log-uniform from the
    smallest positive float to the cap."""
    least = np.nextafter(0.0, 1.0)
    exponent = draw(st.floats(np.log10(least), np.log10(MAX_NOISE_VAR)))
    top = {"noise_var": float(np.clip(10.0 ** exponent, least, MAX_NOISE_VAR))}
    if draw(st.booleans()):
        top["cells"] = draw(st.integers(1, 8))
        top["gain_model"] = {"kind": "idealized", "beta_other": draw(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))}
        return "idealized-01", top
    top["cells"] = draw(st.sampled_from([1, 7]))
    return "cost231-7cell", top


class TestAcceptedScenariosExitCleanly:
    """Any scenario that parses runs to a documented exit: 0, or 2, 3 or 4
    with one error line, and no exception or warning escapes."""

    @settings(derandomize=True, max_examples=25, deadline=None, database=None)
    @given(accepted_scenarios())
    def test_short_runs(self, case):
        base, top = case
        runs = [run for name, run in SHORT_RUNS.items()
                if name != "asymptotic" or base.startswith("idealized")]
        with tempfile.TemporaryDirectory() as tmp:
            path = scenario_file(tmp, base, **top)
            for run in runs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("error")
                    code = cli.main([*run, "--scenario", str(path),
                                     "--out", str(Path(tmp) / run[0])])
                assert code in (0, 2, 3, 4), (run, top)
                lines = err.getvalue().splitlines()
                if code:
                    assert len(lines) == 1, (run, top, lines)
                    assert lines[0].startswith("error: "), (run, top)
                else:
                    assert not lines, (run, top, lines)


class TestDispatch:
    def test_asymptotic_outputs(self, tmp_path):
        out = tmp_path / "run"
        code = cli.main(["asymptotic", "--scenario", "idealized-01",
                         "--out", str(out)])
        assert code == 0
        assert (out / "asymptotic.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "asymptotic"
        # asymptotic reads no --seed, so its manifest names none
        assert "seed" not in manifest
        assert len(manifest["scenario_sha"]) == 12
        assert (out / "scenario.json").exists()

    def test_asymptotic_command_matches_library(self, tmp_path):
        out = tmp_path / "run"
        cli.main(["asymptotic", "--scenario", "idealized-01", "--alpha", "0.5",
                  "--out", str(out)])
        line = (out / "asymptotic.csv").read_text().splitlines()[2]
        cells = line.split(",")
        sinrs = la.det_eq_sinr_rows(idealized_gains(7, 0.01), 0.5, 0.01)
        assert [float(c) for c in cells[1:]] == [la.to_db(x[0]) for x in sinrs]

    @pytest.mark.parametrize("name", sorted(GOLDEN_MC_RUNS))
    def test_monte_carlo_golden_file(self, tmp_path, name):
        argv, fname, expected = GOLDEN_MC_RUNS[name]
        out = tmp_path / "run"
        assert cli.main([*argv, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / fname).read_bytes()).hexdigest()
        assert digest == expected

    @pytest.mark.parametrize("estimate", sorted(GOLDEN_SHADOWED_MC))
    def test_shadowed_cost231_monte_carlo_golden_file(self, tmp_path, estimate):
        path = cost231_scenario_file(tmp_path, shadowing_sigma_db=8.0)
        out = tmp_path / "run"
        assert cli.main(["montecarlo", "--scenario", str(path), "--estimate",
                         estimate, *_GOLDEN_MC, "--out", str(out)]) == 0
        digest = hashlib.sha256((out / "montecarlo.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SHADOWED_MC[estimate]

    def test_failed_write_leaves_earlier_run_intact(self, tmp_path, capsys,
                                                    monkeypatch):
        args = ["montecarlo", "--alpha", "0.5", "--antennas", "8",
                "--trials", "3", "--out", str(tmp_path)]
        assert cli.main([*args, "--seed", "1"]) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["manifest.json", "montecarlo.csv",
                                  "scenario.json"]
        write_text, writes = Path.write_text, []

        def second_write_fails(path, *rest, **kwargs):
            writes.append(path)
            if len(writes) == 2:
                raise OSError("disk full")
            return write_text(path, *rest, **kwargs)

        monkeypatch.setattr(Path, "write_text", second_write_fails)
        assert cli.main([*args, "--seed", "2"]) == 2
        assert "cannot write outputs: disk full" in capsys.readouterr().err
        assert len(writes) == 2
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    # the single-cell pilot-MMSE filter is about b / noise_var, and its
    # residual relative to ||b|| (2.8e-10) failed the solve with exit 4
    @pytest.mark.parametrize("command", ["montecarlo", "percentile"])
    def test_single_cell_cost231_simulates(self, tmp_path, command):
        path = scenario_file(tmp_path, "cost231-7cell", cells=1)
        assert cli.main([command, "--scenario", str(path), "--trials", "20",
                         "--out", str(tmp_path / "o")]) == 0

    def test_montecarlo_filter_subset(self, tmp_path):
        out = tmp_path / "mc"
        cli.main(["montecarlo", "--scenario", "idealized-01", "--seed", "1",
                  "--alpha", "0.5", "--antennas", "10", "--trials", "3",
                  "--filters", "mf", "--out", str(out)])
        body = (out / "montecarlo.csv").read_text()
        assert "mmse" not in body.split("\n", 2)[2]

    def test_scenario_file_not_mutated(self, tmp_path):
        src = tmp_path / "scenario.json"
        from ulmimo.scenario import parse_scenario, serialize_scenario
        src.write_text(serialize_scenario(parse_scenario("idealized-01")))
        before = src.read_bytes()
        cli.main(["asymptotic", "--scenario", str(src), "--alpha", "0.5",
                  "--out", str(tmp_path / "out")])
        assert src.read_bytes() == before

    def test_rategap_command(self, tmp_path):
        out = tmp_path / "rg"
        code = cli.main(["rategap", "--scenario", "idealized-01",
                         "--alpha", "0.5,1.0", "--out", str(out)])
        assert code == 0
        assert (out / "rategap.csv").exists()

    def test_validate_passes(self, capsys, tmp_path, monkeypatch):
        # validate writes nothing, so it creates no directory either
        monkeypatch.chdir(tmp_path)
        assert cli.main(["validate"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "fixed-point residuals, eta ordering, suppression bounds: PASS",
            "alpha=0 collapse (MMSE == MF): PASS",
            "single-cell pilot == perfect: PASS",
            "eta2 matches -d eta1 / d noise_var: PASS",
            "structured vs dense filter solve at M=3: PASS",
            "seeded rerun determinism: PASS",
            "validate: all checks passed",
        ]
        assert list(tmp_path.iterdir()) == []

    def test_validate_fails_on_a_perturbed_eta1_map(self, capsys,
                                                     monkeypatch):
        # Newton's root does not read the map, but its acceptance does: a
        # map off by 1e-6 refuses every eta1, and each check that solves
        # one fails with the refusal, not with exit 3
        eta1_map = la.eta1_map
        monkeypatch.setattr(la, "eta1_map", lambda *args: eta1_map(*args)
                            * (1.0 + 1e-6))
        assert cli.main(["validate"]) == 4
        lines = capsys.readouterr().out.splitlines()
        failed = [line.partition(": FAIL")[0] for line in lines
                  if ": FAIL (eta1 Newton root fails its fixed-point map "
                     "(relative residual 1.000e-06))" in line]
        assert failed == [
            "fixed-point residuals, eta ordering, suppression bounds",
            "alpha=0 collapse (MMSE == MF)", "single-cell pilot == perfect",
            "eta2 matches -d eta1 / d noise_var"]
        assert lines[-1] == "validate: FAILURES detected"

    def test_module_entry_point(self, tmp_path):
        import subprocess
        import sys
        proc = subprocess.run(
            [sys.executable, "-m", "ulmimo", "asymptotic", "--scenario",
             "idealized-01", "--alpha", "0.5", "--out", str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert (tmp_path / "o" / "asymptotic.csv").exists()
