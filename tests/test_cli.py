import argparse
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

import looptoda
from looptoda import cli, folding, gradation as gr, solver, toda

import oracles


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def run_module(*args, **env):
    """``python -m looptoda.cli`` in a subprocess, with the package under
    test on its path and the environment variables ``env`` set."""
    environ = {**os.environ, **env}
    src = os.path.dirname(os.path.dirname(os.path.abspath(looptoda.__file__)))
    environ["PYTHONPATH"] = src + (os.pathsep + environ["PYTHONPATH"] if environ.get("PYTHONPATH") else "")
    return subprocess.run([sys.executable, "-m", "looptoda.cli", *args],
                          capture_output=True, text=True, env=environ, timeout=120)


S1_JSON = {
    "family": "gl", "n": 3, "type": "gl_inner", "M": 2,
    "n_list": [2, 1], "k_list": [1], "phase_offset": 0.0,
}

SWAP = np.array([[0.0, 1.0], [1.0, 0.0]])
#: the system file of the gl_2 simplest system with C_+- = SWAP
SIMPLEST_GL2_JSON = oracles.system_to_json(toda.build_simplest("gl", SWAP, SWAP))
#: the system file of the outer gl_2 simplest system (spec null) with C_+- = SWAP
OUTER_GL2_JSON = oracles.system_to_json(toda.build_simplest("gl", SWAP, SWAP, outer=True))

SO4_JSON = {
    "family": "so", "n": 4, "type": "sosp_I", "M": 4,
    "n_list": [1, 2, 1], "k_list": [1, 1], "phase_offset": 0.0,
}


#: the (family, n, M) sets whose specs the census runs ``check`` on
CENSUS_CHECK_SETS = (("sp", 6, 8), ("gl", 4, 6), ("so", 5, 6))


#: (name, JSON matrix, parse error text) of malformed matrices of [re, im] entries
MALFORMED_MATRICES = (
    ("short_entry", [[[1.0]]], "a matrix entry must be a [re, im] pair, got [1.0]"),
    ("long_entry", [[[1.0, 0.0, 2.0]]], "a matrix entry must be a [re, im] pair, got [1.0, 0.0, 2.0]"),
    ("bool_entry", [[[True, 0]]], "re must be a JSON number, got True"),
    ("ragged_rows", [[[1.0, 0.0], [0.0, 0.0]], [[1.0, 0.0]]], "matrix rows must have equal length"),
)


#: every option string of each subcommand; a new flag needs an entry here
CLI_OPTIONS = {
    "validate": ["-h", "--help", "--spec", "--json"],
    "enumerate": ["-h", "--help", "--family", "--n", "--M", "--json", "--latex"],
    "simulate": ["-h", "--help", "--preset", "--system", "--initial", "--grid", "--output"],
    "check": ["-h", "--help", "--spec"],
}


def test_cli_surface_is_pinned():
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    surface = {name: [opt for action in sub._actions for opt in action.option_strings]
               for name, sub in subparsers.choices.items()}
    assert surface == CLI_OPTIONS



class TestValidateCommand:
    def test_valid_spec(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", S1_JSON)
        assert cli.main(["validate", "--spec", path]) == 0
        assert "valid" in capsys.readouterr().out

    def test_broken_palindrome(self, tmp_path, capsys):
        payload = dict(SO4_JSON, n=3, n_list=[1, 2], k_list=[1], M=3, phase_offset=0.0)
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["validate", "--spec", path]) == 1
        assert "n_palindrome" in capsys.readouterr().out

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{ not json")
        assert cli.main(["validate", "--spec", str(path)]) == 2

    def test_missing_keys(self, tmp_path):
        path = write_json(tmp_path / "s.json", {"family": "gl"})
        assert cli.main(["validate", "--spec", path]) == 2

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_spec_not_an_object(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "s.json", [1, 2])
        assert cli.main([command, "--spec", path]) == 2
        assert "parse error: a spec is a JSON object, got list" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "check", "simulate"])
    @pytest.mark.parametrize("payload", [
        {"family": "gl", "n": 3.7, "type": "gl_inner", "M": 3.9, "n_list": [1.5, 2.2], "k_list": [1.9]},
        {"family": "gl", "n": 2, "type": "gl_inner", "M": 2, "n_list": [1, True], "k_list": [1]},
        {"family": "gl", "n": True, "type": "trivial"},
    ])
    def test_non_integer_numbers_are_parse_errors(self, tmp_path, capsys, command, payload):
        """n, M, n_list and k_list must be JSON integers: no truncation, no bools."""
        if command == "simulate":
            one = [[[1.0, 0.0]]]
            sys_payload = {"c_plus": [one], "c_minus": [one], "L": 1, "spec": payload}
            argv = ["simulate", "--system", write_json(tmp_path / "sys.json", sys_payload),
                    "--output", str(tmp_path)]
        else:
            argv = [command, "--spec", write_json(tmp_path / "s.json", payload)]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error:" in captured.err and "must be a JSON integer" in captured.err

    @pytest.mark.parametrize("command", ["validate", "check"])
    @pytest.mark.parametrize("offset", ["0.5", "0", True, False, None, [0.0]])
    def test_non_number_phase_offset_is_a_parse_error(self, tmp_path, capsys, command, offset):
        """phase_offset must be a JSON number: no strings, no bools."""
        path = write_json(tmp_path / "s.json", dict(S1_JSON, phase_offset=offset))
        assert cli.main([command, "--spec", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "parse error: phase_offset must be a JSON number" in captured.err

    @pytest.mark.parametrize("command", ["validate", "check"])
    def test_integer_phase_offset_is_a_number(self, tmp_path, capsys, command):
        path = write_json(tmp_path / "s.json", dict(S1_JSON, phase_offset=0))
        assert cli.main([command, "--spec", path]) == 0
        assert capsys.readouterr().err == ""

    def test_json_output(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", S1_JSON)
        assert cli.main(["validate", "--spec", path, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True


class TestEnumerateCommand:
    def test_gl_2_2_listing(self, capsys):
        assert cli.main(["enumerate", "--family", "gl", "--n", "2", "--M", "2"]) == 0
        out = capsys.readouterr().out
        assert "gl_inner" in out and "n_list=[1, 1]" in out

    def test_m1_trivial(self, capsys):
        assert cli.main(["enumerate", "--family", "so", "--n", "3", "--M", "1"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 1 and out[0].startswith("trivial")

    def test_json_deterministic(self, capsys):
        cli.main(["enumerate", "--family", "so", "--n", "4", "--M", "4", "--json"])
        first = capsys.readouterr().out
        cli.main(["enumerate", "--family", "so", "--n", "4", "--M", "4", "--json"])
        second = capsys.readouterr().out
        assert first == second
        json.loads(first)

    def test_latex(self, capsys):
        assert cli.main(["enumerate", "--family", "gl", "--n", "2", "--M", "2", "--latex"]) == 0
        out = capsys.readouterr().out
        assert "\\begin{array}" in out
        assert "[1]_{2}" in out

    def test_latex_golden_table(self, capsys):
        cli.main(["enumerate", "--family", "gl", "--n", "2", "--M", "2", "--latex"])
        out = capsys.readouterr().out
        golden = (
            "\\left(\\begin{array}{c|c}\n"
            "[0]_{2} & [1]_{2} \\\\\n"
            "[1]_{2} & [0]_{2}\n"
            "\\end{array}\\right)"
        )
        assert golden in out

    def test_outer_pair_golden(self, capsys):
        cli.main(["enumerate", "--family", "gl", "--n", "2", "--M", "4"])
        text = capsys.readouterr().out
        assert (
            "gl_outer_II family=gl n_list=[1, 1] k_list=[1] M=4 offset=0.5 class=even_fold\n"
            "    [(0, 2), (1, 3)]\n"
            "    [(1, 3), (0, 2)]\n"
        ) in text
        cli.main(["enumerate", "--family", "gl", "--n", "2", "--M", "4", "--latex"])
        latex = capsys.readouterr().out
        assert (
            '"phase_offset": 0.5, "type": "gl_outer_II"}\n'
            "\\left(\\begin{array}{c|c}\n"
            "\\{[0]_{4},\\,[2]_{4}\\} & \\{[1]_{4},\\,[3]_{4}\\} \\\\\n"
            "\\{[1]_{4},\\,[3]_{4}\\} & \\{[0]_{4},\\,[2]_{4}\\}\n"
            "\\end{array}\\right)"
        ) in latex

    def test_cap_exceeded(self, capsys):
        """gl_10 at M = 10 passes gradation.ENUM_CAP; where a cap
        fires is pinned by TestEnumerate::test_caps_fire_where_the_counts_cross."""
        assert cli.main(["enumerate", "--family", "gl", "--n", "10", "--M", "10"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cap exceeded: enumeration exceeded cap of {gr.ENUM_CAP} specs\n"

    def test_sp_at_odd_n_counts_no_candidate(self, capsys):
        # validate_spec rejects every sp gradation at odd n, so none is
        # counted against the candidate cap, however large M makes the k-lists
        assert cli.main(["enumerate", "--family", "sp", "--n", "41", "--M", "40", "--json"]) == 0
        captured = capsys.readouterr()
        assert json.loads(captured.out) == [] and captured.err == ""

    def test_gl_40_at_m_2(self, capsys):
        # only p = 2 has a k-list at M = 2; the compositions of larger p are never walked
        assert cli.main(["enumerate", "--family", "gl", "--n", "40", "--M", "2"]) == 0
        heads = [line.split()[0] for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")]
        assert heads == ["trivial"] + ["gl_inner"] * 39

    @pytest.mark.parametrize("n,M", [("0", "4"), ("4", "-2"), ("4", "0")])
    def test_non_positive_size_is_a_parse_error(self, capsys, n, M):
        assert cli.main(["enumerate", "--family", "gl", "--n", n, "--M", M]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "parse error" in captured.err

    def test_json_and_latex_conflict(self, capsys):
        """argparse's usage errors are returned as exit 2, like main's own;
        --help returns 0."""
        for argv, message in (
            (["enumerate", "--family", "gl", "--n", "2", "--M", "2", "--json", "--latex"],
             "not allowed with argument"),
            (["enumerate", "--family", "gl", "--n", "2", "--M", "2", "--bogus"], "unrecognized arguments"),
            (["enumerate", "--family", "xx", "--n", "2", "--M", "2"], "invalid choice"),
            (["check"], "the following arguments are required: --spec"),
        ):
            assert cli.main(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == "" and message in captured.err, argv
        assert cli.main(["enumerate", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: looptoda enumerate")


class TestSimulateCommand:
    def test_free_field_preset(self, tmp_path, capsys):
        rc = cli.main(["simulate", "--preset", "free-field", "--output", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["free_field_deviation"] < 1e-12
        assert (tmp_path / "field.csv").exists()

    def test_kink_preset_small_grid(self, tmp_path):
        rc = cli.main([
            "simulate", "--preset", "sine-gordon-kink",
            "--grid=-5,5,-5,5,0.078125,0.078125",
            "--output", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["l_inf_error_vs_kink"] < 0.1

    def test_sinh_preset(self, tmp_path):
        rc = cli.main(["simulate", "--preset", "sinh-gordon", "--output", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["rel_error_vs_linearized"] < 1e-2

    def test_periodic_chain_preset(self, tmp_path):
        rc = cli.main(["simulate", "--preset", "periodic-chain", "--output", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["max_residual"] < 1e-2
        assert manifest["det_factorization_defect"] <= 1e-12
        assert "unitarity_drift" not in manifest

    NILPOTENT_GL2 = toda.build_simplest("gl", np.array([[0.0, 1.0], [0.0, 0.0]]),
                                        np.array([[0.0, 0.0], [1.0, 0.0]]))

    def _simulate_diagonal_initial(self, tmp_path, diagonal):
        """Exit status and stderr of ``simulate`` of the nilpotent gl2 chain
        from the initial state diag(diagonal), and whether it made --output."""
        sys_path = write_json(tmp_path / "sys.json", oracles.system_to_json(self.NILPOTENT_GL2))
        init = {"gammas": [[[[diagonal[0], 0.0], [0.0, 0.0]], [[0.0, 0.0], [diagonal[1], 0.0]]]]}
        init_path = write_json(tmp_path / "init.json", init)
        out = tmp_path / "out"
        rc = cli.main([
            "simulate", "--system", sys_path, "--initial", init_path,
            "--grid", "0,1,0,1,0.125,0.125",
            "--output", str(out),
        ])
        return rc, out.exists()

    def test_near_singular_initial_blowup_status(self, tmp_path, capsys):
        """An initial state of blow-up value 1e16 fails the state gate, as it
        does in rhs_blocks: one domain error line, naming the value, before
        any row is marched, and no output directory."""
        assert self._simulate_diagonal_initial(tmp_path, (1e-8, 1e8)) == (1, False)
        text = "state block 0: max(|G|, |inv G|, |G| |inv G|) = 1e+16 > 1e+12"
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"domain error: {text}\n"
        with pytest.raises(ValueError) as excinfo:
            toda.rhs_blocks(self.NILPOTENT_GL2, (np.diag([1e-8, 1e8]),))
        assert str(excinfo.value) == text

    def test_initial_state_the_march_would_halt_on_fails_the_gate(self, tmp_path, capsys):
        """diag(10^6.5, 10^-6.5), condition number 1e13, fails the march's
        blow-up test at row 1; the gate applies that test, so simulate stops
        with a domain error before it marches or makes --output."""
        assert self._simulate_diagonal_initial(tmp_path, (10 ** 6.5, 10 ** -6.5)) == (1, False)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == (
            "domain error: state block 0: max(|G|, |inv G|, |G| |inv G|) = 1e+13 > 1e+12\n")

    def test_system_file_march_that_halts_exits_4(self, tmp_path, capsys):
        """The strongly coupled gl chain from its seed-3 state halts at row 1:
        simulate writes the halted manifest and exits 4."""
        c = tuple(6.0 * np.eye(2) for _ in range(3))
        chain = toda.build_system(gr.make_spec("gl", gr.TYPE_GL_INNER, 3, (2, 2, 2), (1, 1)), 1, c, c)
        state = toda.random_state(chain, np.random.default_rng(3), scale=0.6)
        sys_path = write_json(tmp_path / "sys.json", oracles.system_to_json(chain))
        init_path = write_json(tmp_path / "init.json", {"gammas": [oracles._array_to_json(g) for g in state]})
        out = tmp_path / "out"
        rc = cli.main(["simulate", "--system", sys_path, "--initial", init_path,
                       "--grid=0,3,0,3,0.09375,0.09375", "--output", str(out)])
        assert rc == 4
        assert capsys.readouterr().err == ""
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["halted"] is True and manifest["exit_status"] == 4
        assert manifest["halt_reason"] == "non-finite value at row 1 (z^+ = 0.09375)"
        assert manifest["completed_rows"] == 1
        assert (out / "field.csv").exists()

    @pytest.mark.parametrize("payload, gammas, message", [
        pytest.param(dict(SIMPLEST_GL2_JSON, spec={"family": "bogus", "n": 7, "type": "trivial", "M": 0}),
                     None, "domain error: family: unknown family 'bogus'; M_positive: M must be positive",
                     id="bogus-trivial"),
        pytest.param(oracles.system_to_json(toda.build_simplest("sl", SWAP, SWAP)),
                     [[[[2.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [2.0, 0.0]]]],
                     "domain error: state violates constraints (residual 3.00e+00)", id="det-4-initial"),
        pytest.param({k: v for k, v in SIMPLEST_GL2_JSON.items() if k != "L"}, None,
                     "parse error: missing key 'L'", id="missing-L"),
    ])
    def test_failing_system_input_makes_no_output_directory(self, tmp_path, capsys, payload, gammas, message):
        """A system file, its --initial state and the system they build are
        checked before --output is made: an input that fails leaves none."""
        argv = ["simulate", "--system", write_json(tmp_path / "sys.json", payload)]
        if gammas is not None:
            argv += ["--initial", write_json(tmp_path / "init.json", {"gammas": gammas})]
        out = tmp_path / "out"
        rc = cli.main(argv + ["--output", str(out)])
        assert rc == (2 if message.startswith("parse error") else 1)
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"
        assert not out.exists()

    def test_system_file_run(self, tmp_path):
        chain = toda.build_periodic_chain(2, 1)
        sys_path = write_json(tmp_path / "sys.json", oracles.system_to_json(chain))
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("edit, message", [
        ({"class": "bogus"}, "class 'bogus', but the system built is 'general_linear'"),
        ({"variant": "node_first"}, "variant 'node_first', but the system built is ''"),
        ({"block_sizes": [9]}, "block_sizes [9], but the system built is [2, 2, 2]"),
        ({"family": "so"}, "family 'so', but the system built is 'gl'"),
        # every key of a p = 1 file, with L edited: a trivial spec takes only L = 1
        (dict(SIMPLEST_GL2_JSON, L=5), "the trivial spec has L = 1, got L = 5"),
    ])
    def test_system_file_keys_must_match_the_built_system(self, tmp_path, capsys, edit, message):
        """A system file's class, variant, block_sizes, family and L, where
        given, are those of the system its spec and C blocks build."""
        payload = dict(oracles.system_to_json(toda.build_periodic_chain(3, 2)), **edit)
        sys_path = write_json(tmp_path / "sys.json", payload)
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("domain error:")
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "manifest.json").exists()

    def test_system_file_keys_change_no_bytes(self, tmp_path):
        """An unedited system file and one without class, variant and
        block_sizes give the bytes the chain gave before those keys were read."""
        payload = oracles.system_to_json(toda.build_periodic_chain(3, 2))
        bare = {k: v for k, v in payload.items() if k not in ("class", "variant", "block_sizes")}
        outputs = []
        for name, keys in (("full", payload), ("bare", bare)):
            sys_path = write_json(tmp_path / "sys.json", keys)
            out = tmp_path / name
            assert cli.main(["simulate", "--system", sys_path, "--grid", "0,1,0,1,0.125,0.125",
                             "--output", str(out)]) == 0
            outputs.append([(out / f).read_bytes() for f in ("field.csv", "manifest.json")])
        assert outputs[0] == outputs[1]
        assert hashlib.sha256(outputs[0][0]).hexdigest() == \
            "e60b954571887fd58d8ff71be97124159337cfc582579c9a834da2410ae5d000"
        assert json.loads(outputs[0][1])["max_residual"] == 42.053229324692474

    @pytest.mark.parametrize("count", [0, 2])
    def test_trivial_system_needs_one_block_each(self, tmp_path, capsys, count):
        """A p = 1 system file with no or extra C blocks is a domain error."""
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        payload = oracles.system_to_json(toda.build_simplest("gl", c, c))
        payload["c_plus"] = payload["c_plus"][:1] * count
        sys_path = write_json(tmp_path / "sys.json", payload)
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 1
        assert "domain error: need 1 arc block" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("spec_edit, message", [
        ({"family": "bogus"}, "domain error: family: unknown family 'bogus'"),
        ({"M": 0}, "domain error: M_positive: M must be positive"),
        ({"family": "bogus", "n": 7, "M": 0},
         "domain error: family: unknown family 'bogus'; M_positive: M must be positive"),
        ({"n": 3}, "domain error: C_plus[0] must be 3x3, got (2, 2)"),
    ])
    def test_trivial_system_file_is_validated(self, tmp_path, capsys, spec_edit, message):
        """A p = 1 file's spec passes the checks of ``validate``, and its one C
        pair must be n x n: an invalid one is one domain error line and no
        output file."""
        payload = dict(SIMPLEST_GL2_JSON, spec=dict(SIMPLEST_GL2_JSON["spec"], **spec_edit))
        sys_path = write_json(tmp_path / "sys.json", payload)
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == message + "\n"
        assert list(tmp_path.iterdir()) == [tmp_path / "sys.json"]
        # validate reads the same spec to the same violations
        spec_path = write_json(tmp_path / "spec.json", payload["spec"])
        violations = gr.validate_spec(gr.spec_from_json(payload["spec"]))
        assert cli.main(["validate", "--spec", spec_path]) == (1 if violations else 0)
        if violations:
            assert message == "domain error: " + "; ".join(violations)

    def test_trivial_system_file_keeps_its_order(self, tmp_path):
        """The simplest system built from a trivial spec carries that spec,
        its M included, into the manifest."""
        spec = dict(SIMPLEST_GL2_JSON["spec"], M=4)
        sys_path = write_json(tmp_path / "sys.json", dict(SIMPLEST_GL2_JSON, spec=spec))
        assert cli.main(["simulate", "--system", sys_path, "--grid", "0,1,0,1,0.25,0.25",
                         "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["system"]["spec"] == {"family": "gl", "n": 2, "type": "trivial", "M": 4}

    def test_outer_system_file_writes_no_spec(self, tmp_path):
        """The outer simplest system carries the trivial gl spec, marked
        outer; the manifest gives its spec as null."""
        sys_path = write_json(tmp_path / "sys.json", OUTER_GL2_JSON)
        assert cli.main(["simulate", "--system", sys_path, "--grid", "0,1,0,1,0.25,0.25",
                         "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["system"] == {"L": 1, "block_sizes": [2], "class": "simplest", "spec": None}

    def test_outer_system_file_builds_its_spec(self, tmp_path, capsys):
        """An outer file's spec is built, not passed over: the outer twist
        lives on the trivial gl/sl spec, so an so_4 gradation is a domain
        error and no output."""
        sys_path = write_json(tmp_path / "sys.json", dict(OUTER_GL2_JSON, spec=SO4_JSON))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--system", sys_path, "--output", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "domain error: the outer simplest case lives in gl/sl, on the trivial spec\n"
        assert not out.exists()

    def test_trivial_system_file_needs_its_grade(self, tmp_path, capsys):
        """Every spec file gives L, a p = 1 file too."""
        payload = {k: v for k, v in SIMPLEST_GL2_JSON.items() if k != "L"}
        sys_path = write_json(tmp_path / "sys.json", payload)
        assert cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == "parse error: missing key 'L'\n"

    def test_manifest_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cli.main(["simulate", "--preset", "free-field", "--output", str(out)])
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()

    def test_missing_source(self, tmp_path, capsys):
        assert cli.main(["simulate"]) == 2
        # two sources, or --initial without --system: one stderr line, no output
        out = tmp_path / "out"
        for extra in (["--preset", "free-field", "--system", "missing.json"],
                      ["--preset", "free-field", "--system", "missing.json", "--initial", "missing.json"],
                      ["--preset", "free-field", "--initial", "missing.json"]):
            capsys.readouterr()
            assert cli.main(["simulate", *extra, "--output", str(out)]) == 2, extra
            captured = capsys.readouterr()
            assert captured.out == "" and len(captured.err.splitlines()) == 1, extra
            assert not out.exists()

    def test_bad_grid(self, tmp_path):
        # steps that do not divide the ranges, a zero step, an infinite range,
        # a step so small that the cell count overflows, five values in place of six
        for grid in ("0,1,0,1,0.3,0.3", "0,1,0,1,0,0.1", "0,inf,0,1,0.1,0.1", "0,1,0,1,1e-320,0.5",
                     "0,1,0,1,0.5"):
            rc = cli.main(["simulate", "--preset", "free-field", "--grid", grid,
                           "--output", str(tmp_path)])
            assert rc == 2, grid
        assert not (tmp_path / "manifest.json").exists()

    def test_unallocatable_lattice_exits_3_at_once(self, tmp_path, capsys, monkeypatch):
        """A 2 000 001-point square lattice (58 TiB for the kink) is a cap
        error, raised when the lattice is allocated, before the edges are
        sampled (which took 38 s) and before --output is made, for a preset
        and a system file alike."""
        def no_sample(*args):
            raise AssertionError("sampled the edges of a lattice that was never allocated")

        monkeypatch.setattr(cli.solver, "_sample", no_sample)
        sys_path = write_json(tmp_path / "sys.json", oracles.system_to_json(self.NILPOTENT_GL2))
        out = tmp_path / "out"
        for source in (["--preset", "sine-gordon-kink"], ["--system", sys_path]):
            start = time.monotonic()
            rc = cli.main(["simulate", *source, "--grid=-5,5,-5,5,5e-6,5e-6", "--output", str(out)])
            assert rc == 3, source
            assert time.monotonic() - start < 10.0, source
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.startswith("cap exceeded: "), source
            assert len(captured.err.splitlines()) == 1, source
            assert not out.exists(), source

    def test_output_below_a_file_is_a_parse_error(self, tmp_path, capsys):
        """The output directory is made after the run, and a failure to make
        it is a parse error, not a traceback."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = cli.main(["simulate", "--preset", "free-field", "--grid", "0,1,0,1,0.125,0.125",
                       "--output", str(blocker / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error:")
        assert len(captured.err.splitlines()) == 1

    def test_unwritable_output_file_is_a_parse_error(self, tmp_path, capsys):
        """An output directory that cannot take field.csv ends in one parse
        error line, not a traceback."""
        (tmp_path / "field.csv").mkdir()
        rc = cli.main(["simulate", "--preset", "free-field", "--output", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error:")
        assert len(captured.err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]

    def test_unwritable_output_file_with_the_csv_split(self, tmp_path, capsys, monkeypatch, split_csv):
        """The output file is opened before any worker is forked, so the
        failure forks nothing and leaves no temporary file."""
        def no_fork():
            raise AssertionError("forked before the output file was opened")

        monkeypatch.setattr(solver.os, "fork", no_fork)
        self.test_unwritable_output_file_is_a_parse_error(tmp_path, capsys)

    def test_failed_csv_worker_is_a_parse_error(self, tmp_path, capsys, monkeypatch, split_csv):
        """A worker that cannot write its rows exits non-zero, and the run
        ends in one parse error line with every worker reaped."""
        monkeypatch.setattr(solver.tempfile, "TemporaryFile", lambda dir: open(os.devnull, "rb"))
        rc = cli.main(["simulate", "--preset", "free-field", "--grid", "0,1,0,1,0.25,0.25",
                       "--output", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("parse error: the worker for the rows from 1 of ")
        assert len(captured.err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["field.csv"]

    @pytest.mark.parametrize("edit, gammas, message", [
        pytest.param({"L": 1.9}, None, "L must be a JSON integer", id="1.9"),
        pytest.param({"L": True}, None, "L must be a JSON integer", id="True"),
        # an outer simplest file reads no spec, but its given keys are read by type too
        pytest.param(dict(OUTER_GL2_JSON, L=True), None, "L must be a JSON integer", id="outer-True"),
        pytest.param(dict(OUTER_GL2_JSON, L=1.0), None, "L must be a JSON integer", id="outer-1.0"),
        pytest.param({"block_sizes": [1.0, 1]}, None, "block_sizes entry must be a JSON integer",
                     id="block_sizes-1.0"),
        pytest.param({"variant": 0}, None, "variant must be a JSON string", id="variant-0"),
        *(pytest.param({"c_plus": [block] * 2}, None, message, id=f"system-{name}")
          for name, block, message in MALFORMED_MATRICES),
        *(pytest.param({}, [block] * 2, message, id=f"initial-{name}")
          for name, block, message in MALFORMED_MATRICES),
    ])
    def test_non_integer_system_grade_is_a_parse_error(self, tmp_path, capsys, edit, gammas, message):
        """A system file's L and block sizes must be JSON integers, its class,
        variant and family JSON strings, and each matrix entry of a system
        or --initial file a pair of JSON numbers, in rows of one length: no
        truncation, no bools, no dropped or extra values."""
        payload = dict(oracles.system_to_json(toda.build_periodic_chain(2, 1)), **edit)
        argv = ["simulate", "--system", write_json(tmp_path / "sys.json", payload)]
        if gammas is not None:
            argv += ["--initial", write_json(tmp_path / "init.json", {"gammas": gammas})]
        rc = cli.main(argv + ["--output", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error:")
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("outer", ["false", "true", 0, 1, None])
    def test_non_bool_simplest_outer_is_a_parse_error(self, tmp_path, capsys, outer):
        """A system file's simplest_outer must be a JSON bool, not read by truthiness."""
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        payload = dict(oracles.system_to_json(toda.build_simplest("gl", c, c)), simplest_outer=outer)
        sys_path = write_json(tmp_path / "sys.json", payload)
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error:")
        assert "simplest_outer must be a JSON bool" in captured.err
        assert not (tmp_path / "manifest.json").exists()

    @pytest.mark.parametrize("preset, grid", [
        ("sine-gordon-kink", "--grid=-5,5,-5,5,0.625,0.625"),
        ("sinh-gordon", "--grid=0,1,0,1,0.0625,0.0625"),
        ("periodic-chain", "--grid=0,1,0,1,0.0625,0.0625"),
        ("free-field", "--grid=0,1,0,1,0.0625,0.0625"),
    ])
    def test_manifest_records_the_solver_constants(self, tmp_path, capsys, preset, grid):
        assert cli.main(["simulate", "--preset", preset, grid, "--output", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"] == {"tol_constraint": 1e-8, "tol_invertibility": 1e12}


#: the unpatched maps the mutations below wrap
_APPLY, _BUILD = gr.apply_automorphism, gr.build_automorphism


def _gl_chain_json(n):
    """gl_inner spec with n = M = p and every k = 1."""
    return {"family": "gl", "n": n, "type": "gl_inner", "M": n,
            "n_list": [1] * n, "k_list": [1] * (n - 1), "phase_offset": 0.0}


def _transpose_dropped(aut, x):
    """An outer twist x -> -h x h^-1 with its ^B dropped; inner maps unchanged."""
    if aut.B is None:
        return _APPLY(aut, x)
    d = aut.h_diag
    return -(d[:, None] / d[None, :]) * np.asarray(x)


def _wrong_phase(spec):
    """The spec's automorphism with h times exp(0.3 i j) on row j: no longer of order M."""
    aut = _BUILD(spec)
    n = aut.h.shape[0]
    return dataclasses.replace(aut, h=np.diag(aut.h_diag * np.exp(0.3j * np.arange(n))))


class TestCheckCommand:
    def test_s1_all_pass(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", S1_JSON)
        assert cli.main(["check", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "PASS validation" in out
        assert "PASS bracket_closure" in out
        assert "PASS block_vs_full" in out
        assert "FAIL" not in out

    def test_so4_all_pass(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", SO4_JSON)
        assert cli.main(["check", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "PASS algebra_membership_preserved" in out
        assert "PASS index_table_vs_projector" in out

    def test_chain_spec_runs_fold_invariance(self, tmp_path, capsys):
        payload = {
            "family": "so", "n": 4, "type": "sosp_I", "M": 2,
            "n_list": [2, 2], "k_list": [1], "phase_offset": 0.5,
        }
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 0
        assert "PASS fold_invariance_drift" in capsys.readouterr().out

    @pytest.mark.parametrize("half", [42, 50])
    def test_large_so_spec_passes_block_vs_full(self, tmp_path, capsys, half):
        """The block-vs-full deviation is relative to the size of the terms,
        which grows with n: on so sosp_I M=2 (42, 42) and (50, 50) the
        absolute deviation, 1.2e-11 and 1.5e-11, failed a bound of 1e-11."""
        payload = {"family": "so", "n": 2 * half, "type": "sosp_I", "M": 2,
                   "n_list": [half, half], "k_list": [1], "phase_offset": 0.5}
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 0
        assert "PASS block_vs_full" in capsys.readouterr().out

    @pytest.mark.parametrize("payload, values", [
        ({"family": "gl", "n": 3, "type": "gl_inner", "M": 3,
          "n_list": [1, 1, 1], "k_list": [1, 1], "phase_offset": 0.0},
         ("2.343e+00", "7.810e-01", "6.000e+00")),
        ({"family": "so", "n": 4, "type": "sosp_I", "M": 4,
          "n_list": [2, 2], "k_list": [1], "phase_offset": 0.5},
         ("4.615e+00", "1.154e+00", "4.000e+00")),
    ])
    def test_broken_automorphism_fails(self, tmp_path, capsys, monkeypatch, payload, values):
        """An automorphism that is no longer of order M must fail the order,
        closure and index-table lines."""
        monkeypatch.setattr(gr, "build_automorphism", _wrong_phase)
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 1
        out = capsys.readouterr().out
        for name, value in zip(("automorphism_order", "bracket_closure", "index_table_vs_projector"),
                               values):
            assert f"FAIL {name} ({value})" in out

    def test_non_equivariant_defect_fails_the_fold_line(self, tmp_path, capsys, monkeypatch):
        """1e-6 I added to node 0's right-hand side of the unfolded chain
        breaks the fold symmetry of its flow: the fold line, and only it,
        fails on every census spec that runs it, in all three fold classes."""
        march = solver.integrate

        def defective(system, data, grid):
            def law(centres):
                rhs = toda.rhs_dispatch(system, centres)
                rhs[0] = rhs[0] + 1e-6 * np.eye(rhs[0].shape[-1])
                return rhs
            return march(system, data, grid, law=law)

        monkeypatch.setattr(solver, "integrate", defective)
        path = tmp_path / "s.json"
        classes = set()
        for family, n, M in CENSUS_CHECK_SETS:
            for spec in gr.enumerate_specs(family, n, M):
                write_json(path, spec.to_json())
                code = cli.main(["check", "--spec", str(path)])
                out = capsys.readouterr().out
                if "fold_invariance_drift" in out:
                    assert code == 1, spec
                    assert "FAIL fold_invariance_drift" in out and out.count("FAIL") == 1, spec
                    classes.add(toda.classify_spec(spec)[0])
        assert classes == {toda.EQ_EVEN_FOLD, toda.EQ_ODD_FOLD, toda.EQ_DOUBLE_FIXED_FOLD}

    @pytest.mark.parametrize("family, half", [("so", 70), ("sp", 100)])
    def test_large_fold_spec_passes(self, tmp_path, capsys, family, half):
        """The state is drawn with entries scaled by 1 / sqrt(block size):
        at a fixed scale the unfolded march of sosp_I M=2 (70, 70) lost
        invertibility at row 2, and (80, 80) and sp (100, 100) went
        non-finite, though M n^2 is far under the cap."""
        payload = {"family": family, "n": 2 * half, "type": "sosp_I", "M": 2,
                   "n_list": [half, half], "k_list": [1], "phase_offset": 0.5}
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS fold_invariance_drift" in out

    def test_halted_fold_march_fails_with_its_reason(self, tmp_path, capsys, monkeypatch):
        """At 2 steps of 1.3 the unfolded march of sp_6 M=8 (3, 3) halts at
        row 1: the fold line fails with the halt text, no drift."""
        monkeypatch.setattr(folding, "FOLD_STEPS", 2)
        monkeypatch.setattr(folding, "FOLD_STEP", 1.3)
        spec = gr.enumerate_specs("sp", 6, 8)[1]
        assert (spec.n_list, spec.k_list) == ((3, 3), (1,))
        path = write_json(tmp_path / "s.json", spec.to_json())
        assert cli.main(["check", "--spec", path]) == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1].startswith(
            "FAIL fold_invariance_drift: the unfolded march halted: invertibility lost at row 1 "
            "(z^+ = 1.3): max(|G|, |inv G|, |G| |inv G|) = ")
        assert out.count("FAIL") == 1

    @pytest.mark.parametrize("family, n, M, shapes", [
        ("so", 5, 6, "tfffffffffmmmm"),
        ("so", 6, 4, "tffmfffffffffffff"),
        ("sp", 4, 4, "tffmfff"),
        ("gl", 4, 4, "tgggggggggggggggggggoo"),
    ])
    def test_battery_lines_per_spec(self, tmp_path, capsys, family, n, M, shapes):
        """Exit code and ordered line names of every enumerated spec: one
        letter per spec, in enumeration order, names its battery."""
        base = ("validation", "automorphism_order", "projector_completeness", "bracket_closure")
        block = ("index_table_vs_projector", "block_vs_full")
        member = ("algebra_membership_preserved",) + block
        batteries = {
            "t": base,
            "g": base + block,
            "o": base + block + ("fold_invariance_drift",),
            "m": base + member,
            "f": base + member + ("fold_invariance_drift",),
        }
        specs = gr.enumerate_specs(family, n, M)
        assert len(specs) == len(shapes)
        path = tmp_path / "s.json"
        for spec, shape in zip(specs, shapes):
            write_json(path, spec.to_json())
            assert cli.main(["check", "--spec", str(path)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert tuple(line.split()[1] for line in lines) == batteries[shape], spec

    def test_census_check_output_golden(self, tmp_path, capsys):
        """sha256 of every exit code and stdout of ``check`` over the specs of
        sp_6 M=8, gl_4 M=6 and so_5 M=6, in enumeration order."""
        digest = hashlib.sha256()
        path = tmp_path / "s.json"
        for family, n, M in CENSUS_CHECK_SETS:
            for spec in gr.enumerate_specs(family, n, M):
                with open(path, "w") as fh:
                    json.dump(spec.to_json(), fh, sort_keys=True)
                code = cli.main(["check", "--spec", str(path)])
                digest.update(f"{code}\n{capsys.readouterr().out}".encode())
        assert digest.hexdigest() == "d84ed6d5017dba79e7fde1560ff2ccf692892a1eb065b7770f6b10f5a8e5edcd"

    def test_invalid_spec_reported_before_invariants(self, tmp_path, capsys):
        payload = dict(SO4_JSON, k_list=[1, 2])
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL validation" in out
        assert "bracket_closure" not in out

    def test_spec_at_the_size_cap_runs(self, tmp_path, capsys):
        """gl_inner n = M = p = 64 has M n^2 = CHECK_MAX_ORBIT, the largest
        battery ``check`` takes."""
        n = 64
        assert n**3 == cli.CHECK_MAX_ORBIT
        path = write_json(tmp_path / "s.json", _gl_chain_json(n))
        assert cli.main(["check", "--spec", path]) == 0
        assert "FAIL" not in capsys.readouterr().out

    @pytest.mark.parametrize("n", [65, 400])
    def test_spec_above_the_size_cap_exits_3(self, tmp_path, capsys, monkeypatch, n):
        """A valid gl_inner n = M = p spec above the cap exits 3 with one line
        on stderr, before it builds the automorphism (at n = 400 the battery
        would need GiB-sized stacks)."""
        def unreachable(spec):
            raise AssertionError("the automorphism was built")

        monkeypatch.setattr(gr, "build_automorphism", unreachable)
        path = write_json(tmp_path / "s.json", _gl_chain_json(n))
        assert cli.main(["check", "--spec", path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"cap exceeded: check takes M n^2 up to {cli.CHECK_MAX_ORBIT}, got {n**3}\n"

    def test_memory_grows_with_m_n2(self):
        """The traced peak of the battery on gl_inner n = M = p = 12 stays
        below 8 (M, n, n) complex stacks (221 KB); one (M, M, M, n, n)
        projection of the brackets would take 4 MB."""
        n = 12
        spec = gr.make_spec("gl", "gl_inner", n, (1,) * n, (1,) * (n - 1))
        list(cli._check_lines(spec))  # the first call's lazy imports are not the battery's
        tracemalloc.start()
        try:
            list(cli._check_lines(spec))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * spec.M * n**2 * 16


def _closure_and_index(spec):
    """(bracket_closure, index_table_vs_projector) verdicts of the battery and
    of the oracles the battery replaced, on the same draws; the index verdict
    of a trivial spec is None."""
    battery = {name: passed for name, passed, _ in cli._check_lines(spec)}
    rng = np.random.default_rng(0)
    x = rng.standard_normal((spec.n, spec.n)) + 1j * rng.standard_normal((spec.n, spec.n))
    aut = gr.build_automorphism(spec)
    closure = oracles.bracket_closure_reference(x, aut) <= cli.CHECK_TOL
    index = (oracles.index_table_reference(spec, aut, rng) == 0
             if isinstance(spec, gr.GradationSpec) else None)
    return (battery["bracket_closure"], battery.get("index_table_vs_projector")), (closure, index)


class TestCheckOracles:
    """The closure and index-table lines against the M^3 bracket projection
    and the p^2 block probes they replaced (``oracles``)."""

    def test_census_verdicts_match_the_oracles(self):
        for family, n, M in CENSUS_CHECK_SETS:
            for spec in gr.enumerate_specs(family, n, M):
                battery, oracle = _closure_and_index(spec)
                assert battery == oracle, spec
                assert battery[0] and battery[1] in (True, None), spec

    @pytest.mark.parametrize("mutation", ["wrong_phase", "transpose_dropped"])
    def test_mutated_automorphism_fails_both(self, monkeypatch, mutation):
        """A wrong phase in h (every spec) and an outer twist without its
        transpose (the outer specs) fail the closure line and its oracle,
        and the index line agrees with its oracle."""
        if mutation == "wrong_phase":
            monkeypatch.setattr(gr, "build_automorphism", _wrong_phase)
        else:
            monkeypatch.setattr(gr, "apply_automorphism", _transpose_dropped)
        checked = 0
        for family, n, M in CENSUS_CHECK_SETS:
            for spec in gr.enumerate_specs(family, n, M):
                outer = getattr(spec, "gradation_type", None) in gr.OUTER_TYPES
                if mutation == "transpose_dropped" and not outer:
                    continue
                battery, oracle = _closure_and_index(spec)
                assert battery == oracle, spec
                assert not battery[0], spec
                checked += 1
        assert checked == (119 if mutation == "wrong_phase" else 4)


class TestEntrypoint:
    """``python -m looptoda.cli`` runs ``entrypoint``, which exits with
    ``main``'s return value."""

    def test_help_exits_0(self):
        result = run_module("--help")
        assert result.returncode == 0, result.stderr
        assert result.stdout.startswith("usage: looptoda")

    def test_no_command_exits_2(self):
        result = run_module()
        assert result.returncode == 2
        assert result.stdout == "" and "usage: looptoda" in result.stderr


class TestBlasThreads:
    """``simulate`` writes the same bytes under one and two BLAS threads:
    the periodic chain's three 2x2 blocks, and an sp sosp_I M=2 (8, 8)
    system with C of spectral norm 0.5 on an 8^2 grid."""

    @staticmethod
    def _assert_same_bytes(tmp_path, *args):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            result = run_module("simulate", *args, f"--output={out}", OPENBLAS_NUM_THREADS=threads)
            assert result.returncode == 0, result.stderr
            outputs.append([(out / name).read_bytes() for name in ("field.csv", "manifest.json")])
        assert outputs[0] == outputs[1]

    def test_periodic_chain_preset(self, tmp_path):
        self._assert_same_bytes(tmp_path, "--preset", "periodic-chain", "--grid=0,1,0,1,0.0625,0.0625")

    def test_sp_sosp_i_8x8_system(self, tmp_path):
        spec = gr.make_spec("sp", gr.TYPE_SOSP_I, 2, (8, 8), (1,))
        cp, cm = toda.random_c_blocks(spec, 1, np.random.default_rng(1))
        cp, cm = (tuple(c * (0.5 / max(np.linalg.norm(b, 2) for b in blocks)) for c in blocks)
                  for blocks in (cp, cm))
        system = toda.build_system(spec, 1, cp, cm)
        path = write_json(tmp_path / "system.json", oracles.system_to_json(system))
        self._assert_same_bytes(tmp_path, "--system", path, "--grid=0,1,0,1,0.125,0.125")


#: the unreadable files of the exit-code table: no file at all, bytes that
#: do not decode, and JSON nested deeper than the decoder can recurse
UNREADABLE_FILES = {"missing": None, "undecodable": b"\xff\xfe\x00bad",
                    "deep": b"[" * 200_000 + b"]" * 200_000}

#: each command of the exit-code table that reads a file BAD (GOOD is a
#: readable system file), and a JSON value of BAD that lacks a key
FILE_COMMANDS = {
    "validate": (["validate", "--spec", "BAD"], {k: v for k, v in S1_JSON.items() if k != "k_list"}),
    "check": (["check", "--spec", "BAD"], {k: v for k, v in S1_JSON.items() if k != "k_list"}),
    "simulate-system": (["simulate", "--system", "BAD"],
                        {k: v for k, v in SIMPLEST_GL2_JSON.items() if k != "c_minus"}),
    "simulate-initial": (["simulate", "--system", "GOOD", "--initial", "BAD"], {"gamma": []}),
}

#: a --grid whose lattice cannot be allocated
UNALLOCATABLE_GRID = "--grid=-5,5,-5,5,5e-6,5e-6"


def _contract_rows():
    """(argv, content of the file BAD, exit code, stderr prefix) of each row."""
    for command, (argv, lacking) in FILE_COMMANDS.items():
        for kind, content in (*UNREADABLE_FILES.items(), ("missing-key", lacking)):
            yield pytest.param(argv, content, 2, "parse error:", id=f"{command}-{kind}")
    yield pytest.param(["enumerate", "--family", "gl", "--n", "0", "--M", "2"], None, 2, "parse error:",
                       id="enumerate-size")
    yield pytest.param(["simulate", "--system", "BAD"],
                       dict(SIMPLEST_GL2_JSON, spec=dict(SIMPLEST_GL2_JSON["spec"], family="bogus")),
                       1, "domain error:", id="simulate-system-domain")
    yield pytest.param(["simulate", "--system", "GOOD", "--initial", "BAD"], {"gammas": [[[[0, 0]] * 2] * 2]},
                       1, "domain error:", id="simulate-initial-domain")
    # a spec's family and type are read by type, as a system file's family is
    gl2 = {"family": "gl", "n": 2, "type": "gl_inner", "M": 2, "n_list": [1, 1], "k_list": [1]}
    for command in ("validate", "check"):
        for key, value in (("family", ["gl"]), ("type", {"a": 1})):
            yield pytest.param([command, "--spec", "BAD"], dict(gl2, **{key: value}), 2,
                               f"parse error: {key} must be a JSON string, got {value!r}",
                               id=f"{command}-{key}-not-a-string")
    yield pytest.param(["enumerate", "--family", "gl", "--n", "10", "--M", "10"], None, 3, "cap exceeded:",
                       id="enumerate-cap")
    yield pytest.param(["check", "--spec", "BAD"], _gl_chain_json(65), 3, "cap exceeded:", id="check-cap")
    yield pytest.param(["simulate", "--system", "BAD", UNALLOCATABLE_GRID], SIMPLEST_GL2_JSON,
                       3, "cap exceeded:", id="simulate-system-cap")
    yield pytest.param(["simulate", "--system", "GOOD", "--initial", "BAD", UNALLOCATABLE_GRID],
                       {"gammas": [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]]]}, 3, "cap exceeded:",
                       id="simulate-initial-cap")


@pytest.mark.parametrize("argv, content, code, prefix", _contract_rows())
def test_exit_code_contract(tmp_path, capsys, argv, content, code, prefix):
    """Every command maps one bad input to one exit code, no stdout, no
    output directory and exactly one stderr line: 2 and ``parse error:``
    for a file that is missing, does not decode, nests too deep or lacks a
    key, whichever command reads it; 1 and ``domain error:`` for input that
    reads but builds no run; 3 and ``cap exceeded:`` above a size cap."""
    bad = tmp_path / "bad.json"
    if isinstance(content, bytes):
        bad.write_bytes(content)
    elif content is not None:
        write_json(bad, content)
    files = {"BAD": str(bad), "GOOD": write_json(tmp_path / "good.json", SIMPLEST_GL2_JSON)}
    out = tmp_path / "out"
    argv = [files.get(arg, arg) for arg in argv] + (["--output", str(out)] if argv[0] == "simulate" else [])
    assert cli.main(argv) == code
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(prefix)
    assert len(captured.err.splitlines()) == 1, captured.err
    assert not out.exists()
