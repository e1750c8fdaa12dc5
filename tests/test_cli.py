import dataclasses
import json
import os

import numpy as np
import pytest

from looptoda import cli, gradation as gr, toda


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


S1_JSON = {
    "family": "gl", "n": 3, "type": "gl_inner", "M": 2,
    "n_list": [2, 1], "k_list": [1], "phase_offset": 0.0,
}

SO4_JSON = {
    "family": "so", "n": 4, "type": "sosp_I", "M": 4,
    "n_list": [1, 2, 1], "k_list": [1, 1], "phase_offset": 0.0,
}


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

    def test_cap_exceeded(self, monkeypatch):
        monkeypatch.setenv("TODA_MAX_ENUM", "3")
        assert cli.main(["enumerate", "--family", "gl", "--n", "6", "--M", "6"]) == 3

    @pytest.mark.parametrize("n,M", [("0", "4"), ("4", "-2"), ("4", "0")])
    def test_non_positive_size_is_a_parse_error(self, capsys, n, M):
        assert cli.main(["enumerate", "--family", "gl", "--n", n, "--M", M]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "parse error" in captured.err


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

    def test_near_singular_initial_blowup_status(self, tmp_path):
        cp = np.array([[0.0, 1.0], [0.0, 0.0]])
        cm = cp.T
        system = toda.build_simplest("gl", cp, cm)
        sys_path = write_json(tmp_path / "sys.json", toda.system_to_json(system))
        init = {"gammas": [[[[1e-8, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1e8, 0.0]]]]}
        init_path = write_json(tmp_path / "init.json", init)
        rc = cli.main([
            "simulate", "--system", sys_path, "--initial", init_path,
            "--grid", "0,1,0,1,0.125,0.125",
            "--output", str(tmp_path),
        ])
        assert rc == 4
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["halted"] is True
        assert manifest["halt_reason"].startswith("non-finite value at row 1")

    def test_system_file_run(self, tmp_path):
        chain = toda.build_periodic_chain(2, 1)
        sys_path = write_json(tmp_path / "sys.json", toda.system_to_json(chain))
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 0

    @pytest.mark.parametrize("count", [0, 2])
    def test_trivial_system_needs_one_block_each(self, tmp_path, capsys, count):
        """A p = 1 system file with no or extra C blocks is a domain error."""
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        payload = toda.system_to_json(toda.build_simplest("gl", c, c))
        payload["c_plus"] = payload["c_plus"][:1] * count
        sys_path = write_json(tmp_path / "sys.json", payload)
        rc = cli.main(["simulate", "--system", sys_path, "--output", str(tmp_path)])
        assert rc == 1
        assert "domain error: need 1 arc block" in capsys.readouterr().err
        assert not (tmp_path / "manifest.json").exists()

    def test_manifest_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            cli.main(["simulate", "--preset", "free-field", "--output", str(out)])
        assert (out1 / "manifest.json").read_bytes() == (out2 / "manifest.json").read_bytes()
        assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()

    def test_missing_source(self):
        assert cli.main(["simulate"]) == 2

    def test_bad_grid(self, tmp_path):
        # steps that do not divide the ranges, a zero step, an infinite range
        for grid in ("0,1,0,1,0.3,0.3", "0,1,0,1,0,0.1", "0,inf,0,1,0.1,0.1"):
            rc = cli.main(["simulate", "--preset", "free-field", "--grid", grid,
                           "--output", str(tmp_path)])
            assert rc == 2, grid
        assert not (tmp_path / "manifest.json").exists()

    def test_output_below_a_file_is_a_parse_error(self, tmp_path, capsys, monkeypatch):
        """The output directory is made before the run, and a failure to make
        it is a parse error, not a traceback after the integration."""
        def no_run(*args, **kwargs):
            raise AssertionError("integrated before the output directory was made")

        monkeypatch.setattr(cli.solver, "integrate", no_run)
        blocker = tmp_path / "file"
        blocker.write_text("")
        rc = cli.main(["simulate", "--preset", "free-field", "--output", str(blocker / "out")])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("parse error:")
        assert len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("tol", ["0", "-1e-8", "inf"])
    def test_non_positive_tol_is_a_parse_error(self, tmp_path, tol):
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--preset", "free-field", "--tol", tol, "--output", str(tmp_path)])
        assert exc.value.code == 2
        assert not (tmp_path / "manifest.json").exists()


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

    @pytest.mark.parametrize("payload, values", [
        ({"family": "gl", "n": 3, "type": "gl_inner", "M": 3,
          "n_list": [1, 1, 1], "k_list": [1, 1], "phase_offset": 0.0},
         ("2.343e+00", "1.207e+00", "6.000e+00")),
        ({"family": "so", "n": 4, "type": "sosp_I", "M": 4,
          "n_list": [2, 2], "k_list": [1], "phase_offset": 0.5},
         ("4.615e+00", "3.055e+00", "4.000e+00")),
    ])
    def test_broken_automorphism_fails(self, tmp_path, capsys, monkeypatch, payload, values):
        """An automorphism that is no longer of order M must fail the order,
        closure and index-table lines."""
        build = gr.build_automorphism

        def broken(spec):
            aut = build(spec)
            n = aut.h.shape[0]
            return dataclasses.replace(aut, h=np.diag(aut.h_diag * np.exp(0.3j * np.arange(n))))

        monkeypatch.setattr(gr, "build_automorphism", broken)
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 1
        out = capsys.readouterr().out
        for name, value in zip(("automorphism_order", "bracket_closure", "index_table_vs_projector"),
                               values):
            assert f"FAIL {name} ({value})" in out

    def test_tol_is_read_as_given(self, tmp_path, capsys):
        path = write_json(tmp_path / "s.json", S1_JSON)
        assert cli.main(["check", "--spec", path, "--tol", "1e-300"]) == 1
        assert "FAIL projector_completeness" in capsys.readouterr().out
        for tol in ("0", "-1", "inf"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["check", "--spec", path, "--tol", tol])
            assert exc.value.code == 2

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

    def test_invalid_spec_reported_before_invariants(self, tmp_path, capsys):
        payload = dict(SO4_JSON, k_list=[1, 2])
        path = write_json(tmp_path / "s.json", payload)
        assert cli.main(["check", "--spec", path]) == 1
        out = capsys.readouterr().out
        assert "FAIL validation" in out
        assert "bracket_closure" not in out
