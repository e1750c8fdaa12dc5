"""Smoke runs of the study scripts and the benchmark workloads at tiny sizes."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

COMMANDS = [
    ["run_kink_convergence.py", "--cells", "16", "32"],
    ["run_sinh_amplitude_sweep.py", "--cells", "16"],
    ["enumerate_gradations.py", "--max-n", "3", "--max-M", "3"],
]


def _run(script, *args, timeout=120):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, env=env, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_script_runs(command):
    assert _run(*command).strip()


def test_kink_convergence_json():
    # the converged midpoint scheme is second order at both slopes
    studies = json.loads(_run("run_kink_convergence.py", "--cells", "128", "256", "--json"))
    assert list(studies) == ["1.44", "1.4142135623730951"]
    for study in studies.values():
        assert list(study) == ["cells", "h", "L_inf", "ratio"]
        assert study["cells"] == [128, 256] and study["ratio"][0] is None
        assert 3.9 <= study["ratio"][1] <= 4.1, study


def test_sinh_amplitude_sweep_json():
    # the nonlinear deviation is cubic in the amplitude: doubling eps multiplies it by 8
    sweep = json.loads(_run("run_sinh_amplitude_sweep.py", "--json"))
    assert list(sweep) == ["eps", "rel", "dev", "ratio"]
    assert sweep["eps"] == [1e-3, 2e-3, 4e-3] and sweep["ratio"][0] is None
    assert len(sweep["rel"]) == len(sweep["dev"]) == 3
    for ratio in sweep["ratio"][1:]:
        assert 7.9 <= ratio <= 8.1, sweep


def test_census_counts():
    # the n, M <= 8 census of valid gradations per family and type
    assert _run("enumerate_gradations.py", "--max-n", "8", "--max-M", "8", timeout=300).splitlines() == [
        "gl {'gl_inner': 12805, 'gl_outer_II': 42, 'gl_outer_III': 56, 'trivial': 64}",
        "so {'sosp_I': 489, 'sosp_II': 277, 'trivial': 64}",
        "sp {'sosp_I': 383, 'sosp_II': 52, 'trivial': 32}",
    ]


def test_history_digests_repeat():
    # two runs print the same bytes: one line per matrix-march system, preset and halting march
    args = ("history_digests.py", "--seeds", "1", "--cells", "8")
    first = _run(*args)
    assert _run(*args) == first
    lines = first.splitlines()
    assert len(lines) == 8 + 4 + 2
    assert lines[-2].startswith("sinh_runaway  gammas ")
    assert lines[-2].endswith("  halt non-finite value at row 3 (z^+ = 0.09375)")


def _perfbench_module(name):
    """A module of perfbench/, which is a directory of scripts, not a package;
    registered before it runs, as its dataclasses look it up."""
    path = os.path.join(ROOT, "perfbench", f"{name}.py")
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_tracing_targets_resolve():
    for module_name, attr, _ in _perfbench_module("tracing").TARGETS:
        assert callable(getattr(importlib.import_module(module_name), attr)), (module_name, attr)


@pytest.mark.parametrize("name", ["scalar-simulate", "matrix-march", "gradation-census"])
def test_benchmark_workload_warms_up(name, tmp_path):
    workload = _perfbench_module("workloads").WORKLOADS[name]
    workload.warm_up(workload.build(1, str(tmp_path)))
