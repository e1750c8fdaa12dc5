"""Smoke runs of the study scripts at tiny sizes: each must exit 0."""

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


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_script_runs(command):
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", command[0]), *command[1:]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


def test_census_counts():
    # the n, M <= 8 census of valid gradations per family and type
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "enumerate_gradations.py"),
         "--max-n", "8", "--max-M", "8"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "gl {'gl_inner': 12805, 'gl_outer_II': 42, 'gl_outer_III': 56, 'trivial': 64}",
        "so {'sosp_I': 489, 'sosp_II': 277, 'trivial': 64}",
        "sp {'sosp_I': 383, 'sosp_II': 52, 'trivial': 32}",
    ]
