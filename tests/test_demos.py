"""The three walkthroughs in demos/, run as scripts.

Each demo runs in a fresh interpreter from the repository root with
`src` on the path, must exit 0, and must print the lines that carry its
conclusion.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

EXPECTED = {
    "free_subgroup.py": [
        "ping-pong table found at m = 3",
        "hence <g1^3, g2^3> is free of rank 2.",
        "    axis (x, (1, -1, -1)) = 0",
        "    eigenvalues nu, 1/nu with nu + 1/nu = 7",
    ],
    "mass_chain.py": ["  s >= 28"],
    "e8_basics.py": ["  agreement within 1/50: yes"],
}


@pytest.mark.parametrize("demo", sorted(EXPECTED))
def test_demo_runs_and_concludes(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                         cwd=ROOT, env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    for want in EXPECTED[demo]:
        assert want in lines, want
