"""Byte identity: every digest line of scripts/output_digest.py, both
modes, against the committed outputs in tests/data and against a rerun
with numpy's SIMD dispatch capped at X86_V3.

The data files start with the numpy build, the BLAS and the dispatch
class they were written with; on another build or class last-bit
differences are expected, so the comparison with tests/data skips there
instead of failing.  The X86_V3 rerun needs no data: X86_V3 and X86_V4
hosts share one dispatch class, so their outputs must agree everywhere.
A change that alters output on purpose regenerates both files with the
commands in the script's docstring.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
SCRIPT = ROOT / "scripts" / "output_digest.py"

_spec = importlib.util.spec_from_file_location("output_digest", SCRIPT)
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)

def _golden(name):
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != digest.header_lines():
        pytest.skip(f"{name} was written on {header}, this is {digest.header_lines()}; "
                    "last-bit differences are expected between them")
    return lines[len(header):]


def _first_difference(got, want):
    for i, (g, w) in enumerate(zip(got, want)):
        if g != w:
            return f"line {i}: got {g!r}, expected {w!r}"
    return f"got {len(got)} lines, expected {len(want)}"


@pytest.mark.parametrize("name, produce", [
    ("output_digest.txt", digest.file_digest_lines),
    ("trajectories.txt", digest.trajectory_lines),
])
def test_output_matches_committed_digest(name, produce):
    want = _golden(name)
    got = produce()
    assert got == want, _first_difference(got, want)


@pytest.mark.parametrize("mode, produce", [
    ([], digest.file_digest_lines),
    (["--trajectories"], digest.trajectory_lines),
], ids=["files", "trajectories"])
def test_x86_v3_cap_matches_this_process(mode, produce):
    """The script rerun under NPY_ENABLE_CPU_FEATURES=X86_V3 prints this
    process's header and lines; on an X86_V3 host the cap changes nothing,
    on an AVX-512 host it drops every X86_V4 loop."""
    env = {**os.environ, "NPY_ENABLE_CPU_FEATURES": "X86_V3"}
    env.pop("NPY_DISABLE_CPU_FEATURES", None)  # numpy refuses both at once
    proc = subprocess.run([sys.executable, str(SCRIPT), "--header", *mode],
                          capture_output=True, text=True, env=env, timeout=600)
    if "cannot enable CPU feature" in proc.stderr:
        pytest.skip(f"numpy refuses NPY_ENABLE_CPU_FEATURES=X86_V3: "
                    f"{proc.stderr.strip().splitlines()[-1]}")
    assert proc.returncode == 0, proc.stderr
    got, header = proc.stdout.splitlines(), digest.header_lines()
    if got[:len(header)] != header:
        pytest.skip(f"dispatch classes differ: the run under NPY_ENABLE_CPU_FEATURES=X86_V3 "
                    f"reports {got[:len(header)]}, this process {header}")
    want = header + produce()
    assert got == want, _first_difference(got, want)
