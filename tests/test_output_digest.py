"""Byte identity: every digest line of scripts/output_digest.py, both
modes, against the committed outputs in tests/data.

The data files start with the numpy and BLAS build they were written
with; on another build last-bit differences are expected, so the test
skips there instead of failing.  A change that alters output on purpose
regenerates both files with the commands in the script's docstring.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

_spec = importlib.util.spec_from_file_location(
    "output_digest", ROOT / "scripts" / "output_digest.py")
digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(digest)


def _golden(name):
    lines = (DATA / name).read_text(encoding="utf-8").splitlines()
    header = [line for line in lines if line.startswith("#")]
    if header != digest.header_lines():
        pytest.skip(f"{name} was written on {header}, this is {digest.header_lines()}")
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
