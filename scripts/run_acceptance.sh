#!/usr/bin/env bash
# Run the acceptance gate alone, with the per-criterion PASS lines visible.
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
exec python3 -m pytest tests/test_acceptance.py -v -s "$@"
