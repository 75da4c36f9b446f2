#!/usr/bin/env bash
# Print the optimal working point of every correction scheme at one sigma.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
# Run the CLI from this checkout; no install is needed.
cvqec() { python3 -m cvqec.cli "$@"; }

SIGMA="${1:-0.1}"

for scheme in qubit_p two_qubit squeezed; do
    cvqec optimize --scheme "$scheme" --sigma "$SIGMA"
done
cvqec optimize --scheme qudit --sigma "$SIGMA" --d 8
