#!/usr/bin/env bash
# Regenerate every figure data set into results/ (CSV + JSON sidecars).
# Output is deterministic for a fixed seed, so rerunning overwrites the
# files with identical bytes.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
# Run the CLI from this checkout; no install is needed.
cvqec() { python3 -m cvqec.cli "$@"; }

OUT="${1:-results}"
SEED="${SEED:-0}"
TRAJ="${TRAJ:-20000}"
TRAJ_BOSONIC="${TRAJ_BOSONIC:-4000}"

mkdir -p "$OUT"

cvqec fig2 --sigma 0.1 --out "$OUT"
cvqec fig3 --sigma 0.1 --dmax 15 --out "$OUT"

for state in coherent fock1; do
    cvqec fig4 --state "$state" --code none --sweep pphi \
        --trajectories "$TRAJ" --seed "$SEED" --out "$OUT"
    cvqec fig4 --state "$state" --code three_qubit --sweep pphi \
        --trajectories "$TRAJ" --seed "$SEED" --out "$OUT"
done

for code in binomial shor; do
    cvqec fig4 --code "$code" --sweep sigma \
        --trajectories "$TRAJ_BOSONIC" --seed "$SEED" --out "$OUT"
done

echo "figure data written to $OUT/"
