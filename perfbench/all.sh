#!/usr/bin/env bash
# Runs every workload in turn, each in its own process, with the given
# seed, window and trace setting, e.g.
#
#   bash perfbench/all.sh --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root; see run.sh.
set -euo pipefail

for w in torus-static regular-reopt torus-dynamic regular-actor; do
	bash "$(dirname "$0")/run.sh" --workload "$w" "$@"
done
