#!/usr/bin/env bash
# Builds the benchmark offline and runs it.
#
#   benchmark/run.sh                                  all five workloads, one set
#   benchmark/run.sh suite --repeat 3 --tag base      three sets -> out/base.json
#   benchmark/run.sh run   --workload pnpp_delayed --seed 1
#   benchmark/run.sh trace --workload pnpp_delayed --seed 1
#   benchmark/run.sh compare out/base.json out/change.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (acceptance driver)
#
# The last line a run prints is its one-object JSON result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
target=${CARGO_TARGET_DIR:-$here/../target}
case $target in
    /*) ;;
    *) target=$PWD/$target ;; # cargo would resolve it against the manifest's directory
esac

# Build output goes to stderr: stdout belongs to the result.
CARGO_TARGET_DIR=$target cargo build --release --offline --quiet \
    --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/mesorasi-benchmark" --out "$here/out" "$@"
