#!/usr/bin/env bash
# Builds the benchmark offline and runs it; every argument is passed to the
# binary (see README.md):
#
#   benchmark/run.sh                       all workloads, plain then traced, seed 1
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#   benchmark/run.sh --calibrate 10        noise table for NOISE.md
#
# Build output goes to stderr; stdout carries the header, the metrics and, as
# its last line, the JSON result. Nothing outside the build directory and
# benchmark/out/ is written.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"

# The benchmark builds the system from source; without it there is nothing
# to measure, so fail before printing anything that looks like a result.
for need in crates vendor; do
    if [ ! -d "$root/$need" ]; then
        echo "vcbench: $root/$need is missing; run from a full checkout" >&2
        exit 2
    fi
done

target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --locked --manifest-path "$here/Cargo.toml" >&2

commit="$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unversioned)"
echo "# vcbench commit=$commit nproc=$(nproc) build=release,offline,locked target=$target"
exec "$target/release/vcbench" --out "$here/out" "$@"
