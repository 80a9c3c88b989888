#!/bin/sh
# Regenerate expbench/pins.txt: the correctness pins of seeds 0..63 on
# every workload. Run from the repository root, and only when a change is
# meant to alter the simulated behaviour; a pure speed-up must pass the
# committed pins unchanged.
set -e
target=${CARGO_TARGET_DIR:-expbench/target}
cargo build --offline --release --quiet --manifest-path expbench/Cargo.toml
for w in engine_wide salary_guarantees polling_sweep; do
    for s in $(seq 0 63); do
        # One batch per seed; pin lines go to stderr whether or not they
        # match the old pins.
        "$target/release/expbench" --workload "$w" --seed "$s" --seconds 0 --trace 0 \
            2>&1 >/dev/null | grep '^pin ' | cut -d' ' -f2-
    done
done > expbench/pins.txt.new
mv expbench/pins.txt.new expbench/pins.txt
