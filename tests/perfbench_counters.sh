#!/usr/bin/env bash
# Prints what perfbench reports that does not depend on the host: for each
# workload at seeds 101 and 31337 (`--seconds 0 --trace 1`), the
# simulation digest, the attempted and failed request counts, and every
# metric counted in `count` or `ratio`. Every other line is left out, the
# host-time ones among them (the stepping times, the per-slice table and
# any metric in another unit, such as `s`, `ns`, `x`, `s/s` or `MiB`), so
# a slower or faster machine prints the same bytes. CI compares the output
# with the golden file:
#
#   tests/perfbench_counters.sh | diff tests/golden/perfbench_counters.txt -
#
# Run from the repository root. perfbench is built --locked into
# $CARGO_TARGET_DIR (default .bench_build, as perfbench/run.py does).
set -euo pipefail
target=${CARGO_TARGET_DIR:-.bench_build}
cargo build --release --locked --quiet --manifest-path perfbench/Cargo.toml \
    --target-dir "$target" >&2
for seed in 101 31337; do
    for workload in http_baseline conn_containers tenants_smp_io cluster_sparse; do
        echo "== $workload seed $seed"
        "$target/release/perfbench" --workload "$workload" --seed "$seed" \
            --seconds 0 --trace 1 | awk '
            $1 == "sim_digest" { print; next }
            /^\{/ {
                for (i = 1; i < NF; i++) {
                    if ($i == "\"attempted\":" || $i == "\"failed\":") {
                        key = $i; value = $(i + 1)
                        gsub(/[":]/, "", key); gsub(/,/, "", value)
                        print key, value
                    }
                }
                next
            }
            NF == 3 && ($3 == "count" || $3 == "ratio") { print }'
    done
done
