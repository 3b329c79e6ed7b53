#!/usr/bin/env bash
# Tier-1 verification: build, test, lint — all offline (the build
# environment has no registry access; every dependency is vendored).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo fmt --all --check
cargo build --release --offline --workspace
cargo test -q --offline --workspace
# The determinism contracts, named explicitly: neither intra-op threads
# nor the SIMD kernel choice may change a single output byte (the rest of
# the suite runs these too, but a regression here should fail loudly
# under its own name).
cargo test -q --offline --test numerical_equivalence \
    execution_is_byte_identical_across_intra_op_threads
cargo test -q --offline --test numerical_equivalence \
    simd_and_scalar_kernels_are_bitwise_identical
# The depthwise kernel and the int8 lowering sit outside the kernel-tier
# switch, so MobileNet-V2's f32 and int8 outputs are pinned by checksum.
cargo test -q --offline --test numerical_equivalence \
    mobilenet_v2_outputs_are_pinned_at_int8_and_f32
# The SDC defense contracts, named explicitly: every single-bit weight
# flip must be caught by the prepare-time checksums, and guard verdicts
# must be byte-identical across thread counts, kernel tiers, and
# repeated seeded campaigns.
cargo test -q --offline --test sdc \
    any_single_weight_bit_flip_is_caught
cargo test -q --offline --test sdc \
    guard_verdicts_are_identical_across_threads_and_kernels
cargo test -q --offline --test sdc \
    guarded_campaign_replays_byte_identically
# The frame and weight checksum must stay byte-identical to the plain
# eight-lane loop it was optimised from (stored weight checksums and the
# pinned outputs depend on it), and the stage costs the process-mode
# parent publishes in the control block must round-trip bit-exactly.
cargo test -q --offline -p edgebench-tensor --lib \
    checksum_matches_reference
cargo test -q --offline -p edgebench --lib \
    ctl_roundtrips_stage_costs
# The zero-copy runtime contracts, named explicitly: the thread loopback
# must drain every frame in order and unlink every shm file, and replay at
# a fixed seed must be byte-identical (the rest of the suite runs these
# too, but a regression here should fail loudly under its own name).
cargo test -q --offline -p edgebench --test runtime \
    loopback_smoke_drains_in_order_and_cleans_up
cargo test -q --offline -p edgebench --test runtime \
    replay_report_is_byte_identical_across_runs
# The supervision contracts, named explicitly: a curated chaos campaign
# must recover every stage within its restart budget with at-most-once
# accounting, and any generated campaign must conserve frames and replay
# byte-identically.
cargo test -q --offline -p edgebench --test chaos \
    supervised_pipeline_recovers_within_restart_budget
cargo test -q --offline -p edgebench --test chaos \
    chaos_campaigns_conserve_and_replay_identically
# The experiment registry must cover every paper artifact (including the
# ext-sdc, ext-chaos, and ext-geo campaigns) and match the documented
# count (29).
cargo test -q --offline -p edgebench \
    registry_covers_every_paper_artifact
# The event-engine contracts, named explicitly: the calendar queue and
# the from-scratch binary-heap oracle must be byte-identical under the
# full resilience stack, simultaneous arrivals must tie-break FIFO
# deterministically, and the geo tier must be invariant to --jobs.
cargo test -q --offline -p edgebench --test engine_oracle \
    oracle_identity_holds_under_the_full_resilience_stack
cargo test -q --offline -p edgebench --test engine_oracle \
    simultaneous_arrivals_tie_break_fifo_deterministically
cargo test -q --offline -p edgebench --test engine_oracle \
    geo_tier_is_jobs_invariant_on_both_engines
# The CLI contracts, named explicitly: every command's flag table parses
# into typed errors (never a panic), and the tests live in the binary
# target, which the root package's plain `cargo test` does not build.
cargo test -q --offline -p edgebench --bin edgebench-cli
cargo clippy --workspace --all-targets --offline -- -D warnings
# Benches must keep compiling even though tier-1 never runs them.
cargo bench --no-run --offline --workspace
# The tracked benchmark trajectory must stay parseable (running the full
# bench suite is too slow for tier-1; structure is checked instead).
scripts/bench_snapshot.sh --check BENCH_kernels.json
# Docs are part of the contract: broken intra-doc links fail the build.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace

# Perf sanity gate: one release batch-8 CifarNet inference pass through the
# prepared executor must finish well inside a generous wall-clock budget
# (catches accidental O(n^2) regressions in the hot path, not CI jitter).
budget_s=60
start=$(date +%s)
cargo run -q --release --offline -p edgebench --bin edgebench-cli -- \
    infer --model cifarnet --batch 8 --threads 0 --iters 5 > /dev/null
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — infer sanity run took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: infer sanity run ${elapsed}s (budget ${budget_s}s)"

# Event-engine perf gate: one million requests through the release-mode
# calendar engine must finish inside a generous budget, under a 768 MiB
# address-space cap so per-event allocation regressions (or a qps-scan
# that materializes every probe trace at once) fail loudly. The binary
# is invoked directly — `cargo run` would fork outside the ulimit shell.
budget_s=60
start=$(date +%s)
(
    ulimit -v 786432
    ./target/release/edgebench-cli serve --devices jetson-nano --replicas 4 \
        --rate 4000 --frames 1000000 --csv > /dev/null
)
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — 1M-request serve took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: 1M-request serve ${elapsed}s (budget ${budget_s}s, 768 MiB cap)"

# Geo sanity gate: a release multi-region run (three regions, diurnal
# traffic, autoscaling, carbon accounting) inside its own budget.
budget_s=120
start=$(date +%s)
./target/release/edgebench-cli geo --requests 20000 --jobs 4 --csv > /dev/null
elapsed=$(( $(date +%s) - start ))
if [ "$elapsed" -gt "$budget_s" ]; then
    echo "verify: FAIL — geo sanity run took ${elapsed}s (budget ${budget_s}s)" >&2
    exit 1
fi
echo "verify: geo sanity run ${elapsed}s (budget ${budget_s}s)"

echo "verify: OK"
