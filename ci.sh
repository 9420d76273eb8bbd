#!/bin/sh
# Local CI gate: formatting, lints, and the tier-1 test suite.
# Everything runs offline; the workspace has no external dependencies.
set -eux

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo test -q

# Smoke the perf harnesses: the substrate microbenchmarks (turbo with DTS
# off/on + reference simulator engine) and the engine-comparison target
# (minimum 5 reps; also checks BENCH_sim.json generation end to end, and
# --check fails the gate if turbo's median total is under 3x faster than
# the reference engine's, with DTS off or on).
# simperf and buildperf write their BENCH_*.json into the working
# directory, so CI runs them from a scratch directory and leaves the
# checked-in perf record alone; run them from the repository root to
# regenerate it.
cargo bench -p bench --bench experiments -- substrate_simulator
cargo build --release -p bench --bin simperf --bin buildperf
BIN_DIR=$(cd "${CARGO_TARGET_DIR:-target}/release" && pwd)
PERF_DIR=$(mktemp -d)
(cd "$PERF_DIR" && "$BIN_DIR/simperf" --check 1)

# Compiler side: the profiler engine contract, then the staged-pipeline
# target (2 reps → min-of-2 sweeps; also checks BENCH_build.json
# generation and asserts fast/reference profiler equivalence end to end;
# its -j cold-build matrix aborts on any parallel-vs-serial suite
# fingerprint divergence, and its incremental leg asserts a
# one-function rebuild links bit-identically to the cold build).
cargo test --release -q -p bitspec --test profiler_equivalence
(cd "$PERF_DIR" && "$BIN_DIR/buildperf" 2)
rm -rf "$PERF_DIR"

# Parallel & incremental build determinism: -j1 vs -j8 sweeps of the
# suite (memory + disk store tiers), function-cache invalidation
# precision, pool output ordering, and the fuzzer's seeded
# serial/parallel/incremental agreement property.
cargo test --release -q -p bitspec --test parallel_determinism --test fn_cache
# In-flight dedupe tests run in release, where racing misses really overlap.
cargo test --release -q -p bitspec --lib memo::
cargo test --release -q -p bitspec --test stage_cache concurrent_
cargo test --release -q -p bench --test pool_order
cargo test --release -q -p fuzz --test parallel_incremental

# Pass-manager smoke: a gated BITSPEC build with verify-each produces a
# JSON pass trace naming every registered pass with nonzero timings, the
# golden pass order holds per architecture, and BITSPEC_PRINT_AFTER
# renders every corpus entry's IR without panicking or changing output.
cargo test --release -q -p bitspec --test pass_trace --test pass_order
cargo test --release -q -p fuzz --test print_after

# Differential fuzzing: a fixed-seed smoke batch (deterministic, exits
# nonzero on any divergence) plus replay of every minimized corpus entry.
cargo run --release -p fuzz --bin fuzzer -- --seed 42 --iters 50 --no-save
cargo test --release -q -p fuzz --test fuzz_corpus

# Artifact store round-trip: the store/codec integration tests (corrupt
# entries recompute + rewrite, publish races, GC cap), then a bitspecd
# smoke — build a batch against a scratch store, re-serve it from a
# second cold process (memory caches necessarily empty, so every cell
# must come off disk bit-identically), and diff the result streams.
cargo test --release -q -p bitspec --test store --test wire_roundtrip
cargo test --release -q -p serve --test serve_integration
STORE_DIR=$(mktemp -d)
cat > "$STORE_DIR/batch.txt" <<'EOF'
sim crc32 config=bitspec
sim crc32 config=baseline
sim basicmath config=bitspec
EOF
cargo run --release -p serve --bin bitspecd -- \
  --store "$STORE_DIR/store" --ordered --file "$STORE_DIR/batch.txt" \
  | grep -v '"summary"' | sed 's/"source": "[a-z-]*"/"source": "-"/' \
  > "$STORE_DIR/cold.jsonl"
cargo run --release -p serve --bin bitspecd -- \
  --store "$STORE_DIR/store" --ordered --file "$STORE_DIR/batch.txt" \
  | tee "$STORE_DIR/warm.raw" \
  | grep -v '"summary"' | sed 's/"source": "[a-z-]*"/"source": "-"/' \
  > "$STORE_DIR/warm.jsonl"
grep -q '"computed": 0' "$STORE_DIR/warm.raw"   # everything off disk
cmp "$STORE_DIR/cold.jsonl" "$STORE_DIR/warm.jsonl"  # bit-identical
rm -rf "$STORE_DIR"
