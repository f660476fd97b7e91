#!/usr/bin/env sh
# Local CI gate — the same checks .github/workflows/ci.yml runs.
# Usage: ./ci.sh
set -eu

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings -W clippy::redundant_clone

echo "==> cargo test (workspace)"
cargo test --workspace -q

# The benchmark is its own Cargo workspace, so the workspace run above
# skips its smoke-size checks (every workload, metric names and units
# against BENCHMARK.json, replay counters repeating exactly).
echo "==> cargo test (servebench)"
cargo test --offline --manifest-path servebench/Cargo.toml

# Same tier-1 suite with every engine forced onto the intra-query
# worker pool: parallel rounds must be answer- and test-invisible.
echo "==> cargo test (workspace, KPJ_PAR_THREADS=4)"
KPJ_PAR_THREADS=4 cargo test --workspace -q

# --test-threads=1: the counting allocator is process-global, so libtest's
# own worker threads would bleed allocations into a measured window.
echo "==> zero-allocation steady state, tracing enabled (count-alloc feature)"
cargo test -q -p kpj-core --features count-alloc --test alloc_count -- --test-threads=1

echo "==> trace feature compiles out cleanly (no-default-features)"
cargo check -q -p kpj-core --no-default-features
cargo check -q -p kpj-service --no-default-features

echo "==> metrics exposition smoke (serve -> {\"cmd\":\"metrics\"} -> Prometheus lines)"
cargo test -q -p kpj-service --test metrics_smoke

echo "==> slow-query flight recorder round trip (record -> kpj-fuzz replay)"
cargo test -q -p kpj-oracle --test flight_recorder

echo "==> release build (binaries: kpj-cli, kpj-serve, kpj-loadgen, gen-huge, kpj-fuzz, bench-kpj)"
cargo build --release -q --workspace

# Continental-scale storage smoke: stream a ~1M-node road-like graph to
# a page-aligned v2 file in O(1) writer memory, open it zero-copy via
# mmap, and answer k=20 queries cold — first through kpj-cli, then
# through a kpj-serve --graph-bin / kpj-loadgen round over TCP.
# SCALE_NODES shrinks or grows the box (keep it >= 1000).
SCALE_NODES="${SCALE_NODES:-1000000}"
echo "==> storage scale smoke (gen-huge ${SCALE_NODES} nodes -> v2 mmap -> k=20)"
SCALE_DIR="$(mktemp -d)"
SCALE_SERVE_PID=""
trap 'if [ -n "$SCALE_SERVE_PID" ]; then kill "$SCALE_SERVE_PID" 2>/dev/null || true; fi; rm -rf "$SCALE_DIR"' EXIT
./target/release/gen-huge --nodes "$SCALE_NODES" --seed 42 --out "$SCALE_DIR/huge.kpj2"
./target/release/kpj-cli info --graph "$SCALE_DIR/huge.kpj2"
./target/release/kpj-cli query --graph "$SCALE_DIR/huge.kpj2" \
  --source 17 --targets "$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))" \
  -k 20 --algorithm iterboundi > "$SCALE_DIR/plain.out"

# Landmarks at scale: embed 8 node-major landmark tables (reordered, so
# the tables go through remap_landmarks too), answer the same query from
# the cold mmap'd file, and demand the landmark-free answer: landmarks
# change the work, never the answer.
echo "==> landmark scale smoke (convert --reorder --landmarks 8 -> cold mmap -> k=20 diff)"
./target/release/kpj-cli convert --graph "$SCALE_DIR/huge.kpj2" \
  --out "$SCALE_DIR/huge-lm.kpj2" --to-v2 --reorder --landmarks 8
./target/release/kpj-cli info --graph "$SCALE_DIR/huge-lm.kpj2"
./target/release/kpj-cli query --graph "$SCALE_DIR/huge-lm.kpj2" \
  --source 17 --targets "$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))" \
  -k 20 --algorithm iterboundi > "$SCALE_DIR/landmarks.out"
diff "$SCALE_DIR/plain.out" "$SCALE_DIR/landmarks.out"
rm -f "$SCALE_DIR/huge-lm.kpj2"

# Reduction at scale: contract the same file around the query endpoints,
# fold in the BFS reorder, cold-load the reduced mmap file, and demand
# the re-expanded k=20 answer is byte-identical to the unreduced one.
echo "==> reduction scale smoke (convert --reduce --reorder -> cold mmap -> k=20 diff)"
./target/release/kpj-cli convert --graph "$SCALE_DIR/huge.kpj2" \
  --out "$SCALE_DIR/huge-red.kpj2" --to-v2 --reorder --reduce \
  --keep "17,$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))"
./target/release/kpj-cli info --graph "$SCALE_DIR/huge-red.kpj2"
./target/release/kpj-cli query --graph "$SCALE_DIR/huge-red.kpj2" \
  --source 17 --targets "$((SCALE_NODES / 2 - 21)),$((SCALE_NODES - 17))" \
  -k 20 --algorithm iterboundi > "$SCALE_DIR/reduced.out"
diff "$SCALE_DIR/plain.out" "$SCALE_DIR/reduced.out"

./target/release/kpj-serve --graph-bin "$SCALE_DIR/huge.kpj2" --landmarks 0 \
  --addr 127.0.0.1:7841 &
SCALE_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7841 --node-count "$SCALE_NODES" \
  --requests 24 --connections 4 --k 20 --unique
kill "$SCALE_SERVE_PID" 2>/dev/null || true
wait "$SCALE_SERVE_PID" 2>/dev/null || true
SCALE_SERVE_PID=""
rm -rf "$SCALE_DIR"
trap - EXIT

# Bounded oracle sweep: fixed seed so the gate is deterministic; set
# FUZZ_SECONDS to lengthen the box (e.g. FUZZ_SECONDS=300 for a soak).
echo "==> oracle sweep (seed 0xC0FFEE, <= ${FUZZ_SECONDS:-45}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 12648430 --max-seconds "${FUZZ_SECONDS:-45}"

# Parallel-vs-sequential differential: a second bounded sweep on its own
# fixed seed. Every case runs the full checker, whose check_parallel
# stage demands bit-identical PathSets and stats for par_threads 2 and 4
# — so this box is pure par-vs-seq differential coverage on top of the
# sweep above. PAR_DIFF_SECONDS lengthens it independently.
echo "==> parallel-vs-sequential differential (seed 0xDECAF, <= ${PAR_DIFF_SECONDS:-${FUZZ_SECONDS:-45}}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 912559 --max-seconds "${PAR_DIFF_SECONDS:-${FUZZ_SECONDS:-45}}"

# Reduction differential: a third bounded sweep on its own fixed seed.
# Every case's check_reduce stage runs all algorithms on the reduced and
# reduced+reordered graphs (fresh landmarks and none) and demands the
# re-expanded answers match the original graph's bit-for-bit; the
# chain-heavy generator family keeps contraction coverage dense.
echo "==> reduction differential (seed 0x5EDD, <= ${REDUCE_DIFF_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 24285 --max-seconds "${REDUCE_DIFF_SECONDS:-30}"

# Sidetrack differential: a dedicated bounded sweep on its own fixed
# seed. The sidetrack engine answers from the reverse SPT + sidetrack
# splices rather than per-subspace searches, so this box concentrates
# coverage on the agreement between that representation and the
# deviation family (invariant 1), the brute-force oracle, and the
# reduced-graph re-expansion. SIDETRACK_DIFF_SECONDS lengthens it.
echo "==> sidetrack differential (seed 0x51DE, <= ${SIDETRACK_DIFF_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --seed 20958 --max-seconds "${SIDETRACK_DIFF_SECONDS:-30}"

# Live-update oracle: interleave weight-update batches with queries on a
# running KpjService; after every batch, all algorithms × {landmarks,
# none} must be bit-identical to a fresh engine built from the updated
# graph, and the incrementally repaired landmark tables must equal a
# full rebuild. INTERLEAVE_SECONDS lengthens the box.
echo "==> live-update interleaving oracle (seed 0xBEEF, <= ${INTERLEAVE_SECONDS:-30}s)"
cargo run --release -q -p kpj-oracle --bin kpj-fuzz -- \
  --interleave --seed 48879 --max-seconds "${INTERLEAVE_SECONDS:-30}"

# Live-update serving smoke: 10% of the loadgen stream re-weights edges
# (epoch swap + landmark repair) while queries keep completing on their
# pinned epochs — any error spike or malformed line fails the run.
echo "==> update-load smoke (kpj-serve <- kpj-loadgen --update-rate 10)"
UPD_SERVE_PID=""
trap 'if [ -n "$UPD_SERVE_PID" ]; then kill "$UPD_SERVE_PID" 2>/dev/null || true; fi' EXIT
./target/release/kpj-serve --nodes 3000 --arcs 8000 --seed 7 --landmarks 4 \
  --addr 127.0.0.1:7842 &
UPD_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7842 --nodes 3000 --arcs 8000 \
  --seed 7 --requests 400 --connections 4 --k 8 --update-rate 10
./target/release/kpj-cli update --addr 127.0.0.1:7842 --edge 0,1,50
kill "$UPD_SERVE_PID" 2>/dev/null || true
wait "$UPD_SERVE_PID" 2>/dev/null || true
UPD_SERVE_PID=""
trap - EXIT

# Introspection smoke: boot a server, put mixed query/update load on it
# with a machine-readable loadgen report, then assert the live system
# state over the status verb — at least one live epoch, a drained
# admission queue — via a single kpj-cli top frame.
echo "==> introspection smoke (status verb + kpj-cli top --once + loadgen --out)"
OBS_DIR="$(mktemp -d)"
OBS_SERVE_PID=""
trap 'if [ -n "$OBS_SERVE_PID" ]; then kill "$OBS_SERVE_PID" 2>/dev/null || true; fi; rm -rf "$OBS_DIR"' EXIT
./target/release/kpj-serve --nodes 3000 --arcs 8000 --seed 7 --landmarks 4 \
  --addr 127.0.0.1:7843 &
OBS_SERVE_PID=$!
sleep 2
./target/release/kpj-loadgen --addr 127.0.0.1:7843 --nodes 3000 --arcs 8000 \
  --seed 7 --requests 400 --connections 4 --k 8 --update-rate 10 \
  --out "$OBS_DIR/report.json"
grep -q '"throughput_rps"' "$OBS_DIR/report.json"
grep -q '"malformed":0' "$OBS_DIR/report.json"
./target/release/kpj-cli top --addr 127.0.0.1:7843 --once | tee "$OBS_DIR/top.out"
grep -Eq 'live=[1-9]' "$OBS_DIR/top.out"     # at least the current epoch is live
grep -q 'queue=0' "$OBS_DIR/top.out"         # load fully drained at snapshot time
grep -q 'epoch_published' "$OBS_DIR/top.out" # the update stream reached the journal
kill "$OBS_SERVE_PID" 2>/dev/null || true
wait "$OBS_SERVE_PID" 2>/dev/null || true
OBS_SERVE_PID=""
rm -rf "$OBS_DIR"
trap - EXIT

# Per-algorithm latency + allocation profile (fixed seeds, small query
# count so the gate stays quick). BENCH_QUERIES=24 for a fuller run.
# The committed BENCH_baseline.json turns the run into a perf-regression
# diff — a delta table per workload × algorithm cell plus the k-sweep,
# non-zero exit beyond BENCH_REGRESS_PCT percent (default 25). Warn-only
# here: shared CI boxes jitter well past any honest threshold; run
# `bench-kpj --compare BENCH_baseline.json` directly for the hard gate.
echo "==> bench-kpj (writes BENCH_kpj.json, diffs vs BENCH_baseline.json)"
cargo run --release -q -p kpj-bench --bin bench-kpj -- \
  --queries "${BENCH_QUERIES:-6}" --out BENCH_kpj.json \
  --compare BENCH_baseline.json \
  || echo "WARN: perf cells regressed vs BENCH_baseline.json (non-fatal; see table above)"

echo "CI OK"
