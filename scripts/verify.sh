#!/usr/bin/env bash
# The single verification entrypoint shared by CI and local builds.
#
# Runs the tier-1 command from ROADMAP.md (release build + every suite in
# the workspace: the root manifest's `default-members` covers it), re-runs
# the ingest-pipeline equivalence property on both the inline and the
# pooled validation paths and the crypto crate's tests under --release,
# compiles every criterion bench target so a bench-only breakage cannot
# slip past review, and smoke-runs
# the ledger_scale bench (the tiered-storage + spilled-index +
# metadata-tier + ingest-scaling harness) so the scale
# measurement path cannot silently rot either. The smoke run writes the
# machine-readable perf artifact BENCH_ledger_scale.json at the repo root
# (append blk/s per backend, blk/s per ingest thread count, resident
# metadata bytes).
#
# Flags:
#   --dist   additionally build the bench crate under the fat-LTO `dist`
#            profile — the configuration paper-grade numbers are quoted
#            from — so dist-only breakage (LTO symbol issues, profile
#            drift) surfaces in CI instead of on the day of measurement.
set -euo pipefail
cd "$(dirname "$0")/.."

DIST=0
for arg in "$@"; do
  case "$arg" in
    --dist) DIST=1 ;;
    *)
      echo "verify.sh: unknown flag $arg (supported: --dist)" >&2
      exit 2
      ;;
  esac
done

echo "== tier-1: cargo build --release =="
cargo build --release

echo "== tier-1: cargo test -q =="
cargo test -q

echo "== docs: cargo doc --no-deps (warnings are errors) =="
# The operator handbook (docs/OPERATIONS.md) leans on the API docs, so a
# broken intra-doc link or malformed doc comment is a CI failure, not a
# nightly surprise.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

echo "== ingest pipeline equivalence: INGEST_THREADS=1 (inline commit path) =="
INGEST_THREADS=1 cargo test -q -p blockprov-ledger --test ingest_equiv

echo "== ingest pipeline equivalence: INGEST_THREADS=4 (pooled stateless stage) =="
INGEST_THREADS=4 cargo test -q -p blockprov-ledger --test ingest_equiv

echo "== blockprov-crypto unit tests, --release =="
# The #[target_feature] kernel inlines and schedules differently under
# optimisation, so the kernel-vs-portable and Merkle position-binding tests
# run a second time here (tier-1 ran them in the dev profile). On a CPU
# without SHA extensions the kernel test says so on stderr.
cargo test -q -p blockprov-crypto --release

echo "== benches compile: cargo bench --no-run =="
cargo bench --no-run

if [ "$DIST" = "1" ]; then
  echo "== dist profile: cargo build --profile dist -p blockprov-bench --benches =="
  cargo build --profile dist -p blockprov-bench --benches
fi

echo "== bench smoke: cargo bench -p blockprov-bench --bench ledger_scale -- lookup =="
# The filter trims the timing loops to the lookup groups; the one-shot
# append/cold-start/ingest-scaling measurements always run,
# which is the point — they exercise the 100k-block tiered, spilled-index,
# metadata-tier (snapshot fast-start vs full replay), batched-ingest,
# and group-commit batch-size sweep paths. INGEST_SCALE_BLOCKS
# and BATCH_COMMIT_BLOCKS trim the per-thread-count and per-batch-size
# streams to smoke length; COLD_START_BLOCKS=10000 trims the cold-start
# sweep to its first point (the full 10k/50k/100k curve belongs to real
# bench runs); CRITERION_JSON captures every median and metric into the
# tracked perf-trajectory artifact.
INGEST_SCALE_BLOCKS="${INGEST_SCALE_BLOCKS:-2000}" \
BATCH_COMMIT_BLOCKS="${BATCH_COMMIT_BLOCKS:-2000}" \
COLD_START_BLOCKS="${COLD_START_BLOCKS:-10000}" \
CRITERION_JSON="$PWD/BENCH_ledger_scale.json" \
  cargo bench -p blockprov-bench --bench ledger_scale -- lookup

echo "== bench smoke: cargo bench -p blockprov-bench --bench mixed_rw =="
# Mixed read/write: one writer floods append_batch while 1/2/4/8 detached
# reader threads run point + sweep queries against epoch-published
# snapshots. MIXED_RW_BLOCKS trims the history/flood streams to smoke
# length; CRITERION_JSON_MERGE folds the reader-latency and
# writer-degradation metrics into the same tracked artifact ledger_scale
# just wrote (merge by name — ledger_scale's entries survive).
MIXED_RW_BLOCKS="${MIXED_RW_BLOCKS:-1000}" \
CRITERION_JSON_MERGE="$PWD/BENCH_ledger_scale.json" \
  cargo bench -p blockprov-bench --bench mixed_rw
echo "perf artifact: BENCH_ledger_scale.json"

echo "== node flood smoke: release blockprov-node + txflood over HTTP =="
# End-to-end service check: start the release node on an ephemeral port
# with a throwaway durable tier, flood it over real sockets with the
# mixed-scenario txflood driver (one producer + query threads; any failed
# request fails the driver), then SIGTERM the node and require the clean
# drain + snapshot exit path. NODE_FLOOD_BLOCKS trims the flood to smoke
# length; the node_flood/* metrics merge into the same tracked artifact.
# Both binaries come from the tier-1 `cargo build --release` above.
NODE_DATA_DIR="$(mktemp -d)"
NODE_LOG="$(mktemp)"
./target/release/blockprov-node --addr 127.0.0.1:0 --data-dir "$NODE_DATA_DIR" \
  >"$NODE_LOG" 2>&1 &
NODE_PID=$!
NODE_ADDR=""
for _ in $(seq 1 100); do
  NODE_ADDR="$(sed -n 's/^blockprov-node listening on //p' "$NODE_LOG" | head -n 1)"
  [ -n "$NODE_ADDR" ] && break
  sleep 0.1
done
if [ -z "$NODE_ADDR" ]; then
  echo "verify.sh: node failed to become ready" >&2
  cat "$NODE_LOG" >&2
  kill "$NODE_PID" 2>/dev/null || true
  exit 1
fi
NODE_FLOOD_ADDR="$NODE_ADDR" \
NODE_FLOOD_BLOCKS="${NODE_FLOOD_BLOCKS:-600}" \
CRITERION_JSON_MERGE="$PWD/BENCH_ledger_scale.json" \
  ./target/release/txflood
kill -TERM "$NODE_PID"
wait "$NODE_PID" # non-zero exit = drain/snapshot failure, fails the script
cat "$NODE_LOG"
rm -rf "$NODE_DATA_DIR" "$NODE_LOG"

echo "verify.sh: all checks passed"
