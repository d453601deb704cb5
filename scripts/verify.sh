#!/usr/bin/env bash
# The single verification entrypoint shared by CI and local builds.
#
# Runs the tier-1 command from ROADMAP.md (release build + every suite in
# the workspace: the root manifest's `default-members` covers it), gates the
# whole workspace on clippy (warnings are errors) and ten crates on rustfmt
# (ledger, wire, crypto, provenance, node, core, access, consensus,
# contracts, simnet), smoke-runs the repo benchmark (benchmarks/run.sh
# --smoke: the real node on every BENCHMARK.json workload, every answer
# oracle-checked), builds the API docs with warnings as errors, re-runs the
# crypto crate's tests under --release, and compiles every criterion bench
# target so a bench-only breakage cannot slip past review.
# Performance numbers come from benchmarks/ alone; nothing here writes a
# tracked file.
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

echo "== workspace lint: cargo clippy --workspace (warnings are errors) =="
# Every crate, test and example is gated so lint drift cannot pile up. The
# vendored proptest and criterion stand-ins are left out: clippy stops on a
# deny-level lint in proptest's own tests.
cargo clippy --workspace --exclude proptest --exclude criterion --all-targets --no-deps -- -D warnings

FMT_CRATES=(-p blockprov-ledger -p blockprov-node -p blockprov-core -p blockprov-wire
    -p blockprov-crypto -p blockprov-provenance -p blockprov-access
    -p blockprov-consensus -p blockprov-contracts -p blockprov-simnet)
echo "== format: cargo fmt ${FMT_CRATES[*]} -- --check =="
# The storage crate, its wire format and hashing, the provenance log over it,
# the node that serves it, the framework crate between them, and the access,
# consensus, contracts and simnet crates (already rustfmt-clean) are gated so
# drift cannot pile up there. The other crates' rustfmt drift is not gated
# yet.
cargo fmt "${FMT_CRATES[@]}" -- --check

echo "== repo benchmark smoke: bash benchmarks/run.sh --smoke =="
# Builds the release node and the benchmark harness, runs all four
# BENCHMARK.json workloads at smoke length (traced and untraced) against
# the real node process, and checks every answer against the in-process
# oracle: a node change that breaks an endpoint fails here, not in the
# next benchmark run.
bash benchmarks/run.sh --smoke

echo "== docs: cargo doc --no-deps (warnings are errors) =="
# The operator handbook (docs/OPERATIONS.md) leans on the API docs, so a
# broken intra-doc link or malformed doc comment is a CI failure, not a
# nightly surprise.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --quiet

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

echo "verify.sh: all checks passed"
