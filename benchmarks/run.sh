#!/usr/bin/env bash
# Build the node (root workspace) and the harness (this package), both in
# release, then hand every argument to the harness. This is the `command`
# of BENCHMARK.json; run it from anywhere.
#
# Both builds share one target directory: $CARGO_TARGET_DIR when set
# (relative paths are taken from the repo root), else benchmarks/target.
# Build output goes to stderr so the harness's last stdout line stays last.
set -euo pipefail

home="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$home")"
cd "$root"

target="${CARGO_TARGET_DIR:-benchmarks/target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet -p blockprov-node --bin blockprov-node >&2
cargo build --release --offline --quiet --manifest-path "$home/Cargo.toml" >&2

exec "$target/release/bench" --node-bin "$target/release/blockprov-node" "$@"
