#!/usr/bin/env bash
# Full local CI gate. Mirrors .github/workflows/ci.yml exactly — same
# commands, same order, one section per hosted job — so a green local run
# predicts a green hosted run. Everything is offline (all deps are vendored
# shims).
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_NET_OFFLINE=true

echo "== [check] cargo xtask check"
cargo xtask check
cargo xtask check --json > /dev/null

echo "== [lint] cargo fmt --check"
cargo fmt --check

echo "== [lint] cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "== [test] cargo build --release"
cargo build --release

echo "== [test] cargo test -q --no-fail-fast"
cargo test -q --no-fail-fast

echo "== [benchmark] benchmark/ built and unit-tested against the workspace"
# Not --locked (the offline build adds a lock edge); the lock file is
# restored whether or not the steps pass.
benchmark_status=0
{ cargo build --release --manifest-path benchmark/Cargo.toml &&
  cargo test --manifest-path benchmark/Cargo.toml; } || benchmark_status=$?
git checkout -- benchmark/Cargo.lock
[ "$benchmark_status" -eq 0 ]

echo "== [kernel-matrix] cargo test -q under the pinned scalar DGEMM kernel"
RHPL_KERNEL=scalar cargo test -q

echo "== [race-check] threaded FACT with the aliasing ledger armed"
cargo test -q --release -p hpl-threads --features hpl-threads/race-check
cargo test -q --release -p hpl-threads
cargo test -q --release -p rhpl-core --features hpl-threads/race-check
cargo test -q --release -p rhpl-core
cargo test -q --release -p hpl-integration-tests --features hpl-threads/race-check \
  --test failure_injection --test x_hash_golden --test trace_determinism
taskset -c 0 cargo test -q --release -p hpl-threads --features hpl-threads/race-check
taskset -c 0 cargo test -q --release -p rhpl-core --features hpl-threads/race-check

echo "== [faults] cargo xtask faults"
cargo xtask faults

echo "== [faults] cargo xtask faults --self-test"
cargo xtask faults --self-test

echo "== [recovery] cargo xtask faults --recovery"
cargo xtask faults --recovery

echo "== [transport-matrix] cargo test -q under each byte-moving transport"
RHPL_TRANSPORT=shm cargo test -q
RHPL_TRANSPORT=tcp cargo test -q

echo "== [transport-matrix] cargo xtask faults --kill"
cargo xtask faults --kill

echo "== [transport-matrix] process-per-rank --mxp launch over localhost TCP"
cargo build --release -p rhpl-cli
./target/release/rhpl --sample > target/HPL-mxp.dat
./target/release/rhpl launch target/HPL-mxp.dat --ranks 4 --transport tcp --mxp

echo "== [miri] cargo +nightly miri test -p hpl-ckpt -p hpl-faults; -p hpl-comm --lib transport::"
if cargo +nightly miri --version >/dev/null 2>&1; then
  MIRIFLAGS=-Zmiri-disable-isolation cargo +nightly miri test -p hpl-ckpt -p hpl-faults
  cargo +nightly miri test -p hpl-comm --lib transport::
else
  echo "miri: nightly toolchain with miri is not installed; skipping (hosted CI runs it)"
fi

echo "ci.sh: all gates green"
