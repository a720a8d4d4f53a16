#!/usr/bin/env bash
# Repo gate: formatting, lints, and the tier-1 test suite (see ROADMAP.md).
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> nest-lint (repo-rule source gate: shim-only locks, named locks, metric catalog, SAFETY comments, atomic orderings)"
cargo run -q -p nest-lint

# --no-fail-fast: a failing test binary must not hide the binaries after
# it; cargo still exits non-zero if any of them failed.
echo "==> tier-1: cargo build --release && cargo test -q --no-fail-fast"
cargo build --release
cargo test -q --no-fail-fast

echo "==> nest-check (invariant macro + lock-order detector unit/regression tests, debug build)"
cargo test -q -p nest-check -p parking_lot

echo "==> tier-1 under lock-order deadlock detection (NEST_LOCK_ORDER=1)"
NEST_LOCK_ORDER=1 cargo test -q --no-fail-fast

echo "==> nest-model (deterministic interleaving explorer, --features model; wall-clock budget 60s)"
model_start=$SECONDS
if ! cargo test -q -p nest-model --features model -- --nocapture >target/model.log 2>&1; then
  cat target/model.log >&2
  echo "    nest-model: FAILED (see above)" >&2
  exit 1
fi
model_elapsed=$((SECONDS - model_start))
# The lot scenarios print their explorer reports; show the schedule counts.
grep -o '[a-z_]*: Report { schedules: [0-9]*' target/model.log |
  sed 's/: Report { schedules: /: /; s/^/    /; s/$/ schedules/'
if [ "$model_elapsed" -gt 60 ]; then
  echo "    nest-model: FAILED (took ${model_elapsed}s, budget 60s — a scenario outgrew exhaustive exploration)" >&2
  exit 1
fi
echo "    nest-model: PASSED (${model_elapsed}s)"

# Sanitizer passes are best-effort: they need a nightly toolchain with
# rust-src for -Zbuild-std. Each reports PASSED / SKIPPED (reason)
# explicitly so a log reader can tell "ran clean" from "never ran".
san_src=""
if cargo +nightly --version >/dev/null 2>&1; then
  san_src="$(rustc +nightly --print sysroot)/lib/rustlib/src/rust/library"
fi
san_host="$(rustc -vV | sed -n 's/^host: //p')"

echo "==> ThreadSanitizer spot-check (parking_lot shim)"
if [ -n "$san_src" ] && [ -d "$san_src" ]; then
  if RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
     cargo +nightly test -Zbuild-std --target "$san_host" \
       -q -p parking_lot 2>target/tsan.log; then
    echo "    tsan: PASSED (parking_lot shim clean)"
  else
    echo "    tsan: FAILED (see target/tsan.log)" >&2
    exit 1
  fi
else
  echo "    tsan: SKIPPED (nightly toolchain with rust-src not available)"
fi

echo "==> AddressSanitizer + LeakSanitizer pass (tests/fault_paths.rs: fault-path cleanup must not leak)"
if [ -n "$san_src" ] && [ -d "$san_src" ]; then
  if RUSTFLAGS="-Zsanitizer=address" RUSTDOCFLAGS="-Zsanitizer=address" \
     cargo +nightly test -Zbuild-std --target "$san_host" \
       -q --test fault_paths 2>target/asan.log; then
    echo "    asan/lsan: PASSED (fault paths clean, no leaks)"
  else
    echo "    asan/lsan: FAILED (see target/asan.log)" >&2
    exit 1
  fi
else
  echo "    asan/lsan: SKIPPED (nightly toolchain with rust-src not available)"
fi

echo "==> fault matrix (deterministic fault injection across models x policies)"
cargo test -p nest-transfer --release --test fault_matrix

echo "==> fault stress loop (seeded, --features fault-injection)"
cargo test -p nest-transfer --release --features fault-injection fault_stress

echo "==> nestmark unit tests (incl. the BENCHMARK.json <-> code consistency test)"
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> nestmark smoke (live appliance, all seven fronts; exits non-zero on any verification failure)"
cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- smoke

echo "==> all checks passed"
