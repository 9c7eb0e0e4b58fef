#!/usr/bin/env bash
# Tier-1 gate (see ROADMAP.md) plus the documentation build, all hermetic:
# every step runs --offline and must pass from a clean checkout with no
# crates.io access. docs/BUILD.md documents the rationale.
set -euo pipefail
cd "$(dirname "$0")"

# Every build, test and bench output must land in an ignored path, so the
# run must leave `git status` as it found it (checked at the end). Outside
# a git work tree (e.g. an unpacked archive) the check is skipped.
in_git_tree=false
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  in_git_tree=true
  tree_before="$(git status --porcelain)"
fi

echo "==> build (release, offline, workspace)"
cargo build --release --offline --workspace

echo "==> test (offline, workspace)"
cargo test -q --offline --workspace

echo "==> util, tmem and hcf-core tests at the benchmarks' optimisation level (release)"
cargo test -q --release --offline -p hcf-util -p hcf-tmem -p hcf-core

echo "==> rustdoc (offline, warning-free)"
RUSTDOCFLAGS="${RUSTDOCFLAGS:-} -D warnings" cargo doc --no-deps --offline --workspace

echo "==> native mode: real-thread smoke tests + wall-clock bench (--smoke)"
cargo test -q --offline --test native_smoke
cargo run -q --release --offline -p hcf-bench --bin native -- --smoke

echo "==> tmem hot-path bench (--smoke; see docs/DESIGN.md, TM hot path)"
cargo run -q --release --offline -p hcf-bench --bin tmem_hot -- --smoke

echo "==> kv service: loopback, admission and lincheck tests, bench (--smoke)"
cargo test -q --offline -p hcf-kv --test loopback --test admission --test lincheck
cargo run -q --release --offline -p hcf-bench --bin kvbench -- --smoke

echo "==> sim suite under the txsan sanitizer feature"
cargo test -q --offline -p hcf-sim --features txsan

echo "==> sanitizer: replay checker, negative (seeded-bug) and full-run tests"
cargo test -q --offline -p san

echo "==> hcf-lint (source access discipline; see docs/SANITIZER.md)"
cargo run -q --offline -p san --bin hcf-lint

if cargo clippy --version >/dev/null 2>&1; then
  echo "==> clippy (workspace, -D warnings)"
  cargo clippy -q --offline --workspace --all-targets -- -D warnings
else
  echo "==> clippy not installed; skipping"
fi

if $in_git_tree; then
  echo "==> git tree unchanged by ci.sh"
  tree_after="$(git status --porcelain)"
  if [ "$tree_before" != "$tree_after" ]; then
    echo "ci.sh changed the git tree (< before, > after):" >&2
    diff <(printf '%s\n' "$tree_before") <(printf '%s\n' "$tree_after") >&2 || true
    exit 1
  fi
fi

echo "ci: OK"
