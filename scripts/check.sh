#!/usr/bin/env bash
# The full verification gate: everything a change must survive before it
# lands. Runs, in order:
#
#   1. warnings-as-errors build + full test suite   (build-check/)
#   2. ASan + UBSan build + full test suite         (build-asan/)
#   3. TSan build + concurrency/determinism tests   (build-tsan/)
#   4. clang-tidy over src/ (skipped if not installed — the .clang-tidy
#      config is committed either way)
#   5. anonet_lint over src/ + examples/, ratcheted against the checked-in
#      baseline (also wired into CTest as lint.src_clean; running it here
#      too keeps the gate self-contained)
#
# Exits nonzero on the first failing stage. Usage:
#
#   scripts/check.sh            # everything
#   scripts/check.sh plain asan # just those stages (plain|asan|tsan|tidy|lint)
#   scripts/check.sh lint --update-baseline  # accept current lint findings
#   scripts/check.sh lint --no-baseline      # absolute run: fail on ANY finding
set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
jobs="$(nproc)"

# Split stage names from --flags (flags only affect the lint stage).
stages=()
lint_update_baseline=0
lint_no_baseline=0
for arg in "$@"; do
  case "$arg" in
    --update-baseline) lint_update_baseline=1 ;;
    --no-baseline)     lint_no_baseline=1 ;;
    --*) echo "unknown flag: $arg" >&2; exit 2 ;;
    *) stages+=("$arg") ;;
  esac
done
if [ ${#stages[@]} -eq 0 ]; then
  stages=(plain asan tsan tidy lint)
fi

want() {
  local s
  for s in "${stages[@]}"; do [ "$s" = "$1" ] && return 0; done
  return 1
}

banner() { printf '\n==== %s ====\n' "$1"; }

# TSan scope: the thread-parallel round engine and everything its
# bitwise-determinism contract rests on.
tsan_filter='^(Executor|ExecutorDeterminism|ThreadPool|CounterRng|Capabilities|Convergence)\.|Parallel|Determin'

if want plain; then
  banner "plain build (-Werror) + full test suite"
  cmake -B "$repo_root/build-check" -S "$repo_root" -DANONET_WERROR=ON
  cmake --build "$repo_root/build-check" -j"$jobs"
  ctest --test-dir "$repo_root/build-check" --output-on-failure -j"$jobs"
fi

if want asan; then
  banner "AddressSanitizer + UBSan build + full test suite"
  cmake -B "$repo_root/build-asan" -S "$repo_root" \
        -DANONET_SANITIZE=address -DANONET_WERROR=ON
  cmake --build "$repo_root/build-asan" -j"$jobs"
  ctest --test-dir "$repo_root/build-asan" --output-on-failure -j"$jobs"
fi

if want tsan; then
  banner "ThreadSanitizer build + concurrency/determinism tests"
  cmake -B "$repo_root/build-tsan" -S "$repo_root" \
        -DANONET_SANITIZE=thread -DANONET_WERROR=ON
  cmake --build "$repo_root/build-tsan" -j"$jobs"
  ctest --test-dir "$repo_root/build-tsan" --output-on-failure -j"$jobs" \
        -R "$tsan_filter"
fi

if want tidy; then
  banner "clang-tidy (src/)"
  if ! command -v clang-tidy >/dev/null 2>&1 && command -v apt-get >/dev/null 2>&1; then
    # Best effort on hosts without the binary; CI installs it explicitly.
    maybe_sudo=""
    command -v sudo >/dev/null 2>&1 && maybe_sudo="sudo"
    $maybe_sudo apt-get install -y --no-install-recommends clang-tidy \
      >/dev/null 2>&1 || true
  fi
  if command -v clang-tidy >/dev/null 2>&1; then
    compile_db="$repo_root/build-check"
    if [ ! -f "$compile_db/compile_commands.json" ]; then
      cmake -B "$compile_db" -S "$repo_root" -DANONET_WERROR=ON
    fi
    find "$repo_root/src" -name '*.cpp' -print0 |
      xargs -0 clang-tidy -p "$compile_db" --warnings-as-errors='*'
  else
    echo "clang-tidy not installed; skipping (config committed in .clang-tidy)"
  fi
fi

if want lint; then
  banner "anonet_lint (src/ + examples/)"
  compile_db="$repo_root/build-check/compile_commands.json"
  lint_args=(--root "$repo_root" "$repo_root/src" "$repo_root/examples")
  if [ -f "$compile_db" ]; then
    lint_args=(--compile-commands "$compile_db" "${lint_args[@]}")
  fi
  # Ratchet against the checked-in baseline (same contract as CI and
  # lint.src_clean): only NEW findings fail. --no-baseline drops the
  # subtraction; --update-baseline accepts the current finding set
  # (justifications preserved, new entries marked UNJUSTIFIED for editing).
  if [ "$lint_no_baseline" -eq 0 ]; then
    lint_args=(--baseline "$repo_root/tools/anonet_lint/baseline.json"
               "${lint_args[@]}")
    if [ "$lint_update_baseline" -eq 1 ]; then
      lint_args=(--update-baseline "${lint_args[@]}")
    fi
  fi
  python3 "$repo_root/tools/anonet_lint/anonet_lint.py" "${lint_args[@]}"
fi

banner "all requested stages passed"
