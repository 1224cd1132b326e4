#!/usr/bin/env bash
# The repo's benchmark, one command (README.md has the tables).
#
#   benchmark/run.sh [--seed N] [--quick] [--no-trace] [--aa]
#       build spex in release, run every workload untraced, check every
#       output against the generator's expected answer, print every metric by
#       name with its unit, then run the traced pass. Non-zero exit on any
#       failed operation or self-check.
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one run of one workload; the last stdout line is the JSON result.
#       --trace 0 gives the end-to-end metrics, --trace 1 the per-layer ones.
#   benchmark/run.sh --print-manifest
#       BENCHMARK.json as the benchmark's tables define it.
#
# Run it from the root of a checkout. Everything it writes stays under
# benchmark/out/ and the cargo target directories.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

# With CARGO_TARGET_DIR set, all three packages build into it; without, each
# workspace uses its own target/.
spex_target="${CARGO_TARGET_DIR:-target}"
bench_target="${CARGO_TARGET_DIR:-benchmark/target}"
trace_target="${CARGO_TARGET_DIR:-benchmark/trace/target}"

trace=0 workload="" no_trace=0 mode=run
pass=() # for both binaries
e2e_only=()
args=("$@")
for ((i = 0; i < ${#args[@]}; i++)); do
  case "${args[i]}" in
    --trace) i=$((i + 1)); trace="${args[i]:-}" ;;
    --workload) i=$((i + 1)); workload="${args[i]:-}"; pass+=(--workload "$workload") ;;
    --seed | --seconds) pass+=("${args[i]}" "${args[i + 1]:-}"); i=$((i + 1)) ;;
    --quick) pass+=(--quick) ;;
    --no-trace) no_trace=1 ;;
    --aa) mode=aa; e2e_only+=(--aa) ;;
    --print-manifest) mode=manifest ;;
    -h | --help) sed -n '2,16p' "${BASH_SOURCE[0]}"; exit 0 ;;
    *) echo "benchmark/run.sh: unknown option \`${args[i]}\`" >&2; exit 2 ;;
  esac
done

# Build logs go to stderr: stdout carries the metrics and the result line.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
e2e="$bench_target/release/e2e"
if [[ $mode == manifest ]]; then
  exec "$e2e" --print-manifest
fi

# The system under test is built from this checkout's source; without it
# (a directory holding only the benchmark) this fails and nothing runs.
# The manifest is named so that cargo does not go looking in parent directories.
cargo build --release --offline --manifest-path Cargo.toml -p spex-cli >&2
spex="$spex_target/release/spex"
common=(--spex "$spex" --out benchmark/out)

build_trace() {
  cargo build --release --offline --manifest-path benchmark/trace/Cargo.toml >&2
}
trace_bin="$trace_target/release/trace"

if [[ -n $workload ]]; then
  if [[ $trace == 1 ]]; then
    build_trace
    exec "$trace_bin" "${common[@]}" --e2e "$e2e" "${pass[@]}"
  fi
  exec "$e2e" "${common[@]}" "${pass[@]}" --trace 0
fi

"$e2e" "${common[@]}" "${pass[@]}" "${e2e_only[@]}"
if [[ $mode == run && $no_trace == 0 ]]; then
  build_trace
  status=0
  for w in oneshot-flat oneshot-deep serve-stream serve-feed; do
    "$trace_bin" "${common[@]}" --e2e "$e2e" "${pass[@]}" --workload "$w" | grep -v '^{' || status=1
  done
  exit $status
fi
