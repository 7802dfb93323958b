#!/usr/bin/env bash
# The gated bench checks that perfbench/ (the one end-to-end timing
# trajectory) does not cover, with results printed to stdout:
#
#  * alloc — bench_micro's event-churn and draw-pipeline benches must
#    report exactly 0 allocs per event and per draw;
#  * cache — the hash-dominated --clean-rounds workload with the digest
#    cache on and off: stdout must be byte-identical;
#  * fork  — paired, interleaved A/B of bench_race_analysis's spot-duel
#    ladder (--ramp-s=$FORK_RAMP_S): the thread pool (one worker, whose
#    duels share its kernel image) against warm-prefix fork children
#    (--branches=$FORK_BRANCHES --fork-prefix=1), which share the whole
#    warm prefix: stdout must be identical in every pair and the
#    user-time ratio of medians >= 1.5x;
#  * fused — paired A/B of $FUSED_K separate --clean-rounds --batch=1
#    processes against one --batch=$FUSED_K run, whose replicas run one
#    after another on one worker and share its kernel image and pristine
#    digest base: stdout identical, user-time ratio of medians >= 1.3x.
#
# The A/Bs compare USER time over interleaved pairs because wall time on
# a shared host drifts by more than the effects measured. Builds are not
# triggered here: point BUILD_DIR at an existing (Release) build, default
# <repo>/build. Exits 1 when any gate fails.
#
#   scripts/run_benches.sh              # all four gates
#   scripts/run_benches.sh cache fused  # a subset
#   FORK_PAIRS=3 FUSED_PAIRS=3 scripts/run_benches.sh fork fused
set -euo pipefail

repo="$(cd "$(dirname "$0")/.." && pwd)"
build="${BUILD_DIR:-$repo/build}"
gates=("$@")
[ "${#gates[@]}" -gt 0 ] || gates=(alloc cache fork fused)

detect="$build/bench/bench_satin_detection"
race="$build/bench/bench_race_analysis"
micro="$build/bench/bench_micro"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

median() {
  printf '%s\n' "$@" | sort -g |
    awk '{v[NR]=$1} END{if (NR%2) print v[(NR+1)/2]; else printf "%.3f\n", (v[NR/2]+v[NR/2+1])/2}'
}

# paired_ab <name> <pairs> <gate> <side-a> <side-b>: runs the two shell
# functions back to back <pairs> times, checks their stdout is identical
# each time, and fails unless median(user A) / median(user B) >= <gate>.
paired_ab() {
  local name=$1 pairs=$2 gate=$3 side_a=$4 side_b=$5 i ua ub
  local a_times=() b_times=() ratios=()
  echo "== $name: $side_a vs $side_b (n=$pairs pairs, user-time medians)" >&2
  for i in $(seq 1 "$pairs"); do
    ua="$( { TIMEFORMAT='%U'; time "$side_a" >"$tmp/a.out" 2>"$tmp/a.err"; } 2>&1 )" &&
      ub="$( { TIMEFORMAT='%U'; time "$side_b" >"$tmp/b.out" 2>"$tmp/b.err"; } 2>&1 )" || {
      echo "$name: FAIL $side_a or $side_b exited nonzero"
      cat "$tmp/a.err" "$tmp/b.err" >&2
      return 1
    }
    if ! cmp -s "$tmp/a.out" "$tmp/b.out"; then
      echo "$name: FAIL stdout differs between $side_a and $side_b"
      diff "$tmp/a.out" "$tmp/b.out" >&2 || true
      return 1
    fi
    a_times+=("$ua")
    b_times+=("$ub")
    ratios+=("$(awk -v a="$ua" -v b="$ub" 'BEGIN{printf "%.3f", (b > 0) ? a / b : 0}')")
    echo "   pair $i/$pairs: ${ua}s vs ${ub}s (${ratios[-1]}x)" >&2
  done
  local a_med b_med speedup
  a_med="$(median "${a_times[@]}")"
  b_med="$(median "${b_times[@]}")"
  speedup="$(awk -v a="$a_med" -v b="$b_med" 'BEGIN{printf "%.2f", (b > 0) ? a / b : 0}')"
  # The median of per-pair ratios is reported next to the gated ratio of
  # medians: each pair ran back to back, so its ratio is drift-free.
  echo "$name: medians ${a_med}s vs ${b_med}s, speedup ${speedup}x" \
    "(median pair ratio $(median "${ratios[@]}")x, gate ${gate}x), stdout identical"
  if awk -v s="$speedup" -v g="$gate" 'BEGIN{exit !(s < g)}'; then
    echo "$name: FAIL speedup ${speedup}x is below the ${gate}x gate"
    return 1
  fi
}

gate_alloc() {
  echo "== bench_micro event-churn + draw-pipeline allocation audit" >&2
  "$micro" --benchmark_filter='BM_EventChurn|BM_Mt|BM_Draw' \
    --benchmark_format=json >"$tmp/micro.json" 2>"$tmp/micro.err"
  python3 - "$tmp/micro.json" <<'PY'
import json, sys
rows = [(b["name"], key, b[key])
        for b in json.load(open(sys.argv[1])).get("benchmarks", [])
        for key in ("allocs_per_event", "allocs_per_draw") if key in b]
for name, key, allocs in rows:
    print(f"alloc: {name}: {allocs} {key.replace('allocs_per_', 'allocs/')}")
bad = [name for name, _, allocs in rows if allocs != 0]
if not rows or bad:
    print(f"alloc: FAIL nonzero allocations in {bad}" if bad
          else "alloc: FAIL no audited benches ran")
    raise SystemExit(1)
PY
}

gate_cache() {
  local rounds="${CLEAN_ROUNDS:-1900}" mode
  echo "== bench_satin_detection --clean-rounds=$rounds, digest cache on vs off" >&2
  for mode in on off; do
    "$detect" "--clean-rounds=$rounds" "--digest-cache=$mode" \
      >"$tmp/cache_$mode.out" 2>"$tmp/cache_$mode.err" || {
      echo "cache: FAIL --digest-cache=$mode exited nonzero"
      return 1
    }
  done
  if ! cmp -s "$tmp/cache_on.out" "$tmp/cache_off.out"; then
    echo "cache: FAIL --clean-rounds stdout differs between cache on and off"
    diff "$tmp/cache_on.out" "$tmp/cache_off.out" >&2 || true
    return 1
  fi
  echo "cache: --clean-rounds=$rounds stdout identical with the digest cache on and off"
}

fork_ramp="${FORK_RAMP_S:-20}"
fork_branches="${FORK_BRANCHES:-8}"
unforked() { "$race" "--ramp-s=$fork_ramp"; }
warm_forked() {
  "$race" "--ramp-s=$fork_ramp" "--branches=$fork_branches" --fork-prefix=1
}
gate_fork() { paired_ab fork "${FORK_PAIRS:-5}" 1.5 unforked warm_forked; }

fused_k="${FUSED_K:-8}"
fused_rounds="${FUSED_ROUNDS:-2000}"
# K separate processes one after another, each building its own kernel
# image and digest chains; each prints the same rows, and the last one's
# are compared.
sequential() {
  local i
  for i in $(seq 2 "$fused_k"); do
    "$detect" "--clean-rounds=$fused_rounds" --batch=1 >/dev/null || return
  done
  "$detect" "--clean-rounds=$fused_rounds" --batch=1
}
fused() { "$detect" "--clean-rounds=$fused_rounds" "--batch=$fused_k"; }
gate_fused() { paired_ab fused "${FUSED_PAIRS:-8}" 1.3 sequential fused; }

failed=0
for gate in "${gates[@]}"; do
  case $gate in
    alloc | cache | fork | fused) "gate_$gate" || failed=1 ;;
    *)
      echo "run_benches.sh: unknown gate '$gate' (want alloc|cache|fork|fused)" >&2
      exit 2
      ;;
  esac
done
exit "$failed"
