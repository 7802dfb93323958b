#!/usr/bin/env bash
# Mode matrix: every runtime knob that must be invisible in results, run
# once and compared against its oracle run.
#
#   scripts/mode_matrix.sh <build-dir> [work-dir]
#
# <build-dir> must hold bench_satin_detection, bench_race_analysis,
# quickstart, fault_storm, satin_campaign and satin_flightool (a Release
# build keeps the detection runs to about a minute each). Outputs land in
# [work-dir] (default: a fresh mktemp dir). Exits 0 when every row holds.
#
# Four tables:
#  * runs — each records stdout (<tag>.out), a --metrics-stable snapshot
#    (<tag>.met.json) and a flight recording (<tag>.flt);
#  * identities — a mode against its oracle, per artifact: `out` and
#    `met` must be byte-identical, `jsonl` compares the JSONL trace twin,
#    `flt` needs satin_flightool diff to report zero divergence (its
#    chain hash folds every engine commit, ring mode included);
#  * negative controls — runs that MUST diverge: satin_flightool diff
#    exits 1 and locates the first divergent record, which proves the
#    auditor tells streams apart rather than agreeing with itself;
#  * refusals — flags a program does not read, out-of-range values and
#    dead spec keys must exit 2 with a diagnostic naming them.
set -uo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 <build-dir> [work-dir]" >&2
  exit 2
fi
build=$(cd "$1" && pwd) || exit 2
work=${2:-$(mktemp -d "${TMPDIR:-/tmp}/mode-matrix.XXXXXX")}
mkdir -p "$work"

det=$build/bench/bench_satin_detection
race=$build/bench/bench_race_analysis
quick=$build/examples/quickstart
storm=$build/examples/fault_storm
campaign=$build/tools/satin_campaign
flightool=$build/tools/satin_flightool

failures=0
identities=0
controls=0
refusals=0
fail() {
  echo "FAIL: $*" >&2
  failures=$((failures + 1))
}

# run <tag> <flight-suffix> <command...>
run() {
  local tag=$1 suffix=$2
  shift 2
  echo "== $tag: ${*#"$build/"}"
  "$@" --metrics="$work/$tag.met.json" --metrics-stable \
    --flight="$work/$tag.flt$suffix" >"$work/$tag.out" ||
    fail "$tag exited $?"
}

# same <oracle> <mode> <artifact...>
same() {
  local a=$1 b=$2 what
  shift 2
  for what in "$@"; do
    identities=$((identities + 1))
    case $what in
      out) cmp "$work/$a.out" "$work/$b.out" ;;
      met) cmp "$work/$a.met.json" "$work/$b.met.json" ;;
      jsonl) cmp "$work/$a.trace.json.jsonl" "$work/$b.trace.json.jsonl" ;;
      flt) "$flightool" diff "$work/$a.flt" "$work/$b.flt" >/dev/null ;;
    esac || fail "$b differs from $a in $what"
  done
}

# diverges <run> <perturbed-run>
diverges() {
  local a=$1 b=$2 rc=0
  controls=$((controls + 1))
  "$flightool" diff "$work/$a.flt" "$work/$b.flt" >"$work/$a-vs-$b.diff" ||
    rc=$?
  if [ "$rc" -ne 1 ] ||
    ! grep -q 'first divergence at record' "$work/$a-vs-$b.diff"; then
    fail "$b does not diverge from $a (satin_flightool diff exit $rc)"
  fi
}

# refuses <diagnostic> <command...>
refuses() {
  local pattern=$1 rc=0
  shift
  refusals=$((refusals + 1))
  "$@" >/dev/null 2>"$work/refusal.err" || rc=$?
  if [ "$rc" -ne 2 ] || ! grep -qF -- "$pattern" "$work/refusal.err"; then
    fail "expected exit 2 naming '$pattern', got exit $rc: ${*#"$build/"}"
  fi
}

ring=,ring=65536
storm_plan='bitflip@10s+60s:p=0.2'

# ---- runs ------------------------------------------------------------
# The default invocations are the oracles: one worker (--jobs=1),
# unforked, digest cache on, one --clean-rounds replica.
run det           "$ring" "$det"
run det_jobs8     "$ring" "$det" --jobs=8
run clean_on      ""      "$det" --clean-rounds=400 --digest-cache=on \
  --trace="$work/clean_on.trace.json"
run clean_off     ""      "$det" --clean-rounds=400 --digest-cache=off \
  --trace="$work/clean_off.trace.json"
run clean_b8      ""      "$det" --clean-rounds=400 --batch=8
run quick_on      ""      "$quick" --digest-cache=on
run quick_off     ""      "$quick" --digest-cache=off
run race          ""      "$race"
run race_b3       ""      "$race" --branches=3
run race_b8       ""      "$race" --branches=8
run race_j2       ""      "$race" --jobs=2
run race_ramp1    ""      "$race" --ramp-s=1
run storm_base    ""      "$storm" --faults="seed=9,$storm_plan"
run storm_pert    ""      "$storm" --faults="seed=10,$storm_plan"

# ---- identities --------------------------------------------------------
#    oracle    mode           artifacts
same det       det_jobs8      out met flt   # thread pool
same clean_on  clean_off      out jsonl met flt  # digest cache off
same clean_on  clean_b8       out           # 8 replicas on one worker
same quick_on  quick_off      out met            # digest cache off
same race      race_b3        out met flt   # zero-prefix fork children
same race      race_b8        out met flt
same race      race_j2        out met flt   # one worker context vs two
grep -q '"digest_cache.hits": [1-9]' "$work/clean_on.met.json" ||
  fail "clean_on: the digest cache never hit"

# ---- negative controls -------------------------------------------------
diverges race       race_ramp1   # idle ramp: same verdicts, new schedule
diverges storm_base storm_pert   # perturbed fault plan

# ---- refusals ------------------------------------------------------------
cat >"$work/spec.json" <<'SPEC'
{
  "name": "mode-matrix",
  "trials": 2,
  "satin": {"tgoal_s": 12.0},
  "duel": {"rounds_target": 12}
}
SPEC
for key in branches shard; do
  sed "s/\"trials\": 2,/\"trials\": 2, \"$key\": 2,/" "$work/spec.json" \
    >"$work/spec_$key.json"
  refuses "unknown key \"$key\"" "$campaign" run "$work/spec_$key.json" \
    --journal="$work/spec_$key.journal"
done
for flag in --branches=2 --fork-prefix=5 --batch=4 --shard=2 \
  --faults=seed=9; do
  refuses "$flag" "$campaign" run "$work/spec.json" \
    --journal="$work/refused.journal" "$flag"
done
refuses "--faults=seed=9" "$race" --faults=seed=9
# Each bench and example reads only its own flags and names any other
# argument; the detection duel and the race bench's spot duels take no
# --batch (the thread pool is their only in-process runner).
refuses "--bogus=1" "$quick" --bogus=1
for flag in --batch=8 --branches=3 --fork-prefix=100; do
  refuses "$flag" "$det" "$flag"
done
refuses "--batch=0" "$det" --clean-rounds=10 --batch=0
for flag in --branch=3 --batch=0 --batch=4 --branches=0 --fork-prefix=-1 \
  --jobs=-3; do
  refuses "$flag" "$race" "$flag"
done

echo "mode matrix: $identities identities, $controls negative controls," \
  "$refusals refusals; $failures failed (outputs in $work)"
[ "$failures" -eq 0 ]
