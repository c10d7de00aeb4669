#!/bin/sh
# Metrics-plane smoke for the @smoke alias: run one app with
# --metrics-out/--log-out, then check that
#   (a) the OpenMetrics file parses under the strict parser (`stats
#       --from` fails on any malformed exposition) and carries the
#       expected counter / gauge / histogram families,
#   (b) the structured log is one JSON object per line and contains the
#       per-round orchestrator events, and
#   (c) `sherlock stats` renders a console summary both from the file
#       and live, and
#   (d) the section headers of README's `stats --from` example equal
#       those `stats --from` prints for the command README documents, and
#   (e) a 2-round `run --telemetry-out` file holds one counter-snapshot
#       instant per round, labelled "round 1" and "round 2", and
#   (f) that run's registry summary (`run -v`) and live `stats` of the
#       same inference print the same lp.pivots p50/p95.
set -eu

cli=$1
readme=$2
# Dune passes the executable relative to the rule's directory; qualify a
# bare name so the shell does not search PATH for it.
case "$cli" in
*/*) ;;
*) cli="./$cli" ;;
esac
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT INT TERM

"$cli" run -a App-2 --rounds 2 --metrics-out "$d/metrics.om" \
  --log-out "$d/run.jsonl" >/dev/null

# --- OpenMetrics exposition ---
test -s "$d/metrics.om" || {
  echo "smoke_stats: metrics file missing or empty" >&2
  exit 1
}
grep -q '^# EOF$' "$d/metrics.om" || {
  echo "smoke_stats: metrics file lacks the # EOF terminator" >&2
  exit 1
}
for family in \
  sherlock_snapshot_timestamp_seconds \
  sherlock_gc_heap_words \
  sherlock_windows_events_total \
  sherlock_lp_solves_total \
  sherlock_span_run_cpu_us_count; do
  grep -q "^$family " "$d/metrics.om" || {
    echo "smoke_stats: expected family $family missing from exposition" >&2
    exit 1
  }
done
grep -q '_bucket{le="+Inf"}' "$d/metrics.om" || {
  echo "smoke_stats: no histogram buckets in exposition" >&2
  exit 1
}

# --- structured log ---
test -s "$d/run.jsonl" || {
  echo "smoke_stats: structured log missing or empty" >&2
  exit 1
}
bad=$(grep -cv '^{.*}$' "$d/run.jsonl" || true)
if [ "$bad" -ne 0 ]; then
  echo "smoke_stats: $bad log lines are not single JSON objects" >&2
  exit 1
fi
grep -q '"event":"orch.round"' "$d/run.jsonl" || {
  echo "smoke_stats: no orch.round events in the structured log" >&2
  exit 1
}

# --- stats console ---
"$cli" stats --from "$d/metrics.om" >"$d/stats-file.out"
grep -q "lp" "$d/stats-file.out" || {
  echo "smoke_stats: stats --from rendered no LP section" >&2
  exit 1
}
grep -Eq "cold restarts +[0-9]+ residual, [0-9]+ dual repair, [0-9]+ pivot cap" \
  "$d/stats-file.out" || {
  echo "smoke_stats: stats --from rendered no cold restarts by cause" >&2
  exit 1
}
"$cli" stats -a App-2 --rounds 2 >"$d/stats-live.out"
grep -q "pipeline" "$d/stats-live.out" || {
  echo "smoke_stats: live stats rendered no pipeline section" >&2
  exit 1
}
grep -Eq "interned +[0-9]+ distinct ops" "$d/stats-live.out" || {
  echo "smoke_stats: live stats rendered no interned-op count" >&2
  exit 1
}

# --- README example ---
# Section headers are the lines indented by exactly two spaces.
headers() { grep -E '^  [^ ]' | sed 's/^  //'; }
awk '/^\$ sherlock stats --from \/tmp\/m.om$/ { on = 1; next }
     on && /^```/ { exit }
     on' "$readme" | headers >"$d/readme-headers"
test -s "$d/readme-headers" || {
  echo "smoke_stats: no stats --from example found in $readme" >&2
  exit 1
}
"$cli" run -a App-2 --metrics-out "$d/readme.om" >/dev/null
"$cli" stats --from "$d/readme.om" | headers >"$d/actual-headers"
if ! diff "$d/readme-headers" "$d/actual-headers" >&2; then
  echo "smoke_stats: README's stats example has other sections than stats --from prints (< README, > actual)" >&2
  exit 1
fi

# --- per-round snapshot points in the span export ---
# One event per line, name first; a run export's only instants are the
# snapshot points.
"$cli" run -a App-2 --rounds 2 --telemetry-out "$d/spans.json" >/dev/null
points=$(grep '"ph":"i"' "$d/spans.json" | sed 's/^{"name":"\([^"]*\)".*/\1/' | tr '\n' ,)
[ "$points" = "round 1,round 2," ] || {
  echo "smoke_stats: --telemetry-out holds snapshot points '$points', not one per round" >&2
  exit 1
}

# --- one percentile for the registry summary and the stats console ---
"$cli" run -a App-2 --rounds 2 -v --telemetry-out "$d/spans-v.json" |
  sed -n 's/^ *lp\.pivots  *n=.* \(p50<=[0-9]*\) \(p95<=[0-9]*\) .*$/\1 \2/p' >"$d/pct-summary"
sed -n 's/^ *pivots .* per solve \(p50<=[0-9]*\) \(p95<=[0-9]*\)$/\1 \2/p' \
  "$d/stats-live.out" >"$d/pct-stats"
test -s "$d/pct-summary" && test -s "$d/pct-stats" || {
  echo "smoke_stats: no lp.pivots percentiles in run -v or live stats" >&2
  exit 1
}
if ! diff "$d/pct-summary" "$d/pct-stats" >&2; then
  echo "smoke_stats: run -v and stats print different lp.pivots percentiles (< run -v, > stats)" >&2
  exit 1
fi

lines=$(wc -l <"$d/run.jsonl" | tr -d ' ')
families=$(grep -c '^# TYPE ' "$d/metrics.om" | tr -d ' ')
echo "smoke_stats: $families metric families exported, $lines structured log lines, stats rendered from file and live"
