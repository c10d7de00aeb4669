#!/bin/sh
# Binary-format smoke for the @smoke alias: dump one app's traces in
# both formats, push the text dumps through `sherlock convert`
# round-trips, and check that
#   (a) text -> binary -> text reproduces each original trace byte for
#       byte, and
#   (b) `solve-trace` answers identically from the text dumps, the
#       binary dumps, and the converted files.
set -eu

cli=$1
# Dune passes the executable relative to the rule's directory; qualify a
# bare name so the shell does not search PATH for it.
case "$cli" in
*/*) ;;
*) cli="./$cli" ;;
esac
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT INT TERM

"$cli" run -a App-2 --rounds 1 --dump-trace "$d/text" --trace-format text \
  >/dev/null
"$cli" run -a App-2 --rounds 1 --dump-trace "$d/bin" --trace-format binary \
  >/dev/null

mkdir "$d/conv"
for t in "$d"/text/*.trace; do
  base=$(basename "$t" .trace)
  "$cli" convert "$t" "$d/conv/$base.btrace" >/dev/null
  "$cli" convert --to text "$d/conv/$base.btrace" "$d/conv/$base.trace" \
    >/dev/null
  if ! cmp -s "$t" "$d/conv/$base.trace"; then
    echo "smoke_convert: text->binary->text round-trip mismatch for $base" >&2
    exit 1
  fi
done

"$cli" solve-trace "$d"/text/*.trace >"$d/solve-text.out"
"$cli" solve-trace "$d"/bin/*.btrace >"$d/solve-bin.out"
"$cli" solve-trace "$d"/conv/*.btrace >"$d/solve-conv.out"
if ! cmp -s "$d/solve-text.out" "$d/solve-bin.out" \
  || ! cmp -s "$d/solve-text.out" "$d/solve-conv.out"; then
  echo "smoke_convert: solve-trace output differs between formats" >&2
  diff "$d/solve-text.out" "$d/solve-bin.out" >&2 || true
  exit 1
fi

n=$(ls "$d"/text/*.trace | wc -l | tr -d ' ')
echo "smoke_convert: $n traces round-tripped, solve-trace output identical"
