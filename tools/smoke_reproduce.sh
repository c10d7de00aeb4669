#!/bin/sh
# Marker-error smoke for the @smoke alias: `reproduce.exe --splice` on a
# document with an unknown block name, an unclosed block, or a nested
# marker must exit 2 with a "EXPERIMENTS.md:LINE: " message.
set -eu

exe=$1
case "$exe" in
*/*) ;;
*) exe="./$exe" ;;
esac
exe=$(cd "$(dirname "$exe")" && pwd)/$(basename "$exe")
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT INT TERM
cd "$d"

expect() {
  line=$1
  printf '%b' "$2" >EXPERIMENTS.md
  status=0
  "$exe" --splice EXPERIMENTS.md >/dev/null 2>err || status=$?
  if [ "$status" -ne 2 ] || ! grep -q "^EXPERIMENTS.md:$line: " err; then
    echo "smoke_reproduce: expected exit 2 at line $line, got $status: $(cat err)" >&2
    exit 1
  fi
}

expect 2 'prose\n<!-- reproduce:no_such_table -->\n<!-- /reproduce -->\n'
expect 3 'a\nb\n<!-- reproduce:table1 -->\nnever closed\n'
expect 3 '<!-- reproduce:table1 -->\n\n<!-- reproduce:table1 -->\n<!-- /reproduce -->\n'
echo "smoke_reproduce: ok"
