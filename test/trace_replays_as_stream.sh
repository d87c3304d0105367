#!/bin/sh
# A trace file written by `resa trace` replays exactly as the synthetic
# stream it was drawn from: `resa replay --swf` on the file and `resa
# replay` with the same arguments must write identical --trace and --csv
# files and print identical deterministic table columns (policy…util and
# max_live; the wall-clock columns differ run to run). Run from anywhere,
# with the path of the resa executable:
#
#   sh test/trace_replays_as_stream.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
args="-m 128 --max-runtime 2000 --mean-gap 150 --overestimate 2 --seed 4242"
det() { awk '{print $1,$2,$3,$4,$5,$6,$7,$8,$11}'; }
# shellcheck disable=SC2086
"$resa" trace -n 3000 $args > "$dir/t.swf"
"$resa" replay --swf "$dir/t.swf" -m 128 --trace "$dir/file.jsonl" --csv "$dir/file.csv" \
  | det > "$dir/file.txt"
# shellcheck disable=SC2086
"$resa" replay -n 3000 $args --trace "$dir/stream.jsonl" --csv "$dir/stream.csv" \
  | det > "$dir/stream.txt"
fail=0
for f in jsonl csv txt; do
  if ! cmp "$dir/file.$f" "$dir/stream.$f"; then
    echo "the trace file and the synthetic stream replay differently (.$f)"
    fail=1
  fi
done
exit $fail
