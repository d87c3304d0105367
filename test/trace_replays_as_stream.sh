#!/bin/sh
# A trace file written by `resa trace` replays exactly as the synthetic
# stream it was drawn from: `resa replay --swf` on the file and `resa
# replay` with the same arguments must write identical --trace and --csv
# files and print identical deterministic table columns (policy…util and
# max_live; the wall-clock columns differ run to run). The two commands
# share their defaults, so the case without arguments needs none on
# either side. Run from anywhere, with the path of the resa executable:
#
#   sh test/trace_replays_as_stream.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
det() { awk '{print $1,$2,$3,$4,$5,$6,$7,$8,$11}'; }
fail=0
# same NAME FILE_ARGS -- ARGS...: `trace ARGS` replayed with `replay --swf
# FILE FILE_ARGS` must equal `replay ARGS`.
same() {
  name=$1
  file_args=$2
  shift 3
  "$resa" trace "$@" > "$dir/t.swf"
  # shellcheck disable=SC2086
  "$resa" replay --swf "$dir/t.swf" $file_args --trace "$dir/file.jsonl" \
    --csv "$dir/file.csv" | det > "$dir/file.txt"
  "$resa" replay "$@" --trace "$dir/stream.jsonl" --csv "$dir/stream.csv" \
    | det > "$dir/stream.txt"
  for f in jsonl csv txt; do
    if ! cmp "$dir/file.$f" "$dir/stream.$f"; then
      echo "$name: the trace file and the synthetic stream replay differently (.$f)"
      fail=1
    fi
  done
}
same "explicit arguments" "-m 128" -- -n 3000 -m 128 --max-runtime 2000 --mean-gap 150 \
  --overestimate 2 --seed 4242
same "defaults" "" -- --seed 5 -n 300
exit $fail
