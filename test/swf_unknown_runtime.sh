#!/bin/sh
# SWF rows whose runtime the archive does not know (run -1 or 0) replay
# for their requested time: `resa replay --csv` must report p = req_time
# for them, and the runtime itself for a row that has one. Run from
# anywhere, with the path of the resa executable:
#
#   sh test/swf_unknown_runtime.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
cat > "$dir/rows.swf" <<'ROWS'
; run -1, 0 and 50; req_time 70, 90 and 60
1 0 -1 -1 4 -1 -1 4 70 -1 1 1 1 1 1 1 -1 -1
2 5 -1 0 4 -1 -1 4 90 -1 1 1 1 1 1 1 -1 -1
3 9 -1 50 4 -1 -1 4 60 -1 1 1 1 1 1 1 -1 -1
ROWS
"$resa" replay --swf "$dir/rows.swf" -m 8 --policy fcfs --csv "$dir/rows.csv" > /dev/null
# job_number:p for each row, columns found by their header names.
got=$(awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) col[$i] = i; next }
  { printf "%s%s:%s", sep, $col["job_number"], $col["p"]; sep = " " }' "$dir/rows.csv")
want="1:70 2:90 3:50"
if [ "$got" != "$want" ]; then
  echo "job_number:p is '$got', expected '$want'"
  exit 1
fi
