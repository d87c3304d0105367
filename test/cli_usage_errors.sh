#!/bin/sh
# Bad argument values are usage errors: nothing on stdout, `error:
# <message>` on stderr and exit 2, not an uncaught exception (cmdliner's
# 125) or a table header followed by the error. Run from anywhere, with
# the path of the resa executable:
#
#   sh test/cli_usage_errors.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0
# expect_usage_error MESSAGE ARGS...: resa ARGS must exit 2 with an empty
# stdout and "error: MESSAGE" as the last line of its stderr.
expect_usage_error() {
  want="error: $1"
  shift
  set +e
  "$resa" "$@" > "$dir/out" 2> "$dir/err"
  code=$?
  set -e
  got=$(tail -n 1 "$dir/err")
  if [ "$code" -ne 2 ] || [ "$got" != "$want" ]; then
    echo "resa $*: exit $code, stderr '$got'; expected exit 2, '$want'"
    fail=1
  fi
  if [ -s "$dir/out" ]; then
    echo "resa $*: wrote to stdout before its usage error:"
    cat "$dir/out"
    fail=1
  fi
}
"$resa" generate random > "$dir/inst.txt"
: > "$dir/empty.swf"
# A good first line, then one with 2 of the 18 fields: the replay finds
# the error only when it reaches the second line.
printf '1 0 0 10 1 -1 -1 1 10 -1 1 -1 -1 -1 -1 -1 -1 -1\n2 5\n' > "$dir/short.swf"
expect_usage_error "Swf_stream.synthetic: overestimate must be >= 1.0" trace --overestimate 0.5
expect_usage_error "Swf_stream.synthetic: overestimate must be >= 1.0" \
  replay -n 10 --overestimate 0.5
expect_usage_error "Swf_stream.synthetic: mean_gap must be positive" replay -n 10 --mean-gap 0
expect_usage_error "Swf_stream.synthetic: m must be positive" replay -n 10 -m 0
expect_usage_error "Instance.create: m must be >= 1" replay --swf "$dir/empty.swf" -m 0
expect_usage_error "$dir/missing.swf: No such file or directory" \
  replay --swf "$dir/missing.swf" -m 8
expect_usage_error "unknown policy \"foo\"" replay -n 10 --policy foo
expect_usage_error "line 2: expected 18 fields, found 2" replay --swf "$dir/short.swf" -m 8
expect_usage_error "unknown algorithm \"foo\"" solve "$dir/inst.txt" -a foo
expect_usage_error "unknown priority \"foo\"" solve "$dir/inst.txt" -p foo
exit $fail
