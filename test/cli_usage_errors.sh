#!/bin/sh
# Bad argument values are usage errors: `error: <message>` on stderr and
# exit 2, not an uncaught exception (cmdliner's 125). Run from anywhere,
# with the path of the resa executable:
#
#   sh test/cli_usage_errors.sh _build/default/bin/resa.exe
set -eu
resa=$1
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
fail=0
# expect_usage_error MESSAGE ARGS...: resa ARGS must exit 2 with
# "error: MESSAGE" as the last line of its stderr.
expect_usage_error() {
  want="error: $1"
  shift
  set +e
  "$resa" "$@" > /dev/null 2> "$dir/err"
  code=$?
  set -e
  got=$(tail -n 1 "$dir/err")
  if [ "$code" -ne 2 ] || [ "$got" != "$want" ]; then
    echo "resa $*: exit $code, stderr '$got'; expected exit 2, '$want'"
    fail=1
  fi
}
expect_usage_error "Swf_stream.synthetic: overestimate must be >= 1.0" trace --overestimate 0.5
expect_usage_error "Swf_stream.synthetic: overestimate must be >= 1.0" \
  replay -n 10 --overestimate 0.5
expect_usage_error "Swf_stream.synthetic: mean_gap must be positive" replay -n 10 --mean-gap 0
expect_usage_error "Swf_stream.synthetic: m must be positive" replay -n 10 -m 0
expect_usage_error "$dir/missing.swf: No such file or directory" \
  replay --swf "$dir/missing.swf" -m 8
exit $fail
