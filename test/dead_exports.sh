#!/bin/sh
# Lists values exported by a lib/**/*.mli whose name appears in no source
# file outside their own module that also names the module: a whole-word
# grep over lib/, bin/, bench/, benchmark/, test/ and examples/, where a
# hit counts only in a file holding the module's name as a word too. A
# module reached only through an alias, or a name shared by another
# module's value in a file that names both, hides a dead export, so the
# list is a lower bound; read each hit before deleting it.
#
# A second list names the exports that only test/ uses ("only test/ calls
# it"), unless test/dead_exports.allow keeps them with a reason, and the
# allowlist entries that are no longer such exports ("stale allowlist
# entry"). Any output is a finding. Run from the repository root:
#
#   sh test/dead_exports.sh
set -eu
allow=test/dead_exports.allow
kept=""
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  module=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$module" lib bin bench benchmark test examples \
    | grep -vx -e "$mli" -e "$ml" || true)
  outside_test=$(printf '%s\n' "$users" | grep -v '^test/' || true)
  for name in $(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'\'']*\).*/\1/p' "$mli" | sort -u); do
    # shellcheck disable=SC2086 # [users] is a list of paths without spaces
    if [ -z "$users" ] || ! grep -lw -e "$name" $users >/dev/null; then
      echo "$mli: $name"
    elif [ -z "$outside_test" ] || ! grep -lw -e "$name" $outside_test >/dev/null; then
      if grep -q "^$mli: $name " "$allow"; then
        kept="$kept$mli: $name
"
      else
        echo "$mli: $name (only test/ calls it)"
      fi
    fi
  done
done
grep -v -e '^#' -e '^$' "$allow" | while read -r mli name _; do
  if ! printf '%s' "$kept" | grep -qxF "$mli $name"; then
    echo "$allow: $mli $name (stale allowlist entry)"
  fi
done
