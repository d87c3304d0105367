#!/bin/sh
# Lists values exported by a lib/**/*.mli whose name appears in no source
# file outside their own module that also names the module: a whole-word
# grep over lib/, bin/, bench/, benchmark/, test/ and examples/, where a
# hit counts only in a file holding the module's name as a word too. A
# module reached only through an alias, or a name shared by another
# module's value in a file that names both, hides a dead export, so the
# list is a lower bound; read each hit before deleting it. Run from the
# repository root:
#
#   sh test/dead_exports.sh
set -eu
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  module=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  users=$(grep -rlw --include='*.ml' --include='*.mli' -e "$module" lib bin bench benchmark test examples \
    | grep -vx -e "$mli" -e "$ml" || true)
  for name in $(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'\'']*\).*/\1/p' "$mli" | sort -u); do
    # shellcheck disable=SC2086 # [users] is a list of paths without spaces
    if [ -z "$users" ] || ! grep -lw -e "$name" $users >/dev/null; then
      echo "$mli: $name"
    fi
  done
done
