#!/bin/sh
# Lists values exported by a lib/**/*.mli whose name appears in no source
# file outside their own module: an unqualified, whole-word grep over lib/,
# bin/, bench/, benchmark/, test/ and examples/. A name shared by another
# module's value hides a dead export, so the list is a lower bound; read
# each hit before deleting it. Run from the repository root:
#
#   sh test/dead_exports.sh
set -eu
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  for name in $(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'\'']*\).*/\1/p' "$mli" | sort -u); do
    if ! grep -rlw --include='*.ml' --include='*.mli' -e "$name" lib bin bench benchmark test examples \
        | grep -vx -e "$mli" -e "$ml" >/dev/null; then
      echo "$mli: $name"
    fi
  done
done
