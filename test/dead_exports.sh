#!/bin/sh
# Lists values exported by a lib/**/*.mli that no source file outside their
# own module uses. A file uses [M.name] when its code (comments do not
# count) writes it qualified ([M.name], [Lib.M.name], [M.Sub.name]), or
# when it opens, includes, aliases or locally opens [M] ([open M],
# [let open M in], [include M], [module X = M], [M.( ... )]) and holds
# [name] as a word. The search covers lib/, bin/, bench/, benchmark/,
# test/ and examples/. Two modules of one name, or a name shared by another
# module's value in a file that opens both, can hide a dead export, so the
# list is a lower bound; read each hit before deleting it.
#
# A second list names the exports that only test/ uses ("only test/ calls
# it"), unless test/dead_exports.allow keeps them with a reason, and the
# allowlist entries that are no longer such exports ("stale allowlist
# entry"). Any output is a finding. Run from the repository root:
#
#   sh test/dead_exports.sh
set -eu
allow=$(pwd)/test/dead_exports.allow
id="[A-Z][A-Za-z0-9_']*"
files=$(find lib bin bench benchmark test examples -name '*.ml' -o -name '*.mli' | sort)
code=$(mktemp -d)
trap 'rm -rf "$code"' EXIT
# Copy every source with its comments blanked (nested comments, string,
# quoted-string and character literals respected), then search the copies.
for d in $(printf '%s\n' "$files" | sed 's|/[^/]*$||' | sort -u); do mkdir -p "$code/$d"; done
# shellcheck disable=SC2086 # [files] is a list of paths without spaces
awk -v code="$code" '
  FNR == 1 { if (dst != "") close(dst); dst = code "/" FILENAME; depth = 0; lit = "" }
  {
    out = ""
    n = length($0)
    for (i = 1; i <= n; i++) {
      c = substr($0, i, 1); c2 = substr($0, i, 2)
      if (depth > 0) {
        if (c2 == "(*") { depth++; i++ } else if (c2 == "*)") { depth--; i++ }
        continue
      }
      if (lit == "\"") {
        out = out c
        if (c == "\\") { out = out substr($0, i + 1, 1); i++ } else if (c == "\"") lit = ""
        continue
      }
      if (lit == "|}") {
        out = out c
        if (c2 == "|}") { out = out "}"; i++; lit = "" }
        continue
      }
      if (c2 == "(*") { depth = 1; i++; continue }
      if (substr($0, i, 3) == "\047\"\047") { out = out substr($0, i, 3); i += 2; continue }
      if (substr($0, i, 4) == "\047\\\"\047") { out = out substr($0, i, 4); i += 3; continue }
      if (c == "\"") lit = "\""
      else if (c2 == "{|") { lit = "|}"; out = out c2; i++; continue }
      out = out c
    }
    print out > dst
  }' $files
cd "$code"
kept=""
for mli in $(find lib -name '*.mli' | sort); do
  ml=${mli%i}
  module=$(basename "$mli" .mli | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  # shellcheck disable=SC2086
  named=$(grep -lw -e "$module" $files | grep -vx -e "$mli" -e "$ml" || true)
  opened=""
  if [ -n "$named" ]; then
    # shellcheck disable=SC2086
    opened=$(grep -lE \
      -e "(open!?|include)[[:space:]]+($id\.)*$module\b" \
      -e "module[[:space:]]+$id[[:space:]]*=[[:space:]]*($id\.)*$module\b" \
      -e "\b$module\.[[:space:]]*([[({]|$)" $named || true)
  fi
  for name in $(sed -n 's/^[[:space:]]*val[[:space:]]\{1,\}\([a-z_][A-Za-z0-9_'\'']*\).*/\1/p' "$mli" | sort -u); do
    users=""
    if [ -n "$named" ]; then
      # shellcheck disable=SC2086
      users=$( (grep -lwE -e "$module\.($id\.)*$name" $named || true
        [ -z "$opened" ] || grep -lw -e "$name" $opened || true) | sort -u)
    fi
    if [ -z "$users" ]; then
      echo "$mli: $name"
    elif ! printf '%s\n' "$users" | grep -qv '^test/'; then
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
    echo "test/dead_exports.allow: $mli $name (stale allowlist entry)"
  fi
done
