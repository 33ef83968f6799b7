#!/bin/sh
# Fail on a library export that no program reads.
#
# Every `val` declared in lib/*/*.mli (the vals of a `module X : sig
# ... end` inside it included, as Module.X.name) must either be read
# by a program or be listed in ci/exports-allowlist with its reason.
# "Read by a program" means: some .ml under lib/, bin/, bench/,
# perfbench/ or examples/ that is not the module's own implementation
# names the module (the word `Module`) and the val (the word `name`),
# outside comments and string literals; a submodule's val must also
# have its submodule named there (the word `X` for Module.X.name). Tests do not count: an export
# that only a test reads is interface the programs do not need, so it
# is deleted, tested through the path the programs use, or allowlisted
# as an oracle, a test hook, a contract no other path can observe, or
# an export with a planned caller.
#
# The match is by words, not by resolved identifiers, so a val whose
# name a program uses for something else passes: the check errs toward
# passing. Literals are recognised as the OCaml lexer does, inside
# comments too, except quoted extension nodes ({%ext|...|}).
#
# Usage: ci/exports-read.sh [repo-root]   (default: the current directory)
set -eu

root=${1:-.}
cd "$root"
allow=ci/exports-allowlist
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# Print an OCaml file with its comments (nested) and string, quoted
# string ({|...|}, {id|...|id}) and character literals blanked out;
# newlines are kept.
strip() {
  awk '
    BEGIN { depth = 0; instr = 0; qend = "" }
    {
      line = $0; out = ""; n = length(line); i = 1
      while (i <= n) {
        c = substr(line, i, 1); c2 = substr(line, i, 2)
        if (qend != "") {
          j = index(substr(line, i), qend)
          if (j == 0) break
          i += j - 1 + length(qend); qend = ""; continue
        }
        if (instr) {
          if (c == "\\") { i += 2; continue }
          if (c == "\"") instr = 0
          i++; continue
        }
        if (c == "{" && match(substr(line, i), /^\{[a-z_]*\|/)) {
          qend = "|" substr(line, i + 1, RLENGTH - 2) "}"
          if (depth == 0) out = out " "
          i += RLENGTH; continue
        }
        if (c == "'\''" && substr(line, i + 2, 1) == "'\''") {
          if (depth == 0) out = out " "
          i += 3; continue
        }
        if (c2 == "'\''\\") {
          j = index(substr(line, i + 2), "'\''")
          if (j > 0) { if (depth == 0) out = out " "; i += j + 2; continue }
        }
        if (c2 == "(*") { depth++; i += 2; continue }
        if (depth > 0) {
          if (c2 == "*)") { depth--; i += 2; continue }
          if (c == "\"") instr = 1
          i++; continue
        }
        if (c == "\"") { instr = 1; out = out " "; i++; continue }
        out = out c; i++
      }
      print out
    }' "$1"
}

# The program sources, stripped once.
find lib bin bench perfbench examples -name '*.ml' | sort > "$tmp/sources"
while read -r f; do
  mkdir -p "$tmp/src/$(dirname "$f")"
  strip "$f" > "$tmp/src/$f"
done < "$tmp/sources"

# Allowlisted names: the first field of each non-comment line.
sed -e 's/#.*//' "$allow" | awk 'NF { print $1 }' > "$tmp/allowed"
awk '/^[^#]/ && NF == 1 { print "no reason: " $1 }' "$allow" > "$tmp/bare"
if [ -s "$tmp/bare" ]; then
  echo "ci/exports-allowlist: every entry needs a reason after its name:" >&2
  cat "$tmp/bare" >&2
  exit 1
fi

# Every export as "Module.name name" (a submodule's as
# "Module.Sub.name name"), with the files that may read it.
: > "$tmp/exports"
: > "$tmp/unread"
for mli in lib/*/*.mli; do
  base=$(basename "$mli" .mli)
  mod=$(printf '%s' "$base" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }')
  own="${mli%.mli}.ml"
  callers=
  while read -r f; do
    [ "$f" = "$own" ] && continue
    if grep -qw -- "$mod" "$tmp/src/$f"; then callers="$callers $tmp/src/$f"; fi
  done < "$tmp/sources"
  strip "$mli" | awk -v m="$mod" '
    {
      for (k = 1; k <= NF; k++) {
        w = $k
        if (w == "module" && $(k + 2) == ":" && $(k + 3) == "sig") { path[++d] = $(k + 1); k += 3; continue }
        if (w == "sig") { path[++d] = ""; continue }
        if (w == "end") { if (d > 0) d--; continue }
        if (w == "val" && k < NF) {
          name = $(k + 1); sub(/:.*/, "", name)
          q = m
          for (e = 1; e <= d; e++) if (path[e] != "") q = q "." path[e]
          print q "." name, name
        }
      }
    }' > "$tmp/vals"
  cat "$tmp/vals" >> "$tmp/exports"
  while read -r qname name; do
    grep -qxF -- "$qname" "$tmp/allowed" && continue
    # a submodule's val counts as read only where the submodule is
    # named as well
    readers=$callers
    for sub in $(printf '%s\n' "$qname" | awk -F. '{ for (i = 2; i < NF; i++) print $i }'); do
      kept=
      for f in $readers; do
        if grep -qw -- "$sub" "$f"; then kept="$kept $f"; fi
      done
      readers=$kept
    done
    # shellcheck disable=SC2086
    if [ -n "$readers" ] && grep -qw -- "$name" $readers; then continue; fi
    echo "$qname" >> "$tmp/unread"
  done < "$tmp/vals"
done

# An allowlist entry that names no export is stale.
awk '{ print $1 }' "$tmp/exports" | sort -u > "$tmp/qnames"
sort -u "$tmp/allowed" | comm -23 - "$tmp/qnames" > "$tmp/stale"
if [ -s "$tmp/stale" ]; then
  echo "$allow names exports that do not exist:" >&2
  sed 's/^/  /' "$tmp/stale" >&2
  exit 1
fi

if [ -s "$tmp/unread" ]; then
  echo "exports no program reads (delete them, test them through the public path, or add them to $allow with a reason):" >&2
  sed 's/^/  /' "$tmp/unread" >&2
  exit 1
fi
echo ok
