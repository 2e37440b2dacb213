#!/usr/bin/env bash
# Fails when README.md or docs/ reference repo files that do not exist, or
# code members that are declared nowhere.
#
# Three kinds of references are checked, from the repository root:
#   - markdown links with a relative target:          [text](docs/foo.md)
#   - backticked repo paths under a known top-level:  `src/pec/exposure.h`
#   - backticked members:                             `PecOptions::tolerance`
# External links (scheme://...) and anchors are ignored. Backticked paths
# may carry a trailing ":line" or be a directory. A member passes when some
# file under src/ or tools/ that declares the type (struct, class, enum or
# namespace of that name) declares the member outside a comment line: the
# name followed by one of = ; ( { [ , after optional spaces. `std::` names
# are skipped.
set -u
cd "$(dirname "$0")/.."

fail=0

# check <doc> <ref> [relative-to-doc]
# Markdown link targets resolve relative to the containing document;
# backticked repo paths are always relative to the repository root.
check() {
  local doc="$1" ref="$2" rel="${3:-}"
  # Strip anchors and trailing :line suffixes.
  local path="${ref%%#*}"
  path="${path%%:*}"
  [ -z "$path" ] && return
  if [ -n "$rel" ] && [ "${path#/}" = "$path" ]; then
    path="$(dirname "$doc")/$path"
  fi
  if [ ! -e "$path" ]; then
    echo "BROKEN: $doc -> $ref"
    fail=1
  fi
}

docs=$(ls README.md 2>/dev/null; find docs -name '*.md' 2>/dev/null)
if [ -z "$docs" ]; then
  echo "no documentation files found"
  exit 1
fi

for doc in $docs; do
  # Markdown links: capture the (target), keep only relative file targets.
  while IFS= read -r ref; do
    case "$ref" in
      *://*|mailto:*|\#*) continue ;;
    esac
    check "$doc" "$ref" doc-relative
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//')

  # Backticked repo paths: `src/...`, `docs/...`, etc. (must contain a /).
  while IFS= read -r ref; do
    check "$doc" "$ref"
  done < <(grep -oE '`(src|docs|examples|tests|bench|scripts|tools|\.github)/[^`]+`' "$doc" \
           | tr -d '`')
done

# check_member <doc> <Type::member...>
check_member() {
  local doc="$1" type="${2%%::*}" member="${2#*::}"
  member="${member%%[!A-Za-z0-9_]*}"
  [ "$type" = std ] && return
  local files
  files=$(grep -rlE "\b(struct|class|enum|namespace)[[:space:]]+$type\b" src tools)
  if [ -z "$files" ] ||
     ! grep -hvE '^[[:space:]]*//' $files |
       grep -qE "\b$member\b[[:space:]]*[=;({[,]"; then
    echo "UNDECLARED: $doc -> $type::$member"
    fail=1
  fi
}

for doc in $docs; do
  while IFS= read -r ref; do
    check_member "$doc" "$ref"
  done < <(grep -oE '`[A-Za-z_][A-Za-z0-9_]*::[A-Za-z_][A-Za-z0-9_]*' "$doc" \
           | tr -d '`' | sort -u)
done

if [ "$fail" -ne 0 ]; then
  echo "doc link check FAILED"
  exit 1
fi
echo "doc link check OK"
