#!/usr/bin/env bash
# Prints the non-test, non-comment, non-blank Go line count of every
# internal/* package (sub-packages separately) and their total — the number
# ROADMAP quotes when it says how much of the code one package is — and,
# below the total and outside it, the same count for the root package, cmd/
# and examples/, and for the test files under internal/ ("tests", not
# gated). Exits 1 when the total exceeds scripts/loc.ceiling: growth has to
# raise that number in the same change, where a reviewer sees it.
# A line counts unless it is blank or starts with // (so a trailing comment
# after code still counts as code, and block comments, which the repo does
# not use, would count too).
set -euo pipefail
cd "$(dirname "$0")/.."

# lines FILE...: code lines of the given files.
lines() { cat "$@" | grep -cv '^\s*//\|^\s*$' || true; }

# count FIND_ARGS...: code lines of the non-test .go files find selects.
count() {
	local files
	files=$(find "$@" -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || return 1
	# shellcheck disable=SC2086
	lines $files
}

total=0
while IFS= read -r dir; do
	n=$(count "$dir" -maxdepth 1) || continue
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done < <(find ./internal -type d | sort)
printf '%6d  total\n' "$total"
printf '%6d  %s\n' "$(count . -maxdepth 1)" '(root package)' "$(count ./cmd)" cmd "$(count ./examples)" examples
# shellcheck disable=SC2046
printf '%6d  %s\n' "$(lines $(find ./internal -name '*_test.go' | sort))" tests

ceiling=$(<scripts/loc.ceiling)
if [ "$total" -gt "$ceiling" ]; then
	echo "loc.sh: total $total exceeds scripts/loc.ceiling ($ceiling)" >&2
	exit 1
fi
