#!/usr/bin/env bash
# Prints the non-test, non-comment, non-blank Go line count of every
# internal/* package (sub-packages separately) and their total — the number
# ROADMAP quotes when it says how much of the code one package is.
# A line counts unless it is blank or starts with // (so a trailing comment
# after code still counts as code, and block comments, which the repo does
# not use, would count too).
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
while IFS= read -r dir; do
	files=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' | sort)
	[ -n "$files" ] || continue
	# shellcheck disable=SC2086
	n=$(cat $files | grep -cv '^\s*//\|^\s*$' || true)
	printf '%6d  %s\n' "$n" "${dir#./}"
	total=$((total + n))
done < <(find ./internal -type d | sort)
printf '%6d  total\n' "$total"
