#!/usr/bin/env bash
# Checks that README.md names only what the repository has, and that the code
# cites only README sections that exist. Prints each miss and exits 1 when
#   - an inline code span of README.md without spaces (a name such as
#     `Tracker`, `stream.FixedAssigner` or `OneWayReports()`, a flag such as
#     `-probe`) holds an identifier that no .go or .sh file of the repository
#     contains as a word;
#   - a Test, Benchmark or Fuzz name anywhere in README.md is in no .go or
#     .sh file;
#   - a repository path README.md cites (`internal/serve/decode.go`,
#     `./cmd/bnmle`, `internal/counter/testdata/bank_v1_*.bin`; in a code
#     span or in a fenced block) does not exist;
#   - a Go comment or string, or a note of a golden file, cites a README
#     section ("see README, Reproducing the paper", "the README's
#     Aggregation tree section") that README.md has no heading for.
# Run from anywhere: scripts/docnames.sh
set -euo pipefail
cd "$(dirname "$0")/.."

words=$(mktemp)
trap 'rm -f "$words"' EXIT
find . -path ./.git -prune -o -type f \( -name '*.go' -o -name '*.sh' \) -print0 |
	xargs -0 grep -ohE '[A-Za-z_][A-Za-z0-9_]*' | sort -u >"$words"

fail=0
miss() {
	echo "docnames: $*" >&2
	fail=1
}
has_word() { grep -qxF "$1" "$words"; }

# exists PATH: PATH (relative to the root, a leading ./ and a :line suffix
# allowed, * as a glob, ./... as a package pattern) names a file or
# directory of the repository, or one that building or running leaves
# behind (.gitignore lists it).
exists() {
	local p=${1#./}
	p=${p%%:*}
	p=${p%...}
	p=${p%/}
	[ -n "$p" ] || return 0
	git check-ignore -q --no-index "$p" 2>/dev/null && return 0
	compgen -G "$p" >/dev/null
}

# is_path SPAN: SPAN is meant as a repository path.
is_path() {
	[[ $1 =~ ^(\./)?(internal|cmd|examples|scripts|benchmarks|docs|\.github)(/|$) ]] ||
		[[ $1 =~ ^(\./)?[A-Za-z0-9_.*-]+\.(go|sh|json|txt|md|golden|yml|bin)(:[0-9]+)?$ ]]
}

# README.md's inline code spans (outside fenced blocks; a span may wrap a
# line), one per line, and the ./paths of its fenced blocks.
spans=$(perl -0777 -ne 's/^```.*?^```//gms; while (/`([^`]+)`/g) { ($s = $1) =~ s/\s+/ /g; print "$s\n" }' README.md)
fenced=$(perl -0777 -ne 'while (/^```[^\n]*\n(.*?)^```/gms) { print "$1\n" }' README.md |
	grep -oE '(^|[[:space:](])\./[A-Za-z0-9_./*-]+' | sed 's/^[[:space:](]*//' || true)

while IFS= read -r s; do
	[ -n "$s" ] || continue
	if [[ $s == *' '* ]]; then
		for tok in $s; do
			if [[ $tok == ./* ]] && is_path "$tok" && ! exists "$tok"; then
				miss "README.md: \`$s\`: no path $tok"
			fi
		done
		continue
	fi
	if is_path "$s"; then
		exists "$s" || miss "README.md: no path \`$s\`"
		continue
	fi
	# A commit id is not a code name; an identifier beside a * is a pattern.
	[[ $s =~ ^[0-9a-f]{7,40}$ ]] && continue
	for id in $(perl -ne 'print "$1\n" while /(?<![*\w])([A-Za-z_]\w*)(?![*\w])/g' <<<"$s"); do
		has_word "$id" || miss "README.md: \`$s\`: no .go or .sh file has $id"
	done
done <<<"$spans"

for p in $fenced; do
	exists "$p" || miss "README.md: code block: no path $p"
done

for id in $(grep -oE '\b(Test|Benchmark|Fuzz)[A-Z][A-Za-z0-9_]*' README.md | sort -u); do
	has_word "$id" || miss "README.md: no .go or .sh file has $id"
done

# README sections cited from Go files and golden notes. Comment markers are
# joined away first, so a citation may wrap a line.
headings=$(sed -n 's/^#\{1,6\} //p' README.md)
while IFS=$'\t' read -r file section; do
	[ -n "$file" ] || continue
	grep -qxF "$section" <<<"$headings" || miss "$file cites README section \"$section\", which has no heading"
done < <(find . -path ./.git -prune -o -type f \( -name '*.go' -o -name '*.golden' \) -print0 |
	xargs -0 perl -0777 -ne '
		s/\n[ \t]*\/\/[ \t]*/ /g;
		while (/README, ([A-Z][^).,;"\n]*)/g) { print "$ARGV\t$1\n" }
		while (/README.s ([A-Z][^).,;"\n]*?) section/g) { print "$ARGV\t$1\n" }')

exit "$fail"
