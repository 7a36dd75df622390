#!/usr/bin/env bash
# Fails when a name in a -run, -bench or -fuzz pattern of a `go test` command
# in the CI workflow matches nothing that `go test -list` reports for that
# command's packages, so a renamed or deleted test cannot silently drop out
# of the step that names it. Run from the repository root:
#
#   bash .github/check-test-names.sh [workflow.yml]
#
# A pattern is split at top-level `|`; each alternative is matched, as go
# test matches it, unanchored against the listed names (for a subtest
# pattern, only its top-level part). NONE, the "run no tests" idiom, and `.`
# are not names and are skipped.
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0

while IFS= read -r line; do
	cmd=${line#*go test }
	cmd=${cmd%%&&*}
	cmd=${cmd%%)*}
	cmd=${cmd%%>*}
	eval "set -- $cmd"
	pkgs=() patterns=()
	while (($#)); do
		case $1 in
		-run=* | -bench=* | -fuzz=*) patterns+=("${1#*=}") ;;
		-run | -bench | -fuzz) patterns+=("$2"); shift ;;
		-timeout | -count | -benchtime | -fuzztime | -cpu | -parallel | -p) shift ;;
		-*) ;;
		*) pkgs+=("$1") ;;
		esac
		shift
	done
	((${#patterns[@]})) || continue
	names=$(go test -list '.*' "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)
	for pattern in "${patterns[@]}"; do
		IFS='|' read -ra alts <<<"$pattern"
		for alt in "${alts[@]}"; do
			alt=${alt%%/*}
			case $alt in NONE | .) continue ;; esac
			if ! grep -qE -- "$alt" <<<"$names"; then
				echo "$workflow: '$alt' (go test ... ${pkgs[*]}) matches no test, benchmark or fuzz target" >&2
				failed=1
			fi
		done
	done
done < <(grep -E '^[[:space:]]*(run: )?\(?(cd [^)]*&& )?go test ' "$workflow")

exit $failed
