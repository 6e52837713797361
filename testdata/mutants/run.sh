#!/usr/bin/env bash
# Proves that each check can fail. Every testdata/mutants/<name>.patch
# plants one defect; its header names the one check that must see it:
#
#   # check: go test -count=1 -run '^TestName$' ./pkg
#   # check: go run ./cmd/countsim [-cluster] -seeds N
#   # catches: <extended regexp the failing check must print>
#
# Each patch is applied to a git archive of HEAD under .mutants/<name>
# and its check is run there. A mutant is caught when the check fails
# and prints its catches line; for a countsim check, its first catching
# seed must also replay byte for byte (two -trace runs, cmp). A digest or
# golden test may not be a check: it goes red on any change at all.
#
# Prints one table (mutant, check, verdict, first catching seed or test,
# catches/seeds) and exits non-zero unless every verdict is "caught":
# "survived", "does not apply" (or no longer builds), "replay differs"
# and "bad header" all fail.
#
# Usage: make mutants    (bash testdata/mutants/run.sh from the repo root)
set -u

test_re="^go test -count=1 -run '\^(Test[A-Za-z0-9_]+)\\$' \./[A-Za-z0-9_/]+$"
sim_re='^go run \./cmd/countsim( -cluster)? -seeds [0-9]+$'
golden_re='^(TestReplayByteIdentical|TestClusterTraceDeterminism|TestCostGolden)$'

row() { printf '%-17s %-84s %-15s %-37s %s\n' "$@"; }

status=0
row mutant check verdict first catches
for patch in testdata/mutants/*.patch; do
	name=$(basename "$patch" .patch)
	check=$(sed -n 's/^# check: //p' "$patch")
	catches=$(sed -n 's/^# catches: //p' "$patch")
	dir=.mutants/$name out=.mutants/$name.out
	verdict=caught first=- count=-

	if [[ $check =~ $test_re ]]; then
		[[ ${BASH_REMATCH[1]} =~ $golden_re ]] && verdict="bad header"
	elif ! [[ $check =~ $sim_re ]]; then
		verdict="bad header"
	fi
	[[ -z $catches ]] && verdict="bad header"

	rm -rf "$dir" "$out" "$dir".trace-*
	if [[ $verdict == caught ]]; then
		mkdir -p "$dir"
		git archive HEAD | tar -x -C "$dir"
		git apply --directory="$dir" "$patch" 2>"$out" || verdict="does not apply"
	fi

	if [[ $verdict == caught && $check == "go test "* ]]; then
		(cd "$dir" && eval "go test -v ${check#go test }") >"$out" 2>&1
		code=$?
		first=$(sed -n 's/^--- FAIL: \([^ ]*\).*/\1/p' "$out" | head -1)
		count="$(grep -c '^--- FAIL' "$out")/$(grep -cE '^--- (PASS|FAIL|SKIP)' "$out") tests"
		if [[ $code -ne 0 && -z $first ]]; then
			verdict="does not apply" first="build failed"
		elif [[ $code -eq 0 ]] || ! grep -qE "$catches" "$out"; then
			verdict=survived
		fi
	elif [[ $verdict == caught ]]; then
		(cd "$dir" && eval "$check") >"$out" 2>&1
		# Seeds whose violations match, the first one's replay flags.
		read -r total hits seed flags < <(awk -v re="$catches" '
			/^countsim: [0-9]+ seeds \[/ { total = $2 }
			/^seed [0-9]+ \(/ { s = $2 }
			$0 ~ re && s != "" && !(s in hit) { hit[s] = 1; n++; if (first == "") first = s }
			/^  replay: countsim / && $4 == first && flags == "" { sub(/^  replay: countsim /, ""); flags = $0 }
			END { print (total == "" ? "-" : total), n + 0, (first == "" ? "-" : first), flags }' "$out")
		count="$hits/$total seeds"
		if [[ $total == - ]]; then
			verdict="does not apply" first="build failed" count=-
		elif [[ $hits -eq 0 ]]; then
			verdict=survived
		else
			first="seed $seed"
			(cd "$dir" && go build -o countsim ./cmd/countsim) >>"$out" 2>&1
			"$dir/countsim" $flags >"$dir.trace-a" 2>/dev/null
			"$dir/countsim" $flags >"$dir.trace-b" 2>/dev/null
			[[ -n $flags && -s $dir.trace-a ]] && cmp -s "$dir.trace-a" "$dir.trace-b" ||
				verdict="replay differs"
		fi
	fi

	[[ $verdict == caught ]] || status=1
	row "$name" "$check" "$verdict" "${first:--}" "$count"
done
exit $status
