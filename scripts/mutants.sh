#!/usr/bin/env bash
# mutants.sh [patch...]
#
# Checks that the tests kill every committed mutant. Each
# scripts/mutants/NN-name.patch puts a fixed bug back, and its header
# names the tests that must catch it:
#
#   Package: ./internal/queue
#   Run: ^TestSeqZeroMessageDropped$
#
# The script checks the tree out once into a temporary git worktree.
# For each patch (all of scripts/mutants/*.patch by default) it applies
# the patch there, runs `go test <Package> -run <Run>` and resets the
# worktree. A mutant whose tests pass has survived: the script names it
# and the tests that missed it, and exits 1. So does a patch that no
# longer applies or compiles.
#
# The tree tested is the working tree's tracked files, uncommitted
# changes included (`git stash create`), or HEAD when there are none.
# Untracked files are not part of it: `git add` a new test first.
set -euo pipefail

root=$(git rev-parse --show-toplevel)
patches=()
for p in "$@"; do
    patches+=("$(realpath "$p")")
done
cd "$root"
if [ ${#patches[@]} -eq 0 ]; then
    patches=("$root"/scripts/mutants/*.patch)
fi

rev=$(git stash create)
rev=${rev:-HEAD}
tmp=$(mktemp -d)
wt="$tmp/tree"
cleanup() {
    git worktree remove --force "$wt" >/dev/null 2>&1 || true
    rm -rf "$tmp"
}
trap cleanup EXIT
git worktree add --quiet --detach "$wt" "$rev"

field() { sed -n "s/^$1: *//p" "$2" | head -n 1; }

fail=0
for patch in "${patches[@]}"; do
    name=$(basename "$patch" .patch)
    pkg=$(field Package "$patch")
    run=$(field Run "$patch")
    if [ -z "$pkg" ] || [ -z "$run" ]; then
        echo "BROKEN   $name: header lacks Package: or Run:"
        fail=1
        continue
    fi
    if ! git -C "$wt" apply "$patch"; then
        echo "BROKEN   $name: patch does not apply"
        fail=1
        continue
    fi
    # Compile first, so a mutant that does not build is not counted as
    # killed.
    if ! (cd "$wt" && go test -count=1 -run '^$' "$pkg" >"$tmp/out" 2>&1); then
        echo "BROKEN   $name: does not compile"
        cat "$tmp/out"
        fail=1
    elif (cd "$wt" && go test -count=1 -timeout 90s -run "$run" "$pkg" >"$tmp/out" 2>&1); then
        echo "SURVIVED $name: go test $pkg -run '$run' passes with the bug in"
        fail=1
    else
        echo "killed   $name: $(grep -m 1 -- '--- FAIL' "$tmp/out" || echo "go test $pkg failed")"
    fi
    git -C "$wt" reset --quiet --hard
done
exit $fail
