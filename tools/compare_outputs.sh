#!/usr/bin/env bash
# Compare reclab's outputs at a git revision with the working tree's.
#
# usage: tools/compare_outputs.sh [REV]        (REV defaults to HEAD)
#
# REV's src/ is exported with git archive into a temporary directory.  With
# each tree's src/ on PYTHONPATH, and the working tree's configs, it runs
#   converge on configs/*.json, bench/configs/gibbs_markov.json and
#            bench/configs/countable_mc.json (the last at --seed 0-9),
#   theta    on the same four configs,
#   pa --t 2 --p 0.5, and selfcheck,
# then compares every CSV and every stdout (with its exit status, and without
# the "wrote <path>" lines) byte for byte.  manifest.json is skipped: it holds
# a timestamp.  Each difference is printed; the exit status is 1 if there is
# any, 0 if there is none.
set -u

rev=${1:-HEAD}
root=$(git rev-parse --show-toplevel) || exit 2
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir -p "$tmp/src_rev"
git -C "$root" archive "$rev" src | tar -x -C "$tmp/src_rev" || exit 2

# run SRC OUT NAME ARGS...: one reclab command; its stdout goes to OUT/NAME.stdout
run() {
    local src=$1 out=$2 name=$3
    shift 3
    mkdir -p "$out/$name"
    (cd "$root" && PYTHONPATH="$src" python3 -m reclab.cli "$@") > "$out/$name.raw"
    echo "exit $?" >> "$out/$name.raw"
    grep -v '^wrote ' "$out/$name.raw" > "$out/$name.stdout"
    rm "$out/$name.raw"
}

run_all() {
    local src=$1 out=$2 config name seed
    for config in configs/*.json bench/configs/gibbs_markov.json; do
        name=$(basename "$config" .json)
        run "$src" "$out" "converge_$name" converge --config "$config" --out "$out/converge_$name"
        run "$src" "$out" "theta_$name" theta --config "$config"
    done
    config=bench/configs/countable_mc.json
    for seed in 0 1 2 3 4 5 6 7 8 9; do
        run "$src" "$out" "converge_countable_mc_seed$seed" converge --config "$config" \
            --seed "$seed" --out "$out/converge_countable_mc_seed$seed"
    done
    run "$src" "$out" theta_countable_mc theta --config "$config"
    run "$src" "$out" pa pa --t 2 --p 0.5 --out "$out/pa"
    run "$src" "$out" selfcheck selfcheck
}

run_all "$tmp/src_rev/src" "$tmp/rev"
run_all "$root/src" "$tmp/work"

status=0
files=$( (cd "$tmp/rev" && find . -type f; cd "$tmp/work" && find . -type f) \
    | grep -v '/manifest\.json$' | sort -u)
for f in $files; do
    if ! cmp -s "$tmp/rev/$f" "$tmp/work/$f"; then
        echo "differs: ${f#./} ($rev vs working tree)"
        diff "$tmp/rev/$f" "$tmp/work/$f" | head -n 20
        status=1
    fi
done
count=$(echo "$files" | wc -l)
if [ "$status" -eq 0 ]; then
    echo "no difference in $count files"
fi
exit "$status"
