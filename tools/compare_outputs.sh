#!/usr/bin/env bash
# Compare reclab's outputs at a git revision with the working tree's.
#
# usage: tools/compare_outputs.sh [REV]        (REV defaults to HEAD)
#
# REV's src/ is exported with git archive into a temporary directory.  With
# each tree's src/ on PYTHONPATH, and the working tree's configs, it runs
#   converge on configs/*.json, bench/configs/gibbs_markov.json,
#            bench/configs/countable_mc.json (at --seed 0-9),
#            tests/configs/long_tails.json (two-element environments whose
#            long constant tails take the DP's block path, next to short ones),
#            tests/configs/one_environment.json (a product model's
#            quenched DP on a single environment) and
#            tests/configs/wide_counts.json (a Gibbs run whose wide count axis
#            takes the block path, its lagged table in slabs of count columns),
#            tests/configs/long_prefix.json (a countable target symbol 300,
#            whose 298-symbol alphabet prefix takes Monte Carlo's cumulative
#            weights in several slabs),
#   theta    on configs/*.json, the two bench configs and one_environment.json,
#   pa --t 2 --p 0.5, pa --t 10 --p 0.95 (an adaptive table of ~1,500 entries,
#   stopped by its moment residuals), pa --t 0.5 --p 0.3 --r-max 2000 (a long
#   fixed table), and selfcheck,
# then compares every CSV and every stdout (with its exit status, and without
# the "wrote <path>" lines) byte for byte.  manifest.json is skipped: it holds
# a timestamp.  Each difference is printed; the exit status is 1 if there is
# any, 0 if there is none.  Each differing CSV and theta/pa stdout is also
# sized, a "size:" line per changed column or number (tools/size_changes.py):
# its largest absolute and relative change, and for a CSV the row of each
# with that row's L * 2^-52 (L = N_n + n), the exact DP's rounding.
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
    run "$src" "$out" converge_long_tails converge --config tests/configs/long_tails.json \
        --out "$out/converge_long_tails"
    run "$src" "$out" converge_wide_counts converge --config tests/configs/wide_counts.json \
        --out "$out/converge_wide_counts"
    run "$src" "$out" converge_long_prefix converge --config tests/configs/long_prefix.json \
        --out "$out/converge_long_prefix"
    config=tests/configs/one_environment.json
    run "$src" "$out" converge_one_environment converge --config "$config" \
        --out "$out/converge_one_environment"
    run "$src" "$out" theta_one_environment theta --config "$config"
    run "$src" "$out" pa pa --t 2 --p 0.5 --out "$out/pa"
    run "$src" "$out" pa_adaptive pa --t 10 --p 0.95 --out "$out/pa_adaptive"
    run "$src" "$out" pa_fixed pa --t 0.5 --p 0.3 --r-max 2000 --out "$out/pa_fixed"
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
        case $f in
            *.csv | ./theta_*.stdout | ./pa*.stdout)
                if [ -f "$tmp/rev/$f" ] && [ -f "$tmp/work/$f" ]; then
                    python3 "$root/tools/size_changes.py" "$tmp/rev/$f" "$tmp/work/$f"
                fi ;;
        esac
        status=1
    fi
done
count=$(echo "$files" | wc -l)
if [ "$status" -eq 0 ]; then
    echo "no difference in $count files"
fi
exit "$status"
