#!/bin/sh
# Alternating A/B runs of perfbench between two revisions.
#
# Usage: scripts/ab.sh <rev-a> <rev-b> <pairs>
#
#   <rev-a>, <rev-b>  any git revisions; the same one twice is an A/A run
#   <pairs>           pairs per workload: pair i runs seed i on both sides,
#                     A first when i is odd and B first when i is even
#
# Every workload of BENCHMARK.json runs, each run for its run_seconds, so
# both revisions are measured alike and no workload escapes the check.
# Each revision is extracted with `git archive` into a temporary directory
# and perfbench is built there offline, into a target directory of its own
# (an A/A run builds once). Every run is printed as one `run` line with
# its end-to-end metrics. Then, per workload and per end-to-end metric of
# BENCHMARK.json (plus failed_frac), the summary gives both medians, both
# Q1-Q3, B's wins of N pairs in the metric's `better` direction (ties win
# for neither side), the gap (median B - median A) divided by A's Q3 - Q1,
# and a verdict against the metric's bound, a fraction of A's median:
#   worse       B's median is worse than A's by more than the bound;
#   unresolved  otherwise, A's Q3 - Q1 is wider than the bound and not
#               every B run is better than every A run, so the runs
#               cannot tell a change within the bound from noise;
#   ok          otherwise.
# Quartiles interpolate linearly between order statistics.
#
# Exits non-zero if a build fails or any run exits non-zero (perfbench
# fails a run on any oracle mismatch); the summary is printed either way.
set -eu

if [ "$#" -ne 3 ]; then
    sed -n '2,/^set -eu/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
    exit 2
fi
rev_a=$1
rev_b=$2
pairs=$3
case "$pairs" in '' | *[!0-9]* | 0) echo "error: <pairs> must be a positive integer" >&2; exit 2 ;; esac

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
spec="$repo/BENCHMARK.json"
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' "$spec")
workloads=$(sed -n '/"workloads"/,/\]/p' "$spec" | sed -n 's/.*"name": *"\([^"]*\)".*/\1/p')
if [ -z "$seconds" ] || [ -z "$workloads" ]; then
    echo "error: no run_seconds or workloads in $spec" >&2
    exit 2
fi
sha_a=$(git -C "$repo" rev-parse --verify "$rev_a^{commit}")
sha_b=$(git -C "$repo" rev-parse --verify "$rev_b^{commit}")

work=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
trap 'rm -rf "$work"' EXIT
trap 'exit 130' INT TERM

# Extracts and builds one revision; prints the tree it runs in.
build() {
    tree="$work/$1"
    if [ ! -d "$tree" ]; then
        mkdir -p "$tree"
        git -C "$repo" archive --format=tar "$1" | tar -x -C "$tree"
        echo "building perfbench at $1" >&2
        cargo build --release --offline --quiet \
            --manifest-path "$tree/perfbench/Cargo.toml" \
            --target-dir "$work/target-$1" >&2
    fi
    echo "$tree"
}
tree_a=$(build "$sha_a")
tree_b=$(build "$sha_b")
bin_a="$work/target-$sha_a/release/perfbench"
bin_b="$work/target-$sha_b/release/perfbench"

# name better bound, one end-to-end metric a line.
metrics="$work/metrics"
sed -n '/"end_to_end"/,/\]/p' "$spec" |
    sed -n 's/.*"name": *"\([^"]*\)".*"better": *"\([^"]*\)".*"bound": *\([0-9.]*\).*/\1 \2 \3/p' \
        > "$metrics"
echo "failed_frac lower 0" >> "$metrics"

# workload pair side metric value, one measurement a line.
rows="$work/rows"
: > "$rows"
failures=0
echo "ab: A=$rev_a ($sha_a) B=$rev_b ($sha_b) pairs=$pairs seconds=$seconds"
echo "host: nproc $(nproc 2>/dev/null || echo '?') $(uname -srm)"
run_one() { # workload pair side
    if [ "$3" = A ]; then tree=$tree_a; bin=$bin_a; else tree=$tree_b; bin=$bin_b; fi
    out="$work/out"
    status=0
    (cd "$tree" && "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace 0) \
        > "$out" 2>&1 || status=$?
    if [ "$status" -ne 0 ]; then
        failures=$((failures + 1))
        echo "error: $1 pair $2 side $3 exited $status; its output ends:" >&2
        tail -5 "$out" >&2
    fi
    line="run $1 pair $2 seed $2 side $3 exit $status"
    while read -r name _ _; do
        value=$(sed -n "s/^metric $name \([^ ]*\) .*/\1/p" "$out" | head -1)
        [ -n "$value" ] || continue
        echo "$1 $2 $3 $name $value" >> "$rows"
        line="$line $name=$value"
    done < "$metrics"
    echo "$line"
}
for w in $workloads; do
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then order="A B"; else order="B A"; fi
        for side in $order; do
            run_one "$w" "$i" "$side"
        done
        i=$((i + 1))
    done
done

echo
printf '%-8s %-20s %14s %29s %14s %29s %8s %9s %s\n' \
    workload metric "A median" "A Q1-Q3" "B median" "B Q1-Q3" "B wins" "gap/IQR" verdict
for w in $workloads; do
    while read -r name better bound; do
        awk -v w="$w" -v m="$name" -v better="$better" -v bound="$bound" '
            function quantile(v, n, q,    h, lo) {
                h = (n - 1) * q
                lo = int(h)
                return lo + 1 < n ? v[lo] + (h - lo) * (v[lo + 1] - v[lo]) : v[lo]
            }
            function sorted(src, n, dst,    i, j, x) {
                for (i = 0; i < n; i++) dst[i] = src[i]
                for (i = 1; i < n; i++) {
                    x = dst[i]
                    for (j = i - 1; j >= 0 && dst[j] > x; j--) dst[j + 1] = dst[j]
                    dst[j + 1] = x
                }
            }
            $1 == w && $4 == m {
                if ($3 == "A") { a[$2] = $5; ia[na++] = $5 } else { b[$2] = $5; ib[nb++] = $5 }
            }
            END {
                if (na == 0 || nb == 0) exit
                sorted(ia, na, sa); sorted(ib, nb, sb)
                ma = quantile(sa, na, 0.5); mb = quantile(sb, nb, 0.5)
                q1a = quantile(sa, na, 0.25); q3a = quantile(sa, na, 0.75)
                q1b = quantile(sb, nb, 0.25); q3b = quantile(sb, nb, 0.75)
                wins = 0; pairs = 0
                for (p in a) {
                    if (!(p in b)) continue
                    pairs++
                    if ((better == "higher" && b[p] > a[p]) || (better == "lower" && b[p] < a[p])) wins++
                }
                iqr = q3a - q1a
                gap = iqr > 0 ? sprintf("%+.2f", (mb - ma) / iqr) : (mb == ma ? "0" : (mb > ma ? "+inf" : "-inf"))
                worse = better == "higher" ? ma - mb : mb - ma
                limit = bound * (ma < 0 ? -ma : ma)
                # Every B run is better than every A run.
                apart = better == "higher" ? sb[0] > sa[na - 1] : sb[nb - 1] < sa[0]
                verdict = worse > limit ? "worse" : (iqr > limit && !apart ? "unresolved" : "ok")
                printf "%-8s %-20s %14.6g %29s %14.6g %29s %8s %9s %s\n", w, m,
                    ma, sprintf("%.6g-%.6g", q1a, q3a), mb, sprintf("%.6g-%.6g", q1b, q3b),
                    sprintf("%d/%d", wins, pairs), gap, verdict
            }' "$rows"
    done < "$metrics"
done

if [ "$failures" -ne 0 ]; then
    echo "error: $failures run(s) exited non-zero" >&2
    exit 1
fi
