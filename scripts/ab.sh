#!/bin/sh
# ab.sh — paired A/B of repo-benchmark workloads between a base revision and
# the working tree (`make ab OLD=<rev> WORKLOAD=<name>[,<name>…] [PAIRS=10]
# [SEED=1]`).
#
# Both sides are measured by the *same* benchmark program: the working
# tree's bench/ sources are built once against a throwaway export of OLD and
# once against the working tree, so only the code under test differs. For
# each workload of the comma-separated WORKLOAD list in turn, the two
# binaries then run PAIRS alternating pairs (old-new, new-old, …) of
# `-workload W -seed S -out ""`, which cancels the host-speed drift that
# makes single runs incomparable (bench/README.md). Per end-to-end metric it
# prints both sides' median and quartiles, the shift, the pairs each side
# won and the median of the per-pair new/old ratios; the verdict column
# applies the claim rule of the choosing-metrics guide (new wins >= 9/10 of
# the pairs and the medians are further apart than old's inter-quartile
# spread). The ratio keeps the pairing the verdict's two medians discard; it
# is printed beside the verdict and does not enter it. The last column is the
# regression side: whether the median shift, in the metric's worse
# direction, stays within the metric's "bound" in BENCHMARK.json (the
# metrics, their directions and bounds are all read from that file). One
# table is printed per workload. Exits non-zero when, on any workload, the
# two sides' result digests differ or a run reports "correct":false.
set -eu

usage="usage: OLD=<rev> WORKLOAD=<name>[,<name>...] [PAIRS=10] [SEED=1] $0"
old=${OLD:?$usage}
workloads=${WORKLOAD:?$usage}
pairs=${PAIRS:-10}
seed=${SEED:-1}

root=$(git rev-parse --show-toplevel)
rev=$(git -C "$root" rev-parse --verify "$old^{commit}")

# The end-to-end metrics of BENCHMARK.json, one "name better bound" line
# each, in file order; each object lists name, then better, then bound.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    /"per_layer"/ { on = 0 }
    on && /"(name|better|bound)"/ {
        v = $0
        sub(/^[^:]*: */, "", v); gsub(/[",]/, "", v)
        if ($0 ~ /"name"/) name = v
        else if ($0 ~ /"better"/) better = v
        else print name, better, v
    }' "$root/BENCHMARK.json")
if [ -z "$metrics" ]; then
    echo "ab: no end_to_end metric with a bound in $root/BENCHMARK.json" >&2
    exit 2
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
trap 'exit 130' INT TERM

# OLD's tree with the working tree's benchmark dropped in. An export rather
# than `git worktree add`: it leaves nothing behind in .git even if killed.
mkdir "$tmp/old"
git -C "$root" archive "$rev" | tar -x -C "$tmp/old"
rm -rf "$tmp/old/bench"
cp -R "$root/bench" "$tmp/old/bench"
rm -rf "$tmp/old/bench/.bench_out"
go build -C "$tmp/old/bench" -o "$tmp/bench_old" .
go build -C "$root/bench" -o "$tmp/bench_new" .

# run SIDE: one measurement; appends the run's JSON line to $tmp/SIDE.json
# and its digest to $tmp/SIDE.digest.
run() {
    side=$1
    dir=$root/bench
    [ "$side" = old ] && dir=$tmp/old/bench
    status=0
    (cd "$dir" && "$tmp/bench_$side" -workload "$workload" -seed "$seed" -out "") \
        >"$tmp/out" 2>"$tmp/err" || status=$?
    if ! tail -n 1 "$tmp/out" | grep -q '^{"correct"'; then
        echo "ab: $side run printed no result line (exit $status)" >&2
        cat "$tmp/out" "$tmp/err" >&2
        exit 2
    fi
    tail -n 1 "$tmp/out" >>"$tmp/$side.json"
    sed -n 's/^ *digest \([0-9a-f]*\)$/\1/p' "$tmp/out" >>"$tmp/$side.digest"
}

# ab WORKLOAD: the paired runs and the table of one workload; sets fail=1
# on a digest mismatch or an incorrect run.
ab() {
    workload=$1
    rm -f "$tmp"/old.* "$tmp"/new.*
    echo "ab: $workload seed=$seed, $pairs alternating pairs: old=$(echo "$rev" | cut -c1-12) new=working tree"
    i=1
    while [ "$i" -le "$pairs" ]; do
        if [ $((i % 2)) -eq 1 ]; then
            run old
            run new
        else
            run new
            run old
        fi
        printf 'ab: pair %d/%d  wall_s old %s new %s\n' "$i" "$pairs" \
            "$(tail -n 1 "$tmp/old.json" | sed 's/.*"wall_s":{"value":\([^,}]*\).*/\1/')" \
            "$(tail -n 1 "$tmp/new.json" | sed 's/.*"wall_s":{"value":\([^,}]*\).*/\1/')"
        i=$((i + 1))
    done

    # Quartiles by the exclusive method (Python's statistics.quantiles
    # n=4), the same cut points bench/stats.go prints.
    printf '\n%-12s %-34s %-34s %8s  %-9s %-7s %-15s %s\n' metric "old median (q1..q3)" "new median (q1..q3)" shift "new wins" "new/old" verdict bound
    echo "$metrics" | while read -r m better bound; do
        for side in old new; do
            sed "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/" "$tmp/$side.json" >"$tmp/$side.$m"
        done
        paste "$tmp/old.$m" "$tmp/new.$m" | awk -v m="$m" -v better="$better" -v bound="$bound" '
            function cut(s, n, i,    mm, j, d) {
                if (n == 1) return s[1]
                mm = n + 1; j = int(i * mm / 4)
                if (j < 1) j = 1
                if (j > n - 1) j = n - 1
                d = i * mm - j * 4
                return (s[j] * (4 - d) + s[j + 1] * d) / 4
            }
            function sorted(a, n, s,    i, j, t) {
                for (i = 1; i <= n; i++) s[i] = a[i]
                for (i = 2; i <= n; i++) { t = s[i]; for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]; s[j + 1] = t }
            }
            { n++; o[n] = $1 + 0; w[n] = $2 + 0
              r[n] = o[n] != 0 ? w[n] / o[n] : 1
              if (w[n] < o[n]) nw++; else if (o[n] < w[n]) ow++ }
            END {
                sorted(o, n, so); sorted(w, n, sw); sorted(r, n, sr)
                om = cut(so, n, 2); wm = cut(sw, n, 2)
                oq1 = cut(so, n, 1); oq3 = cut(so, n, 3)
                verdict = "no change shown"
                if (nw * 10 >= n * 9 && om - wm > oq3 - oq1) verdict = "new better"
                if (ow * 10 >= n * 9 && wm - om > oq3 - oq1) verdict = "NEW WORSE"
                shift = (wm - om) / om
                worse = better == "higher" ? -shift : shift
                within = worse > bound + 0 ? "OUTSIDE" : "within"
                printf "%-12s %-34s %-34s %+7.1f%%  %d/%-7d %-7.3f %-15s %s %g%%\n", m,
                    sprintf("%.4g (%.4g..%.4g)", om, oq1, oq3),
                    sprintf("%.4g (%.4g..%.4g)", wm, cut(sw, n, 1), cut(sw, n, 3)),
                    shift * 100, nw, n, cut(sr, n, 2), verdict,
                    within, bound * 100
            }'
    done

    od=$(sort -u "$tmp/old.digest" | tr '\n' ' ')
    nd=$(sort -u "$tmp/new.digest" | tr '\n' ' ')
    echo
    echo "digest old: $od"
    echo "digest new: $nd"
    if [ "$od" != "$nd" ]; then
        echo "ab: $workload: result digests differ between the two sides" >&2
        fail=1
    fi
    if grep -q '"correct":false' "$tmp/old.json" "$tmp/new.json"; then
        echo "ab: $workload: a run reported \"correct\":false" >&2
        fail=1
    fi
}

fail=0
first=1
for w in $(echo "$workloads" | tr ',' ' '); do
    [ "$first" = 1 ] || echo
    first=0
    ab "$w"
done
exit $fail
