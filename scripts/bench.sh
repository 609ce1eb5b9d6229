#!/usr/bin/env bash
# bench.sh — run the ping/round/sweep benchmark suite and emit a
# machine-readable BENCH_<ref>.json (ns/op, B/op, allocs/op per
# benchmark), or compare two such files and fail on regression, so the
# performance trajectory across PRs has data points AND a tripwire.
#
# Usage:
#   scripts/bench.sh                    # run suite, write BENCH_<ref>.json
#   scripts/bench.sh --compare OLD NEW  # fail if NEW regresses >25% vs OLD
#   scripts/bench.sh --help
#
# Run mode:
#   The output name derives from the current git ref (branch name, or
#   short commit hash when detached), sanitized to [A-Za-z0-9_-];
#   override it with BENCH_REF=myref or the full path with
#   BENCH_OUT=out.json. The ping-level benchmarks run at full benchtime
#   (they are nanoseconds per op); the round-level benchmarks run one
#   iteration each (they are seconds per op); the campaign steady-state
#   and feasibility-filter benchmarks (internal/measure) run at a fixed
#   modest benchtime. The sweep benchmarks (BenchmarkSweep/*) run in
#   their own invocation at a pinned 3-iteration benchtime: a single
#   ~1s sweep iteration showed ±7% run-to-run noise on shared runners
#   (BENCH_PR5's rebuild-per-campaign moved 995→1064ms with no code
#   change on that path), so the trajectory averages a fixed iteration
#   count over the pinned small-world workload to compare like with
#   like. The round-pipeline benchmark (BenchmarkCampaignRoundPipelined
#   at forced depths k1/k2/k8) records what overlapping rounds buys —
#   the measurement behind the campaign's derived depth of 2 — and
#   BenchmarkSweep/shared-world-parallel records what overlapping
#   campaigns buys over shared-world; on a single-core runner both tie
#   by design. The scale-tier benchmark
#   (BenchmarkMillionEndpointRound/100k) runs one warm sampled round
#   over a ~100k-endpoint world and records the derived endpoints/sec
#   throughput alongside ns/op; the 1M tier is opt-in via
#   SHORTCUTS_BENCH_1M=1 (the world build alone is ~10x the 100k
#   tier's). The serve-query benchmark (BenchmarkServeQuery,
#   internal/serve) drives /v1/relays/best over a warm render cache at a
#   pinned iteration count and reports sustained qps plus p99 request
#   latency (p99-ns) alongside ns/op — the two numbers the relayserve
#   contract cares about; in compare mode a qps DROP beyond the
#   threshold is the regression, like endpoints_per_sec for the scale
#   tiers. The world-build benchmarks (BenchmarkWorldBuild, including
#   the scale-100k build tier) run at one iteration and land in the JSON
#   alongside the round benchmarks, so build-time and round-time deltas
#   live in the same artifact. When the BENCH_BEFORE file exists
#   (default bench/before_pr3.txt) — the recorded pre-optimization run —
#   it is folded into the JSON as the "before" section.
#   scripts/trajectory.sh aggregates all committed BENCH_PR*.json into
#   bench/TRAJECTORY.json, the cross-PR time series. A group whose
#   -bench regex matches no benchmark (a rename, a deletion) fails the
#   run with exit 1, naming the group.
#
#   Set BENCH_PROFILE_DIR=dir to also write pprof cpu/mem profiles of
#   the round-level and steady-state benchmark runs into dir (CI uploads
#   these as artifacts so a regression can be diagnosed from the run
#   itself, without a local repro).
#
# Compare mode:
#   scripts/bench.sh --compare old.json new.json
#   Matches benchmarks by name between OLD's "after" section and NEW's
#   "after" section and reports the ns/op ratio for each — plus the
#   endpoints_per_sec ratio for benchmarks that report it (the scale
#   tiers), where a DROP beyond the threshold is the regression. Exits 1
#   when any shared benchmark regressed by more than the threshold
#   (default 25%; override with BENCH_THRESHOLD_PCT). Benchmarks present
#   in only one file are reported but never fail the comparison. CI runs this
#   non-blocking against the checked-in baseline: shared runners are
#   noisy, so the compare is a visibility step, not a gate — the
#   allocs/op invariants that must hold are enforced by AllocsPerRun
#   tests in the test job.
set -euo pipefail

# All paths — run-mode outputs and compare-mode inputs alike — resolve
# against the repo root, whatever directory the script is invoked from.
cd "$(dirname "$0")/.."

# usage prints the header comment block (every leading # line after the
# shebang), so editing the header keeps --help in sync automatically.
usage() { awk 'NR > 1 { if (!/^#/) exit; sub(/^# ?/, ""); print }' "$0"; }

# parse_bench turns `go test -bench` output into a JSON array of
# {name, iters, ns_per_op, b_per_op, allocs_per_op} objects.
parse_bench() {
    awk '
    /^Benchmark/ {
        name = $1
        sub(/-[0-9]+$/, "", name)
        iters = $2
        ns = "null"; bytes = "null"; allocs = "null"; eps = "null"
        qps = "null"; p99 = "null"
        for (i = 3; i < NF; i++) {
            if ($(i + 1) == "ns/op") ns = $i
            else if ($(i + 1) == "B/op") bytes = $i
            else if ($(i + 1) == "allocs/op") allocs = $i
            else if ($(i + 1) == "endpoints/sec") eps = $i
            else if ($(i + 1) == "qps") qps = $i
            else if ($(i + 1) == "p99-ns") p99 = $i
        }
        if (n++) printf(",\n")
        printf("    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"b_per_op\": %s, \"allocs_per_op\": %s", \
               name, iters, ns, bytes, allocs)
        if (eps != "null") printf(", \"endpoints_per_sec\": %s", eps)
        if (qps != "null") printf(", \"qps\": %s", qps)
        if (p99 != "null") printf(", \"p99_ns\": %s", p99)
        printf("}")
    }
    END { if (n) printf("\n") }
    ' "$1"
}

# extract_after pulls "name ns_per_op endpoints_per_sec qps" rows out
# of a bench JSON's "after" section (the live-run numbers);
# endpoints_per_sec and qps are "null" for benchmarks that do not
# report them.
extract_after() {
    awk '
    /"after"/ { in_after = 1; next }
    in_after && /"name"/ {
        line = $0
        sub(/.*"name": "/, "", line); name = line; sub(/".*/, "", name)
        line = $0
        sub(/.*"ns_per_op": /, "", line); ns = line; sub(/[,}].*/, "", ns)
        eps = "null"
        if ($0 ~ /"endpoints_per_sec"/) {
            line = $0
            sub(/.*"endpoints_per_sec": /, "", line); eps = line; sub(/[,}].*/, "", eps)
        }
        qps = "null"
        if ($0 ~ /"qps"/) {
            line = $0
            sub(/.*"qps": /, "", line); qps = line; sub(/[,}].*/, "", qps)
        }
        if (ns != "null" && name != "") print name, ns, eps, qps
    }
    ' "$1"
}

compare() {
    local old="$1" new="$2" threshold="${BENCH_THRESHOLD_PCT:-25}"
    [ -f "$old" ] || { echo "bench.sh: baseline $old not found" >&2; exit 2; }
    [ -f "$new" ] || { echo "bench.sh: candidate $new not found" >&2; exit 2; }
    oldvals="$(mktemp)"
    newvals="$(mktemp)"
    trap 'rm -f "${oldvals:-}" "${newvals:-}"' EXIT
    extract_after "$old" > "$oldvals"
    extract_after "$new" > "$newvals"

    echo "== bench compare: $new vs baseline $old (fail > ${threshold}% ns/op or throughput regression) =="
    awk -v threshold="$threshold" '
    NR == FNR { base[$1] = $2; baseeps[$1] = $3; baseqps[$1] = $4; next }
    {
        if ($1 in base) {
            ratio = 100 * ($2 - base[$1]) / base[$1]
            verdict = "ok"
            if (ratio > threshold) { verdict = "REGRESSED"; failed = 1 }
            printf("%-40s %14.1f -> %14.1f ns/op  %+7.1f%%  %s\n", $1, base[$1], $2, ratio, verdict)
            # Throughput metrics (scale tiers, serve query): a drop is
            # the regression.
            if ($3 != "null" && baseeps[$1] != "null" && baseeps[$1] + 0 > 0) {
                eratio = 100 * ($3 - baseeps[$1]) / baseeps[$1]
                everdict = "ok"
                if (eratio < -threshold) { everdict = "REGRESSED"; failed = 1 }
                printf("%-40s %14.1f -> %14.1f endpoints/sec  %+7.1f%%  %s\n", $1, baseeps[$1], $3, eratio, everdict)
            }
            if ($4 != "null" && baseqps[$1] != "null" && baseqps[$1] + 0 > 0) {
                qratio = 100 * ($4 - baseqps[$1]) / baseqps[$1]
                qverdict = "ok"
                if (qratio < -threshold) { qverdict = "REGRESSED"; failed = 1 }
                printf("%-40s %14.1f -> %14.1f qps  %+7.1f%%  %s\n", $1, baseqps[$1], $4, qratio, qverdict)
            }
            seen[$1] = 1
            shared++
        } else {
            printf("%-40s %31s %14.1f ns/op      new (no baseline)\n", $1, "", $2)
        }
    }
    END {
        for (name in base) if (!(name in seen))
            printf("%-40s %14.1f ns/op: missing from candidate\n", name, base[name])
        # Zero shared benchmarks means the inputs did not parse (format
        # drift, wrong files): that must disarm loudly, not pass.
        if (!shared) {
            print "bench.sh: no shared benchmarks between baseline and candidate — nothing was compared" > "/dev/stderr"
            exit 2
        }
        exit failed
    }
    ' "$oldvals" "$newvals"
}

case "${1:-}" in
    -h|--help) usage; exit 0 ;;
    --compare)
        [ $# -eq 3 ] || { echo "bench.sh: --compare needs OLD and NEW" >&2; exit 2; }
        compare "$2" "$3"
        exit $? ;;
    "") ;;
    *) echo "bench.sh: unknown argument $1 (see --help)" >&2; exit 2 ;;
esac

# Resolve the output ref: explicit BENCH_REF, else branch, else short
# hash; sanitize so the name is always a safe filename.
ref="${BENCH_REF:-}"
if [ -z "$ref" ]; then
    ref="$(git symbolic-ref --short -q HEAD || git rev-parse --short HEAD 2>/dev/null || echo local)"
fi
ref="$(printf '%s' "$ref" | tr -c 'A-Za-z0-9_-' '_')"
OUT="${BENCH_OUT:-BENCH_${ref}.json}"
BEFORE="${BENCH_BEFORE:-bench/before_pr3.txt}"

WORLD_BENCH='BenchmarkWorldBuild'
PING_BENCH='BenchmarkPingTrain|BenchmarkBaseRTTWarm'
ROUND_BENCH='BenchmarkRunStream|BenchmarkCampaignRound$|BenchmarkScenarioRound'
SWEEP_BENCH='BenchmarkSweep'
MEASURE_BENCH='BenchmarkCampaignRoundSteadyState|BenchmarkFeasibilityFilter'
PIPELINE_BENCH='BenchmarkCampaignRoundPipelined'
SCALE_BENCH='BenchmarkMillionEndpointRound'
SERVE_BENCH='BenchmarkServeQuery'
DETECT_BENCH='BenchmarkDetectSink'

# Optional pprof capture: BENCH_PROFILE_DIR adds -cpuprofile/-memprofile
# to the campaign-level runs (one profile pair per invocation). The test
# binary lands in the same directory (-o), so `go tool pprof binary
# profile` works straight off the downloaded artifact.
profile_flags() {
    if [ -n "${BENCH_PROFILE_DIR:-}" ]; then
        mkdir -p "$BENCH_PROFILE_DIR"
        printf -- '-o %s/%s.test -cpuprofile %s/%s_cpu.prof -memprofile %s/%s_mem.prof' \
            "$BENCH_PROFILE_DIR" "$1" "$BENCH_PROFILE_DIR" "$1" "$BENCH_PROFILE_DIR" "$1"
    fi
}

raw="$(mktemp)"
trap 'rm -f "$raw" "$raw.group"' EXIT

# run_group NAME REGEX ARGS... runs one benchmark group (go test -bench
# REGEX ARGS...), appends its output to the run, and exits 1 naming the
# group when REGEX matched no benchmark: a renamed benchmark must fail
# the run, not silently drop its group from the JSON.
run_group() {
    local name="$1" regex="$2"
    shift 2
    go test -run '^$' -bench "$regex" "$@" | tee "$raw.group" >&2
    cat "$raw.group" >> "$raw"
    if ! grep -q '^Benchmark' "$raw.group"; then
        echo "bench.sh: group $name (-bench '$regex') matched no benchmark" >&2
        exit 1
    fi
}

echo "== world-build benchmarks (1 iteration; scale-100k tier included, SHORTCUTS_BENCH_1M=1 adds 1M) ==" >&2
run_group world "$WORLD_BENCH" -benchtime=1x -benchmem -timeout 40m .

echo "== ping-level benchmarks (internal/latency) ==" >&2
run_group ping "$PING_BENCH" -benchmem ./internal/latency/

echo "== round/scenario benchmarks (1 iteration each) ==" >&2
# shellcheck disable=SC2046
run_group round "$ROUND_BENCH" -benchtime=1x -benchmem $(profile_flags round) .

echo "== sweep benchmarks (pinned 3 iterations; see header on noise) ==" >&2
run_group sweep "$SWEEP_BENCH" -benchtime=3x -benchmem .

echo "== campaign steady-state + feasibility benchmarks (internal/measure) ==" >&2
# shellcheck disable=SC2046
run_group measure "$MEASURE_BENCH" -benchtime=10x -benchmem $(profile_flags steady) ./internal/measure/

echo "== round-pipeline benchmarks (24-round warm campaign, forced K=1/2/8) ==" >&2
run_group pipeline "$PIPELINE_BENCH" -benchtime=1x -benchmem ./internal/measure/

echo "== scale-tier benchmark (100k-endpoint sampled round; SHORTCUTS_BENCH_1M=1 adds 1M) ==" >&2
run_group scale "$SCALE_BENCH" -benchtime=1x -benchmem -timeout 40m ./internal/measure/

echo "== serve query benchmark (warm-cache /v1/relays/best; pinned 100k requests for stable qps/p99) ==" >&2
run_group serve "$SERVE_BENCH" -benchtime=100000x -benchmem ./internal/serve/

echo "== disruption-detector benchmarks (per-observation emit + per-round fold) ==" >&2
# The emit path must stay allocation-free in steady state (the invariant
# is enforced by TestEmitSteadyStateAllocs in the test job; the number
# recorded here is the ns/op overhead a detecting sink adds per
# observation).
run_group detect "$DETECT_BENCH" -benchmem ./internal/detect/

{
    echo '{'
    echo "  \"ref\": \"$ref\","
    echo "  \"goos\": \"$(go env GOOS)\","
    echo "  \"goarch\": \"$(go env GOARCH)\","
    if [ -f "$BEFORE" ]; then
        echo '  "before": ['
        parse_bench "$BEFORE"
        echo '  ],'
    fi
    echo '  "after": ['
    parse_bench "$raw"
    echo '  ]'
    echo '}'
} > "$OUT"

echo "wrote $OUT" >&2
