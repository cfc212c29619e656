#!/bin/sh
# ci.sh — the tier-1 verification gate for pathflow.
#
# Runs, in order:
#   1. go build ./...       every package compiles
#   2. gofmt -l             no unformatted files
#   3. go vet ./...         static checks, then the same in perfbench/
#                           (a module of its own, so the root vet never
#                           compiles it; it pins the engine and serve API)
#   4. lint                 the hand-rolled drift linter (internal/lint):
#                           Unknown*Error hints must enumerate the full
#                           current option sets (kernels, clients,
#                           benchmarks), and no non-test file outside
#                           internal/engine and the four client
#                           packages reaches the boxed solvers
#   5. go test ./...        the full test suite (incl. the golden gate
#                           internal/bench/testdata/metrics.golden.json)
#   6. go test -race        the concurrency-bearing packages under the
#                           race detector (engine scheduler + two-tier
#                           cache — including the incremental
#                           differential test in internal/engine, so
#                           cold-vs-warm byte-identity holds under
#                           -race — the persistent diskcache store,
#                           the bench harness memo, the serving
#                           layer's job manager +
#                           streams, the streaming
#                           accumulator sets and the watch runner —
#                           including a concurrent ingest + sweep +
#                           live-analyze test against one server), plus the
#                           analysis clients and
#                           the oracle, which the engine runs from
#                           pooled workers (liveness, availexpr,
#                           dataflow/oracle) — and the solver layers
#                           themselves (dataflow, dataflow/kernel,
#                           constprop, intervals), whose packed-vs-boxed
#                           differential tests then hold under -race
#                           — and the feasibility detector + drift
#                           linter (feasible, lint), which the engine
#                           also runs from pooled workers
#   7. fuzz smoke           10s of coverage-guided fuzzing per target,
#                           with input minimization capped at one run
#                           per new input so the budget goes to fuzzing
#                           (FuzzDiskcacheCodec: corrupt cache files
#                           never panic; FuzzDelta: incremental results
#                           equal cold ones on random edits, and each
#                           function's delta class agrees with the
#                           replay the run observed;
#                           FuzzKernelEquivalence: the packed arena
#                           kernels match the boxed reference pointwise,
#                           iteration counts included, on full pipeline
#                           runs over random programs;
#                           FuzzKernelCFG: the same equivalence for
#                           constprop, intervals, liveness and
#                           availexpr on one small generated CFG per
#                           exec, no training run or pipeline;
#                           FuzzFeasibleSoundness: no trace-observed
#                           edge is ever marked infeasible on random
#                           correlated-branch programs, on the CFG, the
#                           HPG or the reduced HPG's projected mask;
#                           FuzzClampedEquivalence: feasible.Detect's
#                           packed clamped interval solves match the
#                           boxed ClampedProblem reference on every
#                           graph tier, unmasked and under Detect's
#                           mask, and Detect matches the boxed fold;
#                           FuzzDetectCFG: the same checks on one small
#                           generated CFG per exec, no training run or
#                           pipeline;
#                           FuzzAccumulatorMerge: the decaying
#                           accumulator algebra stays commutative/
#                           associative and Decay commutes with Merge
#                           on fuzzer-chosen ingestion histories;
#                           FuzzProfileDeltaCodec: arbitrary bytes
#                           thrown at delta batches and stream
#                           snapshot frames never panic or mutate a
#                           set on rejection),
#                           started from the checked-in testdata/fuzz
#                           corpora alone: the local fuzz cache is
#                           cleared first
#   8. kernel gate          BenchmarkAnalyzeKernels/resolve — the packed
#                           solvers' steady-state Run() loop — must
#                           report exactly 0 allocs/op (BENCH_kernels.json),
#                           and BenchmarkClampedResolve — Run() on
#                           Detect's pre-built clamped interval solvers,
#                           unmasked and masked — exactly 0 B/op and
#                           0 allocs/op; so must BenchmarkSyntacticResolve
#                           — Run() on the pre-built solvers of Detect's
#                           packed syntactic correlation pass, unmasked
#                           and masked;
#                           and BenchmarkReduce
#                           must report the same allocs/op, and B/op
#                           within 5%, for one generated function at 10
#                           and at 1000 registers: reduction reads
#                           solutions only at block inputs, so its
#                           allocations may not grow with the register
#                           file; BenchmarkSolveWidth must report the
#                           same allocs/op, and at most 8x the B/op at
#                           1000 registers, for one generated function at
#                           10 and at 1000 registers: constant
#                           propagation's rows hold only the non-local
#                           registers, so only its Transfer overlay may
#                           grow with the register file; and
#                           BenchmarkDetect/packed must
#                           allocate at most a tenth of the B/op of
#                           BenchmarkDetect/reference (the boxed fold
#                           it replaced) over the named programs' graphs
#                           — then the codec gate: BenchmarkDecodeSolution
#                           must report the same allocs/op for a 10-node
#                           and a 1000-node solution bundle, so disk
#                           decoding allocates per bundle, never per row
#                           — then the client gate: BenchmarkClientSolve
#                           (one-shot liveness + available-expressions
#                           solves) must report the same allocs/op on a
#                           generated function of about 10 and of about
#                           1000 nodes: every client keeps its solver's
#                           rows, so no solve allocates per node
#                           — then the tier gate: BenchmarkTierBuild
#                           (trace.Build plus reduce.Assemble on one
#                           generated function) must report the same
#                           B/op and allocs/op with every block at 1 and
#                           at 64 instructions: a hot path graph and its
#                           reduction share their original's blocks and
#                           are built at their final size
#   9. check smoke          `pathflow check` over examples/hotpath.pf
#                           and all seven benchmarks on the default
#                           packed kernels: the precision differential
#                           oracle must report zero violations (exit
#                           status is the gate) — then `check
#                           -feasible` over all seven (packed) plus
#                           -kernel=boxed on m88ksim, which the engine
#                           alone turns into a whole pipeline and
#                           oracle run on the boxed reference solvers:
#                           the extended gate
#                           (masked facts pointwise >= unmasked on
#                           every tier, no executed edge pruned)
#  10. baseline smoke       end-to-end incremental re-analysis:
#                           `analyze -baseline` on a one-block constant
#                           edit must classify the edited function as a
#                           body delta and replay >= 3 of its stages
#  11. serve smoke          end-to-end: start `pathflow serve` with a
#                           persistent -cachedir on an ephemeral port,
#                           run one analyze round-trip over HTTP, check
#                           /healthz, SIGINT-drain it — then restart the
#                           daemon on the same -cachedir and assert the
#                           repeat request warm-starts from disk
#                           (pathflow_diskcache_hits_total in /metrics)
#                           with result bytes equal to the first
#                           daemon's
#  12. streaming smoke      streamed profile ingestion end-to-end: warm
#                           a daemon, POST a hot-set-flipping counter
#                           batch to /v1/profiles, require the ingest
#                           response to flag requalification and the
#                           drift counters to land in /metrics, then a
#                           live analyze must replay cached stages and
#                           its result bytes must equal a cold live
#                           analyze on a fresh daemon fed the same delta
#  13. watch smoke          `pathflow watch -rounds 1` on a dumped
#                           benchmark source: the one-block constant
#                           edit's round must classify the edited
#                           function as a body delta and replay
#                           untouched functions as 'none'
#
# Exit status is nonzero on the first failure. See README.md ("Verifying").
set -e

echo "== build"
go build ./...

echo "== gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== vet"
go vet ./...
(cd perfbench && go vet ./...)

echo "== lint"
# Hand-rolled drift linter (internal/lint): every option name the
# engine's parsers accept must appear in the Unknown*Error hint the CLI
# and serving layer quote verbatim, and the benchmark hint must track
# the registry. Runs inside `go test ./...` too; this explicit early
# step fails the build before the slow suites when a hint drifts.
go test -count=1 ./internal/lint/

echo "== test"
go test ./...

echo "== race"
go test -race ./internal/engine/ ./internal/engine/diskcache/ ./internal/bench/ ./internal/serve/ \
    ./internal/profile/stream/ ./internal/watch/ \
    ./internal/liveness/ ./internal/availexpr/ ./internal/dataflow/oracle/ \
    ./internal/dataflow/ ./internal/dataflow/kernel/ ./internal/constprop/ ./internal/intervals/ \
    ./internal/feasible/ ./internal/lint/

echo "== fuzz smoke"
# Short coverage-guided runs on top of the checked-in seed corpora: the
# codec must treat arbitrary bytes as at worst a silent cache miss,
# incremental re-analysis must match a cold one and agree with each
# edit's delta class on random program edits,
# and the packed kernels must stay pointwise identical to the boxed
# reference across full pipeline runs. -fuzzminimizetime 1x caps the
# minimization of each new interesting input at one run: left at its
# default, minimizing can take most of the 10 s and leave the fuzzer
# idle for the rest. The local fuzz cache is cleared first: a fuzzer
# re-runs every cached input before it explores, and once a target's
# cache holds a few hundred entries that baseline pass fills its whole
# 10 s. Failing inputs are not lost, since the fuzzer writes them to
# testdata/fuzz.
go clean -fuzzcache
go test -run '^$' -fuzz '^FuzzDiskcacheCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/engine/diskcache/
go test -run '^$' -fuzz '^FuzzDelta$' -fuzztime 10s -fuzzminimizetime 1x ./internal/engine/
go test -run '^$' -fuzz '^FuzzKernelEquivalence$' -fuzztime 10s -fuzzminimizetime 1x ./internal/engine/
# The same kernel equivalence on one small generated CFG per exec, with
# no training run or pipeline, so the fuzzer gets through thousands of
# inputs in the same 10 s.
go test -run '^$' -fuzz '^FuzzKernelCFG$' -fuzztime 10s -fuzzminimizetime 1x ./internal/engine/
# The branch-correlation detector and the projection of the HPG mask
# onto the reduced HPG must never prune an edge a real execution
# traverses, over programs biased toward correlated re-tests.
go test -run '^$' -fuzz '^FuzzFeasibleSoundness$' -fuzztime 10s -fuzzminimizetime 1x ./internal/feasible/
# Detect's packed clamped interval domain must match the boxed
# ClampedProblem on every tier, with and without Detect's mask.
go test -run '^$' -fuzz '^FuzzClampedEquivalence$' -fuzztime 10s -fuzzminimizetime 1x ./internal/feasible/
# The same two checks on one small generated CFG per exec, with no
# training run or pipeline, so the fuzzer gets through thousands of
# inputs in the same 10 s.
go test -run '^$' -fuzz '^FuzzDetectCFG$' -fuzztime 10s -fuzzminimizetime 1x ./internal/feasible/
# The streaming layer's two wire surfaces: the accumulator algebra must
# stay commutative/associative (and Decay/Merge must commute) on
# fuzzer-chosen ingestion histories, and arbitrary bytes thrown at the
# JSON delta batches and the diskcache snapshot frames must never panic,
# mutate a set on rejection, or decode to unstable state.
go test -run '^$' -fuzz '^FuzzAccumulatorMerge$' -fuzztime 10s -fuzzminimizetime 1x ./internal/profile/stream/
go test -run '^$' -fuzz '^FuzzProfileDeltaCodec$' -fuzztime 10s -fuzzminimizetime 1x ./internal/profile/stream/

echo "== kernel gate"
# The packed kernels' steady-state loop must be allocation-free: every
# Run() on a pre-built solver re-solves entirely inside the arena. The
# resolve configuration must report exactly 0 allocs/op; any regression
# (an escaping row, a resized slice) fails the build.
kernels=$(go test -run '^$' -bench '^BenchmarkAnalyzeKernels$' -benchmem -benchtime 20x .)
echo "$kernels"
echo "$kernels" | grep -Eq 'AnalyzeKernels/resolve.*[^0-9]0 B/op[[:space:]]+0 allocs/op' || {
    echo "kernel gate: resolve path is not allocation-free" >&2; exit 1; }
# Detect's clamped interval solvers re-solve inside their index arenas
# too: Run() on pre-built solvers over the named programs' graph tiers,
# unmasked and masked, must report exactly 0 B/op and 0 allocs/op.
clamped=$(go test -run '^$' -bench '^BenchmarkClampedResolve$' -benchmem -benchtime 20x ./internal/feasible/)
echo "$clamped"
for cfg in unmasked masked; do
    echo "$clamped" | grep -Eq "ClampedResolve/$cfg-.*[^0-9]0 B/op[[:space:]]+0 allocs/op" || {
        echo "kernel gate: clamped $cfg resolve path is not allocation-free" >&2; exit 1; }
done
# So does Detect's syntactic correlation pass, on the bitset kernel:
# Run() on its pre-built solvers, unmasked and masked, must report
# exactly 0 B/op and 0 allocs/op.
syntactic=$(go test -run '^$' -bench '^BenchmarkSyntacticResolve$' -benchmem -benchtime 20x ./internal/feasible/)
echo "$syntactic"
for cfg in unmasked masked; do
    echo "$syntactic" | grep -Eq "SyntacticResolve/$cfg-.*[^0-9]0 B/op[[:space:]]+0 allocs/op" || {
        echo "kernel gate: syntactic $cfg resolve path is not allocation-free" >&2; exit 1; }
done

# Reduction's allocations must not depend on the register count: the
# same generated function and profile at 10 and at 1000 registers must
# allocate equally often, and within 5% of the same bytes (B/op is a
# mean over the run and moves by a few bytes with map layout).
reduce_out=$(go test -run '^$' -bench '^BenchmarkReduce$' -benchmem -benchtime 20x ./internal/reduce/)
echo "$reduce_out"
echo "$reduce_out" | awk '
    /BenchmarkReduce\/vars=10-/   { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") sb = $i; if ($(i+1) == "allocs/op") sa = $i } }
    /BenchmarkReduce\/vars=1000-/ { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") lb = $i; if ($(i+1) == "allocs/op") la = $i } }
    END {
        if (sa == "" || la == "") { print "reduce gate: BenchmarkReduce lines missing" > "/dev/stderr"; exit 1 }
        if (sa != la) { printf "reduce gate: allocs/op %s at 10 registers, %s at 1000\n", sa, la > "/dev/stderr"; exit 1 }
        if (lb > sb * 1.05) { printf "reduce gate: B/op %s at 10 registers, %s at 1000\n", sb, lb > "/dev/stderr"; exit 1 }
    }'

# Constant propagation's rows hold one cell per non-local register
# (cfg.Columns), so the same generated function at 10 and at 1000
# registers must allocate equally often, and at 1000 registers at most
# 8x the bytes: only the Transfer overlay, one cell per register, grows
# with the register file.
width_out=$(go test -run '^$' -bench '^BenchmarkSolveWidth$' -benchmem -benchtime 20x ./internal/constprop/)
echo "$width_out"
echo "$width_out" | awk '
    /BenchmarkSolveWidth\/vars=10-/   { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") sb = $i; if ($(i+1) == "allocs/op") sa = $i } }
    /BenchmarkSolveWidth\/vars=1000-/ { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") lb = $i; if ($(i+1) == "allocs/op") la = $i } }
    END {
        if (sa == "" || la == "") { print "width gate: BenchmarkSolveWidth lines missing" > "/dev/stderr"; exit 1 }
        if (sa != la) { printf "width gate: allocs/op %s at 10 registers, %s at 1000\n", sa, la > "/dev/stderr"; exit 1 }
        if (lb > sb * 8) { printf "width gate: B/op %s at 10 registers, %s at 1000\n", sb, lb > "/dev/stderr"; exit 1 }
    }'

# Feasible detection solves on the packed kernel and reads only the
# solvers' executable edges: over the named programs' graph tiers it must
# allocate at most a tenth of the bytes the boxed reference fold does.
detect_out=$(go test -run '^$' -bench '^BenchmarkDetect$' -benchmem -benchtime 2x ./internal/feasible/)
echo "$detect_out"
echo "$detect_out" | awk '
    /BenchmarkDetect\/packed-/    { for (i = 1; i < NF; i++) if ($(i+1) == "B/op") pb = $i }
    /BenchmarkDetect\/reference-/ { for (i = 1; i < NF; i++) if ($(i+1) == "B/op") rb = $i }
    END {
        if (pb == "" || rb == "") { print "detect gate: BenchmarkDetect lines missing" > "/dev/stderr"; exit 1 }
        if (pb * 10 > rb) { printf "detect gate: packed %s B/op, reference %s B/op; want at most a tenth\n", pb, rb > "/dev/stderr"; exit 1 }
    }'

echo "== codec gate"
# Decoding a constant-propagation solution from disk validates the kind
# column once and copies it into a fresh arena: the same bundle shape at
# 10 and at 1000 nodes must allocate equally often.
codec_out=$(go test -run '^$' -bench '^BenchmarkDecodeSolution$' -benchmem -benchtime 200x ./internal/engine/diskcache/)
echo "$codec_out"
echo "$codec_out" | awk '
    /BenchmarkDecodeSolution\/nodes=10-/   { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") sa = $i }
    /BenchmarkDecodeSolution\/nodes=1000-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") la = $i }
    END {
        if (sa == "" || la == "") { print "codec gate: BenchmarkDecodeSolution lines missing" > "/dev/stderr"; exit 1 }
        if (sa != la) { printf "codec gate: allocs/op %s at 10 nodes, %s at 1000\n", sa, la > "/dev/stderr"; exit 1 }
    }'

echo "== client gate"
# The liveness and available-expressions results keep their solver's
# rows instead of boxing a fact per node: a one-shot solve of a generated
# function at about 10 and at about 1000 nodes must allocate equally
# often.
client_out=$(go test -run '^$' -bench '^BenchmarkClientSolve$' -benchmem -benchtime 200x ./internal/liveness/)
echo "$client_out"
echo "$client_out" | awk '
    /BenchmarkClientSolve\/nodes=12-/  { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") sa = $i }
    /BenchmarkClientSolve\/nodes=996-/ { for (i = 1; i < NF; i++) if ($(i+1) == "allocs/op") la = $i }
    END {
        if (sa == "" || la == "") { print "client gate: BenchmarkClientSolve lines missing" > "/dev/stderr"; exit 1 }
        if (sa != la) { printf "client gate: allocs/op %s at 12 nodes, %s at 996\n", sa, la > "/dev/stderr"; exit 1 }
    }'

echo "== tier gate"
# A hot path graph and its reduction alias the original function's
# blocks instead of copying them: building both for the same generated
# function with every block at 1 and at 64 instructions must allocate
# the same bytes, equally often. Each size runs three times and the
# gate reads each size's smallest figures, since an allocation the
# runtime makes while a run is timed only ever adds to them.
tier_out=$(go test -run '^$' -bench '^BenchmarkTierBuild$' -benchmem -benchtime 2000x -count 3 ./internal/trace/)
echo "$tier_out"
echo "$tier_out" | awk '
    function low(cur, v) { return (cur == "" || v + 0 < cur + 0) ? v : cur }
    /BenchmarkTierBuild\/instrs=1-/  { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") sb = low(sb, $i); if ($(i+1) == "allocs/op") sa = low(sa, $i) } }
    /BenchmarkTierBuild\/instrs=64-/ { for (i = 1; i < NF; i++) { if ($(i+1) == "B/op") lb = low(lb, $i); if ($(i+1) == "allocs/op") la = low(la, $i) } }
    END {
        if (sa == "" || la == "") { print "tier gate: BenchmarkTierBuild lines missing" > "/dev/stderr"; exit 1 }
        if (sa != la) { printf "tier gate: allocs/op %s at 1 instruction a block, %s at 64\n", sa, la > "/dev/stderr"; exit 1 }
        if (sb != lb) { printf "tier gate: B/op %s at 1 instruction a block, %s at 64\n", sb, lb > "/dev/stderr"; exit 1 }
    }'

tmpdir=$(mktemp -d)
cleanup() {
    [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null
    [ -n "$watch_pid" ] && kill "$watch_pid" 2>/dev/null
    rm -rf "$tmpdir"
}
trap cleanup EXIT
go build -o "$tmpdir/pathflow" ./cmd/pathflow

echo "== check smoke"
# The precision differential oracle must hold end-to-end: every
# constprop/interval/liveness/availexpr fact on the HPG and the rHPG is
# pointwise at least as precise as the CFG's. Non-zero exit on any
# violation.
"$tmpdir/pathflow" check -q -src examples/hotpath.pf -args 500 || {
    echo "check smoke: oracle violation in examples/hotpath.pf" >&2; exit 1; }
for b in compress go ijpeg li m88ksim perl vortex; do
    "$tmpdir/pathflow" check -q "$b" || {
        echo "check smoke: oracle violation in benchmark $b" >&2; exit 1; }
done
# The feasibility axis runs its extended soundness gate over every
# benchmark: masked (infeasible-edge-pruned) facts pointwise at least
# as precise as unmasked on every tier, and no edge the training run
# executed marked infeasible. Once on the default packed kernels for
# the whole suite, then the boxed reference on the benchmark with the
# most detected correlations (m88ksim) so both kernels clear the masked
# solve end to end.
for b in compress go ijpeg li m88ksim perl vortex; do
    "$tmpdir/pathflow" check -q -feasible "$b" || {
        echo "check smoke: feasibility gate violation in benchmark $b" >&2; exit 1; }
done
"$tmpdir/pathflow" check -q -feasible -kernel=boxed m88ksim || {
    echo "check smoke: feasibility gate violation in m88ksim (-kernel=boxed)" >&2; exit 1; }

echo "== baseline smoke"
# Incremental re-analysis end to end: dump a benchmark's source, apply a
# one-block constant edit, and re-analyze against the original as the
# -baseline. The edited function must classify as a body delta that
# replays select/automaton/translate (3 stages) and recomputes 5
# (baseline, trace, analyze, weigh, reduce).
"$tmpdir/pathflow" source li >"$tmpdir/li.pf"
sed 's/heap = 262144;/heap = 262145;/' "$tmpdir/li.pf" >"$tmpdir/edited.pf"
cmp -s "$tmpdir/li.pf" "$tmpdir/edited.pf" && {
    echo "baseline smoke: edit did not change the source" >&2; exit 1; }
"$tmpdir/pathflow" analyze -src "$tmpdir/edited.pf" -baseline "$tmpdir/li.pf" >"$tmpdir/incr.txt"
grep -Eq '^main +body +3 +5 +select,automaton,translate$' "$tmpdir/incr.txt" || {
    echo "baseline smoke: body edit did not replay select/automaton/translate" >&2
    cat "$tmpdir/incr.txt" >&2; exit 1; }
grep -Eq '^eval +none ' "$tmpdir/incr.txt" || {
    echo "baseline smoke: untouched function not classified as none" >&2
    cat "$tmpdir/incr.txt" >&2; exit 1; }

echo "== serve smoke"

# job_result <job json> <outfile>: follow a finished job to its
# deterministic result payload.
job_result() {
    jid=$(sed -n 's/.*"\(job_\)\{0,1\}id": "\([^"]*\)".*/\2/p' "$1" | head -n 1)
    [ -n "$jid" ] || { echo "smoke: no job id in $1" >&2; cat "$1" >&2; exit 1; }
    curl -fsS "http://$addr/v1/jobs/$jid/result" >"$2" || {
        echo "smoke: fetching result of $jid failed" >&2; exit 1; }
}

# start_serve <logfile> [flags...]: launch the daemon on an ephemeral
# port with the given extra flags and set $serve_pid/$addr once it is
# listening.
start_serve() {
    serve_log=$1
    shift
    # Create the log before the daemon does: the background job opens
    # its redirect only once it is scheduled, and under set -e a sed on
    # a missing file would end the script.
    : >"$serve_log"
    "$tmpdir/pathflow" serve -addr 127.0.0.1:0 "$@" >"$serve_log" 2>&1 &
    serve_pid=$!
    addr=""
    i=0
    while [ $i -lt 100 ]; do
        addr=$(sed -n 's|.*listening on http://||p' "$serve_log")
        [ -n "$addr" ] && break
        sleep 0.1
        i=$((i + 1))
    done
    if [ -z "$addr" ]; then
        echo "serve smoke: daemon never listened" >&2
        cat "$serve_log" >&2
        exit 1
    fi
}

# stop_serve <logfile>: SIGINT-drain the daemon and check clean exit.
stop_serve() {
    kill -INT "$serve_pid"
    wait "$serve_pid" || { echo "serve smoke: daemon exited nonzero" >&2; exit 1; }
    grep -q "drained, bye" "$1" || {
        echo "serve smoke: daemon did not drain cleanly" >&2
        cat "$1" >&2; exit 1; }
    serve_pid=""
}

start_serve "$tmpdir/serve.log" -cachedir "$tmpdir/cache"
curl -fsS "http://$addr/healthz" | grep -q '"status": "ok"' || {
    echo "serve smoke: /healthz not ok" >&2; exit 1; }
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" \
    -H 'Content-Type: application/json' \
    -d '{"program": "compress"}' >"$tmpdir/job.json"
grep -q '"state": "done"' "$tmpdir/job.json" || {
    echo "serve smoke: analyze round-trip did not finish 'done'" >&2
    cat "$tmpdir/job.json" >&2; exit 1; }
grep -q '"qualified": true' "$tmpdir/job.json" || {
    echo "serve smoke: analysis result lost qualification" >&2; exit 1; }
# A repeated identical request must be served from the shared cache.
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" \
    -H 'Content-Type: application/json' \
    -d '{"program": "compress"}' >"$tmpdir/repeat.json"
grep -q '"profile_cached": true' "$tmpdir/repeat.json" || {
    echo "serve smoke: repeat request missed the shared cache" >&2
    cat "$tmpdir/repeat.json" >&2; exit 1; }
job_result "$tmpdir/job.json" "$tmpdir/job_result.json"
stop_serve "$tmpdir/serve.log"

# Restart the daemon on the same -cachedir: the repeat request must
# warm-start from the persistent tier, visible both in the job metrics
# (stage_disk_hits) and the Prometheus disk-hit counter, and its result
# must equal the first daemon's byte for byte: the HPG is rebuilt, not
# read, so this checks that the decoded bundles attach to the rebuilt
# graph and give the same facts.
start_serve "$tmpdir/serve2.log" -cachedir "$tmpdir/cache"
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" \
    -H 'Content-Type: application/json' \
    -d '{"program": "compress"}' >"$tmpdir/job2.json"
grep -q '"state": "done"' "$tmpdir/job2.json" || {
    echo "serve smoke: post-restart analyze did not finish 'done'" >&2
    cat "$tmpdir/job2.json" >&2; exit 1; }
grep -q '"stage_disk_hits"' "$tmpdir/job2.json" || {
    echo "serve smoke: restarted daemon recomputed instead of reading the cache dir" >&2
    cat "$tmpdir/job2.json" >&2; exit 1; }
curl -fsS "http://$addr/metrics" >"$tmpdir/metrics.txt"
hits=$(sed -n 's/^pathflow_diskcache_hits_total //p' "$tmpdir/metrics.txt")
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "serve smoke: pathflow_diskcache_hits_total is ${hits:-missing} after restart" >&2
    exit 1
fi
job_result "$tmpdir/job2.json" "$tmpdir/job2_result.json"
cmp -s "$tmpdir/job_result.json" "$tmpdir/job2_result.json" || {
    echo "serve smoke: restarted daemon's result differs from the first daemon's" >&2
    diff "$tmpdir/job_result.json" "$tmpdir/job2_result.json" >&2 || true; exit 1; }
stop_serve "$tmpdir/serve2.log"

echo "== streaming smoke"
# Streaming ingestion end to end: warm a daemon's cache with a plain
# analyze, stream a hot-set-flipping counter batch into POST
# /v1/profiles, and require (a) the ingest response to flag the drifted
# function for requalification, (b) the drift counters to surface in
# /metrics, (c) the next live analyze to replay cached stages while
# recomputing the flipped function, and (d) its result bytes to equal a
# cold live analyze on a fresh daemon fed the same merged profile.
start_serve "$tmpdir/stream.log" -cachedir "$tmpdir/streamcache"
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" -H 'Content-Type: application/json' \
    -d '{"program": "compress"}' >"$tmpdir/swarm.json"
grep -q '"state": "done"' "$tmpdir/swarm.json" || {
    echo "streaming smoke: warm analyze did not finish 'done'" >&2
    cat "$tmpdir/swarm.json" >&2; exit 1; }
# Pick the flip target from the live state: the coldest path (last in
# the hot->cold ordering) of a function with at least two trained paths.
curl -fsS "http://$addr/v1/profiles?program=compress" >"$tmpdir/sstate.json"
flip=$(sed -n 's/.*"func": "\([^"]*\)".*/F \1/p; s/.*"num_paths": \([0-9]*\).*/N \1/p; s/.*"path": "\([^"]*\)".*/P \1/p' "$tmpdir/sstate.json" |
    awk '$1=="F"{fn=$2; np=0} $1=="N"{np=$2} $1=="P" && np>=2 {f=fn; p=$2} END{print f, p}')
flip_fn=${flip% *}
flip_path=${flip#* }
[ -n "$flip_fn" ] && [ -n "$flip_path" ] || {
    echo "streaming smoke: no multi-path function in compress state" >&2
    cat "$tmpdir/sstate.json" >&2; exit 1; }
ingest="{\"program\": \"compress\", \"agent\": \"ci\", \"funcs\": [{\"func\": \"$flip_fn\", \"seq\": 1, \"paths\": [{\"path\": \"$flip_path\", \"count\": 50000000}]}]}"
curl -fsS -X POST "http://$addr/v1/profiles" -H 'Content-Type: application/json' \
    -d "$ingest" >"$tmpdir/singest.json"
grep -q '"applied": 1' "$tmpdir/singest.json" || {
    echo "streaming smoke: delta batch did not apply" >&2
    cat "$tmpdir/singest.json" >&2; exit 1; }
grep -q '"requalify": true' "$tmpdir/singest.json" || {
    echo "streaming smoke: hot-set flip not flagged for requalification" >&2
    cat "$tmpdir/singest.json" >&2; exit 1; }
curl -fsS "http://$addr/metrics" >"$tmpdir/smetrics.txt"
for counter in pathflow_profile_ingest_total pathflow_drift_requalify_total; do
    n=$(sed -n "s/^$counter //p" "$tmpdir/smetrics.txt")
    if [ -z "$n" ] || [ "$n" -eq 0 ]; then
        echo "streaming smoke: $counter is ${n:-missing} after ingest" >&2
        exit 1
    fi
done
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" -H 'Content-Type: application/json' \
    -d '{"program": "compress", "live": true}' >"$tmpdir/slive.json"
grep -q '"state": "done"' "$tmpdir/slive.json" || {
    echo "streaming smoke: live analyze did not finish 'done'" >&2
    cat "$tmpdir/slive.json" >&2; exit 1; }
hits=$(sed -n 's/.*"stage_cache_hits": \([0-9]*\).*/\1/p' "$tmpdir/slive.json" | head -n 1)
if [ -z "$hits" ] || [ "$hits" -eq 0 ]; then
    echo "streaming smoke: live analyze replayed no stages (stage_cache_hits ${hits:-missing})" >&2
    cat "$tmpdir/slive.json" >&2; exit 1
fi
job_result "$tmpdir/slive.json" "$tmpdir/slive_result.json"
stop_serve "$tmpdir/stream.log"
# Cold reference: a fresh daemon (empty cache dir) fed the same delta
# must produce byte-identical live-analysis results with nothing to
# replay — requalification changes cost, never answers.
start_serve "$tmpdir/stream2.log" -cachedir "$tmpdir/streamcache2"
curl -fsS -X POST "http://$addr/v1/profiles" -H 'Content-Type: application/json' \
    -d "$ingest" >"$tmpdir/singest2.json"
grep -q '"applied": 1' "$tmpdir/singest2.json" || {
    echo "streaming smoke: cold daemon rejected the delta batch" >&2
    cat "$tmpdir/singest2.json" >&2; exit 1; }
curl -fsS -X POST "http://$addr/v1/analyze?wait=1" -H 'Content-Type: application/json' \
    -d '{"program": "compress", "live": true}' >"$tmpdir/scold.json"
grep -q '"state": "done"' "$tmpdir/scold.json" || {
    echo "streaming smoke: cold live analyze did not finish 'done'" >&2
    cat "$tmpdir/scold.json" >&2; exit 1; }
job_result "$tmpdir/scold.json" "$tmpdir/scold_result.json"
cmp -s "$tmpdir/slive_result.json" "$tmpdir/scold_result.json" || {
    echo "streaming smoke: requalified result differs from cold live analysis" >&2
    diff "$tmpdir/slive_result.json" "$tmpdir/scold_result.json" >&2 || true; exit 1; }
stop_serve "$tmpdir/stream2.log"

echo "== watch smoke"
# Watch-mode continuous re-analysis end to end: start `pathflow watch`
# on a dumped benchmark source with -rounds 1, apply the baseline
# smoke's one-block constant edit while it polls, and require the edit
# round to classify the edited function as a body delta (recomputing
# stages) while an untouched function replays everything ('none').
"$tmpdir/pathflow" source li >"$tmpdir/watch.pf"
"$tmpdir/pathflow" watch -src "$tmpdir/watch.pf" -interval 100ms -rounds 1 >"$tmpdir/watch.txt" 2>&1 &
watch_pid=$!
i=0
while [ $i -lt 100 ]; do
    grep -q "^0 " "$tmpdir/watch.txt" && break
    sleep 0.1
    i=$((i + 1))
done
grep -q "^0 " "$tmpdir/watch.txt" || {
    echo "watch smoke: initial cold round never reported" >&2
    cat "$tmpdir/watch.txt" >&2; kill "$watch_pid" 2>/dev/null; exit 1; }
sed 's/heap = 262144;/heap = 262145;/' "$tmpdir/watch.pf" >"$tmpdir/watch_edit.pf"
mv "$tmpdir/watch_edit.pf" "$tmpdir/watch.pf"
wait "$watch_pid" || {
    echo "watch smoke: watch exited nonzero" >&2
    cat "$tmpdir/watch.txt" >&2; exit 1; }
watch_pid=""
grep -Eq '^1 +main +body ' "$tmpdir/watch.txt" || {
    echo "watch smoke: edit round did not classify main as a body delta" >&2
    cat "$tmpdir/watch.txt" >&2; exit 1; }
grep -Eq '^1 +[a-z]+ +none +- ' "$tmpdir/watch.txt" || {
    echo "watch smoke: no untouched function replayed as 'none'" >&2
    cat "$tmpdir/watch.txt" >&2; exit 1; }

echo "ci.sh: all gates passed"
