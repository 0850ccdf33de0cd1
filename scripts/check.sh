#!/bin/sh
# Full local verification: static checks, build, the race-instrumented
# test suite, and a fuzz smoke pass over every fuzz target. This is what
# CI would run; it needs only the Go toolchain.
#
# Usage:  ./scripts/check.sh            # everything (a few minutes)
#         FUZZTIME=30s ./scripts/check.sh   # longer fuzz smoke
set -eu

cd "$(dirname "$0")/.."
FUZZTIME="${FUZZTIME:-10s}"

echo "==> go vet ./..."
go vet ./...

echo "==> go vet ./cmd/..."
go vet ./cmd/...

echo "==> go build ./..."
go build ./...

echo "==> go test -race ./..."
go test -race ./...

# The benchmark harness is a module of its own, compiled against
# internal/ through `replace repro => ../`, so the `./...` patterns above
# never build it: vet and test it here, or an internal API change could
# break the benchmark with no signal.
echo "==> (cd perfbench && go vet ./... && go test ./...)"
(cd perfbench && go vet ./... && go test ./...)

# Race stress for the engines' hand-offs: repeat the tests that drive the
# mailbox protocol the three transports share (Post/Take hand-offs,
# draining a dead peer's stream before its death shows, barrier
# Park/Unpark with early Unparks, Abort unwinding blocked ranks, one
# allocation per DES message) and the rank-to-rank hand-offs of the
# symbolic scheduler and the DES kernel (deadlock unwinding, no rank
# goroutine left behind), plus the whole kernel suite, so a rare
# interleaving gets many tries. The recovery supervisor's tests ride
# along, in mpi and through every workload: each attempt's result folds
# into the one mpi.Result a recovered or abandoned run reports. So do
# the memo cache's cancellation tests: a computation canceled mid-flight
# must leave the table before its waiters wake, on the cache alone and
# through the executor.
echo "==> go test -race -count=20 (engine stress) ./internal/mpi ./internal/workload ./internal/des ./internal/runner ./internal/spec"
go test -race -count=20 -run 'Live|Crash|Barrier|Abort|Differential|Panic|ProgramError|Symbolic|Deadlock|Leak|Mailbox|DESMessage' ./internal/mpi
go test -race -count=20 -run 'Recover|Checkpoint' ./internal/mpi ./internal/workload
go test -race -count=20 ./internal/des
go test -race -count=20 -run 'Canceled' ./internal/runner ./internal/spec

# Order-independence smoke: the suite must pass with tests shuffled —
# scheduler and cache state must not leak between tests. Go prints the
# chosen shuffle seed, so a failure is reproducible from the log.
echo "==> go test -shuffle=on ./..."
go test -shuffle=on -count=1 ./...

# Benchmark compile smoke: every benchmark must still build and survive
# one iteration (benchmarks are not run by plain `go test`, so bit-rot
# there is otherwise invisible).
echo "==> go test -run=NONE -bench=. -benchtime=1x ./..."
go test -run=NONE -bench=. -benchtime=1x ./... > /dev/null

JSDIR="$(mktemp -d)"
trap 'rm -rf "$JSDIR"' EXIT

# Parallel-runner smoke: the full quick batch on four race-instrumented
# workers must run clean and print exactly the pinned quick.golden bytes
# (TestParallelOutputByteIdentical above asserts the same at -jobs 1 and
# 4 on every engine; this exercises the real binary end to end). The
# sweeps send shared Blank payloads on every engine, so a rank that wrote
# into one would race here.
for eng in live symbolic; do
	echo "==> hetsim -exp all -quick -jobs 4 -engine $eng (race smoke, quick.golden bytes)"
	go run -race ./cmd/hetsim -exp all -quick -jobs 4 -engine "$eng" -v > "$JSDIR/quick-$eng.out"
	cmp "$JSDIR/quick-$eng.out" cmd/hetsim/testdata/quick.golden || { echo "quick $eng bytes differ from quick.golden"; exit 1; }
done

# Multi-tenant smoke: the jobstream experiment must run clean under the
# race detector on every engine and print the same bytes each time (the
# shared-clock scheduler is deterministic by construction).
echo "==> hetsim -exp jobstream (race smoke, engine byte-identity)"
for eng in des live symbolic; do
	go run -race ./cmd/hetsim -exp jobstream -quick -engine "$eng" > "$JSDIR/$eng.out"
done
cmp "$JSDIR/des.out" "$JSDIR/live.out" || { echo "jobstream live bytes differ from des"; exit 1; }
cmp "$JSDIR/des.out" "$JSDIR/symbolic.out" || { echo "jobstream symbolic bytes differ from des"; exit 1; }

# Faulted-jobstream smoke: same contract under the node-outage schedule —
# lease healing, rollback recovery, retries and admission control must
# all land on identical bytes across engines under the race detector.
echo "==> hetsim -exp jobstream-faults (race smoke, engine byte-identity)"
for eng in des live symbolic; do
	go run -race ./cmd/hetsim -exp jobstream-faults -quick -engine "$eng" > "$JSDIR/faults-$eng.out"
done
cmp "$JSDIR/faults-des.out" "$JSDIR/faults-live.out" || { echo "jobstream-faults live bytes differ from des"; exit 1; }
cmp "$JSDIR/faults-des.out" "$JSDIR/faults-symbolic.out" || { echo "jobstream-faults symbolic bytes differ from des"; exit 1; }

# Job-stream trace determinism: the trace holds each distinct inner run
# once per experiment call (the inner-run memo is shared across the
# experiment's Simulate calls), and its bytes must not depend on the
# worker count.
echo "==> hetsim -exp jobstream-faults -trace (trace bytes independent of -jobs)"
for jobs in 1 4; do
	go run -race ./cmd/hetsim -exp jobstream-faults -quick -engine des -jobs "$jobs" \
		-trace "$JSDIR/faults-trace-$jobs.json" > /dev/null
done
cmp "$JSDIR/faults-trace-1.json" "$JSDIR/faults-trace-4.json" || { echo "jobstream-faults trace differs between -jobs 1 and -jobs 4"; exit 1; }

# Elastic-membership smoke: the autoscaler-vs-fixed comparison must land
# on identical bytes across engines under the race detector — planned
# drains/joins, graceful shrink and the windowed E_s controller included.
echo "==> hetsim -exp elastic (race smoke, engine byte-identity)"
for eng in des live symbolic; do
	go run -race ./cmd/hetsim -exp elastic -quick -engine "$eng" > "$JSDIR/elastic-$eng.out"
done
cmp "$JSDIR/elastic-des.out" "$JSDIR/elastic-live.out" || { echo "elastic live bytes differ from des"; exit 1; }
cmp "$JSDIR/elastic-des.out" "$JSDIR/elastic-symbolic.out" || { echo "elastic symbolic bytes differ from des"; exit 1; }

# Composed-spec smoke: one jobstream spec sets every section — the
# elastic experiment's stream and autoscaler, seeded node outages,
# admission control and a node-0 drain/join plan (the spec behind the
# composed golden) — and must render the fault study followed by the
# elastic study, clean under the race detector and byte-identical on
# every engine.
echo "==> hetsim -spec composed jobstream (race smoke, engine byte-identity)"
for eng in des live symbolic; do
	sed "s/\"engine\": \"symbolic\"/\"engine\": \"$eng\"/" cmd/hetsim/testdata/composed.json > "$JSDIR/composed-$eng.json"
	go run -race ./cmd/hetsim -spec "$JSDIR/composed-$eng.json" > "$JSDIR/composed-$eng.out"
done
grep -q "^Job-stream faults:" "$JSDIR/composed-des.out" && grep -q "^Elastic:" "$JSDIR/composed-des.out" || { echo "composed spec did not render both studies"; exit 1; }
cmp "$JSDIR/composed-des.out" "$JSDIR/composed-live.out" || { echo "composed live bytes differ from des"; exit 1; }
cmp "$JSDIR/composed-des.out" "$JSDIR/composed-symbolic.out" || { echo "composed symbolic bytes differ from des"; exit 1; }

# Server smoke: a race-instrumented `hetsim -serve` on a random port
# must answer a POSTed quick spec with exactly the bytes the CLI prints
# for the same spec — the RunSpec API's core contract, end to end over
# a real socket.
echo "==> hetsim -serve (race smoke: server bytes == CLI bytes)"
SMOKEDIR="$(mktemp -d)"
trap 'rm -rf "$JSDIR" "$SMOKEDIR"; kill "${SERVER_PID:-}" 2>/dev/null || true' EXIT
go build -race -o "$SMOKEDIR/hetsim" ./cmd/hetsim
"$SMOKEDIR/hetsim" -serve 127.0.0.1:0 -jobs 4 2> "$SMOKEDIR/serve.err" &
SERVER_PID=$!
ADDR=""
for _ in $(seq 1 50); do
	ADDR="$(sed -n 's#^hetsim: serving on http://##p' "$SMOKEDIR/serve.err")"
	[ -n "$ADDR" ] && break
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "server never announced its address"; exit 1; }
SPEC='{"kind":"experiments","experiments":"table2","quick":true}'
curl -sf -X POST --data-binary "$SPEC" "http://$ADDR/run" > "$SMOKEDIR/server.out"
"$SMOKEDIR/hetsim" -exp table2 -quick > "$SMOKEDIR/cli.out"
cmp "$SMOKEDIR/server.out" "$SMOKEDIR/cli.out" || { echo "server bytes differ from CLI bytes"; exit 1; }
"$SMOKEDIR/hetsim" -exp table2 -quick -client "http://$ADDR" > "$SMOKEDIR/client.out"
cmp "$SMOKEDIR/client.out" "$SMOKEDIR/cli.out" || { echo "-client bytes differ from CLI bytes"; exit 1; }
JSPEC='{"kind":"jobstream"}'
printf '%s' "$JSPEC" > "$SMOKEDIR/jobstream.json"
curl -sf -X POST --data-binary "$JSPEC" "http://$ADDR/run" > "$SMOKEDIR/server-js.out"
"$SMOKEDIR/hetsim" -spec "$SMOKEDIR/jobstream.json" > "$SMOKEDIR/cli-js.out"
cmp "$SMOKEDIR/server-js.out" "$SMOKEDIR/cli-js.out" || { echo "jobstream server bytes differ from -spec bytes"; exit 1; }
curl -sf "http://$ADDR/healthz" > /dev/null
kill "$SERVER_PID"; wait "$SERVER_PID" 2>/dev/null || true
SERVER_PID=""

# Fuzz smoke: each target runs for a short budget; any crasher fails the
# pass. Go only allows one fuzz target per invocation, so enumerate them.
for pkgfn in \
	./internal/cluster:FuzzParseLadder \
	./internal/faults:FuzzParseSpec \
	./internal/faults:FuzzInjectorDropSend \
	./internal/des:FuzzKernelOrder \
	./internal/numeric:FuzzPolyFitNeverPanicsAndInterpolates \
	./internal/numeric:FuzzBrentFindsBracketedRoots \
	./internal/mpi:FuzzSymbolicVsDESPrograms \
	./internal/workload:FuzzSymbolicVsDESWorkloads \
	./internal/workload:FuzzBandRanges \
	./internal/job:FuzzJobStreamFaults \
	./internal/job:FuzzMembershipPlan \
	./internal/spec:FuzzRunSpec \
	./internal/serve:FuzzServe \
; do
	pkg="${pkgfn%%:*}"
	fn="${pkgfn##*:}"
	echo "==> go test $pkg -fuzz=^$fn\$ -fuzztime=$FUZZTIME"
	go test "$pkg" -run "^$fn\$" -fuzz "^$fn\$" -fuzztime "$FUZZTIME"
done

echo "==> all checks passed"
