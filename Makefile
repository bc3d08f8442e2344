GO ?= go

# Packages whose tests exercise the concurrent engine; the -race job keeps
# the determinism/race-cleanliness guarantees honest without paying for a
# race-instrumented full-scale table regeneration (the experiments and
# autotune packages only race-run their determinism tests for that reason).
RACE_PKGS = ./internal/engine/ ./internal/runner/ ./internal/sim/ ./internal/xmem/ ./internal/service/ ./internal/stream/ ./internal/limit/ ./internal/loadgen/ ./internal/faults/ ./internal/client/ ./internal/cluster/ ./internal/trace/ ./internal/brownout/

# Fuzz targets get a short deterministic smoke in CI; run them longer by hand
# with, e.g., go test ./internal/tracefile -fuzz FuzzParse -fuzztime 5m.
FUZZTIME ?= 10s

.PHONY: all vet build test race test-chaos bench bench-stream bench-json perf perf-compare fuzz lint check leftovers scoreboard loadtest cluster-demo trace-demo brownout-demo

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short $(RACE_PKGS)
	$(GO) test -race -run 'Determin' ./internal/experiments/ ./internal/autotune/

# test-chaos drives llserved's full handler stack under a fixed-seed fault
# storm (injected latency/errors/panics at every site) with the resilient
# client, under the race detector: every request must eventually succeed,
# every limiter slot must come back, and no goroutine may leak. The panic
# regressions of both binaries' envelope ride along because a leaked slot
# or a severed connection is the chaos failure mode.
# CHAOS_COUNT > 1 turns this into a soak (see .github/workflows/soak.yml).
# The second step repeats exactly the two tests that kept tier-1 red for
# three rounds (a vacuous owner bounce, a ladder held up by a phantom
# n_avg), so a relapse is loud without multiplying the whole -race storm.
CHAOS_COUNT ?= 1
test-chaos:
	$(GO) test -race -count $(CHAOS_COUNT) -timeout 15m \
		-run 'TestChaos|TestFaultsDisabledIsNoOp|HandlerPanic' \
		./internal/service/ ./internal/cluster/ ./internal/brownout/
	$(GO) test -count=5 -run 'TestChaosRollingRestart|TestChaosLadderRecoversToFull' \
		./internal/cluster/ ./internal/brownout/

bench:
	$(GO) test -run xxx -bench . -benchtime 1x ./...

# bench-stream exercises the monitor hot paths (window push, broker
# fan-out at 1/8/64 subscribers) with real iteration counts.
bench-stream:
	$(GO) test -run 'Allocs' -bench 'BenchmarkWindowPush|BenchmarkFanout' ./internal/stream/

# bench-json runs the macro simulation benchmark and renders it as JSON so
# PRs can commit a perf trajectory (BENCH_baseline.json) and diff against
# it. Usage: make bench-json > BENCH_current.json
BENCH_COUNT ?= 3
bench-json:
	@$(GO) test -run '^$$' -bench BenchmarkRun -benchmem -benchtime 10x -count $(BENCH_COUNT) ./internal/sim/ \
	| awk 'BEGIN { print "[" } \
	  /^BenchmarkRun\// { \
	    split($$1, parts, "/"); sub(/-[0-9]+$$/, "", parts[2]); \
	    if (n++) printf ",\n"; \
	    printf "  {\"bench\": \"%s\", \"iters\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}", \
	      parts[2], $$2, $$3, $$5, $$7 } \
	  END { print "\n]" }'

# perf runs the system benchmark BENCHMARK.json declares — its three serving
# workloads, each in a fresh process, ~37 s a run — through the command the
# benchmark names, appending one result line per workload to PERF_OUT.
# perf-compare holds two such files against BENCHMARK.json's bounds and
# exits 1 when B regressed: make perf PERF_OUT=a.json on one commit,
# PERF_OUT=b.json on the other, then make perf-compare A=a.json B=b.json.
# PERF_TRACE=1 gives the per-layer rows (bench/README.md) instead. Each run
# is cut off after 150 s, so a hung run cannot outlive the caller.
PERF_OUT ?= perf.json
PERF_SEED ?= 42
PERF_TRACE ?= 0
perf:
	@rm -f $(PERF_OUT)
	@for w in hit_serve miss_serve fleet_zipf; do \
		timeout 150 bash bench/run.sh --workload $$w --seed $(PERF_SEED) --trace $(PERF_TRACE) -out $(PERF_OUT) || exit 1; \
	done

perf-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make perf-compare A=a.json B=b.json"; exit 2; }
	bash bench/run.sh -compare $(A) $(B)

# lint runs the static analyzers CI runs; both tools are optional locally
# (install with go install honnef.co/go/tools/cmd/staticcheck@latest and
# go install golang.org/x/vuln/cmd/govulncheck@latest).
lint:
	@command -v staticcheck >/dev/null && staticcheck ./... || echo "staticcheck not installed; skipping"
	@command -v govulncheck >/dev/null && govulncheck ./... || echo "govulncheck not installed; skipping"

fuzz:
	$(GO) test ./internal/tracefile/ -run '^$$' -fuzz FuzzParse -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/service/ -run '^$$' -fuzz FuzzNormalizeTableID -fuzztime $(FUZZTIME)

# loadtest demonstrates the admission controller end to end: llserved with a
# deliberately small ceiling is driven open-loop at LOADTEST_RATE req/s with a
# simulated-workload analyze (~45ms each, so ceiling 4 caps capacity near
# 90/s), so the summary should show 429 sheds with Retry-After hints alongside
# admitted requests that stay fast. The server is built (not `go run`) so the
# kill lands on the real process.
LOADTEST_ADDR ?= 127.0.0.1:8137
LOADTEST_RATE ?= 400
LOADTEST_DURATION ?= 5s

loadtest:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/llserved ./cmd/llload || { rm -rf $$tmp; exit 1; }; \
	$$tmp/llserved -addr $(LOADTEST_ADDR) -paper-profiles -limit-ceiling 4 -limit-queue 8 -limit-queue-timeout 50ms & \
	srv=$$!; trap 'kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; rm -rf '"$$tmp" EXIT; \
	sleep 1; \
	$$tmp/llload -url http://$(LOADTEST_ADDR)/v1/analyze -mode open \
		-rate $(LOADTEST_RATE) -duration $(LOADTEST_DURATION) \
		-body '{"platform":"SKL","workload":"ISx","scale":0.02}'; \
	code=$$?; \
	curl -sf http://$(LOADTEST_ADDR)/metrics | grep '^llserved_limiter' || true; \
	exit $$code

# cluster-demo boots the scale-out tier end to end: three llserved backends
# behind llproxy, driven closed-loop through the proxy (one analysis identity,
# so affinity pins it all to its ring owner — visible in the per-backend
# metrics), then a direct multi-target round-robin pass for contrast, and
# finally the proxy's per-backend view from /metrics. Like loadtest, binaries
# are real builds so the kills land on real processes.
CLUSTER_PORT ?= 8140
CLUSTER_DURATION ?= 5s

cluster-demo:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/llserved ./cmd/llproxy ./cmd/llload || { rm -rf $$tmp; exit 1; }; \
	pids=""; \
	for i in 1 2 3; do \
		$$tmp/llserved -addr 127.0.0.1:$$(( $(CLUSTER_PORT) + i )) -paper-profiles & \
		pids="$$pids $$!"; \
	done; \
	$$tmp/llproxy -addr 127.0.0.1:$(CLUSTER_PORT) \
		-backends http://127.0.0.1:$$(( $(CLUSTER_PORT) + 1 )),http://127.0.0.1:$$(( $(CLUSTER_PORT) + 2 )),http://127.0.0.1:$$(( $(CLUSTER_PORT) + 3 )) & \
	pids="$$pids $$!"; \
	trap 'kill '"$$pids"' 2>/dev/null; wait '"$$pids"' 2>/dev/null; rm -rf '"$$tmp" EXIT; \
	sleep 1; \
	echo "== through llproxy (affinity routing) =="; \
	$$tmp/llload -url http://127.0.0.1:$(CLUSTER_PORT)/v1/analyze -c 8 -duration $(CLUSTER_DURATION) \
		-body '{"platform":"KNL","workload":"ISx","scale":0.02}'; \
	code=$$?; \
	echo "== direct to the fleet (llload -targets round-robin) =="; \
	$$tmp/llload -targets http://127.0.0.1:$$(( $(CLUSTER_PORT) + 1 ))/v1/analyze,http://127.0.0.1:$$(( $(CLUSTER_PORT) + 2 ))/v1/analyze,http://127.0.0.1:$$(( $(CLUSTER_PORT) + 3 ))/v1/analyze \
		-c 8 -duration $(CLUSTER_DURATION) -body '{"platform":"KNL","workload":"ISx","scale":0.02}'; \
	echo "== llproxy per-backend view =="; \
	curl -sf http://127.0.0.1:$(CLUSTER_PORT)/metrics | grep -E '^llproxy_(backend|requests|affinity|hedges|failovers)' || true; \
	exit $$code

# brownout-demo pushes llserved past its ceiling hard enough to climb the
# brownout ladder: a deliberately small ceiling, a short runner TTL (so
# expired cache entries exist for B1 stale serving), and a 4x-capacity
# open-loop drive. The llload summary splits goodput into full-fidelity vs
# degraded (stale/analytic) answers, and the controller's own view — rung,
# transitions, time-in-mode — comes from /v1/brownout and /metrics.
BROWNOUT_ADDR ?= 127.0.0.1:8142
BROWNOUT_RATE ?= 400
BROWNOUT_DURATION ?= 6s

brownout-demo:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/llserved ./cmd/llload || { rm -rf $$tmp; exit 1; }; \
	$$tmp/llserved -addr $(BROWNOUT_ADDR) -paper-profiles -limit-ceiling 4 -limit-queue 8 \
		-limit-queue-timeout 50ms -runner-ttl 250ms & \
	srv=$$!; trap 'kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; rm -rf '"$$tmp" EXIT; \
	sleep 1; \
	$$tmp/llload -url http://$(BROWNOUT_ADDR)/v1/analyze -mode open \
		-rate $(BROWNOUT_RATE) -duration $(BROWNOUT_DURATION) -retries 2 \
		-body '{"platform":"SKL","workload":"ISx","scale":0.02}'; \
	code=$$?; \
	echo "== GET /v1/brownout =="; \
	curl -sf http://$(BROWNOUT_ADDR)/v1/brownout; echo; \
	echo "== brownout controller metrics =="; \
	curl -sf http://$(BROWNOUT_ADDR)/metrics | grep '^llserved_brownout' || true; \
	exit $$code

# trace-demo shows the per-request latency decomposition end to end: boot
# llserved, drive it briefly with llload (same analysis identity, so the
# slowest request is the cache-miss that paid the sim kernel), then fetch
# that request's waterfall from /v1/trace/{id} and the per-stage
# Little's-Law metrics the trace sink derives.
TRACE_ADDR ?= 127.0.0.1:8141
TRACE_DURATION ?= 3s

trace-demo:
	@tmp=$$(mktemp -d); \
	$(GO) build -o $$tmp/ ./cmd/llserved ./cmd/llload || { rm -rf $$tmp; exit 1; }; \
	$$tmp/llserved -addr $(TRACE_ADDR) -paper-profiles -trace-capacity 1024 & \
	srv=$$!; trap 'kill $$srv 2>/dev/null; wait $$srv 2>/dev/null; rm -rf '"$$tmp" EXIT; \
	sleep 1; \
	$$tmp/llload -url http://$(TRACE_ADDR)/v1/analyze -c 4 -n 1000 -duration $(TRACE_DURATION) \
		-body '{"platform":"SKL","workload":"ISx","scale":0.02}' | tee $$tmp/out; \
	id=$$(sed -n 's/.*slowest request \([0-9a-f]*\) .*/\1/p' $$tmp/out); \
	[ -n "$$id" ] || { echo "trace-demo: no trace id captured"; exit 1; }; \
	echo "== GET /v1/trace/$$id =="; \
	curl -sf http://$(TRACE_ADDR)/v1/trace/$$id; \
	echo "== per-stage Little's Law =="; \
	curl -sf http://$(TRACE_ADDR)/metrics | grep '^llserved_trace_stage' || true

# leftovers fails if a process this repo builds is still alive: a server,
# load generator, tool or test binary stranded by a verification run
# outlives the session (and a server keeps its port). It matches every cmd/
# binary plus bench (go run ./bench) and llbench (bench/run.sh) by process
# name, and any go test binary by argv[0] ending in .test, since the kernel
# truncates the name itself to 15 characters (experiments.test shows up as
# experiments.tes). awk reads only the name and argv[0] columns, so unlike
# pgrep -f it cannot match the checking shell's own command line. It prints
# nothing when clean.
LEFTOVER_NAMES = $(notdir $(wildcard cmd/*)) bench llbench
leftovers:
	@ps -eo pid=,comm=,args= | awk -v names="$(LEFTOVER_NAMES)" ' \
		BEGIN { n = split(names, list, " "); for (i = 1; i <= n; i++) want[list[i]] = 1 } \
		{ k = split($$3, argv0, "/") } \
		want[$$2] || argv0[k] ~ /\.test$$/ { print; found = 1 } \
		END { if (found) { print "leftovers: the processes above are still running; stop them" > "/dev/stderr"; exit 1 } }'

# scoreboard prints the size-and-sediment rows ROADMAP.md's re-anchor table
# tracks, so the next table is generated rather than counted by hand.
scoreboard:
	@gofiles() { git ls-files '*.go' | grep -v '_test\.go$$'; }; \
	echo "non-test Go lines, all:              $$(gofiles | xargs cat | wc -l)"; \
	echo "non-test Go lines, outside bench/:   $$(gofiles | grep -v '^bench/' | xargs cat | wc -l)"; \
	echo "engine.NewLRU sites in product code: $$(gofiles | grep -v '^bench/' | xargs grep -h 'engine\.NewLRU' | wc -l)"; \
	echo "Go files over 1000 lines:            $$(git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" && $$1 > 1000 { printf "%s%s (%d)", sep, $$2, $$1; sep = ", " } END { if (!sep) printf "none" }')"; \
	echo "largest non-test Go file in internal/service, internal/cluster: $$(gofiles | grep -E '^internal/(service|cluster)/' | xargs wc -l | awk '$$2 != "total" && $$1 > n { n = $$1; f = $$2 } END { printf "%s (%d)", f, n }')"; \
	echo "time.Sleep in tests:                 $$(git ls-files '*_test.go' | xargs grep -h 'time\.Sleep(' | wc -l)"; \
	echo "ResponseWriter wrappers, non-test:   $$(gofiles | xargs grep -hE '^\s+http\.ResponseWriter$$' | wc -l)"; \
	echo "X-Content-Type-Options sets, non-test: $$(gofiles | xargs grep -h 'Set("X-Content-Type-Options"' | wc -l)"; \
	echo "direct timer sites, non-test:        $$(gofiles | xargs grep -hE 'time\.(After|AfterFunc|NewTimer|NewTicker|Tick)\(' | wc -l)"

# check is the tier-1 gate plus the race and chaos jobs; leftovers goes last
# so a process any earlier step stranded fails the gate.
check: vet build test race test-chaos leftovers
