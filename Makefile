GO ?= go

# Packages whose tests exercise the concurrent engine; the -race job keeps
# the determinism/race-cleanliness guarantees honest without paying for a
# race-instrumented full-scale table regeneration (the experiments and
# autotune packages only race-run their determinism tests for that reason).
RACE_PKGS = ./internal/engine/ ./internal/runner/ ./internal/sim/ ./internal/xmem/ ./internal/service/ ./internal/stream/ ./internal/limit/ ./internal/loadgen/ ./internal/faults/ ./internal/client/ ./internal/cluster/ ./internal/trace/ ./internal/brownout/

# Fuzz targets get a short deterministic smoke in CI; run them longer by hand
# with, e.g., go test ./internal/tracefile -fuzz FuzzParse -fuzztime 5m.
FUZZTIME ?= 10s

.PHONY: all vet build test repeat race test-chaos bench bench-stream bench-json perf perf-compare fuzz lint check leftovers tier1-time scoreboard loadtest cluster-demo trace-demo brownout-demo

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

# test, race and test-chaos run each go test under timeout -k 10 <budget>,
# as tier1-time does, so a run whose caller was cut off dies on its own. Each
# budget is above the go test -timeout the step already has (the default
# 10m, or test-chaos's 15m; 30 min is also the soak job's limit).
test:
	timeout -k 10 900 $(GO) test ./...

# repeat runs every test twice in one process per package, in shuffled
# order, so a test that leans on state an earlier test (or its own first
# run) left behind fails here. A failing package's output starts with the
# seed (-test.shuffle N) that replays its order. The budget is soak's,
# above go test's 10m per package.
repeat:
	timeout -k 10 1800 $(GO) test -shuffle=on -count=2 ./...

race:
	timeout -k 10 900 $(GO) test -race -short $(RACE_PKGS)
	timeout -k 10 900 $(GO) test -race -run 'Determin' ./internal/experiments/ ./internal/autotune/

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
	timeout -k 10 1800 $(GO) test -race -count $(CHAOS_COUNT) -timeout 15m \
		-run 'TestChaos|TestFaultsDisabledIsNoOp|HandlerPanic' \
		./internal/service/ ./internal/cluster/ ./internal/brownout/
	timeout -k 10 900 $(GO) test -count=5 -run 'TestChaosRollingRestart|TestChaosLadderRecoversToFull' \
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
# is cut off after 150 s, so a hung run cannot outlive the caller. The
# leftovers check runs before the first workload and after the last, also
# after a failed one: a process an earlier command stranded, or one a cut-off
# run left behind, fails the perf run itself instead of skewing it.
PERF_OUT ?= perf.json
PERF_SEED ?= 42
PERF_TRACE ?= 0
perf: leftovers
	@rm -f $(PERF_OUT)
	@status=0; for w in hit_serve miss_serve fleet_zipf; do \
		timeout 150 bash bench/run.sh --workload $$w --seed $(PERF_SEED) --trace $(PERF_TRACE) -out $(PERF_OUT) \
			|| { status=1; break; }; \
	done; $(LEFTOVERS) && exit $$status

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

# leftovers fails if a process this repo builds, or the toolchain building
# it, is still alive: a server, load generator, tool or test binary stranded
# by a verification run outlives the shell that started it (and a server
# keeps its port).
# It matches every cmd/ binary plus bench (go run ./bench) and llbench
# (bench/run.sh) by process name, and any go test binary by argv[0] ending in
# .test, since the kernel truncates the name itself to 15 characters
# (experiments.test shows up as experiments.tes). It also matches go itself
# and the tools it runs (compile, link, asm, vet, cgo): a go test ./... cut
# off between two packages has no .test binary alive, only go, which would
# go on to build and run the rest. It matches pprof and trace too: go tool
# pprof -http and go tool trace leave an HTTP viewer running under those
# names after the profile is read. awk reads only the name and argv[0]
# columns, so unlike pgrep -f it cannot match the checking shell's own
# command line. The names are matched in every directory, not only this
# checkout, because a go test stranded in a second checkout outlives the
# session just the same; so an unrelated go build running beside it trips
# the check too. It prints nothing when clean. LEFTOVERS is the check as one
# shell command, so perf runs it inline.
LEFTOVER_NAMES = $(notdir $(wildcard cmd/*)) bench llbench go compile link asm vet cgo pprof trace
LEFTOVERS = ps -eo pid=,comm=,args= | awk -v names="$(LEFTOVER_NAMES)" ' \
		BEGIN { n = split(names, list, " "); for (i = 1; i <= n; i++) want[list[i]] = 1 } \
		{ k = split($$3, argv0, "/") } \
		want[$$2] || argv0[k] ~ /\.test$$/ { print; found = 1 } \
		END { if (found) { print "leftovers: the processes above are still running; stop them" > "/dev/stderr"; exit 1 } }'
leftovers:
	@$(LEFTOVERS)

# tier1-time runs tier-1 (go test -count=1 ./...) three times and prints
# each package's median time and spread (slowest minus fastest run), slowest
# package first, with one more row for the whole run's wall time. Each run is
# under timeout -k 10 900, so a run whose caller was cut off dies on its own.
# A failing run still counts; its FAIL lines are printed and the target
# exits 1.
tier1-time:
	@tmp=$$(mktemp -d); trap 'rm -rf "'"$$tmp"'"' EXIT; status=0; \
	for i in 1 2 3; do \
		start=$$(date +%s.%N); \
		timeout -k 10 900 $(GO) test -count=1 ./... > $$tmp/run$$i 2>&1 || status=1; \
		echo "wall $$start $$(date +%s.%N)" >> $$tmp/run$$i; \
	done; \
	echo "  median   spread  package (seconds)"; \
	cat $$tmp/run* | awk '($$1 == "ok" || $$1 == "FAIL") && $$3 ~ /^[0-9.]+s$$/ { print $$2, $$3 + 0 } \
		$$1 == "wall" { print "(tier-1-wall-time)", $$3 - $$2 }' \
	| sort -k1,1 -k2,2n \
	| awk '$$1 != p { n = 0; p = $$1 } { v[++n] = $$2 } n == 3 { printf "%8.1f %8.1f  %s\n", v[2], v[3] - v[1], p }' \
	| sort -rn; \
	grep -h -E '^(FAIL|--- FAIL|panic:)' $$tmp/run*; exit $$status

# scoreboard prints the size-and-sediment rows ROADMAP.md's re-anchor table
# tracks, so the next table is generated rather than counted by hand. The
# unnamed-flags row lists each flag name no file but its defining one
# names as -name: it searches code, tests, scripts, CI, the Makefile and the
# user docs (README.md, DESIGN.md, EXPERIMENTS.md and the markdown below the
# root), but not the root's other markdown files, the change log, roadmap
# and paper notes, which name flags to discuss them rather than to set them,
# nor the -h goldens, which main.go generates. The exported-names row lists each func or type declared at the start of a line
# in non-test Go under internal/ or cmd/ whose name is on no other
# non-comment line of any tracked Go file. The root package is left out: it
# is the module's public API, whose names need no caller inside the module.
# The singleton-reads row counts the non-comment lines under internal/,
# tests included, that read one of the process-wide runner, profile store or
# fault injector; each such read is state every server, table run and test
# in a process shares.
scoreboard:
	@gofiles() { git ls-files '*.go' | grep -v '_test\.go$$'; }; \
	echo "non-test Go lines, all:              $$(gofiles | xargs cat | wc -l)"; \
	echo "non-test Go lines, outside bench/:   $$(gofiles | grep -v '^bench/' | xargs cat | wc -l)"; \
	echo "engine.NewLRU sites in product code: $$(gofiles | grep -v '^bench/' | xargs grep -h 'engine\.NewLRU' | wc -l)"; \
	echo "flags defined in cmd/ (package flag or a FlagSet): $$(gofiles | grep '^cmd/' | xargs grep -hoE '\bflag\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\(|\b[A-Za-z_][A-Za-z0-9_]*\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\((&[A-Za-z0-9_.]+, )?"' | wc -l)"; \
	echo "flags named nowhere outside their own main.go: $$(gofiles | grep '^cmd/' | while read f; do \
		grep -oE '\.(Bool|Int|Int64|Uint|Uint64|String|Float64|Duration|Func|BoolFunc|TextVar|Var)(Var)?\([^"]*"[^"]+"' $$f \
		| sed -E 's/.*"([^"]+)"$$/\1/' | while read n; do \
			{ git ls-files | grep -vxF $$f | grep -vE '^[A-Z]+\.md$$|/testdata/usage\.golden$$'; echo README.md; echo DESIGN.md; echo EXPERIMENTS.md; } \
			| xargs grep -lIE -- "(^|[^A-Za-z0-9_-])-$$n([^A-Za-z0-9_-]|$$)" | grep -q . || echo -$$n; \
		done; done | sort -u | awk '{ l = l " " $$0 } END { printf "%d:%s", NR, l }')"; \
	echo "Go packages: internal / main:        $$($(GO) list -f '{{.ImportPath}} {{.Name}}' ./... | awk '$$1 ~ /\/internal\// { i++ } $$2 == "main" { m++ } END { printf "%d / %d (of %d)", i, m, NR }')"; \
	echo "main packages with no test file:     $$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}} {{len .TestGoFiles}} {{len .XTestGoFiles}}{{end}}' ./... | awk 'NF { n++ } NF && $$2 + $$3 == 0 { u++; l = l " " $$1 } END { printf "%d of %d:%s", u, n, l }')"; \
	echo "internal packages with ≤ 1 non-test importer: $$($(GO) list -f '{{.ImportPath}}{{range .Imports}} {{.}}{{end}}' ./... \
		| awk '{ pkgs[$$1] = 1; for (i = 2; i <= NF; i++) n[$$i]++ } END { for (p in pkgs) if (p ~ /\/internal\// && n[p] <= 1) { sub(/^.*\/internal\//, "", p); print p } }' \
		| sort | awk '{ l = l " " $$0 } END { printf "%d:%s", NR, l }')"; \
	echo "exported names referenced nowhere else: $$(decls=$$(gofiles | grep -E '^(internal|cmd)/' \
		| xargs grep -nHE '^(func (\([^)]*\) )?|type )[A-Z]' \
		| sed -E 's/^([^:]+:[0-9]+):(func (\([^)]*\) )?|type )([A-Za-z0-9_]+).*/\1 \4/'); \
		awk -v decls="$$decls" ' \
			BEGIN { n = split(decls, d, "\n"); for (i = 1; i <= n; i++) { split(d[i], f, " "); at[f[1]] = f[2]; refs[f[2]] += 0 } } \
			{ s = $$0; sub(/^[ \t]*\/\/.*/, "", s); sub(/[ \t]\/\/.*$$/, "", s); here = at[FILENAME ":" FNR]; \
			  k = split(s, tok, /[^A-Za-z0-9_]+/); for (i = 1; i <= k; i++) if (tok[i] in refs && tok[i] != here) refs[tok[i]]++ } \
			END { for (x in refs) if (!refs[x]) print x }' $$(git ls-files '*.go') \
		| sort | awk '{ l = l " " $$0 } END { printf "%d:%s", NR, l }')"; \
	echo "Config fields, service/cluster/sim/limit: $$(for p in service cluster sim limit; do \
		git ls-files "internal/$$p/*.go" | grep -v '_test\.go$$' | xargs cat \
		| awk '/^type Config struct \{/ { c = 1; next } c && /^\}/ { c = 0 } c && /^\t[A-Z][A-Za-z0-9_]*([ \t]|,)/ { n++ } END { printf "%d", n }'; \
		[ $$p = limit ] || printf /; done)"; \
	echo "Go files over 1000 lines:            $$(git ls-files '*.go' | xargs wc -l | awk '$$2 != "total" && $$1 > 1000 { printf "%s%s (%d)", sep, $$2, $$1; sep = ", " } END { if (!sep) printf "none" }')"; \
	echo "largest non-test Go file in internal/service, internal/cluster: $$(gofiles | grep -E '^internal/(service|cluster)/' | xargs wc -l | awk '$$2 != "total" && $$1 > n { n = $$1; f = $$2 } END { printf "%s (%d)", f, n }')"; \
	echo "time.Sleep in tests:                 $$(git ls-files '*_test.go' | xargs grep -h 'time\.Sleep(' | wc -l)"; \
	echo "ResponseWriter wrappers, non-test:   $$(gofiles | xargs grep -hE '^\s+http\.ResponseWriter$$' | wc -l)"; \
	echo "X-Content-Type-Options sets, non-test: $$(gofiles | xargs grep -h 'Set("X-Content-Type-Options"' | wc -l)"; \
	echo "direct timer sites, non-test:        $$(gofiles | xargs grep -hE 'time\.(After|AfterFunc|NewTimer|NewTicker|Tick)\(' | wc -l)"; \
	echo "singleton reads under internal/:     $$(git ls-files 'internal/*.go' | xargs grep -hE 'runner\.Default\(|runner\.Run\(|xmem\.DefaultProfiles\(|xmem\.ProfileFor(Context)?\(|faults\.Global\(' | grep -cvE '^[[:space:]]*//')"

# check is the tier-1 gate plus the race and chaos jobs; leftovers goes last
# so a process any earlier step stranded fails the gate.
check: vet build test race test-chaos leftovers
