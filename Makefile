# Reproduction of "Tiny Packet Programs for low-latency network
# control and monitoring" (HotNets 2013) on a simulated substrate.

GO ?= go

.PHONY: all build vet lint test race check soak soak-pooldebug scenario allocgate allocgate-baseline fuzz bench reroute experiments results-check clean

# Packages whose behavior must be a pure function of inputs and seeds;
# the determinism analyzers (notime, norand, maporder) gate them.
LINT_PKGS = ./internal/netsim ./internal/asic ./internal/tcpu ./internal/faults ./internal/guard \
	./internal/core ./internal/endhost ./internal/inband ./internal/reflex \
	./internal/fabric ./internal/fabric/scenario ./internal/fabric/yamlite \
	./internal/mem ./internal/agent ./internal/chaos ./internal/ring ./internal/obs \
	./internal/rcp ./internal/aimd ./internal/fct ./internal/topo ./internal/trace ./internal/stats

# Packages that handle pooled packets; the poollife ownership analyzer
# (use-after-Recycle, double-Recycle, retain-without-Adopt,
# recycle-after-shallow-copy) gates them.
POOL_PKGS = ./internal/core ./internal/netsim ./internal/asic ./internal/endhost ./internal/inband \
	./internal/fabric ./internal/reflex ./internal/rcp ./internal/aimd

# Packages with //alloc:free hot-path annotations; the escape gate
# pins them against ALLOCGATE.json.
ALLOC_PKGS = ./internal/core ./internal/ring ./internal/tcpu ./internal/netsim ./internal/asic ./internal/endhost \
	./internal/reflex ./internal/obs

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint runs vet, a gofmt check, a check that internal/topo stays the only
# module that wires switches together or spells a fabric device name
# (bench/ builds its lines on topo.Network's incremental API), a check
# that no count is kept twice — an obs.Counter handle beside the owner's
# word — outside internal/obs (bench/ probes the handle's cost), a check
# that only the TCPU and the verifier's abstract interpreter switch on
# opcodes (everything else reads core.Opcode.Info), a check that no
# sync.Pool and no call of the bench-only (*Packet).ClonePooled()
# wrapper appears under internal/ or cmd/ (pooled packets come from the
# Sim's own core.Pool), plus the repository's own analyzers (see
# tools/analyzers): the determinism suite over the simulation core and
# the soaks, and the poollife packet-ownership suite over the packages
# that handle pooled packets.
lint: vet
	@unformatted=$$(gofmt -l cmd internal tools bench examples *.go); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l:"; echo "$$unformatted"; exit 1; fi
	@wired=$$(grep -rnE 'LinkSwitches\(|"(leaf|spine)%d' --include=*.go cmd internal tools examples | grep -vE '_test\.go:|^internal/topo/'); \
	if [ -n "$$wired" ]; then echo "hand-wired topology outside internal/topo:"; echo "$$wired"; exit 1; fi
	@twins=$$(grep -rnE 'obs\.Counter|\.Counter\(' --include=*.go cmd internal tools examples | grep -vE '_test\.go:|^internal/obs/'); \
	if [ -n "$$twins" ]; then echo "counter handle outside internal/obs (keep the count as the owner's word and name it in a collect method):"; echo "$$twins"; exit 1; fi
	@isa=$$(grep -rnE 'case core\.Op' --include=*.go cmd internal tools examples | grep -vE '_test\.go:|^internal/core/|^internal/tcpu/tcpu\.go:|^internal/verify/verify\.go:'); \
	if [ -n "$$isa" ]; then echo "opcode switch outside internal/core, internal/tcpu/tcpu.go and internal/verify/verify.go (read core.Opcode.Info instead):"; echo "$$isa"; exit 1; fi
	@pools=$$(grep -rnE 'sync\.Pool|\.ClonePooled\(\)' --include=*.go cmd internal | grep -v '_test\.go:'); \
	if [ -n "$$pools" ]; then echo "sync.Pool or ClonePooled() under internal/ or cmd/ (draw from the Sim's pool: sim.Pool().Clone / NewUDP, Host.NewPacketPooled):"; echo "$$pools"; exit 1; fi
	$(GO) run ./tools/analyzers/cmd/determinismlint $(LINT_PKGS)
	$(GO) run ./tools/analyzers/cmd/poollifelint $(POOL_PKGS)

# allocgate asserts that every //alloc:free function still compiles
# without heap escapes, pinned against the committed ALLOCGATE.json
# baseline (any drift — regression, improvement, or annotation change —
# fails until the baseline is consciously regenerated).
allocgate:
	$(GO) run ./tools/allocgate $(ALLOC_PKGS)

# allocgate-baseline regenerates ALLOCGATE.json after an audited change
# to the gated functions; commit the result.
allocgate-baseline:
	$(GO) run ./tools/allocgate -write $(ALLOC_PKGS)

# Tests run with -shuffle=on: a deterministic simulation must not care
# what order its tests execute in, and shuffling catches shared-state
# leaks between them.
test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race -shuffle=on ./...

# check is the tier-1 gate: vet, build, and the full test suite under
# the race detector (with shuffled test order).
check: vet build race

# soak runs the composed chaos scenarios verbosely: the crash-restart
# soak (reboots + bursty loss + blackhole + throttling), the
# hostile-tenant isolation soak (forged-write flood vs victim RCP* and
# accounting), and the reflex fast-reroute soak (seeded gray link flaps
# racing a leaf crash-restart against the reflex arm's evidence and
# TCAM writes).  The seeds are pinned inside the tests (1, 7, 42) and
# each runs twice: both runs must produce identical results word for
# word.
soak:
	$(GO) test -run 'TestChaosSoak|TestHostileSoak|TestReflexSoak' -v -count=1 ./internal/chaos

# scenario exercises the fabric control plane end to end: the
# controller/converge/scenario-runner test suites verbosely, the
# fabricctl CLI tests, the root-package proof that fabric-managed state
# stays off the packet hot path, and the converge-under-churn
# experiment (route churn racing crash-restarts, epoch races rolled
# forward under the retry budget).
scenario:
	$(GO) test -v -count=1 ./internal/fabric/... ./cmd/fabricctl
	$(GO) test -run TestFabricControlPlaneOffHotPath -v -count=1 .
	$(GO) run ./cmd/experiments converge

# soak-pooldebug reruns the same scenarios with the packet-pool
# sanitizer compiled in (Recycle poisons buffers and bumps slot
# generations; stale references and clobbered canaries panic at the
# offending call site) under the race detector, plus the crash of a
# switch whose pipeline and ingress-link lanes hold pooled packets: each
# must be recycled exactly once, at its firing time; plus the packages
# on the sender-draws / sink-returns edge: every paced data packet of
# the three rate-control schemes, and every probe, echo and RCP* update
# of every prober user (ndb, inband, accounting), goes out pooled and
# comes back through a sink, a drop point or a handler-less host.
soak-pooldebug:
	$(GO) test -race -tags pooldebug -run 'TestChaosSoak|TestHostileSoak|TestReflexSoak' -v -count=1 ./internal/chaos
	$(GO) test -race -tags pooldebug -run 'TestRebootFlushesLanes' -v -count=1 ./internal/asic
	$(GO) test -race -tags pooldebug -count=1 ./internal/rcp ./internal/aimd ./internal/endhost \
		./internal/ndb ./internal/inband ./internal/accounting

# fuzz smoke-tests the three soundness properties — verified programs
# never trip a dynamic fault, guest programs never escape their tenant
# grant (and, verified against it, are never denied), and a TPP executes
# identically under a cached validation verdict (Program.Exec) and a
# fresh one (Config.Exec) — and one robustness property: no bytes on a
# prober's echo-reply port make it, its epoch tracker or a collect
# callback panic.
fuzz:
	$(GO) test -fuzz=FuzzVerify -fuzztime=10s ./internal/verify
	$(GO) test -fuzz=FuzzGuard -fuzztime=10s ./internal/asic
	$(GO) test -fuzz=FuzzCompile -fuzztime=10s ./internal/tcpu
	$(GO) test -fuzz=FuzzProberEcho -fuzztime=10s ./internal/endhost

# bench runs the repository's one benchmark: all six bench/tppbench
# workloads for 10 s each, seed 1, every sim_digest checked against
# golden.json.  One workload, another seed, a traced run or the -sets
# spread table: call bench/run.sh directly (bench/README.md).
bench:
	bash bench/run.sh --seed 1

# reroute runs the reflex fast-reroute experiment (dataplane
# sub-RTT repair vs prober-driven controller repair on a killed
# uplink) and refreshes the committed results/reroute.csv.
reroute:
	$(GO) run ./cmd/experiments -out results reroute

# experiments regenerates every paper artifact with telemetry enabled.
experiments:
	mkdir -p out
	$(GO) run ./cmd/experiments -out out -metrics out/metrics.jsonl -trace out/spans.jsonl all

# results-check regenerates every committed experiment artifact into a
# temporary directory and fails on any byte of difference from results/
# or experiments_output.txt: the simulator is deterministic, so a change
# that is not meant to move an artifact must not.  A change that is
# refreshes them with `go run ./cmd/experiments -out results all >
# experiments_output.txt` and commits the diff.
results-check:
	@tmp=$$(mktemp -d) && trap 'rm -rf "$$tmp"' EXIT && \
	$(GO) run ./cmd/experiments -out "$$tmp/results" all > "$$tmp/stdout.txt" && \
	diff -r results "$$tmp/results" && \
	diff experiments_output.txt "$$tmp/stdout.txt" && \
	echo "results-check: results/ and experiments_output.txt regenerate byte for byte"

clean:
	rm -rf out .bench_build bench/out
