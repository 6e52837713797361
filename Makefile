# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test race race-procs cover gobench bench bench-smoke bench-trace countd netsmoke udpsmoke clustersmoke crossbuild tracesmoke sim sim-cluster sim-replay sim-digest sim-digest-diff sim-cost-diff mutants experiments examples lint clean

all: build test

build:
	$(GO) build ./...

# bench/ is its own module, which ./... never reaches.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./internal/... ./cmd/countd/ ./cmd/countload/
	$(GO) test -race -count=5 -run 'TestClusterLINMonotone|TestNodeAscendsAcrossPeerLeave|TestLINAboveEarlierSC|TestLeadershipModel|TestLeaseFence|TestSpentStripeStartsNextTerm' ./internal/cluster
	$(GO) test -race -count=5 -run 'TestBatcherFollowsCombineState' ./internal/client
	$(GO) test -C bench -race ./...

cover:
	$(GO) test -cover ./...

# The packages whose concurrency depends on how many Ps run it (group
# commit, ingest-vs-Close fence, combining tree, a cluster node's LIN
# path beside its sweeper, the daemons end to end), under -race at each —
# and internal/dst, which must pin itself to one P whatever it is given.
race-procs:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=1 ./internal/client/ ./internal/server/ ./internal/runtime/ ./internal/dst/ ./internal/cluster/ ./cmd/countd/ ./cmd/countload/ || exit 1; \
	done

# Every `go test` benchmark function once through; the repository's
# benchmark proper is `make bench`.
gobench:
	$(GO) test -bench . -benchmem .

# The repository's benchmark (BENCHMARK.json, bench/README.md): every
# workload's gated run, a 0.2 s-per-workload harness check, and the traced
# per-layer run that writes bench/out/trace-<workload>.json.
bench:
	bash bench/run.sh

bench-smoke:
	bash bench/run.sh --smoke

bench-trace:
	bash bench/run.sh --trace 1

# The full paper-reproduction report; non-zero exit if any experiment fails.
experiments:
	$(GO) run ./cmd/experiments

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/barrier
	$(GO) run ./examples/idserver
	$(GO) run ./examples/inconsistency
	$(GO) run ./examples/linearizable
	$(GO) run ./examples/monitor
	$(GO) run ./examples/netcounter

# Serve a counting network over the wire protocol until interrupted.
countd:
	$(GO) run ./cmd/countd -w 8 -listen 127.0.0.1:9701 -telemetry 127.0.0.1:8080

# Loopback end-to-end smoke: countd for 4s, countload against it for 2s;
# countload exits non-zero on zero ops, a duplicate value or a
# session-order break. Mirrors the CI job.
netsmoke:
	$(GO) run ./cmd/countd -w 8 -listen 127.0.0.1:9701 -duration 4s & \
	sleep 1 && \
	$(GO) run ./cmd/countload -addr 127.0.0.1:9701 -g 4 -duration 2s && \
	wait

# Loopback UDP smoke: countd's fire-and-forget endpoint driven open loop
# at sendmmsg batch 1, 16 and 64, then GSO; countload exits non-zero when
# nothing minted or more minted than was sent. Mirrors the CI job.
udpsmoke:
	$(GO) run ./cmd/countd -w 8 -listen 127.0.0.1:9711 -udp 127.0.0.1:9712 -duration 14s & \
	sleep 1 && \
	for b in 1 16 64; do \
		$(GO) run ./cmd/countload -addr 127.0.0.1:9711 -udp 127.0.0.1:9712 \
			-udp-batch $$b -g 2 -duration 2s || exit 1; \
	done && \
	$(GO) run ./cmd/countload -addr 127.0.0.1:9711 -udp 127.0.0.1:9712 \
		-udp-batch 64 -udp-gso 64 -g 2 -duration 2s && \
	wait

# Three countd nodes as one logical counter on loopback: gossip
# membership, epoch-fenced id blocks, LIN forwarded to the leader's
# serialization point, every node's peers and clients on its one -listen
# door. Drives SC through cluster-aware clients, SC
# against one node (which must keep every worker's session order), then
# LIN through cluster-aware clients (a follower is killed mid-LIN-run;
# failover must keep the count moving without errors). Mirrors the CI
# job.
clustersmoke:
	@rm -rf .clustersmoke && mkdir -p .clustersmoke
	$(GO) build -o .clustersmoke/ ./cmd/countd ./cmd/countload
	@set -e; \
	JOIN=127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703; \
	for i in 1 2 3; do \
		.clustersmoke/countd -listen 127.0.0.1:970$$i \
			-node-id $$i -join $$JOIN -duration 60s > .clustersmoke/node$$i.log 2>&1 & \
		eval P$$i=$$!; \
	done; \
	sleep 5; \
	.clustersmoke/countload -addr 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703 \
		-g 6 -duration 2s -mode sc; \
	.clustersmoke/countload -addr 127.0.0.1:9702 -g 6 -duration 2s -mode sc; \
	( sleep 1; kill -INT $$P3 ) & \
	.clustersmoke/countload -addr 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703 \
		-g 6 -duration 4s -mode lin; \
	kill -INT $$P1 $$P2; wait $$P1 $$P2; \
	cat .clustersmoke/node1.log .clustersmoke/node2.log .clustersmoke/node3.log

# The packetio build-tag matrix must cover every platform: Linux gets the
# recvmmsg/sendmmsg fast path, everything else the portable ReadFrom loop.
crossbuild:
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) build ./...
	GOOS=linux GOARCH=arm64 $(GO) build ./...

# End-to-end tracing smoke: countd with server-side sampling and the
# black-box dump, countload sampling 1 in 50 increments and merging both
# sides into trace.json (it validates the export by re-reading it).
# Load trace.json into chrome://tracing or Perfetto. Mirrors the CI job.
tracesmoke:
	$(GO) run ./cmd/countd -w 8 -listen 127.0.0.1:9702 -telemetry 127.0.0.1:8082 \
		-trace-sample 64 -flight-out flight.json -duration 5s & \
	sleep 1 && \
	$(GO) run ./cmd/countload -addr 127.0.0.1:9702 -g 4 -duration 2s \
		-trace-sample 50 -trace-from http://127.0.0.1:8082 -trace-out trace.json && \
	wait

# Deterministic whole-system simulation: sweep SIM_SEEDS seeds through
# the real client/wire/server stack on the virtual clock, checking the
# protocol invariants on every one. Failing seeds leave replayable
# traces in sim-artifacts/.
SIM_SEEDS ?= 1000
sim:
	$(GO) run ./cmd/countsim -seeds $(SIM_SEEDS) -artifacts sim-artifacts

# Multi-daemon cluster simulation: whole clusters — gossip, elections,
# block grants, LIN grants, node kills, partitions, rolling restarts —
# on the virtual clock, with the global no-duplicate-mint, gap-accounting
# and cluster-wide LIN invariants checked on every seed.
sim-cluster:
	$(GO) run ./cmd/countsim -cluster -seeds $(SIM_SEEDS) -artifacts sim-artifacts

# Replay one seed with its full scheduler trace: make sim-replay SEED=1234
# (add CLUSTER=1 to replay a cluster universe)
sim-replay:
	@test -n "$(SEED)" || { echo "usage: make sim-replay SEED=<n>"; exit 2; }
	$(GO) run ./cmd/countsim -seed $(SEED) -trace $(if $(CLUSTER),-cluster)

# One "flavor seed sha256" line per trace, seeds 1..SIM_SEEDS of both
# flavors (the lines testdata/trace.sha256 pins). sim-digest-diff
# compares two commits' lines.
sim-digest:
	@mkdir -p .sim-digest
	@$(GO) build -o .sim-digest/countsim ./cmd/countsim
	@for f in single cluster; do \
		flag=; [ $$f = cluster ] && flag=-cluster; \
		for s in $$(seq 1 $(SIM_SEEDS)); do \
			sum=$$(.sim-digest/countsim -seed $$s -trace $$flag | grep -v '^countsim: ' | sha256sum); \
			echo "$$f $$s $${sum%% *}"; \
		done; \
	done

# Prove a change leaves the simulator's traces byte-identical: run
# sim-digest on a git archive of BASE and on this tree with the same
# SIM_SEEDS, print how many lines of each flavor differ, and fail on any
# difference: make sim-digest-diff BASE=<rev> SIM_SEEDS=1000
sim-digest-diff:
	@test -n "$(BASE)" || { echo "usage: make sim-digest-diff BASE=<rev> [SIM_SEEDS=n]"; exit 2; }
	@rm -rf .sim-digest/base && mkdir -p .sim-digest/base
	@git archive $(BASE) | tar -x -C .sim-digest/base
	@$(MAKE) -s --no-print-directory -C .sim-digest/base -f $(CURDIR)/Makefile sim-digest > .sim-digest/base.txt
	@$(MAKE) -s --no-print-directory sim-digest > .sim-digest/head.txt
	@diff .sim-digest/base.txt .sim-digest/head.txt > .sim-digest/diff.txt; \
	for f in single cluster; do \
		echo "$$f: $$(grep -c "^> $$f " .sim-digest/diff.txt) of $$(grep -c "^$$f " .sim-digest/head.txt) lines differ"; \
	done; \
	test ! -s .sim-digest/diff.txt

# Show how a change moves the simulator's cost ledger: regenerate
# internal/dst/testdata/cost.golden (TestCostGolden -update) on a git
# archive of BASE and in this tree (rewriting the tree's golden, as a change
# that moves it must), print the diff, and fail on any
# difference. BASE must already have the golden: make sim-cost-diff BASE=<rev>
sim-cost-diff:
	@test -n "$(BASE)" || { echo "usage: make sim-cost-diff BASE=<rev>"; exit 2; }
	@rm -rf .sim-digest/cost-base && mkdir -p .sim-digest/cost-base
	@git archive $(BASE) | tar -x -C .sim-digest/cost-base
	@$(GO) test -C .sim-digest/cost-base -count=1 -run '^TestCostGolden$$' ./internal/dst -update > /dev/null
	@$(GO) test -count=1 -run '^TestCostGolden$$' ./internal/dst -update > /dev/null
	@diff -u .sim-digest/cost-base/internal/dst/testdata/cost.golden internal/dst/testdata/cost.golden \
		&& echo "cost.golden: no line differs from $(BASE)"

# Prove that each check can fail: apply every testdata/mutants/*.patch to
# a git archive of HEAD under .mutants/<name>, run the one check its header
# names, and fail if that check passes, or the patch no longer applies.
# Prints one table: mutant, check, verdict, first catching seed or test,
# and catches/seeds.
mutants:
	@bash testdata/mutants/run.sh

lint:
	$(GO) vet ./...
	$(GO) vet -C bench ./...
	@fmt="$$(gofmt -l .)"; if [ -n "$$fmt" ]; then echo "gofmt needed on:"; echo "$$fmt"; exit 1; fi
	@# The serving path must be simulation-ready: no direct wall-clock use
	@# outside tests — everything goes through the internal/clock seam.
	@bad="$$(grep -REn '\btime\.(Now|Sleep|After|AfterFunc|NewTimer|NewTicker|Since|Tick)\(' \
		internal/client internal/server internal/fault internal/cluster --include='*.go' \
		| grep -v '_test\.go:' || true)"; \
	if [ -n "$$bad" ]; then \
		echo "direct wall-clock calls on the serving path (use the clock.Clock seam):"; \
		echo "$$bad"; exit 1; \
	fi

clean:
	$(GO) clean ./...
	rm -rf .clustersmoke .sim-digest .mutants sim-artifacts trace.json flight.json
