# Convenience targets; everything is plain `go` underneath (stdlib only).

GO ?= go

.PHONY: all build test race race-procs cover gobench bench bench-smoke bench-trace countmon countd netsmoke udpsmoke clustersmoke crossbuild tracesmoke sim sim-cluster sim-replay experiments examples lint clean

all: build test

build:
	$(GO) build ./...

# bench/ is its own module, which ./... never reaches.
test:
	$(GO) test ./...
	$(GO) test -C bench ./...

race:
	$(GO) test -race ./internal/... ./cmd/countd/ ./cmd/countload/
	$(GO) test -C bench -race ./...

cover:
	$(GO) test -cover ./...

# The packages whose concurrency depends on how many Ps run it (group
# commit, ingest-vs-Close fence, combining tree, a cluster node's LIN
# path beside its sweeper), under -race at each —
# and internal/dst, which must pin itself to one P whatever it is given.
race-procs:
	for p in 1 2 8; do \
		GOMAXPROCS=$$p $(GO) test -race -count=1 ./internal/client/ ./internal/server/ ./internal/runtime/ ./internal/dst/ ./internal/cluster/ || exit 1; \
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
	$(GO) run ./examples/chaos
	$(GO) run ./examples/netcounter

# Live telemetry demo: run for 5s, print the report, leave no server behind.
countmon:
	$(GO) run ./cmd/countmon -w 8 -duration 5s

# Serve a counting network over the wire protocol until interrupted.
countd:
	$(GO) run ./cmd/countd -w 8 -listen 127.0.0.1:9701 -telemetry 127.0.0.1:8080

# Loopback end-to-end smoke: countd for 4s, countload against it for 2s;
# countload exits non-zero on zero ops or a duplicate value. Mirrors the
# CI job.
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
			-udp-batch $$b -udp-wires 8 -g 2 -duration 2s || exit 1; \
	done && \
	$(GO) run ./cmd/countload -addr 127.0.0.1:9711 -udp 127.0.0.1:9712 \
		-udp-batch 64 -udp-gso 64 -udp-wires 8 -g 2 -duration 2s && \
	wait

# Three countd nodes as one logical counter on loopback: gossip
# membership, epoch-fenced id blocks, LIN forwarded to the leader's
# serialization point. Drives SC then LIN through cluster-aware clients
# (a follower is killed mid-LIN-run; failover must keep the count moving
# without errors). Mirrors the CI job.
clustersmoke:
	@rm -rf .clustersmoke && mkdir -p .clustersmoke
	$(GO) build -o .clustersmoke/ ./cmd/countd ./cmd/countload
	@set -e; \
	JOIN=127.0.0.1:9801,127.0.0.1:9802,127.0.0.1:9803; \
	for i in 1 2 3; do \
		.clustersmoke/countd -listen 127.0.0.1:970$$i -cluster-listen 127.0.0.1:980$$i \
			-node-id $$i -join $$JOIN -duration 60s > .clustersmoke/node$$i.log 2>&1 & \
		eval P$$i=$$!; \
	done; \
	sleep 5; \
	.clustersmoke/countload -cluster 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703 \
		-g 6 -duration 2s -mode sc; \
	( sleep 1; kill -INT $$P3 ) & \
	.clustersmoke/countload -cluster 127.0.0.1:9701,127.0.0.1:9702,127.0.0.1:9703 \
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
# block grants, LIN forwards, node kills, partitions, rolling restarts —
# on the virtual clock, with the global no-duplicate-mint, gap-accounting
# and cluster-wide LIN invariants checked on every seed.
sim-cluster:
	$(GO) run ./cmd/countsim -cluster -seeds $(SIM_SEEDS) -artifacts sim-artifacts

# Replay one seed with its full scheduler trace: make sim-replay SEED=1234
# (add CLUSTER=1 to replay a cluster universe)
sim-replay:
	@test -n "$(SEED)" || { echo "usage: make sim-replay SEED=<n>"; exit 2; }
	$(GO) run ./cmd/countsim -seed $(SEED) -trace $(if $(CLUSTER),-cluster)

lint:
	$(GO) vet ./...
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
	rm -rf .clustersmoke sim-artifacts trace.json flight.json
