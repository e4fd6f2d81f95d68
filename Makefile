# Developer entry points for the denova-rs workspace.

CARGO ?= cargo

.PHONY: verify build test e2e-check fmt-check clippy one-conn-path figures serve-smoke svcconn-smoke dedup-scale-smoke repl-smoke fgpath-smoke cluster-smoke chaos-smoke contention-smoke extent-smoke clean

# The tier-1 gate: what CI runs.
verify: build fmt-check clippy one-conn-path test e2e-check serve-smoke svcconn-smoke dedup-scale-smoke repl-smoke fgpath-smoke cluster-smoke chaos-smoke contention-smoke extent-smoke

build:
	$(CARGO) build --release

test:
	$(CARGO) test -q --workspace

# The frozen benchmark (BENCHMARK.json) is a package outside the workspace,
# so nothing above compiles it: build it and run its unit tests against the
# layer crates as they are now, before the benchmark driver does — and run
# it four times, short, for real: the binary exits non-zero on `correct:
# false`, i.e. on any content or fsck failure after its crash-recovery mount.
# vm_clone never overwrites a file; stream1m's ring wraps after 256 of its
# 320 writes, so the writer overwrites entries the daemon is still hashing
# (dedup stage 1 holds no inode lock). put4k's 4 KiB writes run on the event
# loop whenever their shard is idle; mixed_rw races those inline writes
# against pooled 256 KiB reads of the same inodes, two connections on one
# loop.
e2e-check:
	$(CARGO) build --release --offline --manifest-path e2e/Cargo.toml
	$(CARGO) test -q --offline --manifest-path e2e/Cargo.toml
	$(CARGO) run --release --quiet --offline --manifest-path e2e/Cargo.toml -- --workload vm_clone --seed 3 --seconds 2 --trace 0
	$(CARGO) run --release --quiet --offline --manifest-path e2e/Cargo.toml -- --workload stream1m --seed 3 --seconds 2 --trace 0
	$(CARGO) run --release --quiet --offline --manifest-path e2e/Cargo.toml -- --workload put4k --seed 3 --seconds 2 --trace 0
	$(CARGO) run --release --quiet --offline --manifest-path e2e/Cargo.toml -- --workload mixed_rw --seed 3 --seconds 2 --trace 0

fmt-check:
	$(CARGO) fmt --all --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Source check: one connection state machine. No thread-per-connection
# server under crates/, and crates/svc spawns threads only for the pool
# workers and the replication handover.
one-conn-path:
	bash scripts/one_conn_path.sh

# End-to-end service-layer check: TCP server on an ephemeral port, a
# put/get/stat/rm round-trip via --remote, clean shutdown, fsck.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Reactor runtime check: >= 1k idle TCP connections parked on a bounded
# thread population, and aligned writes taking the zero-copy wire-to-PM path.
svcconn-smoke: build
	bash scripts/svcconn_smoke.sh

# Parallel-dedup-pipeline check: a tiny 1-vs-4-worker backlog drain that
# must produce identical dedup ratios and clean fsck/FACT audits.
dedup-scale-smoke: build
	bash scripts/dedup_scale_smoke.sh

# Failover check: sync-ack primary + standby, SIGKILL the primary, promote
# the standby over the wire, verify payloads byte-for-byte, fsck the image.
repl-smoke: build
	bash scripts/repl_smoke.sh

# Foreground fast-path check: steady-state zero-copy writes issue <= 2
# fences, aligned writes stage nothing.
fgpath-smoke: build
	bash scripts/fgpath_smoke.sh

# Sharded-cluster check: a 2-shard TCP cluster driven through the routing
# client — hash placement, merged ls, a two-phase cross-shard rename,
# SIGKILL failover with promotion + map rebalance, clean fsck on every image.
cluster-smoke: build
	bash scripts/cluster_smoke.sh

# Chaos/SLO harness check: the standard scenario library (fixed seed,
# smoke scale) — multi-tenant workloads under composed fault schedules,
# clean end-of-run audits, the noisy-neighbor SLO gate, and byte-identical
# fault plans across two same-seed runs. Journals land in target/chaos/.
chaos-smoke: build
	bash scripts/chaos_smoke.sh

# Lock-free read path check: the contention experiment with a live writer
# + 4 dedup workers must show >= 2x read throughput at 8 reader threads
# and >= 95% of reads on the optimistic (no-inode-lock) seqlock path.
contention-smoke: build
	bash scripts/contention_smoke.sh

# Extent-granular dedup check: the extent experiment (VM-image clones +
# backup stream) must cut FACT entries >= 30% vs per-block at the same
# dedup ratio, cut sequential-read fragmentation >= 30% vs the paper's
# fixed-ratio workload, promote runs, elide zero pages, and audit clean.
extent-smoke: build
	bash scripts/extent_smoke.sh

# Smoke-scale run of every figure/table in the evaluation.
figures:
	$(CARGO) run --release -p denova-bench --bin figures -- --smoke

clean:
	$(CARGO) clean
