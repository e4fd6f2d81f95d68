# Developer entry points for the denova-rs workspace.

CARGO ?= cargo

.PHONY: verify build test e2e-check fmt-check clippy one-conn-path figures serve-smoke clean

# The tier-1 gate: what CI runs. The smoke drives the real CLI across
# processes and writes no tracked file.
verify: build fmt-check clippy one-conn-path test e2e-check serve-smoke

build:
	$(CARGO) build --release

# Every crate's unit tests plus the root integration tests.
test:
	$(CARGO) test -q --workspace

# The benchmark (BENCHMARK.json) is a package outside the workspace, so
# neither `build` nor `test` compiles it: build it and run its unit tests
# against the layer crates as they are now, and run it four times, short,
# for real: the binary exits non-zero on `correct:
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
# workers.
one-conn-path:
	bash scripts/one_conn_path.sh

# End-to-end service-layer check: TCP server on an ephemeral port, a
# put/get/stat/rm round-trip via --remote, clean shutdown, fsck.
serve-smoke: build
	bash scripts/serve_smoke.sh

# Smoke-scale run of every figure/table in the evaluation.
figures:
	$(CARGO) run --release -p denova-bench --bin figures -- --smoke

clean:
	$(CARGO) clean
