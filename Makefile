# Convenience targets mirroring what CI runs.

.PHONY: build test fmt clippy doc kvbench lint sanity modelcheck crashcheck chaos perfline serve verify trace clean

build:
	cargo build --release --workspace

test:
	cargo test -q --release --workspace

fmt:
	cargo fmt --all --check

clippy:
	cargo clippy --workspace --all-targets -- -D warnings

# Simplification PRs delete and rename documented items; a doc comment still
# linking to one (or a public doc linking a private item) is an error here.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# The benchmark is its own package and path-depends on the product crates:
# build it and run its self-tests, so a deleted or renamed public item it
# uses fails here and not in the benchmark run. Then two one-second smoke
# runs — the read half (sst_read) and the write half (ingest) of the table
# path — prove the store still *serves* the benchmark: a run exits non-zero
# when a get disagrees with kvbench's model, an op fails, or the live-SSTable
# count is not the asserted one — and the ingest run's result line must say
# `"failed": 0` itself. sst_read's set-up is where these runs merge: nine
# flushes under the default size-tiered rule are two merges of four tables,
# the second a partial one beside the first's output (3 live tables, the
# floor the run asserts), so a merge that mis-folds or a partial merge that
# drops a tombstone fails here by name; a one-second ingest round is two
# flushes and merges nothing (the rule's exact write counts are tier-1's,
# `equal_flushes_write_exactly_their_tiers`). A
# third, traced, sst_read second holds the fence index to its promise: one
# SSTable get is exactly one backend read. A fourth, a traced remote_mix
# second, holds the wire to its size by name — a batch is a run of SSData
# records behind the same headers, so bytes and messages per op are what
# they were before batches shared the table's codec — with no op failed. A
# fifth, a traced ingest second, holds the put path to its allocations by
# name: the value's copy for every put, a tree node for every seven or so and
# the flush's few — 1.1408 an op, exact for the seed. A `to_vec()` of the
# key back in the MemTable reads 2.14.
kvbench:
	cargo build --release --offline --manifest-path kvbench/Cargo.toml
	cargo test --release --offline --manifest-path kvbench/Cargo.toml
	cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 0
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^core\.sstable\.backend_gets_per_get +1\.0000 '
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload remote_mix --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^mpi\.fabric\.bytes_per_op +164\.9069 ' \
		&& echo "$$out" | grep -E '^mpi\.fabric\.msgs_per_op +0\.9983 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +1\.1408 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'

# The gate planes below all go through one driver: `cargo xtask` is an alias
# (.cargo/config.toml) for `cargo run -q --release -p xtask --`, and xtask
# links the plane libraries and calls them directly.

# Protocol lint: the eight token rules plus the four interprocedural deep
# analyses (panic-reachability, blocking-under-lock, tag matrix, atomic
# pairing), then the seed-bug self-test (every planted violation must be
# convicted). Blocking in CI.
lint:
	cargo xtask lint --deep
	cargo xtask lint --seed-bug all

# Full test suite with the runtime sanity layer armed — a gate: a lock-order
# or MPI protocol finding in any world fails the test that ran it.
sanity:
	PAPYRUS_SANITY=1 cargo test -q --release --workspace

# Model checking: rebuild the workspace with `--cfg modelcheck` (atomics and
# locks swap to the papyrus-modelcheck shims) and exhaustively explore
# bounded thread interleavings of the concurrent data structures and the
# replica promotion protocol, with DPOR pruning. The second leg proves the
# checker catches two planted concurrency bugs (a Relaxed-publication data
# race and a check-then-act promotion race).
modelcheck:
	cargo xtask modelcheck
	cargo xtask modelcheck --seed-bug all

# Crash-consistency sweep: enumerate every NVM crash point of a
# checkpoint/restart workload, verify recovery against audit_db and a KV
# oracle, then prove the checker catches three planted durability bugs.
# The last runs the sweep twice, once on one CPU, and demands the same report.
crashcheck:
	cargo xtask crashcheck
	cargo xtask crashcheck --seed-bug all
	cargo xtask crashcheck > target/crashcheck-a.txt
	taskset -c 0 cargo xtask crashcheck > target/crashcheck-b.txt
	cmp target/crashcheck-a.txt target/crashcheck-b.txt

# Chaos soak: seeded fault schedules (I/O errors, ENOSPC, slow devices,
# delay spikes, rank kills) over a multi-rank workload, judged by a KV
# oracle — no acked-write loss, no phantoms, typed errors, no hangs —
# then prove the oracle catches two planted protocol bugs. The second
# leg reruns the sweep with replication factor 2, where the oracle drops
# the dead-owner exemption: acked keys must survive a rank kill. The last
# runs the sweep twice, once on one CPU, and demands the same report.
chaos:
	cargo xtask chaos
	cargo xtask chaos --replicas 2
	cargo xtask chaos --seed-bug all
	cargo xtask chaos > target/chaos-a.txt
	taskset -c 0 cargo xtask chaos > target/chaos-b.txt
	cmp target/chaos-a.txt target/chaos-b.txt

# Perf-trajectory gate: run the YCSB-style suite, write BENCH_<sha>.json,
# and fail on any worse p99 or throughput vs the committed baseline; prove
# the gate catches two planted regressions (seed-bug self-test); then run
# the quick suite twice, once on one CPU, and demand the same bytes.
# Refresh the baseline with: cargo xtask perfline --out BENCH_baseline.json
perfline:
	cargo xtask perfline --out BENCH_current.json --check BENCH_baseline.json
	cargo xtask perfline --seed-bug all
	cargo xtask perfline --quick --out target/perfline-quick-a.json
	taskset -c 0 cargo xtask perfline --quick --out target/perfline-quick-b.json
	cmp target/perfline-quick-a.json target/perfline-quick-b.json

# Serve-plane gate: the 4-rank, 10k-connection RESP load test (run twice,
# byte-identical reports required, group commit must be visibly batching),
# then the seeded self-test (ack-before-fence must be convicted by the
# durability probe, dropped-write by the read-your-writes sweep), then the
# load test twice, once on one CPU, for the same report: every rank serves
# at once, and only the world's scheduler orders their traffic.
serve:
	cargo xtask serve
	cargo xtask serve --seed-bug all
	cargo xtask serve > target/serve-a.txt
	taskset -c 0 cargo xtask serve > target/serve-b.txt
	cmp target/serve-a.txt target/serve-b.txt

# The tier-1 gate: everything CI requires to pass, in one command.
verify: build test fmt clippy doc kvbench lint modelcheck crashcheck chaos perfline serve
	@echo "verify: OK"

# Quick observability smoke: writes trace.json (chrome://tracing / Perfetto).
trace:
	cargo run --release -p papyrus-bench --bin diag_latency -- --ranks 4 --telemetry trace.json

clean:
	cargo clean
