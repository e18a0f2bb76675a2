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

# A dangling or private intra-doc link is an error.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# kvbench, its own package, against the product crates:
#   build; its self-tests
#   sst_read: gets match the model, live tables as asserted
#   ingest: no op failed
#   traced sst_read: one backend read per SSTable get (DESIGN §5)
#   traced remote_mix: wire bytes and messages per op, no op failed
#   traced ingest: allocations per op, no op failed
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

# `cargo xtask` is an alias (.cargo/config.toml) for the xtask binary, which
# links the plane libraries below and calls them directly.

# Lint: the token rules plus the five deep analyses (DESIGN §14);
#   every planted violation convicted.
lint:
	cargo xtask lint --deep
	cargo xtask lint --seed-bug all

# The suite with PAPYRUS_SANITY=1: a lock-order or protocol finding fails its test.
sanity:
	PAPYRUS_SANITY=1 cargo test -q --release --workspace

# Model checking (DESIGN §13): every model under --cfg modelcheck, pinned counts;
#   every planted concurrency bug convicted.
modelcheck:
	cargo xtask modelcheck
	cargo xtask modelcheck --seed-bug all

# Crash-consistency sweep (DESIGN §9): every crash point recovers;
#   every planted durability bug convicted;
#   the report twice, once on one CPU, byte for byte.
crashcheck:
	cargo xtask crashcheck
	cargo xtask crashcheck --seed-bug all
	cargo xtask crashcheck > target/crashcheck-a.txt
	taskset -c 0 cargo xtask crashcheck > target/crashcheck-b.txt
	cmp target/crashcheck-a.txt target/crashcheck-b.txt

# Chaos soak (DESIGN §10): seeded fault schedules, no violation;
#   the same at replication factor 2 (DESIGN §11);
#   every planted protocol bug convicted;
#   the report twice, once on one CPU, byte for byte.
chaos:
	cargo xtask chaos
	cargo xtask chaos --replicas 2
	cargo xtask chaos --seed-bug all
	cargo xtask chaos > target/chaos-a.txt
	taskset -c 0 cargo xtask chaos > target/chaos-b.txt
	cmp target/chaos-a.txt target/chaos-b.txt

# Perf gate (DESIGN §12): no row worse than the committed baseline;
#   every planted regression convicted;
#   the quick suite twice, once on one CPU, byte for byte.
perfline:
	cargo xtask perfline --out BENCH_current.json --check BENCH_baseline.json
	cargo xtask perfline --seed-bug all
	cargo xtask perfline --quick --out target/perfline-quick-a.json
	taskset -c 0 cargo xtask perfline --quick --out target/perfline-quick-b.json
	cmp target/perfline-quick-a.json target/perfline-quick-b.json

# Serve plane (DESIGN §15): the RESP load test, clean oracles, repeatable;
#   every planted defect convicted;
#   the report twice, once on one CPU, byte for byte.
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
