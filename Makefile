# Every check CI runs, stated once: each CI step calls one of these targets.

.PHONY: build test fmt clippy doc kvbench crashcheck chaos perfline serve mdhim verify trace clean

build:
	cargo build --release --workspace

test:
	cargo test -q --release --workspace

fmt:
	cargo fmt --all --check

# Clippy carries the workspace's static checks (DESIGN §14): the restriction
#   lints each runtime crate denies in its lib.rs (no unwrap, expect, panic or
#   unchecked index outside tests without a reasoned allow); clippy.toml's
#   disallowed std locks, wall clock and raw threads; an `unsafe` block or
#   impl with no `// SAFETY:` comment.
clippy:
	cargo clippy --workspace --all-targets -- -D warnings -D clippy::undocumented_unsafe_blocks

# A dangling or private intra-doc link is an error.
doc:
	RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

# kvbench, its own package, against the product crates:
#   build; its self-tests
#   sst_read: gets match the model, live tables as asserted
#   ingest: no op failed
#   traced sst_read: one backend read per SSTable get (DESIGN §5), and
#     allocations per op: the block is read in place, the value found is
#     the one copy
#   traced remote_mix: wire bytes, messages and allocations per op, no op failed
#   traced ingest: allocations per op, the tables it builds (flushes,
#     compactions, store writes), no op failed
#   traced serve_resp: allocations per command, no op failed
kvbench:
	cargo build --release --offline --manifest-path kvbench/Cargo.toml
	cargo test --release --offline --manifest-path kvbench/Cargo.toml
	cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 0
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^core\.sstable\.backend_gets_per_get +1\.0000 ' \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +0\.8372 '
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload remote_mix --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^mpi\.fabric\.bytes_per_op +164\.9069 ' \
		&& echo "$$out" | grep -E '^mpi\.fabric\.msgs_per_op +0\.9983 ' \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +2\.0998 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +1\.0089 ' \
		&& echo "$$out" | grep -E '^core\.db\.flush_count +16\.0000 ' \
		&& echo "$$out" | grep -E '^core\.db\.compact_count +0\.0000 ' \
		&& echo "$$out" | grep -E '^nvm\.store\.write_ops +64\.0000 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload serve_resp --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +11\.2303 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'

# `cargo xtask` is an alias (.cargo/config.toml) for the xtask binary, which
# links the plane libraries below and calls them directly.

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
#   the report twice, once on one CPU, byte for byte — at R=2 too, whose
#   failover gets split the handler's REPL_GET into two units.
chaos:
	cargo xtask chaos
	cargo xtask chaos --replicas 2
	cargo xtask chaos --seed-bug all
	cargo xtask chaos > target/chaos-a.txt
	taskset -c 0 cargo xtask chaos > target/chaos-b.txt
	cmp target/chaos-a.txt target/chaos-b.txt
	cargo xtask chaos --replicas 2 > target/chaos-r2-a.txt
	taskset -c 0 cargo xtask chaos --replicas 2 > target/chaos-r2-b.txt
	cmp target/chaos-r2-a.txt target/chaos-r2-b.txt

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

# MDHIM baseline (fig11), which no plane covers: its range servers run as
#   slice tasks; the figure twice, once on one CPU, byte for byte.
mdhim:
	cargo build --release -p papyrus-bench --bin fig11_mdhim
	./target/release/fig11_mdhim --ranks 2,4 --iters 10 > target/mdhim-a.txt
	taskset -c 0 ./target/release/fig11_mdhim --ranks 2,4 --iters 10 > target/mdhim-b.txt
	cmp target/mdhim-a.txt target/mdhim-b.txt

# The tier-1 gate: everything CI requires to pass, in one command.
verify: build test fmt clippy doc kvbench crashcheck chaos perfline serve mdhim
	@echo "verify: OK"

# Quick observability smoke: writes trace.json (chrome://tracing / Perfetto);
#   then a traced figure (fig9) twice, once on one CPU: the trace of the
#   world it traced and its metrics table, byte for byte.
trace:
	cargo run --release -p papyrus-bench --bin diag_latency -- --ranks 4 --telemetry trace.json
	cargo build --release -p papyrus-bench --bin fig9_workload
	./target/release/fig9_workload --ranks 2,4 --iters 10 --telemetry target/fig9-a.json > target/fig9-a.txt
	taskset -c 0 ./target/release/fig9_workload --ranks 2,4 --iters 10 --telemetry target/fig9-b.json > target/fig9-b.txt
	cmp target/fig9-a.json target/fig9-b.json
	cmp target/fig9-a.txt target/fig9-b.txt

clean:
	cargo clean
