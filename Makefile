# Every check CI runs, stated once: each CI step calls one of these targets.

.PHONY: build test fmt clippy doc kvbench crashcheck chaos perfline serve mdhim results verify trace clean

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
#   sst_read: untraced, gets match the model, live tables as asserted, no op
#     failed, and the heap peak — the gate on the dead bytes of the cache's
#     record log (log.rs), which a rewrite keeps below its live ones
#   ingest: untraced, the heap peak — a flush's sort allocates a scratch
#     buffer as long as its words, freed before the table's image is — and
#     no op failed
#   traced sst_read: no backend read per SSTable get (a reader that wrote
#     its table searches the image it keeps, DESIGN §5); the virtual p50 of
#     a get, which holds only while a get is charged one block read per
#     table searched; and allocations per op: the block is searched in
#     place, the value found is copied out once and into the cache's log
#     once, whose chunks are the rest
#   traced remote_mix: wire bytes, messages and allocations per op (a warm
#     remote get allocates its request and its reply), no op failed
#   traced ingest: allocations per op, the tables it builds (flushes,
#     compactions, store writes), no op failed
#   traced serve_resp: allocations per command, no op failed
#   mem_mix: traced, allocations per op (a MemTable hit allocates its copy,
#     a put nothing); untraced, whose result line alone carries it, the heap
#     peak, most of it the table's record log and index (log.rs); no op failed
#   cache_read: traced, allocations per op (a cache hit allocates nothing:
#     its value is a slice of its chunk); untraced, the heap peak, most of it
#     the same log and index, and the cache's 16-byte links; no op failed
kvbench:
	cargo build --release --offline --manifest-path kvbench/Cargo.toml
	cargo test --release --offline --manifest-path kvbench/Cargo.toml
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"peak_heap_mb": {"value": 53.01602363586426,' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"peak_heap_mb": {"value": 18.15571117401123,' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload sst_read --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^core\.sstable\.backend_gets_per_get +0\.0000 ' \
		&& echo "$$out" | grep -E '^core\.db\.get_virt_p50_us +13\.8920 ' \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +0\.8473 '
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload remote_mix --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^mpi\.fabric\.bytes_per_op +164\.9069 ' \
		&& echo "$$out" | grep -E '^mpi\.fabric\.msgs_per_op +0\.9983 ' \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +1\.1274 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload ingest --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +0\.0167 ' \
		&& echo "$$out" | grep -E '^core\.db\.flush_count +16\.0000 ' \
		&& echo "$$out" | grep -E '^core\.db\.compact_count +0\.0000 ' \
		&& echo "$$out" | grep -E '^nvm\.store\.write_ops +64\.0000 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload serve_resp --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +10\.5460 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload mem_mix --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +0\.4991 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload mem_mix --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"peak_heap_mb": {"value": 61.342806816101074,' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload cache_read --seed 1 --seconds 1 --trace 1) \
		&& echo "$$out" | grep -E '^kvbench\.allocs_per_op +0\.0000 ' \
		&& echo "$$out" | tail -n 1 | grep -F '"failed": 0,'
	out=$$(cargo run --release --offline --quiet --manifest-path kvbench/Cargo.toml -- --workload cache_read --seed 1 --seconds 1 --trace 0) \
		&& echo "$$out" | tail -n 1 | grep -F '"peak_heap_mb": {"value": 34.88613510131836,' \
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

# The recorded figures (results/, which EXPERIMENTS.md quotes): each figure,
#   table 2 and the replication overhead rewritten at its recorded size;
#   a file that moved fails the target, so a change that moves a figure
#   commits the new one. (results/perfline.txt names the git sha: it is
#   rewritten with BENCH_baseline.json, not here.)
results:
	cargo build --release -p papyrus-bench
	./target/release/fig6_basic --systems > results/table2.txt 2>&1
	./target/release/fig6_basic --iters 20 > results/fig6.txt 2>&1
	./target/release/fig7_consistency --ranks 2,4,8,16,32 --iters 12 > results/fig7.txt 2>&1
	./target/release/fig8_get --ranks 4,8,16,32 --iters 120 > results/fig8.txt 2>&1
	./target/release/fig9_workload --ranks 2,4,8,16 --iters 24 > results/fig9.txt 2>&1
	./target/release/fig10_cr --ranks 2,4,8,16 --iters 20 > results/fig10.txt 2>&1
	./target/release/fig11_mdhim --ranks 2,4,8,16,32 --iters 30 > results/fig11.txt 2>&1
	./target/release/fig13_meraculous --ranks 4,8,16,32 > results/fig13.txt 2>&1
	{ echo "# Replication overhead: R=1 vs R=2 (fig6_basic / fig7_consistency --replicas 2)"; \
	  echo "=== fig6_basic (R=1, default) ==="; ./target/release/fig6_basic; \
	  echo; echo "=== fig6_basic --replicas 2 ==="; ./target/release/fig6_basic --replicas 2; \
	  echo; echo "=== fig7_consistency (R=1, default) ==="; ./target/release/fig7_consistency; \
	  echo; echo "=== fig7_consistency --replicas 2 ==="; ./target/release/fig7_consistency --replicas 2; \
	} > results/replica.txt 2>&1
	git diff --exit-code -- results/

# The tier-1 gate: everything CI requires to pass, in one command.
verify: build test fmt clippy doc kvbench crashcheck chaos perfline serve mdhim trace results
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
