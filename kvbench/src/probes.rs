//! Per-layer probes: each layer's public functions timed in isolation on the
//! workload's data shape (key count, 16 B keys, 128 B values, cache size).
//!
//! A probe runs its function in a few equal batches and reports the median
//! batch's cost per call, with the batch count as the sample count. Inputs
//! are laid out before the clock starts and results go through
//! `black_box`. Every probe leaves a span under the `probes` group span.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use papyrus_mpi::{RecvSrc, RecvTag, World, WorldConfig};
use papyrus_nvm::{NvmStore, SystemProfile};
use papyrus_serve::cmd::{encode_reply, parse_command, Command, Reply};
use papyrus_serve::loadgen::{Generator, LoadMix, LoadSkew};
use papyrus_serve::resp::Decoder;
use papyrus_simtime::{AccessPattern, Clock, Resource};
use papyruskv::bloom::Bloom;
use papyruskv::lru::{CacheEntry, LruCache};
use papyruskv::memtable::{Entry, MemTable};
use papyruskv::msg::{self, KvRecord};
use papyruskv::sstable::{self, SstReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::count::CountingBackend;
use crate::gen::{fill_value, key_of, KEY_LEN, VAL_LEN};
use crate::metrics::Values;
use crate::span::{Span, Tracer, NONE};
use crate::stats::median;

/// The data shape probes run on.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Keys in the workload's keyspace (capped: a probe is a sample of the
    /// shape, not a second workload).
    pub keys: u64,
    /// The workload's local cache capacity in bytes.
    pub cache: u64,
}

const MAX_PROBE_KEYS: u64 = 100_000;
const LOOKUPS: usize = 50_000;

struct Probes<'a> {
    tracer: &'a mut Tracer,
    group: u32,
    values: &'a mut Values,
}

impl Probes<'_> {
    /// [`Probes::time`], recorded as metric `name`.
    fn probe(
        &mut self,
        name: &'static str,
        batches: usize,
        calls: usize,
        batch: impl FnMut(usize),
    ) {
        let ns = self.time(name, batches, calls, batch);
        self.values.set(name, ns, batches as u64);
    }

    /// Time `batches` calls of `batch`, each doing `calls` calls of the
    /// probed function; the median nanoseconds per call.
    fn time(
        &mut self,
        name: &'static str,
        batches: usize,
        calls: usize,
        mut batch: impl FnMut(usize),
    ) -> f64 {
        let host_start = self.tracer.now();
        let per_call: Vec<f64> = (0..batches)
            .map(|b| {
                let t = Instant::now();
                batch(b);
                t.elapsed().as_nanos() as f64 / calls as f64
            })
            .collect();
        let span = Span {
            name,
            id: 0,
            parent: self.group,
            op: NONE,
            host_start,
            host_end: self.tracer.now(),
            virt_start: 0,
            virt_end: 0,
        };
        self.tracer.record(span);
        median(&per_call)
    }
}

fn value_bytes(idx: u64) -> Bytes {
    let mut v = [0u8; VAL_LEN];
    fill_value(idx, 1, &mut v);
    Bytes::copy_from_slice(&v)
}

/// Run every probe and record its metric in `values`.
pub fn run_all(shape: Shape, tracer: &mut Tracer, values: &mut Values) {
    let group = tracer.reserve();
    let host_start = tracer.now();
    let mut p = Probes { tracer, group, values };
    let n = shape.keys.clamp(1024, MAX_PROBE_KEYS);
    let mut rng = StdRng::seed_from_u64(0x6b76_6265_6e63);
    // Present keys are the even indices and absent keys the odd ones, so a
    // miss lands inside the key range like a real one, not past its end.
    let mut order: Vec<u64> = (0..n).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..i + 1));
    }
    let present: Vec<[u8; KEY_LEN]> = order.iter().map(|&i| key_of(2 * i)).collect();
    let absent: Vec<[u8; KEY_LEN]> = order.iter().map(|&i| key_of(2 * i + 1)).collect();
    let lookups = LOOKUPS.min(present.len());

    harness(&mut p);
    memtable(&mut p, &present, &absent, lookups);
    lru(&mut p, shape, &present, &absent, lookups);
    bloom(&mut p, &present, &absent);
    sst(&mut p, n, &present, &absent, lookups);
    codec(&mut p, &present);
    fabric(&mut p);
    nvm(&mut p);
    simtime(&mut p);
    serve_codec(&mut p);

    let span = Span {
        name: "probes",
        id: group,
        parent: NONE,
        op: NONE,
        host_start,
        host_end: p.tracer.now(),
        virt_start: 0,
        virt_end: 0,
    };
    p.tracer.close(group, span);
}

fn harness(p: &mut Probes<'_>) {
    let clock = Instant::now();
    p.probe("kvbench.timer_ns", 5, 200_000, |_| {
        for _ in 0..200_000 {
            black_box(clock.elapsed());
        }
    });
    let hist = papyrus_telemetry::Registry::with_enabled(true).histogram(0, "probe");
    p.probe("telemetry.hist.record_ns", 5, 200_000, |_| {
        for i in 0..200_000u64 {
            hist.record(black_box(i * 37));
        }
    });
}

fn memtable(
    p: &mut Probes<'_>,
    present: &[[u8; KEY_LEN]],
    absent: &[[u8; KEY_LEN]],
    lookups: usize,
) {
    let value = value_bytes(0);
    let mut tables: Vec<MemTable> = Vec::new();
    p.probe("core.memtable.insert_ns", 3, present.len(), |_| {
        let mut t = MemTable::new();
        for k in present {
            t.insert(k, Entry::value(value.clone()));
        }
        tables.push(t);
    });
    let table = tables.pop().expect("a table was built");
    p.probe("core.memtable.get_hit_ns", 5, lookups, |_| {
        for k in &present[..lookups] {
            black_box(table.get(k));
        }
    });
    p.probe("core.memtable.get_miss_ns", 5, lookups, |_| {
        for k in &absent[..lookups] {
            black_box(table.get(k));
        }
    });
    // What a flush does with a full table through public functions: take
    // it out, then copy every entry into the flush's input vector.
    tables.push(table);
    let entries = present.len();
    p.probe("core.memtable.freeze_ns_per_entry", 3, entries, |b| {
        let frozen = tables[b].freeze();
        let copy: Vec<(Vec<u8>, Entry)> =
            frozen.iter().map(|(k, e)| (k.to_vec(), e.clone())).collect();
        black_box(copy);
    });
}

fn lru(
    p: &mut Probes<'_>,
    shape: Shape,
    present: &[[u8; KEY_LEN]],
    absent: &[[u8; KEY_LEN]],
    lookups: usize,
) {
    let value = value_bytes(0);
    let mut cache = LruCache::new(shape.cache);
    for k in present {
        cache.insert(k, CacheEntry::value(value.clone()));
    }
    // The most recently inserted keys are the resident ones.
    let resident = &present[present.len() - cache.len().min(present.len())..];
    let hits = lookups.min(resident.len());
    p.probe("core.lru.get_hit_ns", 5, hits, |_| {
        for k in &resident[..hits] {
            black_box(cache.get(k));
        }
    });
    p.probe("core.lru.invalidate_ns", 5, lookups, |_| {
        for k in &absent[..lookups] {
            black_box(cache.invalidate(k));
        }
    });
    // A cache filled to its capacity, so every insert evicts.
    let mut full = LruCache::new(shape.cache.min(256 * 1024));
    for k in present {
        full.insert(k, CacheEntry::value(value.clone()));
    }
    p.probe("core.lru.insert_evict_ns", 5, lookups, |_| {
        for k in &absent[..lookups] {
            full.insert(k, CacheEntry::value(value.clone()));
        }
    });
}

fn bloom(p: &mut Probes<'_>, present: &[[u8; KEY_LEN]], absent: &[[u8; KEY_LEN]]) {
    let mut filter = Bloom::with_capacity(present.len(), 10);
    for k in present {
        filter.insert(k);
    }
    p.probe("core.bloom.probe_ns", 5, present.len(), |_| {
        for k in present {
            black_box(filter.maybe_contains(k));
        }
    });
    let false_pos = absent.iter().filter(|k| filter.maybe_contains(&k[..])).count();
    p.values.set(
        "core.bloom.false_pos_ratio",
        false_pos as f64 / absent.len() as f64,
        absent.len() as u64,
    );
}

fn sorted_entries(keys: impl Iterator<Item = u64>) -> Vec<(Vec<u8>, Entry)> {
    keys.map(|i| (key_of(i).to_vec(), Entry::value(value_bytes(i)))).collect()
}

fn sst(
    p: &mut Probes<'_>,
    n: u64,
    present: &[[u8; KEY_LEN]],
    absent: &[[u8; KEY_LEN]],
    lookups: usize,
) {
    let backend = CountingBackend::new();
    let store = NvmStore::with_backend(SystemProfile::summitdev().nvm, backend.clone());
    let entries = sorted_entries((0..n).map(|i| 2 * i));
    let mut reader = None;
    let ns = p.time("core.sstable.build_at", 3, entries.len(), |b| {
        reader = Some(
            sstable::build_at(&store, &format!("probe/build{b}"), b as u64 + 1, &entries, 0).0,
        );
    });
    let reader: SstReader = reader.expect("a table was built");
    let data_bytes = reader.data_len() as f64;
    // bytes per ns is GB/s; the metric is MB/s of SSData built.
    p.values.set("core.sstable.build_mb_s", data_bytes / (ns * entries.len() as f64) * 1e3, 3);

    let lookups = lookups.min(20_000);
    let before = backend.counts();
    p.probe("core.sstable.get_hit_ns", 3, lookups, |_| {
        for k in &present[..lookups] {
            black_box(reader.get_at(k, true, 0));
        }
    });
    let gets = backend.counts().since(&before).get_ops;
    p.values.set(
        "core.sstable.backend_gets_per_get",
        gets as f64 / (3 * lookups) as f64,
        3 * lookups as u64,
    );
    p.probe("core.sstable.get_miss_ns", 3, lookups, |_| {
        for k in &absent[..lookups] {
            black_box(reader.get_at(k, true, 0));
        }
    });
    let ns = p.time("core.sstable.open_at", 5, 1, |_| {
        black_box(SstReader::open_at(&store, reader.base(), reader.ssid(), 0));
    });
    p.values.set("core.sstable.open_us", ns / 1e3, 5);

    // Four overlapping tables with a quarter of the keys each, as a
    // MemTable's worth of shuffled puts leaves them.
    let quarters: Vec<SstReader> = (0..4u64)
        .map(|q| {
            let part = sorted_entries((0..n).filter(|i| i % 4 == q).map(|i| 2 * i));
            sstable::build_at(&store, &format!("probe/part{q}"), 10 + q, &part, 0).0
        })
        .collect();
    let ns = p.time("core.sstable.merge_at", 3, 1, |b| {
        let merged = sstable::merge_at(
            &store,
            &quarters,
            &format!("probe/merged{b}"),
            20 + b as u64,
            true,
            0,
        );
        black_box(merged.expect("merge of present tables"));
    });
    p.values.set("core.sstable.merge_mb_s", data_bytes / ns * 1e3, 3);
}

fn codec(p: &mut Probes<'_>, present: &[[u8; KEY_LEN]]) {
    let keys = &present[..present.len().min(10_000)];
    let mut encoded = Vec::with_capacity(keys.len());
    p.probe("core.msg.encode_get_ns", 5, keys.len(), |_| {
        encoded.clear();
        for (i, k) in keys.iter().enumerate() {
            encoded.push(msg::encode_get_req(1, 0, i as u64, k));
        }
    });
    p.probe("core.msg.decode_get_ns", 5, keys.len(), |_| {
        for m in &encoded {
            black_box(msg::decode_get_req(m.clone()).expect("own encoding"));
        }
    });
    // One fence's worth of relaxed puts.
    let records: Vec<KvRecord> = (0..256u64)
        .map(|i| KvRecord { key: key_of(i).to_vec(), value: value_bytes(i), tombstone: false })
        .collect();
    let mut batch = Bytes::new();
    p.probe("core.msg.encode_migrate_ns_per_rec", 5, 100 * records.len(), |_| {
        for seq in 0..100 {
            batch = msg::encode_migrate(1, seq, &records);
        }
    });
    p.probe("core.msg.decode_migrate_ns_per_rec", 5, 100 * records.len(), |_| {
        for _ in 0..100 {
            black_box(msg::decode_migrate(batch.clone()).expect("own encoding"));
        }
    });
}

/// `Communicator::send/recv/barrier` between two rank threads.
fn fabric(p: &mut Probes<'_>) {
    const PINGS: usize = 2_000;
    const SENDS: usize = 5_000;
    const BARRIERS: usize = 1_000;
    const BATCHES: usize = 3;
    let net = SystemProfile::summitdev().net;
    let timings = World::run(WorldConfig::new(2, net), |rank| {
        let comm = rank.world();
        let peer = 1 - rank.rank();
        let payload = Bytes::from_static(&[7u8; 64]);
        // Per batch: ping-pong, send, barrier.
        let mut out = [[0f64; 3]; BATCHES];
        for batch in &mut out {
            comm.barrier();
            let t = Instant::now();
            for _ in 0..PINGS {
                if rank.rank() == 0 {
                    comm.send(peer, 1, payload.clone());
                    comm.recv(RecvSrc::Rank(peer), RecvTag::Tag(2));
                } else {
                    comm.recv(RecvSrc::Rank(peer), RecvTag::Tag(1));
                    comm.send(peer, 2, payload.clone());
                }
            }
            batch[0] = t.elapsed().as_nanos() as f64 / PINGS as f64;

            comm.barrier();
            let t = Instant::now();
            for _ in 0..SENDS {
                if rank.rank() == 0 {
                    comm.send(peer, 3, payload.clone());
                }
            }
            batch[1] = t.elapsed().as_nanos() as f64 / SENDS as f64;
            if rank.rank() == 1 {
                for _ in 0..SENDS {
                    comm.recv(RecvSrc::Rank(peer), RecvTag::Tag(3));
                }
            }

            comm.barrier();
            let t = Instant::now();
            for _ in 0..BARRIERS {
                comm.barrier();
            }
            batch[2] = t.elapsed().as_nanos() as f64 / BARRIERS as f64;
        }
        out
    });
    let column = |i: usize| median(&timings[0].iter().map(|batch| batch[i]).collect::<Vec<_>>());
    p.values.set("mpi.fabric.pingpong_wall_ns", column(0), BATCHES as u64);
    p.values.set("mpi.fabric.send_ns", column(1), BATCHES as u64);
    p.values.set("mpi.fabric.barrier_wall_us", column(2) / 1e3, BATCHES as u64);
}

fn nvm(p: &mut Probes<'_>) {
    const KIB: usize = 256;
    let store = NvmStore::in_memory(SystemProfile::summitdev().nvm);
    let object = Bytes::from(vec![0x5au8; KIB * 1024]);
    p.probe("nvm.store.put_at_ns_per_kib", 5, 20 * KIB, |b| {
        for i in 0..20 {
            black_box(store.put_at(&format!("probe/obj{b}-{i}"), object.clone(), 0));
        }
    });
    let record = (9 + KEY_LEN + VAL_LEN) as u64;
    p.probe("nvm.store.read_at_ns", 5, 20_000, |_| {
        for i in 0..20_000u64 {
            let offset = (i * 7919 * record) % (KIB as u64 * 1024 - record);
            black_box(store.read_at("probe/obj0-0", offset, record, AccessPattern::Random, 0));
        }
    });
}

fn simtime(p: &mut Probes<'_>) {
    let queue = Resource::new();
    p.probe("simtime.resource.submit_ns", 5, 200_000, |_| {
        for i in 0..200_000u64 {
            black_box(queue.submit(i * 50, 100));
        }
    });
    let clock = Clock::new();
    p.probe("simtime.clock.advance_ns", 5, 200_000, |_| {
        for _ in 0..200_000 {
            black_box(clock.advance(353));
        }
    });
}

/// The serve codecs over the byte stream the serve workload's own
/// generator produces.
fn serve_codec(p: &mut Probes<'_>) {
    const CMDS: usize = 4096;
    let mut rng = StdRng::seed_from_u64(42);
    let mut gen = Generator::new(0, 2, 4096, LoadMix::Balanced, LoadSkew::Zipfian, VAL_LEN);
    let mut wire = Vec::new();
    let mut replies = Vec::with_capacity(CMDS);
    let bulk = || Some(vec![b'v'; VAL_LEN]);
    for _ in 0..CMDS {
        let cmd = gen.next_command(&mut rng);
        gen.encode(&cmd, &mut rng, &mut wire);
        replies.push(match &cmd {
            Command::Ping => Reply::Pong,
            Command::Info => Reply::Info("cmds:4096\r\nranks:2\r\n".into()),
            Command::Get { .. } => Reply::Bulk(bulk()),
            Command::Set { .. } | Command::MSet { .. } => Reply::Ok,
            Command::Del { .. } | Command::Exists { .. } => Reply::Int(1),
            Command::MGet { keys } => Reply::Arr(keys.iter().map(|_| bulk()).collect()),
            Command::Range { count, .. } => Reply::Arr((0..*count).map(|_| bulk()).collect()),
        });
    }
    let mut frames = Vec::with_capacity(CMDS);
    p.probe("serve.resp.decode_ns_per_cmd", 5, CMDS, |_| {
        frames.clear();
        let mut dec = Decoder::new();
        // The server reads a connection in 512-byte chunks.
        for chunk in wire.chunks(512) {
            dec.feed(chunk);
            while let Some(frame) = dec.next_frame().expect("own encoding") {
                frames.push(frame);
            }
        }
    });
    assert_eq!(frames.len(), CMDS, "decoder lost frames");
    p.probe("serve.cmd.parse_ns", 5, CMDS, |_| {
        for f in &frames {
            black_box(parse_command(f).expect("own encoding"));
        }
    });
    let mut out = Vec::with_capacity(wire.len());
    p.probe("serve.resp.encode_ns_per_reply", 5, CMDS, |_| {
        out.clear();
        for r in &replies {
            encode_reply(r, &mut out);
        }
        black_box(&out);
    });
}
