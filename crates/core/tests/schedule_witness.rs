//! The schedule of a remote-get workload, pinned: `remote_mix`'s shape in
//! miniature. Rank 1 owns every key and sits in a barrier while its handler
//! serves; rank 0 mixes remote gets with relaxed puts and fences every 256
//! ops. A change to the message path may make it cheaper on the host, but
//! every grant, every virtual clock and every charged message must come out
//! as pinned here.

use std::sync::Arc;

use papyrus_mpi::{Grants, World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyrus_telemetry::Registry;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

const KEYS: usize = 2000;
const OPS: usize = 4096;
const FENCE_EVERY: usize = 256;

fn key(i: usize) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Version `v` of key `i`'s 128-byte value.
fn value(i: usize, v: usize) -> Vec<u8> {
    (0..128).map(|b| (i * 31 + v * 7 + b) as u8).collect()
}

/// What each rank's clock, sends and the world's grants read once rank 0
/// has driven its ops.
#[derive(Debug, PartialEq, Eq)]
struct Witness {
    grants: Grants,
    /// Per rank: `ctx.now()` once its part is done and again past the
    /// barrier that ends the drive, `net.send.count`, `net.send.bytes`.
    ranks: Vec<(u64, u64, u64, u64)>,
}

fn run() -> Witness {
    let profile = SystemProfile::summitdev();
    let platform = Platform::new(profile.clone(), 2);
    let tel = Arc::new(Registry::with_enabled(true));
    let world = WorldConfig::new(2, profile.net).with_telemetry(tel);
    let out = World::run(world, move |rank| {
        let fabric = rank.fabric().clone();
        let ctx =
            Context::init_with_group(rank, platform.clone(), "nvm://t-witness", 1).expect("init");
        // A small MemTable: rank 0's relaxed puts also migrate between fences.
        let opt = Options::default()
            .with_memtable_capacity(64 << 10)
            .with_custom_hash(Arc::new(|_: &[u8]| 1));
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        if ctx.rank() == 1 {
            (0..KEYS).for_each(|i| db.put(&key(i), &value(i, 0)).expect("load"));
        }
        db.barrier(BarrierLevel::SsTable).expect("settle");
        if ctx.rank() == 1 {
            (0..KEYS).for_each(|i| assert_eq!(db.get(&key(i)).expect("warm")[..], value(i, 0)));
        }
        ctx.barrier_all();
        if ctx.rank() == 0 {
            // Each key's current version; a key put since the last fence is
            // not read until after it.
            let mut version = vec![0; KEYS];
            let mut unfenced = Vec::new();
            for op in 1..=OPS {
                let i = (op * 7919) % KEYS;
                if op % 2 == 0 || unfenced.contains(&i) {
                    version[i] += 1;
                    db.put(&key(i), &value(i, version[i])).expect("put");
                    unfenced.push(i);
                } else {
                    assert_eq!(db.get(&key(i)).expect("get")[..], value(i, version[i]));
                }
                if op % FENCE_EVERY == 0 {
                    db.fence().expect("fence");
                    unfenced.clear();
                }
            }
        }
        let done = ctx.now();
        // Rank 1 is parked here while its handler serves rank 0.
        ctx.barrier_all();
        let counter = |name| ctx.telemetry().counter(ctx.rank() as u32, name).get();
        let me = (done, ctx.now(), counter("net.send.count"), counter("net.send.bytes"));
        let grants = fabric.grants();
        ctx.barrier_all();
        db.close().expect("close");
        ctx.finalize().expect("finalize");
        (grants, me)
    });
    Witness { grants: out[0].0, ranks: out.iter().map(|(_, me)| *me).collect() }
}

/// The grants, clocks and sends of the miniature `remote_mix`, exactly.
#[test]
fn a_remote_mix_in_miniature_keeps_its_schedule() {
    let got = run();
    let want = Witness {
        grants: Grants { inline: 4179, handed: 25, timed_out: 0 },
        ranks: vec![
            (47_582_770, 47_588_770, 2066, 387_352),
            (29_141_746, 47_588_770, 2050, 288_792),
        ],
    };
    assert_eq!(got, want);
}
