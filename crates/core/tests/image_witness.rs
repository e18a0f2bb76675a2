//! The images a write-back path builds, pinned: `ingest`'s shape in
//! miniature. One rank puts shuffled 16-byte keys with 128-byte values
//! through a 2 MiB MemTable — enough for nine flushes and two merges — and
//! settles. A change to how a flush or a merge builds its tables may make it
//! cheaper on the host, but every live table's SSData, SSIndex and bloom
//! filter must come out byte for byte as pinned here, and so must the number
//! of writes the store took.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::{Backend, MemBackend, NvmStore, StorageMap, SystemProfile};
use papyruskv::hashfn::fnv1a64;
use papyruskv::{BarrierLevel, Context, OpenFlags, Options, Platform};

const PUTS: u64 = 110_000;

/// A `MemBackend` that counts the writes it takes.
#[derive(Default)]
struct CountingWrites {
    inner: MemBackend,
    writes: AtomicU64,
}

impl Backend for CountingWrites {
    fn put(&self, path: &str, data: Bytes) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.put(path, data);
    }
    fn append(&self, path: &str, data: &[u8]) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.inner.append(path, data);
    }
    fn get(&self, path: &str, offset: u64, len: u64) -> Option<Bytes> {
        self.inner.get(path, offset, len)
    }
    fn get_all(&self, path: &str) -> Option<Bytes> {
        self.inner.get_all(path)
    }
    fn len(&self, path: &str) -> Option<u64> {
        self.inner.len(path)
    }
    fn delete(&self, path: &str) -> bool {
        self.inner.delete(path)
    }
    fn rename(&self, from: &str, to: &str) -> bool {
        self.inner.rename(from, to)
    }
    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }
    fn clear(&self) {
        self.inner.clear();
    }
}

/// Key `i`: `user` and twelve digits, as kvbench's.
fn key(i: u64) -> Vec<u8> {
    format!("user{i:012}").into_bytes()
}

/// Key `i`'s 128-byte value.
fn value(i: u64) -> Vec<u8> {
    (0..128u64).map(|b| (i.wrapping_mul(31) + b * 7) as u8).collect()
}

/// Every table file the rank's store holds, with the FNV-1a digest of its
/// bytes, in name order, and the writes the store took.
fn run() -> (Vec<(String, u64)>, u64) {
    let profile = SystemProfile::summitdev();
    let backend = Arc::new(CountingWrites::default());
    let nvm = NvmStore::with_backend(profile.nvm.clone(), backend.clone());
    let storage =
        StorageMap::from_parts(vec![nvm.clone()], 1, NvmStore::in_memory(profile.pfs.clone()));
    let platform = Platform::with_storage(profile, storage, 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://t-images").expect("init");
        let opt = Options::default().with_memtable_capacity(2 << 20);
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        // A fixed permutation of 0..PUTS: an odd multiplier modulo a power
        // of two above it, the values past PUTS skipped.
        let order = (0..1u64 << 17).map(|i| i.wrapping_mul(0x9E37_79B9) & ((1 << 17) - 1));
        for i in order.filter(|&i| i < PUTS) {
            db.put(&key(i), &value(i)).expect("put");
        }
        db.barrier(BarrierLevel::SsTable).expect("settle");
        db.close().expect("close");
        ctx.finalize().expect("finalize");
    });
    let files = nvm.list("t-images/db/r0/sst");
    let digest = |path: String| {
        let bytes = nvm.backend().get_all(&path).expect("listed");
        (path, fnv1a64(&bytes))
    };
    (files.into_iter().map(digest).collect(), backend.writes.load(Ordering::Relaxed))
}

/// The live tables' files, byte for byte, and the store's writes.
#[test]
fn an_ingest_in_miniature_keeps_its_images() {
    let (files, writes) = run();
    // Nine flushes, two merges of four: sst 5 and sst 10 merged, sst 11 the
    // last flush.
    let want = [
        ("sst0000000005.bloom", 17_571_460_974_930_161_660),
        ("sst0000000005.data", 3_799_616_511_107_031_024),
        ("sst0000000005.index", 13_640_569_099_869_953_339),
        ("sst0000000010.bloom", 14_915_645_706_640_346_774),
        ("sst0000000010.data", 15_148_267_079_387_146_432),
        ("sst0000000010.index", 9_321_140_650_648_277_132),
        ("sst0000000011.bloom", 1_464_295_225_340_042_200),
        ("sst0000000011.data", 17_263_329_639_344_734_525),
        ("sst0000000011.index", 14_748_232_089_236_406_020),
    ]
    .map(|(file, digest)| (format!("t-images/db/r0/{file}"), digest));
    assert_eq!((files, writes), (want.to_vec(), 44));
}
