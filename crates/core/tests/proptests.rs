//! Property-based tests for PapyrusKV's core data structures and formats.

use bytes::Bytes;
use papyruskv::bloom::Bloom;
use papyruskv::lru::{CacheEntry, LruCache};
use papyruskv::memtable::{Entry, MemTable};
use papyruskv::msg;
use papyruskv::queue::BlockingQueue;
use papyruskv::sanity::audit_db;
use papyruskv::sstable;
use papyruskv::{BarrierLevel, CompactionTrigger, Context, Db, OpenFlags, Options, Platform};
use proptest::collection::vec;
use proptest::prelude::*;

/// Keys on both sides of the 22 bytes the in-memory maps hold in place.
fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    vec(any::<u8>(), 1..48)
}

/// `mt` holds exactly `model`: same entries in key order, and a byte count
/// equal to a from-scratch recount.
fn assert_memtable_matches(mt: &MemTable, model: &std::collections::BTreeMap<Vec<u8>, Entry>) {
    let recount: u64 = model
        .iter()
        .map(|(k, e)| (k.len() + e.value.len()) as u64 + papyruskv::memtable::ENTRY_OVERHEAD)
        .sum();
    assert_eq!(mt.bytes(), recount);
    assert_eq!(mt.len(), model.len());
    assert_eq!(mt.is_empty(), model.is_empty());
    let got: Vec<(&[u8], &Entry)> = mt.iter().collect();
    let want: Vec<(&[u8], &Entry)> = model.iter().map(|(k, e)| (k.as_slice(), e)).collect();
    assert_eq!(got, want);
}

/// What a database of two-byte keys `k?` must read as: the value last put,
/// `None` once deleted.
type PolicyModel = std::collections::BTreeMap<[u8; 2], Option<Vec<u8>>>;

/// Every key of `model` reads from `db` as the model says — a deleted key
/// stays deleted whichever tables a merge left out — and the audit (SSIDs
/// ascending, the manifest listing exactly the live tables, every table
/// sound) is clean.
fn assert_db_matches(db: &Db, model: &PolicyModel) {
    for (key, want) in model {
        let got = db.get_opt(key).unwrap();
        assert_eq!(got.as_deref(), want.as_deref(), "key {:?}", String::from_utf8_lossy(key));
    }
    let audit = audit_db(db);
    assert!(audit.is_clean(), "{}", audit.render());
}

proptest! {
    /// The merge rule is invisible to a reader: under random puts, deletes
    /// and flushes — through MemTables small enough that tables of several
    /// tiers pile up and merge partially — the database reads as a map does
    /// after every flush, after close and reopen, and after a flush on top of
    /// the reopened tables, which tier themselves from their sizes.
    #[test]
    fn compaction_rules_match_a_map(
        fan_in in 2usize..5,
        ops in vec((0u8..8, 0u8..12, vec(any::<u8>(), 0..48)), 1..160),
    ) {
        let opt = Options::default()
            .with_memtable_capacity(256)
            .with_compaction_trigger(CompactionTrigger::Tiered { fan_in });
        let platform = Platform::new(papyrus_nvm::SystemProfile::test_profile(), 1);
        papyrus_mpi::World::run(papyrus_mpi::WorldConfig::for_tests(1), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://prop-policy").unwrap();
            let db = ctx.open("db", OpenFlags::create(), opt.clone()).unwrap();
            let mut model = PolicyModel::new();
            for (op, k, value) in &ops {
                let key = [b'k', b'a' + k];
                match op {
                    0 => {
                        db.barrier(BarrierLevel::SsTable).unwrap();
                        assert_db_matches(&db, &model);
                    }
                    1 | 2 => {
                        db.delete(&key).unwrap();
                        model.insert(key, None);
                    }
                    _ => {
                        db.put(&key, value).unwrap();
                        model.insert(key, Some(value.clone()));
                    }
                }
            }
            db.close().unwrap();
            let db = ctx.open("db", OpenFlags::create(), opt.clone()).unwrap();
            assert_db_matches(&db, &model);
            db.put(b"kz", b"after reopen").unwrap();
            model.insert(*b"kz", Some(b"after reopen".to_vec()));
            db.barrier(BarrierLevel::SsTable).unwrap();
            assert_db_matches(&db, &model);
            db.close().unwrap();
            ctx.finalize().unwrap();
        });
    }

    /// Bloom filters never report a false negative, under any key set.
    #[test]
    fn bloom_no_false_negatives(keys in vec(key_strategy(), 0..200), bits in 4usize..16) {
        let mut bloom = Bloom::with_capacity(keys.len(), bits);
        for k in &keys {
            bloom.insert(k);
        }
        for k in &keys {
            prop_assert!(bloom.maybe_contains(k));
        }
        // And serialisation is lossless.
        let reparsed = Bloom::from_bytes(&bloom.to_bytes()).unwrap();
        prop_assert_eq!(bloom, reparsed);
    }

    /// The LRU cache never exceeds its byte capacity and always retains the
    /// most recently inserted small entry.
    #[test]
    fn lru_capacity_invariant(
        capacity in 16u64..256,
        ops in vec((key_strategy(), vec(any::<u8>(), 0..64)), 1..200),
    ) {
        let mut cache = LruCache::new(capacity);
        for (k, v) in &ops {
            cache.insert(k, CacheEntry::value(Bytes::copy_from_slice(v)));
            prop_assert!(cache.bytes() <= capacity, "bytes {} > cap {}", cache.bytes(), capacity);
            if (k.len() + v.len()) as u64 <= capacity {
                prop_assert!(cache.peek(k).is_some(), "fitting entry must be cached");
            } else {
                prop_assert!(cache.peek(k).is_none(), "oversized entry must not be cached");
            }
        }
    }

    /// The queue is FIFO for arbitrary push/take interleavings (a take is
    /// made only when the model holds a value: outside a world an empty
    /// queue has no task to enlist).
    #[test]
    fn queue_fifo(ops in vec(any::<bool>(), 0..400)) {
        let q = BlockingQueue::new();
        let mut model = std::collections::VecDeque::new();
        let mut next = 0u32;
        for push in ops {
            if push {
                q.push(next);
                model.push_back(next);
                next += 1;
            } else if let Some(want) = model.pop_front() {
                prop_assert_eq!(q.take(), Some(want));
            }
        }
        while let Some(want) = model.pop_front() {
            prop_assert_eq!(q.take(), Some(want));
        }
    }

    /// The MemTable behaves like a reference map under arbitrary
    /// insert / replace / tombstone workloads with freezes in between: same
    /// entries in key order, exact byte accounting, and a freeze hands over
    /// everything and leaves an empty, reusable table.
    #[test]
    fn memtable_matches_reference(
        ops in vec((key_strategy(), vec(any::<u8>(), 0..32), any::<bool>(), 0u8..16), 0..200),
    ) {
        let mut mt = MemTable::new();
        let mut model: std::collections::BTreeMap<Vec<u8>, Entry> = Default::default();
        for (k, v, tomb, freeze) in &ops {
            let entry = if *tomb {
                Entry::tombstone()
            } else {
                Entry::value(Bytes::copy_from_slice(v))
            };
            mt.insert(k, entry.clone());
            model.insert(k.clone(), entry);
            prop_assert_eq!(mt.get(k), model.get(k));
            if *freeze == 0 {
                let frozen = mt.freeze();
                assert_memtable_matches(&frozen, &model);
                model.clear();
                assert_memtable_matches(&mt, &model);
            }
        }
        assert_memtable_matches(&mt, &model);
    }

    /// SSTables roundtrip arbitrary entry sets: build then read back every
    /// key via both search modes, and a cursor over the scanned image walks
    /// the input, record for record, to the image's last byte.
    #[test]
    fn sstable_roundtrip(entries_in in prop::collection::btree_map(key_strategy(), (vec(any::<u8>(), 0..64), any::<bool>()), 0..60)) {
        let store = papyrus_nvm::NvmStore::in_memory(papyrus_simtime::DeviceModel::dram());
        let entries: Vec<(Vec<u8>, Entry)> = entries_in
            .iter()
            .map(|(k, (v, tomb))| {
                let e = if *tomb {
                    Entry::tombstone()
                } else {
                    Entry::value(Bytes::copy_from_slice(v))
                };
                (k.clone(), e)
            })
            .collect();
        let (reader, _) = sstable::build_at(&store, "prop/sst", 1, &entries, 0);
        for (k, (v, tomb)) in &entries_in {
            for bin in [true, false] {
                let (got, _) = reader.get_at(k, bin, 0);
                if *tomb {
                    prop_assert_eq!(got, sstable::SstGet::Tombstone);
                } else {
                    prop_assert_eq!(got, sstable::SstGet::Found(Bytes::copy_from_slice(v)));
                }
            }
        }
        let (image, _) = reader.scan_at(0).unwrap();
        let mut scanned = sstable::Cursor::new(&image);
        for (k, e) in &entries {
            let want = sstable::Record { key: k, value: &e.value, tombstone: e.tombstone };
            prop_assert_eq!(scanned.next(), Some(want));
        }
        prop_assert!(scanned.next().is_none() && scanned.is_whole());
        // Reopen from storage and confirm identity.
        let (reopened, _) = sstable::SstReader::open_at(&store, "prop/sst", 1, 0).unwrap();
        prop_assert_eq!(reopened.len(), reader.len());
    }

    /// Wire-format messages roundtrip arbitrary payloads, and corrupt
    /// buffers never panic (they error).
    #[test]
    fn msg_roundtrip_and_fuzz(
        records in vec((key_strategy(), vec(any::<u8>(), 0..64), any::<bool>()), 0..20),
        junk in vec(any::<u8>(), 0..64),
    ) {
        let kv: Vec<msg::KvRecord> = records
            .iter()
            .map(|(k, v, t)| msg::KvRecord {
                key: k.clone(),
                value: Bytes::copy_from_slice(v),
                tombstone: *t,
            })
            .collect();
        let (db, seq, got) = msg::decode_migrate(msg::encode_migrate(9, 41, &kv)).unwrap();
        prop_assert_eq!((db, seq), (9, 41));
        let want: Vec<sstable::Record> = kv.iter().map(sstable::Record::from).collect();
        prop_assert_eq!(got.records().collect::<Vec<_>>(), want);
        // Fuzz all decoders with junk: must not panic.
        let b = Bytes::from(junk);
        let _ = msg::decode_migrate(b.clone());
        let _ = msg::decode_put_sync(b.clone());
        let _ = msg::decode_repl_put(b.clone());
        let _ = msg::decode_get_req(b.clone());
        let _ = msg::decode_get_resp(b.clone());
        let _ = msg::decode_barrier_mark(b);
    }

    /// The built-in hash distributor assigns every key to a valid rank and
    /// is stable.
    #[test]
    fn distributor_total_and_stable(keys in vec(key_strategy(), 1..100), n in 1usize..64) {
        let d = papyruskv::hashfn::Distributor::new(None, n);
        for k in &keys {
            let owner = d.owner(k);
            prop_assert!(owner < n);
            prop_assert_eq!(owner, d.owner(k));
        }
    }
}
