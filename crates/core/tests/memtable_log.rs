//! The MemTable's record log, counted by a global allocator that keeps each
//! thread's live bytes and allocations: a same-length update allocates
//! nothing, the log holds its records and at most one chunk of room, dead
//! bytes stay bounded by live ones across rewrites, and a value a get
//! returned is the caller's own.

mod heap;

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};
use papyrus_nvm::SystemProfile;
use papyruskv::memtable::{Entry, MemTable, CHUNK, ENTRY_OVERHEAD};
use papyruskv::{Context, OpenFlags, Options, Platform};

use heap::{counted, held, live};

/// Keys of 16 bytes and values of 119: records of 144 bytes encoded (a
/// 9-byte header, the key, the value).
const KEY: usize = 16;
const VALUE: usize = 119;
const RECORD: usize = 9 + KEY + VALUE;

/// Key `i`, made without allocating: `key-` and 12 decimal digits.
fn key(i: usize) -> [u8; KEY] {
    let mut key = *b"key-000000000000";
    let mut rest = i;
    for digit in key[4..].iter_mut().rev() {
        *digit = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
    key
}

/// The heap an index of `n` keys takes: 12-byte slots (a hash, a place, an
/// owner), grown a key at a time as the table's are — from 4, doubled
/// whenever one more key would fill them past 7/8.
fn index_of(n: usize) -> i64 {
    held(|| {
        let mut slots: Vec<[u32; 3]> = Vec::new();
        for keys in 1..=n {
            if keys * 8 > slots.len() * 7 {
                slots = vec![[u32::MAX; 3]; (2 * slots.len()).max(4)];
            }
        }
        slots
    })
    .1
}

/// On a one-rank world with a MemTable that never freezes: `resident` keys
/// put once, then `updates` puts of a value of the same length to them in
/// turn. Returns the allocations the updates made on the rank's thread.
fn same_length_updates(resident: usize, updates: usize) -> u64 {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    let mut out = World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://log").expect("init");
        let opt = Options::default().with_memtable_capacity(1 << 30);
        let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
        (0..resident).for_each(|i| db.put(&key(i), &[1; VALUE]).expect("put"));
        let value = [2; VALUE];
        let ((), allocs) = counted(|| {
            (0..updates).for_each(|i| db.put(&key(i % resident), &value).expect("update"));
        });
        assert_eq!(&db.get(&key(0)).expect("get")[..], &value);
        db.close().expect("close");
        ctx.finalize().expect("finalize");
        allocs
    });
    out.remove(0)
}

/// 10 000 same-length updates of resident keys, through `Db::put`, allocate
/// nothing: each overwrites its record in the log.
#[test]
fn a_same_length_update_allocates_nothing() {
    assert_eq!(same_length_updates(1000, 10_000), 0);
}

/// A table of N 144-byte records holds its index and, beside it, no more
/// than its logical bytes and one chunk: the log is chunks filled in turn,
/// never a buffer that doubles.
#[test]
fn a_table_holds_its_logical_bytes_and_one_chunk() {
    for n in [1, 100, 10_000] {
        let before = live();
        let mut table = MemTable::new();
        for i in 0..n {
            table.insert(&key(i), Entry::value(Bytes::from(vec![0; VALUE])));
        }
        let log = live() - before - index_of(n);
        assert_eq!(table.bytes(), (n * (KEY + VALUE)) as u64 + n as u64 * ENTRY_OVERHEAD);
        assert!(log <= (table.bytes() as usize + CHUNK) as i64, "{n} records: {log} B of log");
        assert!(log >= (n * RECORD) as i64, "{n} records: {log} B of log");
    }
}

/// Updates that alternate a value's length append: what they leave dead is
/// rewritten away before it passes what is live, so the log never holds
/// more than twice its live bytes and its room — dead bytes at most live
/// bytes and one chunk — and it is rewritten along the way.
#[test]
fn alternating_lengths_keep_dead_bytes_below_live_ones() {
    const KEYS: usize = 2000;
    let before = live();
    let mut table = MemTable::new();
    let mut lengths = [VALUE; KEYS];
    let record = |len: usize| (9 + KEY + len) as i64;
    for i in 0..KEYS {
        table.insert(&key(i), Entry::value(Bytes::from(vec![0; VALUE])));
    }
    let index = index_of(KEYS);
    let (mut largest, mut rewritten) = (0, false);
    for step in 0..10_000 {
        let i = step * 7 % KEYS;
        lengths[i] = if lengths[i] == VALUE { VALUE + 40 } else { VALUE };
        table.insert(&key(i), Entry::value(Bytes::from(vec![step as u8; lengths[i]])));
        let log = live() - before - index;
        let live_bytes: i64 = lengths.iter().map(|&len| record(len)).sum();
        assert!(log <= 2 * live_bytes + 2 * CHUNK as i64, "step {step}: {log} B of log");
        rewritten |= log < largest;
        largest = largest.max(log);
    }
    assert!(rewritten, "the log was rewritten");
    assert_eq!(table.len(), KEYS);
    for (i, &len) in lengths.iter().enumerate() {
        assert_eq!(table.get(&key(i)).expect("resident").value.len(), len);
    }
}

/// A value a get returned is the caller's: a later update of the same
/// length, which overwrites the record in the log, leaves it as it was.
#[test]
fn a_value_returned_by_a_get_outlives_an_update_in_place() {
    let platform = Platform::new(SystemProfile::test_profile(), 1);
    World::run(WorldConfig::for_tests(1), move |rank| {
        let ctx = Context::init(rank, platform.clone(), "nvm://got").expect("init");
        let db = ctx.open("db", OpenFlags::create(), Options::default()).expect("open");
        db.put(b"k", &[1; VALUE]).expect("put");
        let got = db.get(b"k").expect("get");
        db.put(b"k", &[2; VALUE]).expect("update");
        db.delete(b"k").expect("delete");
        db.put(b"k", &[3; VALUE]).expect("put again");
        assert_eq!(&got[..], &[1; VALUE]);
        assert_eq!(&db.get(b"k").expect("get")[..], &[3; VALUE]);
        db.close().expect("close");
        ctx.finalize().expect("finalize");
    });
}
