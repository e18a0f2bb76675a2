//! The read path: local get, handler-side service of remote gets, and
//! caller-side remote get with the storage-group fast path (paper
//! §2.6-§2.7, Figure 3).

use std::borrow::Borrow;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::NvmStore;
use papyrus_simtime::{Clock, SimNs};
use papyrus_telemetry::TID_HANDLER;
use parking_lot::Mutex;

use crate::db::{Db, DbInner};
use crate::error::{Error, Result};
use crate::lru::{CacheEntry, LruCache};
use crate::memtable::Entry;
use crate::msg::{self, tags, GetResp};
use crate::options::Consistency;
use crate::replica::{failover_get, maybe_promote};
use crate::runtime::{self, CtxInner};
use crate::sstable::{self, Ssid, SstGet, SstReader};
use crate::stack::Stack;

impl Db {
    /// `papyruskv_get`: retrieve the value for `key`. Returns
    /// `Err(Error::NotFound)` if absent or deleted (the C API's
    /// `PAPYRUSKV_NOT_FOUND`).
    pub fn get(&self, key: &[u8]) -> Result<Bytes> {
        match self.lookup(key)? {
            SstGet::Found(v) => Ok(v),
            _ => Err(Error::NotFound),
        }
    }

    /// Convenience: `get` with `Option` instead of `NotFound` errors.
    pub fn get_opt(&self, key: &[u8]) -> Result<Option<Bytes>> {
        Ok(self.lookup(key)?.into_value())
    }

    fn lookup(&self, key: &[u8]) -> Result<SstGet> {
        let (ctx, db) = (&self.ctx, &self.inner);
        db.check_open()?;
        if key.is_empty() {
            return Err(Error::InvalidArgument("empty key"));
        }
        let clock = ctx.clock();
        db.get_stats.record(key.len() as u64);
        let start = clock.now();
        let owner = db.dist.owner(key);
        let (res, count, ns) = if owner == ctx.rank.rank() {
            (Ok(local_get(db, key, clock)), &db.tel.get_local, &db.tel.get_local_ns)
        } else {
            (remote_get(ctx, db, key, owner, clock), &db.tel.get_remote, &db.tel.get_remote_ns)
        };
        if db.tel.on() {
            count.inc();
            ns.record(clock.now().saturating_sub(start));
        }
        res
    }
}

/// Search one SSTable for `key`, probing its bloom filter first when the
/// database has them on. `None`: the table is gone — the SSData the search
/// had to read is no longer there.
fn probe_sst(db: &DbInner, table: &SstReader, key: &[u8], clock: &Clock) -> Option<SstGet> {
    if db.opt.bloom_filter {
        if !table.maybe_contains(key) {
            db.tel.bloom_neg.inc();
            return Some(SstGet::NotFound);
        }
        db.tel.bloom_pass.inc();
    }
    let (hit, done) = table.try_get_at(key, db.opt.bin_search, clock.now())?;
    clock.merge(done);
    Some(hit)
}

/// Walk SSTables in the order given — newest SSID first (§2.6). The one walk
/// behind local and replica reads, whose tables cannot vanish under the
/// stack lock; one lost to the device reads as a miss.
pub(crate) fn walk_ssts<R: Borrow<SstReader>>(
    db: &DbInner,
    tables: impl Iterator<Item = R>,
    key: &[u8],
    clock: &Clock,
) -> SstGet {
    for table in tables {
        match probe_sst(db, table.borrow(), key, clock) {
            Some(SstGet::NotFound) | None => {}
            Some(hit) => return hit,
        }
    }
    SstGet::NotFound
}

impl DbInner {
    /// Search `stack`'s MemTables, charging `clock` one DRAM probe per
    /// table searched.
    pub(crate) fn get_mem<'s>(
        &self,
        stack: &'s Stack,
        key: &[u8],
        clock: &Clock,
    ) -> Option<&'s Entry> {
        let cost = self.mem.op_ns(key.len() as u64);
        clock.advance(cost);
        if let Some(e) = stack.mem.get(key) {
            return Some(e);
        }
        for mt in stack.imm.iter().rev() {
            clock.advance(cost);
            if let Some(e) = mt.get(key) {
                return Some(e);
            }
        }
        None
    }
}

type Cache<'a> = Option<&'a Mutex<LruCache>>;

/// Search a cache, if in use: a hit costs the DRAM copy of the value.
fn search_cache(db: &DbInner, cache: Cache, key: &[u8], clock: &Clock) -> SstGet {
    let Some(cache) = cache else { return SstGet::NotFound };
    let Some(hit) = cache.lock().get(key) else {
        db.get_stats.miss();
        return SstGet::NotFound;
    };
    clock.advance(db.mem.op_ns((key.len() + hit.value.len()) as u64));
    db.get_stats.hit();
    hit.into()
}

/// Search the primary stack's in-memory levels: MemTable, frozen MemTables
/// (newest first), then the local cache (§2.6, Figure 3).
fn search_memory(db: &DbInner, stack: &Stack, key: &[u8], clock: &Clock) -> SstGet {
    match db.get_mem(stack, key, clock) {
        Some(e) => e.into(),
        None => search_cache(db, db.live_local_cache(db.state.read().protection), key, clock),
    }
}

/// Full local get: memory, then the SSTables, then the cache fill — all
/// under one read lock of the stack, so the value the cache keeps is still
/// the newest when it goes in (a put invalidates under the write lock).
pub(crate) fn local_get(db: &DbInner, key: &[u8], clock: &Clock) -> SstGet {
    let stack = db.stack.read();
    let hit = search_memory(db, &stack, key, clock);
    if hit != SstGet::NotFound {
        return hit;
    }
    let hit = walk_ssts(db, stack.ssts.iter().rev(), key, clock);
    if let Some(entry) = hit.cache_entry() {
        if let Some(cache) = db.live_local_cache(db.state.read().protection) {
            cache.lock().insert(key, entry);
        }
    }
    hit
}

/// Serve a get on the handler thread: `search` runs on a clock starting at
/// the request's `stamp`. Returns its reply and the service-completion
/// stamp.
pub(crate) fn serve_get(
    db: &DbInner,
    span: &'static str,
    stamp: SimNs,
    search: impl FnOnce(&Clock) -> GetResp,
) -> (GetResp, SimNs) {
    let clk = Clock::starting_at(stamp);
    let resp = search(&clk);
    let end = clk.now();
    if db.tel.on() {
        db.tel.serve_gets.inc();
        db.tel.rec.span("core", span, TID_HANDLER, stamp, end);
    }
    (resp, end)
}

/// The owner's answer to a remote get (§2.6; storage-group fast path §2.7).
pub(crate) fn remote_get_reply(
    ctx: &CtxInner,
    db: &DbInner,
    key: &[u8],
    caller_group: u32,
    caller_rank: usize,
    clk: &Clock,
) -> GetResp {
    let me = ctx.rank.rank();
    let shared = caller_group != msg::NO_GROUP
        && caller_group == ctx.group_of(me)
        && ctx.shares_storage(me, caller_rank);
    if !shared {
        return get_resp(local_get(db, key, clk));
    }
    // Same storage group: "the message handler looks into the local
    // MemTable, immutable local MemTables, and local cache only" (§2.7)
    // and leaves the SSTables, newest first, to the caller.
    let stack = db.stack.read();
    match search_memory(db, &stack, key, clk) {
        SstGet::NotFound => {
            GetResp::SearchShared(stack.ssts.iter().rev().map(SstReader::ssid).collect())
        }
        hit => get_resp(hit),
    }
}

/// A search outcome as the reply to a remote caller.
pub(crate) fn get_resp(hit: SstGet) -> GetResp {
    hit.into_value().map_or(GetResp::NotFound, GetResp::Found)
}

/// The reply a remote handler sent to a get; `None` if it does not parse.
pub(crate) fn reply_of(m: papyrus_mpi::Message) -> Option<GetResp> {
    msg::decode_get_resp(m.payload).ok().map(|(_, resp)| resp)
}

/// A value fetched from another rank enters the remote cache, if in use.
fn cache_remote(cache: Cache, key: &[u8], hit: SstGet) -> SstGet {
    if let (Some(cache), SstGet::Found(v)) = (cache, &hit) {
        cache.lock().insert(key, CacheEntry::value(v.clone()));
    }
    hit
}

/// A remote handler's reply as a search outcome.
pub(crate) fn absorb_reply(cache: Cache, key: &[u8], reply: Option<GetResp>) -> SstGet {
    let hit = match reply {
        Some(GetResp::Found(v)) => SstGet::Found(v),
        _ => SstGet::NotFound,
    };
    cache_remote(cache, key, hit)
}

/// Caller-side remote get. Delegates to the primary-owner path and, with
/// replication on, falls over to the owner's successor replicas when the
/// owner is confirmed dead (DESIGN §11) — an acked write stays readable
/// through a single rank kill.
fn remote_get(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<SstGet> {
    if db.repl_n >= 2 && ctx.comm_req.rank_known_dead(owner) {
        // The fabric already returned a sticky dead verdict for the owner;
        // skip the doomed primary round trip entirely.
        maybe_promote(ctx, db, owner);
        return failover_get(ctx, db, key, owner, clock);
    }
    match remote_get_primary(ctx, db, key, owner, clock) {
        Err(Error::RankUnavailable(dead)) if db.repl_n >= 2 && dead == owner => {
            failover_get(ctx, db, key, owner, clock)
        }
        other => other,
    }
}

/// Primary-owner remote get: staging MemTables / remote cache, then a
/// request message, then (storage group) shared-SSTable search
/// (§2.6-§2.7, Figure 3).
fn remote_get_primary(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    clock: &Clock,
) -> Result<SstGet> {
    let state = *db.state.read();
    if state.consistency == Consistency::Relaxed {
        if let Some(e) = db.get_mem(&db.staging.lock(), key, clock) {
            return Ok(e.into());
        }
    }
    let cache = db.live_remote_cache(state.protection);
    let hit = search_cache(db, cache, key, clock);
    if hit != SstGet::NotFound {
        return Ok(hit);
    }

    // Request/response round trip through the owner's message handler.
    // Under the fault plane a confirmed-dead owner surfaces as
    // `Error::RankUnavailable` instead of a hang, while local and
    // surviving-rank keys stay serviceable (degraded mode).
    let me = ctx.rank.rank();
    let round_trip = |group: u32| {
        let encode = &mut |seq| msg::encode_get_req(db.id, group, seq, key);
        runtime::request(ctx, db, (owner, tags::GET_REQ, tags::GET_RESP), "remote get", encode)
            .map(reply_of)
    };
    let reply = round_trip(ctx.group_of(me))?;
    let Some(GetResp::SearchShared(ssids)) = reply else {
        return Ok(absorb_reply(cache, key, reply));
    };
    Ok(match search_peer_ssts(ctx, db, key, owner, &ssids, cache, clock) {
        // The owner's compaction may have merged and deleted listed
        // SSTables while we were probing them (the walk then stops short).
        // Retry with the storage-group fast path disabled (NO_GROUP
        // sentinel): the owner searches its own SSTables under its stack
        // lock, which compaction cannot race.
        SstGet::NotFound => absorb_reply(cache, key, round_trip(msg::NO_GROUP)?),
        hit => hit,
    })
}

/// Storage-group shared-SSTable search: read the owner's SSTables directly
/// from the shared NVM "as if it were a local get operation" (§2.7). A
/// listed table that has vanished — it does not open, or its block does not
/// read — ends the search there, a miss for the caller to take to the owner:
/// a merge replaces only the newest tables, so an older table outlives the
/// ones that shadowed it and must not answer in their place.
fn search_peer_ssts(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    key: &[u8],
    owner: usize,
    ssids_desc: &[Ssid],
    cache: Cache,
    clock: &Clock,
) -> SstGet {
    // What the owner no longer lists it has compacted away: let go of the
    // fence image and the bloom filter held for it.
    db.peer_readers.lock().retain(|&(of, ssid), _| of != owner || ssids_desc.contains(&ssid));
    let store = ctx.repo_store_for(owner);
    for &ssid in ssids_desc {
        let Some(table) = peer_reader(ctx, db, &store, owner, ssid, clock) else {
            return SstGet::NotFound;
        };
        match probe_sst(db, &table, key, clock) {
            None => return SstGet::NotFound,
            Some(SstGet::NotFound) => {}
            Some(hit) => return cache_remote(cache, key, hit),
        }
    }
    SstGet::NotFound
}

/// The reader for `owner`'s SSTable `ssid`, opened on first use; `None` if
/// the owner's compaction deleted the table meanwhile.
fn peer_reader(
    ctx: &CtxInner,
    db: &DbInner,
    store: &NvmStore,
    owner: usize,
    ssid: Ssid,
    clock: &Clock,
) -> Option<SstReader> {
    // Probe the cache, then open OUTSIDE the lock: `open_at` is charged
    // NVM I/O, and holding `peer_readers` across it would serialise every
    // cross-rank read behind one device stall. Two threads may race to
    // open the same SSTable; the loser's insert overwrites an identical
    // reader.
    let cached = db.peer_readers.lock().get(&(owner, ssid)).cloned();
    if cached.is_some() {
        return cached;
    }
    let base = sstable::sst_base(&ctx.repo.prefix, &db.name, owner, ssid);
    let (reader, done) = SstReader::open_at(store, &base, ssid, clock.now())?;
    clock.merge(done);
    db.peer_readers.lock().insert((owner, ssid), reader.clone());
    Some(reader)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::options::{BarrierLevel, OpenFlags, Options};
    use crate::runtime::{Context, Platform};
    use papyrus_mpi::{World, WorldConfig};
    use papyrus_nvm::SystemProfile;

    /// In a storage group of 2, the caller's readers of the owner's tables
    /// follow the owner's live set: once the owner has merged tables 1–4
    /// into 5, the next shared search drops the four stale readers, keeps
    /// only the one it opens, and still answers.
    #[test]
    fn peer_readers_follow_the_owners_live_set() {
        let platform = Platform::with_physical_groups(SystemProfile::test_profile(), 2, 2);
        World::run(WorldConfig::for_tests(2), move |rank| {
            let ctx = Context::init_with_group(rank, platform.clone(), "nvm://peer-prune", 2)
                .expect("init");
            let opt = Options::default().with_custom_hash(Arc::new(|_k: &[u8]| 1));
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            let flush = |table: u8| {
                if ctx.rank() == 1 {
                    for i in 0..10 {
                        db.put(format!("t{table}-k{i}").as_bytes(), &[table; 32]).unwrap();
                    }
                }
                db.barrier(BarrierLevel::SsTable).unwrap();
            };
            let held = || {
                let mut held: Vec<_> = db.inner.peer_readers.lock().keys().copied().collect();
                held.sort_unstable();
                held
            };
            (1..=3).for_each(flush);
            if ctx.rank() == 0 {
                // A key of the oldest table: the walk opens all three.
                assert_eq!(&db.get(b"t1-k3").unwrap()[..], &[1; 32]);
                assert_eq!(held(), vec![(1, 1), (1, 2), (1, 3)]);
            }
            db.barrier(BarrierLevel::MemTable).unwrap();
            flush(4); // the owner's flush of sst 4 merges 1..=4 into sst 5
            if ctx.rank() == 0 {
                assert_eq!(&db.get(b"t2-k7").unwrap()[..], &[2; 32]);
                assert_eq!(held(), vec![(1, 5)]);
                assert_eq!(&db.get(b"t4-k0").unwrap()[..], &[4; 32]);
            } else {
                assert_eq!(db.inner.stack.read().live_ssids(), vec![5]);
            }
            db.barrier(BarrierLevel::MemTable).unwrap();
            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }

    /// A partial merge deletes tables that shadow an older one it leaves
    /// live. A peer holding the list the owner sent before the merge — v1 of
    /// `key` in tier-1 table 5, then its overwrite (`deleted`: its
    /// tombstone) in table 6 — must take the vanished table 6 to the owner,
    /// not walk past it to v1: stale value, or resurrected delete. `warm`:
    /// the peer opened the tables before the merge, so it is the block read
    /// that fails, not the open.
    fn peer_walk_over_a_partial_merge(repo: &'static str, deleted: bool, warm: bool) {
        let platform = Platform::with_physical_groups(SystemProfile::test_profile(), 2, 2);
        World::run(WorldConfig::for_tests(2), move |rank| {
            let ctx = Context::init_with_group(rank, platform.clone(), repo, 2).expect("init");
            // Ten 115-byte records a flush: tier 0; four flushes merged: tier 1.
            let opt = Options::default()
                .with_memtable_capacity(1400)
                .with_custom_hash(Arc::new(|_k: &[u8]| 1));
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            let owner = ctx.rank() == 1;
            let flush = |table: u8, key: Option<&[u8]>| {
                if owner {
                    for i in 0..9 {
                        db.put(format!("t{table}-k{i}").as_bytes(), &[table; 100]).unwrap();
                    }
                    match key {
                        Some(key) if deleted && table == 6 => db.delete(key).unwrap(),
                        Some(key) => db.put(key, &[table; 100]).unwrap(),
                        None => db.put(b"filler", &[table; 100]).unwrap(),
                    }
                }
                db.barrier(BarrierLevel::SsTable).unwrap();
            };
            flush(1, Some(b"key"));
            (2..=4).for_each(|table| flush(table, None)); // merged into sst 5
            flush(6, Some(b"key"));
            flush(7, None);
            let held = || {
                let mut held: Vec<_> = db.inner.peer_readers.lock().keys().copied().collect();
                held.sort_unstable();
                held
            };
            let newest = (!deleted).then(|| Bytes::from(vec![6; 100]));
            if owner {
                assert_eq!(db.inner.stack.read().live_ssids(), vec![5, 6, 7]);
            } else if warm {
                assert_eq!(db.get_opt(b"t1-k0").unwrap(), Some(Bytes::from(vec![1; 100])));
                assert_eq!(held(), vec![(1, 5), (1, 6), (1, 7)]);
                assert_eq!(db.get_opt(b"key").unwrap(), newest);
            }
            db.barrier(BarrierLevel::MemTable).unwrap();
            // The owner's merge: 6..=9 into sst 10, beside sst 5.
            (8..=9).for_each(|table| flush(table, None));
            if owner {
                assert_eq!(db.inner.stack.read().live_ssids(), vec![5, 10]);
            } else {
                // The walk of a get whose `SearchShared` reply left the owner
                // before the merge.
                let (ctx, inner) = (&db.ctx, &db.inner);
                let walked = search_peer_ssts(ctx, inner, b"key", 1, &[7, 6, 5], None, ctx.clock());
                assert_eq!(walked, SstGet::NotFound, "a vanished table is the owner's to answer");
                assert_eq!(db.get_opt(b"key").unwrap(), newest);
                assert_eq!(db.get_opt(b"t1-k0").unwrap(), Some(Bytes::from(vec![1; 100])));
                assert_eq!(held(), vec![(1, 5), (1, 10)], "the owner's live set, no more");
            }
            db.barrier(BarrierLevel::MemTable).unwrap();
            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }

    #[test]
    fn a_peer_never_walks_past_a_vanished_table() {
        peer_walk_over_a_partial_merge("nvm://peer-stale-read", false, true);
        peer_walk_over_a_partial_merge("nvm://peer-stale-open", false, false);
        peer_walk_over_a_partial_merge("nvm://peer-undelete-read", true, true);
        peer_walk_over_a_partial_merge("nvm://peer-undelete-open", true, false);
    }
}

/// Schedule-exhaustive model of the local cache's coherence with the
/// primary stack, compiled and run only under `--cfg modelcheck` (`cargo
/// xtask modelcheck`). It drives the real bodies — [`DbInner::insert_local`]
/// and [`local_get`] — whose locks resolve to the explorer's shims.
#[cfg(all(test, modelcheck))]
mod modelcheck_tests {
    use papyrus_modelcheck as mc;
    use papyrus_simtime::{DeviceModel, MemModel};

    use super::*;
    use crate::options::Options;
    use crate::write::build_riding_out;

    const KEY: &[u8] = b"k";

    fn value(v: &'static [u8]) -> Entry {
        Entry::value(Bytes::from_static(v))
    }

    fn found(v: &'static [u8]) -> SstGet {
        SstGet::Found(Bytes::from_static(v))
    }

    /// One handler-thread ingest of a new version of `KEY` racing one
    /// app-thread get that finds the old version in an SSTable and fills
    /// the cache with it; then the MemTable holding the new version is
    /// flushed and retired, as `run_flush` does, and `KEY` is read again.
    /// The cache is searched before the SSTables, so a fill that outlived
    /// the ingest's invalidation now shows: the second get must return the
    /// new version under every schedule.
    fn stale_fill_model(
        put: fn(&DbInner, &[u8], Entry),
        get: fn(&DbInner, &[u8], &Clock) -> SstGet,
    ) -> impl Fn() + Send + Sync + 'static {
        move || {
            let store = NvmStore::in_memory(DeviceModel::nvme_summitdev());
            let (old, _) =
                sstable::build_at(&store, "mc/db/r0/sst1", 1, &[(KEY.to_vec(), value(b"old"))], 0);
            let stack = Stack::new(2, vec![old]);
            let db = DbInner::new(0, "db", 0, 1, MemModel::free(), Options::default(), stack);
            let db = Arc::new(db);

            let ingest = {
                let db = db.clone();
                mc::thread::spawn(move || put(&db, KEY, value(b"new")))
            };
            let reader = {
                let db = db.clone();
                mc::thread::spawn(move || get(&db, KEY, &Clock::new()))
            };
            ingest.join().unwrap();
            let raced = reader.join().unwrap();
            assert!(raced == found(b"old") || raced == found(b"new"), "{raced:?}");

            let mt = db.stack.write().freeze().expect("the ingest is in the MemTable");
            let ssid = db.stack.write().alloc_ssid();
            let what = format_args!("model flush");
            let (table, _) = build_riding_out(&db, &store, "mc/db/r0/sst2", ssid, &mt, 0, what);
            db.stack.write().retire(&mt, table);
            assert_eq!(get(&db, KEY, &Clock::new()), found(b"new"), "stale cache fill");
        }
    }

    /// Pinned — see EXPERIMENTS.md; a change means the scheduler/DPOR or
    /// the locking of the put/get bodies changed.
    const PINNED_STALE_FILL: u64 = 15;

    #[test]
    fn modelcheck_local_cache_never_outlives_put_exhaustive() {
        // As the handler's ingest does: the attribute is read, then passed.
        let put = |db: &DbInner, key: &[u8], entry| {
            let protection = db.state.read().protection;
            db.insert_local(protection, key, entry);
        };
        let report = mc::explore(stale_fill_model(put, local_get));
        assert!(report.ok(), "cache coherence model must be clean: {:?}", report.violations);
        assert_eq!(report.interleavings, PINNED_STALE_FILL, "see EXPERIMENTS.md");
    }

    /// Seeded bug: the locking this model was written against. The put
    /// invalidates the cache *before* the MemTable insert, each under its
    /// own lock, and the get fills the cache after letting go of the
    /// stack. The explorer must find the schedule where the fill lands
    /// between the two put steps.
    #[test]
    fn modelcheck_seedbug_stale_cache_fill_detected() {
        fn racy_put(db: &DbInner, key: &[u8], entry: Entry) {
            db.local_cache.lock().invalidate(key);
            db.stack.write().mem.insert(key, entry);
        }
        fn racy_get(db: &DbInner, key: &[u8], clock: &Clock) -> SstGet {
            let hit = {
                let stack = db.stack.read();
                match search_memory(db, &stack, key, clock) {
                    SstGet::NotFound => walk_ssts(db, stack.ssts.iter().rev(), key, clock),
                    hit => return hit,
                }
            };
            if let Some(entry) = hit.cache_entry() {
                db.local_cache.lock().insert(key, entry);
            }
            hit
        }
        let report = mc::Builder::new().check(stale_fill_model(racy_put, racy_get));
        let v = report.violations.first().expect("explorer must detect the stale cache fill");
        assert_eq!(v.kind, mc::ViolationKind::Panic, "{v:?}");
        assert!(v.detail.contains("stale cache fill"), "{v:?}");
        assert!(report.schedule.is_some(), "failing schedule must be reported");
    }
}
