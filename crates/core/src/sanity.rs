//! Invariant checking: the LSM auditor (`papyruskv::sanity::audit_db`) and
//! the violation vocabulary it shares with the crash and chaos oracles
//! ([`ViolationKind`], [`Violation`], [`AuditReport`]).
//!
//! [`audit_db`] walks a database's storage stack and checks the structural
//! invariants the LSM design promises, returning its findings in an
//! [`AuditReport`]:
//!
//! - **SSTable internals**: records strictly key-sorted ([`SstOrder`]),
//!   SSIndex agrees with SSData — its record count is the parsed count,
//!   every fence offset is a record boundary and every fence key that
//!   record's key ([`LsmState`]) — and the bloom filter admits every stored
//!   key ([`BloomFalseNegative`] — bloom filters may lie positively, never
//!   negatively).
//! - **Registry shape**: live SSTables in ascending-SSID order, every SSID
//!   below `next_ssid` ([`LsmState`]).
//! - **MemTable accounting**: keys iterate in sorted order and the byte
//!   accounting matches a recount ([`LsmState`]).
//! - **Caches**: the local and remote caches' index finds every key from
//!   its home slot, the recency ring holds exactly the cached entries, and
//!   their bytes recount to the tracked total ([`LsmState`]).
//! - **Quiescence / manifest agreement** (checked when no flush is
//!   pending): immutable queues empty when their counters say so, the
//!   on-NVM manifest lists exactly the live SSIDs and the same `next_ssid`
//!   ([`ManifestMismatch`]), and no barrier-mark entries linger for epochs
//!   that already completed ([`BarrierEpochMismatch`]).
//!
//! The audit reads through the store backend directly and charges **no
//! virtual time** — it observes the simulation without perturbing it. Run
//! it at a quiesced point (right after a `barrier`, before new
//! operations); mid-stream, the quiescence checks can see legitimate
//! in-flight state.
//!
//! The other checks need no call: a world fails its job at finalize on an
//! envelope nobody received (`papyrus_mpi::World::run`), and `close`
//! reports leftover barrier marks on the handle's `take_io_errors`.
//!
//! [`SstOrder`]: ViolationKind::SstOrder
//! [`BloomFalseNegative`]: ViolationKind::BloomFalseNegative
//! [`LsmState`]: ViolationKind::LsmState
//! [`ManifestMismatch`]: ViolationKind::ManifestMismatch
//! [`BarrierEpochMismatch`]: ViolationKind::BarrierEpochMismatch

use crate::ckpt;
use crate::db::Db;
use crate::index::key_hash;
use crate::lru::{CacheEntry, LruCache};
use crate::memtable::{MemTable, ENTRY_OVERHEAD};
use crate::sstable::{Cursor, Encoded, SstReader};
use crate::stack::Stack;

/// What kind of sanity violation was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ViolationKind {
    /// `DbInner::barrier_marks` held unreconciled epochs at close.
    BarrierEpochMismatch,
    /// SSTable keys out of order, or SSID sequence not monotonic.
    SstOrder,
    /// A bloom filter reported "definitely absent" for a resident key.
    BloomFalseNegative,
    /// The on-NVM manifest disagrees with the live SSTable set.
    ManifestMismatch,
    /// MemTable byte accounting or migration/flush quiescence violated.
    LsmState,
    /// A manifest existed but could not be parsed (torn or corrupt write) —
    /// distinct from "absent", which composes a fresh database.
    ManifestCorrupt,
    /// An acknowledged-durable key-value pair was not readable (or had an
    /// impossible value) after crash recovery.
    DurabilityLost,
    /// Recovery surfaced a pair the workload never wrote, or a stale value
    /// that durability marks rule out.
    PhantomPair,
    /// Re-opening a database from crash-state bytes panicked, ended in its
    /// world's deadlock or livelock verdict, or returned an error instead of
    /// recovering.
    RecoveryFailed,
    /// A write acknowledged to the application vanished under injected
    /// faults (chaos oracle; excludes keys owned by a killed rank).
    AckedWriteLost,
    /// A get under injected faults returned a value the workload never
    /// wrote for that key (chaos oracle).
    PhantomRead,
    /// An operation under injected faults failed in an untyped way (panic
    /// or an error outside the failure-mode whitelist) where a typed error
    /// was required (chaos oracle).
    UntypedError,
    /// A chaos schedule's world ended in a deadlock or livelock verdict:
    /// some rank hung instead of timing out with a typed error.
    ChaosHang,
    /// Replication state broken: replica tables out of key order, replica
    /// SSIDs colliding with primary SSIDs, or a dead rank's promoted
    /// ranges claimed by zero or multiple live primaries.
    ReplicaState,
}

impl ViolationKind {
    /// Stable short name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            ViolationKind::BarrierEpochMismatch => "barrier-epoch-mismatch",
            ViolationKind::SstOrder => "sst-order",
            ViolationKind::BloomFalseNegative => "bloom-false-negative",
            ViolationKind::ManifestMismatch => "manifest-mismatch",
            ViolationKind::LsmState => "lsm-state",
            ViolationKind::ManifestCorrupt => "manifest-corrupt",
            ViolationKind::DurabilityLost => "durability-lost",
            ViolationKind::PhantomPair => "phantom-pair",
            ViolationKind::RecoveryFailed => "recovery-failed",
            ViolationKind::AckedWriteLost => "acked-write-lost",
            ViolationKind::PhantomRead => "phantom-read",
            ViolationKind::UntypedError => "untyped-error",
            ViolationKind::ChaosHang => "chaos-hang",
            ViolationKind::ReplicaState => "replica-state",
        }
    }
}

/// One recorded sanity violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Violation category.
    pub kind: ViolationKind,
    /// Human-readable description including the sites/ranks involved.
    pub detail: String,
}

/// Result of an invariant audit pass (e.g. `papyruskv::sanity::audit_db`):
/// the violations found by that pass, plus counters describing what was
/// checked.
#[derive(Debug, Default, Clone)]
pub struct AuditReport {
    /// Violations found by this pass.
    pub violations: Vec<Violation>,
    /// Number of SSTables examined.
    pub sstables_checked: usize,
    /// Number of records examined across all SSTables.
    pub records_checked: usize,
}

impl AuditReport {
    /// Whether the audit found nothing wrong.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// Record a violation found by this pass.
    pub fn push(&mut self, kind: ViolationKind, detail: String) {
        self.violations.push(Violation { kind, detail });
    }

    /// One-line-per-violation rendering (empty string when clean).
    pub fn render(&self) -> String {
        self.violations
            .iter()
            .map(|v| format!("[{}] {}", v.kind.name(), v.detail))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

fn lossy(key: &[u8]) -> String {
    String::from_utf8_lossy(key).into_owned()
}

/// Audit every record of one SSTable: key order, index/data agreement,
/// bloom completeness.
pub(crate) fn audit_sst(reader: &SstReader, report: &mut AuditReport) {
    report.sstables_checked += 1;
    let ssid = reader.ssid();
    let Some(data) = reader.records_image() else {
        report.push(
            ViolationKind::LsmState,
            format!("sst {ssid} ({}): SSData missing or corrupt", reader.base()),
        );
        return;
    };
    let records = Cursor::new(&data).count();
    if records != reader.len() {
        report.push(
            ViolationKind::LsmState,
            format!(
                "sst {ssid}: SSIndex lists {} records but SSData parses to {records}",
                reader.len()
            ),
        );
    }
    if let Some(lie) = reader.fence_mismatch(&data) {
        report.push(ViolationKind::LsmState, format!("sst {ssid}: SSIndex {lie}"));
    }
    let mut prev: Option<&[u8]> = None;
    for key in Cursor::new(&data).map(|rec| rec.key) {
        report.records_checked += 1;
        if let Some(p) = prev {
            if p >= key {
                report.push(
                    ViolationKind::SstOrder,
                    format!(
                        "sst {ssid}: records out of key order: {:?} not before {:?}",
                        lossy(p),
                        lossy(key)
                    ),
                );
            }
        }
        prev = Some(key);
        if !reader.maybe_contains(key) {
            report.push(
                ViolationKind::BloomFalseNegative,
                format!("sst {ssid}: bloom filter denies stored key {:?}", lossy(key)),
            );
        }
    }
}

/// Audit one MemTable: sorted iteration order, a whole record in the log
/// for every key, the log's byte counts — live bytes as recounted, dead
/// bytes never above them — byte-accounting drift, and the index: every
/// slot keeps its key's hash, every key is found from its home slot, and
/// the slots occupied are the keys counted.
pub(crate) fn audit_memtable(label: &str, mt: &MemTable, report: &mut AuditReport) {
    let mut occupied = 0;
    for (pos, hash, key) in mt.keys() {
        occupied += 1;
        let want = key_hash(key);
        if want != hash {
            report.push(
                ViolationKind::LsmState,
                format!(
                    "{label} MemTable slot {pos} keeps hash {hash:#010x}, its key {:?} hashes \
                     to {want:#010x}",
                    lossy(key)
                ),
            );
        }
        if mt.slot_of(key) != Some(pos) {
            report.push(
                ViolationKind::LsmState,
                format!(
                    "{label} MemTable key {:?} in slot {pos} is not found from its home slot",
                    lossy(key)
                ),
            );
        }
    }
    if occupied != mt.len() {
        let keys = mt.len();
        let detail = format!("{label} MemTable index occupies {occupied} slots for {keys} keys");
        report.push(ViolationKind::LsmState, detail);
    }
    let (mut recount, mut records, mut live) = (0u64, 0usize, 0usize);
    let mut prev: Option<&[u8]> = None;
    for (Encoded { rec, bytes }, _) in mt.records() {
        let key = rec.key;
        recount += (key.len() + rec.value.len()) as u64 + ENTRY_OVERHEAD;
        (records, live) = (records + 1, live + bytes.len());
        if let Some(p) = prev {
            if p >= key {
                report.push(
                    ViolationKind::LsmState,
                    format!(
                        "{label} MemTable iterates out of key order: {:?} not before {:?}",
                        lossy(p),
                        lossy(key)
                    ),
                );
            }
        }
        prev = Some(key);
    }
    if records != mt.len() {
        let keys = mt.len();
        let detail = format!("{label} MemTable log holds records of {records} of its {keys} keys");
        report.push(ViolationKind::LsmState, detail);
    }
    let (tracked, dead) = (mt.encoded_len(), mt.dead_len());
    if live != tracked || dead > live {
        report.push(
            ViolationKind::LsmState,
            format!(
                "{label} MemTable log accounting drift: {live} live bytes recounted, \
                 {tracked} tracked, {dead} dead"
            ),
        );
    }
    if recount != mt.bytes() {
        report.push(
            ViolationKind::LsmState,
            format!(
                "{label} MemTable byte accounting drift: recount {recount} != tracked {}",
                mt.bytes()
            ),
        );
    }
}

/// Audit one cache: the index — every slot keeps its key's hash, every key
/// is found from its home slot, the slots occupied are the keys counted —
/// and the recency ring: from its most recent entry round to it again it
/// visits exactly `len()` entries, each naming the one before it as its
/// `prev` (the first, the last), none of them free; their bytes recount to
/// `bytes()`, at most the capacity.
pub(crate) fn audit_cache(label: &str, cache: &LruCache, report: &mut AuditReport) {
    let mut occupied = 0;
    for (pos, hash, key) in cache.keys() {
        occupied += 1;
        let want = key_hash(key);
        if want != hash {
            report.push(
                ViolationKind::LsmState,
                format!(
                    "{label} cache slot {pos} keeps hash {hash:#010x}, its key {:?} hashes to \
                     {want:#010x}",
                    lossy(key)
                ),
            );
        }
        if cache.slot_of(key) != Some(pos) {
            report.push(
                ViolationKind::LsmState,
                format!(
                    "{label} cache key {:?} in slot {pos} is not found from its home slot",
                    lossy(key)
                ),
            );
        }
    }
    let keys = cache.len();
    if occupied != keys {
        let detail = format!("{label} cache index occupies {occupied} slots for {keys} keys");
        report.push(ViolationKind::LsmState, detail);
    }
    let free: std::collections::BTreeSet<u32> = cache.free_entries().collect();
    let ring: Vec<(u32, u32, &[u8], &CacheEntry)> = cache.recency().collect();
    let mut recount = 0u64;
    for (n, &(i, prev, key, entry)) in ring.iter().enumerate() {
        recount += (key.len() + entry.value.len()) as u64;
        let before = ring.get((n + ring.len() - 1) % ring.len()).map_or(i, |e| e.0);
        if prev != before {
            let detail = format!("{label} cache entry {i} links back to {prev}, not {before}");
            report.push(ViolationKind::LsmState, detail);
        }
        if free.contains(&i) {
            report.push(
                ViolationKind::LsmState,
                format!("{label} cache entry {i} is listed and free"),
            );
        }
    }
    if ring.len() != keys {
        let detail = format!("{label} cache list visits {} entries for {keys} keys", ring.len());
        report.push(ViolationKind::LsmState, detail);
    }
    let (tracked, capacity) = (cache.bytes(), cache.capacity());
    if recount != tracked || tracked > capacity {
        report.push(
            ViolationKind::LsmState,
            format!(
                "{label} cache byte accounting drift: recount {recount}, tracked {tracked}, \
                 capacity {capacity}"
            ),
        );
    }
}

/// Audit one stack — the primary, the staging or a replica stack — whose
/// SSTables must live under file names containing `namespace`: MemTable
/// accounting, its cache if it has one, ascending SSIDs below the
/// allocator, no table outside the namespace, every table's internals.
fn audit_stack(
    label: &str,
    stack: &Stack,
    kind: ViolationKind,
    namespace: &str,
    report: &mut AuditReport,
) {
    audit_memtable(label, &stack.mem, report);
    if let Some(cache) = &stack.cache {
        audit_cache(label, cache, report);
    }
    let ssids = stack.live_ssids();
    if !ssids.is_sorted_by(|a, b| a < b) {
        report.push(kind, format!("{label} SSTables not in ascending SSID order: {ssids:?}"));
    }
    for reader in &stack.ssts {
        if reader.ssid() >= stack.next_ssid {
            report.push(
                kind,
                format!(
                    "{label} sst {} at or above its next_ssid {}",
                    reader.ssid(),
                    stack.next_ssid
                ),
            );
        }
        if !reader.base().contains(namespace) {
            report.push(
                kind,
                format!(
                    "{label} sst {} stored at {:?} — outside its `{namespace}` namespace, \
                     colliding with another stack's SSTable files",
                    reader.ssid(),
                    reader.base()
                ),
            );
        }
        audit_sst(reader, report);
    }
}

/// Audit a database's full LSM state. See the module docs for the checks.
///
/// Cheap relative to the data (one in-memory pass per SSTable) and charges
/// no virtual time.
pub fn audit_db(db: &Db) -> AuditReport {
    let (ctx, inner) = (&db.ctx, &db.inner);
    let mut report = AuditReport::default();
    let me = ctx.rank.rank();

    // Primary tables live in `r<rank>/sst*`, replica tables in
    // `r<rank>/rep<origin>-sst*`, so neither can collide with (or be
    // salvaged into) the other.
    let (next_ssid, live) = {
        let stack = inner.stack.lock();
        audit_stack("local", &stack, ViolationKind::LsmState, "/sst", &mut report);
        // Under the stack's guard, so that auditing adds no last-guard
        // release, which would be a preemption point.
        audit_cache("remote", &inner.remote_cache.lock(), &mut report);
        (stack.next_ssid, stack.live_ssids())
    };
    audit_stack("remote", &inner.staging.lock(), ViolationKind::LsmState, "/sst", &mut report);
    for (&origin, stack) in inner.repl.lock().iter() {
        let label = format!("replica(r{origin})");
        let namespace = format!("/rep{origin:04}-sst");
        audit_stack(&label, stack, ViolationKind::ReplicaState, &namespace, &mut report);
    }
    // A dead rank's promoted ranges must be claimed by exactly one live
    // primary.
    for (dead, claimants) in ctx.platform.repl.claims_for(inner.id) {
        match *claimants.as_slice() {
            [primary] if ctx.comm_req.rank_known_dead(primary) => report.push(
                ViolationKind::ReplicaState,
                format!("dead rank {dead}: promoted primary r{primary} is itself dead"),
            ),
            [_] => {}
            _ => report.push(
                ViolationKind::ReplicaState,
                format!(
                    "dead rank {dead}: promoted ranges have {} claimants {claimants:?} \
                     (exactly one live primary required)",
                    claimants.len()
                ),
            ),
        }
    }

    let (pending_flushes, migration_inflight, stale_marks) = {
        let sync = inner.sync.lock();
        (sync.pending_flushes, sync.migration_inflight, inner.stale_barrier_marks(&sync))
    };
    for (epoch, count) in stale_marks {
        report.push(
            ViolationKind::BarrierEpochMismatch,
            format!(
                "rank {me}: leftover barrier marks for completed epoch {epoch} \
                 (count {count}) — marks must be consumed when all ranks arrive"
            ),
        );
    }
    if pending_flushes == 0 {
        let imm_local = inner.stack.lock().imm.len();
        if imm_local != 0 {
            report.push(
                ViolationKind::LsmState,
                format!("no flush pending but {imm_local} immutable local MemTables queued"),
            );
        }
    }
    if migration_inflight == 0 {
        let imm_remote = inner.staging.lock().imm.len();
        if imm_remote != 0 {
            report.push(
                ViolationKind::LsmState,
                format!(
                    "no migration in flight but {imm_remote} immutable remote MemTables queued"
                ),
            );
        }
    }

    // Manifest agreement is only well-defined when nothing is mid-flush
    // (flushes rewrite the manifest as their last step).
    if pending_flushes == 0 {
        let store = ctx.repo_store();
        match ckpt::read_manifest(&store, &ctx.repo.prefix, &inner.name, me) {
            ckpt::ManifestRead::Present(m_next, mut m_live) => {
                m_live.sort_unstable();
                if m_live != live {
                    report.push(
                        ViolationKind::ManifestMismatch,
                        format!("manifest lists SSIDs {m_live:?} but live set is {live:?}"),
                    );
                }
                if m_next != next_ssid {
                    report.push(
                        ViolationKind::ManifestMismatch,
                        format!("manifest next:{m_next} != in-memory next_ssid {next_ssid}"),
                    );
                }
            }
            ckpt::ManifestRead::Corrupt(why) => {
                report.push(
                    ViolationKind::ManifestCorrupt,
                    format!("rank {me}: manifest unparseable: {why}"),
                );
            }
            ckpt::ManifestRead::Absent => {
                if !live.is_empty() {
                    report.push(
                        ViolationKind::ManifestMismatch,
                        format!("no manifest on NVM but {} live SSTables", live.len()),
                    );
                }
            }
        }
    }

    report
}

/// Every key `stack` makes visible ([`Stack::records`]'s rule). A key whose
/// newest record is a tombstone maps to `None`.
fn visible(stack: &Stack) -> Vec<(Vec<u8>, Option<bytes::Bytes>)> {
    stack.records().values().map(|(key, value)| (key.to_vec(), value)).collect()
}

/// Dump every key this rank's primary stack currently makes visible (see
/// `visible`'s rule).
///
/// Reads the table images uncharged: no virtual time passes. Used by
/// the crash-consistency checker to compare a recovered store against its
/// KV oracle; like [`audit_db`], calling it is the opt-in.
pub fn dump_visible(db: &Db) -> Vec<(Vec<u8>, Option<bytes::Bytes>)> {
    visible(&db.inner.stack.lock())
}

/// Dump every key the replica stack held for `origin` currently makes
/// visible; an absent stack yields an empty list.
///
/// Charges no virtual time. Used by the chaos probes to check that
/// re-replication converged a successor's copy to the promoted data.
pub fn replica_visible(db: &Db, origin: usize) -> Vec<(Vec<u8>, Option<bytes::Bytes>)> {
    db.inner.repl.lock().get(&(origin as u32)).map_or_else(Vec::new, visible)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bloom::Bloom;
    use crate::memtable::Entry;
    use crate::sstable::{build_at, Record, TableImage};
    use bytes::Bytes;
    use papyrus_nvm::NvmStore;
    use papyrus_simtime::DeviceModel;

    #[test]
    fn audit_report_collects() {
        let mut r = AuditReport::default();
        assert!(r.is_clean());
        r.push(ViolationKind::BloomFalseNegative, "test: bloom fn (audit)".into());
        assert!(!r.is_clean());
        assert!(r.render().contains("bloom-false-negative"));
    }

    fn store() -> NvmStore {
        NvmStore::in_memory(DeviceModel::nvme_summitdev())
    }

    /// An SSTable whose SSData holds `keys` in the given order, with a bloom
    /// filter built from `bloom_keys` only — lets tests seed order and bloom
    /// violations that `build_at` refuses to produce.
    fn raw_sst(
        s: &NvmStore,
        base: &str,
        ssid: u64,
        keys: &[&[u8]],
        bloom_keys: &[&[u8]],
    ) -> SstReader {
        let empty = Entry::value(Bytes::new());
        let records = keys.iter().map(|key| Record::from((*key, &empty)));
        TableImage::encode(0, records).write_at(s, base, 0);
        let mut bloom = Bloom::with_capacity(bloom_keys.len().max(1), 10);
        for key in bloom_keys {
            bloom.insert(key);
        }
        s.put_at(&format!("{base}.bloom"), Bytes::from(bloom.to_bytes()), 0);
        SstReader::open_at(s, base, ssid, 0).expect("raw sst opens").0
    }

    #[test]
    fn well_formed_sstable_audits_clean() {
        let s = store();
        let entries: Vec<(Vec<u8>, Entry)> = [b"aa".as_slice(), b"bb", b"cc"]
            .iter()
            .map(|k| (k.to_vec(), Entry::value(Bytes::from_static(b"v"))))
            .collect();
        let (r, _) = build_at(&s, "audit/ok", 1, &entries, 0);
        let mut report = AuditReport::default();
        audit_sst(&r, &mut report);
        assert!(report.is_clean(), "unexpected: {}", report.render());
        assert_eq!(report.sstables_checked, 1);
        assert_eq!(report.records_checked, 3);
    }

    #[test]
    fn seeded_order_and_bloom_violations_are_detected() {
        let s = store();
        // Keys out of order, and the bloom filter was built without "zz".
        let r = raw_sst(&s, "audit/bad", 1, &[b"bb", b"aa", b"zz"], &[b"bb", b"aa"]);
        let mut report = AuditReport::default();
        audit_sst(&r, &mut report);
        assert!(
            report.violations.iter().any(|v| v.kind == ViolationKind::SstOrder),
            "order violation expected: {}",
            report.render()
        );
        assert!(
            report
                .violations
                .iter()
                .any(|v| v.kind == ViolationKind::BloomFalseNegative && v.detail.contains("zz")),
            "bloom false negative on zz expected: {}",
            report.render()
        );
    }

    /// An SSIndex that opens — well-formed, fits SSData's size — but lies
    /// about SSData is convicted: a fence key that is not its record's, a
    /// fence offset that is not a record boundary, a wrong record count.
    /// Each lying index is an honest one, of a table that differs from the
    /// audited one in just that respect.
    #[test]
    fn a_lying_ssindex_is_convicted() {
        let s = store();
        // 3000-byte values: two records fill a block, so five records make
        // three blocks and the index has fences past the first.
        let table = |first_key: &[u8], first_len: usize, extra: bool| {
            let mut keys = vec![first_key, b"k2", b"k3", b"k4", b"k5"];
            keys.extend(extra.then_some(&b"k6"[..]));
            let value = |i: usize| Bytes::from(vec![b'v'; if i == 0 { first_len } else { 3000 }]);
            keys.iter().enumerate().map(|(i, k)| (k.to_vec(), Entry::value(value(i)))).collect()
        };
        let honest: Vec<(Vec<u8>, Entry)> = table(b"k1", 3000, false);
        let convicted = |name: &str, other: Vec<(Vec<u8>, Entry)>| {
            let base = format!("audit/{name}");
            build_at(&s, &base, 1, &honest, 0);
            build_at(&s, "audit/other", 2, &other, 0);
            let index = s.backend().get_all("audit/other.index").expect("other's index");
            s.backend().put(&format!("{base}.index"), index);
            let (r, _) = SstReader::open_at(&s, &base, 1, 0).expect("a well-formed index opens");
            let mut report = AuditReport::default();
            audit_sst(&r, &mut report);
            assert!(
                report.violations.iter().all(|v| v.kind == ViolationKind::LsmState),
                "{name}: only the index is wrong: {}",
                report.render()
            );
            report.violations.into_iter().map(|v| v.detail).collect::<Vec<_>>().join("; ")
        };
        assert_eq!(convicted("honest", honest.clone()), "");
        let lie = convicted("key", table(b"k0", 3000, false));
        assert!(lie.contains("names key \"k0\"") && lie.contains("holds \"k1\""), "{lie}");
        let lie = convicted("offset", table(b"k1", 3001, false));
        assert!(lie.contains("fence offset 6023 is not a record boundary"), "{lie}");
        let lie = convicted("count", table(b"k1", 3000, true));
        assert!(lie.contains("lists 6 records but SSData parses to 5"), "{lie}");
    }

    #[test]
    fn seeded_replica_violations_are_detected() {
        use crate::options::{OpenFlags, Options};
        use crate::runtime::{Context, Platform};
        use crate::stack::Stack;
        use papyrus_mpi::{World, WorldConfig};
        use papyrus_nvm::SystemProfile;

        let profile = SystemProfile::summitdev();
        let platform = Platform::new(profile.clone(), 1);
        let reports = World::run(WorldConfig::new(1, profile.net.clone()), move |rank| {
            let ctx =
                Context::init(rank.clone(), platform.clone(), "nvm://sanity-repl").expect("init");
            let db = ctx.open("db", OpenFlags::create(), Options::default()).expect("open");
            {
                let (ctx_inner, inner) = (&db.ctx, &db.inner);
                // Seed a replica stack whose one SSTable (a) carries an SSID
                // at/above the stack's next_ssid, (b) lives outside the
                // `rep{origin}-` namespace, and (c) holds out-of-order keys.
                let store = ctx_inner.repo_store();
                let bad = raw_sst(
                    &store,
                    "sanity-repl/db/r0/sst0000000099",
                    99,
                    &[b"bb", b"aa"],
                    &[b"aa", b"bb"],
                );
                let mut stack = Stack::new(1, Vec::new());
                stack.ssts.push(bad);
                inner.repl.lock().insert(2, stack);
                // Seed a double promotion claim: two ranks both think they
                // own dead rank 0's ranges.
                ctx_inner.platform.repl.force_claim(inner.id, 0, 0);
                ctx_inner.platform.repl.force_claim(inner.id, 0, 1);
            }
            let report = audit_db(&db);
            // Clear the seeded stack so close sees an ordinary database.
            db.inner.repl.lock().clear();
            db.close().expect("close");
            ctx.finalize().expect("finalize");
            report
        });

        let report = &reports[0];
        let replica: Vec<_> =
            report.violations.iter().filter(|v| v.kind == ViolationKind::ReplicaState).collect();
        assert!(
            replica.iter().any(|v| v.detail.contains("next_ssid")),
            "SSID-above-next violation expected: {}",
            report.render()
        );
        assert!(
            replica.iter().any(|v| v.detail.contains("namespace")),
            "namespace-collision violation expected: {}",
            report.render()
        );
        assert!(
            replica.iter().any(|v| v.detail.contains("claimants")),
            "double-claim violation expected: {}",
            report.render()
        );
        assert!(
            report.violations.iter().any(|v| v.kind == ViolationKind::SstOrder),
            "replica key-order violation expected: {}",
            report.render()
        );
    }

    /// The one newest-wins merge, reached through each of its three users:
    /// the highest SSID wins among tables, a MemTable shadows every table,
    /// and tombstones are kept (the dumps, re-replication) or dropped (a
    /// merge of all live tables) as asked.
    #[test]
    fn newest_writer_wins_through_compaction_dumps_and_rereplication() {
        use crate::options::{BarrierLevel, CompactionTrigger, OpenFlags, Options};
        use crate::runtime::{Context, Platform};
        use crate::sstable::{merge_at, SstGet};
        use papyrus_mpi::{World, WorldConfig};
        use papyrus_nvm::SystemProfile;

        let profile = SystemProfile::summitdev();
        let platform = Platform::new(profile.clone(), 1);
        World::run(WorldConfig::new(1, profile.net.clone()), move |rank| {
            let ctx = Context::init(rank, platform.clone(), "nvm://newest-wins").expect("init");
            // No merge: the two flushed tables stay apart.
            let opt = Options::default().with_compaction_trigger(CompactionTrigger::Off);
            let db = ctx.open("db", OpenFlags::create(), opt).expect("open");
            for (k, v) in [(b"a", &b"old"[..]), (b"b", b"1"), (b"d", b"x")] {
                db.put(k, v).unwrap();
            }
            db.barrier(BarrierLevel::SsTable).unwrap(); // sst 1
            db.put(b"a", b"mid").unwrap();
            db.delete(b"d").unwrap();
            db.barrier(BarrierLevel::SsTable).unwrap(); // sst 2
            db.put(b"a", b"new").unwrap(); // MemTable only
            let val = |v: &'static [u8]| Some(Bytes::from_static(v));
            let key = |k: &[u8]| k.to_vec();

            // dump_visible: MemTable over sst 2 over sst 1; the tombstone
            // stays, as `None`.
            let want = vec![(key(b"a"), val(b"new")), (key(b"b"), val(b"1")), (key(b"d"), None)];
            assert_eq!(dump_visible(&db), want);

            // Re-replication's record list over the same stack shape: the
            // tombstone is a record to propagate.
            let tables = db.inner.stack.lock().ssts.clone();
            assert_eq!(tables.iter().map(SstReader::ssid).collect::<Vec<_>>(), vec![1, 2]);
            let mut replica = Stack::new(3, tables.clone());
            replica.mem.insert(b"a", Entry::value(Bytes::from_static(b"new")));
            db.inner.repl.lock().insert(7, replica);
            let records = crate::replica::replica_records(&db.inner, 7);
            db.inner.repl.lock().clear();
            let owned = |r: Record| (key(r.key), Bytes::copy_from_slice(r.value), r.tombstone);
            let got: Vec<_> = records.records().map(owned).collect();
            let live = |k: &[u8], v: &'static [u8]| (key(k), Bytes::from_static(v), false);
            assert_eq!(
                got,
                vec![live(b"a", b"new"), live(b"b", b"1"), (key(b"d"), Bytes::new(), true)]
            );

            // Compaction sees the tables only, handed over oldest first or
            // newest first: sst 2 beats sst 1.
            let store = db.ctx.repo_store();
            let reversed: Vec<SstReader> = tables.iter().rev().cloned().collect();
            let (kept, _) = merge_at(&store, &tables, "newest-wins/m1", 8, false, 0).unwrap();
            let (dropped, _) = merge_at(&store, &reversed, "newest-wins/m2", 9, true, 0).unwrap();
            for merged in [&kept, &dropped] {
                assert_eq!(
                    merged.get_at(b"a", true, 0).0,
                    SstGet::Found(Bytes::from_static(b"mid"))
                );
                assert_eq!(merged.get_at(b"b", true, 0).0, SstGet::Found(Bytes::from_static(b"1")));
            }
            assert_eq!(kept.get_at(b"d", true, 0).0, SstGet::Tombstone);
            assert_eq!(dropped.get_at(b"d", true, 0).0, SstGet::NotFound);
            assert_eq!((kept.len(), dropped.len()), (3, 2));

            db.close().expect("close");
            ctx.finalize().expect("finalize");
        });
    }

    #[test]
    fn memtable_recount_matches_tracking() {
        let mut mt = MemTable::new();
        mt.insert(b"k1", Entry::value(Bytes::from_static(b"v1")));
        mt.insert(b"k2", Entry::tombstone());
        mt.insert(b"k1", Entry::value(Bytes::from_static(b"longer-value")));
        let mut report = AuditReport::default();
        audit_memtable("test", &mt, &mut report);
        assert!(report.is_clean(), "unexpected: {}", report.render());
    }
}
