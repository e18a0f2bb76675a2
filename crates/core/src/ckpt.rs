//! Persistence support: manifests, asynchronous checkpoint/restart, and
//! restart with redistribution (paper §4).
//!
//! NVM scratch is trimmed at job end, so databases that must outlive a job
//! are checkpointed to the parallel file system and restored — either
//! verbatim (same rank count: the SSTables "can be reused as they are") or
//! by re-putting every pair under the new hash distribution (different rank
//! count).
//!
//! Snapshot layout on the PFS:
//!
//! ```text
//! <dest>/<db>/META            nranks
//! <dest>/<db>/r<k>/MANIFEST   next_ssid + live SSID list of rank k
//! <dest>/<db>/r<k>/sst<id>.*  the SSTable triples
//! ```
//!
//! Replica tables (DESIGN.md §11, `rep<origin>-sst*` files) are
//! deliberately excluded: a checkpoint already contains every primary's
//! ranges exactly once, so snapshotting the copies would multiply PFS
//! traffic by the replication factor to preserve data the restart path
//! re-derives anyway — a restarted job rebuilds its replica stacks from
//! fresh puts, the same way an `R`-upgrade of an existing database would.

use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::NvmStore;
use papyrus_simtime::SimNs;

use crate::db::{Db, DbInner};
use crate::error::{Error, Result};
use crate::options::{BarrierLevel, OpenFlags, Options};
use crate::runtime::{CompactJob, Context, CtxInner, Event};
use crate::sstable::{Cursor, Ssid, SstReader, SST_FILES};
use crate::sync::barrier_inner;

/// Write a rank manifest at `now`; returns the completion stamp.
///
/// Format: line 1 `next:<ssid>`, line 2 space-separated live SSIDs, line 3
/// the `ok` end sentinel (a torn write is missing it and parses as
/// [`ManifestRead::Corrupt`] instead of a silently truncated live list).
///
/// The update is crash-atomic: fence the data writes the manifest commits,
/// write `MANIFEST.tmp`, rename it over the live manifest, fence again. A
/// crash at any point observes either the old manifest or the new one.
fn write_manifest_at(
    store: &NvmStore,
    prefix: &str,
    db: &str,
    rank: usize,
    next_ssid: Ssid,
    live: &[Ssid],
    now: SimNs,
) -> SimNs {
    let mut text = format!("next:{next_ssid}\n");
    for (i, s) in live.iter().enumerate() {
        if i > 0 {
            text.push(' ');
        }
        text.push_str(&s.to_string());
    }
    text.push_str("\nok\n");
    let path = manifest_path(prefix, db, rank);
    let tmp = format!("{path}.tmp");
    // Nothing the manifest references may be reordered past its commit.
    store.fence();
    let t = store.put_at(&tmp, Bytes::from(text), now);
    let (_, t) = store.rename_at(&tmp, &path, t);
    store.fence();
    t
}

/// Commit this rank's manifest of database `db` in the repository.
pub(crate) fn commit_manifest(
    ctx: &CtxInner,
    db: &str,
    next_ssid: Ssid,
    live: &[Ssid],
    now: SimNs,
) -> SimNs {
    write_manifest_at(
        &ctx.repo_store(),
        &ctx.repo.prefix,
        db,
        ctx.rank.rank(),
        next_ssid,
        live,
        now,
    )
}

/// Outcome of reading a rank manifest: absent (fresh database) is a
/// different situation from present-but-unparseable (torn or corrupt
/// write), which recovery must report rather than mask.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ManifestRead {
    /// No manifest object exists.
    Absent,
    /// A manifest object exists but cannot be parsed; the payload says why.
    Corrupt(String),
    /// Parsed: (`next_ssid`, live SSID list).
    Present(Ssid, Vec<Ssid>),
}

/// Read a rank manifest, distinguishing absence from corruption.
pub(crate) fn read_manifest(store: &NvmStore, prefix: &str, db: &str, rank: usize) -> ManifestRead {
    let path = manifest_path(prefix, db, rank);
    let Some(data) = store.backend().get_all(&path) else {
        return ManifestRead::Absent;
    };
    let corrupt = |why: &str| ManifestRead::Corrupt(format!("{path}: {why}"));
    let Ok(text) = std::str::from_utf8(&data) else {
        return corrupt("not utf-8");
    };
    let mut lines = text.lines();
    let next = match lines.next().and_then(|l| l.strip_prefix("next:")) {
        Some(v) => match v.trim().parse() {
            Ok(n) => n,
            Err(_) => return corrupt("unparseable next_ssid"),
        },
        None => return corrupt("missing next: line"),
    };
    let live = match lines.next() {
        Some(line) => {
            match line
                .split_whitespace()
                .map(str::parse)
                .collect::<std::result::Result<Vec<Ssid>, _>>()
            {
                Ok(v) => v,
                Err(_) => return corrupt("unparseable SSID list"),
            }
        }
        None => return corrupt("truncated before SSID list"),
    };
    if lines.next() != Some("ok") {
        return corrupt("missing end sentinel (torn write)");
    }
    ManifestRead::Present(next, live)
}

/// A crash-state anomaly found on a recovery path, as the typed error the
/// recovered database carries ([`Db::take_io_errors`]). Unconditional: a torn
/// manifest or a missing manifest-listed SSTable is lost acknowledged data
/// whether or not any checker is watching, so it is also echoed to stderr
/// here, where it is found. Recovery still proceeds (ignore-and-report).
pub(crate) fn data_loss(detail: String) -> Error {
    eprintln!("papyruskv: data loss: {detail}");
    Error::DataLoss(detail)
}

/// The manifest of `rank` in the snapshot at `path`. A missing or corrupt
/// one is added to `lost`, with what the caller does about it (`then`), and
/// reads as `None`.
fn snapshot_manifest(
    pfs: &NvmStore,
    path: &str,
    name: &str,
    rank: usize,
    then: &str,
    lost: &mut Vec<Error>,
) -> Option<(Ssid, Vec<Ssid>)> {
    let why = match read_manifest(pfs, path, name, rank) {
        ManifestRead::Present(next, ssids) => return Some((next, ssids)),
        ManifestRead::Absent => format!("snapshot manifest for rank {rank} missing"),
        ManifestRead::Corrupt(why) => why,
    };
    lost.push(data_loss(format!("restart {path}/{name}: {why} — {then}")));
    None
}

fn manifest_path(prefix: &str, db: &str, rank: usize) -> String {
    format!("{prefix}/{db}/r{rank}/MANIFEST")
}

fn meta_path(prefix: &str, db: &str) -> String {
    format!("{prefix}/{db}/META")
}

impl Db {
    /// `papyruskv_checkpoint`: asynchronously snapshot the database to
    /// `dest` on the parallel file system (§4.2): barrier at SSTable level
    /// so the snapshot is entirely on NVM, then hand the SSTable set to the
    /// compaction thread for background transfer. Collective. The returned
    /// [`Event`] completes when this rank's transfer finishes.
    pub fn checkpoint(&self, dest: &str) -> Result<Event> {
        let (ctx, db) = (&self.ctx, &self.inner);
        db.check_open()?;
        let dest = dest.trim_matches('/').to_string();
        if dest.is_empty() {
            return Err(Error::InvalidArgument("empty checkpoint path"));
        }
        // "the runtime internally calls papyruskv_barrier() with the
        // PAPYRUSKV_SSTABLE parameter" — after this, all MemTables are flushed.
        barrier_inner(ctx, db, BarrierLevel::SsTable)?;
        let snapshot: Vec<SstReader> = db.stack.read().ssts.clone();
        let event = Event::new(ctx.clock().clone());
        ctx.compact_q.push(CompactJob::Checkpoint {
            db: db.clone(),
            dest,
            snapshot,
            event: event.clone(),
            stamp: ctx.clock().now(),
        });
        // "After that, the MPI ranks continue their executions" — the caller
        // holds an event and may keep updating the database (updates create new
        // SSTables and cannot touch the snapshot).
        Ok(event)
    }
}

/// Compaction-thread body of the checkpoint: copy each snapshot SSTable
/// NVM → PFS, then write this rank's snapshot manifest (and META on rank 0).
/// Returns the virtual completion stamp, or `(stamp, error)` on a typed
/// failure — `ENOSPC` on the destination aborts the transfer recoverably
/// (the snapshot's SSTables stay intact on NVM; a partial copy on the PFS
/// is debris without a committed manifest/META and can be retried over).
pub(crate) fn run_checkpoint_transfer(
    ctx: &CtxInner,
    db: &Arc<DbInner>,
    dest: &str,
    snapshot: &[SstReader],
    stamp: SimNs,
) -> std::result::Result<SimNs, (SimNs, Error)> {
    let src_store = ctx.repo_store();
    let pfs = &ctx.pfs();
    let me = ctx.rank.rank();
    let mut t = stamp;
    let mut ssids = Vec::with_capacity(snapshot.len());
    for reader in snapshot {
        ssids.push(reader.ssid());
        for ext in SST_FILES {
            let src = format!("{}.{ext}", reader.base());
            let dst = format!("{}/{}/r{me}/sst{:010}.{ext}", dest, db.name, reader.ssid());
            // Source reads go through the infallible path (transient faults
            // are ridden out inside the store); only destination ENOSPC is
            // surfaced as a typed, recoverable checkpoint failure. With the
            // fault plane off the first attempt cannot fail.
            if let Some((bytes, read_done)) = src_store.read_all_at(&src, t) {
                t = match pfs.try_put_at(&dst, bytes.clone(), read_done) {
                    Ok(done) => done,
                    Err(papyrus_nvm::IoFault::NoSpace) => {
                        return Err((
                            read_done,
                            Error::StorageFull(format!("checkpoint of db {} to {dest}", db.name)),
                        ));
                    }
                    Err(papyrus_nvm::IoFault::TransientEio) => pfs.put_at(&dst, bytes, read_done),
                };
            }
        }
    }
    ssids.sort_unstable();
    let next_ssid = db.stack.read().next_ssid;
    t = write_manifest_at(pfs, dest, &db.name, me, next_ssid, &ssids, t);
    if me == 0 {
        t = pfs.put_at(
            &meta_path(dest, &db.name),
            Bytes::from(format!("{}\n", ctx.rank.size())),
            t,
        );
        pfs.fence();
    }
    Ok(t)
}

impl Context {
    /// `papyruskv_restart`: revert database `name` from the snapshot at
    /// `path` (§4.2). If the snapshot was taken with the same number of
    /// ranks (and `force_redistribute` is off), SSTables are copied back
    /// verbatim; otherwise every key-value pair is re-put under the new
    /// distribution ("restart with redistribution", Figure 5(c)).
    ///
    /// Collective. Returns the database and an [`Event`] carrying the
    /// virtual completion time of the transfer.
    pub fn restart(
        &self,
        path: &str,
        name: &str,
        flags: OpenFlags,
        opt: Options,
        force_redistribute: bool,
    ) -> Result<(Db, Event)> {
        let ctx = self;
        let path = path.trim_matches('/').to_string();
        let inner = &ctx.inner;
        let pfs = &inner.pfs();
        let me = inner.rank.rank();
        let n = inner.rank.size();

        let meta = pfs
            .backend()
            .get_all(&meta_path(&path, name))
            .ok_or_else(|| Error::InvalidSnapshot(format!("missing META under {path}/{name}")))?;
        let old_n: usize = std::str::from_utf8(&meta)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .ok_or_else(|| Error::InvalidSnapshot("unparseable META".into()))?;

        // What the snapshot could not give back; handed to the database
        // this restart produces.
        let mut lost = Vec::new();
        let (db, done) = if old_n == n && !force_redistribute {
            // Same rank count: "the SSTables in the snapshot can be reused as
            // they are, without any additional file manipulation" — copy them
            // back PFS → NVM and compose.
            //
            // Anomalies in the snapshot (missing/corrupt manifest, incomplete
            // SSTable triples) are reported and tolerated as an empty/partial
            // rank rather than returned as errors: restart is collective, and a
            // rank erroring out while its peers proceed to the collective open
            // would hang the job — strictly worse than recovering what exists.
            let dst_store = inner.repo_store();
            let mut t = inner.clock().now();
            let then = "restoring an empty rank";
            let (next, ssids) =
                snapshot_manifest(pfs, &path, name, me, then, &mut lost).unwrap_or((1, Vec::new()));
            let mut restored = Vec::with_capacity(ssids.len());
            for &ssid in &ssids {
                // Probe the whole triple before copying anything: a torn
                // snapshot must not be restored as a partial triple.
                let complete = SST_FILES
                    .iter()
                    .all(|ext| pfs.exists(&format!("{path}/{name}/r{me}/sst{ssid:010}.{ext}")));
                if !complete {
                    lost.push(data_loss(format!(
                        "restart {path}/{name}: snapshot sst {ssid} of rank {me} incomplete \
                         — skipping it"
                    )));
                    continue;
                }
                for ext in SST_FILES {
                    let src = format!("{path}/{name}/r{me}/sst{ssid:010}.{ext}");
                    let dst = format!("{}/{name}/r{me}/sst{ssid:010}.{ext}", inner.repo.prefix);
                    if let Some((bytes, read_done)) = pfs.read_all_at(&src, t) {
                        t = dst_store.put_at(&dst, bytes, read_done);
                    }
                }
                restored.push(ssid);
            }
            t = commit_manifest(inner, name, next, &restored, t);
            // "When the file transfers complete, the runtime internally calls
            // papyruskv_open() to compose the database."
            let db = ctx.open(name, flags, opt)?;
            (db, Event::completed(inner.clock().clone(), t))
        } else {
            // Restart with redistribution (Figure 5(c)): each rank takes a
            // partition of the old ranks' SSTables and re-puts every pair; "the
            // workload of put operations is partitioned across all the MPI
            // ranks and executed in parallel". Snapshot anomalies are reported
            // and skipped for the same collective-divergence reason as above.
            let db = ctx.open(name, OpenFlags::create(), opt)?;
            let mut t = inner.clock().now();
            for old_rank in (me..old_n).step_by(n) {
                let then = "skipping that rank";
                let Some((_, ssids)) =
                    snapshot_manifest(pfs, &path, name, old_rank, then, &mut lost)
                else {
                    continue;
                };
                for ssid in ssids {
                    let base = format!("{path}/{name}/r{old_rank}/sst{ssid:010}");
                    let Some((reader, opened)) = SstReader::open_at(pfs, &base, ssid, t) else {
                        lost.push(data_loss(format!(
                            "restart {path}/{name}: snapshot sst {ssid} of old rank \
                             {old_rank} unreadable — skipping it"
                        )));
                        continue;
                    };
                    t = opened;
                    let Ok((image, scanned)) = reader.scan_at(t) else {
                        lost.push(data_loss(format!(
                            "restart {path}/{name}: snapshot sst {ssid} of old rank \
                             {old_rank} does not parse — skipping it"
                        )));
                        continue;
                    };
                    inner.clock().merge(scanned);
                    for rec in Cursor::new(&image) {
                        if rec.tombstone {
                            db.delete(rec.key)?;
                        } else {
                            db.put(rec.key, rec.value)?;
                        }
                    }
                    t = inner.clock().now();
                }
            }
            inner.clock().merge(t);
            db.barrier(BarrierLevel::SsTable)?;
            let done = Event::completed(inner.clock().clone(), inner.clock().now());
            (db, done)
        };
        db.inner.io_errors.lock().extend(lost);
        Ok((db, done))
    }
}
