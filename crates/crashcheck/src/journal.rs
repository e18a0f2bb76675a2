//! Crash-point journal: record every backend mutation, then materialise
//! the bytes a crash at any point could leave behind.
//!
//! The crash-consistency checker wraps each store's backend in a
//! [`JournaledBackend`] — explicitly, at the one place it builds its stores
//! ([`crate::workload::record_workload`]); nothing is captured ambiently.
//! Every mutation — put, append, delete, rename, clear — is appended to a
//! shared [`Journal`] as a numbered op and then applied to the real backend,
//! so the journal is a total order of the mutations the workload performed. [`Backend::fence`] calls are recorded
//! too: they bound how far writes may be reordered.
//!
//! A *crash point* `k` is a position in that order. [`materialize`] rebuilds
//! fresh in-memory backends holding exactly the bytes that survive a crash
//! at `k` under a [`CrashPolicy`]:
//!
//! * [`CrashPolicy::CleanCut`] — ops `0..k` applied, nothing else.
//! * [`CrashPolicy::TornTail`] — ops `0..k` applied, plus a *prefix* of op
//!   `k`'s payload (a torn final write, the classic half-written file).
//! * [`CrashPolicy::Reorder`] — ops `0..k` applied except a chosen subset of
//!   ops not yet pinned by a fence on their device
//!   ([`droppable_tail`]): unsynced writes that the crash loses even though
//!   later writes survived.
//!
//! Fault modes ([`FaultMode`]) distort what gets *recorded* (not what the
//! live run sees), seeding known durability bugs for the checker's
//! `--seed-bug` self-test.

use std::collections::HashMap;
use std::sync::Arc;

use bytes::Bytes;
use papyrus_nvm::{Backend, MemBackend};
use parking_lot::Mutex;

/// One recorded backend mutation (or fence), tagged with the namespace of
/// the store it hit — e.g. `"nvm"` vs `"pfs"` — so one journal can order
/// mutations across several devices.
#[derive(Debug, Clone)]
pub enum JournalOp {
    /// Whole-object create/truncate.
    Put {
        /// Store namespace.
        ns: String,
        /// Object path.
        path: String,
        /// Object contents.
        data: Bytes,
    },
    /// Append to an object (created if missing).
    Append {
        /// Store namespace.
        ns: String,
        /// Object path.
        path: String,
        /// Appended bytes.
        data: Bytes,
    },
    /// Object removal.
    Delete {
        /// Store namespace.
        ns: String,
        /// Object path.
        path: String,
    },
    /// Atomic move (`from` → `to`).
    Rename {
        /// Store namespace.
        ns: String,
        /// Source path.
        from: String,
        /// Destination path.
        to: String,
    },
    /// Whole-store clear (job-end scratch trim).
    Clear {
        /// Store namespace.
        ns: String,
    },
    /// Persistence fence on one device: everything recorded before it on
    /// this namespace is durable.
    Fence {
        /// Store namespace.
        ns: String,
    },
}

impl JournalOp {
    /// The namespace this op belongs to.
    pub fn ns(&self) -> &str {
        match self {
            JournalOp::Put { ns, .. }
            | JournalOp::Append { ns, .. }
            | JournalOp::Delete { ns, .. }
            | JournalOp::Rename { ns, .. }
            | JournalOp::Clear { ns }
            | JournalOp::Fence { ns } => ns,
        }
    }

    /// Whether this is a state mutation (everything but a fence).
    pub fn is_mutation(&self) -> bool {
        !matches!(self, JournalOp::Fence { .. })
    }

    /// Payload bytes for data-carrying ops (`Put`/`Append`).
    pub fn payload_len(&self) -> usize {
        match self {
            JournalOp::Put { data, .. } | JournalOp::Append { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// One-line description for reports.
    pub fn describe(&self) -> String {
        match self {
            JournalOp::Put { ns, path, data } => format!("{ns}:put {path} ({} B)", data.len()),
            JournalOp::Append { ns, path, data } => {
                format!("{ns}:append {path} (+{} B)", data.len())
            }
            JournalOp::Delete { ns, path } => format!("{ns}:delete {path}"),
            JournalOp::Rename { ns, from, to } => format!("{ns}:rename {from} -> {to}"),
            JournalOp::Clear { ns } => format!("{ns}:clear"),
            JournalOp::Fence { ns } => format!("{ns}:fence"),
        }
    }
}

/// Known durability bugs the checker must be able to catch (`--seed-bug`).
/// A fault mode distorts what the journal *records* while the live run
/// still sees every write — so the workload completes normally but every
/// materialised crash state exhibits the bug.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// Record everything faithfully.
    None,
    /// Drop SSIndex writes (`*.index`): models flushing SSData without its
    /// index — the table is unreadable after a crash.
    DropIndexWrites,
    /// Skip manifest commit renames (`* -> */MANIFEST`): models a flush
    /// that never publishes its manifest — the recovered database silently
    /// loses acknowledged SSTables.
    SkipManifestRename,
    /// Rewrite the manifest tmp-write to target the live `MANIFEST`
    /// directly and drop the rename: models non-atomic manifest updates,
    /// re-exposing the torn-manifest window the tmp+rename scheme closes.
    TornManifest,
}

struct JournalState {
    ops: Vec<JournalOp>,
    frozen: bool,
    fault: FaultMode,
}

/// Shared, append-only record of backend mutations across one workload run.
pub struct Journal {
    state: Mutex<JournalState>,
}

impl Default for Journal {
    fn default() -> Self {
        Self::new()
    }
}

impl Journal {
    /// An empty journal recording faithfully.
    pub fn new() -> Self {
        Self {
            state: Mutex::new(JournalState {
                ops: Vec::new(),
                frozen: false,
                fault: FaultMode::None,
            }),
        }
    }

    /// Set the recording fault mode (seed-bug self test).
    pub fn set_fault(&self, fault: FaultMode) {
        self.state.lock().fault = fault;
    }

    /// Stop recording: later mutations (e.g. from recovery replays against
    /// the same stores) are ignored.
    pub fn freeze(&self) {
        self.state.lock().frozen = true;
    }

    /// Number of recorded ops (mutations + fences).
    pub fn len(&self) -> usize {
        self.state.lock().ops.len()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the recorded op sequence.
    pub fn ops(&self) -> Vec<JournalOp> {
        self.state.lock().ops.clone()
    }

    /// Record one op, applying the fault mode's distortion. Called by
    /// [`JournaledBackend`] with the op it is about to apply.
    fn record(&self, op: JournalOp) {
        let mut st = self.state.lock();
        if st.frozen {
            return;
        }
        match st.fault {
            FaultMode::None => st.ops.push(op),
            FaultMode::DropIndexWrites => {
                let dropped = matches!(
                    &op,
                    JournalOp::Put { path, .. } | JournalOp::Append { path, .. }
                        if path.ends_with(".index")
                );
                if !dropped {
                    st.ops.push(op);
                }
            }
            FaultMode::SkipManifestRename => {
                let dropped =
                    matches!(&op, JournalOp::Rename { to, .. } if to.ends_with("/MANIFEST"));
                if !dropped {
                    st.ops.push(op);
                }
            }
            FaultMode::TornManifest => match op {
                JournalOp::Put { ns, path, data } if path.ends_with("/MANIFEST.tmp") => {
                    let live = path.trim_end_matches(".tmp").to_string();
                    st.ops.push(JournalOp::Put { ns, path: live, data });
                }
                JournalOp::Rename { to, .. } if to.ends_with("/MANIFEST") => {}
                other => st.ops.push(other),
            },
        }
    }
}

/// A [`Backend`] decorator journaling every mutation before applying it.
/// The journal lock is held across the inner apply, so the recorded order
/// is exactly the order mutations hit the backing store.
pub struct JournaledBackend {
    ns: String,
    journal: Arc<Journal>,
    inner: Arc<dyn Backend>,
}

impl JournaledBackend {
    /// Wrap `inner`, recording into `journal` under namespace `ns`.
    pub fn new(ns: impl Into<String>, journal: Arc<Journal>, inner: Arc<dyn Backend>) -> Self {
        Self { ns: ns.into(), journal, inner }
    }
}

impl Backend for JournaledBackend {
    fn put(&self, path: &str, data: Bytes) {
        self.journal.record(JournalOp::Put {
            ns: self.ns.clone(),
            path: path.to_string(),
            data: data.clone(),
        });
        self.inner.put(path, data);
    }

    fn append(&self, path: &str, data: &[u8]) {
        self.journal.record(JournalOp::Append {
            ns: self.ns.clone(),
            path: path.to_string(),
            data: Bytes::copy_from_slice(data),
        });
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
        self.journal.record(JournalOp::Delete { ns: self.ns.clone(), path: path.to_string() });
        self.inner.delete(path)
    }

    fn rename(&self, from: &str, to: &str) -> bool {
        self.journal.record(JournalOp::Rename {
            ns: self.ns.clone(),
            from: from.to_string(),
            to: to.to_string(),
        });
        self.inner.rename(from, to)
    }

    fn list(&self, prefix: &str) -> Vec<String> {
        self.inner.list(prefix)
    }

    fn clear(&self) {
        self.journal.record(JournalOp::Clear { ns: self.ns.clone() });
        self.inner.clear();
    }

    fn fence(&self) {
        self.journal.record(JournalOp::Fence { ns: self.ns.clone() });
        self.inner.fence();
    }
}

/// How a crash at one journal position truncates the write history.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashPolicy {
    /// Ops `0..point` applied; op `point` and everything later lost.
    CleanCut {
        /// Crash position.
        point: usize,
    },
    /// Ops `0..point` applied, plus the first `keep` payload bytes of op
    /// `point` (which must be a `Put` or `Append`).
    TornTail {
        /// Crash position.
        point: usize,
        /// Payload prefix length that survives.
        keep: usize,
    },
    /// Ops `0..point` applied except those at the listed indices — each
    /// must be a mutation after the last fence on its namespace (see
    /// [`droppable_tail`]).
    Reorder {
        /// Crash position.
        point: usize,
        /// Indices in `0..point` to drop.
        drop: Vec<usize>,
    },
}

/// Indices in `0..point` whose mutations are *not* yet pinned by a fence on
/// their own namespace at crash position `point` — the unsynced tail an
/// unordered device may lose independently.
pub fn droppable_tail(ops: &[JournalOp], point: usize) -> Vec<usize> {
    let point = point.min(ops.len());
    // Last fence position per namespace within the applied prefix.
    let mut last_fence: HashMap<&str, usize> = HashMap::new();
    for (i, op) in ops[..point].iter().enumerate() {
        if let JournalOp::Fence { ns } = op {
            last_fence.insert(ns.as_str(), i);
        }
    }
    let mut out = Vec::new();
    for (i, op) in ops[..point].iter().enumerate() {
        if op.is_mutation() && last_fence.get(op.ns()).is_none_or(|&f| f < i) {
            out.push(i);
        }
    }
    out
}

/// Build per-namespace [`MemBackend`]s holding the surviving bytes of a
/// crash at the policy's point. Namespaces with no surviving op still get
/// an (empty) backend if any recorded op mentioned them.
pub fn materialize(ops: &[JournalOp], policy: &CrashPolicy) -> HashMap<String, Arc<MemBackend>> {
    let mut backends: HashMap<String, Arc<MemBackend>> = HashMap::new();
    for op in ops {
        backends.entry(op.ns().to_string()).or_default();
    }
    let apply = |backends: &HashMap<String, Arc<MemBackend>>, op: &JournalOp| {
        let b = &backends[op.ns()];
        match op {
            JournalOp::Put { path, data, .. } => b.put(path, data.clone()),
            JournalOp::Append { path, data, .. } => b.append(path, data),
            JournalOp::Delete { path, .. } => {
                b.delete(path);
            }
            JournalOp::Rename { from, to, .. } => {
                b.rename(from, to);
            }
            JournalOp::Clear { .. } => b.clear(),
            JournalOp::Fence { .. } => {}
        }
    };
    match policy {
        CrashPolicy::CleanCut { point } => {
            for op in &ops[..(*point).min(ops.len())] {
                apply(&backends, op);
            }
        }
        CrashPolicy::TornTail { point, keep } => {
            let point = (*point).min(ops.len());
            for op in &ops[..point] {
                apply(&backends, op);
            }
            if let Some(op) = ops.get(point) {
                let b = &backends[op.ns()];
                match op {
                    JournalOp::Put { path, data, .. } => {
                        b.put(path, data.slice(..(*keep).min(data.len())))
                    }
                    JournalOp::Append { path, data, .. } => {
                        b.append(path, &data[..(*keep).min(data.len())])
                    }
                    // Non-data ops have no torn form; a crash "during" them
                    // is the clean cut at `point`.
                    _ => {}
                }
            }
        }
        CrashPolicy::Reorder { point, drop } => {
            let point = (*point).min(ops.len());
            for (i, op) in ops[..point].iter().enumerate() {
                if !drop.contains(&i) {
                    apply(&backends, op);
                }
            }
        }
    }
    backends
}

#[cfg(test)]
mod tests {
    use super::*;

    fn journaled(ns: &str, j: &Arc<Journal>) -> (JournaledBackend, Arc<MemBackend>) {
        let mem = Arc::new(MemBackend::new());
        (JournaledBackend::new(ns, j.clone(), mem.clone()), mem)
    }

    #[test]
    fn records_in_apply_order_and_passes_through() {
        let j = Arc::new(Journal::new());
        let (b, mem) = journaled("nvm", &j);
        b.put("a", Bytes::from_static(b"123"));
        b.append("a", b"45");
        b.fence();
        b.put("t.tmp", Bytes::from_static(b"m"));
        assert!(b.rename("t.tmp", "t"));
        assert!(b.delete("a"));
        assert_eq!(j.len(), 6);
        assert!(!mem.exists("a"));
        assert_eq!(&mem.get_all("t").unwrap()[..], b"m");
        let ops = j.ops();
        assert!(matches!(&ops[2], JournalOp::Fence { .. }));
        assert!(matches!(&ops[4], JournalOp::Rename { .. }));
    }

    #[test]
    fn freeze_stops_recording() {
        let j = Arc::new(Journal::new());
        let (b, mem) = journaled("nvm", &j);
        b.put("a", Bytes::from_static(b"1"));
        j.freeze();
        b.put("b", Bytes::from_static(b"2"));
        assert_eq!(j.len(), 1);
        assert!(mem.exists("b"), "apply still happens after freeze");
    }

    #[test]
    fn clean_cut_applies_exact_prefix() {
        let j = Arc::new(Journal::new());
        let (b, _) = journaled("nvm", &j);
        b.put("a", Bytes::from_static(b"1"));
        b.put("b", Bytes::from_static(b"2"));
        let state = materialize(&j.ops(), &CrashPolicy::CleanCut { point: 1 });
        let m = &state["nvm"];
        assert!(m.exists("a"));
        assert!(!m.exists("b"));
    }

    #[test]
    fn torn_tail_keeps_payload_prefix() {
        let j = Arc::new(Journal::new());
        let (b, _) = journaled("nvm", &j);
        b.put("f", Bytes::from_static(b"abcdef"));
        let state = materialize(&j.ops(), &CrashPolicy::TornTail { point: 0, keep: 2 });
        assert_eq!(&state["nvm"].get_all("f").unwrap()[..], b"ab");
    }

    #[test]
    fn rename_is_atomic_under_clean_cut() {
        let j = Arc::new(Journal::new());
        let (b, _) = journaled("nvm", &j);
        b.put("m", Bytes::from_static(b"old"));
        b.put("m.tmp", Bytes::from_static(b"new"));
        b.rename("m.tmp", "m");
        let ops = j.ops();
        // Before the rename: old manifest intact.
        let pre = materialize(&ops, &CrashPolicy::CleanCut { point: 2 });
        assert_eq!(&pre["nvm"].get_all("m").unwrap()[..], b"old");
        // After: fully the new one, tmp gone.
        let post = materialize(&ops, &CrashPolicy::CleanCut { point: 3 });
        assert_eq!(&post["nvm"].get_all("m").unwrap()[..], b"new");
        assert!(!post["nvm"].exists("m.tmp"));
    }

    #[test]
    fn droppable_tail_respects_per_ns_fences() {
        let j = Arc::new(Journal::new());
        let (nvm, _) = journaled("nvm", &j);
        let (pfs, _) = journaled("pfs", &j);
        nvm.put("a", Bytes::from_static(b"1")); // 0
        pfs.put("x", Bytes::from_static(b"9")); // 1
        nvm.fence(); // 2
        nvm.put("b", Bytes::from_static(b"2")); // 3
        let ops = j.ops();
        // nvm op 0 is pinned by the fence at 2; pfs op 1 and nvm op 3 are not.
        assert_eq!(droppable_tail(&ops, 4), vec![1, 3]);
        // Before the fence everything on nvm is droppable too.
        assert_eq!(droppable_tail(&ops, 2), vec![0, 1]);
    }

    #[test]
    fn reorder_drops_selected_ops() {
        let j = Arc::new(Journal::new());
        let (b, _) = journaled("nvm", &j);
        b.put("a", Bytes::from_static(b"1"));
        b.put("b", Bytes::from_static(b"2"));
        b.put("c", Bytes::from_static(b"3"));
        let state = materialize(&j.ops(), &CrashPolicy::Reorder { point: 3, drop: vec![1] });
        let m = &state["nvm"];
        assert!(m.exists("a") && m.exists("c") && !m.exists("b"));
    }

    #[test]
    fn fault_drop_index_writes() {
        let j = Arc::new(Journal::new());
        j.set_fault(FaultMode::DropIndexWrites);
        let (b, mem) = journaled("nvm", &j);
        b.put("sst1.data", Bytes::from_static(b"d"));
        b.put("sst1.index", Bytes::from_static(b"i"));
        b.put("sst1.bloom", Bytes::from_static(b"b"));
        assert_eq!(j.len(), 2, "index write must be missing from the journal");
        assert!(mem.exists("sst1.index"), "live run still sees the write");
    }

    #[test]
    fn fault_skip_manifest_rename() {
        let j = Arc::new(Journal::new());
        j.set_fault(FaultMode::SkipManifestRename);
        let (b, _) = journaled("nvm", &j);
        b.put("r0/MANIFEST.tmp", Bytes::from_static(b"new"));
        b.rename("r0/MANIFEST.tmp", "r0/MANIFEST");
        let state = materialize(&j.ops(), &CrashPolicy::CleanCut { point: j.len() });
        assert!(!state["nvm"].exists("r0/MANIFEST"), "manifest never published");
    }

    #[test]
    fn fault_torn_manifest_writes_live_path_directly() {
        let j = Arc::new(Journal::new());
        j.set_fault(FaultMode::TornManifest);
        let (b, _) = journaled("nvm", &j);
        b.put("r0/MANIFEST.tmp", Bytes::from_static(b"next:2\n1\nok\n"));
        b.rename("r0/MANIFEST.tmp", "r0/MANIFEST");
        let ops = j.ops();
        assert_eq!(ops.len(), 1, "rename dropped, put rewritten");
        let torn = materialize(&ops, &CrashPolicy::TornTail { point: 0, keep: 4 });
        assert_eq!(&torn["nvm"].get_all("r0/MANIFEST").unwrap()[..], b"next");
    }
}
