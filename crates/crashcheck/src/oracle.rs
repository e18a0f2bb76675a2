//! Shadow KV oracle: the ground truth a recovered store is judged against.
//!
//! While the workload runs, every `put`/`delete` is mirrored into a per-key
//! history (`None` = delete). Keys are written by exactly one rank, so each
//! key's history is totally ordered by that rank's program order even
//! though ranks run concurrently.
//!
//! At quiesce points (after a collective `barrier(SsTable)` or a completed
//! checkpoint) the workload records a [`Mark`]: the journal position plus,
//! for every key, the index of its newest history record. A *durable* mark
//! promises that state survives any crash at a later journal position; a
//! *snapshot* mark promises the checkpoint at `path` reproduces exactly
//! that state on restart.

use std::collections::HashMap;

use bytes::Bytes;
use papyruskv::sanity::ViolationKind;

/// What a [`Mark`] guarantees.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MarkKind {
    /// Everything acknowledged before the mark is durable on NVM.
    Durable,
    /// The checkpoint at `path` is complete on the PFS.
    Snapshot {
        /// Checkpoint destination passed to `Db::checkpoint`.
        path: String,
    },
    /// Position label only — no durability claim (e.g. "checkpoint B
    /// started here", used to assert sweep coverage).
    Note,
}

/// A named quiesce point: journal position + the guaranteed key states.
#[derive(Debug, Clone)]
pub struct Mark {
    /// Human label ("phase-a", "snap-b", ...).
    pub label: String,
    /// Journal length when the mark was taken — crash points `>= seq` are
    /// bound by this mark's guarantee.
    pub seq: usize,
    /// What the mark promises.
    pub kind: MarkKind,
    /// Key → index of its newest history record at mark time.
    pub guarantee: HashMap<Vec<u8>, usize>,
}

/// Per-key write history plus the recorded marks.
#[derive(Debug, Default)]
pub struct Oracle {
    history: HashMap<Vec<u8>, Vec<Option<Bytes>>>,
    marks: Vec<Mark>,
}

impl Oracle {
    /// Empty oracle.
    pub fn new() -> Self {
        Self::default()
    }

    /// Mirror one acknowledged write (`None` = delete).
    pub fn record_write(&mut self, key: &[u8], value: Option<Bytes>) {
        self.history.entry(key.to_vec()).or_default().push(value);
    }

    /// Record a quiesce mark at journal position `seq`.
    pub fn mark(&mut self, label: &str, seq: usize, kind: MarkKind) {
        let guarantee = self.history.iter().map(|(k, h)| (k.clone(), h.len() - 1)).collect();
        self.marks.push(Mark { label: label.to_string(), seq, kind, guarantee });
    }

    /// All marks, in recording order.
    pub fn marks(&self) -> &[Mark] {
        &self.marks
    }

    /// Every key ever written, sorted (deterministic probe order).
    pub fn keys(&self) -> Vec<Vec<u8>> {
        let mut keys: Vec<Vec<u8>> = self.history.keys().cloned().collect();
        keys.sort();
        keys
    }

    /// Newest durable mark in force at crash point `point`, if any.
    pub fn durable_at(&self, point: usize) -> Option<&Mark> {
        self.marks.iter().rfind(|m| m.kind == MarkKind::Durable && m.seq <= point)
    }

    /// Newest completed snapshot at crash point `point`, if any.
    pub fn snapshot_at(&self, point: usize) -> Option<&Mark> {
        self.marks.iter().rfind(|m| matches!(m.kind, MarkKind::Snapshot { .. }) && m.seq <= point)
    }

    /// Judge one observation from a store recovered off NVM at a crash
    /// point governed by `guarantee` (`None` before the first durable
    /// mark). `observed` is what the store exposes for `key` (`None` =
    /// absent or tombstoned).
    ///
    /// Allowed: any history state at least as new as the guaranteed one —
    /// later unacknowledged writes may legitimately have reached NVM
    /// before the crash. Violations: a value older than the guarantee or
    /// a guaranteed pair gone ([`DurabilityLost`]), or a value the
    /// workload never wrote ([`PhantomPair`]).
    ///
    /// [`DurabilityLost`]: ViolationKind::DurabilityLost
    /// [`PhantomPair`]: ViolationKind::PhantomPair
    pub fn judge_recovered(
        &self,
        guarantee: Option<&HashMap<Vec<u8>, usize>>,
        key: &[u8],
        observed: Option<&Bytes>,
    ) -> Option<(ViolationKind, String)> {
        let k = String::from_utf8_lossy(key).into_owned();
        let Some(hist) = self.history.get(key) else {
            return observed.map(|v| {
                (
                    ViolationKind::PhantomPair,
                    format!("key {k:?} was never written but reads as {:?}", lossy(v)),
                )
            });
        };
        let floor = guarantee.and_then(|g| g.get(key)).copied();
        match observed {
            Some(v) => {
                let newest_ok = hist
                    .iter()
                    .enumerate()
                    .skip(floor.unwrap_or(0))
                    .any(|(_, rec)| rec.as_deref() == Some(&v[..]));
                if newest_ok {
                    return None;
                }
                if hist.iter().any(|rec| rec.as_deref() == Some(&v[..])) {
                    Some((
                        ViolationKind::DurabilityLost,
                        format!(
                            "key {k:?} reads stale value {:?} older than the durable mark",
                            lossy(v)
                        ),
                    ))
                } else {
                    Some((
                        ViolationKind::PhantomPair,
                        format!("key {k:?} reads {:?}, never an acknowledged value", lossy(v)),
                    ))
                }
            }
            None => {
                let floor = floor?;
                // Absence is fine if the guaranteed state is a delete, or a
                // later (unacknowledged) delete may have hit NVM first.
                if hist[floor..].iter().any(Option::is_none) {
                    None
                } else {
                    Some((
                        ViolationKind::DurabilityLost,
                        format!("durable key {k:?} unreadable after recovery"),
                    ))
                }
            }
        }
    }

    /// Judge one observation from a snapshot restore: the restored store
    /// must reproduce the snapshot state *exactly* — the checkpoint was
    /// complete, so nothing newer or older may leak in.
    pub fn judge_restored(
        &self,
        snap: &Mark,
        key: &[u8],
        observed: Option<&Bytes>,
    ) -> Option<(ViolationKind, String)> {
        let k = String::from_utf8_lossy(key).into_owned();
        let expect =
            snap.guarantee.get(key).and_then(|&i| self.history.get(key).and_then(|h| h[i].clone()));
        match (observed, expect) {
            (None, None) => None,
            (Some(v), Some(e)) if v[..] == e[..] => None,
            (Some(v), expect) => {
                // A stale-but-real snapshotted value is lost durability; a
                // value the snapshot never contained is a phantom.
                let known = expect.is_some()
                    && self
                        .history
                        .get(key)
                        .is_some_and(|h| h.iter().any(|rec| rec.as_deref() == Some(&v[..])));
                let kind =
                    if known { ViolationKind::DurabilityLost } else { ViolationKind::PhantomPair };
                Some((
                    kind,
                    format!(
                        "snapshot {} restore: key {k:?} reads {:?}, not the snapshotted state",
                        snap.label,
                        lossy(v)
                    ),
                ))
            }
            (None, Some(_)) => Some((
                ViolationKind::DurabilityLost,
                format!("snapshot {} restore: snapshotted key {k:?} unreadable", snap.label),
            )),
        }
    }
}

fn lossy(v: &Bytes) -> String {
    String::from_utf8_lossy(v).into_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn oracle() -> Oracle {
        let mut o = Oracle::new();
        o.record_write(b"k", Some(b("v1")));
        o.mark("m1", 10, MarkKind::Durable);
        o.record_write(b"k", Some(b("v2")));
        o.record_write(b"d", Some(b("x")));
        o.record_write(b"d", None);
        o.mark("m2", 20, MarkKind::Durable);
        o
    }

    #[test]
    fn durable_mark_selection() {
        let o = oracle();
        assert!(o.durable_at(9).is_none());
        assert_eq!(o.durable_at(10).unwrap().label, "m1");
        assert_eq!(o.durable_at(25).unwrap().label, "m2");
    }

    #[test]
    fn newer_than_guarantee_is_allowed_older_is_not() {
        let o = oracle();
        let g1 = o.durable_at(10).map(|m| &m.guarantee);
        // At m1 only v1 is guaranteed; both v1 and the newer v2 are fine.
        assert!(o.judge_recovered(g1, b"k", Some(&b("v1"))).is_none());
        assert!(o.judge_recovered(g1, b"k", Some(&b("v2"))).is_none());
        // At m2 the guarantee is v2; reading v1 is a durability loss.
        let g2 = o.durable_at(20).map(|m| &m.guarantee);
        let (kind, _) = o.judge_recovered(g2, b"k", Some(&b("v1"))).unwrap();
        assert_eq!(kind, ViolationKind::DurabilityLost);
        // Absence of a guaranteed live key too.
        let (kind, _) = o.judge_recovered(g2, b"k", None).unwrap();
        assert_eq!(kind, ViolationKind::DurabilityLost);
    }

    #[test]
    fn deletes_and_unknown_keys() {
        let o = oracle();
        let g2 = o.durable_at(20).map(|m| &m.guarantee);
        // "d" was deleted before m2: absent is correct, the old value is not.
        assert!(o.judge_recovered(g2, b"d", None).is_none());
        assert!(o.judge_recovered(g2, b"d", Some(&b("x"))).is_some());
        // A value never written anywhere is a phantom.
        let (kind, _) = o.judge_recovered(g2, b"z", Some(&b("boo"))).unwrap();
        assert_eq!(kind, ViolationKind::PhantomPair);
        // Before any mark, anything goes (crash before first barrier).
        assert!(o.judge_recovered(None, b"k", None).is_none());
    }

    #[test]
    fn snapshot_restore_is_exact() {
        let mut o = Oracle::new();
        o.record_write(b"k", Some(b("v1")));
        o.mark("snap", 5, MarkKind::Snapshot { path: "p".into() });
        o.record_write(b"k", Some(b("v2")));
        o.record_write(b"late", Some(b("y")));
        let snap = o.snapshot_at(9).unwrap().clone();
        assert!(o.judge_restored(&snap, b"k", Some(&b("v1"))).is_none());
        // The newer v2 must NOT appear in a restore of the old snapshot.
        let (kind, _) = o.judge_restored(&snap, b"k", Some(&b("v2"))).unwrap();
        assert_eq!(kind, ViolationKind::DurabilityLost);
        // Nor a key that postdates the snapshot.
        assert!(o.judge_restored(&snap, b"late", Some(&b("y"))).is_some());
        assert!(o.judge_restored(&snap, b"late", None).is_none());
    }
}
