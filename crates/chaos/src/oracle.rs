//! Shadow KV oracle: ground truth the chaos soak judges observations against.
//!
//! Every key has a single writer rank and self-describing values
//! (`k=<key>;r=<round>;w=<writer>;…`), so any read can be checked without
//! coordination: the value names the key and round it was written in. The
//! oracle tracks three per-key watermarks:
//!
//! * `attempted` — highest round whose put was *issued* (it may have failed
//!   with a typed error, or been buffered and lost with the writer);
//! * `ok` — highest round whose put returned `Ok`;
//! * `acked` — highest round known globally durable against *runtime*
//!   faults: the put returned `Ok` and a later collective barrier succeeded
//!   (or the put was sequential-consistency, its own synchronisation point).
//!
//! The invariants: an observed value must parse, must name its own key, and
//! its round must lie in `[acked, attempted]`. Below `acked` is an
//! **acknowledged-write loss**; above `attempted` (or unparseable) is a
//! **phantom read**. Keys whose owner rank was killed by the schedule are
//! exempt from the loss bound — degraded mode makes them unavailable, not
//! wrong — but any error returned for them must still be typed.

use std::collections::HashMap;

use bytes::Bytes;
use papyruskv::error::Error;
use papyruskv::sanity::{Violation, ViolationKind};
use parking_lot::Mutex;

/// Per-key watermarks. Rounds are 1-based; 0 = never.
#[derive(Debug, Default, Clone, Copy)]
struct KeyState {
    attempted: u32,
    ok: u32,
    acked: u32,
}

/// The errors the failure-aware protocol layer is allowed to surface.
/// Anything else reaching an application is an untyped-error violation.
pub fn error_is_typed(e: &Error) -> bool {
    matches!(
        e,
        Error::NotFound | Error::RankUnavailable(_) | Error::StorageFull(_) | Error::Timeout(_)
    )
}

/// Shared ground truth for one chaos schedule, and the list its verdicts
/// are collected in: everything the schedule is convicted of — by
/// [`ChaosOracle::judge`], by the workload's error typing, by its world's
/// verdict — lands here, in the schedule's own oracle, and nowhere global.
#[derive(Default)]
pub struct ChaosOracle {
    keys: Mutex<HashMap<Vec<u8>, KeyState>>,
    verdicts: Mutex<Vec<Violation>>,
}

impl ChaosOracle {
    pub fn new() -> Self {
        Self::default()
    }

    /// A put of `key` at `round` is about to be issued.
    pub fn will_put(&self, key: &[u8], round: u32) {
        let mut keys = self.keys.lock();
        let st = keys.entry(key.to_vec()).or_default();
        st.attempted = st.attempted.max(round);
    }

    /// The put of `key` at `round` returned `Ok`.
    pub fn put_ok(&self, key: &[u8], round: u32) {
        let mut keys = self.keys.lock();
        let st = keys.entry(key.to_vec()).or_default();
        st.ok = st.ok.max(round);
    }

    /// A collective barrier succeeded on the writer of `key` (or the put was
    /// sequential): everything that returned `Ok` so far is now durable
    /// against runtime faults.
    pub fn ack_key(&self, key: &[u8]) {
        let mut keys = self.keys.lock();
        let st = keys.entry(key.to_vec()).or_default();
        st.acked = st.acked.max(st.ok);
    }

    /// Convict this schedule of one violation.
    pub fn convict(&self, kind: ViolationKind, detail: String) {
        self.verdicts.lock().push(Violation { kind, detail });
    }

    /// Drain the verdicts collected so far.
    pub fn take_verdicts(&self) -> Vec<Violation> {
        std::mem::take(&mut self.verdicts.lock())
    }

    /// Every key any writer ever attempted.
    pub fn all_keys(&self) -> Vec<Vec<u8>> {
        let mut out: Vec<Vec<u8>> = self.keys.lock().keys().cloned().collect();
        out.sort();
        out
    }

    /// Judge one observation of `key`. `owner_dead` exempts the key from the
    /// loss bound (its owner was killed by the schedule *and* the store runs
    /// unreplicated — with a replication factor >= 2 the workload passes
    /// `false` here, because read failover must keep acked keys readable
    /// through a single rank kill); `strict` enables loss checks and is set
    /// only in the quiesced verify phase — mid-chaos reads check typing and
    /// phantoms only, since migrations may still be in flight.
    pub fn judge(
        &self,
        key: &[u8],
        got: &Result<Option<Bytes>, Error>,
        owner_dead: bool,
        strict: bool,
    ) -> Option<(ViolationKind, String)> {
        let st = self.keys.lock().get(key).copied().unwrap_or_default();
        let kstr = String::from_utf8_lossy(key).into_owned();
        match got {
            Err(e) if !error_is_typed(e) => Some((
                ViolationKind::UntypedError,
                format!("get {kstr}: untyped error {e:?} escaped the protocol layer"),
            )),
            Err(Error::RankUnavailable(r)) if strict && !owner_dead && st.acked > 0 => Some((
                ViolationKind::AckedWriteLost,
                format!(
                    "get {kstr}: RankUnavailable({r}) but round {} was acknowledged durable — \
                     replication must keep acked keys readable",
                    st.acked
                ),
            )),
            Err(_) => None, // typed unavailability is legal degraded behaviour
            Ok(None) => {
                if strict && !owner_dead && st.acked > 0 {
                    Some((
                        ViolationKind::AckedWriteLost,
                        format!(
                            "get {kstr}: NotFound but round {} was acknowledged durable",
                            st.acked
                        ),
                    ))
                } else {
                    None
                }
            }
            Ok(Some(v)) => match parse_round(key, v) {
                None => Some((
                    ViolationKind::PhantomRead,
                    format!(
                        "get {kstr}: value {:?} does not describe this key",
                        String::from_utf8_lossy(v)
                    ),
                )),
                Some(r) if r > st.attempted => Some((
                    ViolationKind::PhantomRead,
                    format!("get {kstr}: round {r} observed but only {} attempted", st.attempted),
                )),
                Some(r) if strict && !owner_dead && r < st.acked => Some((
                    ViolationKind::AckedWriteLost,
                    format!(
                        "get {kstr}: round {r} observed but round {} was acknowledged",
                        st.acked
                    ),
                )),
                Some(_) => None,
            },
        }
    }
}

/// Self-describing value for `key` written by `writer` in `round`.
pub fn value_for(key: &[u8], round: u32, writer: usize) -> Bytes {
    Bytes::from(format!(
        "k={};r={round};w={writer};{}",
        String::from_utf8_lossy(key),
        "x".repeat(24)
    ))
}

/// Parse a value: `Some(round)` iff it is well formed and names `key`.
fn parse_round(key: &[u8], value: &Bytes) -> Option<u32> {
    let s = std::str::from_utf8(value).ok()?;
    let mut fields = s.split(';');
    let k = fields.next()?.strip_prefix("k=")?;
    if k.as_bytes() != key {
        return None;
    }
    fields.next()?.strip_prefix("r=")?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_round_trips() {
        let k = b"k2-001".to_vec();
        let v = value_for(&k, 7, 2);
        assert_eq!(parse_round(&k, &v), Some(7));
        assert_eq!(parse_round(b"k2-002", &v), None, "value must name its own key");
        assert_eq!(parse_round(&k, &Bytes::from_static(b"garbage")), None);
    }

    #[test]
    fn loss_and_phantom_bounds() {
        let o = ChaosOracle::new();
        let k = b"k0-000".to_vec();
        o.will_put(&k, 1);
        o.put_ok(&k, 1);
        o.ack_key(&k);
        o.will_put(&k, 2);
        o.put_ok(&k, 2); // round 2 ok but never acked

        // Round 1 or 2 visible: fine.
        for r in [1, 2] {
            assert!(o.judge(&k, &Ok(Some(value_for(&k, r, 0))), false, true).is_none());
        }
        // Round 3 was never attempted: phantom.
        let v = o.judge(&k, &Ok(Some(value_for(&k, 3, 0))), false, true).unwrap();
        assert_eq!(v.0, ViolationKind::PhantomRead);
        // Missing entirely: round 1 was acknowledged.
        let v = o.judge(&k, &Ok(None), false, true).unwrap();
        assert_eq!(v.0, ViolationKind::AckedWriteLost);
        // Same observation on a dead owner is legal degraded behaviour.
        assert!(o.judge(&k, &Ok(None), true, true).is_none());
        // Mid-chaos (non-strict) reads don't check the loss bound.
        assert!(o.judge(&k, &Ok(None), false, false).is_none());
        // Unexempted unavailability of an acked key (replication armed):
        // the ring was supposed to keep it readable.
        let v = o.judge(&k, &Err(Error::RankUnavailable(3)), false, true).unwrap();
        assert_eq!(v.0, ViolationKind::AckedWriteLost);
        // The same error is legal when the owner-dead exemption applies
        // (unreplicated run), mid-chaos, or for a never-acked key.
        assert!(o.judge(&k, &Err(Error::RankUnavailable(3)), true, true).is_none());
        assert!(o.judge(&k, &Err(Error::RankUnavailable(3)), false, false).is_none());
        assert!(o.judge(b"unwritten", &Err(Error::RankUnavailable(3)), false, true).is_none());
        // Untyped errors are always violations.
        let v = o.judge(&k, &Err(Error::Internal("boom".into())), false, true).unwrap();
        assert_eq!(v.0, ViolationKind::UntypedError);
    }
}
