//! Wire format for runtime-internal messages.
//!
//! PapyrusKV's message dispatcher and message handler threads exchange
//! request/response messages over runtime-private communicators (§2.4,
//! §2.6). The format is a hand-rolled little-endian binary encoding (no
//! serde): a fixed header per tag, then the tag's body.
//!
//! | tag | header | body |
//! |---|---|---|
//! | `MIGRATE`, `PUT_SYNC` | `[db: u32][seq: u64][count: u32]` | a [`Batch`] (`PUT_SYNC`: of one record) |
//! | `REPL_PUT` | `[db: u32][origin: u32][want_ack: u8][seq: u64][count: u32]` | a [`Batch`] |
//! | `GET_REQ`, `REPL_GET` | `[db: u32][group or origin: u32][seq: u64]` | `[keylen: u32][key]` |
//! | `GET_RESP`, `REPL_RESP` | `[seq: u64][opcode: u8]` | per opcode |
//! | `BARRIER_MARK` | `[db: u32][epoch: u64]` | — |
//! | the acks | `[seq: u64]` | — |
//!
//! There is one record format, and it is not defined here: a [`Batch`] is a
//! run of records exactly as an SSTable's SSData stores them, written by
//! [`crate::sstable`]'s `put_record` and walked by its [`Cursor`] — what a
//! MemTable migrates is encoded once and ingested in place.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};
use crate::memtable::Entry;
use crate::sstable::{put_record, Cursor, Record, Ssid};
use crate::write::entry_of;

/// Message tags on the request communicator (handler side).
pub mod tags {
    /// Batched migration of key-value pairs to their owner.
    pub const MIGRATE: u32 = 1;
    /// Synchronous single put/delete (sequential consistency mode).
    pub const PUT_SYNC: u32 = 2;
    /// Remote get request.
    pub const GET_REQ: u32 = 3;
    /// Barrier marker (flushes the FIFO channel ahead of it).
    pub const BARRIER_MARK: u32 = 4;
    /// Handler shutdown (sent by the own rank at finalize).
    pub const SHUTDOWN: u32 = 5;
    /// Replica copy of a put batch, forwarded to a successor rank of the
    /// owner (DESIGN §11). Rides the same FIFO request channel as
    /// `BARRIER_MARK`, so a successful barrier proves every replica batch
    /// sent before it has been ingested.
    pub const REPL_PUT: u32 = 6;
    /// Failover get served from a successor's replica tables after the
    /// owner rank died: a `GET_REQ` whose second word names the origin rank
    /// whose ranges to search, not the caller's storage group.
    pub const REPL_GET: u32 = 7;
    /// Tags on the reply communicator (caller side).
    pub const PUT_ACK: u32 = 10;
    /// Remote get response.
    pub const GET_RESP: u32 = 11;
    /// Migration-batch acknowledgement. Sent iff the batch asks for one (a
    /// non-zero sequence number), which `send_batch` does on a world armed
    /// with a fault plan — the request itself says whether an ack flows.
    pub const MIGRATE_ACK: u32 = 12;
    /// Replica-batch acknowledgement (sent only when the `REPL_PUT` header
    /// requests one: synchronous forwards and fault-plane dispatch).
    pub const REPL_ACK: u32 = 13;
    /// Failover-get response (same body as `GET_RESP`).
    pub const REPL_RESP: u32 = 14;
}

/// RPC sequence number carried by every request and echoed by its reply.
///
/// Under the fault plane a timed-out request is *resent*; the reply to the
/// original attempt may still arrive later. The echoed sequence number lets
/// the caller discard such stale replies instead of pairing them with the
/// wrong RPC. All request payloads carry it unconditionally (8 bytes) so the
/// wire format does not depend on whether the world is armed.
pub type RpcSeq = u64;

/// Sentinel storage-group id meaning "do not use the shared-SSTable fast
/// path; perform a full local get" — used when a caller's shared search
/// raced the owner's compaction.
pub const NO_GROUP: u32 = u32::MAX;

/// One record in owned form, for a caller outside the store to build a
/// batch from (tests, the benchmark's probe). Nothing in the store holds one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRecord {
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Bytes,
    /// Deletion marker.
    pub tombstone: bool,
}

impl<'a> From<&'a KvRecord> for Record<'a> {
    fn from(r: &'a KvRecord) -> Self {
        Self { key: &r.key, value: &r.value, tombstone: r.tombstone }
    }
}

const MIGRATE_HEADER: usize = 16;
const REPL_PUT_HEADER: usize = 21;

/// A batch being filled, one record at a time; [`BatchBuf::freeze`] makes it
/// the [`Batch`] that is sent.
#[derive(Default)]
pub struct BatchBuf {
    records: u32,
    body: BytesMut,
}

impl BatchBuf {
    /// Append `rec`.
    pub fn push(&mut self, rec: Record<'_>) {
        put_record(&mut self.body, rec);
        self.records += 1;
    }

    /// The batch of the records pushed, in that order.
    pub fn freeze(self) -> Batch {
        Batch { records: self.records, body: self.body.freeze() }
    }
}

/// The body of `MIGRATE`, `PUT_SYNC` and `REPL_PUT`: a run of whole records
/// in the SSData format, and their number. It holds nothing else — one is
/// made by pushing records, or by a decoder of this module, which checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    records: u32,
    body: Bytes,
}

impl<'a, R: Into<Record<'a>>> FromIterator<R> for Batch {
    fn from_iter<I: IntoIterator<Item = R>>(records: I) -> Self {
        let mut buf = BatchBuf::default();
        records.into_iter().for_each(|rec| buf.push(rec.into()));
        buf.freeze()
    }
}

impl Batch {
    /// Number of records.
    pub fn len(&self) -> usize {
        self.records as usize
    }

    /// Whether the batch holds no record.
    pub fn is_empty(&self) -> bool {
        self.records == 0
    }

    /// The records, in place.
    pub fn records(&self) -> Cursor<'_> {
        Cursor::new(&self.body)
    }

    /// What the receiving MemTable inserts: every record's key, borrowed,
    /// and its entry — the value a zero-copy slice of the batch.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (&[u8], Entry)> {
        let entry = |rec: Record<'_>| entry_of(self.body.slice_ref(rec.value), rec.tombstone);
        self.records().map(move |rec| (rec.key, entry(rec)))
    }

    /// Total and strict, like the table's decoders: `body` must be exactly
    /// `records` whole records — not cut inside one, not followed by
    /// anything, not one more or fewer than the header said.
    fn decode(records: u32, body: Bytes) -> Result<Self> {
        let mut walk = Cursor::new(&body);
        let found = walk.by_ref().count();
        if found == records as usize && walk.is_whole() {
            return Ok(Self { records, body });
        }
        let len = body.len();
        Err(Error::Internal(format!("batch of {records} records: {found} decode from {len} bytes")))
    }

    /// The message of `header` bytes — what `put_header` writes, then the
    /// count — and this batch.
    fn behind(&self, header: usize, put_header: impl FnOnce(&mut BytesMut)) -> Bytes {
        let mut buf = BytesMut::with_capacity(header + self.body.len());
        put_header(&mut buf);
        buf.put_u32_le(self.records);
        buf.put_slice(&self.body);
        buf.freeze()
    }

    /// Encode the `MIGRATE` message of this batch: `[db: u32][seq: u64]`
    /// `[count: u32]`, then the records. A `PUT_SYNC` is the same message
    /// with one record.
    pub fn migrate(&self, db: u32, seq: RpcSeq) -> Bytes {
        self.behind(MIGRATE_HEADER, |buf| {
            buf.put_u32_le(db);
            buf.put_u64_le(seq);
        })
    }

    /// Encode the `REPL_PUT` message of this batch: `[db: u32][origin: u32]`
    /// `[want_ack: u8][seq: u64][count: u32]`, then the records. `origin` is
    /// the owner rank whose ranges the records belong to — the receiver files
    /// them in its per-origin replica tables, never in its primary stack.
    pub fn repl_put(&self, db: u32, origin: u32, want_ack: bool, seq: RpcSeq) -> Bytes {
        self.behind(REPL_PUT_HEADER, |buf| {
            buf.put_u32_le(db);
            buf.put_u32_le(origin);
            buf.put_u8(u8::from(want_ack));
            buf.put_u64_le(seq);
        })
    }
}

/// Remote-get response body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GetResp {
    /// Value found in the owner's memory or SSTables.
    Found(Bytes),
    /// Key definitely absent (or tombstoned).
    NotFound,
    /// Owner and caller share a storage group and the key was not in the
    /// owner's memory: the caller should search the owner's SSTables
    /// directly in the shared NVM (§2.7). Carries the owner's live SSID
    /// list, newest first.
    SearchShared(Vec<Ssid>),
}

fn put_bytes(buf: &mut BytesMut, b: &[u8]) {
    buf.put_u32_le(b.len() as u32);
    buf.put_slice(b);
}

fn get_bytes(buf: &mut Bytes) -> Result<Bytes> {
    if buf.remaining() < 4 {
        return Err(Error::Internal("truncated message".into()));
    }
    let len = buf.get_u32_le() as usize;
    if buf.remaining() < len {
        return Err(Error::Internal("truncated message body".into()));
    }
    Ok(buf.split_to(len))
}

/// [`Batch::migrate`] for a caller that holds owned records in a slice
/// (tests, the benchmark's probe), as `sstable::build_at` is to the table
/// encoder: every record is encoded, then the message.
pub fn encode_migrate(db: u32, seq: RpcSeq, records: &[KvRecord]) -> Bytes {
    records.iter().collect::<Batch>().migrate(db, seq)
}

/// Decode a migration batch.
pub fn decode_migrate(mut buf: Bytes) -> Result<(u32, RpcSeq, Batch)> {
    if buf.remaining() < MIGRATE_HEADER {
        return Err(Error::Internal("truncated migrate header".into()));
    }
    let db = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let records = buf.get_u32_le();
    Ok((db, seq, Batch::decode(records, buf)?))
}

/// Decode a synchronous put: a migration batch of exactly one record.
pub fn decode_put_sync(buf: Bytes) -> Result<(u32, RpcSeq, Batch)> {
    let (db, seq, batch) = decode_migrate(buf)?;
    if batch.len() != 1 {
        return Err(Error::Internal("put_sync must carry one record".into()));
    }
    Ok((db, seq, batch))
}

/// Encode a request acknowledgement (`PUT_ACK`/`MIGRATE_ACK`): the echoed
/// sequence number.
pub fn encode_ack(seq: RpcSeq) -> Bytes {
    let mut buf = BytesMut::with_capacity(8);
    buf.put_u64_le(seq);
    buf.freeze()
}

/// Encode a get request: `[db: u32][group: u32][seq: u64][key]`. In a
/// `GET_REQ` the second word is the caller's storage-group id, which lets the
/// owner decide the shared-SSTable fast path (§2.7); in a failover `REPL_GET`
/// it is the origin rank whose replica tables the receiver searches.
pub fn encode_get_req(db: u32, caller_group: u32, seq: RpcSeq, key: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + key.len());
    buf.put_u32_le(db);
    buf.put_u32_le(caller_group);
    buf.put_u64_le(seq);
    put_bytes(&mut buf, key);
    buf.freeze()
}

/// Decode a get request (`GET_REQ` or `REPL_GET`).
pub fn decode_get_req(mut buf: Bytes) -> Result<(u32, u32, RpcSeq, Bytes)> {
    if buf.remaining() < 16 {
        return Err(Error::Internal("truncated get_req".into()));
    }
    let db = buf.get_u32_le();
    let group = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let key = get_bytes(&mut buf)?;
    Ok((db, group, seq, key))
}

const RESP_FOUND: u8 = 0;
const RESP_NOT_FOUND: u8 = 1;
const RESP_SEARCH_SHARED: u8 = 2;

/// Encode a remote-get response: `[seq: u64][opcode: u8]` + body.
pub fn encode_get_resp(seq: RpcSeq, resp: &GetResp) -> Bytes {
    let mut buf = BytesMut::with_capacity(match resp {
        GetResp::Found(v) => 13 + v.len(),
        GetResp::NotFound => 9,
        GetResp::SearchShared(ssids) => 13 + 8 * ssids.len(),
    });
    buf.put_u64_le(seq);
    match resp {
        GetResp::Found(v) => {
            buf.put_u8(RESP_FOUND);
            put_bytes(&mut buf, v);
        }
        GetResp::NotFound => buf.put_u8(RESP_NOT_FOUND),
        GetResp::SearchShared(ssids) => {
            buf.put_u8(RESP_SEARCH_SHARED);
            buf.put_u32_le(ssids.len() as u32);
            for s in ssids {
                buf.put_u64_le(*s);
            }
        }
    }
    buf.freeze()
}

/// Decode a remote-get response.
pub fn decode_get_resp(mut buf: Bytes) -> Result<(RpcSeq, GetResp)> {
    if buf.remaining() < 9 {
        return Err(Error::Internal("truncated get_resp".into()));
    }
    let seq = buf.get_u64_le();
    let resp = match buf.get_u8() {
        RESP_FOUND => GetResp::Found(get_bytes(&mut buf)?),
        RESP_NOT_FOUND => GetResp::NotFound,
        RESP_SEARCH_SHARED => {
            if buf.remaining() < 4 {
                return Err(Error::Internal("truncated search_shared".into()));
            }
            let n = buf.get_u32_le() as usize;
            if buf.remaining() < n.saturating_mul(8) {
                return Err(Error::Internal("truncated ssid list".into()));
            }
            GetResp::SearchShared((0..n).map(|_| buf.get_u64_le()).collect())
        }
        op => return Err(Error::Internal(format!("unknown get_resp opcode {op}"))),
    };
    Ok((seq, resp))
}

/// Decode a replica put batch.
pub fn decode_repl_put(mut buf: Bytes) -> Result<(u32, u32, bool, RpcSeq, Batch)> {
    if buf.remaining() < REPL_PUT_HEADER {
        return Err(Error::Internal("truncated repl_put header".into()));
    }
    let db = buf.get_u32_le();
    let origin = buf.get_u32_le();
    let want_ack = buf.get_u8() != 0;
    let seq = buf.get_u64_le();
    let records = buf.get_u32_le();
    Ok((db, origin, want_ack, seq, Batch::decode(records, buf)?))
}

/// Encode a barrier marker: `[db: u32][epoch: u64]`.
pub fn encode_barrier_mark(db: u32, epoch: u64) -> Bytes {
    let mut buf = BytesMut::with_capacity(12);
    buf.put_u32_le(db);
    buf.put_u64_le(epoch);
    buf.freeze()
}

/// Decode a barrier marker.
pub fn decode_barrier_mark(mut buf: Bytes) -> Result<(u32, u64)> {
    if buf.remaining() < 12 {
        return Err(Error::Internal("truncated barrier mark".into()));
    }
    Ok((buf.get_u32_le(), buf.get_u64_le()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn rec(k: &str, v: &str, t: bool) -> KvRecord {
        rec_of(k.as_bytes(), Bytes::copy_from_slice(v.as_bytes()), t)
    }

    fn rec_of(key: &[u8], value: Bytes, tombstone: bool) -> KvRecord {
        KvRecord { key: key.to_vec(), value, tombstone }
    }

    fn owned(batch: &Batch) -> Vec<KvRecord> {
        let owned = |r: Record| rec_of(r.key, Bytes::copy_from_slice(r.value), r.tombstone);
        batch.records().map(owned).collect()
    }

    /// The message a sequential put sends: one record, borrowed.
    fn encode_put_sync(db: u32, seq: RpcSeq, r: &KvRecord) -> Bytes {
        [r].into_iter().collect::<Batch>().migrate(db, seq)
    }

    #[test]
    fn migrate_roundtrip() {
        let records = vec![rec("a", "1", false), rec("dead", "", true), rec("b", "22", false)];
        let (db, seq, got) = decode_migrate(encode_migrate(7, 42, &records)).unwrap();
        assert_eq!((db, seq, got.len()), (7, 42, 3));
        assert_eq!(owned(&got), records);
    }

    #[test]
    fn migrate_empty_batch() {
        let (db, seq, got) = decode_migrate(encode_migrate(0, 0, &[])).unwrap();
        assert_eq!((db, seq), (0, 0));
        assert!(got.is_empty() && got.records().next().is_none());
    }

    #[test]
    fn put_sync_roundtrip() {
        let r = rec("key", "value", false);
        let (db, seq, got) = decode_put_sync(encode_put_sync(3, 9, &r)).unwrap();
        assert_eq!((db, seq), (3, 9));
        assert_eq!(owned(&got), [r]);
    }

    #[test]
    fn put_sync_rejects_multi_record() {
        let batch = encode_migrate(1, 0, &[rec("a", "1", false), rec("b", "2", false)]);
        assert!(decode_put_sync(batch).is_err());
        assert!(decode_put_sync(encode_migrate(1, 0, &[])).is_err());
    }

    #[test]
    fn get_req_roundtrip() {
        let buf = encode_get_req(9, 2, 77, b"the-key");
        let (db, group, seq, key) = decode_get_req(buf).unwrap();
        assert_eq!((db, group, seq), (9, 2, 77));
        assert_eq!(&key[..], b"the-key");
    }

    #[test]
    fn get_resp_variants_roundtrip() {
        for resp in [
            GetResp::Found(Bytes::from_static(b"v")),
            GetResp::Found(Bytes::new()),
            GetResp::NotFound,
            GetResp::SearchShared(vec![5, 3, 1]),
            GetResp::SearchShared(vec![]),
        ] {
            assert_eq!(decode_get_resp(encode_get_resp(13, &resp)).unwrap(), (13, resp));
        }
    }

    #[test]
    fn stale_reply_seq_distinguishable() {
        // Two replies to different attempts: the caller pairs by seq.
        let stale = encode_get_resp(1, &GetResp::NotFound);
        let fresh = encode_get_resp(2, &GetResp::Found(Bytes::from_static(b"v")));
        assert_eq!(decode_get_resp(stale).unwrap().0, 1);
        assert_eq!(decode_get_resp(fresh).unwrap().0, 2);
    }

    #[test]
    fn repl_put_roundtrip() {
        let records = vec![rec("a", "1", false), rec("gone", "", true)];
        let batch: Batch = records.iter().collect();
        for want_ack in [false, true] {
            let buf = batch.repl_put(5, 3, want_ack, 88);
            let (db, origin, ack, seq, got) = decode_repl_put(buf).unwrap();
            assert_eq!((db, origin, ack, seq), (5, 3, want_ack, 88));
            assert_eq!(owned(&got), records);
            assert_eq!(got, batch);
        }
    }

    /// A failover get is a get request whose second word names the origin.
    #[test]
    fn repl_get_roundtrip() {
        let (db, origin, seq, key) = decode_get_req(encode_get_req(2, 1, 31, b"k7")).unwrap();
        assert_eq!((db, origin, seq), (2, 1, 31));
        assert_eq!(&key[..], b"k7");
    }

    #[test]
    fn repl_replies_are_seq_first() {
        // `request` pairs replies by peeking the first 8 bytes; the
        // replica replies reuse the ack/get_resp encodings, which must keep
        // the sequence number leading.
        let ack = encode_ack(0x0123_4567_89ab_cdef);
        assert_eq!(&ack[..8], &0x0123_4567_89ab_cdefu64.to_le_bytes());
        let resp = encode_get_resp(0xfeed_f00d, &GetResp::NotFound);
        assert_eq!(&resp[..8], &0xfeed_f00du64.to_le_bytes());
    }

    #[test]
    fn repl_truncations_error_not_panic() {
        assert!(decode_repl_put(Bytes::from_static(&[1, 2, 3])).is_err());
        assert!(decode_get_req(Bytes::from_static(&[0; 10])).is_err());
        // Count says 2 records but the body is empty.
        let mut bad = BytesMut::new();
        bad.put_u32_le(0);
        bad.put_u32_le(1);
        bad.put_u8(0);
        bad.put_u64_le(0);
        bad.put_u32_le(2);
        assert!(decode_repl_put(bad.freeze()).is_err());
    }

    #[test]
    fn barrier_mark_roundtrip() {
        let (db, epoch) = decode_barrier_mark(encode_barrier_mark(4, 99)).unwrap();
        assert_eq!((db, epoch), (4, 99));
    }

    #[test]
    fn truncated_messages_error_not_panic() {
        assert!(decode_migrate(Bytes::from_static(&[1, 2])).is_err());
        assert!(decode_get_req(Bytes::from_static(&[0])).is_err());
        assert!(decode_get_resp(Bytes::new()).is_err());
        assert!(decode_get_resp(Bytes::from_static(&[9])).is_err());
        assert!(decode_barrier_mark(Bytes::from_static(&[0, 0])).is_err());
        // Count says 3 records but body holds none.
        let mut bad = BytesMut::new();
        bad.put_u32_le(0);
        bad.put_u64_le(0);
        bad.put_u32_le(3);
        assert!(decode_migrate(bad.freeze()).is_err());
    }

    #[test]
    fn large_payload_roundtrip() {
        let big = "x".repeat(1 << 20);
        let r = rec("k", &big, false);
        let (_, _, got) = decode_put_sync(encode_put_sync(0, 1, &r)).unwrap();
        assert_eq!(got.records().next().unwrap().value.len(), 1 << 20);
    }

    /// Every reply is built in a buffer reserved for exactly its bytes.
    #[test]
    fn get_resp_lengths_are_what_is_reserved() {
        let len = |resp| encode_get_resp(1, &resp).len();
        assert_eq!(len(GetResp::Found(Bytes::from_static(b"value"))), 13 + 5);
        assert_eq!(len(GetResp::NotFound), 9);
        assert_eq!(len(GetResp::SearchShared(vec![7, 4, 2])), 13 + 8 * 3);
    }

    fn records_strategy() -> impl Strategy<Value = Vec<KvRecord>> {
        let record = (vec(any::<u8>(), 0..24), vec(any::<u8>(), 0..64), any::<bool>());
        vec(record, 1..20).prop_map(|records| {
            let owned = |(key, value, tombstone): (Vec<u8>, Vec<u8>, bool)| KvRecord {
                key,
                value: if tombstone { Bytes::new() } else { Bytes::from(value) },
                tombstone,
            };
            records.into_iter().map(owned).collect()
        })
    }

    proptest! {
        /// All three batch messages round-trip any run of records — empty
        /// values and tombstones included — behind headers of 16 and 21
        /// bytes and nine bytes a record; what the receiver would insert is
        /// the records' entries, each live value a slice of the payload.
        #[test]
        fn batch_messages_round_trip(records in records_strategy()) {
            let batch: Batch = records.iter().collect();
            let body: usize = records.iter().map(|r| 9 + r.key.len() + r.value.len()).sum();
            let migrate = encode_migrate(9, 41, &records);
            prop_assert_eq!(migrate.len(), MIGRATE_HEADER + body);
            prop_assert_eq!(&migrate, &batch.migrate(9, 41));
            let (db, seq, got) = decode_migrate(migrate.clone()).unwrap();
            prop_assert_eq!((db, seq, &got), (9, 41, &batch));
            prop_assert_eq!(owned(&got), records.clone());
            for ((key, entry), want) in got.entries().zip(&records) {
                prop_assert_eq!(key, &want.key[..]);
                prop_assert_eq!(&entry, &crate::write::entry_of(want.value.clone(), want.tombstone));
                prop_assert!(entry.value.is_empty() || !entry.value.is_unique());
            }
            prop_assert_eq!(got.entries().count(), records.len());

            let repl = batch.repl_put(9, 2, true, 41);
            prop_assert_eq!(repl.len(), REPL_PUT_HEADER + body);
            prop_assert_eq!(&repl[REPL_PUT_HEADER..], &migrate[MIGRATE_HEADER..]);
            let (db, origin, ack, seq, got) = decode_repl_put(repl).unwrap();
            prop_assert_eq!((db, origin, ack, seq, got), (9, 2, true, 41, batch));

            let (db, seq, got) = decode_put_sync(encode_put_sync(4, 7, &records[0])).unwrap();
            prop_assert_eq!((db, seq), (4, 7));
            prop_assert_eq!(owned(&got), &records[..1]);
        }

        /// Decoding is total and strict: a cut anywhere inside the last
        /// record, trailing bytes, a header count one too high or too low
        /// and a record length running past the payload are all `Err` — no
        /// `Batch`, the only thing ingest takes, is made of any of them —
        /// and arbitrary bytes never panic.
        #[test]
        fn hostile_batches_are_errors(
            records in records_strategy(),
            tail in vec(any::<u8>(), 1..12),
            junk in vec(any::<u8>(), 0..64),
        ) {
            let batch: Batch = records.iter().collect();
            let last = records.last().unwrap();
            let last_len = 9 + last.key.len() + last.value.len();
            let messages = [
                (batch.migrate(1, 2), MIGRATE_HEADER),
                (batch.repl_put(1, 0, false, 2), REPL_PUT_HEADER),
            ];
            for (whole, header) in messages {
                let rejects = |bytes: Vec<u8>| {
                    let bytes = Bytes::from(bytes);
                    match header {
                        MIGRATE_HEADER => decode_migrate(bytes.clone()).is_err()
                            && decode_put_sync(bytes).is_err(),
                        _ => decode_repl_put(bytes).is_err(),
                    }
                };
                prop_assert!(!rejects(whole.to_vec()));
                for cut in whole.len() - last_len + 1..whole.len() {
                    prop_assert!(rejects(whole[..cut].to_vec()), "cut at {}", cut);
                }
                prop_assert!(rejects(whole[..whole.len() - last_len].to_vec()), "a record short");
                prop_assert!(rejects([&whole[..], &tail[..]].concat()), "trailing bytes");
                for count in [records.len() as u32 - 1, records.len() as u32 + 1] {
                    let mut miscounted = whole.to_vec();
                    miscounted[header - 4..header].copy_from_slice(&count.to_le_bytes());
                    prop_assert!(rejects(miscounted), "header count {}", count);
                }
                // The last record's value length, one more than there is.
                let mut overlong = whole.to_vec();
                let vallen = whole.len() - last_len + 4;
                overlong[vallen..vallen + 4]
                    .copy_from_slice(&(last.value.len() as u32 + 1).to_le_bytes());
                prop_assert!(rejects(overlong), "a value length past the payload");
            }
            let junk = Bytes::from(junk);
            let _ = (decode_migrate(junk.clone()), decode_put_sync(junk.clone()));
            let _ = decode_repl_put(junk);
        }
    }
}
