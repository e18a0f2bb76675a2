//! Wire format for runtime-internal messages.
//!
//! PapyrusKV's message dispatcher and message handler threads exchange
//! request/response messages over runtime-private communicators (§2.4,
//! §2.6). The format here is a hand-rolled little-endian binary encoding
//! (no serde): a one-byte opcode followed by opcode-specific fields.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};
use crate::sstable::Ssid;

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
    /// owner rank died.
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

/// One key-value record inside a migration batch or sync put.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KvRecord {
    /// Key bytes.
    pub key: Vec<u8>,
    /// Value bytes (empty for tombstones).
    pub value: Bytes,
    /// Deletion marker.
    pub tombstone: bool,
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

/// Encode a migration batch: `[db: u32][seq: u64][count: u32]` then per
/// record `[tomb: u8][key][value]` (length-prefixed).
pub fn encode_migrate(db: u32, seq: RpcSeq, records: &[KvRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        16 + records.iter().map(|r| 9 + r.key.len() + r.value.len()).sum::<usize>(),
    );
    buf.put_u32_le(db);
    buf.put_u64_le(seq);
    buf.put_u32_le(records.len() as u32);
    for r in records {
        buf.put_u8(u8::from(r.tombstone));
        put_bytes(&mut buf, &r.key);
        put_bytes(&mut buf, &r.value);
    }
    buf.freeze()
}

/// Decode a migration batch.
pub fn decode_migrate(mut buf: Bytes) -> Result<(u32, RpcSeq, Vec<KvRecord>)> {
    if buf.remaining() < 16 {
        return Err(Error::Internal("truncated migrate header".into()));
    }
    let db = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    // `count` comes off the wire: cap the preallocation so corrupt headers
    // cannot trigger huge allocations (the decode loop still bails on
    // truncation).
    let mut records = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(Error::Internal("truncated migrate record".into()));
        }
        let tombstone = buf.get_u8() != 0;
        let key = get_bytes(&mut buf)?.to_vec();
        let value = get_bytes(&mut buf)?;
        records.push(KvRecord { key, value, tombstone });
    }
    Ok((db, seq, records))
}

/// Encode a synchronous put: same record format, count = 1 implied.
pub fn encode_put_sync(db: u32, seq: RpcSeq, record: &KvRecord) -> Bytes {
    encode_migrate(db, seq, std::slice::from_ref(record))
}

/// Decode a synchronous put.
pub fn decode_put_sync(buf: Bytes) -> Result<(u32, RpcSeq, KvRecord)> {
    let (db, seq, mut records) = decode_migrate(buf)?;
    if records.len() != 1 {
        return Err(Error::Internal("put_sync must carry one record".into()));
    }
    let record = records.pop().ok_or_else(|| Error::Internal("put_sync record vanished".into()))?;
    Ok((db, seq, record))
}

/// Encode a request acknowledgement (`PUT_ACK`/`MIGRATE_ACK`): the echoed
/// sequence number.
pub fn encode_ack(seq: RpcSeq) -> Bytes {
    let mut buf = BytesMut::with_capacity(8);
    buf.put_u64_le(seq);
    buf.freeze()
}

/// Encode a remote-get request: `[db: u32][group: u32][seq: u64][key]`.
/// The caller's storage-group id lets the owner decide the shared-SSTable
/// fast path (§2.7).
pub fn encode_get_req(db: u32, caller_group: u32, seq: RpcSeq, key: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + key.len());
    buf.put_u32_le(db);
    buf.put_u32_le(caller_group);
    buf.put_u64_le(seq);
    put_bytes(&mut buf, key);
    buf.freeze()
}

/// Decode a remote-get request.
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
    let mut buf = BytesMut::new();
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

/// Encode a replica put batch: `[db: u32][origin: u32][want_ack: u8]`
/// `[seq: u64][count: u32]` then the migrate record format. `origin` is the
/// owner rank whose ranges the records belong to — the receiver files them
/// in its per-origin replica tables, never in its primary stack.
pub fn encode_repl_put(
    db: u32,
    origin: u32,
    want_ack: bool,
    seq: RpcSeq,
    records: &[KvRecord],
) -> Bytes {
    let mut buf = BytesMut::with_capacity(
        21 + records.iter().map(|r| 9 + r.key.len() + r.value.len()).sum::<usize>(),
    );
    buf.put_u32_le(db);
    buf.put_u32_le(origin);
    buf.put_u8(u8::from(want_ack));
    buf.put_u64_le(seq);
    buf.put_u32_le(records.len() as u32);
    for r in records {
        buf.put_u8(u8::from(r.tombstone));
        put_bytes(&mut buf, &r.key);
        put_bytes(&mut buf, &r.value);
    }
    buf.freeze()
}

/// Decode a replica put batch.
pub fn decode_repl_put(mut buf: Bytes) -> Result<(u32, u32, bool, RpcSeq, Vec<KvRecord>)> {
    if buf.remaining() < 21 {
        return Err(Error::Internal("truncated repl_put header".into()));
    }
    let db = buf.get_u32_le();
    let origin = buf.get_u32_le();
    let want_ack = buf.get_u8() != 0;
    let seq = buf.get_u64_le();
    let count = buf.get_u32_le() as usize;
    let mut records = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        if buf.remaining() < 1 {
            return Err(Error::Internal("truncated repl_put record".into()));
        }
        let tombstone = buf.get_u8() != 0;
        let key = get_bytes(&mut buf)?.to_vec();
        let value = get_bytes(&mut buf)?;
        records.push(KvRecord { key, value, tombstone });
    }
    Ok((db, origin, want_ack, seq, records))
}

/// Encode a failover get: `[db: u32][origin: u32][seq: u64][key]`. The
/// receiver searches its replica tables for `origin`'s ranges.
pub fn encode_repl_get(db: u32, origin: u32, seq: RpcSeq, key: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(20 + key.len());
    buf.put_u32_le(db);
    buf.put_u32_le(origin);
    buf.put_u64_le(seq);
    put_bytes(&mut buf, key);
    buf.freeze()
}

/// Decode a failover get.
pub fn decode_repl_get(mut buf: Bytes) -> Result<(u32, u32, RpcSeq, Bytes)> {
    if buf.remaining() < 16 {
        return Err(Error::Internal("truncated repl_get".into()));
    }
    let db = buf.get_u32_le();
    let origin = buf.get_u32_le();
    let seq = buf.get_u64_le();
    let key = get_bytes(&mut buf)?;
    Ok((db, origin, seq, key))
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

    fn rec(k: &str, v: &str, t: bool) -> KvRecord {
        KvRecord {
            key: k.as_bytes().to_vec(),
            value: Bytes::copy_from_slice(v.as_bytes()),
            tombstone: t,
        }
    }

    #[test]
    fn migrate_roundtrip() {
        let records = vec![rec("a", "1", false), rec("dead", "", true), rec("b", "22", false)];
        let (db, seq, got) = decode_migrate(encode_migrate(7, 42, &records)).unwrap();
        assert_eq!((db, seq), (7, 42));
        assert_eq!(got, records);
    }

    #[test]
    fn migrate_empty_batch() {
        let (db, seq, got) = decode_migrate(encode_migrate(0, 0, &[])).unwrap();
        assert_eq!((db, seq), (0, 0));
        assert!(got.is_empty());
    }

    #[test]
    fn put_sync_roundtrip() {
        let r = rec("key", "value", false);
        let (db, seq, got) = decode_put_sync(encode_put_sync(3, 9, &r)).unwrap();
        assert_eq!((db, seq), (3, 9));
        assert_eq!(got, r);
    }

    #[test]
    fn put_sync_rejects_multi_record() {
        let batch = encode_migrate(1, 0, &[rec("a", "1", false), rec("b", "2", false)]);
        assert!(decode_put_sync(batch).is_err());
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
        for want_ack in [false, true] {
            let buf = encode_repl_put(5, 3, want_ack, 88, &records);
            let (db, origin, ack, seq, got) = decode_repl_put(buf).unwrap();
            assert_eq!((db, origin, ack, seq), (5, 3, want_ack, 88));
            assert_eq!(got, records);
        }
    }

    #[test]
    fn repl_get_roundtrip() {
        let (db, origin, seq, key) = decode_repl_get(encode_repl_get(2, 1, 31, b"k7")).unwrap();
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
        assert!(decode_repl_get(Bytes::from_static(&[0; 10])).is_err());
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
        assert_eq!(got.value.len(), 1 << 20);
    }
}
