//! The MDHIM communication/distribution layer: range-partitioned clients
//! and per-rank range-server threads over [`crate::ldb::MiniLdb`].

use std::sync::Arc;

use bytes::{Buf, BufMut, Bytes, BytesMut};
use papyrus_mpi::{Communicator, RankCtx, RecvSrc, RecvTag, Task};
use papyrus_nvm::{NvmStore, StorageMap, SystemProfile};
use papyrus_simtime::Clock;
use parking_lot::Mutex;

use crate::ldb::MiniLdb;

/// Fixed server-side software overhead per request (ns): MDHIM-tng's range
/// server hands each request from its listener thread to a worker via an
/// internal work queue, with per-request allocation — overhead PapyrusKV's
/// single integrated layer avoids (paper §5.2).
const SERVER_SW_OVERHEAD_NS: u64 = 2_000;

const TAG_PUT: u32 = 1;
const TAG_GET: u32 = 2;
const TAG_DEL: u32 = 3;
const TAG_SHUTDOWN: u32 = 4;
const TAG_PUT_ACK: u32 = 10;
const TAG_GET_RESP: u32 = 11;

/// MDHIM errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MdhimError {
    /// Wire-format corruption.
    Protocol(String),
    /// Operation after finalize.
    Finalized,
}

impl std::fmt::Display for MdhimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdhimError::Protocol(s) => write!(f, "mdhim protocol error: {s}"),
            MdhimError::Finalized => write!(f, "mdhim already finalized"),
        }
    }
}

impl std::error::Error for MdhimError {}

/// MDHIM configuration.
#[derive(Clone)]
pub struct MdhimConfig {
    /// LevelDB MemTable capacity in bytes.
    pub memtable_capacity: u64,
    /// Store data on the PFS instead of node-local NVM (the Figure 11
    /// "MDHIM-L" configuration).
    pub use_pfs: bool,
}

impl Default for MdhimConfig {
    fn default() -> Self {
        Self { memtable_capacity: 64 << 20, use_pfs: false }
    }
}

/// An MDHIM instance on one rank: client API plus this rank's range server.
///
/// Keys are range-partitioned: the first 8 bytes of the key, read as a
/// big-endian integer, select the server slice (MDHIM's sliced key space).
pub struct Mdhim {
    rank: RankCtx,
    profile: SystemProfile,
    comm_req: Communicator,
    comm_rep: Communicator,
    server: Option<Task<()>>,
    finalized: bool,
}

/// Range partitioner: first 8 key bytes as a big-endian fraction of the key
/// space, mapped onto `n` slices.
pub fn range_owner(key: &[u8], n: usize) -> usize {
    let mut buf = [0u8; 8];
    for (i, b) in key.iter().take(8).enumerate() {
        buf[i] = *b;
    }
    let x = u64::from_be_bytes(buf);
    // Multiply-shift to map the full u64 range onto n slices.
    ((x as u128 * n as u128) >> 64) as usize
}

struct Server {
    ldb: Mutex<MiniLdb>,
    /// The comm/distribution layer's own staging buffer — the "discrete
    /// memory data structure" duplicated above LevelDB's MemTable that the
    /// paper identifies as MDHIM overhead. Records pass through it on every
    /// server-side operation.
    staging: Mutex<Vec<u8>>,
}

impl Mdhim {
    /// Initialise MDHIM on this rank (collective). `repo` is the storage
    /// prefix (like `PAPYRUSKV_REPOSITORY` for the mdhim app).
    pub fn init(
        rank: RankCtx,
        profile: SystemProfile,
        storage: &StorageMap,
        repo: &str,
        cfg: MdhimConfig,
    ) -> Self {
        let comm_req = rank.world().dup();
        let comm_rep = rank.world().dup();
        let me = rank.rank();
        let store: NvmStore =
            if cfg.use_pfs { storage.pfs().clone() } else { storage.nvm_of(me).clone() };
        let ldb = MiniLdb::new(store, format!("{repo}/mdhim/r{me}"), cfg.memtable_capacity);
        let server = Arc::new(Server { ldb: Mutex::new(ldb), staging: Mutex::new(Vec::new()) });

        let srv_comm = comm_req.clone();
        let rep_comm = comm_rep.clone();
        let srv_profile = profile.clone();
        let handle = rank.spawn(format!("mdhim-srv-{me}"), move || {
            server_loop(server, srv_comm, rep_comm, srv_profile)
        });

        Self { rank, profile, comm_req, comm_rep, server: Some(handle), finalized: false }
    }

    /// The range-server rank owning `key`.
    pub fn owner_of(&self, key: &[u8]) -> usize {
        range_owner(key, self.rank.size())
    }

    /// Synchronous put: serialise into the distribution layer (copy #1),
    /// message the range server, which stages (copy #2) and hands the record
    /// to LevelDB (copy #3), then acknowledge.
    pub fn put(&self, key: &[u8], value: &[u8]) -> Result<(), MdhimError> {
        if self.finalized {
            return Err(MdhimError::Finalized);
        }
        let owner = self.owner_of(key);
        let clock = self.rank.clock();
        // Client-side marshalling copy.
        clock.advance(self.profile.mem.op_ns((key.len() + value.len()) as u64));
        let payload = encode_kv(key, value, false);
        self.comm_req.send(owner, TAG_PUT, payload);
        self.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(TAG_PUT_ACK));
        Ok(())
    }

    /// Synchronous delete.
    pub fn delete(&self, key: &[u8]) -> Result<(), MdhimError> {
        if self.finalized {
            return Err(MdhimError::Finalized);
        }
        let owner = self.owner_of(key);
        let clock = self.rank.clock();
        clock.advance(self.profile.mem.op_ns(key.len() as u64));
        let payload = encode_kv(key, &[], true);
        self.comm_req.send(owner, TAG_DEL, payload);
        self.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(TAG_PUT_ACK));
        Ok(())
    }

    /// Synchronous get: the full value always crosses the network on remote
    /// hits — MDHIM's independent LevelDB instances cannot share tables.
    pub fn get(&self, key: &[u8]) -> Result<Option<Bytes>, MdhimError> {
        if self.finalized {
            return Err(MdhimError::Finalized);
        }
        let owner = self.owner_of(key);
        let clock = self.rank.clock();
        clock.advance(self.profile.mem.op_ns(key.len() as u64));
        self.comm_req.send(owner, TAG_GET, encode_kv(key, &[], false));
        let m = self.comm_rep.recv(RecvSrc::Rank(owner), RecvTag::Tag(TAG_GET_RESP));
        let mut buf = m.payload;
        if buf.remaining() < 1 {
            return Err(MdhimError::Protocol("empty get response".into()));
        }
        match buf.get_u8() {
            0 => Ok(None),
            1 => {
                // Client-side unmarshalling copy.
                clock.advance(self.profile.mem.op_ns(buf.remaining() as u64));
                Ok(Some(buf))
            }
            op => Err(MdhimError::Protocol(format!("bad get opcode {op}"))),
        }
    }

    /// Collective shutdown: barrier, stop the range server, join it. The
    /// server flushes its LevelDB MemTable on the way out, like an embedded
    /// LevelDB close.
    pub fn finalize(&mut self) -> Result<(), MdhimError> {
        if self.finalized {
            return Err(MdhimError::Finalized);
        }
        self.finalized = true;
        self.rank.world().barrier();
        self.comm_req.send(self.rank.rank(), TAG_SHUTDOWN, Bytes::new());
        if let Some(h) = self.server.take() {
            h.join().map_err(|_| MdhimError::Protocol("server panicked".into()))?;
        }
        self.rank.world().barrier();
        Ok(())
    }
}

impl Drop for Mdhim {
    fn drop(&mut self) {
        if !self.finalized {
            let _ = self.finalize();
        }
    }
}

fn server_loop(
    server: Arc<Server>,
    comm_req: Communicator,
    comm_rep: Communicator,
    profile: SystemProfile,
) {
    loop {
        let m = comm_req.recv_unstamped(RecvSrc::Any, RecvTag::Any);
        match m.tag {
            TAG_SHUTDOWN => {
                // Flush remaining MemTable contents like an ldb close.
                let clk = Clock::starting_at(m.stamp);
                server.ldb.lock().flush(&clk);
                return;
            }
            TAG_PUT | TAG_DEL => {
                let clk = Clock::starting_at(m.stamp);
                clk.advance(SERVER_SW_OVERHEAD_NS);
                if let Some((key, value, del)) = decode_kv(m.payload) {
                    // Distribution-layer staging copy (the duplicated
                    // structure), then the LevelDB-side copy.
                    {
                        let mut staging = server.staging.lock();
                        staging.clear();
                        staging.extend_from_slice(&key);
                        staging.extend_from_slice(&value);
                    }
                    clk.advance(profile.mem.op_ns((key.len() + value.len()) as u64));
                    clk.advance(profile.mem.op_ns((key.len() + value.len()) as u64));
                    let mut ldb = server.ldb.lock();
                    if del {
                        ldb.delete(&key, &clk);
                    } else {
                        ldb.put(&key, value, &clk);
                    }
                }
                comm_rep.send_at(m.src, TAG_PUT_ACK, Bytes::new(), clk.now());
            }
            TAG_GET => {
                let clk = Clock::starting_at(m.stamp);
                clk.advance(SERVER_SW_OVERHEAD_NS);
                let resp = match decode_kv(m.payload) {
                    Some((key, _, _)) => {
                        let ldb = server.ldb.lock();
                        match ldb.get(&key, &clk) {
                            Some(v) => {
                                // Server-side staging copy before the reply.
                                clk.advance(profile.mem.op_ns(v.len() as u64));
                                let mut out = BytesMut::with_capacity(1 + v.len());
                                out.put_u8(1);
                                out.put_slice(&v);
                                out.freeze()
                            }
                            None => Bytes::from_static(&[0]),
                        }
                    }
                    None => Bytes::from_static(&[0]),
                };
                comm_rep.send_at(m.src, TAG_GET_RESP, resp, clk.now());
            }
            _ => {}
        }
    }
}

fn encode_kv(key: &[u8], value: &[u8], del: bool) -> Bytes {
    let mut buf = BytesMut::with_capacity(9 + key.len() + value.len());
    buf.put_u8(u8::from(del));
    buf.put_u32_le(key.len() as u32);
    buf.put_slice(key);
    buf.put_u32_le(value.len() as u32);
    buf.put_slice(value);
    buf.freeze()
}

fn decode_kv(mut buf: Bytes) -> Option<(Vec<u8>, Bytes, bool)> {
    if buf.remaining() < 5 {
        return None;
    }
    let del = buf.get_u8() != 0;
    let klen = buf.get_u32_le() as usize;
    if buf.remaining() < klen {
        return None;
    }
    let key = buf.split_to(klen).to_vec();
    if buf.remaining() < 4 {
        return None;
    }
    let vlen = buf.get_u32_le() as usize;
    if buf.remaining() < vlen {
        return None;
    }
    let value = buf.split_to(vlen);
    Some((key, value, del))
}

#[cfg(test)]
mod tests {
    use super::*;
    use papyrus_mpi::{World, WorldConfig};

    #[test]
    fn range_owner_covers_all_slices_monotonically() {
        let n = 8;
        assert_eq!(range_owner(b"", n), 0);
        assert_eq!(range_owner(&[0xFF; 8], n), n - 1);
        // Monotone in the key prefix.
        let a = range_owner(b"aaaa", n);
        let z = range_owner(b"zzzz", n);
        assert!(a <= z);
        // Uniform random keys spread across slices.
        let mut seen = std::collections::HashSet::new();
        for i in 0..2000u32 {
            let h = papyruskv_like_hash(i);
            seen.insert(range_owner(&h.to_be_bytes(), n));
        }
        assert_eq!(seen.len(), n);
    }

    fn papyruskv_like_hash(mut x: u32) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for _ in 0..4 {
            h ^= (x & 0xff) as u64;
            h = h.wrapping_mul(0x100000001b3);
            x >>= 8;
        }
        h
    }

    #[test]
    fn kv_wire_roundtrip() {
        let enc = encode_kv(b"key", b"value", false);
        let (k, v, del) = decode_kv(enc).unwrap();
        assert_eq!(k, b"key");
        assert_eq!(&v[..], b"value");
        assert!(!del);
        let (_, _, del) = decode_kv(encode_kv(b"k", b"", true)).unwrap();
        assert!(del);
        assert!(decode_kv(Bytes::from_static(&[1, 9, 0, 0, 0])).is_none());
    }

    #[test]
    fn put_get_across_ranks() {
        let profile = SystemProfile::test_profile();
        let storage = StorageMap::new(&profile, 4, 1);
        World::run(WorldConfig::for_tests(4), move |rank| {
            let mut m = Mdhim::init(
                rank.clone(),
                profile.clone(),
                &storage,
                "repo",
                MdhimConfig { memtable_capacity: 1 << 10, use_pfs: false },
            );
            for i in 0..50 {
                let k = format!("r{}k{i:03}", rank.rank());
                m.put(k.as_bytes(), format!("v{i}").as_bytes()).unwrap();
            }
            rank.world().barrier();
            for r in 0..rank.size() {
                for i in 0..50 {
                    let k = format!("r{r}k{i:03}");
                    let got = m.get(k.as_bytes()).unwrap().expect("present");
                    assert_eq!(&got[..], format!("v{i}").as_bytes());
                }
            }
            assert!(m.get(b"missing-key").unwrap().is_none());
            m.finalize().unwrap();
        });
    }

    #[test]
    fn delete_across_ranks() {
        let profile = SystemProfile::test_profile();
        let storage = StorageMap::new(&profile, 2, 1);
        World::run(WorldConfig::for_tests(2), move |rank| {
            let mut m = Mdhim::init(
                rank.clone(),
                profile.clone(),
                &storage,
                "repo",
                MdhimConfig::default(),
            );
            if rank.rank() == 0 {
                for i in 0..20 {
                    m.put(format!("del{i}").as_bytes(), b"v").unwrap();
                }
                for i in (0..20).step_by(2) {
                    m.delete(format!("del{i}").as_bytes()).unwrap();
                }
            }
            rank.world().barrier();
            for i in 0..20 {
                let got = m.get(format!("del{i}").as_bytes()).unwrap();
                if i % 2 == 0 {
                    assert!(got.is_none());
                } else {
                    assert!(got.is_some());
                }
            }
            m.finalize().unwrap();
        });
    }

    #[test]
    fn ops_after_finalize_fail() {
        let profile = SystemProfile::test_profile();
        let storage = StorageMap::new(&profile, 1, 1);
        World::run(WorldConfig::for_tests(1), move |rank| {
            let mut m =
                Mdhim::init(rank, profile.clone(), &storage, "repo", MdhimConfig::default());
            m.put(b"k", b"v").unwrap();
            m.finalize().unwrap();
            assert_eq!(m.put(b"k", b"v").unwrap_err(), MdhimError::Finalized);
            assert_eq!(m.get(b"k").unwrap_err(), MdhimError::Finalized);
            assert_eq!(m.finalize().unwrap_err(), MdhimError::Finalized);
        });
    }

    #[test]
    fn virtual_time_cost_higher_than_zero() {
        let profile = SystemProfile::summitdev();
        let storage = StorageMap::new(&profile, 2, 2);
        let net = profile.net.clone();
        let times = World::run(WorldConfig::new(2, net), move |rank| {
            let mut m = Mdhim::init(
                rank.clone(),
                profile.clone(),
                &storage,
                "repo",
                MdhimConfig::default(),
            );
            for i in 0..50 {
                m.put(format!("t{i}").as_bytes(), &[0u8; 1024]).unwrap();
            }
            let t = rank.now();
            m.finalize().unwrap();
            t
        });
        assert!(times.iter().all(|&t| t > 0));
    }
}
