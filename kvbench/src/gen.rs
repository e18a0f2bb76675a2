//! Seeded op-stream generation and the model the outputs are checked
//! against.
//!
//! The seed drives only what is generated here: which keys, which op, the
//! shuffles and the value versions. The store sees generated inputs and
//! nothing else. A round's stream is generated before the round is timed,
//! with keys pre-formatted into one buffer and put values into another, so
//! the timed loop holds store calls and the check of each result only.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Key length: `ordered_key(i)`, `user` plus twelve digits.
pub const KEY_LEN: usize = 16;
/// Value length.
pub const VAL_LEN: usize = 128;
/// User bytes of one record.
pub const RECORD_BYTES: u64 = (KEY_LEN + VAL_LEN) as u64;

/// Format key `idx` into `out` without allocating; the same bytes as
/// `papyrus_bench::workload::ordered_key(idx)`.
pub fn write_key(idx: u64, out: &mut [u8]) {
    out[..4].copy_from_slice(b"user");
    let mut rest = idx;
    for slot in out[4..KEY_LEN].iter_mut().rev() {
        *slot = b'0' + (rest % 10) as u8;
        rest /= 10;
    }
}

/// Key `idx` as an owned vector.
pub fn key_of(idx: u64) -> [u8; KEY_LEN] {
    let mut k = [0u8; KEY_LEN];
    write_key(idx, &mut k);
    k
}

fn value_word(idx: u64, version: u32, word: u64) -> u64 {
    // splitmix64 finaliser over (idx, version, word): every word of every
    // version of every key differs, so a stale, torn or misrouted value
    // cannot pass the check.
    let mut x = idx
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(u64::from(version).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(word.wrapping_mul(0x94D0_49BB_1331_11EB));
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x
}

/// Fill `out` (`VAL_LEN` bytes) with the value of `(idx, version)`.
pub fn fill_value(idx: u64, version: u32, out: &mut [u8]) {
    for (w, chunk) in out[..VAL_LEN].chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&value_word(idx, version, w as u64).to_le_bytes());
    }
}

/// Whether `got` is exactly the value of `(idx, version)`.
pub fn value_matches(got: &[u8], idx: u64, version: u32) -> bool {
    got.len() == VAL_LEN
        && got
            .chunks_exact(8)
            .enumerate()
            .all(|(w, chunk)| chunk == value_word(idx, version, w as u64).to_le_bytes())
}

/// What one generated operation does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `Db::get`; `version` is the version the model expects, 0 for absent.
    Get,
    /// `Db::put` of `(idx, version)`.
    Put,
    /// `Db::fence`.
    Fence,
    /// `Db::barrier(SsTable)`.
    Settle,
}

/// One generated operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub kind: OpKind,
    pub idx: u32,
    pub version: u32,
}

/// One round's pre-generated ops. Op `i` reads its key at
/// `keys[i * KEY_LEN..]`; the `n`-th put reads its value at
/// `vals[n * VAL_LEN..]`.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Stream {
    pub ops: Vec<Op>,
    pub keys: Vec<u8>,
    pub vals: Vec<u8>,
}

impl Stream {
    fn clear(&mut self) {
        self.ops.clear();
        self.keys.clear();
        self.vals.clear();
    }

    fn push(&mut self, kind: OpKind, idx: u64, version: u32) {
        self.ops.push(Op { kind, idx: idx as u32, version });
        let at = self.keys.len();
        self.keys.resize(at + KEY_LEN, 0);
        write_key(idx, &mut self.keys[at..]);
        if kind == OpKind::Put {
            let at = self.vals.len();
            self.vals.resize(at + VAL_LEN, 0);
            fill_value(idx, version, &mut self.vals[at..]);
        }
    }

    /// Key bytes of op `i`.
    pub fn key(&self, i: usize) -> &[u8] {
        &self.keys[i * KEY_LEN..(i + 1) * KEY_LEN]
    }

    /// Value bytes of the `n`-th put.
    pub fn val(&self, n: usize) -> &[u8] {
        &self.vals[n * VAL_LEN..(n + 1) * VAL_LEN]
    }

    /// Ops that reach the store and have a checked outcome.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The shape of a workload's op stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mix {
    /// Share of ops that are gets, per cent; the rest are puts.
    pub get_pct: u32,
    /// Share of gets aimed at keys that were never written, per cent.
    pub absent_pct: u32,
    /// Issue a fence after every this many ops (0 = never), and never read
    /// a key put since the last fence: under relaxed consistency a remote
    /// put is only defined to be visible after its fence.
    pub fence_every: u32,
    /// Ingest shape: every round puts each key of `0..ops` once, in
    /// shuffled order, into a fresh database and ends with a settle.
    pub ingest: bool,
}

/// Generator state: the RNG and the model (current version of every key,
/// 0 = never written). Absent keys are drawn from `keys..2 * keys`, which
/// no workload ever writes.
pub struct Gen {
    rng: StdRng,
    mix: Mix,
    versions: Vec<u32>,
}

impl Gen {
    /// A generator over `keys` keys, none written yet.
    pub fn new(seed: u64, keys: u64, mix: Mix) -> Self {
        Self { rng: StdRng::seed_from_u64(seed), mix, versions: vec![0; keys as usize] }
    }

    /// Keys in the written keyspace.
    pub fn keys(&self) -> u64 {
        self.versions.len() as u64
    }

    /// The model's current version of `idx` (0 = absent).
    pub fn version(&self, idx: u64) -> u32 {
        self.versions.get(idx as usize).copied().unwrap_or(0)
    }

    /// Live user bytes according to the model.
    pub fn live_bytes(&self) -> u64 {
        self.versions.iter().filter(|&&v| v != 0).count() as u64 * RECORD_BYTES
    }

    /// `0..n` in seeded shuffled order (Fisher-Yates).
    pub fn shuffled(&mut self, n: u64) -> Vec<u32> {
        let mut order: Vec<u32> = (0..n as u32).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, self.rng.gen_range(0..i + 1));
        }
        order
    }

    /// The load phase: one put of every key, in shuffled order.
    pub fn load(&mut self, out: &mut Stream) {
        out.clear();
        for idx in self.shuffled(self.keys()) {
            let v = self.bump(u64::from(idx));
            out.push(OpKind::Put, u64::from(idx), v);
        }
    }

    fn bump(&mut self, idx: u64) -> u32 {
        let v = &mut self.versions[idx as usize];
        *v += 1;
        *v
    }

    /// Generate the next round of `ops` operations into `out`.
    pub fn round(&mut self, ops: u64, out: &mut Stream) {
        out.clear();
        if self.mix.ingest {
            self.versions.iter_mut().for_each(|v| *v = 0);
            for idx in self.shuffled(ops.min(self.keys())) {
                let v = self.bump(u64::from(idx));
                out.push(OpKind::Put, u64::from(idx), v);
            }
            out.push(OpKind::Settle, 0, 0);
            return;
        }
        let keys = self.keys();
        // Keys put since the last fence; small (at most `fence_every`), so
        // a linear scan beats a set.
        let mut unfenced: Vec<u64> = Vec::new();
        for n in 1..=ops {
            if self.rng.gen_range(0..100u32) < self.mix.get_pct {
                if self.rng.gen_range(0..100u32) < self.mix.absent_pct {
                    out.push(OpKind::Get, keys + self.rng.gen_range(0..keys), 0);
                } else {
                    let idx = loop {
                        let idx = self.rng.gen_range(0..keys);
                        if !unfenced.contains(&idx) {
                            break idx;
                        }
                    };
                    out.push(OpKind::Get, idx, self.version(idx));
                }
            } else {
                let idx = self.rng.gen_range(0..keys);
                let v = self.bump(idx);
                out.push(OpKind::Put, idx, v);
                if self.mix.fence_every != 0 {
                    unfenced.push(idx);
                }
            }
            if self.mix.fence_every != 0 && n % u64::from(self.mix.fence_every) == 0 {
                out.push(OpKind::Fence, 0, 0);
                unfenced.clear();
            }
        }
        if self.mix.fence_every != 0 && out.ops.last().map(|o| o.kind) != Some(OpKind::Fence) {
            out.push(OpKind::Fence, 0, 0);
        }
    }

    /// One get of every key of the keyspace, in key order, expecting the
    /// model's current version.
    pub fn read_all(&self, out: &mut Stream) {
        out.clear();
        for idx in 0..self.keys() {
            out.push(OpKind::Get, idx, self.version(idx));
        }
    }

    /// `n` sampled keys with their expected versions, for read-back checks
    /// outside the timed region.
    pub fn sample(&mut self, n: u64, out: &mut Stream) {
        out.clear();
        let keys = self.keys();
        for _ in 0..n.min(keys) {
            let idx = self.rng.gen_range(0..keys);
            out.push(OpKind::Get, idx, self.version(idx));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Mix = Mix { get_pct: 50, absent_pct: 10, fence_every: 8, ingest: false };

    #[test]
    fn keys_are_ordered_key() {
        for idx in [0u64, 7, 42, 99_999, 123_456_789_012] {
            assert_eq!(key_of(idx).to_vec(), papyrus_bench::workload::ordered_key(idx));
        }
    }

    #[test]
    fn values_verify_only_against_their_own_key_and_version() {
        let mut v = [0u8; VAL_LEN];
        fill_value(5, 3, &mut v);
        assert!(value_matches(&v, 5, 3));
        assert!(!value_matches(&v, 5, 4));
        assert!(!value_matches(&v, 6, 3));
        assert!(!value_matches(&v[..VAL_LEN - 1], 5, 3));
        v[VAL_LEN - 1] ^= 1;
        assert!(!value_matches(&v, 5, 3));
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let round = |seed| {
            let mut g = Gen::new(seed, 100, MIXED);
            let (mut load, mut s) = (Stream::default(), Stream::default());
            g.load(&mut load);
            g.round(500, &mut s);
            (load, s)
        };
        assert_eq!(round(1), round(1));
        assert_ne!(round(1).1, round(2).1);
    }

    #[test]
    fn gets_expect_the_model_and_never_read_an_unfenced_put() {
        let mut g = Gen::new(9, 50, MIXED);
        let (mut load, mut s) = (Stream::default(), Stream::default());
        g.load(&mut load);
        assert_eq!(load.len(), 50);
        g.round(2000, &mut s);
        let mut model = [1u32; 50];
        let mut unfenced = Vec::new();
        let mut puts = 0;
        for (i, op) in s.ops.iter().enumerate() {
            match op.kind {
                OpKind::Put => {
                    model[op.idx as usize] += 1;
                    assert_eq!(op.version, model[op.idx as usize]);
                    assert!(value_matches(s.val(puts), u64::from(op.idx), op.version));
                    puts += 1;
                    unfenced.push(op.idx);
                }
                OpKind::Get if op.idx >= 50 => assert_eq!(op.version, 0),
                OpKind::Get => {
                    assert_eq!(op.version, model[op.idx as usize]);
                    assert!(!unfenced.contains(&op.idx));
                    assert_eq!(s.key(i), key_of(u64::from(op.idx)));
                }
                OpKind::Fence => unfenced.clear(),
                OpKind::Settle => panic!("no settle in a mixed round"),
            }
        }
        assert_eq!(s.ops.last().map(|o| o.kind), Some(OpKind::Fence));
        assert_eq!(g.live_bytes(), 50 * RECORD_BYTES);
    }

    #[test]
    fn ingest_round_puts_every_key_once_then_settles() {
        let mix = Mix { get_pct: 0, absent_pct: 0, fence_every: 0, ingest: true };
        let mut g = Gen::new(3, 64, mix);
        let mut s = Stream::default();
        g.round(64, &mut s);
        g.round(64, &mut s);
        let mut seen: Vec<u32> =
            s.ops.iter().filter(|o| o.kind == OpKind::Put).map(|o| o.idx).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<u32>>());
        assert!(s.ops.iter().filter(|o| o.kind == OpKind::Put).all(|o| o.version == 1));
        assert_eq!(s.ops.last().map(|o| o.kind), Some(OpKind::Settle));
    }
}
