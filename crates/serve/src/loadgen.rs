//! Open-loop memtier-style load generator.
//!
//! Each simulated connection fires a configured number of *bursts* at
//! arrival times drawn uniformly over the run window — open-loop: the
//! arrival schedule is fixed up front and does not slow down when the
//! server queues, so measured latency includes queueing delay, exactly
//! the failure mode closed-loop generators hide. A burst writes
//! `pipeline` encoded commands back-to-back onto the connection (RESP
//! pipelining), so the server sees partial frames and multi-frame reads
//! on every poll.
//!
//! Command content is drawn from a single rank-level RNG at emission
//! time. Arrival order is a pre-sorted `(time, conn, seq)` schedule, so
//! the draw sequence — and therefore every key, value, and command —
//! is a pure function of the seed.
//!
//! Key discipline: reads (GET/MGET/EXISTS/RANGE) draw from the *full*
//! loaded keyspace through a [`KeyChooser`], so dispatch exercises
//! cross-rank routing (ownership is hash-partitioned). Writes
//! (SET/DEL/MSET) draw from this rank's *disjoint* key slice — skewed
//! within the slice so the same hot keys repeat inside one group-commit
//! backlog (visible fold coalescing) — which keeps the read-your-writes
//! oracle exact without cross-rank last-writer ambiguity.

use bytes::{Bytes, BytesMut};
use papyrus_bench::workload::{ordered_key, KeyChooser, KeyDist, ZIPF_THETA};
use rand::rngs::StdRng;
use rand::Rng;

use crate::cmd::Command;
use crate::resp::{
    encode_array_header, encode_bulk, encode_command, encode_decimal_bulk, encode_inline,
};

/// Command mix presets (shares per mille).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadMix {
    /// 80% reads / 16% writes / 4% admin.
    ReadHeavy,
    /// 32% reads / 67% writes / 1% admin.
    WriteHeavy,
    /// Roughly even reads and writes.
    Balanced,
}

impl LoadMix {
    /// Stable label used in reports and perfline row ids.
    pub fn label(self) -> &'static str {
        match self {
            LoadMix::ReadHeavy => "read_heavy",
            LoadMix::WriteHeavy => "write_heavy",
            LoadMix::Balanced => "balanced",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "read_heavy" | "read-heavy" => Some(LoadMix::ReadHeavy),
            "write_heavy" | "write-heavy" => Some(LoadMix::WriteHeavy),
            "balanced" => Some(LoadMix::Balanced),
            _ => None,
        }
    }

    /// Per-mille cumulative thresholds:
    /// (get, mget, exists, range, set, del, mset, ping) — INFO takes the
    /// remainder to 1000.
    fn thresholds(self) -> [u32; 8] {
        match self {
            LoadMix::ReadHeavy => [650, 730, 780, 800, 950, 960, 990, 998],
            LoadMix::WriteHeavy => [250, 280, 300, 320, 820, 870, 990, 998],
            LoadMix::Balanced => [420, 470, 500, 530, 880, 910, 990, 998],
        }
    }
}

/// Key-skew presets for the read side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadSkew {
    /// Uniform over the keyspace.
    Uniform,
    /// Zipfian with the YCSB theta (0.99).
    Zipfian,
}

impl LoadSkew {
    /// Stable label used in reports and perfline row ids.
    pub fn label(self) -> &'static str {
        match self {
            LoadSkew::Uniform => "uniform",
            LoadSkew::Zipfian => "zipfian",
        }
    }

    /// Parse a CLI flag value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "uniform" => Some(LoadSkew::Uniform),
            "zipfian" => Some(LoadSkew::Zipfian),
            _ => None,
        }
    }

    fn dist(self) -> KeyDist {
        match self {
            LoadSkew::Uniform => KeyDist::Uniform,
            LoadSkew::Zipfian => KeyDist::Zipfian { theta: ZIPF_THETA },
        }
    }
}

/// One scheduled burst: `at` is a virtual-time offset from the window
/// start (delta-anchored — never an absolute stamp), `conn` the local
/// connection index.
#[derive(Debug, Clone, Copy)]
pub struct Arrival {
    /// Offset from window start, ns.
    pub at: u64,
    /// Local connection index.
    pub conn: u32,
}

/// Build the open-loop arrival schedule: `bursts` arrivals per
/// connection, uniform over `[0, duration_ns)`, sorted by
/// `(time, conn)` so the single-threaded window loop consumes them in a
/// deterministic order.
pub fn build_schedule(conns: u32, bursts: u32, duration_ns: u64, rng: &mut StdRng) -> Vec<Arrival> {
    let mut schedule = Vec::with_capacity(conns as usize * bursts as usize);
    for conn in 0..conns {
        for _ in 0..bursts {
            schedule.push(Arrival { at: rng.gen_range(0..duration_ns.max(1)), conn });
        }
    }
    schedule.sort_by_key(|a| (a.at, a.conn));
    schedule
}

/// Deterministic command source for one rank's window.
pub struct Generator {
    mix: LoadMix,
    /// Reads: full keyspace, configured skew.
    read_chooser: KeyChooser,
    /// Writes: this rank's slice, always zipfian (hot keys repeat within
    /// one backlog, making the group-commit fold visible).
    write_chooser: KeyChooser,
    /// First key index of this rank's write slice.
    write_base: u64,
    /// Total loaded keys (RANGE clamps against this).
    total_keys: u64,
    vallen: usize,
    /// Monotone per-rank write sequence; embedded in every written value
    /// so any two writes produce distinct bytes (the dropped-write
    /// oracle needs last-writer values to be distinguishable).
    write_seq: u64,
}

impl Generator {
    /// A generator for `rank`'s window over a keyspace of
    /// `keys_per_rank * ranks` keys.
    pub fn new(
        rank: usize,
        ranks: usize,
        keys_per_rank: u64,
        mix: LoadMix,
        skew: LoadSkew,
        vallen: usize,
    ) -> Self {
        let total_keys = keys_per_rank * ranks as u64;
        Self {
            mix,
            read_chooser: KeyChooser::new(skew.dist(), total_keys),
            write_chooser: KeyChooser::new(KeyDist::Zipfian { theta: ZIPF_THETA }, keys_per_rank),
            write_base: rank as u64 * keys_per_rank,
            total_keys,
            vallen,
            write_seq: 0,
        }
    }

    fn read_key(&self, rng: &mut StdRng) -> Bytes {
        Bytes::from(ordered_key(self.read_chooser.next(rng)))
    }

    fn write_key(&self, rng: &mut StdRng) -> Bytes {
        Bytes::from(ordered_key(self.write_base + self.write_chooser.next(rng)))
    }

    /// The value of the next write: `v`, the write's sequence number in 16
    /// hex digits, then dots up to `vallen` bytes.
    #[allow(clippy::indexing_slicing, reason = "a nibble indexes HEX's 16 digits")]
    fn value(&mut self) -> Bytes {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let seq = self.write_seq;
        self.write_seq += 1;
        let mut head = [b'v'; 17];
        for (digit, shift) in head[1..].iter_mut().zip((0..16).rev()) {
            *digit = HEX[(seq >> (4 * shift)) as usize & 0xf];
        }
        let mut value = BytesMut::with_capacity(self.vallen.max(head.len()));
        value.extend_from_slice(&head);
        value.resize(self.vallen.max(head.len()), b'.');
        value.freeze()
    }

    /// Draw the next command.
    pub fn next_command(&mut self, rng: &mut StdRng) -> Command {
        let roll: u32 = rng.gen_range(0..1000);
        let t = self.mix.thresholds();
        if roll < t[0] {
            Command::Get { key: self.read_key(rng) }
        } else if roll < t[1] {
            let n = 2 + rng.gen_range(0..3usize);
            Command::MGet { keys: (0..n).map(|_| self.read_key(rng)).collect() }
        } else if roll < t[2] {
            Command::Exists { key: self.read_key(rng) }
        } else if roll < t[3] {
            let count = 2 + rng.gen_range(0..7u64);
            let start = self.read_chooser.next(rng).min(self.total_keys.saturating_sub(count));
            Command::Range { start, count }
        } else if roll < t[4] {
            let key = self.write_key(rng);
            let value = self.value();
            Command::Set { key, value }
        } else if roll < t[5] {
            Command::Del { key: self.write_key(rng) }
        } else if roll < t[6] {
            let n = 2 + rng.gen_range(0..2usize);
            let pairs = (0..n)
                .map(|_| {
                    let key = self.write_key(rng);
                    let value = self.value();
                    (key, value)
                })
                .collect();
            Command::MSet { pairs }
        } else if roll < t[7] {
            Command::Ping
        } else {
            Command::Info
        }
    }

    /// Encode `cmd` as the client would send it, word by word straight
    /// into `out`. PINGs flip a coin between the canonical array form and
    /// the bare inline line, so the server's inline path sees real traffic.
    pub fn encode(&self, cmd: &Command, rng: &mut StdRng, out: &mut Vec<u8>) {
        match cmd {
            Command::Ping => {
                if rng.gen_bool(0.5) {
                    encode_inline(&[b"PING"], out);
                } else {
                    encode_command(&[b"PING"], out);
                }
            }
            Command::Info => encode_command(&[b"INFO"], out),
            Command::Get { key } => encode_command::<&[u8]>(&[b"GET", key], out),
            Command::Set { key, value } => encode_command::<&[u8]>(&[b"SET", key, value], out),
            Command::Del { key } => encode_command::<&[u8]>(&[b"DEL", key], out),
            Command::Exists { key } => encode_command::<&[u8]>(&[b"EXISTS", key], out),
            Command::MGet { keys } => {
                encode_array_header(1 + keys.len(), out);
                encode_bulk(Some(b"MGET"), out);
                for key in keys {
                    encode_bulk(Some(key), out);
                }
            }
            Command::MSet { pairs } => {
                encode_array_header(1 + 2 * pairs.len(), out);
                encode_bulk(Some(b"MSET"), out);
                for (key, value) in pairs {
                    encode_bulk(Some(key), out);
                    encode_bulk(Some(value), out);
                }
            }
            Command::Range { start, count } => {
                encode_array_header(3, out);
                encode_bulk(Some(b"RANGE"), out);
                encode_decimal_bulk(*start, out);
                encode_decimal_bulk(*count, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmd::parse_command;
    use crate::resp::Decoder;
    use rand::SeedableRng;

    #[test]
    fn schedule_is_sorted_and_seed_stable() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = build_schedule(100, 3, 1_000_000, &mut rng);
        assert_eq!(a.len(), 300);
        assert!(a.windows(2).all(|w| (w[0].at, w[0].conn) <= (w[1].at, w[1].conn)));
        let mut rng2 = StdRng::seed_from_u64(7);
        let b = build_schedule(100, 3, 1_000_000, &mut rng2);
        assert!(a.iter().zip(&b).all(|(x, y)| (x.at, x.conn) == (y.at, y.conn)));
    }

    #[test]
    fn generated_commands_survive_their_own_encoding() {
        let mut gen = Generator::new(1, 4, 512, LoadMix::Balanced, LoadSkew::Zipfian, 64);
        let mut rng = StdRng::seed_from_u64(42);
        let mut d = Decoder::new();
        for _ in 0..500 {
            let cmd = gen.next_command(&mut rng);
            let mut wire = Vec::new();
            gen.encode(&cmd, &mut rng, &mut wire);
            d.feed(&wire);
            let frame = d.next_frame().expect("valid").expect("complete");
            assert_eq!(parse_command(&frame), Ok(cmd));
        }
        assert_eq!(d.buffered(), 0);
    }

    #[test]
    fn writes_stay_in_the_rank_slice_and_values_are_unique() {
        let keys_per_rank = 256u64;
        let mut gen =
            Generator::new(2, 4, keys_per_rank, LoadMix::WriteHeavy, LoadSkew::Uniform, 32);
        let mut rng = StdRng::seed_from_u64(9);
        let mut values = std::collections::HashSet::new();
        for _ in 0..2000 {
            match gen.next_command(&mut rng) {
                Command::Set { key, value } => {
                    let idx: u64 = String::from_utf8_lossy(&key[4..]).parse().expect("ordered key");
                    assert!((512..768).contains(&idx), "write outside rank slice: {idx}");
                    assert!(values.insert(value), "duplicate written value");
                }
                Command::MSet { pairs } => {
                    for (key, value) in pairs {
                        let idx: u64 =
                            String::from_utf8_lossy(&key[4..]).parse().expect("ordered key");
                        assert!((512..768).contains(&idx));
                        assert!(values.insert(value));
                    }
                }
                _ => {}
            }
        }
        assert!(!values.is_empty());
    }
}
