//! The per-rank serving window: sharded dispatch, group commit, and the
//! two built-in correctness oracles.
//!
//! # Determinism
//!
//! The serve plane measures a network server under 10k+ concurrent
//! connections, yet must produce bit-identical numbers for a given seed.
//! Every rank serves its window at once, as in the paper, where each rank
//! is a server to its clients and, through its message handler, storage to
//! its peers. The determinism comes from the world's scheduler: one task
//! runs at a time, handing over in virtual-time order, so every submission
//! to a shared simtime resource (NIC, backbone, NVM) lands in an order the
//! seed fixes. Arrivals are scheduled relative to window start `t0`, and
//! every reported number is a delta (`ack - arrival`, `t1 - t0`) or a
//! count.
//!
//! # Group commit
//!
//! Writes are not applied at decode time. Dispatch hashes each write to
//! its owner shard (`db.owner_of`, so the shard map IS the remote
//! routing map) and queues it. Each wakeup the worker drains the whole
//! backlog: per shard it folds duplicate keys last-writer-wins into one
//! batch, applies the batch as relaxed puts, then issues a *single*
//! [`papyruskv::Db::fence`] for the round and only then acks every
//! queued client. Acked ⇒ durable rides the engine's `BARRIER_MARK`
//! proof: after the fence a record has left the staging MemTables and
//! been ingested by its owner. Reads are executed inline at decode time
//! through a read-through overlay of the still-queued writes, preserving
//! per-connection command order without waiting for the fence.
//!
//! # Visits
//!
//! A pass of the window loop visits only the connections that have work:
//! those with unread bytes (listed when a burst lands on an idle wire) and
//! those whose front reply is ready (listed when the front slot fills).
//! Each list is visited in connection order, as a scan of every
//! connection would, so idle connections cost nothing and change nothing.
//!
//! # Oracles
//!
//! - **Durability**: at every write ack, remote-shard keys of the round
//!   must no longer be staged ([`papyruskv::Db::staged_remote_contains`]).
//!   The planted [`SeedBug::AckBeforeFence`] moves ack (and the probe)
//!   ahead of the fence and is convicted here.
//! - **Read-your-writes**: the window records every write's client-
//!   intended value at *enqueue* time (never the applied value); after
//!   the drain, every written key is read back and must match the last
//!   intent. The planted [`SeedBug::DroppedWrite`] folds duplicates
//!   first-writer-wins and is convicted here.
//! - **Protocol**: a loadgen-side decoder consumes every reply off the
//!   wire and checks shape and order against the issued commands.
//!
//! # Copies
//!
//! A command's keys and values are [`Bytes`] slices of the buffer its
//! connection's decoder received them in, from the frame through the shard
//! queues, the overlay and the oracle's intent map to the commit round;
//! `Db::put` makes the one copy the store keeps. A read copies the value
//! `Db::get_opt` returned only into its reply.

use std::collections::{BTreeMap, HashMap, VecDeque};

use bytes::Bytes;
use papyrus_bench::workload::ordered_key;
use papyrus_simtime::MemModel;
use papyruskv::{Context, Db};
use rand::rngs::StdRng;

use crate::cmd::{encode_reply, parse_command, Command, Reply};
use crate::loadgen::{build_schedule, Generator};
use crate::resp::{Decoder, Frame};
use crate::tel::ServeTel;
use crate::{SeedBug, ServeCfg};

/// Bytes the server reads from one connection per poll visit; small
/// enough that pipelined bursts span visits, forcing partial-frame
/// resumption on the hot path.
const READ_CHUNK: usize = 512;

/// One simulated client connection and its server-side state.
struct Conn {
    /// Bytes the client has "sent" and the server has not read all of;
    /// `read_off` marks how far the server has consumed them.
    wire_in: Vec<u8>,
    read_off: usize,
    /// Server-side incremental decoder.
    dec: Decoder,
    /// In-order reply slots; a slot is flushed only once filled and at
    /// the queue front (pipelined replies never reorder).
    slots: VecDeque<Slot>,
    slot_base: u64,
    /// Arrival stamp per not-yet-decoded command, FIFO.
    stamps: VecDeque<u64>,
    /// Client-side reply expectations, FIFO.
    expected: VecDeque<Expect>,
    /// Client-side decoder draining the server's reply bytes.
    client_dec: Decoder,
}

impl Conn {
    fn new() -> Self {
        Self {
            wire_in: Vec::new(),
            read_off: 0,
            dec: Decoder::new(),
            slots: VecDeque::new(),
            slot_base: 0,
            stamps: VecDeque::new(),
            expected: VecDeque::new(),
            client_dec: Decoder::new(),
        }
    }

    fn drained(&self) -> bool {
        self.read_off == self.wire_in.len()
            && self.dec.buffered() == 0
            && self.slots.is_empty()
            && self.expected.is_empty()
    }
}

/// A reply slot. Reads fill immediately; writes fill when their last
/// part is acked after the group-commit fence.
struct Slot {
    reply: Option<Reply>,
    /// Store ops still pending before this slot's reply exists (MSET
    /// spans shards; SET/DEL have one part; reads have zero).
    parts_left: u32,
    /// What to reply once parts_left reaches zero.
    on_complete: Reply,
    arrival: u64,
}

/// One queued write: the shard index is the queue it sits in.
struct WriteOp {
    key: Bytes,
    /// `None` is a DEL tombstone.
    val: Option<Bytes>,
    conn: u32,
    slot: u64,
}

/// Client-side reply shape expectation (the protocol oracle).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    Ok,
    Pong,
    /// Exact integer (DEL always answers 1).
    Int(i64),
    /// 0-or-1 integer (EXISTS).
    Bool,
    BulkAny,
    ArrLen(usize),
}

fn expect_of(cmd: &Command) -> Expect {
    match cmd {
        Command::Ping => Expect::Pong,
        Command::Info => Expect::BulkAny,
        Command::Get { .. } => Expect::BulkAny,
        Command::Set { .. } | Command::MSet { .. } => Expect::Ok,
        Command::Del { .. } => Expect::Int(1),
        Command::Exists { .. } => Expect::Bool,
        Command::MGet { keys } => Expect::ArrLen(keys.len()),
        Command::Range { count, .. } => Expect::ArrLen(*count as usize),
    }
}

/// Whether a reply frame has the shape `expect` asks for.
fn reply_matches(expect: Expect, frame: &Frame) -> bool {
    match (expect, frame) {
        (Expect::Ok, Frame::Simple(s)) => &s[..] == b"OK",
        (Expect::Pong, Frame::Simple(s)) => &s[..] == b"PONG",
        (Expect::Int(n), Frame::Integer(m)) => n == *m,
        (Expect::Bool, Frame::Integer(m)) => *m == 0 || *m == 1,
        (Expect::BulkAny, Frame::Bulk(_)) => true,
        (Expect::ArrLen(n), Frame::Array(Some(items))) => {
            items.len() == n && items.iter().all(|item| matches!(item, Frame::Bulk(_)))
        }
        _ => false,
    }
}

/// Raw per-window measurement, returned from each rank's window. All
/// quantities are deltas or counts — nothing absolute — so identical
/// seeds produce identical stats bit for bit.
pub struct WindowStats {
    /// Serving rank.
    pub rank: usize,
    /// Connections served.
    pub conns: u32,
    /// Commands executed.
    pub cmds: u64,
    /// Store operations those commands expanded to.
    pub store_ops: u64,
    /// Write ops queued through group commit.
    pub writes: u64,
    /// Group-commit rounds that reached the store.
    pub batch_rounds: u64,
    /// Write ops drained across all rounds (mean batch = records/rounds).
    pub batch_records: u64,
    /// Duplicate-key folds (a later write coalesced onto an earlier one).
    pub folded_dups: u64,
    /// Poll visits that found readable bytes.
    pub polls: u64,
    /// Frames decoded across all polls.
    pub frames: u64,
    /// Window serving time (drain end − window start), virtual ns.
    pub elapsed_ns: u64,
    /// Per-request latency samples, arrival→ack, by command class.
    pub lat_read: Vec<u64>,
    /// SET/DEL/MSET latencies (acked only after the fence).
    pub lat_write: Vec<u64>,
    /// PING/INFO latencies.
    pub lat_admin: Vec<u64>,
    /// Durability-oracle violations (staged-at-ack).
    pub durability_violations: u64,
    /// Read-your-writes sweep mismatches.
    pub ryw_violations: u64,
    /// Reply shape/order mismatches seen by the client decoder.
    pub protocol_violations: u64,
    /// First violation, for the report.
    pub violation_example: Option<String>,
}

/// Serve one rank's window: all of this rank's simulated connections,
/// open-loop, until every burst is delivered, decoded, committed, acked,
/// and read back by the client decoders.
pub fn serve_window(
    ctx: &Context,
    db: &Db,
    cfg: &ServeCfg,
    mem: &MemModel,
    rng: &mut StdRng,
) -> WindowStats {
    Window::new(ctx, db, cfg, mem).run(rng)
}

struct Window<'a> {
    ctx: &'a Context,
    db: &'a Db,
    cfg: &'a ServeCfg,
    mem: &'a MemModel,
    tel: ServeTel,
    rank: usize,
    t0: u64,
    conns: Vec<Conn>,
    /// Connections with unread bytes, each once.
    readable: Vec<u32>,
    /// Connections whose front reply slot is filled, each once.
    flushable: Vec<u32>,
    /// Commands delivered whose reply the client has not decoded yet.
    unanswered: u64,
    /// The reply bytes of one flush; reused.
    reply_buf: Vec<u8>,
    /// Shard-indexed dispatch queues (shard == owner rank).
    shards: Vec<VecDeque<WriteOp>>,
    /// Read-through overlay of queued-but-unapplied writes; cleared each
    /// commit round once the batch is applied.
    overlay: HashMap<Bytes, Option<Bytes>>,
    /// The oracle's intent map: last client-intended value per written
    /// key, recorded at enqueue time. BTreeMap so the final sweep walks
    /// keys in a deterministic order.
    intent: BTreeMap<Bytes, Option<Bytes>>,
    /// The commit round's lists, kept for the next round.
    round: Round,
    stats: WindowStats,
}

/// What one commit round collects, emptied at its end.
#[derive(Default)]
struct Round {
    /// `(conn, slot)` of every write drained.
    acks: Vec<(u32, u64)>,
    /// Keys of the round owned by another rank.
    remote_keys: Vec<Bytes>,
    /// One shard's folded batch, in first-write order.
    entries: Vec<(Bytes, Option<Bytes>)>,
    /// Where each key of `entries` is.
    index: HashMap<Bytes, usize>,
}

#[allow(
    clippy::indexing_slicing,
    reason = "a connection index is below conns.len() and a shard below shards.len(); \
              neither shrinks during a window"
)]
impl<'a> Window<'a> {
    fn new(ctx: &'a Context, db: &'a Db, cfg: &'a ServeCfg, mem: &'a MemModel) -> Self {
        let rank = ctx.rank();
        let tel = ServeTel::new(ctx.telemetry(), rank);
        if tel.on() {
            tel.conns.add(cfg.conns_per_rank as u64);
        }
        Self {
            ctx,
            db,
            cfg,
            mem,
            tel,
            rank,
            t0: ctx.now(),
            conns: (0..cfg.conns_per_rank).map(|_| Conn::new()).collect(),
            readable: Vec::new(),
            flushable: Vec::new(),
            unanswered: 0,
            reply_buf: Vec::new(),
            shards: (0..ctx.size()).map(|_| VecDeque::new()).collect(),
            overlay: HashMap::new(),
            intent: BTreeMap::new(),
            round: Round::default(),
            stats: WindowStats {
                rank,
                conns: cfg.conns_per_rank,
                cmds: 0,
                store_ops: 0,
                writes: 0,
                batch_rounds: 0,
                batch_records: 0,
                folded_dups: 0,
                polls: 0,
                frames: 0,
                elapsed_ns: 0,
                lat_read: Vec::new(),
                lat_write: Vec::new(),
                lat_admin: Vec::new(),
                durability_violations: 0,
                ryw_violations: 0,
                protocol_violations: 0,
                violation_example: None,
            },
        }
    }

    fn violation(&mut self, kind: &str, detail: String) {
        match kind {
            "durability" => self.stats.durability_violations += 1,
            "ryw" => self.stats.ryw_violations += 1,
            _ => self.stats.protocol_violations += 1,
        }
        if self.stats.violation_example.is_none() {
            self.stats.violation_example = Some(format!("rank {} {kind}: {detail}", self.rank));
        }
    }

    fn run(mut self, rng: &mut StdRng) -> WindowStats {
        let duration_ns = self.cfg.duration_ms * 1_000_000;
        let schedule = build_schedule(self.cfg.conns_per_rank, self.cfg.bursts, duration_ns, rng);
        let mut gen = Generator::new(
            self.rank,
            self.ctx.size(),
            self.cfg.keys_per_rank,
            self.cfg.mix,
            self.cfg.skew,
            self.cfg.vallen,
        );
        let mut next_arrival = 0usize;

        loop {
            let now = self.ctx.now();
            // Deliver every burst that has arrived by virtual now.
            let mut delivered = false;
            while next_arrival < schedule.len() && self.t0 + schedule[next_arrival].at <= now {
                let a = schedule[next_arrival];
                self.deliver_burst(a.conn, self.t0 + a.at, &mut gen, rng);
                next_arrival += 1;
                delivered = true;
            }

            // Poll: one bounded chunk per readable connection, decode and
            // dispatch everything that completed.
            let any_read = self.poll_readable();

            // Group commit: drain the whole write backlog in one round.
            let committed = self.commit_round();

            // Flush in-order reply prefixes and run the client-side
            // protocol oracle over them.
            self.flush_ready();

            let arrivals_done = next_arrival >= schedule.len();
            if arrivals_done && self.unanswered == 0 && self.conns.iter().all(Conn::drained) {
                break;
            }
            if !delivered && !any_read && !committed {
                if arrivals_done {
                    // Nothing can make progress: account it rather than
                    // spinning forever.
                    self.violation("protocol", "window stalled before drain".into());
                    break;
                }
                // Idle: jump straight to the next arrival.
                let next = &schedule[next_arrival];
                self.ctx.clock().merge(self.t0 + next.at);
            }
        }
        self.stats.elapsed_ns = self.ctx.now().saturating_sub(self.t0);

        // Read-your-writes sweep: every written key must read back as its
        // last client-intended value (None = tombstone).
        let intent = std::mem::take(&mut self.intent);
        for (key, want) in &intent {
            let got = match self.db.get_opt(key) {
                Ok(v) => v,
                Err(e) => {
                    self.violation("ryw", format!("get {key:?} failed: {e:?}"));
                    continue;
                }
            };
            if got.as_deref() != want.as_deref() {
                let detail = format!(
                    "key {:?}: store has {:?}, last acked write was {:?}",
                    String::from_utf8_lossy(key),
                    got.as_deref().map(String::from_utf8_lossy),
                    want.as_deref().map(String::from_utf8_lossy),
                );
                self.violation("ryw", detail);
            }
        }
        self.stats
    }

    /// Emit one open-loop burst onto `conn`: `pipeline` commands encoded
    /// back to back, all stamped with the burst's arrival time.
    fn deliver_burst(&mut self, conn: u32, at: u64, gen: &mut Generator, rng: &mut StdRng) {
        let c = &mut self.conns[conn as usize];
        if c.read_off == c.wire_in.len() {
            self.readable.push(conn);
        }
        for _ in 0..self.cfg.pipeline {
            let cmd = gen.next_command(rng);
            gen.encode(&cmd, rng, &mut c.wire_in);
            c.stamps.push_back(at);
            c.expected.push_back(expect_of(&cmd));
        }
        self.unanswered += u64::from(self.cfg.pipeline);
    }

    /// Poll every readable connection once, in connection order; returns
    /// whether there was any.
    fn poll_readable(&mut self) -> bool {
        let mut readable = std::mem::take(&mut self.readable);
        readable.sort_unstable();
        for &c in &readable {
            self.poll_conn(c as usize);
        }
        let any = !readable.is_empty();
        readable.retain(|&c| {
            let conn = &self.conns[c as usize];
            conn.read_off < conn.wire_in.len()
        });
        self.readable = readable;
        any
    }

    /// Read one bounded chunk from readable connection `c` and execute
    /// every command that completed.
    fn poll_conn(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let take = (conn.wire_in.len() - conn.read_off).min(READ_CHUNK);
        conn.dec.feed(&conn.wire_in[conn.read_off..conn.read_off + take]);
        conn.read_off += take;
        if conn.read_off == conn.wire_in.len() {
            // Read to the end: the next burst starts the buffer again.
            conn.wire_in.clear();
            conn.read_off = 0;
        }
        // Charge the copy from the (modelled) socket into server memory.
        self.ctx.clock().advance(self.mem.op_ns(take as u64));

        let mut frames = 0u64;
        loop {
            let frame = match self.conns[c].dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(e) => {
                    // Loadgen only emits well-formed frames; a decode
                    // error here is a server-side bug.
                    self.violation("protocol", format!("server decode error: {e}"));
                    break;
                }
            };
            frames += 1;
            self.dispatch(c, &frame);
        }
        if frames > 0 {
            self.stats.polls += 1;
            self.stats.frames += frames;
            if self.tel.on() {
                self.tel.polls.inc();
                self.tel.pipeline_depth.add(frames);
            }
        }
    }

    /// Read a key through the overlay of queued writes, then the store.
    fn read_key(&mut self, key: &[u8]) -> Option<Bytes> {
        if let Some(v) = self.overlay.get(key) {
            return v.clone();
        }
        match self.db.get_opt(key) {
            Ok(v) => v,
            Err(e) => {
                self.violation("protocol", format!("store read failed: {e:?}"));
                None
            }
        }
    }

    /// Execute one decoded frame: reads inline, writes onto the shard
    /// queues, admin immediately.
    fn dispatch(&mut self, c: usize, frame: &Frame) {
        let arrival = self.conns[c].stamps.pop_front().unwrap_or(self.t0);
        let cmd = match parse_command(frame) {
            Ok(cmd) => cmd,
            Err(e) => {
                // Unreachable under loadgen traffic, but the server path
                // exists: reply -ERR in order.
                if self.tel.on() {
                    self.tel.errors.inc();
                }
                self.push_filled(c, Reply::Err(e.to_string()), arrival);
                return;
            }
        };
        self.stats.cmds += 1;
        self.stats.store_ops += crate::cmd::op_count(&cmd);
        if self.tel.on() {
            self.tel.cmds.inc();
        }
        let now = self.ctx.now();
        match cmd {
            Command::Ping => {
                self.ack_admin(now, arrival);
                self.push_filled(c, Reply::Pong, arrival);
            }
            Command::Info => {
                let text = format!(
                    "serve_version:1\nrank:{}\nconns:{}\ncmds:{}",
                    self.rank, self.stats.conns, self.stats.cmds
                );
                self.ack_admin(now, arrival);
                self.push_filled(c, Reply::Info(text), arrival);
            }
            Command::Get { key } => {
                let v = self.read_key(&key).map(|v| v.to_vec());
                self.ack_read(now, arrival);
                self.push_filled(c, Reply::Bulk(v), arrival);
            }
            Command::Exists { key } => {
                let found = self.read_key(&key).is_some();
                self.ack_read(now, arrival);
                self.push_filled(c, Reply::Int(found as i64), arrival);
            }
            Command::MGet { keys } => {
                let items = keys.iter().map(|k| self.read_key(k).map(|v| v.to_vec())).collect();
                self.ack_read(now, arrival);
                self.push_filled(c, Reply::Arr(items), arrival);
            }
            Command::Range { start, count } => {
                let items = (start..start.saturating_add(count))
                    .map(|i| self.read_key(&ordered_key(i)).map(|v| v.to_vec()))
                    .collect();
                self.ack_read(now, arrival);
                self.push_filled(c, Reply::Arr(items), arrival);
            }
            Command::Set { key, value } => {
                self.enqueue_write(c, arrival, Reply::Ok, std::iter::once((key, Some(value))));
            }
            Command::Del { key } => {
                self.enqueue_write(c, arrival, Reply::Int(1), std::iter::once((key, None)));
            }
            Command::MSet { pairs } => {
                let ops = pairs.into_iter().map(|(k, v)| (k, Some(v)));
                self.enqueue_write(c, arrival, Reply::Ok, ops);
            }
        }
    }

    fn ack_read(&mut self, now: u64, arrival: u64) {
        let lat = now.saturating_sub(arrival);
        self.stats.lat_read.push(lat);
        if self.tel.on() {
            self.tel.req_ns.record(lat);
            self.tel.req_read_ns.record(lat);
        }
    }

    fn ack_admin(&mut self, now: u64, arrival: u64) {
        let lat = now.saturating_sub(arrival);
        self.stats.lat_admin.push(lat);
        if self.tel.on() {
            self.tel.req_ns.record(lat);
        }
    }

    /// Queue a reply that is ready now. A connection whose front slot it
    /// is becomes flushable.
    fn push_filled(&mut self, c: usize, reply: Reply, arrival: u64) {
        let conn = &mut self.conns[c];
        if conn.slots.is_empty() {
            self.flushable.push(c as u32);
        }
        conn.slots.push_back(Slot {
            reply: Some(reply),
            parts_left: 0,
            on_complete: Reply::Ok,
            arrival,
        });
    }

    /// Queue a write command's ops onto their owner shards; the reply
    /// slot completes when every part is acked post-fence.
    fn enqueue_write(
        &mut self,
        c: usize,
        arrival: u64,
        on_complete: Reply,
        ops: impl ExactSizeIterator<Item = (Bytes, Option<Bytes>)>,
    ) {
        let conn = &mut self.conns[c];
        let slot_id = conn.slot_base + conn.slots.len() as u64;
        conn.slots.push_back(Slot {
            reply: None,
            parts_left: ops.len() as u32,
            on_complete,
            arrival,
        });
        for (key, val) in ops {
            self.stats.writes += 1;
            let shard = self.db.owner_of(&key);
            // Intent is the CLIENT's value, recorded before any folding —
            // the read-your-writes oracle compares the store against this.
            self.intent.insert(key.clone(), val.clone());
            self.overlay.insert(key.clone(), val.clone());
            self.shards[shard].push_back(WriteOp { key, val, conn: c as u32, slot: slot_id });
        }
    }

    /// One group-commit round: drain every shard queue, fold duplicate
    /// keys last-writer-wins, apply each shard's batch as relaxed puts,
    /// fence ONCE for the whole round, then ack every drained client.
    /// Returns whether any work was done.
    fn commit_round(&mut self) -> bool {
        if self.shards.iter().all(VecDeque::is_empty) {
            return false;
        }
        let me = self.rank;
        let mut round = std::mem::take(&mut self.round);
        let mut records = 0u64;
        for shard in 0..self.shards.len() {
            let mut queue = std::mem::take(&mut self.shards[shard]);
            // Fold: one batch entry per key; later writes to the same key
            // replace the earlier value (last-writer-wins), every drained
            // op still gets its ack.
            for op in queue.drain(..) {
                records += 1;
                match round.index.get(&op.key) {
                    Some(&i) => {
                        self.stats.folded_dups += 1;
                        if self.tel.on() {
                            self.tel.folded_dups.inc();
                        }
                        // SEEDED BUG (dropped-write): keep the FIRST value
                        // instead of the last — the later client write
                        // silently vanishes from the batch. Convicted by
                        // the read-your-writes sweep.
                        if self.cfg.seed_bug != Some(SeedBug::DroppedWrite) {
                            round.entries[i].1 = op.val;
                        }
                    }
                    None => {
                        round.index.insert(op.key.clone(), round.entries.len());
                        round.entries.push((op.key, op.val));
                    }
                }
                round.acks.push((op.conn, op.slot));
            }
            self.shards[shard] = queue;
            // Apply the folded batch in insertion order (the Vec is the
            // order authority; the index map is lookup only).
            for (key, val) in &round.entries {
                let r = match val {
                    Some(v) => self.db.put(key, v),
                    None => self.db.delete(key),
                };
                if let Err(e) = r {
                    self.violation("protocol", format!("batch apply failed: {e:?}"));
                }
            }
            round.index.clear();
            if shard == me {
                round.entries.clear();
            } else {
                round.remote_keys.extend(round.entries.drain(..).map(|(k, _)| k));
            }
        }
        // The batch is applied: queued writes are now visible through the
        // store itself, the overlay's job is done.
        self.overlay.clear();
        self.stats.batch_rounds += 1;
        self.stats.batch_records += records;
        if self.tel.on() {
            self.tel.batch_count.inc();
            self.tel.batch_size.add(records);
        }

        if self.cfg.seed_bug == Some(SeedBug::AckBeforeFence) {
            // SEEDED BUG (ack-before-fence): clients are acked while the
            // round's remote writes are still in the staging MemTables —
            // an NVM loss window the durability oracle convicts.
            self.ack_round(&round);
            if let Err(e) = self.db.fence() {
                self.violation("protocol", format!("fence failed: {e:?}"));
            }
        } else {
            if let Err(e) = self.db.fence() {
                self.violation("protocol", format!("fence failed: {e:?}"));
            }
            self.ack_round(&round);
        }
        round.acks.clear();
        round.remote_keys.clear();
        self.round = round;
        true
    }

    /// Ack every write drained this round. The durability oracle runs
    /// here, AT ack time: any remote-shard key of the round still staged
    /// means an acked client could lose its write.
    fn ack_round(&mut self, round: &Round) {
        for key in &round.remote_keys {
            if self.db.staged_remote_contains(key) {
                let detail = format!(
                    "acking write of {:?} while it is still staged (not yet owner-ingested)",
                    String::from_utf8_lossy(key)
                );
                self.violation("durability", detail);
            }
        }
        let now = self.ctx.now();
        for &(conn, slot) in &round.acks {
            let c = &mut self.conns[conn as usize];
            let idx = (slot - c.slot_base) as usize;
            let Some(s) = c.slots.get_mut(idx) else { continue };
            s.parts_left = s.parts_left.saturating_sub(1);
            if s.parts_left == 0 && s.reply.is_none() {
                s.reply = Some(s.on_complete.clone());
                // The front slot filled: its connection has replies to flush.
                if idx == 0 {
                    self.flushable.push(conn);
                }
                let lat = now.saturating_sub(s.arrival);
                self.stats.lat_write.push(lat);
                if self.tel.on() {
                    self.tel.req_ns.record(lat);
                    self.tel.req_write_ns.record(lat);
                }
            }
        }
    }

    /// Flush every flushable connection, in connection order.
    fn flush_ready(&mut self) {
        let mut ready = std::mem::take(&mut self.flushable);
        ready.sort_unstable();
        for &c in &ready {
            self.flush_conn(c as usize);
        }
        ready.clear();
        self.flushable = ready;
    }

    /// Flush the filled prefix of `c`'s reply queue onto the wire and run
    /// the client-side protocol oracle over the bytes.
    fn flush_conn(&mut self, c: usize) {
        let conn = &mut self.conns[c];
        let out = &mut self.reply_buf;
        out.clear();
        while let Some(front) = conn.slots.front() {
            let Some(reply) = &front.reply else { break };
            encode_reply(reply, out);
            conn.slots.pop_front();
            conn.slot_base += 1;
        }
        // Charge the reply copy out of server memory.
        self.ctx.clock().advance(self.mem.op_ns(out.len() as u64));
        conn.client_dec.feed(out);
        loop {
            match self.conns[c].client_dec.next_frame() {
                Ok(Some(frame)) => {
                    let conn = &mut self.conns[c];
                    let Some(expect) = conn.expected.pop_front() else {
                        self.violation("protocol", "reply with no outstanding command".into());
                        continue;
                    };
                    self.unanswered -= 1;
                    if !reply_matches(expect, &frame) {
                        self.violation("protocol", format!("expected {expect:?}, got {frame:?}"));
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    self.violation("protocol", format!("client decode error: {e}"));
                    break;
                }
            }
        }
    }
}
