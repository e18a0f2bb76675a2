//! `--seed-bug`: plant known violations into an in-memory copy of the
//! workspace and demand that the analyses convict every one of them.
//!
//! This is the same N/N-convicted self-test pattern the modelcheck, chaos,
//! and perfline planes use: a checker that has never caught a planted bug
//! is indistinguishable from a checker that is broken. Patches are
//! anchored to exact source text and fail loudly when the anchor drifts,
//! so a refactor cannot silently turn a seed into a no-op.
//!
//! The checkout is never modified — seeds patch a clone of the
//! [`SourceTree`] snapshot.

use crate::report::Finding;
use crate::{analysis, rules, SourceTree};

/// One planted violation: anchored patches plus the conviction predicate.
pub struct Seed {
    pub description: &'static str,
    /// (relative path, anchor text, replacement text), applied in order.
    pub patches: &'static [(&'static str, &'static str, &'static str)],
    /// Rule that must convict.
    pub rule: &'static str,
    /// Substring that must appear in the convicting finding's text.
    pub expect: &'static str,
    /// File the convicting finding must point into.
    pub file: &'static str,
}

/// Every planted violation, by `--seed-bug` name.
pub const SEEDS: &[(&str, Seed)] = &[
    ("panic-direct-entry", Seed {
        description: "unwrap planted directly in request (protocol entry fn)",
        patches: &[(
            "crates/core/src/runtime.rs",
            "ctx.comm_req.send(owner, req_tag, encode(seq));",
            "ctx.comm_req.send(owner, req_tag, encode(seq)); let _seed = None::<u32>.unwrap();",
        )],
        rule: "panic-path",
        expect: "_seed",
        file: "crates/core/src/runtime.rs",
    }),
    ("panic-transitive-sstable", Seed {
        description: "unwrap planted in the SSData record codec (record_at), below every \
                      SstReader search and scan, reachable via the get path",
        patches: &[(
            "crates/core/src/sstable.rs",
            "let tombstone = header[8] != 0;",
            "let tombstone = *header.get(8).unwrap() != 0;",
        )],
        rule: "panic-path",
        expect: "header.get(8)",
        file: "crates/core/src/sstable.rs",
    }),
    ("panic-macro-recovery", Seed {
        description: "panic! planted in ckpt::checkpoint (recovery entry fn)",
        patches: &[(
            "crates/core/src/ckpt.rs",
            "let dest = dest.trim_matches('/').to_string();",
            "let dest = dest.trim_matches('/').to_string(); \
             if dest.len() > 65536 { panic!(\"checkpoint path overflow\") }",
        )],
        rule: "panic-path",
        expect: "panic-family macro",
        file: "crates/core/src/ckpt.rs",
    }),
    ("blocking-direct-barrier", Seed {
        description: "collective barrier planted under db.sync mutex guard",
        patches: &[(
            "crates/core/src/write.rs",
            "\n    sync.pending_flushes -= 1;",
            "\n    ctx.comm_ctl.barrier();\n    sync.pending_flushes -= 1;",
        )],
        rule: "blocking-under-lock",
        expect: "guard `sync`",
        file: "crates/core/src/write.rs",
    }),
    ("blocking-transitive-merge", Seed {
        description: "a freeze (which parks on the flush-queue slot count, several hops \
                      down) planted under the stack write guard of the compaction swap",
        patches: &[(
            "crates/core/src/write.rs",
            "        let mut stack = db.stack.write();\n        stack.replace_newest(take, merged);",
            "        let mut stack = db.stack.write();\n        freeze(ctx, db, Side::Local, stamp);\n        \
             stack.replace_newest(take, merged);",
        )],
        rule: "blocking-under-lock",
        expect: "guard `stack`",
        file: "crates/core/src/write.rs",
    }),
    ("tag-sent-unhandled", Seed {
        description: "ZOMBIE tag declared and sent, but no handler arm awaits it",
        patches: &[
            (
                "crates/core/src/msg.rs",
                "pub const MIGRATE: u32 = 1;",
                "pub const MIGRATE: u32 = 1;\n    pub const ZOMBIE: u32 = 90;",
            ),
            (
                "crates/core/src/runtime.rs",
                "ctx.comm_rep.send_at(src, tags::PUT_ACK, msg::encode_ack(seq), done);",
                "ctx.comm_rep.send_at(src, tags::PUT_ACK, msg::encode_ack(seq), done);\n    \
                 ctx.comm_rep.send_at(src, tags::ZOMBIE, msg::encode_ack(seq), done);",
            ),
        ],
        rule: "tag-matrix",
        expect: "tag `ZOMBIE`",
        file: "crates/core/src/runtime.rs",
    }),
    ("tag-handled-never-sent", Seed {
        description: "GHOST tag declared with a handler arm, but no send site exists",
        patches: &[
            (
                "crates/core/src/msg.rs",
                "pub const SHUTDOWN: u32 = 5;",
                "pub const SHUTDOWN: u32 = 5;\n    pub const GHOST: u32 = 91;",
            ),
            (
                "crates/core/src/runtime.rs",
                "tags::SHUTDOWN => return Slice::Exit,",
                "tags::SHUTDOWN => return Slice::Exit,\n        tags::GHOST => return Slice::Exit,",
            ),
        ],
        rule: "tag-matrix",
        expect: "tag `GHOST`",
        file: "crates/core/src/runtime.rs",
    }),
    ("tag-duplicate-value", Seed {
        description: "ALIAS_PUT declared with PUT_SYNC's value — monitor channels would alias",
        patches: &[(
            "crates/core/src/msg.rs",
            "pub const PUT_SYNC: u32 = 2;",
            "pub const PUT_SYNC: u32 = 2;\n    pub const ALIAS_PUT: u32 = 2;",
        )],
        rule: "tag-matrix",
        expect: "duplicate tag value 2",
        file: "crates/core/src/msg.rs",
    }),
    ("atomic-unpaired-release", Seed {
        description: "Resource::busy_until's Acquire load and the CAS's acquire half weakened, \
                      orphaning the Release publication stores",
        patches: &[
            (
                "crates/simtime/src/resource.rs",
                "self.busy_until.load(Ordering::Acquire)",
                "self.busy_until.load(Ordering::Relaxed)",
            ),
            ("crates/simtime/src/resource.rs", "Ordering::AcqRel,", "Ordering::Release,"),
        ],
        rule: "atomic-pairing",
        expect: "no Acquire-side load of `busy_until`",
        file: "crates/simtime/src/resource.rs",
    }),
    ("atomic-acquire-no-release", Seed {
        description: "Clock's AcqRel RMWs weakened to Relaxed — now() acquires from nothing",
        patches: &[
            (
                "crates/simtime/src/clock.rs",
                "self.now.fetch_add(dur, Ordering::AcqRel) + dur",
                "self.now.fetch_add(dur, Ordering::Relaxed) + dur",
            ),
            (
                "crates/simtime/src/clock.rs",
                "self.now.fetch_max(t, Ordering::AcqRel).max(t)",
                "self.now.fetch_max(t, Ordering::Relaxed).max(t)",
            ),
        ],
        rule: "atomic-pairing",
        expect: "every store to `now` is Relaxed",
        file: "crates/simtime/src/clock.rs",
    }),
    ("raw-thread-helper", Seed {
        description: "a runtime helper spawned as a raw OS thread, not a task of the world",
        patches: &[(
            "crates/core/src/runtime.rs",
            "inner.rank.spawn(format!(\"pkv-{what}-{}\", inner.rank.rank()), move || body(ctx))",
            "std::thread::spawn(move || body(ctx))",
        )],
        rule: "raw-thread",
        expect: "std::thread::spawn",
        file: "crates/core/src/runtime.rs",
    }),
    ("wall-clock-watchdog", Seed {
        description: "chaos' wall-clock watchdog planted back: a schedule judged by a \
                      recv_timeout, not by its world's verdict",
        patches: &[(
            "crates/chaos/src/sweep.rs",
            "let oracle = Arc::new(ChaosOracle::new());",
            "let oracle = Arc::new(ChaosOracle::new()); \
             let (_tx, rx) = std::sync::mpsc::channel::<()>(); \
             let _ = rx.recv_timeout(std::time::Duration::from_secs(60));",
        )],
        rule: "real-time",
        expect: "recv_timeout",
        file: "crates/chaos/src/sweep.rs",
    }),
    ("inline-put-sync", Seed {
        description: "PUT_SYNC dropped from the handler's parking arms: its ingest can wait \
                      for a flush-queue slot on the thread that lent itself to the handler",
        patches: &[(
            "crates/core/src/runtime.rs",
            "&[tags::MIGRATE, tags::PUT_SYNC, tags::REPL_GET]",
            "&[tags::MIGRATE, tags::REPL_GET]",
        )],
        rule: "inline-park",
        expect: "arm `PUT_SYNC`",
        file: "crates/core/src/runtime.rs",
    }),
    ("atomic-ptr-relaxed", Seed {
        description: "AtomicPtr published with Relaxed ordering",
        patches: &[(
            "crates/core/src/runtime.rs",
            "self.inner.comm_sig.send(r, signum, bytes::Bytes::new());",
            "self.inner.comm_sig.send(r, signum, bytes::Bytes::new()); \
             let hot: AtomicPtr<u8> = AtomicPtr::new(std::ptr::null_mut()); \
             hot.store(sig_ptr, Ordering::Relaxed);",
        )],
        rule: "atomic-pairing",
        expect: "AtomicPtr field `hot`",
        file: "crates/core/src/runtime.rs",
    }),
];

/// Plant one seed into a clone of `base` and run the full pass (token
/// rules + deep analyses) over the patched tree: `Ok` carries the convicting
/// finding, `Err` why there is none (a drifted anchor included).
pub fn run_one(base: &SourceTree, seed: &Seed) -> Result<String, String> {
    let mut tree = base.clone();
    for (rel, anchor, replacement) in seed.patches {
        tree.patch(rel, anchor, replacement)?;
    }
    let mut findings = rules::run_rules(&tree);
    findings.extend(analysis::run_deep(&tree));
    let hit: Option<&Finding> = findings
        .iter()
        .find(|f| f.rule == seed.rule && f.path == seed.file && f.text.contains(seed.expect));
    hit.map(Finding::render).ok_or_else(|| {
        format!(
            "expected a `{}` finding in {} containing {:?}; got {} finding(s) total",
            seed.rule,
            seed.file,
            seed.expect,
            findings.len()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Every planted violation must be convicted by its analysis — and the
    /// anchors must still match the live sources (drift fails loudly).
    #[test]
    fn all_seeds_convict() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().parent().unwrap();
        let base = SourceTree::load(root);
        let missed: Vec<String> = SEEDS
            .iter()
            .filter_map(|(id, seed)| run_one(&base, seed).err().map(|why| format!("{id}: {why}")))
            .collect();
        assert!(
            missed.is_empty(),
            "{}/{} seeds convicted; missed:\n{}",
            SEEDS.len() - missed.len(),
            SEEDS.len(),
            missed.join("\n")
        );
    }

    /// Seed ids are unique — `--seed-bug <id>` must be unambiguous.
    #[test]
    fn seed_ids_unique() {
        let mut ids: Vec<&str> = SEEDS.iter().map(|(id, _)| *id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), SEEDS.len());
    }
}
