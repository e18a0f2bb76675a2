//! The one hash index of the store's in-memory tables, the MemTable's and
//! the cache's, each over its record log (`log.rs`). It holds no keys, as
//! FASTER's does not: each key already lies in its record.
//!
//! A [`Slot`] is 12 bytes: 32 bits of the key's hash ([`key_hash`]), its
//! record's place, and the table's tag. Probing is Robin Hood over a
//! power-of-two capacity at most 7/8 full: a slot whose hash matches has its
//! key checked where its record lies, and a miss stops at the first slot
//! nearer its home than the probe is to the key's. A table grows by
//! doubling, from [`FIRST_SLOTS`], each slot placed again by its stored hash
//! without reading a key. A MemTable never removes a slot (a freeze takes
//! the whole table); the cache removes one by shifting the slots after it
//! back toward their homes ([`Index::remove`]), so no slot is left marked
//! deleted and a miss still stops early.

use std::hash::{Hash, Hasher};

use crate::key::KeyHasher;

/// The place of no record, marking a vacant slot: a log never uses its last
/// chunk number.
pub(crate) const VACANT: u32 = u32::MAX;

/// Slots of an index's first table; each growth doubles them.
pub(crate) const FIRST_SLOTS: usize = 4;

/// The 32 bits of `key`'s [`KeyHasher`] hash that its slot keeps: the low
/// bits pick its home slot, and all of them screen the keys a probe checks.
pub(crate) fn key_hash(key: &[u8]) -> u32 {
    let mut hasher = KeyHasher::default();
    key.hash(&mut hasher);
    let hash = hasher.finish() as u32;
    #[cfg(test)]
    let hash = hash & tests::HASH_MASK.get();
    hash
}

/// What the index keeps of a key: its hash, its record's place (`at`), and
/// the table's tag — the rank a staging MemTable's record is bound for
/// (`memtable::NO_OWNER` in a local table), or the cache entry's number.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    pub(crate) hash: u32,
    pub(crate) at: u32,
    pub(crate) tag: u32,
}

impl Slot {
    pub(crate) const VACANT: Slot = Slot { hash: 0, at: VACANT, tag: VACANT };
}

/// Where a probe that found no match stopped: the slot a new key takes,
/// and how far that is from the key's home — one less than the slots the
/// probe read.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Vacancy {
    pub(crate) pos: usize,
    pub(crate) dist: usize,
}

/// Open addressing over a power-of-two count of slots, Robin Hood probing,
/// at most 7/8 full (module doc).
#[derive(Debug, Default)]
pub(crate) struct Index {
    pub(crate) slots: Vec<Slot>,
    pub(crate) len: usize,
}

impl Index {
    /// How far `pos` is past the home of a slot hashed `hash`, in a table
    /// of `mask + 1` slots.
    fn distance(pos: usize, hash: u32, mask: usize) -> usize {
        pos.wrapping_sub(hash as usize) & mask
    }

    /// The slot hashed `hash` that `matches` (a table's checks the key at
    /// its place), and what it found there, walking from its home while each
    /// slot is at least as far from its own home; else where the walk ended.
    #[inline]
    pub(crate) fn find<T>(
        &self,
        hash: u32,
        mut matches: impl FnMut(&Slot) -> Option<T>,
    ) -> Result<(usize, T), Vacancy> {
        let mask = self.slots.len().wrapping_sub(1);
        let (mut pos, mut dist) = (hash as usize & mask, 0);
        while let Some(slot) = self.slots.get(pos) {
            if slot.at == VACANT || Self::distance(pos, slot.hash, mask) < dist {
                break;
            }
            if slot.hash == hash {
                if let Some(found) = matches(slot) {
                    return Ok((pos, found));
                }
            }
            (pos, dist) = ((pos + 1) & mask, dist + 1);
        }
        Err(Vacancy { pos, dist })
    }

    /// The position of the slot hashed `hash` that `matches`: a probe that
    /// reads no record.
    pub(crate) fn position(&self, hash: u32, matches: impl Fn(&Slot) -> bool) -> Option<usize> {
        self.find(hash, |slot| matches(slot).then_some(())).ok().map(|(pos, ())| pos)
    }

    /// Where a new slot hashed `hash` goes: a probe that matches nothing
    /// ends at a vacancy.
    pub(crate) fn vacancy(&self, hash: u32) -> Vacancy {
        self.find(hash, |_| None::<()>).err().unwrap_or(Vacancy { pos: 0, dist: 0 })
    }

    /// Whether one more slot would fill the table past 7/8.
    pub(crate) fn is_full(&self) -> bool {
        (self.len + 1) * 8 > self.slots.len() * 7
    }

    /// Put `slot` where a probe for its key stopped: a slot there nearer
    /// its home than `slot` is to its own moves on, and the slot it
    /// displaces in turn, up to the first vacant one.
    fn place(&mut self, Vacancy { mut pos, mut dist }: Vacancy, mut slot: Slot) {
        let mask = self.slots.len() - 1;
        self.len += 1;
        while let Some(here) = self.slots.get_mut(pos) {
            if here.at == VACANT {
                *here = slot;
                return;
            }
            let theirs = Self::distance(pos, here.hash, mask);
            if theirs < dist {
                std::mem::swap(here, &mut slot);
                dist = theirs;
            }
            (pos, dist) = ((pos + 1) & mask, dist + 1);
        }
    }

    /// Put `slot` where a probe for its key stopped, at `vacancy`, first
    /// doubling the table and probing again if one more would fill it.
    pub(crate) fn insert(&mut self, vacancy: Vacancy, slot: Slot) {
        if self.is_full() {
            self.grow();
            return self.place(self.vacancy(slot.hash), slot);
        }
        self.place(vacancy, slot);
    }

    /// Empty slot `pos`, shifting each slot after it back one, up to the
    /// first that is vacant or at its home: every slot stays reachable
    /// from its home, as near to it as before or nearer.
    pub(crate) fn remove(&mut self, mut pos: usize) {
        let mask = self.slots.len().wrapping_sub(1);
        self.len -= 1;
        loop {
            let next = (pos + 1) & mask;
            let Some(&slot) = self.slots.get(next) else { break };
            if slot.at == VACANT || Self::distance(next, slot.hash, mask) == 0 {
                break;
            }
            if let Some(here) = self.slots.get_mut(pos) {
                *here = slot;
            }
            pos = next;
        }
        if let Some(here) = self.slots.get_mut(pos) {
            *here = Slot::VACANT;
        }
    }

    /// Double the slots (to [`FIRST_SLOTS`] from none) and place each
    /// occupied one again by its stored hash.
    fn grow(&mut self) {
        let size = FIRST_SLOTS.max(2 * self.slots.len());
        let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; size]);
        self.len = 0;
        for slot in old.into_iter().filter(|slot| slot.at != VACANT) {
            self.place(self.vacancy(slot.hash), slot);
        }
    }

    /// The occupied slots, each with its position.
    pub(crate) fn occupied(&self) -> impl Iterator<Item = (usize, &Slot)> {
        self.slots.iter().enumerate().filter(|(_, slot)| slot.at != VACANT)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    thread_local! {
        /// The bits of every key hash this thread's tables keep: all of
        /// them but in [`with_hash_bits`], which makes keys collide.
        pub(crate) static HASH_MASK: Cell<u32> = const { Cell::new(u32::MAX) };
    }

    /// Run `f` with key hashes cut to their low `bits` bits (all 32 keep
    /// them whole), so that many keys share a hash and their probes run
    /// long.
    pub(crate) fn with_hash_bits<T>(bits: u32, f: impl FnOnce() -> T) -> T {
        HASH_MASK.set(((1u64 << bits) - 1) as u32);
        let out = f();
        HASH_MASK.set(u32::MAX);
        out
    }

    /// Numbers 0..n put in and every other one removed, at each hash
    /// width: what is left is found from its home, what went is not, and
    /// no slot is farther from its home than before a removal.
    #[test]
    fn a_removal_shifts_back_and_leaves_every_slot_reachable() {
        for bits in [0, 1, 3, 32] {
            with_hash_bits(bits, || {
                let hash_of = |n: u32| key_hash(&n.to_le_bytes());
                let mut index = Index::default();
                for n in 0..200 {
                    let hash = hash_of(n);
                    index.insert(index.vacancy(hash), Slot { hash, at: n, tag: VACANT });
                }
                let mask = index.slots.len() - 1;
                for n in (0..200).step_by(2) {
                    let pos = index.position(hash_of(n), |s| s.at == n).unwrap();
                    let before: Vec<(u32, usize)> = index
                        .occupied()
                        .map(|(p, s)| (s.at, Index::distance(p, s.hash, mask)))
                        .collect();
                    index.remove(pos);
                    for (p, s) in index.occupied() {
                        let was = before.iter().find(|(at, _)| *at == s.at).unwrap().1;
                        assert!(Index::distance(p, s.hash, mask) <= was, "{bits} bits, {}", s.at);
                    }
                }
                assert_eq!(index.len, 100);
                assert_eq!(index.occupied().count(), 100);
                for n in 0..200 {
                    assert_eq!(
                        index.position(hash_of(n), |s| s.at == n).is_some(),
                        n % 2 == 1,
                        "{n}"
                    );
                }
            });
        }
    }
}
