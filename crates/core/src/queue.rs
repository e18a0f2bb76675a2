//! The flushing / migration queue (paper §2.4).
//!
//! The paper's flushing queue is fixed-size: "If the flushing queue is full
//! when the runtime enqueues an immutable local MemTable into the queue, the
//! MPI rank is blocked on the put operation until the queue is available."
//! Here that backpressure is one count, not a queue bound: `write::freeze`
//! waits while its side's in-flight MemTables reach
//! `Options::flush_queue_len`, before it pushes (DESIGN §1). So `push` never
//! parks and [`BlockingQueue`] has no bound. Its consumers, the compaction
//! task and the message dispatcher, have no thread: each `take`s the front
//! job or enlists for the next push and ends its slice. A queue item is a
//! whole MemTable, so the lock is taken once per flush or migration, never
//! per put. The enlist checks the queue under the lock and the push
//! notifies under the same lock, so no wakeup can be lost.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Jobs a queue has room for from the start. `freeze`'s slot count keeps a
/// few per database queued at most, so a push never allocates.
const ROOM: usize = 256;

/// MPMC FIFO whose consumer, a run-to-completion task, enlists until work
/// arrives.
pub struct BlockingQueue<T> {
    items: Mutex<VecDeque<T>>,
    not_empty: Condvar,
}

impl<T> BlockingQueue<T> {
    pub fn new() -> Arc<Self> {
        let mut items = VecDeque::new();
        items.reserve(ROOM);
        Arc::new(Self { items: Mutex::new(items), not_empty: Condvar::new() })
    }

    /// Enqueue; never blocks.
    pub fn push(&self, value: T) {
        let mut items = self.items.lock();
        items.push_back(value);
        self.not_empty.notify_one();
    }

    /// Dequeue without parking, for a run-to-completion task of a world: the
    /// front value, or `None` with the task enlisted to be woken by the next
    /// push — its slice then ends.
    #[track_caller]
    pub fn take(&self) -> Option<T> {
        let mut items = self.items.lock();
        let value = items.pop_front();
        if value.is_none() {
            self.not_empty.enlist(&items);
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_and_wraparound() {
        let q = BlockingQueue::new();
        for round in 0..100 {
            for i in 0..4 {
                q.push(round * 4 + i);
            }
            for i in 0..4 {
                assert_eq!(q.take(), Some(round * 4 + i));
            }
        }
    }

    #[test]
    fn drop_releases_queued_values() {
        // Arc payloads: if Drop leaks, the Arc count stays elevated.
        let sentinel = Arc::new(());
        {
            let q = BlockingQueue::new();
            q.push(sentinel.clone());
            q.push(sentinel.clone());
        }
        assert_eq!(Arc::strong_count(&sentinel), 1);
    }

    #[test]
    fn push_returns_with_no_consumer() {
        // No bound: a push never waits for a take, however many are queued.
        let q = BlockingQueue::new();
        for i in 0..1_000 {
            q.push(i);
        }
        for i in 0..1_000 {
            assert_eq!(q.take(), Some(i));
        }
    }
}
