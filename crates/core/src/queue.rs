//! Blocking FIFO: the flushing / migration queue (paper §2.4).
//!
//! The paper's flushing queue is fixed-size: "If the flushing queue is full
//! when the runtime enqueues an immutable local MemTable into the queue, the
//! MPI rank is blocked on the put operation until the queue is available."
//! Here that backpressure is one count, not a queue bound: `write::freeze`
//! waits while its side's in-flight MemTables reach
//! `Options::flush_queue_len`, before it pushes (DESIGN §1). So `push` never
//! parks and [`BlockingQueue`] has no bound; `pop` parks while the queue is
//! empty. A queue item is a whole MemTable, so the lock is taken
//! once per flush or migration, never per put. The wait re-checks its
//! condition under the lock and the push notifies under the same lock, so
//! no wakeup can be lost.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

/// Jobs a queue has room for from the start. `freeze`'s slot count keeps a
/// few per database queued at most, so a push never allocates.
const ROOM: usize = 256;

/// Blocking MPMC FIFO: consumers (the compaction / dispatcher threads)
/// sleep until work arrives.
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

    /// Dequeue, blocking while the queue is empty.
    pub fn pop(&self) -> T {
        let mut items = self.items.lock();
        loop {
            if let Some(value) = items.pop_front() {
                return value;
            }
            self.not_empty.wait(&mut items);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::thread;
    use std::time::Duration;

    /// How long the blocking tests watch a parked thread stay parked. A
    /// correct queue can never fail these checks however slow the host is;
    /// the window only bounds how soon a non-blocking queue is caught.
    const STAYS_BLOCKED: Duration = Duration::from_millis(30);

    #[test]
    fn fifo_order_and_wraparound() {
        let q = BlockingQueue::new();
        for round in 0..100 {
            for i in 0..4 {
                q.push(round * 4 + i);
            }
            for i in 0..4 {
                assert_eq!(q.pop(), round * 4 + i);
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
        // No bound: a push never waits for a pop, however many are queued.
        let q = BlockingQueue::new();
        for i in 0..1_000 {
            q.push(i);
        }
        for i in 0..1_000 {
            assert_eq!(q.pop(), i);
        }
    }

    #[test]
    fn pop_blocks_while_empty() {
        let q: Arc<BlockingQueue<u32>> = BlockingQueue::new();
        let (tx, rx) = mpsc::channel();
        let h = {
            let q = q.clone();
            thread::spawn(move || tx.send(q.pop()).unwrap())
        };
        assert!(rx.recv_timeout(STAYS_BLOCKED).is_err(), "pop must block while empty");
        q.push(42);
        assert_eq!(rx.recv().unwrap(), 42);
        h.join().unwrap();
    }

    #[test]
    fn mpmc_no_loss_no_duplication() {
        // Four producers, four consumers that block on empty many times over.
        let q = BlockingQueue::new();
        let n_producers = 4;
        let per = 5_000usize;
        let mut producers = Vec::new();
        for p in 0..n_producers {
            let q = q.clone();
            producers.push(thread::spawn(move || {
                for i in 0..per {
                    q.push(p * per + i);
                }
            }));
        }
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = q.clone();
                // Each consumer drains exactly `per` items.
                thread::spawn(move || (0..per).map(|_| q.pop()).collect::<Vec<_>>())
            })
            .collect();
        for h in producers {
            h.join().unwrap();
        }
        let mut all: Vec<usize> = consumers.into_iter().flat_map(|h| h.join().unwrap()).collect();
        all.sort_unstable();
        let want: Vec<usize> = (0..n_producers * per).collect();
        assert_eq!(all, want);
    }
}

/// Schedule-exhaustive model of the blocking protocol, compiled and run
/// only under `--cfg modelcheck` (`cargo xtask modelcheck`). The queue code
/// above is unchanged — its `parking_lot` `Mutex`/`Condvar` resolve to the
/// explorer's shims, so every lock, wait and notify is a scheduling point
/// and a lost wakeup surfaces as a deadlock violation.
#[cfg(all(test, modelcheck))]
mod modelcheck_tests {
    use super::*;
    use papyrus_modelcheck as mc;

    /// 2 producers + 1 consumer (3 model threads), the consumer blocking on
    /// empty: every value arrives exactly once, each producer's values in its own order, and
    /// no thread is left parked, under *every* DPOR-distinct schedule. The
    /// interleaving count is pinned — see EXPERIMENTS.md; a change means
    /// the scheduler/DPOR or the queue protocol changed.
    #[test]
    fn modelcheck_queue_2p1c_blocking_exhaustive() {
        let report = mc::explore(|| {
            let q = BlockingQueue::new();
            let producers: Vec<_> = (0..2u64)
                .map(|p| {
                    let q = Arc::clone(&q);
                    mc::thread::spawn(move || {
                        q.push(p * 10);
                        q.push(p * 10 + 1);
                    })
                })
                .collect();
            let consumer = {
                let q = Arc::clone(&q);
                mc::thread::spawn(move || (0..4).map(|_| q.pop()).collect::<Vec<u64>>())
            };
            for p in producers {
                p.join().unwrap();
            }
            let got = consumer.join().unwrap();
            for p in 0..2u64 {
                let mine: Vec<u64> = got.iter().copied().filter(|v| v / 10 == p).collect();
                assert_eq!(mine, vec![p * 10, p * 10 + 1], "per-producer FIFO, once each");
            }
        });
        assert!(report.ok(), "blocking queue model must be clean: {:?}", report.violations);
        assert_eq!(report.interleavings, PINNED_QUEUE_2P1C_BLOCKING, "see EXPERIMENTS.md");
    }

    const PINNED_QUEUE_2P1C_BLOCKING: u64 = 2_256;
}
