//! The reference kernel: a fixed piece of store-like work timed beside every
//! round, so that the sandbox's own speed at that moment is on record.
//!
//! Why it exists: on the shared two-core box this benchmark was written on,
//! identical rounds run 20–40% apart for tens of seconds at a time, in
//! plateaus (a busy hyperthread sibling or a neighbour's traffic in the
//! shared last-level cache), while a pure ALU loop does not move at all.
//! What moves is exactly what a key-value store is made of: dependent
//! cache-missing loads, compares, copies of small values. The kernel below is
//! made of the same things, so it slows down and speeds up with the
//! workload, and the ratio of the two is steady where neither is alone.

use std::collections::BTreeMap;
use std::hint::black_box;
// The repository's `parking_lot` shim is for the code under test; the
// reference kernel must not be timed through it.
use std::sync::{Arc, Mutex}; // lint:allow(std-sync-lock): see above
use std::time::Instant;

use crate::gen::{fill_value, key_of, KEY_LEN, VAL_LEN};

/// Keys the reference map holds: about 10 MB with 128 B values, larger than
/// the core's private cache like every workload's data.
const KEYS: u64 = 50_000;
/// Ops of one slice: about 3 ms.
const SLICE_OPS: u64 = 8_000;
/// Slices of one measurement.
const SLICES: usize = 3;
/// The reference cost every throughput is scaled to, in ns per reference
/// op: what the kernel costs on the sandbox this was written on when it is
/// quiet. It only fixes the scale, so that normalised and raw numbers are of
/// a size there; comparisons between two commits on one machine do not
/// depend on it.
pub const NOMINAL_NS: f64 = 250.0;

/// An ordered map of 16 B keys to 128 B values that is read three times and
/// overwritten once per four ops, in a fixed pseudo-random key order.
struct Kernel {
    map: BTreeMap<[u8; KEY_LEN], Vec<u8>>,
    cursor: u64,
}

/// Handle to the process's one reference kernel. Cheap to clone; whichever
/// thread is driving at the moment measures with it.
#[derive(Clone)]
pub struct Reference {
    kernel: Arc<Mutex<Kernel>>,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    pub fn new() -> Self {
        let mut value = [0u8; VAL_LEN];
        let map = (0..KEYS)
            .map(|i| {
                fill_value(i, 1, &mut value);
                (key_of(i), value.to_vec())
            })
            .collect();
        Self { kernel: Arc::new(Mutex::new(Kernel { map, cursor: 0 })) }
    }

    /// One measurement: the fastest of a few slices, in host nanoseconds per
    /// reference op. An interrupt only ever slows a slice down, while the
    /// plateau the box is on slows all of them.
    pub fn measure(&self) -> f64 {
        // A panic while measuring leaves the map valid: every step of a
        // slice is a whole `BTreeMap` call.
        let mut kernel = self.kernel.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        (0..SLICES).map(|_| kernel.slice()).fold(f64::INFINITY, f64::min)
    }

    /// The factor that takes a throughput measured beside a reference cost
    /// of `ref_ns` to what it would be at the nominal cost: multiply a
    /// throughput by it, divide a time by it.
    pub fn scale(ref_ns: f64) -> f64 {
        ref_ns / NOMINAL_NS
    }
}

impl Kernel {
    fn slice(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..SLICE_OPS {
            self.cursor += 1;
            // A fixed odd multiplier walks the keyspace in a scattered order.
            let key = key_of(self.cursor.wrapping_mul(0x9E37_79B9_7F4A_7C15) % KEYS);
            if self.cursor.is_multiple_of(4) {
                // Overwritten in place: the map's layout in memory stays as
                // it was built, so the kernel's cost moves with the machine
                // and not with the allocator's history.
                if let Some(value) = self.map.get_mut(&key) {
                    fill_value(self.cursor, 2, value);
                }
            } else {
                black_box(self.map.get(&key));
            }
        }
        start.elapsed().as_nanos() as f64 / SLICE_OPS as f64
    }
}
