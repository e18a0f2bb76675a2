// Fixture: a protocol-path file may name std::sync::atomic directly, and
// an AcqRel RMW needs no ordering comment; no rule reports here.

use std::sync::atomic::AtomicU64;

pub static SEQ: AtomicU64 = AtomicU64::new(0);

pub fn next_seq() -> u64 {
    SEQ.fetch_add(1, std::sync::atomic::Ordering::AcqRel)
}

#[cfg(test)]
mod tests {
    // Test modules may reach for raw atomics freely.
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn raw_atomics_in_tests_are_fine() {
        let a = AtomicU64::new(1);
        // ordering: test-local atomic, no cross-thread visibility at stake.
        assert_eq!(a.load(Ordering::Relaxed), 1);
    }
}
