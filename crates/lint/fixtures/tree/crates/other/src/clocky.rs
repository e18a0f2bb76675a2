// Seeded fixture: wall-clock time under crates/ must be flagged.
use std::time::Instant;

pub fn stamp() -> u128 {
    let t0 = Instant::now();
    let sys = std::time::SystemTime::now();
    let _ = sys;
    t0.elapsed().as_nanos()
}

// Not a world crate: a raw thread here is not `raw-thread`'s business.
pub fn watchdog() {
    let _ = std::thread::spawn(|| ());
}
