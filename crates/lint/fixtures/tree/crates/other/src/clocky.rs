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

// Wall-clock waits outside test code: one finding per line.
use std::time::Duration;

pub fn wait_for(rx: &std::sync::mpsc::Receiver<()>) {
    let _ = rx.recv_timeout(Duration::from_secs(10));
    std::thread::sleep(Duration::from_millis(1));
}

#[cfg(test)]
mod tests {
    // A test may wait on the wall clock.
    use std::time::Duration;

    #[test]
    fn waits() {
        std::thread::sleep(Duration::from_millis(1));
    }
}
