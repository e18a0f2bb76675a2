//! Armed world: a lock-order cycle closed inside a rank fails that world's
//! job at finalize, exactly as an unmatched send does.
//!
//! Own integration-test binary: it force-enables the global sanity gate and
//! seeds the process's lock-order graph with an intentional ABBA ordering.

use papyrus_mpi::{World, WorldConfig};
use parking_lot::Mutex;

#[test]
fn abba_cycle_closed_by_a_rank_fails_the_world_with_both_sites() {
    papyrus_sanity::force_enable();

    let result = std::panic::catch_unwind(|| {
        World::run(WorldConfig::for_tests(2), |ctx| {
            if ctx.rank() == 1 {
                let (a, b) = (Mutex::new(0u32), Mutex::new(0u32));
                {
                    let _ga = a.lock();
                    let _gb = b.lock();
                }
                // The reverse order never deadlocks here — one thread — but
                // would against a thread in the section above.
                let _gb = b.lock();
                let _ga = a.lock();
            }
        })
    });

    let err = result.expect_err("finalize must fail the job");
    let msg = err.downcast_ref::<String>().cloned().expect("finalize panic carries the report");
    assert!(msg.contains("lock-order-cycle"), "panic names the check: {msg}");
    // The blocked acquisition, the lock held across it, and the reverse
    // chain recorded earlier: all in this file.
    let mentions = msg.matches("sanity_lock_order.rs").count();
    assert!(mentions >= 3, "expected both sites and the reverse chain in: {msg}");
    assert!(
        papyrus_sanity::lockorder::take_findings().is_empty(),
        "the world that failed on the findings drained them"
    );
}
