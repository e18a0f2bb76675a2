//! Finalize-time protocol audit: a send nobody receives must fail the job
//! with an unmatched-send report (and a tag leak for the queued envelope).
//!
//! Own integration-test binary: it force-enables the global sanity gate.

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};

#[test]
fn unreceived_send_fails_finalize_with_both_reports() {
    papyrus_sanity::force_enable();

    let result = std::panic::catch_unwind(|| {
        World::run(WorldConfig::for_tests(2), |ctx| {
            if ctx.rank() == 0 {
                // Tag 99 is never received by rank 1.
                ctx.world().send(1, 99, Bytes::from_static(b"lost"));
            }
        })
    });

    let err = result.expect_err("finalize must fail the job");
    let msg =
        err.downcast_ref::<String>().cloned().expect("finalize panic carries a rendered report");
    assert!(
        msg.contains("unmatched send") && msg.contains("tag 99"),
        "finalize panic names the channel: {msg}"
    );
    assert!(msg.contains("tag leak"), "queued envelope is reported as a tag leak: {msg}");
}
