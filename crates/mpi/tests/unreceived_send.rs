//! Finalize-time protocol check, in every world: a send nobody receives
//! must fail the job with a tag leak naming the envelope's channel.

use bytes::Bytes;
use papyrus_mpi::{World, WorldConfig};

#[test]
fn an_unreceived_send_fails_the_world_with_a_tag_leak() {
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
        msg.contains("tag leak: rank 1 mailbox") && msg.contains("tag 99"),
        "finalize panic names the queued envelope: {msg}"
    );
}
