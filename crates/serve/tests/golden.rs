//! The load generator's wire bytes, pinned: a change to how commands are
//! built or encoded must leave the byte stream the server is measured on
//! exactly as it was.

use papyrus_serve::loadgen::{Generator, LoadMix, LoadSkew};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// The first 4096 commands of rank 0's generator in a two-rank world of
/// 4096 keys a rank, balanced and zipfian, 128-byte values, seed 42: the
/// stream kvbench's codec probes decode.
#[test]
fn the_first_4096_commands_encode_to_the_pinned_bytes() {
    let mut gen = Generator::new(0, 2, 4096, LoadMix::Balanced, LoadSkew::Zipfian, 128);
    let mut rng = StdRng::seed_from_u64(42);
    let mut wire = Vec::new();
    for _ in 0..4096 {
        let cmd = gen.next_command(&mut rng);
        gen.encode(&cmd, &mut rng, &mut wire);
    }
    assert_eq!((wire.len(), fnv1a(&wire)), (482_641, 0xc025_ddcc_037d_9b71));
}
