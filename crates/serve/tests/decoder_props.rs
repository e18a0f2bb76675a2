//! Properties of `resp::Decoder` over input cut into arbitrary chunks: it
//! never panics, it yields frames or a typed `RespError`, and where the
//! chunks fall changes nothing it yields.

use bytes::Bytes;
use papyrus_serve::resp::{encode_frame, Decoder, Frame, RespError, MAX_DEPTH};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Bytes a broken stream is made of: every byte the codec treats apart,
/// and a few it does not.
const RESP_BYTES: &[u8] = b"+-:$*\r\n0123456789 aZ";
/// Bytes of simple strings and inline words (none a type prefix).
const WORD_BYTES: &[u8] = b"abcdefghijklmnopqrstuvwxyzOK0123456789_";

/// What a decoder has yielded: every frame up to the first error, and that
/// error.
type Outcome = (Vec<Frame>, Option<RespError>);

/// Feed `chunk` to `d` and drain it into `out`, unless it already failed.
fn step(d: &mut Decoder, chunk: &[u8], out: &mut Outcome) {
    if out.1.is_some() {
        return;
    }
    d.feed(chunk);
    loop {
        match d.next_frame() {
            Ok(Some(frame)) => out.0.push(frame),
            Ok(None) => return,
            Err(e) => {
                out.1 = Some(e);
                return;
            }
        }
    }
}

/// What a decoder yields for `bytes` fed whole.
fn decode(bytes: &[u8]) -> Outcome {
    let mut out = (Vec::new(), None);
    step(&mut Decoder::new(), bytes, &mut out);
    out
}

/// `bytes` cut into chunks whose lengths cycle through `cuts`.
fn chunked<'a>(bytes: &'a [u8], cuts: &[usize]) -> Vec<&'a [u8]> {
    let mut chunks = Vec::new();
    let mut rest = bytes;
    for &cut in cuts.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (chunk, tail) = rest.split_at(cut.min(rest.len()));
        chunks.push(chunk);
        rest = tail;
    }
    chunks
}

/// Up to `max` bytes drawn from `alphabet`.
fn word(rng: &mut StdRng, alphabet: &[u8], max: usize) -> Bytes {
    let len = rng.gen_range(0..max + 1);
    (0..len).map(|_| alphabet[rng.gen_range(0..alphabet.len())]).collect::<Vec<u8>>().into()
}

/// A random frame `depth` arrays deep that encodes to bytes decoding back
/// to it.
fn frame(rng: &mut StdRng, depth: usize) -> Frame {
    let kinds = if depth < MAX_DEPTH { 7 } else { 6 };
    match rng.gen_range(0..kinds) {
        0 => Frame::Simple(word(rng, WORD_BYTES, 12)),
        1 => Frame::Error(word(rng, WORD_BYTES, 12)),
        // `i64::MIN` has no positive twin: the codec reads `-n` as `n` negated.
        2 => Frame::Integer(rng.gen::<i64>().max(-i64::MAX)),
        3 => Frame::Bulk(None),
        4 => Frame::Bulk(Some(word(rng, RESP_BYTES, 300))),
        5 => Frame::Array(None),
        _ => Frame::Array(Some((0..rng.gen_range(0..5)).map(|_| frame(rng, depth + 1)).collect())),
    }
}

/// A frame sequence from `seeds`, one frame a seed; some top-level frames
/// are inline command lines.
fn frames(seeds: &[u64]) -> Vec<Frame> {
    seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            if rng.gen_bool(0.2) {
                let words = rng.gen_range(1..4);
                let words = (0..words).map(|_| word(&mut rng, &WORD_BYTES[..26], 2)).map(|w| {
                    // A word is at least one byte: the decoder drops empty ones.
                    [&b"w"[..], &w].concat().into()
                });
                Frame::Inline(words.collect())
            } else {
                frame(&mut rng, 0)
            }
        })
        .collect()
}

fn encode(frames: &[Frame]) -> Vec<u8> {
    let mut wire = Vec::new();
    for f in frames {
        encode_frame(f, &mut wire);
    }
    wire
}

proptest! {
    /// Any bytes, fed in any chunks: no panic, and after every chunk the
    /// frames and the typed error that the bytes so far give when fed
    /// whole. The bytes are a valid stream with bytes overwritten or
    /// deleted, then noise.
    #[test]
    fn arbitrary_bytes_in_arbitrary_chunks_end_in_frames_or_a_typed_error(
        seeds in prop::collection::vec(any::<u64>(), 0..6),
        edits in prop::collection::vec((any::<u16>(), any::<bool>(), 0..RESP_BYTES.len()), 0..4),
        noise in prop::collection::vec((any::<bool>(), any::<u8>(), 0..RESP_BYTES.len()), 0..200),
        cuts in prop::collection::vec(1usize..40, 1..8),
    ) {
        let mut bytes = encode(&frames(&seeds));
        for (at, delete, b) in edits {
            let at = usize::from(at) % bytes.len().max(1);
            match bytes.get_mut(at) {
                Some(_) if delete => drop(bytes.remove(at)),
                Some(byte) => *byte = RESP_BYTES[b],
                None => {}
            }
        }
        bytes.extend(noise.into_iter().map(|(raw, b, i)| if raw { b } else { RESP_BYTES[i] }));
        let mut d = Decoder::new();
        let mut got = (Vec::new(), None);
        let mut fed = 0;
        for chunk in chunked(&bytes, &cuts) {
            step(&mut d, chunk, &mut got);
            fed += chunk.len();
            prop_assert_eq!(&got, &decode(&bytes[..fed]));
        }
    }

    /// A random frame sequence, encoded and fed in random chunks, decodes to
    /// the frames it was encoded from, exactly as when fed whole.
    #[test]
    fn an_encoded_frame_sequence_decodes_the_same_in_any_chunks(
        seeds in prop::collection::vec(any::<u64>(), 1..12),
        cuts in prop::collection::vec(1usize..64, 1..8),
    ) {
        let frames = frames(&seeds);
        let wire = encode(&frames);
        prop_assert_eq!(&decode(&wire), &(frames.clone(), None));
        let mut d = Decoder::new();
        let mut got = (Vec::new(), None);
        for chunk in chunked(&wire, &cuts) {
            step(&mut d, chunk, &mut got);
        }
        prop_assert_eq!(got, (frames, None));
        prop_assert_eq!(d.buffered(), 0);
    }
}
