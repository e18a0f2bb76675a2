//! Heap allocations of one command's trip through the serve codecs,
//! counted exactly by a global allocator that counts per thread.
//!
//! The client's encoding and the server's reply encoding allocate nothing
//! into a buffer with room; decoding allocates a buffer a chunk and a list
//! an array, and parsing only the lists of MGET and MSET: every key and
//! value is a slice of the receive buffer.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::HashSet;
use std::mem::discriminant;

use papyrus_serve::cmd::{encode_reply, parse_command, Command, Reply};
use papyrus_serve::loadgen::{Generator, LoadMix, LoadSkew};
use papyrus_serve::resp::{encode_command, encode_inline, Decoder, Frame};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    // `try_with`: a thread's last frees may run after its locals are gone.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a
// thread-local `Cell` with a const initialiser, which neither allocates nor
// re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr`/`layout` came from this allocator; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The result of `f` and the allocations it made on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn frame_of(wire: &[u8]) -> Frame {
    let mut d = Decoder::new();
    d.feed(wire);
    d.next_frame().expect("well-formed").expect("complete")
}

#[test]
fn encoding_a_command_allocates_nothing() {
    let mut gen = Generator::new(0, 2, 4096, LoadMix::Balanced, LoadSkew::Zipfian, 128);
    let mut rng = StdRng::seed_from_u64(1);
    let cmds: Vec<Command> = (0..5000).map(|_| gen.next_command(&mut rng)).collect();
    let kinds: HashSet<_> = cmds.iter().map(discriminant).collect();
    assert_eq!(kinds.len(), 9, "every command kind is drawn");
    let mut wire = Vec::with_capacity(8 << 20);
    let ((), allocs) = counted(|| {
        for cmd in &cmds {
            gen.encode(cmd, &mut rng, &mut wire);
        }
    });
    assert_eq!(allocs, 0);
}

#[test]
fn parsing_allocates_only_the_key_lists() {
    let cases: [(&[&[u8]], u64); 9] = [
        (&[b"PING"], 0),
        (&[b"info"], 0),
        (&[b"GET", b"k"], 0),
        (&[b"SeT", b"k", b"v"], 0),
        (&[b"DEL", b"k"], 0),
        (&[b"EXISTS", b"k"], 0),
        (&[b"MGET", b"a", b"b", b"c"], 1),
        (&[b"MSET", b"a", b"1", b"b", b"2"], 1),
        (&[b"RANGE", b"10", b"4"], 0),
    ];
    for (words, want) in cases {
        let mut wire = Vec::new();
        encode_command(words, &mut wire);
        let frame = frame_of(&wire);
        let (cmd, allocs) = counted(|| parse_command(&frame));
        assert!(cmd.is_ok(), "{cmd:?}");
        assert_eq!(allocs, want, "{:?}", String::from_utf8_lossy(words[0]));
    }
    let mut wire = Vec::new();
    encode_inline::<&[u8]>(&[b"get", b"k"], &mut wire);
    let frame = frame_of(&wire);
    assert_eq!(counted(|| parse_command(&frame)).1, 0, "inline GET");
}

#[test]
fn encoding_a_reply_allocates_nothing() {
    let replies = [
        Reply::Ok,
        Reply::Pong,
        Reply::Int(-7),
        Reply::Bulk(None),
        Reply::Bulk(Some(vec![b'v'; 128])),
        Reply::Arr(vec![Some(b"a".to_vec()), None, Some(vec![b'v'; 128])]),
        Reply::Err("ERR unknown command 'X'".into()),
        Reply::Info("serve_version:1\nrank:0".into()),
    ];
    let mut out = Vec::with_capacity(4096);
    let ((), allocs) = counted(|| {
        for r in &replies {
            encode_reply(r, &mut out);
        }
    });
    assert_eq!(allocs, 0);
}

/// Two pipelined SETs, cut in two at every byte, into a decoder that has
/// decoded a frame before (a connection's steady state): each chunk costs
/// its buffer and each SET its list of words, whatever the cut.
#[test]
fn decoding_a_pipelined_set_allocates_a_buffer_a_chunk_and_a_list_a_frame() {
    let mut wire = Vec::new();
    for _ in 0..2 {
        encode_command::<&[u8]>(&[b"SET", b"user000000000042", &[b'v'; 128]], &mut wire);
    }
    let mut frames = Vec::with_capacity(4);
    for cut in 0..=wire.len() {
        let mut d = Decoder::new();
        d.feed(&wire[..wire.len() / 2]);
        d.feed(&wire[wire.len() / 2..]);
        while let Some(frame) = d.next_frame().expect("well-formed") {
            frames.push(frame);
        }
        frames.clear();
        let chunks = [&wire[..cut], &wire[cut..]];
        let ((), allocs) = counted(|| {
            for chunk in chunks {
                d.feed(chunk);
                while let Some(frame) = d.next_frame().expect("well-formed") {
                    frames.push(frame);
                }
            }
        });
        assert_eq!(frames.len(), 2, "cut at {cut}");
        let fed = chunks.iter().filter(|c| !c.is_empty()).count() as u64;
        assert_eq!(allocs, fed + 2, "cut at {cut}");
        frames.clear();
    }
}

/// A 1 MiB bulk string in 512-byte chunks is gathered in one growing
/// buffer, not a buffer (and a copy of all before it) for each of its 2049
/// chunks: the first chunk's buffer, the decoder's array stack and the
/// array's list, then one buffer that starts at two chunks and doubles 11
/// times.
#[test]
fn a_bulk_string_in_many_chunks_is_gathered_not_recopied() {
    let payload = vec![b'x'; 1 << 20];
    let mut wire = Vec::new();
    encode_command::<&[u8]>(&[&payload], &mut wire);
    let mut d = Decoder::new();
    let (frame, allocs) = counted(|| {
        let mut frame = None;
        for chunk in wire.chunks(512) {
            d.feed(chunk);
            if let Some(f) = d.next_frame().expect("well-formed") {
                frame = Some(f);
            }
        }
        frame
    });
    assert_eq!(frame, Some(Frame::Array(Some(vec![Frame::Bulk(Some(payload.into()))]))));
    assert_eq!(allocs, 3 + 1 + 11);
}
