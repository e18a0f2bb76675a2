//! Incremental RESP2-subset codec.
//!
//! The wire format is the Redis serialisation protocol restricted to what
//! the serve plane speaks: simple strings (`+OK\r\n`), errors
//! (`-ERR ..\r\n`), integers (`:42\r\n`), bulk strings
//! (`$5\r\nhello\r\n`, `$-1\r\n` for nil), arrays (`*2\r\n..`, `*-1\r\n`
//! for nil), and *inline commands* — a bare space-separated line
//! (`PING\r\n`) that clients type by hand.
//!
//! The [`Decoder`] is incremental and pipelining-safe: bytes arrive in
//! arbitrary chunks via [`Decoder::feed`], and [`Decoder::next_frame`] yields a
//! frame exactly when one is complete, `Ok(None)` when more bytes are
//! needed, and a typed [`RespError`] on malformed input — never a panic
//! (the crate denies clippy's panic-path lints, DESIGN §14).
//!
//! Each feed copies the received bytes once. The first feed after a decode
//! starts a new buffer, the undecoded tail and then the chunk; the decoded
//! prefix lives on only while frames slice it. Later feeds append to that
//! buffer while it is too short to finish the element at the cursor (a
//! bulk string's header says how long it is), so a 1 MiB bulk split across
//! a thousand reads is gathered in one doubling buffer, not recopied at
//! every read. Frames are decoded in one pass, element by element: every
//! payload is a [`Bytes`] slice of the buffer it arrived in, and the
//! elements of an array that is still partial are kept, so resumption
//! re-scans only the element that was cut off, never those before it.
//!
//! Protocol errors poison the connection from the caller's point of view:
//! the decoder leaves its cursor where the error was found, and the serve
//! plane drops the connection (mirroring Redis, which closes on a
//! protocol error rather than trying to resynchronise).

use bytes::{Bytes, BytesMut};

/// Largest accepted bulk-string payload.
pub const MAX_BULK_LEN: i64 = 8 << 20;
/// Largest accepted array arity.
pub const MAX_ARRAY_LEN: i64 = 1024;
/// Deepest accepted array nesting.
pub const MAX_DEPTH: usize = 4;
/// Longest accepted header/inline line (excluding the CRLF).
pub const MAX_LINE_LEN: usize = 8 << 10;

/// One decoded RESP frame. Every payload is a slice of the receive buffer
/// it arrived in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `+..\r\n` simple string.
    Simple(Bytes),
    /// `-..\r\n` error string.
    Error(Bytes),
    /// `:n\r\n` integer.
    Integer(i64),
    /// `$n\r\n..\r\n` bulk string; `None` is the `$-1\r\n` nil.
    Bulk(Option<Bytes>),
    /// `*n\r\n..` array; `None` is the `*-1\r\n` nil array.
    Array(Option<Vec<Frame>>),
    /// A bare command line, split into space-separated words.
    Inline(Vec<Bytes>),
}

/// Typed decode failures. Every malformed input maps to one of these —
/// the decoder has no panicking path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RespError {
    /// A length/integer line held something other than `-?[0-9]+`.
    BadInteger {
        /// Which header was being parsed (`"bulk length"`, ..).
        what: &'static str,
    },
    /// A declared length exceeded the codec's limit.
    LengthOverflow {
        /// Which header was being parsed.
        what: &'static str,
        /// The declared value.
        got: i64,
        /// The limit it broke.
        max: i64,
    },
    /// A declared length below `-1` (only `-1` encodes nil).
    NegativeLength {
        /// Which header was being parsed.
        what: &'static str,
        /// The declared value.
        got: i64,
    },
    /// A line terminated by a bare `\n`, a `\r` followed by something
    /// other than `\n`, or a bulk payload not followed by `\r\n`.
    MissingCrLf {
        /// What was being terminated.
        what: &'static str,
    },
    /// Array nesting beyond [`MAX_DEPTH`].
    DepthExceeded {
        /// The limit that was broken.
        max: usize,
    },
    /// A header or inline line longer than [`MAX_LINE_LEN`].
    LineTooLong {
        /// The limit that was broken.
        max: usize,
    },
    /// An inline (untyped) line inside an array, where only typed frames
    /// are legal.
    InlineInArray,
}

impl std::fmt::Display for RespError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RespError::BadInteger { what } => write!(f, "malformed integer in {what}"),
            RespError::LengthOverflow { what, got, max } => {
                write!(f, "{what} {got} exceeds limit {max}")
            }
            RespError::NegativeLength { what, got } => {
                write!(f, "{what} {got} is negative (only -1 encodes nil)")
            }
            RespError::MissingCrLf { what } => write!(f, "{what} not terminated by CRLF"),
            RespError::DepthExceeded { max } => write!(f, "array nesting deeper than {max}"),
            RespError::LineTooLong { max } => write!(f, "line longer than {max} bytes"),
            RespError::InlineInArray => write!(f, "inline command inside an array"),
        }
    }
}

impl std::error::Error for RespError {}

/// Outcome of one resumable parse attempt: the value and the cursor just
/// past it, or "need more bytes".
type Partial<T> = Result<Option<(T, usize)>, RespError>;

/// What the bytes at the cursor hold.
enum Element {
    /// A whole frame, and the cursor past it.
    Frame(Frame, usize),
    /// The header of an array of this many elements (at least one), and
    /// the cursor past it, where they follow.
    Open(usize, usize),
    /// The start of an element that ends at this cursor or later.
    Short(usize),
}

/// Incremental frame decoder over an internal receive buffer.
#[derive(Debug, Default)]
pub struct Decoder {
    /// What was fed and is not decoded yet starts at `pos`, unless `fill`
    /// holds it.
    buf: Bytes,
    pos: usize,
    /// The undecoded tail and the chunks fed since, while they are too
    /// few to finish the element at the cursor.
    fill: BytesMut,
    /// Bytes the element at the cursor takes at least.
    need: usize,
    /// The arrays of the frame being decoded, outermost first: the
    /// elements decoded so far and the arity.
    open: Vec<(Vec<Frame>, usize)>,
    /// Bytes that the elements in `open` took.
    held: usize,
}

impl Decoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes (any chunking). The first chunk after a
    /// decode starts a new buffer with the undecoded tail; the decoded
    /// prefix stays only with the frames that slice it.
    pub fn feed(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        if self.fill.is_empty() {
            let tail = self.buf.get(self.pos..).unwrap_or_default();
            self.fill = BytesMut::with_capacity(tail.len() + bytes.len());
            self.fill.extend_from_slice(tail);
        }
        self.fill.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed by a completed frame.
    pub fn buffered(&self) -> usize {
        let undecoded = match self.fill.len() {
            0 => self.buf.len().saturating_sub(self.pos),
            n => n,
        };
        self.held + undecoded
    }

    /// Decode the next complete frame, if the buffer holds one. Empty
    /// inline lines (a bare `\r\n`) are skipped, as in Redis.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, RespError> {
        if !self.fill.is_empty() {
            // A bulk string arriving in many chunks is gathered here, not
            // copied into a new buffer at every chunk.
            if self.fill.len() < self.need {
                return Ok(None);
            }
            self.buf = std::mem::take(&mut self.fill).freeze();
            self.pos = 0;
            self.need = 0;
        }
        loop {
            let (frame, end) = match parse_element(&self.buf, self.pos, self.open.len())? {
                Element::Short(end) => {
                    self.need = end - self.pos;
                    return Ok(None);
                }
                Element::Open(arity, end) => {
                    self.open.push((Vec::with_capacity(arity), arity));
                    self.held += end - self.pos;
                    self.pos = end;
                    continue;
                }
                Element::Frame(frame, end) => (frame, end),
            };
            self.held += end - self.pos;
            self.pos = end;
            if let Some(frame) = self.close(frame) {
                self.held = 0;
                if !matches!(&frame, Frame::Inline(words) if words.is_empty()) {
                    return Ok(Some(frame));
                }
            }
        }
    }

    /// Add `frame` to the innermost open array and close every array that
    /// fills; the top-level frame, once it is complete.
    fn close(&mut self, mut frame: Frame) -> Option<Frame> {
        loop {
            let Some((items, arity)) = self.open.last_mut() else { return Some(frame) };
            items.push(frame);
            if items.len() < *arity {
                return None;
            }
            let (items, _) = self.open.pop()?;
            frame = Frame::Array(Some(items));
        }
    }
}

/// Find the end of the line starting at `from`: returns the line body and
/// the cursor past its CRLF.
fn parse_line(buf: &[u8], from: usize, what: &'static str) -> Partial<std::ops::Range<usize>> {
    let mut i = from;
    loop {
        // An over-long line is rejected as soon as its body is, terminated
        // or not, so a garbage stream cannot buffer 8 MiB before erroring
        // and a line meets the same verdict however it was chunked.
        if i - from > MAX_LINE_LEN {
            return Err(RespError::LineTooLong { max: MAX_LINE_LEN });
        }
        match buf.get(i) {
            None => return Ok(None),
            Some(b'\n') => return Err(RespError::MissingCrLf { what }),
            Some(b'\r') => match buf.get(i + 1) {
                None => return Ok(None),
                Some(b'\n') => return Ok(Some((from..i, i + 2))),
                Some(_) => return Err(RespError::MissingCrLf { what }),
            },
            Some(_) => i += 1,
        }
    }
}

/// Parse a `-?[0-9]+` line body.
fn parse_int(body: &[u8], what: &'static str) -> Result<i64, RespError> {
    let (neg, digits) = match body.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, body),
    };
    if digits.is_empty() {
        return Err(RespError::BadInteger { what });
    }
    let mut v: i64 = 0;
    for &b in digits {
        if !b.is_ascii_digit() {
            return Err(RespError::BadInteger { what });
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as i64))
            .ok_or(RespError::BadInteger { what })?;
    }
    Ok(if neg { -v } else { v })
}

/// Parse the element at `pos`, `depth` arrays deep.
fn parse_element(buf: &Bytes, pos: usize, depth: usize) -> Result<Element, RespError> {
    // A line not terminated yet ends past the bytes there are.
    let short = Element::Short(buf.len() + 1);
    let Some(&first) = buf.get(pos) else { return Ok(short) };
    let frame = match first {
        b'+' | b'-' | b':' => {
            let what = match first {
                b'+' => "simple string",
                b'-' => "error string",
                _ => "integer",
            };
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(short) };
            let frame = match first {
                b'+' => Frame::Simple(buf.slice(body)),
                b'-' => Frame::Error(buf.slice(body)),
                _ => Frame::Integer(parse_int(buf.get(body).unwrap_or(&[]), what)?),
            };
            Element::Frame(frame, end)
        }
        b'$' => {
            let what = "bulk length";
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(short) };
            let n = parse_int(buf.get(body).unwrap_or(&[]), what)?;
            if n == -1 {
                return Ok(Element::Frame(Frame::Bulk(None), end));
            }
            if n < -1 {
                return Err(RespError::NegativeLength { what, got: n });
            }
            if n > MAX_BULK_LEN {
                return Err(RespError::LengthOverflow { what, got: n, max: MAX_BULK_LEN });
            }
            // The payload is sliced out of the buffer once all its bytes
            // and the trailing CRLF have arrived.
            let payload = end..end + n as usize;
            match (buf.get(payload.end), buf.get(payload.end + 1)) {
                (Some(b'\r'), Some(b'\n')) => {
                    Element::Frame(Frame::Bulk(Some(buf.slice(payload.clone()))), payload.end + 2)
                }
                // The byte after the payload decides, then the one after.
                (None, _) => Element::Short(payload.end + 1),
                (Some(b'\r'), None) => Element::Short(payload.end + 2),
                _ => return Err(RespError::MissingCrLf { what: "bulk payload" }),
            }
        }
        b'*' => {
            let what = "array length";
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(short) };
            let n = parse_int(buf.get(body).unwrap_or(&[]), what)?;
            if n == -1 {
                return Ok(Element::Frame(Frame::Array(None), end));
            }
            if n < -1 {
                return Err(RespError::NegativeLength { what, got: n });
            }
            if n > MAX_ARRAY_LEN {
                return Err(RespError::LengthOverflow { what, got: n, max: MAX_ARRAY_LEN });
            }
            if depth + 1 > MAX_DEPTH {
                return Err(RespError::DepthExceeded { max: MAX_DEPTH });
            }
            match n {
                0 => Element::Frame(Frame::Array(Some(Vec::new())), end),
                n => Element::Open(n as usize, end),
            }
        }
        // Array elements must be typed frames; a bare line there is a
        // protocol error, not an inline command.
        _ if depth > 0 => return Err(RespError::InlineInArray),
        _ => {
            let Some((body, end)) = parse_line(buf, pos, "inline command")? else {
                return Ok(short);
            };
            let line = buf.get(body).unwrap_or(&[]);
            let words =
                line.split(|&b| b == b' ').filter(|w| !w.is_empty()).map(|w| buf.slice_ref(w));
            Element::Frame(Frame::Inline(words.collect()), end)
        }
    };
    Ok(frame)
}

/// Encode `frame` onto `out`. Inline frames encode as their bare line.
///
/// No encoder allocates beyond the growth of `out`: numbers are formatted
/// straight into it.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Simple(s) => put_line(out, b'+', s),
        Frame::Error(s) => put_line(out, b'-', s),
        Frame::Integer(n) => put_int(out, b':', *n),
        Frame::Bulk(payload) => encode_bulk(payload.as_deref(), out),
        Frame::Array(None) => out.extend_from_slice(b"*-1\r\n"),
        Frame::Array(Some(items)) => {
            encode_array_header(items.len(), out);
            for item in items {
                encode_frame(item, out);
            }
        }
        Frame::Inline(words) => encode_inline(words, out),
    }
}

/// Encode the header of an array of `len` elements; the elements follow.
pub fn encode_array_header(len: usize, out: &mut Vec<u8>) {
    put_int(out, b'*', len as i64);
}

/// Encode a bulk string, or the nil bulk `$-1` for `None`.
pub fn encode_bulk<W: AsRef<[u8]>>(payload: Option<W>, out: &mut Vec<u8>) {
    match payload {
        None => out.extend_from_slice(b"$-1\r\n"),
        Some(payload) => {
            let payload = payload.as_ref();
            put_int(out, b'$', payload.len() as i64);
            out.extend_from_slice(payload);
            out.extend_from_slice(b"\r\n");
        }
    }
}

/// Encode `v` in decimal as a bulk string: a numeric command argument.
pub fn encode_decimal_bulk(v: u64, out: &mut Vec<u8>) {
    let digits = v.checked_ilog10().map_or(1, |d| d + 1);
    put_int(out, b'$', i64::from(digits));
    put_decimal(out, v);
    out.extend_from_slice(b"\r\n");
}

/// Encode a client command in the canonical array-of-bulks form.
pub fn encode_command<W: AsRef<[u8]>>(words: &[W], out: &mut Vec<u8>) {
    encode_array_header(words.len(), out);
    for w in words {
        encode_bulk(Some(w), out);
    }
}

/// `prefix`, `body`, CRLF: a simple or error string.
fn put_line(out: &mut Vec<u8>, prefix: u8, body: &[u8]) {
    out.push(prefix);
    out.extend_from_slice(body);
    out.extend_from_slice(b"\r\n");
}

/// `prefix`, `n` in decimal, CRLF: an integer or a length header.
fn put_int(out: &mut Vec<u8>, prefix: u8, n: i64) {
    out.push(prefix);
    if n < 0 {
        out.push(b'-');
    }
    put_decimal(out, n.unsigned_abs());
    out.extend_from_slice(b"\r\n");
}

/// Append the decimal digits of `v`.
fn put_decimal(out: &mut Vec<u8>, mut v: u64) {
    let start = out.len();
    loop {
        out.push(b'0' + (v % 10) as u8);
        v /= 10;
        if v == 0 {
            break;
        }
    }
    if let Some(digits) = out.get_mut(start..) {
        digits.reverse();
    }
}

/// Encode a client command in the inline (bare line) form.
pub fn encode_inline<W: AsRef<[u8]>>(words: &[W], out: &mut Vec<u8>) {
    for (i, w) in words.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        out.extend_from_slice(w.as_ref());
    }
    out.extend_from_slice(b"\r\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_all(bytes: &[u8]) -> Vec<Frame> {
        let mut d = Decoder::new();
        d.feed(bytes);
        let mut frames = Vec::new();
        while let Some(f) = d.next_frame().expect("well-formed stream") {
            frames.push(f);
        }
        frames
    }

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Simple(b"OK".to_vec().into()),
            Frame::Error(b"ERR wrong arity".to_vec().into()),
            Frame::Integer(0),
            Frame::Integer(-42),
            Frame::Integer(i64::MAX),
            Frame::Bulk(None),
            Frame::Bulk(Some(Bytes::new())),
            Frame::Bulk(Some(b"hello\r\nworld".to_vec().into())), // CRLF inside payload
            Frame::Array(None),
            Frame::Array(Some(vec![])),
            Frame::Array(Some(vec![
                Frame::Bulk(Some(b"GET".to_vec().into())),
                Frame::Bulk(Some(b"user000000000042".to_vec().into())),
            ])),
            Frame::Array(Some(vec![
                Frame::Integer(7),
                Frame::Array(Some(vec![Frame::Simple(b"nested".to_vec().into())])),
                Frame::Bulk(None),
            ])),
        ]
    }

    #[test]
    fn round_trip_whole_buffer() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        assert_eq!(decode_all(&wire), frames);
    }

    /// The satellite's property test: encode a frame sequence, then for
    /// every split point feed the two halves separately — the decoder
    /// must produce the identical frames at every split, proving partial
    /// reads resume without loss or duplication.
    #[test]
    fn round_trip_split_at_every_byte() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        for split in 0..=wire.len() {
            let mut d = Decoder::new();
            let mut got = Vec::new();
            d.feed(&wire[..split]);
            while let Some(f) = d.next_frame().expect("prefix is a valid partial stream") {
                got.push(f);
            }
            d.feed(&wire[split..]);
            while let Some(f) = d.next_frame().expect("completed stream is valid") {
                got.push(f);
            }
            assert_eq!(got, frames, "split at byte {split}");
        }
    }

    /// Byte-at-a-time delivery: the pathological chunking every proxy
    /// eventually produces.
    #[test]
    fn round_trip_byte_at_a_time() {
        let frames = sample_frames();
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(f, &mut wire);
        }
        let mut d = Decoder::new();
        let mut got = Vec::new();
        for &b in &wire {
            d.feed(&[b]);
            while let Some(f) = d.next_frame().expect("valid stream") {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn inline_commands_decode_and_skip_blank_lines() {
        let frames = decode_all(b"PING\r\n\r\nGET  user000000000001\r\n");
        assert_eq!(
            frames,
            vec![
                Frame::Inline(vec![b"PING".to_vec().into()]),
                Frame::Inline(vec![b"GET".to_vec().into(), b"user000000000001".to_vec().into()]),
            ]
        );
    }

    #[test]
    fn incomplete_frames_return_none_not_errors() {
        for partial in [
            &b"$10\r\nhel"[..],
            b"*2\r\n$3\r\nGET\r\n",
            b"+OK\r",
            b":12",
            b"$4\r\nhey!",
            b"$4\r\nhey!\r",
            b"*1\r\n",
        ] {
            let mut d = Decoder::new();
            d.feed(partial);
            assert_eq!(d.next_frame().expect("incomplete, not malformed"), None, "{partial:?}");
        }
    }

    #[test]
    fn malformed_frames_yield_typed_errors() {
        let cases: Vec<(&[u8], RespError)> = vec![
            (b":12a\r\n", RespError::BadInteger { what: "integer" }),
            (b"$\r\n", RespError::BadInteger { what: "bulk length" }),
            (b"$--2\r\n", RespError::BadInteger { what: "bulk length" }),
            (b"$-2\r\n", RespError::NegativeLength { what: "bulk length", got: -2 }),
            (b"*-7\r\n", RespError::NegativeLength { what: "array length", got: -7 }),
            (
                b"$99999999999\r\n",
                RespError::LengthOverflow {
                    what: "bulk length",
                    got: 99_999_999_999,
                    max: MAX_BULK_LEN,
                },
            ),
            (
                b"*9999\r\n",
                RespError::LengthOverflow { what: "array length", got: 9999, max: MAX_ARRAY_LEN },
            ),
            (b"$3\r\nabcX\r\n", RespError::MissingCrLf { what: "bulk payload" }),
            (b"+OK\rX", RespError::MissingCrLf { what: "simple string" }),
            (b"PING\nPONG", RespError::MissingCrLf { what: "inline command" }),
            (b":9223372036854775808\r\n", RespError::BadInteger { what: "integer" }),
            (b"*2\r\n$1\r\na\r\nINLINE HERE\r\n", RespError::InlineInArray),
            (
                b"*1\r\n*1\r\n*1\r\n*1\r\n*1\r\n+deep\r\n",
                RespError::DepthExceeded { max: MAX_DEPTH },
            ),
        ];
        for (wire, want) in cases {
            let mut d = Decoder::new();
            d.feed(wire);
            let got = loop {
                match d.next_frame() {
                    Ok(Some(_)) => continue,
                    Ok(None) => panic!("{wire:?}: expected an error, got incomplete"),
                    Err(e) => break e,
                }
            };
            assert_eq!(got, want, "{wire:?}");
        }
    }

    #[test]
    fn over_long_headerless_line_is_rejected_eagerly() {
        let mut d = Decoder::new();
        d.feed(&[b'x'; MAX_LINE_LEN + 2]);
        assert_eq!(d.next_frame(), Err(RespError::LineTooLong { max: MAX_LINE_LEN }));
    }

    /// The satellite's pipelining torture test: three connections, each
    /// with its own decoder, receive interleaved partial chunks of their
    /// own pipelined command streams — every connection must reassemble
    /// exactly its own frames in order.
    #[test]
    fn pipelining_torture_interleaves_partial_frames_across_three_connections() {
        let streams: Vec<Vec<Frame>> = (0..3)
            .map(|c| {
                (0..40)
                    .map(|i| match (c + i) % 4 {
                        0 => Frame::Array(Some(vec![
                            Frame::Bulk(Some(b"SET".to_vec().into())),
                            Frame::Bulk(Some(
                                format!("user{:012}", c * 1000 + i).into_bytes().into(),
                            )),
                            Frame::Bulk(Some(vec![b'a' + c as u8; 64 + i].into())),
                        ])),
                        1 => Frame::Inline(vec![b"PING".to_vec().into()]),
                        2 => Frame::Array(Some(vec![
                            Frame::Bulk(Some(b"GET".to_vec().into())),
                            Frame::Bulk(Some(
                                format!("user{:012}", c * 1000 + i).into_bytes().into(),
                            )),
                        ])),
                        _ => Frame::Bulk(Some(vec![b'z'; i].into())),
                    })
                    .collect()
            })
            .collect();
        let wires: Vec<Vec<u8>> = streams
            .iter()
            .map(|frames| {
                let mut w = Vec::new();
                for f in frames {
                    encode_frame(f, &mut w);
                }
                w
            })
            .collect();

        // Deterministic ragged interleave: connection c delivers chunks of
        // 1 + (step * 7 + c * 3) % 13 bytes, round-robin, so frame
        // boundaries land mid-chunk on every connection.
        let mut decoders = [Decoder::new(), Decoder::new(), Decoder::new()];
        let mut got: Vec<Vec<Frame>> = vec![Vec::new(), Vec::new(), Vec::new()];
        let mut offsets = [0usize; 3];
        let mut step = 0usize;
        while offsets.iter().zip(&wires).any(|(&o, w)| o < w.len()) {
            for c in 0..3 {
                let wire = &wires[c];
                if offsets[c] >= wire.len() {
                    continue;
                }
                let chunk = 1 + (step * 7 + c * 3) % 13;
                let end = (offsets[c] + chunk).min(wire.len());
                decoders[c].feed(&wire[offsets[c]..end]);
                offsets[c] = end;
                while let Some(f) = decoders[c].next_frame().expect("valid stream") {
                    got[c].push(f);
                }
                step += 1;
            }
        }
        assert_eq!(got, streams);
        assert!(decoders.iter().all(|d| d.buffered() == 0));
    }

    #[test]
    fn command_encoders_produce_decodable_forms() {
        let mut wire = Vec::new();
        encode_command(&[b"SET".as_ref(), b"k", b"v"], &mut wire);
        encode_inline(&[b"PING".as_ref()], &mut wire);
        assert_eq!(
            decode_all(&wire),
            vec![
                Frame::Array(Some(vec![
                    Frame::Bulk(Some(b"SET".to_vec().into())),
                    Frame::Bulk(Some(b"k".to_vec().into())),
                    Frame::Bulk(Some(b"v".to_vec().into())),
                ])),
                Frame::Inline(vec![b"PING".to_vec().into()]),
            ]
        );
    }
}
