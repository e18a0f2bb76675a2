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
//! (pinned by the `panic-path` lint, which sweeps this file's public
//! surface). Payloads are carved out of the receive buffer in a single
//! copy: resumption after a partial read re-scans only the frame header,
//! never the payload bytes, so a 1 MiB bulk split across a thousand reads
//! costs one memmove, not a thousand.
//!
//! Protocol errors poison the connection from the caller's point of view:
//! the decoder leaves its cursor where the error was found, and the serve
//! plane drops the connection (mirroring Redis, which closes on a
//! protocol error rather than trying to resynchronise).

/// Largest accepted bulk-string payload.
pub const MAX_BULK_LEN: i64 = 8 << 20;
/// Largest accepted array arity.
pub const MAX_ARRAY_LEN: i64 = 1024;
/// Deepest accepted array nesting.
pub const MAX_DEPTH: usize = 4;
/// Longest accepted header/inline line (excluding the CRLF).
pub const MAX_LINE_LEN: usize = 8 << 10;

/// One decoded RESP frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// `+..\r\n` simple string.
    Simple(Vec<u8>),
    /// `-..\r\n` error string.
    Error(Vec<u8>),
    /// `:n\r\n` integer.
    Integer(i64),
    /// `$n\r\n..\r\n` bulk string; `None` is the `$-1\r\n` nil.
    Bulk(Option<Vec<u8>>),
    /// `*n\r\n..` array; `None` is the `*-1\r\n` nil array.
    Array(Option<Vec<Frame>>),
    /// A bare command line, split into space-separated words.
    Inline(Vec<Vec<u8>>),
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

/// Incremental frame decoder over an internal receive buffer.
#[derive(Debug, Default)]
pub struct Decoder {
    buf: Vec<u8>,
    pos: usize,
}

impl Decoder {
    /// Fresh decoder with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Append newly received bytes (any chunking).
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet consumed by a completed frame.
    pub fn buffered(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// Decode the next complete frame, if the buffer holds one. Empty
    /// inline lines (a bare `\r\n`) are skipped, as in Redis.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, RespError> {
        loop {
            match parse_frame(&self.buf, self.pos, 0)? {
                None => {
                    self.compact();
                    return Ok(None);
                }
                Some((Frame::Inline(words), end)) if words.is_empty() => {
                    self.pos = end;
                }
                Some((frame, end)) => {
                    self.pos = end;
                    self.compact();
                    return Ok(Some(frame));
                }
            }
        }
    }

    /// Reclaim consumed prefix once it dominates the buffer, so long-lived
    /// pipelined connections don't grow without bound.
    fn compact(&mut self) {
        if self.pos >= 4096 && self.pos * 2 >= self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// Find the end of the line starting at `from`: returns the line body and
/// the cursor past its CRLF.
fn parse_line(buf: &[u8], from: usize, what: &'static str) -> Partial<std::ops::Range<usize>> {
    let mut i = from;
    loop {
        match buf.get(i) {
            None => {
                // No terminator yet. An over-long headerless tail is
                // rejected eagerly so a garbage stream cannot buffer 8 MiB
                // before erroring.
                if i - from > MAX_LINE_LEN {
                    return Err(RespError::LineTooLong { max: MAX_LINE_LEN });
                }
                return Ok(None);
            }
            Some(b'\n') => return Err(RespError::MissingCrLf { what }),
            Some(b'\r') => match buf.get(i + 1) {
                None => return Ok(None),
                Some(b'\n') => return Ok(Some((from..i, i + 2))),
                Some(_) => return Err(RespError::MissingCrLf { what }),
            },
            Some(_) if i - from > MAX_LINE_LEN => {
                return Err(RespError::LineTooLong { max: MAX_LINE_LEN })
            }
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

/// Resumable frame parse starting at `pos`. `depth` counts array nesting.
fn parse_frame(buf: &[u8], pos: usize, depth: usize) -> Partial<Frame> {
    let Some(&first) = buf.get(pos) else { return Ok(None) };
    match first {
        b'+' | b'-' | b':' => {
            let what = match first {
                b'+' => "simple string",
                b'-' => "error string",
                _ => "integer",
            };
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(None) };
            let body = buf.get(body).unwrap_or(&[]);
            let frame = match first {
                b'+' => Frame::Simple(body.to_vec()),
                b'-' => Frame::Error(body.to_vec()),
                _ => Frame::Integer(parse_int(body, what)?),
            };
            Ok(Some((frame, end)))
        }
        b'$' => {
            let what = "bulk length";
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(None) };
            let n = parse_int(buf.get(body).unwrap_or(&[]), what)?;
            if n == -1 {
                return Ok(Some((Frame::Bulk(None), end)));
            }
            if n < -1 {
                return Err(RespError::NegativeLength { what, got: n });
            }
            if n > MAX_BULK_LEN {
                return Err(RespError::LengthOverflow { what, got: n, max: MAX_BULK_LEN });
            }
            let len = n as usize;
            // Single-copy carve-out: the payload is sliced straight from
            // the receive buffer once all its bytes (and the trailing
            // CRLF) have arrived.
            let Some(payload) = buf.get(end..end + len) else { return Ok(None) };
            match (buf.get(end + len), buf.get(end + len + 1)) {
                (Some(b'\r'), Some(b'\n')) => {
                    Ok(Some((Frame::Bulk(Some(payload.to_vec())), end + len + 2)))
                }
                (None, _) | (Some(b'\r'), None) => Ok(None),
                _ => Err(RespError::MissingCrLf { what: "bulk payload" }),
            }
        }
        b'*' => {
            let what = "array length";
            let Some((body, end)) = parse_line(buf, pos + 1, what)? else { return Ok(None) };
            let n = parse_int(buf.get(body).unwrap_or(&[]), what)?;
            if n == -1 {
                return Ok(Some((Frame::Array(None), end)));
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
            let mut items = Vec::with_capacity(n as usize);
            let mut cursor = end;
            for _ in 0..n {
                // Array elements must be typed frames; a bare line here is
                // a protocol error, not an inline command.
                match buf.get(cursor) {
                    None => return Ok(None),
                    Some(b'+' | b'-' | b':' | b'$' | b'*') => {}
                    Some(_) => return Err(RespError::InlineInArray),
                }
                let Some((item, next)) = parse_frame(buf, cursor, depth + 1)? else {
                    return Ok(None);
                };
                items.push(item);
                cursor = next;
            }
            Ok(Some((Frame::Array(Some(items)), cursor)))
        }
        _ => {
            let Some((body, end)) = parse_line(buf, pos, "inline command")? else {
                return Ok(None);
            };
            let body = buf.get(body).unwrap_or(&[]);
            let words =
                body.split(|&b| b == b' ').filter(|w| !w.is_empty()).map(|w| w.to_vec()).collect();
            Ok(Some((Frame::Inline(words), end)))
        }
    }
}

/// Encode `frame` onto `out`. Inline frames encode as their bare line.
pub fn encode_frame(frame: &Frame, out: &mut Vec<u8>) {
    match frame {
        Frame::Simple(s) => {
            out.push(b'+');
            out.extend_from_slice(s);
            out.extend_from_slice(b"\r\n");
        }
        Frame::Error(s) => {
            out.push(b'-');
            out.extend_from_slice(s);
            out.extend_from_slice(b"\r\n");
        }
        Frame::Integer(n) => {
            out.push(b':');
            out.extend_from_slice(n.to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Frame::Bulk(None) => out.extend_from_slice(b"$-1\r\n"),
        Frame::Bulk(Some(payload)) => {
            out.push(b'$');
            out.extend_from_slice(payload.len().to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
            out.extend_from_slice(payload);
            out.extend_from_slice(b"\r\n");
        }
        Frame::Array(None) => out.extend_from_slice(b"*-1\r\n"),
        Frame::Array(Some(items)) => {
            out.push(b'*');
            out.extend_from_slice(items.len().to_string().as_bytes());
            out.extend_from_slice(b"\r\n");
            for item in items {
                encode_frame(item, out);
            }
        }
        Frame::Inline(words) => encode_inline(words, out),
    }
}

/// Encode a client command in the canonical array-of-bulks form.
pub fn encode_command<W: AsRef<[u8]>>(words: &[W], out: &mut Vec<u8>) {
    out.push(b'*');
    out.extend_from_slice(words.len().to_string().as_bytes());
    out.extend_from_slice(b"\r\n");
    for w in words {
        let w = w.as_ref();
        out.push(b'$');
        out.extend_from_slice(w.len().to_string().as_bytes());
        out.extend_from_slice(b"\r\n");
        out.extend_from_slice(w);
        out.extend_from_slice(b"\r\n");
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
            Frame::Simple(b"OK".to_vec()),
            Frame::Error(b"ERR wrong arity".to_vec()),
            Frame::Integer(0),
            Frame::Integer(-42),
            Frame::Integer(i64::MAX),
            Frame::Bulk(None),
            Frame::Bulk(Some(Vec::new())),
            Frame::Bulk(Some(b"hello\r\nworld".to_vec())), // CRLF inside payload
            Frame::Array(None),
            Frame::Array(Some(vec![])),
            Frame::Array(Some(vec![
                Frame::Bulk(Some(b"GET".to_vec())),
                Frame::Bulk(Some(b"user000000000042".to_vec())),
            ])),
            Frame::Array(Some(vec![
                Frame::Integer(7),
                Frame::Array(Some(vec![Frame::Simple(b"nested".to_vec())])),
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
                Frame::Inline(vec![b"PING".to_vec()]),
                Frame::Inline(vec![b"GET".to_vec(), b"user000000000001".to_vec()]),
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
        d.feed(&vec![b'x'; MAX_LINE_LEN + 2]);
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
                            Frame::Bulk(Some(b"SET".to_vec())),
                            Frame::Bulk(Some(format!("user{:012}", c * 1000 + i).into_bytes())),
                            Frame::Bulk(Some(vec![b'a' + c as u8; 64 + i])),
                        ])),
                        1 => Frame::Inline(vec![b"PING".to_vec()]),
                        2 => Frame::Array(Some(vec![
                            Frame::Bulk(Some(b"GET".to_vec())),
                            Frame::Bulk(Some(format!("user{:012}", c * 1000 + i).into_bytes())),
                        ])),
                        _ => Frame::Bulk(Some(vec![b'z'; i])),
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
                    Frame::Bulk(Some(b"SET".to_vec())),
                    Frame::Bulk(Some(b"k".to_vec())),
                    Frame::Bulk(Some(b"v".to_vec())),
                ])),
                Frame::Inline(vec![b"PING".to_vec()]),
            ]
        );
    }
}
