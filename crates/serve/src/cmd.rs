//! Command layer: decoded RESP frames → typed commands, and typed replies
//! → wire bytes.
//!
//! The serve plane speaks a RESP2 subset. Requests arrive either as the
//! canonical array-of-bulk-strings form (`*3\r\n$3\r\nSET\r\n..`) or as
//! inline lines (`PING\r\n`); both reduce to a word list here. Two
//! documented deviations from Redis keep the store semantics honest:
//!
//! - `DEL key` always replies `:1` — PapyrusKV's delete is a tombstone
//!   write, so the store does not report whether the key existed.
//! - `RANGE start count` is index-addressed over the canonical
//!   `user%012d` keyspace (the same `ordered_key` scheme the bench plane
//!   uses) rather than taking raw key bounds; it maps to `count`
//!   ordered point reads starting at index `start` and replies with an
//!   array of values. This keeps SCAN-style traffic expressible without
//!   widening the store API.
//!
//! Like the codec, this file is swept by the panic-path lint: parsing a
//! hostile word list must return a typed [`CmdError`], never panic.

use bytes::Bytes;

use crate::resp::{encode_array_header, encode_bulk, encode_frame, Frame};

/// A parsed client command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Command {
    /// `PING` → `+PONG`.
    Ping,
    /// `INFO` → bulk string of server stats.
    Info,
    /// `GET key` → bulk value or nil.
    Get {
        /// Key to read.
        key: Bytes,
    },
    /// `SET key value` → `+OK` once durable.
    Set {
        /// Key to write.
        key: Bytes,
        /// Value to write.
        value: Bytes,
    },
    /// `DEL key` → `:1` once the tombstone is durable.
    Del {
        /// Key to delete.
        key: Bytes,
    },
    /// `EXISTS key` → `:0` / `:1`.
    Exists {
        /// Key to probe.
        key: Bytes,
    },
    /// `MGET k1 .. kn` → array of bulk-or-nil.
    MGet {
        /// Keys to read, in reply order.
        keys: Vec<Bytes>,
    },
    /// `MSET k1 v1 .. kn vn` → `+OK` once all writes are durable.
    MSet {
        /// Pairs to write.
        pairs: Vec<(Bytes, Bytes)>,
    },
    /// `RANGE start count` → array of bulk-or-nil over the ordered
    /// keyspace.
    Range {
        /// First key index.
        start: u64,
        /// Number of consecutive keys.
        count: u64,
    },
}

/// Largest accepted `RANGE` count.
pub const MAX_RANGE_COUNT: u64 = 1024;

/// Typed command-parse failures; each renders as a RESP `-ERR` reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CmdError {
    /// The frame is not a command shape (e.g. a bare integer).
    BadFrame,
    /// An array element was not a non-nil bulk string.
    NotBulk,
    /// Empty command (array of zero words).
    Empty,
    /// Verb not in the served subset.
    UnknownCommand(String),
    /// Wrong argument count for the verb.
    WrongArity(&'static str),
    /// A numeric argument did not parse or broke its limit.
    BadInt(&'static str),
}

impl std::fmt::Display for CmdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CmdError::BadFrame => write!(f, "ERR protocol: expected command frame"),
            CmdError::NotBulk => write!(f, "ERR protocol: command words must be bulk strings"),
            CmdError::Empty => write!(f, "ERR protocol: empty command"),
            CmdError::UnknownCommand(v) => write!(f, "ERR unknown command '{v}'"),
            CmdError::WrongArity(verb) => {
                write!(f, "ERR wrong number of arguments for '{verb}'")
            }
            CmdError::BadInt(what) => write!(f, "ERR value is not a valid {what}"),
        }
    }
}

impl std::error::Error for CmdError {}

/// Longest verb of the served subset (`EXISTS`).
const MAX_VERB_LEN: usize = 6;

/// Parse a decoded frame into a command.
///
/// The words are read in place from the frame and the verb is upper-cased
/// in a stack buffer. Keys and values are the frame's own slices, so the
/// only allocations are MGET's and MSET's lists.
pub fn parse_command(frame: &Frame) -> Result<Command, CmdError> {
    // One of the two slices is empty: `words` walks the frame's own words,
    // inline or bulk, without collecting them.
    let (inline, array): (&[Bytes], &[Frame]) = match frame {
        Frame::Inline(words) => (words, &[]),
        Frame::Array(Some(items)) if items.iter().all(|i| matches!(i, Frame::Bulk(Some(_)))) => {
            (&[], items)
        }
        Frame::Array(Some(_)) => return Err(CmdError::NotBulk),
        _ => return Err(CmdError::BadFrame),
    };
    let mut words = inline.iter().chain(array.iter().filter_map(|item| match item {
        Frame::Bulk(Some(w)) => Some(w),
        _ => None,
    }));
    let verb = words.next().ok_or(CmdError::Empty)?;
    let args = inline.len() + array.len() - 1;
    let mut buf = [0u8; MAX_VERB_LEN];
    // A word longer than every verb matches none of them.
    let upper: &[u8] = match buf.get_mut(..verb.len()) {
        Some(upper) => {
            upper.copy_from_slice(verb);
            upper.make_ascii_uppercase();
            upper
        }
        None => &[],
    };
    // Tuple fields are evaluated left to right: each pattern takes the
    // arguments in order and then checks that none is left.
    match upper {
        b"PING" => match words.next() {
            None => Ok(Command::Ping),
            Some(_) => Err(CmdError::WrongArity("ping")),
        },
        b"INFO" => match words.next() {
            None => Ok(Command::Info),
            Some(_) => Err(CmdError::WrongArity("info")),
        },
        b"GET" => match (words.next(), words.next()) {
            (Some(key), None) => Ok(Command::Get { key: key.clone() }),
            _ => Err(CmdError::WrongArity("get")),
        },
        b"SET" => match (words.next(), words.next(), words.next()) {
            (Some(key), Some(value), None) => {
                Ok(Command::Set { key: key.clone(), value: value.clone() })
            }
            _ => Err(CmdError::WrongArity("set")),
        },
        b"DEL" => match (words.next(), words.next()) {
            (Some(key), None) => Ok(Command::Del { key: key.clone() }),
            _ => Err(CmdError::WrongArity("del")),
        },
        b"EXISTS" => match (words.next(), words.next()) {
            (Some(key), None) => Ok(Command::Exists { key: key.clone() }),
            _ => Err(CmdError::WrongArity("exists")),
        },
        b"MGET" => {
            if args == 0 {
                return Err(CmdError::WrongArity("mget"));
            }
            let mut keys = Vec::with_capacity(args);
            keys.extend(words.cloned());
            Ok(Command::MGet { keys })
        }
        b"MSET" => {
            if args == 0 || args % 2 != 0 {
                return Err(CmdError::WrongArity("mset"));
            }
            let mut pairs = Vec::with_capacity(args / 2);
            while let (Some(key), Some(value)) = (words.next(), words.next()) {
                pairs.push((key.clone(), value.clone()));
            }
            Ok(Command::MSet { pairs })
        }
        b"RANGE" => match (words.next(), words.next(), words.next()) {
            (Some(start), Some(count), None) => {
                let start = parse_u64(start, "range start")?;
                let count = parse_u64(count, "range count")?;
                if count > MAX_RANGE_COUNT {
                    return Err(CmdError::BadInt("range count"));
                }
                Ok(Command::Range { start, count })
            }
            _ => Err(CmdError::WrongArity("range")),
        },
        _ => Err(CmdError::UnknownCommand(String::from_utf8_lossy(verb).to_ascii_uppercase())),
    }
}

fn parse_u64(word: &[u8], what: &'static str) -> Result<u64, CmdError> {
    if word.is_empty() {
        return Err(CmdError::BadInt(what));
    }
    let mut v: u64 = 0;
    for &b in word {
        if !b.is_ascii_digit() {
            return Err(CmdError::BadInt(what));
        }
        v = v
            .checked_mul(10)
            .and_then(|v| v.checked_add((b - b'0') as u64))
            .ok_or(CmdError::BadInt(what))?;
    }
    Ok(v)
}

/// Number of individual store operations a command expands to; `RANGE`
/// counts one per key it touches.
pub fn op_count(cmd: &Command) -> u64 {
    match cmd {
        Command::Ping | Command::Info => 0,
        Command::Get { .. }
        | Command::Set { .. }
        | Command::Del { .. }
        | Command::Exists { .. } => 1,
        Command::MGet { keys } => keys.len() as u64,
        Command::MSet { pairs } => pairs.len() as u64,
        Command::Range { count, .. } => *count,
    }
}

/// A typed server reply; encoded onto the wire by [`encode_reply`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// `+OK`.
    Ok,
    /// `+PONG`.
    Pong,
    /// Bulk value or `$-1` nil.
    Bulk(Option<Vec<u8>>),
    /// `:n`.
    Int(i64),
    /// Array of bulk-or-nil (MGET/RANGE).
    Arr(Vec<Option<Vec<u8>>>),
    /// `-ERR ..`.
    Err(String),
    /// INFO text, encoded as one bulk string.
    Info(String),
}

/// Encode a reply onto `out` in RESP form, payloads copied straight from
/// the reply.
pub fn encode_reply(reply: &Reply, out: &mut Vec<u8>) {
    match reply {
        Reply::Ok => out.extend_from_slice(b"+OK\r\n"),
        Reply::Pong => out.extend_from_slice(b"+PONG\r\n"),
        Reply::Bulk(v) => encode_bulk(v.as_deref(), out),
        Reply::Int(n) => encode_frame(&Frame::Integer(*n), out),
        Reply::Arr(items) => {
            encode_array_header(items.len(), out);
            for v in items {
                encode_bulk(v.as_deref(), out);
            }
        }
        Reply::Err(msg) => {
            out.push(b'-');
            out.extend_from_slice(msg.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
        Reply::Info(text) => encode_bulk(Some(text), out),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resp::{encode_command, Decoder};

    fn parse_words(words: &[&[u8]]) -> Result<Command, CmdError> {
        let mut wire = Vec::new();
        encode_command(words, &mut wire);
        let mut d = Decoder::new();
        d.feed(&wire);
        let frame = d.next_frame().unwrap().unwrap();
        parse_command(&frame)
    }

    #[test]
    fn parses_the_served_subset() {
        assert_eq!(parse_words(&[b"PING"]), Ok(Command::Ping));
        assert_eq!(parse_words(&[b"info"]), Ok(Command::Info));
        assert_eq!(
            parse_words(&[b"get", b"k"]),
            Ok(Command::Get { key: Bytes::from_static(b"k") })
        );
        assert_eq!(
            parse_words(&[b"SeT", b"k", b"v"]),
            Ok(Command::Set { key: Bytes::from_static(b"k"), value: Bytes::from_static(b"v") })
        );
        assert_eq!(
            parse_words(&[b"DEL", b"k"]),
            Ok(Command::Del { key: Bytes::from_static(b"k") })
        );
        assert_eq!(
            parse_words(&[b"EXISTS", b"k"]),
            Ok(Command::Exists { key: Bytes::from_static(b"k") })
        );
        assert_eq!(
            parse_words(&[b"MGET", b"a", b"b"]),
            Ok(Command::MGet { keys: vec![Bytes::from_static(b"a"), Bytes::from_static(b"b")] })
        );
        assert_eq!(
            parse_words(&[b"MSET", b"a", b"1", b"b", b"2"]),
            Ok(Command::MSet {
                pairs: vec![
                    (Bytes::from_static(b"a"), Bytes::from_static(b"1")),
                    (Bytes::from_static(b"b"), Bytes::from_static(b"2"))
                ]
            })
        );
        assert_eq!(
            parse_words(&[b"RANGE", b"10", b"4"]),
            Ok(Command::Range { start: 10, count: 4 })
        );
    }

    #[test]
    fn inline_form_parses_too() {
        let frame = Frame::Inline(vec![Bytes::from_static(b"GET"), Bytes::from_static(b"k")]);
        assert_eq!(parse_command(&frame), Ok(Command::Get { key: Bytes::from_static(b"k") }));
    }

    #[test]
    fn rejects_malformed_commands_with_typed_errors() {
        assert_eq!(parse_words(&[b"GET"]), Err(CmdError::WrongArity("get")));
        assert_eq!(parse_words(&[b"SET", b"k"]), Err(CmdError::WrongArity("set")));
        assert_eq!(parse_words(&[b"MSET", b"k", b"v", b"x"]), Err(CmdError::WrongArity("mset")));
        assert_eq!(parse_words(&[b"MGET"]), Err(CmdError::WrongArity("mget")));
        assert_eq!(parse_words(&[b"FLUSHALL"]), Err(CmdError::UnknownCommand("FLUSHALL".into())));
        assert_eq!(parse_words(&[b"RANGE", b"x", b"4"]), Err(CmdError::BadInt("range start")));
        assert_eq!(
            parse_words(&[b"RANGE", b"0", b"99999999"]),
            Err(CmdError::BadInt("range count"))
        );
        assert_eq!(parse_command(&Frame::Integer(3)), Err(CmdError::BadFrame));
        assert_eq!(
            parse_command(&Frame::Array(Some(vec![Frame::Integer(1)]))),
            Err(CmdError::NotBulk)
        );
        assert_eq!(parse_command(&Frame::Array(Some(vec![]))), Err(CmdError::Empty));
    }

    #[test]
    fn replies_round_trip_through_the_codec() {
        let bulk = |s: &'static [u8]| Some(Bytes::from_static(s));
        let replies = vec![
            (Reply::Ok, Frame::Simple(Bytes::from_static(b"OK"))),
            (Reply::Pong, Frame::Simple(Bytes::from_static(b"PONG"))),
            (Reply::Bulk(None), Frame::Bulk(None)),
            (Reply::Bulk(Some(b"value".to_vec())), Frame::Bulk(bulk(b"value"))),
            (Reply::Int(1), Frame::Integer(1)),
            (
                Reply::Arr(vec![Some(b"a".to_vec()), None, Some(b"c".to_vec())]),
                Frame::Array(Some(vec![
                    Frame::Bulk(bulk(b"a")),
                    Frame::Bulk(None),
                    Frame::Bulk(bulk(b"c")),
                ])),
            ),
            (
                Reply::Err("ERR wrong number of arguments for 'get'".into()),
                Frame::Error(Bytes::from_static(b"ERR wrong number of arguments for 'get'")),
            ),
        ];
        let mut wire = Vec::new();
        for (r, _) in &replies {
            encode_reply(r, &mut wire);
        }
        let mut d = Decoder::new();
        d.feed(&wire);
        let mut got = Vec::new();
        while let Some(f) = d.next_frame().unwrap() {
            got.push(f);
        }
        assert_eq!(got, replies.into_iter().map(|(_, f)| f).collect::<Vec<_>>());
    }

    #[test]
    fn info_encodes_as_bulk() {
        let mut wire = Vec::new();
        encode_reply(&Reply::Info("serve_version:1".into()), &mut wire);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert_eq!(
            d.next_frame().unwrap().unwrap(),
            Frame::Bulk(Some(Bytes::from_static(b"serve_version:1")))
        );
    }
}
