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
        key: Vec<u8>,
    },
    /// `SET key value` → `+OK` once durable.
    Set {
        /// Key to write.
        key: Vec<u8>,
        /// Value to write.
        value: Vec<u8>,
    },
    /// `DEL key` → `:1` once the tombstone is durable.
    Del {
        /// Key to delete.
        key: Vec<u8>,
    },
    /// `EXISTS key` → `:0` / `:1`.
    Exists {
        /// Key to probe.
        key: Vec<u8>,
    },
    /// `MGET k1 .. kn` → array of bulk-or-nil.
    MGet {
        /// Keys to read, in reply order.
        keys: Vec<Vec<u8>>,
    },
    /// `MSET k1 v1 .. kn vn` → `+OK` once all writes are durable.
    MSet {
        /// Pairs to write.
        pairs: Vec<(Vec<u8>, Vec<u8>)>,
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
/// in a stack buffer, so the only allocations are the command's own keys,
/// values and key lists.
pub fn parse_command(frame: &Frame) -> Result<Command, CmdError> {
    // One of the two slices is empty: `words` walks the frame's own words,
    // inline or bulk, without collecting them.
    let (inline, array): (&[Vec<u8>], &[Frame]) = match frame {
        Frame::Inline(words) => (words, &[]),
        Frame::Array(Some(items)) if items.iter().all(|i| matches!(i, Frame::Bulk(Some(_)))) => {
            (&[], items)
        }
        Frame::Array(Some(_)) => return Err(CmdError::NotBulk),
        _ => return Err(CmdError::BadFrame),
    };
    let mut words =
        inline.iter().map(Vec::as_slice).chain(array.iter().filter_map(|item| match item {
            Frame::Bulk(Some(w)) => Some(w.as_slice()),
            _ => None,
        }));
    let verb = words.next().ok_or(CmdError::Empty)?;
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
    match upper {
        b"PING" => match exactly::<0>(words) {
            Some([]) => Ok(Command::Ping),
            None => Err(CmdError::WrongArity("ping")),
        },
        b"INFO" => match exactly::<0>(words) {
            Some([]) => Ok(Command::Info),
            None => Err(CmdError::WrongArity("info")),
        },
        b"GET" => match exactly::<1>(words) {
            Some([key]) => Ok(Command::Get { key: key.to_vec() }),
            None => Err(CmdError::WrongArity("get")),
        },
        b"SET" => match exactly::<2>(words) {
            Some([key, value]) => Ok(Command::Set { key: key.to_vec(), value: value.to_vec() }),
            None => Err(CmdError::WrongArity("set")),
        },
        b"DEL" => match exactly::<1>(words) {
            Some([key]) => Ok(Command::Del { key: key.to_vec() }),
            None => Err(CmdError::WrongArity("del")),
        },
        b"EXISTS" => match exactly::<1>(words) {
            Some([key]) => Ok(Command::Exists { key: key.to_vec() }),
            None => Err(CmdError::WrongArity("exists")),
        },
        b"MGET" => {
            let keys: Vec<Vec<u8>> = words.map(<[u8]>::to_vec).collect();
            if keys.is_empty() {
                return Err(CmdError::WrongArity("mget"));
            }
            Ok(Command::MGet { keys })
        }
        b"MSET" => {
            let mut pairs = Vec::new();
            while let Some(key) = words.next() {
                let value = words.next().ok_or(CmdError::WrongArity("mset"))?;
                pairs.push((key.to_vec(), value.to_vec()));
            }
            if pairs.is_empty() {
                return Err(CmdError::WrongArity("mset"));
            }
            Ok(Command::MSet { pairs })
        }
        b"RANGE" => match exactly::<2>(words) {
            Some([start, count]) => {
                let start = parse_u64(start, "range start")?;
                let count = parse_u64(count, "range count")?;
                if count > MAX_RANGE_COUNT {
                    return Err(CmdError::BadInt("range count"));
                }
                Ok(Command::Range { start, count })
            }
            None => Err(CmdError::WrongArity("range")),
        },
        _ => Err(CmdError::UnknownCommand(String::from_utf8_lossy(verb).to_ascii_uppercase())),
    }
}

/// The remaining words as exactly `N` arguments; `None` for any other count.
fn exactly<'a, const N: usize>(mut words: impl Iterator<Item = &'a [u8]>) -> Option<[&'a [u8]; N]> {
    let mut args: [&[u8]; N] = [&[]; N];
    for arg in &mut args {
        *arg = words.next()?;
    }
    words.next().is_none().then_some(args)
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

/// Decode a reply frame back into the typed form — the loadgen's client
/// side uses this to check reply shape and ordering. Payloads move from
/// the frame into the reply.
pub fn reply_from_frame(frame: Frame) -> Result<Reply, CmdError> {
    match frame {
        Frame::Simple(s) if s == b"OK" => Ok(Reply::Ok),
        Frame::Simple(s) if s == b"PONG" => Ok(Reply::Pong),
        Frame::Error(msg) => Ok(Reply::Err(String::from_utf8_lossy(&msg).into_owned())),
        Frame::Integer(n) => Ok(Reply::Int(n)),
        Frame::Bulk(v) => Ok(Reply::Bulk(v)),
        Frame::Array(Some(items)) => {
            let mut out = Vec::with_capacity(items.len());
            for item in items {
                match item {
                    Frame::Bulk(v) => out.push(v),
                    _ => return Err(CmdError::BadFrame),
                }
            }
            Ok(Reply::Arr(out))
        }
        _ => Err(CmdError::BadFrame),
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
        assert_eq!(parse_words(&[b"get", b"k"]), Ok(Command::Get { key: b"k".to_vec() }));
        assert_eq!(
            parse_words(&[b"SeT", b"k", b"v"]),
            Ok(Command::Set { key: b"k".to_vec(), value: b"v".to_vec() })
        );
        assert_eq!(parse_words(&[b"DEL", b"k"]), Ok(Command::Del { key: b"k".to_vec() }));
        assert_eq!(parse_words(&[b"EXISTS", b"k"]), Ok(Command::Exists { key: b"k".to_vec() }));
        assert_eq!(
            parse_words(&[b"MGET", b"a", b"b"]),
            Ok(Command::MGet { keys: vec![b"a".to_vec(), b"b".to_vec()] })
        );
        assert_eq!(
            parse_words(&[b"MSET", b"a", b"1", b"b", b"2"]),
            Ok(Command::MSet {
                pairs: vec![(b"a".to_vec(), b"1".to_vec()), (b"b".to_vec(), b"2".to_vec())]
            })
        );
        assert_eq!(
            parse_words(&[b"RANGE", b"10", b"4"]),
            Ok(Command::Range { start: 10, count: 4 })
        );
    }

    #[test]
    fn inline_form_parses_too() {
        let frame = Frame::Inline(vec![b"GET".to_vec(), b"k".to_vec()]);
        assert_eq!(parse_command(&frame), Ok(Command::Get { key: b"k".to_vec() }));
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
        let replies = vec![
            Reply::Ok,
            Reply::Pong,
            Reply::Bulk(None),
            Reply::Bulk(Some(b"value".to_vec())),
            Reply::Int(1),
            Reply::Arr(vec![Some(b"a".to_vec()), None, Some(b"c".to_vec())]),
            Reply::Err("ERR wrong number of arguments for 'get'".into()),
        ];
        let mut wire = Vec::new();
        for r in &replies {
            encode_reply(r, &mut wire);
        }
        let mut d = Decoder::new();
        d.feed(&wire);
        let mut got = Vec::new();
        while let Some(f) = d.next_frame().unwrap() {
            got.push(reply_from_frame(f).unwrap());
        }
        assert_eq!(got, replies);
    }

    #[test]
    fn info_encodes_as_bulk() {
        let mut wire = Vec::new();
        encode_reply(&Reply::Info("serve_version:1".into()), &mut wire);
        let mut d = Decoder::new();
        d.feed(&wire);
        assert_eq!(
            d.next_frame().unwrap().unwrap(),
            Frame::Bulk(Some(b"serve_version:1".to_vec()))
        );
    }
}
