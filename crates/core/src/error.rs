//! Error codes mirroring the PapyrusKV C API's 32-bit return codes.

use std::fmt;

/// Result alias used throughout the crate.
pub type Result<T> = std::result::Result<T, Error>;

/// PapyrusKV error conditions.
///
/// The C API returns `PAPYRUSKV_SUCCESS`, `PAPYRUSKV_INVALID_DB`,
/// `PAPYRUSKV_NOT_FOUND`, etc.; [`Error::code`] recovers those numeric codes
/// for API-compatibility tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Operation on a closed or unknown database handle.
    InvalidDb,
    /// `get`/`delete` on a key that does not exist (or is tombstoned).
    NotFound,
    /// Write attempted while the database is protected `PAPYRUSKV_RDONLY`,
    /// or read attempted under `PAPYRUSKV_WRONLY` where disallowed.
    Protected,
    /// Malformed argument (empty key, zero ranks, bad flag combination).
    InvalidArgument(&'static str),
    /// Checkpoint/restart could not find or parse a snapshot.
    InvalidSnapshot(String),
    /// Internal runtime failure (wire-format corruption, missing object).
    Internal(String),
    /// The rank owning the touched key range is dead (failure detector
    /// confirmed it). Local and surviving-rank keys stay serviceable;
    /// retrying against the same rank will keep failing until restart.
    RankUnavailable(usize),
    /// NVM device out of space (`ENOSPC`). Recoverable: the operation that
    /// surfaced it (checkpoint, flush, compaction) can be retried after
    /// space is reclaimed; no committed state was lost.
    StorageFull(String),
    /// A remote operation exhausted its retry/backoff budget without the
    /// peer being confirmed dead.
    Timeout(String),
    /// The persistence promise could not be kept: a torn manifest, a
    /// manifest-listed SSTable or a snapshot triple that is missing or
    /// unreadable, a live table a compaction could not read. Open and
    /// restart still return the database composed from what exists (erroring
    /// out of a collective would strand the peers) and the compaction is
    /// skipped with its inputs left live; this is how they say acknowledged
    /// data may be gone. Delivered through [`crate::Db::take_io_errors`].
    DataLoss(String),
}

impl Error {
    /// The C API's numeric code for this error. `PAPYRUSKV_SUCCESS` (0) is
    /// represented by `Ok(..)` and has no `Error` value.
    pub fn code(&self) -> i32 {
        match self {
            Error::InvalidDb => -1,
            Error::NotFound => -2,
            Error::Protected => -3,
            Error::InvalidArgument(_) => -4,
            Error::InvalidSnapshot(_) => -5,
            Error::Internal(_) => -6,
            Error::RankUnavailable(_) => -7,
            Error::StorageFull(_) => -8,
            Error::Timeout(_) => -9,
            Error::DataLoss(_) => -10,
        }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidDb => write!(f, "PAPYRUSKV_INVALID_DB"),
            Error::NotFound => write!(f, "PAPYRUSKV_NOT_FOUND"),
            Error::Protected => write!(f, "PAPYRUSKV_PROTECTED"),
            Error::InvalidArgument(what) => write!(f, "PAPYRUSKV_INVALID_ARGUMENT: {what}"),
            Error::InvalidSnapshot(what) => write!(f, "PAPYRUSKV_INVALID_SNAPSHOT: {what}"),
            Error::Internal(what) => write!(f, "PAPYRUSKV_INTERNAL: {what}"),
            Error::RankUnavailable(rank) => {
                write!(f, "PAPYRUSKV_RANK_UNAVAILABLE: rank {rank}")
            }
            Error::StorageFull(what) => write!(f, "PAPYRUSKV_STORAGE_FULL: {what}"),
            Error::Timeout(what) => write!(f, "PAPYRUSKV_TIMEOUT: {what}"),
            Error::DataLoss(what) => write!(f, "PAPYRUSKV_DATA_LOSS: {what}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct_and_negative() {
        let errs = [
            Error::InvalidDb,
            Error::NotFound,
            Error::Protected,
            Error::InvalidArgument("x"),
            Error::InvalidSnapshot("y".into()),
            Error::Internal("z".into()),
            Error::RankUnavailable(3),
            Error::StorageFull("w".into()),
            Error::Timeout("t".into()),
            Error::DataLoss("d".into()),
        ];
        let mut codes: Vec<i32> = errs.iter().map(Error::code).collect();
        assert!(codes.iter().all(|&c| c < 0));
        codes.sort_unstable();
        codes.dedup();
        assert_eq!(codes.len(), errs.len());
    }

    #[test]
    fn display_names_match_c_api() {
        assert_eq!(Error::NotFound.to_string(), "PAPYRUSKV_NOT_FOUND");
        assert_eq!(Error::InvalidDb.to_string(), "PAPYRUSKV_INVALID_DB");
        assert_eq!(Error::RankUnavailable(2).to_string(), "PAPYRUSKV_RANK_UNAVAILABLE: rank 2");
        assert_eq!(Error::StorageFull("ckpt".into()).to_string(), "PAPYRUSKV_STORAGE_FULL: ckpt");
        assert_eq!(Error::DataLoss("sst 3".into()).to_string(), "PAPYRUSKV_DATA_LOSS: sst 3");
    }
}
