//! The checksummed line envelope shared by every append-only record file:
//! the performance ledger and the stage-cache manifest.
//!
//! ```text
//! v1 <fnv1a64 hex> <body>\n
//! ```
//!
//! The checksum is [`fnv1a64`] over the body bytes, rendered by
//! [`hash_hex`]; the body is one line of compact JSON. [`seal`] frames a
//! body and [`open`] validates a newline-stripped line back into it, so
//! the envelope has exactly one writer and one reader.

use std::fmt;

/// Version tag prefixing every record line.
pub const RECORD_TAG: &str = "v1";

/// FNV-1a 64-bit hash — the workspace's content-addressing and record
/// checksum primitive. Stable across platforms and releases by
/// construction (pure integer arithmetic over bytes). `ffet_core::ckpt`
/// re-exports it for the stage cache's blob addresses.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_fold(FNV1A64_START, bytes)
}

/// The [`fnv1a64`] state before any byte (the FNV-1a offset basis).
pub const FNV1A64_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into the [`fnv1a64`] state `h`, in order. Folding a
/// byte stream piece by piece, from [`FNV1A64_START`], gives the hash of
/// the whole stream, so a writer or reader can hash the bytes it
/// produces or consumes without a second pass over them.
#[inline]
#[must_use]
pub fn fnv1a64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// 16-digit zero-padded lowercase hex rendering of a hash.
#[must_use]
pub fn hash_hex(h: u64) -> String {
    format!("{h:016x}")
}

/// Why [`open`] rejected a line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordError {
    /// The line does not start with the [`RECORD_TAG`] and a space.
    Tag,
    /// No space separates the checksum from the body.
    Separator,
    /// The checksum does not match the body.
    Checksum,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RecordError::Tag => "not a v1 record",
            RecordError::Separator => "record has no checksum separator",
            RecordError::Checksum => "record checksum mismatch",
        })
    }
}

/// Frames `body` as one record line, trailing newline included.
#[must_use]
pub fn seal(body: &str) -> String {
    format!(
        "{RECORD_TAG} {} {body}\n",
        hash_hex(fnv1a64(body.as_bytes()))
    )
}

/// Validates one newline-stripped record line and returns its body.
///
/// # Errors
///
/// A wrong tag, a missing checksum separator, or a checksum that does not
/// match the body.
pub fn open(line: &str) -> Result<&str, RecordError> {
    let rest = line
        .strip_prefix(RECORD_TAG)
        .and_then(|r| r.strip_prefix(' '))
        .ok_or(RecordError::Tag)?;
    let (crc, body) = rest.split_once(' ').ok_or(RecordError::Separator)?;
    if hash_hex(fnv1a64(body.as_bytes())) != crc {
        return Err(RecordError::Checksum);
    }
    Ok(body)
}
