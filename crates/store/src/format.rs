//! The versioned on-disk snapshot format.
//!
//! A snapshot file is three sections, in order:
//!
//! ```text
//! e3snap 1\n                  magic + format version
//! {header JSON}\n             SnapshotHeader: fingerprint, generation,
//!                             payload length, payload checksum
//! {payload JSON}              the serialized run state
//! ```
//!
//! The header carries the payload's byte length and FNV-1a 64
//! checksum, so every corruption mode a power cut can leave behind is
//! detectable without trusting anything beyond the first line:
//!
//! * a *short write* truncates inside the magic or header — the file
//!   fails to parse;
//! * a *torn write* truncates inside the payload — `payload_len`
//!   disagrees with the bytes actually present;
//! * silent *bit corruption* in the payload — the checksum disagrees.
//!
//! Recovery treats any of these as "not a snapshot" and moves on to
//! the next newest file; see [`crate::RunStore::recover`].

use serde::{Deserialize, Serialize};

/// Current snapshot format version. Bump when the layout changes.
pub const FORMAT_VERSION: u32 = 1;

/// Magic line opening every snapshot file.
pub const MAGIC: &str = "e3snap";

/// Identity of the run a snapshot belongs to. Snapshots from a
/// different configuration, backend, or seed must never be resumed
/// into the wrong run — the store refuses them at recovery time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunFingerprint {
    /// FNV-1a 64 hash of the canonical run-configuration JSON
    /// (excluding fields that do not affect results, e.g. thread
    /// count and the checkpoint policy itself).
    pub config_hash: u64,
    /// Backend display name (`"E3-CPU"`, `"E3-GPU"`, `"E3-INAX"`).
    pub backend: String,
    /// The run seed.
    pub seed: u64,
}

/// Parsed first-section metadata of a snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Format version the file was written with.
    pub format_version: u32,
    /// Which run this snapshot belongs to.
    pub fingerprint: RunFingerprint,
    /// Generation the captured state had completed.
    pub generation: usize,
    /// Best fitness seen so far (`None` when non-finite or absent —
    /// the vendored JSON encoder maps non-finite floats to null).
    pub best_fitness: Option<f64>,
    /// Exact byte length of the payload section.
    pub payload_len: u64,
    /// FNV-1a 64 checksum of the payload bytes.
    pub payload_fnv: u64,
}

/// Why a snapshot file failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file does not begin with the `e3snap` magic line.
    BadMagic,
    /// The magic line carries an unsupported format version.
    UnsupportedVersion(String),
    /// The header line is missing or not valid header JSON.
    BadHeader(String),
    /// The payload is shorter than the header promises (torn write).
    TruncatedPayload {
        /// Bytes the header declared.
        expected: u64,
        /// Bytes actually present.
        found: u64,
    },
    /// The payload bytes hash to a different checksum (corruption).
    ChecksumMismatch {
        /// Checksum the header declared.
        expected: u64,
        /// Checksum of the bytes actually present.
        found: u64,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::BadMagic => write!(f, "missing `{MAGIC}` magic line"),
            FormatError::UnsupportedVersion(v) => write!(f, "unsupported format version `{v}`"),
            FormatError::BadHeader(msg) => write!(f, "invalid snapshot header: {msg}"),
            FormatError::TruncatedPayload { expected, found } => {
                write!(
                    f,
                    "torn payload: header promises {expected} B, found {found} B"
                )
            }
            FormatError::ChecksumMismatch { expected, found } => {
                write!(
                    f,
                    "payload checksum mismatch: header {expected:#018x}, computed {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// FNV-1a 64-bit hash — the same cheap, dependency-free fingerprint
/// the tiered plan cache keys on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes one snapshot file: magic line, header line, payload bytes.
pub fn encode(
    fingerprint: &RunFingerprint,
    generation: usize,
    best_fitness: Option<f64>,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let header = SnapshotHeader {
        format_version: FORMAT_VERSION,
        fingerprint: fingerprint.clone(),
        generation,
        best_fitness: best_fitness.filter(|f| f.is_finite()),
        payload_len: payload.len() as u64,
        payload_fnv: fnv1a(payload),
    };
    let header_json = serde_json::to_string(&header).map_err(|e| e.to_string())?;
    let mut out = Vec::with_capacity(header_json.len() + payload.len() + 32);
    out.extend_from_slice(MAGIC.as_bytes());
    out.push(b' ');
    out.extend_from_slice(FORMAT_VERSION.to_string().as_bytes());
    out.push(b'\n');
    out.extend_from_slice(header_json.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(payload);
    Ok(out)
}

/// Decodes and fully validates a snapshot file, returning the header
/// and the payload bytes.
pub fn decode(bytes: &[u8]) -> Result<(SnapshotHeader, &[u8]), FormatError> {
    let first_nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or(FormatError::BadMagic)?;
    let magic_line = std::str::from_utf8(&bytes[..first_nl]).map_err(|_| FormatError::BadMagic)?;
    let mut parts = magic_line.split(' ');
    if parts.next() != Some(MAGIC) {
        return Err(FormatError::BadMagic);
    }
    let version = parts.next().unwrap_or("");
    if version.parse::<u32>() != Ok(FORMAT_VERSION) {
        return Err(FormatError::UnsupportedVersion(version.to_string()));
    }
    let rest = &bytes[first_nl + 1..];
    let header_nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FormatError::BadHeader("truncated header line".to_string()))?;
    let header_text = std::str::from_utf8(&rest[..header_nl])
        .map_err(|_| FormatError::BadHeader("header is not UTF-8".to_string()))?;
    let header: SnapshotHeader =
        serde_json::from_str(header_text).map_err(|e| FormatError::BadHeader(e.to_string()))?;
    let payload = &rest[header_nl + 1..];
    if payload.len() as u64 != header.payload_len {
        return Err(FormatError::TruncatedPayload {
            expected: header.payload_len,
            found: payload.len() as u64,
        });
    }
    let found = fnv1a(payload);
    if found != header.payload_fnv {
        return Err(FormatError::ChecksumMismatch {
            expected: header.payload_fnv,
            found,
        });
    }
    Ok((header, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fp() -> RunFingerprint {
        RunFingerprint {
            config_hash: 0xdead_beef,
            backend: "E3-CPU".to_string(),
            seed: 7,
        }
    }

    #[test]
    fn encode_decode_round_trip() {
        let payload = br#"{"hello":"world"}"#;
        let bytes = encode(&fp(), 12, Some(3.5), payload).unwrap();
        let (header, got) = decode(&bytes).unwrap();
        assert_eq!(header.format_version, FORMAT_VERSION);
        assert_eq!(header.generation, 12);
        assert_eq!(header.best_fitness, Some(3.5));
        assert_eq!(header.fingerprint, fp());
        assert_eq!(got, payload);
    }

    #[test]
    fn non_finite_best_fitness_is_stored_as_absent() {
        let bytes = encode(&fp(), 0, Some(f64::NEG_INFINITY), b"{}").unwrap();
        let (header, _) = decode(&bytes).unwrap();
        assert_eq!(header.best_fitness, None);
    }

    #[test]
    fn torn_payload_is_detected() {
        let bytes = encode(&fp(), 3, None, b"0123456789").unwrap();
        let torn = &bytes[..bytes.len() - 4];
        assert!(matches!(
            decode(torn),
            Err(FormatError::TruncatedPayload {
                expected: 10,
                found: 6
            })
        ));
    }

    #[test]
    fn short_write_is_detected() {
        let bytes = encode(&fp(), 3, None, b"0123456789").unwrap();
        assert!(matches!(decode(&bytes[..4]), Err(FormatError::BadMagic)));
        // Truncation inside the header line.
        assert!(matches!(
            decode(&bytes[..MAGIC.len() + 10]),
            Err(FormatError::BadHeader(_))
        ));
    }

    #[test]
    fn checksum_corruption_is_detected() {
        let mut bytes = encode(&fp(), 3, None, b"0123456789").unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        assert!(matches!(
            decode(&bytes),
            Err(FormatError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn alien_files_are_rejected() {
        assert!(matches!(decode(b""), Err(FormatError::BadMagic)));
        assert!(matches!(
            decode(b"not a snapshot\n"),
            Err(FormatError::BadMagic)
        ));
        assert!(matches!(
            decode(b"e3snap 999\n{}\n"),
            Err(FormatError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
