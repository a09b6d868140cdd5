//! The versioned on-disk snapshot format.
//!
//! A snapshot file is three sections, in order:
//!
//! ```text
//! e3snap 2\n                  magic + format version
//! {header JSON}\n             SnapshotHeader: fingerprint, generation,
//!                             payload length, payload checksum
//! payload                     the serialized run state (`serde::bin`)
//! ```
//!
//! The two header lines stay greppable text; the payload is the
//! compact binary form of the serde data model, streamed straight from
//! the state's fields (see [`serde::bin`] for its grammar). Only
//! version 2 is read: a version 1 file (JSON payload) is
//! [`FormatError::UnsupportedVersion`], which recovery skips as
//! corrupt.
//!
//! A power cut cannot leave a damaged snapshot behind: the store
//! writes a temp file, syncs it and only then renames it into place
//! (the root test `crash_points` resumes from every state the protocol
//! can leave). What the format guards against is the damage that
//! happens to a file *after* it landed — media corruption. The header
//! carries the payload's byte length and FNV-1a 64 checksum, so it is
//! detectable without trusting anything beyond the first line:
//!
//! * a file cut inside the magic or header fails to parse;
//! * a file cut inside the payload — `payload_len` disagrees with the
//!   bytes actually present;
//! * a flipped bit in the payload — the checksum disagrees.
//!
//! Recovery treats any of these as "not a snapshot" and moves on to
//! the next newest file; see [`crate::RunStore::recover`].

use serde::{Deserialize, Serialize};

/// Snapshot format version this build writes. Bump when the layout
/// changes.
pub const FORMAT_VERSION: u32 = 2;

/// Magic line opening every snapshot file.
pub(crate) const MAGIC: &str = "e3snap";

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

/// Encodes the two text lines that precede `payload` in a snapshot
/// file — magic line, header line — and returns them with the payload
/// checksum the header carries. The file is these bytes followed by
/// `payload`; the caller writes the two without joining them.
pub fn encode_head(
    fingerprint: &RunFingerprint,
    generation: usize,
    best_fitness: Option<f64>,
    payload: &[u8],
) -> Result<(Vec<u8>, u64), String> {
    let payload_fnv = fnv1a(payload);
    let header = SnapshotHeader {
        format_version: FORMAT_VERSION,
        fingerprint: fingerprint.clone(),
        generation,
        best_fitness: best_fitness.filter(|f| f.is_finite()),
        payload_len: payload.len() as u64,
        payload_fnv,
    };
    let header_json = serde_json::to_string(&header).map_err(|e| e.to_string())?;
    let head = format!("{MAGIC} {FORMAT_VERSION}\n{header_json}\n");
    Ok((head.into_bytes(), payload_fnv))
}

/// Decodes and fully validates a snapshot file, returning the header
/// and the payload bytes (`serde::bin::decode` decodes those).
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
    let Some(version) = version.parse::<u32>().ok().filter(|&v| v == FORMAT_VERSION) else {
        return Err(FormatError::UnsupportedVersion(version.to_string()));
    };
    let rest = &bytes[first_nl + 1..];
    let header_nl = rest
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| FormatError::BadHeader("truncated header line".to_string()))?;
    let header_text = std::str::from_utf8(&rest[..header_nl])
        .map_err(|_| FormatError::BadHeader("header is not UTF-8".to_string()))?;
    let header: SnapshotHeader =
        serde_json::from_str(header_text).map_err(|e| FormatError::BadHeader(e.to_string()))?;
    if header.format_version != version {
        return Err(FormatError::BadHeader(format!(
            "header says format {}, magic line says {version}",
            header.format_version
        )));
    }
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
    use serde::Value;

    fn fp() -> RunFingerprint {
        RunFingerprint {
            config_hash: 0xdead_beef,
            backend: "E3-CPU".to_string(),
            seed: 7,
        }
    }

    /// A whole snapshot file, as `RunStore::save` lays it out.
    fn encode(
        fingerprint: &RunFingerprint,
        generation: usize,
        best_fitness: Option<f64>,
        payload: &[u8],
    ) -> Result<Vec<u8>, String> {
        let (mut bytes, _) = encode_head(fingerprint, generation, best_fitness, payload)?;
        bytes.extend_from_slice(payload);
        Ok(bytes)
    }

    #[test]
    fn encode_decode_round_trip() {
        let payload = br#"{"hello":"world"}"#;
        let bytes = encode(&fp(), 12, Some(3.5), payload).unwrap();
        assert!(bytes.starts_with(b"e3snap 2\n{\"format_version\":2,"));
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
        for magic in [
            "e3snap 999\n{}\n",
            "e3snap 0\n{}\n",
            "e3snap\n{}\n",
            "e3snap 1\n{}\n",
        ] {
            assert!(
                matches!(
                    decode(magic.as_bytes()),
                    Err(FormatError::UnsupportedVersion(_))
                ),
                "{magic:?}"
            );
        }
    }

    #[test]
    fn a_header_that_contradicts_its_magic_line_is_rejected() {
        let bytes = encode(&fp(), 3, None, b"{}").unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let relabelled = text.replace("\"format_version\":2", "\"format_version\":1");
        assert!(relabelled.starts_with("e3snap 2\n{\"format_version\":1,"));
        assert!(matches!(
            decode(relabelled.as_bytes()),
            Err(FormatError::BadHeader(_))
        ));
    }

    #[test]
    fn payloads_keep_every_float_bit() {
        let state = vec![(1u64, -0.0f64), (u64::MAX, f64::NAN)];
        let mut binary = Vec::new();
        serde::bin::encode_into(&state, &mut binary).unwrap();
        let pair = |a: u64, b: Value| Value::Array(vec![Value::UInt(a), b]);
        let value = serde::bin::decode(&binary).unwrap();
        assert!(value.same_bits(&Value::Array(vec![
            pair(1, Value::Float(-0.0)),
            pair(u64::MAX, Value::Float(f64::NAN)),
        ])));
        assert!(serde::bin::decode(b"[1]").is_err());
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }
}
