//! The versioned on-disk snapshot format.
//!
//! A snapshot file is three sections, in order:
//!
//! ```text
//! e3snap 3 <checksum>\n       magic, format version, and the FNV-1a 64
//!                             (16 hex digits) of every byte after this line
//! {header JSON}\n             SnapshotHeader: fingerprint, generation,
//!                             best fitness, payload length
//! payload                     the serialized run state (`serde::bin`)
//! ```
//!
//! The two text lines stay greppable; the payload is the compact
//! binary form of the serde data model, streamed straight from the
//! state's fields (see [`serde::bin`] for its grammar). One checksum
//! covers the header and the payload, so every fact a snapshot states
//! about itself — which run, which generation, how fit — is validated
//! with the state it describes; the directory needs no other index.
//! Only version 3 is read: a version 1 file (JSON payload) or a
//! version 2 file (checksum over the payload only) is
//! [`FormatError::UnsupportedVersion`], which recovery skips as
//! corrupt.
//!
//! A power cut cannot leave a damaged snapshot behind: the store
//! writes a temp file, syncs it and only then renames it into place
//! (the root test `crash_points` resumes from every state the protocol
//! can leave). What the format guards against is the damage that
//! happens to a file *after* it landed — media corruption:
//!
//! * a file cut inside the magic or header line fails to parse;
//! * a file cut inside the payload — `payload_len` disagrees with the
//!   bytes actually present;
//! * a flipped bit anywhere after the magic line — the checksum
//!   disagrees; one inside the magic line breaks its syntax or its
//!   checksum.
//!
//! Recovery treats any of these as "not a snapshot" and moves on to
//! the next newest file; see [`crate::RunStore::recover`].

use serde::{Deserialize, Serialize};

/// Snapshot format version this build writes. Bump when the layout
/// changes.
pub const FORMAT_VERSION: u32 = 3;

/// Magic line opening every snapshot file.
pub(crate) const MAGIC: &str = "e3snap";

/// Identity of the run a snapshot belongs to. Snapshots from a
/// different configuration, backend, or seed must never be resumed
/// into the wrong run — the store refuses them when it opens the
/// directory.
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

/// The header line of a snapshot file.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Which run this snapshot belongs to.
    pub fingerprint: RunFingerprint,
    /// Generation the captured state had completed.
    pub generation: usize,
    /// Best fitness seen so far (`None` when non-finite or absent —
    /// the vendored JSON encoder maps non-finite floats to null).
    pub best_fitness: Option<f64>,
    /// Exact byte length of the payload section.
    pub payload_len: u64,
}

/// Why a snapshot file failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FormatError {
    /// The file does not begin with an `e3snap` magic line, or that
    /// line carries no well-formed checksum.
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
    /// The header and payload bytes hash to a different checksum than
    /// the magic line carries (corruption).
    ChecksumMismatch {
        /// Checksum the magic line declared.
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
                    "checksum mismatch: magic line {expected:#018x}, computed {found:#018x}"
                )
            }
        }
    }
}

impl std::error::Error for FormatError {}

/// FNV-1a 64-bit hash — the same cheap, dependency-free fingerprint
/// the tiered plan cache keys on.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_from(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over `bytes`, so one checksum can span
/// two buffers.
fn fnv1a_from(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encodes the two text lines that precede `payload` in a snapshot
/// file — magic line, header line. The file is these bytes followed by
/// `payload`; the caller writes the two without joining them.
pub fn encode_head(
    fingerprint: &RunFingerprint,
    generation: usize,
    best_fitness: Option<f64>,
    payload: &[u8],
) -> Result<Vec<u8>, String> {
    let header = SnapshotHeader {
        fingerprint: fingerprint.clone(),
        generation,
        best_fitness: best_fitness.filter(|f| f.is_finite()),
        payload_len: payload.len() as u64,
    };
    let header_line = serde_json::to_string(&header).map_err(|e| e.to_string())? + "\n";
    let checksum = fnv1a_from(fnv1a(header_line.as_bytes()), payload);
    Ok(format!("{MAGIC} {FORMAT_VERSION} {checksum:016x}\n{header_line}").into_bytes())
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
    if version.parse::<u32>().ok() != Some(FORMAT_VERSION) {
        return Err(FormatError::UnsupportedVersion(version.to_string()));
    }
    let expected = match (parts.next(), parts.next()) {
        (Some(hex), None) if hex.len() == 16 => u64::from_str_radix(hex, 16).ok(),
        _ => None,
    }
    .ok_or(FormatError::BadMagic)?;
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
    let found = fnv1a(rest);
    if found != expected {
        return Err(FormatError::ChecksumMismatch { expected, found });
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
        let mut bytes = encode_head(fingerprint, generation, best_fitness, payload)?;
        bytes.extend_from_slice(payload);
        Ok(bytes)
    }

    #[test]
    fn encode_decode_round_trip() {
        let payload = br#"{"hello":"world"}"#;
        let bytes = encode(&fp(), 12, Some(3.5), payload).unwrap();
        let magic_end = bytes.iter().position(|&b| b == b'\n').unwrap();
        let checksum = format!("e3snap 3 {:016x}", fnv1a(&bytes[magic_end + 1..]));
        assert_eq!(&bytes[..magic_end], checksum.as_bytes());
        assert!(bytes[magic_end + 1..].starts_with(b"{\"fingerprint\":"));
        let (header, got) = decode(&bytes).unwrap();
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
        let header = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        assert!(matches!(
            decode(&bytes[..header + 10]),
            Err(FormatError::BadHeader(_))
        ));
    }

    #[test]
    fn checksum_corruption_is_detected() {
        let bytes = encode(&fp(), 3, Some(2.0), b"0123456789").unwrap();
        let mut payload_flip = bytes.clone();
        *payload_flip.last_mut().unwrap() ^= 0x01;
        // Header edits that still parse: another run, another fitness.
        let text = String::from_utf8(bytes).unwrap();
        let backend = text.replace("E3-CPU", "E3-GPU");
        let fitness = text.replace("\"best_fitness\":2", "\"best_fitness\":3");
        for damaged in [payload_flip, backend.into_bytes(), fitness.into_bytes()] {
            assert!(matches!(
                decode(&damaged),
                Err(FormatError::ChecksumMismatch { .. })
            ));
        }
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
            "e3snap 2\n{}\n",
        ] {
            assert!(
                matches!(
                    decode(magic.as_bytes()),
                    Err(FormatError::UnsupportedVersion(_))
                ),
                "{magic:?}"
            );
        }
        for magic in [
            "e3snap 3\n{}\n",
            "e3snap 3 xyz\n{}\n",
            "e3snap 3 0123456789abcdef more\n{}\n",
        ] {
            assert_eq!(
                decode(magic.as_bytes()),
                Err(FormatError::BadMagic),
                "{magic:?}"
            );
        }
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
