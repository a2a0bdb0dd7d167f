//! Versioned on-disk model store.
//!
//! A trained [`Detector`] is the unit of deployment: the CLI trains one,
//! writes it here, and `intellog serve` loads it read-only for the lifetime
//! of the process. Because a corrupt or mismatched model silently changes
//! every verdict the server emits, the store refuses anything it cannot
//! prove intact:
//!
//! ```text
//! INTELLOG-MODEL v<version> crc32 <8 hex> len <payload bytes>\n
//! <payload: the Detector as JSON>
//! ```
//!
//! The header line is ASCII so `head -1 model.ilm` tells an operator what
//! they are looking at; the CRC-32 (IEEE, as in zip/png) covers the whole
//! payload, and `len` catches truncation even when the cut lands on a
//! JSON-valid prefix. Loading checks magic → version → length → checksum →
//! JSON → [`Detector::validate`], in that order, and reports the first
//! failure as a typed [`StoreError`].

use anomaly::Detector;
use std::fmt;
use std::path::Path;

/// Current model format version. Bump on any incompatible change to the
/// serialised [`Detector`] layout.
pub const MODEL_FORMAT_VERSION: u32 = 1;

const MAGIC: &str = "INTELLOG-MODEL";

/// Why a model file was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// The file could not be read or written.
    Io(String),
    /// The file does not start with the `INTELLOG-MODEL` magic — it is not
    /// a model store file at all (e.g. a bare JSON model from before the
    /// store existed).
    NotAModel,
    /// The header is present but malformed.
    BadHeader(String),
    /// The file was written by an incompatible format version.
    VersionMismatch {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The payload is shorter or longer than the header promised.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The payload bytes do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u32,
        /// Checksum of the bytes on disk.
        found: u32,
    },
    /// Checksum passed but the payload did not deserialise into a
    /// consistent `Detector` (written by a build with a different shape
    /// under the same version, or by hand — still refused cleanly).
    Parse(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "model store I/O error: {e}"),
            StoreError::NotAModel => {
                write!(f, "not an {MAGIC} file (missing magic header)")
            }
            StoreError::BadHeader(e) => write!(f, "malformed model header: {e}"),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "model format v{found} is not supported (this build reads v{expected}); retrain"
            ),
            StoreError::Truncated { expected, found } => write!(
                f,
                "model payload truncated: header promises {expected} bytes, file has {found}"
            ),
            StoreError::ChecksumMismatch { expected, found } => write!(
                f,
                "model payload corrupt: crc32 {found:08x} != recorded {expected:08x}"
            ),
            StoreError::Parse(e) => write!(f, "model payload does not deserialise: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// CRC-32 (IEEE 802.3 polynomial, reflected — the zip/png variant).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The versioned model store: save/load [`Detector`]s with integrity
/// checking.
pub struct ModelStore;

impl ModelStore {
    /// Serialise `detector` and atomically-ish write it to `path`
    /// (write to `path.tmp`, then rename). Returns the total file size.
    pub fn save(path: &Path, detector: &Detector) -> Result<usize, StoreError> {
        let payload =
            serde_json::to_string(detector).map_err(|e| StoreError::Parse(e.to_string()))?;
        let bytes = Self::encode(payload.as_bytes());
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, &bytes)
            .map_err(|e| StoreError::Io(format!("{}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, path)
            .map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        Ok(bytes.len())
    }

    /// Frame a payload with the header (exposed for tests and tooling).
    pub fn encode(payload: &[u8]) -> Vec<u8> {
        let header = format!(
            "{MAGIC} v{MODEL_FORMAT_VERSION} crc32 {:08x} len {}\n",
            crc32(payload),
            payload.len()
        );
        let mut bytes = header.into_bytes();
        bytes.extend_from_slice(payload);
        bytes
    }

    /// Load a detector, refusing anything not provably intact.
    pub fn load(path: &Path) -> Result<Detector, StoreError> {
        let bytes =
            std::fs::read(path).map_err(|e| StoreError::Io(format!("{}: {e}", path.display())))?;
        let payload = Self::verify(&bytes)?;
        let detector: Detector = serde_json::from_str(
            std::str::from_utf8(payload).map_err(|e| StoreError::Parse(e.to_string()))?,
        )
        .map_err(|e| StoreError::Parse(e.to_string()))?;
        // A payload can be intact and well-formed yet inconsistent (keys
        // missing, group indices out of range); detection would index out
        // of bounds on the first matching line.
        detector.validate().map_err(StoreError::Parse)?;
        Ok(detector)
    }

    /// Check framing and integrity, returning the payload slice.
    pub fn verify(bytes: &[u8]) -> Result<&[u8], StoreError> {
        if !bytes.starts_with(MAGIC.as_bytes()) {
            return Err(StoreError::NotAModel);
        }
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(StoreError::BadHeader("no newline after header".into()))?;
        let header = std::str::from_utf8(&bytes[..nl])
            .map_err(|_| StoreError::BadHeader("non-UTF-8 header".into()))?;
        // MAGIC v<u32> crc32 <hex> len <usize>
        let fields: Vec<&str> = header.split_ascii_whitespace().collect();
        if fields.len() != 6 || fields[0] != MAGIC || fields[2] != "crc32" || fields[4] != "len" {
            return Err(StoreError::BadHeader(format!(
                "unexpected shape: {header:?}"
            )));
        }
        let version: u32 = fields[1]
            .strip_prefix('v')
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| StoreError::BadHeader(format!("bad version field {:?}", fields[1])))?;
        if version != MODEL_FORMAT_VERSION {
            return Err(StoreError::VersionMismatch {
                found: version,
                expected: MODEL_FORMAT_VERSION,
            });
        }
        let expected_crc = u32::from_str_radix(fields[3], 16)
            .map_err(|_| StoreError::BadHeader(format!("bad crc field {:?}", fields[3])))?;
        let expected_len: usize = fields[5]
            .parse()
            .map_err(|_| StoreError::BadHeader(format!("bad len field {:?}", fields[5])))?;
        let payload = &bytes[nl + 1..];
        if payload.len() != expected_len {
            return Err(StoreError::Truncated {
                expected: expected_len,
                found: payload.len(),
            });
        }
        let found_crc = crc32(payload);
        if found_crc != expected_crc {
            return Err(StoreError::ChecksumMismatch {
                expected: expected_crc,
                found: found_crc,
            });
        }
        Ok(payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value for the IEEE reflected CRC-32.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn encode_verify_roundtrip() {
        let payload = br#"{"k":1}"#;
        let framed = ModelStore::encode(payload);
        assert_eq!(ModelStore::verify(&framed).unwrap(), payload);
    }

    #[test]
    fn verify_rejects_garbage_and_bad_headers() {
        assert_eq!(ModelStore::verify(b"{}"), Err(StoreError::NotAModel));
        assert!(matches!(
            ModelStore::verify(b"INTELLOG-MODEL v1 nonsense"),
            Err(StoreError::BadHeader(_))
        ));
        assert!(matches!(
            ModelStore::verify(b"INTELLOG-MODEL vX crc32 0 len 0\n"),
            Err(StoreError::BadHeader(_))
        ));
    }

    #[test]
    fn verify_rejects_wrong_version() {
        let mut framed = ModelStore::encode(b"{}");
        let s = String::from_utf8(framed.clone()).unwrap();
        framed = s.replacen("v1", "v9", 1).into_bytes();
        assert_eq!(
            ModelStore::verify(&framed),
            Err(StoreError::VersionMismatch {
                found: 9,
                expected: MODEL_FORMAT_VERSION
            })
        );
    }

    #[test]
    fn verify_rejects_truncation_and_bitflips() {
        let framed = ModelStore::encode(br#"{"key":"value"}"#);
        let cut = &framed[..framed.len() - 3];
        assert!(matches!(
            ModelStore::verify(cut),
            Err(StoreError::Truncated { .. })
        ));
        let mut flipped = framed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x20;
        assert!(matches!(
            ModelStore::verify(&flipped),
            Err(StoreError::ChecksumMismatch { .. })
        ));
    }
}
