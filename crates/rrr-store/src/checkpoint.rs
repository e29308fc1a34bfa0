//! Framed checkpoint snapshots.
//!
//! Layout (all little-endian):
//!
//! ```text
//! +----------+---------+-------------+------------------+---------+
//! | magic 8B | ver u16 | len u64     | payload (len B)  | crc u32 |
//! +----------+---------+-------------+------------------+---------+
//! ```
//!
//! The CRC-32 covers magic, version, length, and payload, so header
//! tampering (including a bumped version byte) is detected even before
//! version negotiation would reject it — version skew is only reported as
//! [`StoreError::UnsupportedVersion`] when the frame is otherwise intact,
//! which distinguishes "other format" from "bit rot".
//!
//! [`write_snapshot`] / [`read_snapshot`] layer a one-byte [`FrameKind`]
//! tag at the start of the payload, distinguishing full snapshots from
//! delta frames (state changed since the last full snapshot).

use crate::crc32::Crc32;
use crate::error::StoreError;
use std::io::{Read, Write};

/// File magic: identifies a detector checkpoint ("RRRSTORE").
pub const MAGIC: [u8; 8] = *b"RRRSTORE";

/// Current checkpoint format version. Bump on any wire-format change.
///
/// Version 2 introduced snapshot kinds: the first payload byte of a frame
/// written through [`write_snapshot`] distinguishes full snapshots from
/// delta frames. Version-1 files carry no kind byte and are rejected
/// rather than misread.
///
/// Version 3 extended the detector's WAL records with the forwarded batch
/// a partition applied (see `rrr_core::partition`); the WAL carries no
/// version of its own, so the bump on the checkpoint it extends rejects a
/// version-2 directory before any of its records is read.
pub const FORMAT_VERSION: u16 = 3;

/// What a snapshot frame carries: a complete state image, or only the
/// state changed since the last full snapshot (a delta frame).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Complete detector state; restorable on its own.
    Full,
    /// State changed since the preceding full snapshot. Only applicable on
    /// top of the full frame it names (by payload CRC).
    Delta,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Full => 0,
            FrameKind::Delta => 1,
        }
    }
}

/// Writes one framed checkpoint: header, payload, trailing CRC.
///
/// The payload must be fully materialized first because the frame carries
/// its length up front (a deliberate choice: restore can reject truncated
/// files before decoding a single payload byte).
pub fn write_checkpoint<W: Write>(w: W, payload: &[u8]) -> Result<(), StoreError> {
    write_frame(w, &[], payload)
}

/// Writes one framed snapshot, prefixing the payload with its kind tag.
///
/// The frame layout is exactly [`write_checkpoint`]'s; the kind byte lives
/// inside the payload so the CRC covers it. [`read_snapshot`] strips it
/// back off.
pub fn write_snapshot<W: Write>(w: W, kind: FrameKind, payload: &[u8]) -> Result<(), StoreError> {
    write_frame(w, &[kind.tag()], payload)
}

fn write_frame<W: Write>(mut w: W, head: &[u8], payload: &[u8]) -> Result<(), StoreError> {
    let mut crc = Crc32::new();
    let mut put = |w: &mut W, bytes: &[u8]| -> Result<(), StoreError> {
        w.write_all(bytes)?;
        crc.update(bytes);
        Ok(())
    };
    put(&mut w, &MAGIC)?;
    put(&mut w, &FORMAT_VERSION.to_le_bytes())?;
    put(&mut w, &((head.len() + payload.len()) as u64).to_le_bytes())?;
    put(&mut w, head)?;
    put(&mut w, payload)?;
    let crc = crc.finish();
    w.write_all(&crc.to_le_bytes())?;
    w.flush()?;
    Ok(())
}

/// Reads and verifies one framed checkpoint, returning the raw payload.
///
/// Verification order: magic, CRC (whole frame), then version — so a
/// corrupted file reports [`StoreError::CrcMismatch`] rather than a
/// misleading version error, and an intact future-version file reports
/// [`StoreError::UnsupportedVersion`].
pub fn read_checkpoint<R: Read>(mut r: R) -> Result<Vec<u8>, StoreError> {
    let mut crc = Crc32::new();
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    crc.update(&magic);
    if magic != MAGIC {
        return Err(StoreError::BadMagic(magic));
    }

    let mut ver = [0u8; 2];
    r.read_exact(&mut ver)?;
    crc.update(&ver);
    let version = u16::from_le_bytes(ver);

    let mut len = [0u8; 8];
    r.read_exact(&mut len)?;
    crc.update(&len);
    let len = u64::from_le_bytes(len);
    let len = usize::try_from(len)
        .map_err(|_| StoreError::Corrupt { offset: 10, what: "payload length exceeds usize" })?;

    // Stream the payload in chunks: a corrupt length fails on short read
    // instead of a huge up-front allocation.
    let mut payload = Vec::with_capacity(len.min(1 << 20));
    let mut remaining = len;
    let mut chunk = [0u8; 8192];
    while remaining > 0 {
        let take = remaining.min(chunk.len());
        r.read_exact(&mut chunk[..take])?;
        crc.update(&chunk[..take]);
        payload.extend_from_slice(&chunk[..take]);
        remaining -= take;
    }

    let mut stored = [0u8; 4];
    r.read_exact(&mut stored)?;
    let stored = u32::from_le_bytes(stored);
    let computed = crc.finish();
    if stored != computed {
        return Err(StoreError::CrcMismatch { stored, computed });
    }
    if version != FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion { found: version, supported: FORMAT_VERSION });
    }
    Ok(payload)
}

/// Reads and verifies one framed snapshot, returning its kind and payload.
///
/// Counterpart of [`write_snapshot`]: the leading kind byte is validated
/// and stripped. A frame too short to carry one (or with an unknown kind
/// tag) is reported as [`StoreError::Corrupt`].
pub fn read_snapshot<R: Read>(r: R) -> Result<(FrameKind, Vec<u8>), StoreError> {
    let mut payload = read_checkpoint(r)?;
    if payload.is_empty() {
        return Err(StoreError::Corrupt { offset: 0, what: "snapshot frame has no kind byte" });
    }
    let kind = match payload[0] {
        0 => FrameKind::Full,
        1 => FrameKind::Delta,
        _ => return Err(StoreError::Corrupt { offset: 0, what: "unknown snapshot kind tag" }),
    };
    payload.remove(0);
    Ok((kind, payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut buf = Vec::new();
        write_checkpoint(&mut buf, payload).expect("write");
        buf
    }

    #[test]
    fn roundtrip() {
        let payload = b"detector state bytes".to_vec();
        let buf = frame(&payload);
        assert_eq!(read_checkpoint(&buf[..]).expect("read"), payload);
        // Empty payloads are legal.
        assert_eq!(read_checkpoint(&frame(b"")[..]).expect("read"), b"");
    }

    #[test]
    fn corrupted_payload_is_crc_mismatch() {
        let mut buf = frame(b"some payload");
        let mid = MAGIC.len() + 2 + 8 + 3;
        buf[mid] ^= 0xFF;
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn corrupted_crc_trailer_is_crc_mismatch() {
        let mut buf = frame(b"some payload");
        let last = buf.len() - 1;
        buf[last] ^= 0x01;
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn bumped_version_with_fixed_crc_is_unsupported() {
        // Craft a structurally valid frame that claims a future version:
        // rebuild it by hand so the CRC is consistent with the bumped bytes.
        let payload = b"future state";
        let mut crc = Crc32::new();
        let mut buf = Vec::new();
        let future = (FORMAT_VERSION + 1).to_le_bytes();
        for part in
            [&MAGIC[..], &future[..], &(payload.len() as u64).to_le_bytes()[..], &payload[..]]
        {
            buf.extend_from_slice(part);
            crc.update(part);
        }
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion { found, supported }
                    if found == FORMAT_VERSION + 1 && supported == FORMAT_VERSION
            ),
            "{err}"
        );
    }

    #[test]
    fn bumped_version_without_crc_fix_is_corruption() {
        // Flipping only the version byte breaks the CRC: indistinguishable
        // from bit rot, and reported as such.
        let mut buf = frame(b"state");
        buf[8] = buf[8].wrapping_add(1);
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::CrcMismatch { .. }), "{err}");
    }

    #[test]
    fn snapshot_kinds_roundtrip() {
        for kind in [FrameKind::Full, FrameKind::Delta] {
            let mut buf = Vec::new();
            write_snapshot(&mut buf, kind, b"snapshot payload").expect("write");
            let (got, payload) = read_snapshot(&buf[..]).expect("read");
            assert_eq!(got, kind);
            assert_eq!(payload, b"snapshot payload");
        }
    }

    #[test]
    fn snapshot_rejects_bad_kind_byte() {
        // A raw checkpoint frame whose first payload byte is no known tag.
        let err = read_snapshot(&frame(&[7u8, 1, 2])[..]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { what, .. } if what.contains("kind")), "{err}");
        // And one with no payload at all.
        let err = read_snapshot(&frame(b"")[..]).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt { what, .. } if what.contains("kind")), "{err}");
    }

    #[test]
    fn older_version_with_fixed_crc_is_unsupported() {
        // Version-1 frames predate the kind byte; reading one as the
        // current format would misparse, so it is rejected by version.
        let payload = b"v1 state";
        let mut crc = Crc32::new();
        let mut buf = Vec::new();
        let old = 1u16.to_le_bytes();
        for part in [&MAGIC[..], &old[..], &(payload.len() as u64).to_le_bytes()[..], &payload[..]]
        {
            buf.extend_from_slice(part);
            crc.update(part);
        }
        buf.extend_from_slice(&crc.finish().to_le_bytes());
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(
            matches!(err, StoreError::UnsupportedVersion { found: 1, supported }
                if supported == FORMAT_VERSION),
            "{err}"
        );
    }

    #[test]
    fn bad_magic_and_truncation() {
        let mut buf = frame(b"state");
        buf[0] = b'X';
        let err = read_checkpoint(&buf[..]).unwrap_err();
        assert!(matches!(err, StoreError::BadMagic(_)), "{err}");

        let buf = frame(b"state");
        let err = read_checkpoint(&buf[..buf.len() - 2]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        let err = read_checkpoint(&buf[..4]).unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
    }
}
