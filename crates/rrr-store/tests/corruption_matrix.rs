//! Table-driven corruption coverage: every typed [`StoreError`] variant
//! must be produced by exactly the corruption it names, on an otherwise
//! valid artifact. The matrix pins the contract the simulation harness's
//! fault injector relies on — a corrupted byte anywhere in a checkpoint or
//! WAL surfaces as a *typed* error, never a panic and never a silent skip.
//!
//! (`ConfigMismatch` is the one variant this crate cannot produce on its
//! own — it is raised by `rrr-core`'s restore-time fingerprint comparison
//! and is covered by `rrr-core/tests/checkpoint_resume_equivalence.rs` and
//! the `config_mismatch` simulation scenario.)

use rrr_store::{
    from_payload, read_checkpoint, to_payload, write_checkpoint, StoreError, WalReader, WalWriter,
    FORMAT_VERSION, MAGIC,
};

/// A valid framed checkpoint around the given payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_checkpoint(&mut buf, payload).expect("write frame");
    buf
}

/// Rebuilds a frame claiming `version`, with a CRC consistent with the
/// tampered header (structurally valid, semantically from the future).
fn frame_with_version(payload: &[u8], version: u16) -> Vec<u8> {
    let mut crc = rrr_store::crc32::Crc32::new();
    let mut buf = Vec::new();
    for part in
        [&MAGIC[..], &version.to_le_bytes()[..], &(payload.len() as u64).to_le_bytes()[..], payload]
    {
        buf.extend_from_slice(part);
        crc.update(part);
    }
    buf.extend_from_slice(&crc.finish().to_le_bytes());
    buf
}

/// What kind of error a corruption must surface as.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Expect {
    BadMagic,
    CrcMismatch,
    UnsupportedVersion,
    Io,
    TrailingData,
    Corrupt,
}

fn classify(e: &StoreError) -> Expect {
    match e {
        StoreError::BadMagic(_) => Expect::BadMagic,
        StoreError::CrcMismatch { .. } => Expect::CrcMismatch,
        StoreError::UnsupportedVersion { .. } => Expect::UnsupportedVersion,
        StoreError::Io(_) => Expect::Io,
        StoreError::TrailingData { .. } => Expect::TrailingData,
        StoreError::Corrupt { .. } => Expect::Corrupt,
        StoreError::ConfigMismatch { .. } => panic!("rrr-store cannot emit ConfigMismatch"),
        // Delta-chain violations are detected by the consumer (rrr-core's
        // restore path), not by raw frame decoding.
        StoreError::DeltaBaseMismatch { .. } | StoreError::DeltaChainBroken { .. } => {
            panic!("raw frame decoding cannot emit delta-chain errors")
        }
    }
}

/// The checkpoint corruption matrix: (name, corruption, expected variant).
#[test]
fn checkpoint_corruption_matrix() {
    type Corruptor = fn(Vec<u8>) -> Vec<u8>;
    let cases: &[(&str, Corruptor, Expect)] = &[
        (
            "first magic byte flipped",
            |mut b| {
                b[0] ^= 0xFF;
                b
            },
            Expect::BadMagic,
        ),
        (
            "last magic byte flipped",
            |mut b| {
                b[7] = b'x';
                b
            },
            Expect::BadMagic,
        ),
        (
            "payload byte flipped",
            |mut b| {
                let i = 18 + 3;
                b[i] ^= 0x10;
                b
            },
            Expect::CrcMismatch,
        ),
        // Growing the declared length makes the payload read overrun into
        // the CRC trailer and hit EOF: a short read, reported as Io.
        (
            "length field grown",
            |mut b| {
                b[10] ^= 0x01;
                b
            },
            Expect::Io,
        ),
        // Shrinking it leaves payload bytes where the CRC should be: the
        // frame is complete but inconsistent, reported as CrcMismatch.
        (
            "length field shrunk",
            |mut b| {
                b[10] ^= 0x04;
                b
            },
            Expect::CrcMismatch,
        ),
        (
            "version bumped without crc fix",
            |mut b| {
                b[8] = b[8].wrapping_add(1);
                b
            },
            Expect::CrcMismatch,
        ),
        (
            "crc trailer flipped",
            |mut b| {
                let i = b.len() - 1;
                b[i] ^= 0x80;
                b
            },
            Expect::CrcMismatch,
        ),
        (
            "truncated mid-payload",
            |mut b| {
                b.truncate(18 + 2);
                b
            },
            Expect::Io,
        ),
        (
            "truncated mid-header",
            |mut b| {
                b.truncate(5);
                b
            },
            Expect::Io,
        ),
        (
            "truncated crc trailer",
            |mut b| {
                let n = b.len() - 2;
                b.truncate(n);
                b
            },
            Expect::Io,
        ),
        (
            "empty file",
            |mut b| {
                b.clear();
                b
            },
            Expect::Io,
        ),
    ];
    let payload = b"detector state bytes".to_vec();
    for (name, corrupt, want) in cases {
        let buf = corrupt(frame(&payload));
        match read_checkpoint(&buf[..]) {
            Ok(_) => panic!("{name}: corruption went undetected"),
            Err(e) => assert_eq!(classify(&e), *want, "{name}: got {e}"),
        }
    }
    // Control row: the untouched frame still reads back.
    assert_eq!(read_checkpoint(&frame(&payload)[..]).expect("intact"), payload);
}

/// An intact frame from a future format version is version skew, not rot.
#[test]
fn future_version_with_consistent_crc_is_unsupported_version() {
    let buf = frame_with_version(b"future bytes", FORMAT_VERSION + 3);
    match read_checkpoint(&buf[..]) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION + 3);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// An intact frame from the previous format version (whose WAL records
/// lack the forwarded batch) is refused the same typed way.
#[test]
fn previous_version_is_unsupported_version() {
    let buf = frame_with_version(b"older bytes", FORMAT_VERSION - 1);
    match read_checkpoint(&buf[..]) {
        Err(StoreError::UnsupportedVersion { found, supported }) => {
            assert_eq!(found, FORMAT_VERSION - 1);
            assert_eq!(supported, FORMAT_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
}

/// Payload-level decode errors: trailing bytes and structural corruption.
#[test]
fn payload_decode_matrix() {
    // TrailingData: a longer buffer than the type consumes.
    let mut bytes = to_payload(&7u64).expect("encode");
    bytes.extend_from_slice(&[0xAB, 0xCD]);
    match from_payload::<u64>(&bytes) {
        Err(StoreError::TrailingData { remaining }) => assert_eq!(remaining, 2),
        other => panic!("expected TrailingData, got {other:?}"),
    }

    // Corrupt: an out-of-range enum tag (bool accepts only 0/1).
    let bytes = vec![9u8];
    match from_payload::<bool>(&bytes) {
        Err(StoreError::Corrupt { .. }) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }

    // Io: a short buffer for a fixed-width integer.
    match from_payload::<u64>(&[1, 2, 3]) {
        Err(StoreError::Io(_) | StoreError::Corrupt { .. }) => {}
        other => panic!("expected short-read error, got {other:?}"),
    }
}

/// The WAL corruption matrix: torn tails are tolerated, mid-log rot is a
/// typed CRC error, and garbage headers fail without huge allocations.
#[test]
fn wal_corruption_matrix() {
    let mut w = WalWriter::new(Vec::new());
    w.append(b"record one").expect("append");
    w.append(b"record two").expect("append");
    w.append(b"record three").expect("append");
    let log = w.into_inner();

    // Torn tail (partial payload): clean stop after whole records.
    let torn = &log[..log.len() - 4];
    let got = WalReader::new(torn).read_all().expect("torn tail tolerated");
    assert_eq!(got.len(), 2);

    // Torn tail (partial header): same.
    let first_two = 2 * (8 + 10);
    let torn = &log[..first_two + 3];
    let got = WalReader::new(torn).read_all().expect("torn header tolerated");
    assert_eq!(got.len(), 2);

    // Mid-log payload rot: typed CrcMismatch, and the reader latches.
    let mut rot = log.clone();
    rot[8 + 2] ^= 0x20; // inside record one's payload
    let mut r = WalReader::new(&rot[..]);
    match r.next_record() {
        Err(StoreError::CrcMismatch { .. }) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
    assert!(r.next_record().expect("latched").is_none());

    // Stored-CRC rot: same typed error.
    let mut rot = log.clone();
    rot[4] ^= 0x01; // record one's stored CRC
    match WalReader::new(&rot[..]).read_all() {
        Err(StoreError::CrcMismatch { .. }) => {}
        other => panic!("expected CrcMismatch, got {other:?}"),
    }
}
