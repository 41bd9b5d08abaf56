//! Seeded fuzz for every byte-level decoder in the durability tier.
//!
//! Three input families — pure random bytes, truncations of valid
//! encodings, and single-bit flips of valid encodings — are fed to the
//! frame decoder, the epoch/snapshot codecs, the snapshot file reader,
//! the read-only WAL scan, and the replication wire reader. The
//! invariants under fuzz are:
//!
//! - **No panic** — every decoder returns `Err`/`None` on garbage; none
//!   unwraps, slices out of range, or divides by zero.
//! - **No over-allocation** — a corrupted header can claim absurd
//!   element counts or frame lengths; decoders must bound what they
//!   reserve by the bytes actually present (the `Reader::count` and
//!   `MAX_FRAME_LEN` guards), so a kilobyte of garbage never allocates
//!   gigabytes. Pinned by decoding payloads whose headers declare
//!   2^60-element vectors.
//!
//! Deterministic (seeded splitmix64 stream), so a failure reproduces.

use rcforest::repl::{read_message, Message};
use rcforest::store::codec::{decode_epoch, decode_snapshot, encode_epoch, encode_snapshot};
use rcforest::store::frame::{crc32, decode_frame, encode_frame, scan_frames};
use rcforest::store::snapshot::{read_snapshot, write_snapshot};
use rcforest::store::{read_records, EpochRecord, FlushRecord};
use rcforest::ForestState;

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

fn random_bytes(seed: u64, len: usize) -> Vec<u8> {
    (0..len)
        .map(|i| (splitmix(seed.wrapping_mul(0x9e37).wrapping_add(i as u64)) >> 32) as u8)
        .collect()
}

/// A representative valid epoch record to truncate and bit-flip.
fn sample_record() -> EpochRecord {
    EpochRecord {
        epoch: 42,
        flushes: vec![
            FlushRecord {
                cuts: vec![(1, 2), (5, 6)],
                links: vec![(0, 3, 17), (4, 7, 99)],
                eweights: vec![(0, 1, 1000)],
                vweights: vec![(2, 55, true), (3, 0, false)],
            },
            FlushRecord {
                links: vec![(8, 9, 1)],
                ..Default::default()
            },
        ],
    }
}

fn sample_state() -> ForestState {
    ForestState::from_edges(16, &[(0, 1, 3), (1, 2, 9), (4, 5, 1), (10, 11, 7)])
}

/// Throw one mutated buffer at every in-memory decoder. Outcomes are
/// unchecked — surviving without a panic (and without an OOM abort) is
/// the assertion.
fn exercise_decoders(bytes: &[u8]) {
    let _ = decode_epoch(bytes);
    let _ = decode_snapshot(bytes);
    let _ = decode_frame(bytes, 0);
    let mut seen = 0usize;
    let consumed = scan_frames(bytes, 0, |p| seen += p.len());
    assert!(consumed <= bytes.len(), "scan cannot consume past the end");
    let _ = read_message(&mut std::io::Cursor::new(bytes));
}

#[test]
fn random_truncated_and_bitflipped_inputs_never_panic() {
    // Family 1: pure random bytes at assorted sizes.
    for seed in 0..64u64 {
        let len = (splitmix(seed) % 512) as usize;
        exercise_decoders(&random_bytes(seed, len));
    }

    // Valid encodings to mutate.
    let rec_bytes = encode_epoch(&sample_record());
    let snap_bytes = encode_snapshot(9, &sample_state());
    let mut framed = Vec::new();
    encode_frame(&mut framed, &rec_bytes);
    let mut wire = Vec::new();
    rcforest::repl::encode_message(
        &mut wire,
        &Message::Rec {
            prev_epoch: 41,
            leader_committed: 42,
            record: sample_record(),
        },
    );

    for base in [&rec_bytes, &snap_bytes, &framed, &wire] {
        // Family 2: every truncation length (prefixes of a valid
        // encoding are the torn-write shape).
        for cut in 0..base.len() {
            exercise_decoders(&base[..cut]);
        }
        // Family 3: seeded single-bit flips.
        for seed in 0..256u64 {
            let h = splitmix(seed.wrapping_add(0xb17f11b));
            let mut mutated = (*base).clone();
            let at = (h % mutated.len() as u64) as usize;
            mutated[at] ^= 1 << ((h >> 32) % 8);
            exercise_decoders(&mutated);
        }
    }
}

#[test]
fn hostile_counts_do_not_over_allocate() {
    // An epoch-record payload whose flush header claims 2^60 cuts, with
    // only a handful of bytes behind it. `Reader::count` must clamp by
    // the remaining bytes and fail, not reserve a 2^60-element Vec.
    let mut evil = Vec::new();
    evil.extend_from_slice(&42u64.to_le_bytes()); // epoch
    evil.extend_from_slice(&1u64.to_le_bytes()); // one flush
    evil.extend_from_slice(&(1u64 << 60).to_le_bytes()); // cuts count
    evil.extend_from_slice(&[7u8; 24]); // far too few bytes for that
    assert!(
        decode_epoch(&evil).is_err(),
        "hostile count must not decode"
    );

    // Same shape against the snapshot codec: a vertex count the buffer
    // cannot possibly back.
    let mut evil_snap = Vec::new();
    evil_snap.extend_from_slice(&9u64.to_le_bytes()); // epoch
    evil_snap.extend_from_slice(&(1u64 << 60).to_le_bytes()); // n
    evil_snap.extend_from_slice(&[3u8; 32]);
    assert!(decode_snapshot(&evil_snap).is_err());

    // A frame header claiming MAX_FRAME_LEN+ payload over a short buffer
    // must be rejected by bounds, not chased.
    let mut evil_frame = Vec::new();
    evil_frame.extend_from_slice(&u32::MAX.to_le_bytes());
    evil_frame.extend_from_slice(&0u32.to_le_bytes());
    evil_frame.extend_from_slice(&[0u8; 64]);
    assert!(decode_frame(&evil_frame, 0).is_none());
    assert!(read_message(&mut std::io::Cursor::new(&evil_frame)).is_err());

    // And a *checksum-valid* frame whose payload is a hostile record:
    // the frame layer admits it, the codec layer must still refuse.
    let mut framed_evil = Vec::new();
    encode_frame(&mut framed_evil, &evil);
    let (payload, _) = decode_frame(&framed_evil, 0).expect("frame itself is well-formed");
    assert_eq!(crc32(payload), crc32(&evil));
    assert!(decode_epoch(payload).is_err());
}

#[test]
fn snapshot_and_wal_file_readers_survive_corrupt_files() {
    let dir = std::env::temp_dir().join(format!("rc-fuzz-files-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    // A valid snapshot file, then bit-flipped and truncated copies.
    let path = write_snapshot(&dir, 5, &sample_state()).expect("write snapshot");
    let valid = std::fs::read(&path).unwrap();
    assert!(
        read_snapshot(&path).is_ok(),
        "control: the valid file reads"
    );
    for seed in 0..64u64 {
        let h = splitmix(seed.wrapping_add(0x5eed));
        let mutated_path = dir.join(format!("mut-{seed}.rcsnap"));
        let mut mutated = valid.clone();
        if seed % 2 == 0 {
            mutated.truncate((h % valid.len() as u64) as usize);
        } else {
            let at = (h % valid.len() as u64) as usize;
            mutated[at] ^= 1 << ((h >> 32) % 8);
        }
        std::fs::write(&mutated_path, &mutated).unwrap();
        // Corruption → Err; a flip the checksum cannot see (inside
        // padding it would tolerate) → Ok. Either way: no panic.
        let _ = read_snapshot(&mutated_path);
    }

    // Random garbage as a WAL: the read-only scan must reject non-WAL
    // magic and stop cleanly at the first bad frame, never panicking.
    for seed in 0..32u64 {
        let wal_path = dir.join(format!("fuzz-{seed}.rclog"));
        std::fs::write(
            &wal_path,
            random_bytes(seed, (splitmix(seed) % 256) as usize),
        )
        .unwrap();
        let _ = read_records(&wal_path);
    }

    let _ = std::fs::remove_dir_all(&dir);
}
