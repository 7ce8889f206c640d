//! cc-gaggle/v1 frame-codec properties (satellite 3 of the gaggle
//! subsystem), mirroring cc-http's `wire_roundtrip.rs`: every frame type
//! survives encode→decode identically under generated payloads, and
//! truncated / oversized / garbage-prefixed byte streams are rejected
//! with the right classification — never a panic, never a bogus frame.

use std::collections::BTreeMap;

use cc_crawler::{crawl_study, StudyConfig};
use cc_gaggle::{read_frame, write_frame, Frame, FrameError, MAGIC, MAX_FRAME_BYTES, PROTOCOL};
use cc_web::{generate, TokenTruth, TrackerId, TruthLog, WebConfig};
use proptest::prelude::*;

fn encode(frame: &Frame) -> Vec<u8> {
    let mut out = Vec::new();
    let written = write_frame(&mut out, frame).unwrap();
    assert_eq!(written, out.len(), "write_frame must report the wire size");
    out
}

fn decode(bytes: &[u8]) -> Result<(Frame, usize), FrameError> {
    read_frame(&mut &bytes[..])
}

/// Identity plus accounting: the decoder consumes exactly the bytes the
/// encoder claimed (the two ends of the `gaggle.bytes.*` counters).
fn assert_round_trip(frame: &Frame) -> Result<(), String> {
    let bytes = encode(frame);
    let (back, consumed) = decode(&bytes).map_err(|e| e.to_string())?;
    prop_assert_eq!(consumed, bytes.len());
    prop_assert_eq!(&back, frame);
    Ok(())
}

/// Map a generated discriminant to a ground-truth label, covering every
/// `TokenTruth` variant the ledger can ship.
fn label(code: u8) -> TokenTruth {
    match code % 9 {
        0 => TokenTruth::Uid {
            tracker: None,
            fingerprint_based: false,
        },
        1 => TokenTruth::Uid {
            tracker: Some(TrackerId(u32::from(code))),
            fingerprint_based: code.is_multiple_of(2),
        },
        2 => TokenTruth::SessionId,
        3 => TokenTruth::Timestamp,
        4 => TokenTruth::WordLike,
        5 => TokenTruth::Acronym,
        6 => TokenTruth::UrlValue,
        7 => TokenTruth::Coordinate,
        _ => TokenTruth::Internal,
    }
}

proptest! {
    #[test]
    fn hello_round_trips(protocol in "[ -~]{0,24}", worker_label in "\\PC{0,32}") {
        assert_round_trip(&Frame::Hello { protocol, label: worker_label })?;
    }

    #[test]
    fn welcome_round_trips(
        worker_id in 0u32..1024,
        seed in 0u64..u64::MAX,
        steps in 1usize..12,
        walks in 0usize..500,
        workers in 1usize..9,
    ) {
        let study = StudyConfig {
            seed,
            web: cc_web::WebConfig {
                seed,
                ..cc_web::WebConfig::default()
            },
            steps,
            walks: if walks == 0 { None } else { Some(walks) },
            workers,
            ..StudyConfig::default()
        };
        assert_round_trip(&Frame::Welcome { worker_id, study })?;
    }

    #[test]
    fn lease_round_trips(
        lease_id in 0u64..u64::MAX,
        walk_ids in prop::collection::vec(0u32..u32::MAX, 0..64),
        deadline_ms in 0u64..u64::MAX,
    ) {
        assert_round_trip(&Frame::Lease { lease_id, walk_ids, deadline_ms })?;
    }

    #[test]
    fn heartbeat_round_trips(lease_id in 0u64..u64::MAX, walks_done in 0u32..u32::MAX) {
        assert_round_trip(&Frame::Heartbeat { lease_id, walks_done })?;
    }

    #[test]
    fn shard_result_round_trips(
        lease_id in 0u64..u64::MAX,
        mints in prop::collection::vec(("[a-z0-9]{1,16}", 0u8..32), 0..24),
    ) {
        let mut truth = TruthLog::new();
        for (value, code) in &mints {
            truth.note(value, label(*code));
        }
        assert_round_trip(&Frame::ShardResult {
            lease_id,
            shard: cc_crawler::CrawlDataset::default(),
            truth,
        })?;
    }

    #[test]
    fn telemetry_round_trips(
        entries in prop::collection::vec(("[a-z.]{1,24}", 0u64..u64::MAX), 0..12),
    ) {
        let counters: BTreeMap<String, u64> = entries.into_iter().collect();
        assert_round_trip(&Frame::Telemetry { counters })?;
    }

    #[test]
    fn goodbye_round_trips(reason in "\\PC{0,64}") {
        assert_round_trip(&Frame::Goodbye { reason })?;
    }

    #[test]
    fn truncation_is_closed_at_the_boundary_and_truncated_inside(cut in 0usize..4096) {
        let bytes = encode(&Frame::Lease {
            lease_id: 7,
            walk_ids: (0..40).collect(),
            deadline_ms: 3_000,
        });
        let cut = cut.min(bytes.len());
        match decode(&bytes[..cut]) {
            Ok((frame, consumed)) => {
                prop_assert_eq!(cut, bytes.len(), "decoded from a truncated stream");
                prop_assert_eq!(consumed, cut);
                prop_assert!(matches!(frame, Frame::Lease { lease_id: 7, .. }));
            }
            Err(FrameError::Closed) => prop_assert_eq!(cut, 0, "Closed only before byte one"),
            Err(FrameError::Truncated) => {
                prop_assert!(cut > 0 && cut < bytes.len(), "Truncated only mid-frame")
            }
            Err(other) => return Err(format!("unexpected classification: {other}")),
        }
    }

    #[test]
    fn garbage_prefix_is_bad_magic_not_a_panic(garbage in prop::collection::vec(0u8..=255, 4..64)) {
        let result = decode(&garbage);
        if garbage[..4] != MAGIC {
            let mut want = [0u8; 4];
            want.copy_from_slice(&garbage[..4]);
            prop_assert_eq!(result.unwrap_err(), FrameError::BadMagic(want));
        } else {
            // Lucky magic: whatever follows must still classify, not panic.
            prop_assert!(result.is_err() || garbage.len() >= 9);
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_unallocated(
        over in (MAX_FRAME_BYTES + 1)..u32::MAX,
        type_byte in 1u8..8,
    ) {
        // No payload follows the header: if the decoder tried to read (or
        // allocate) `over` bytes it would hang or die, so an immediate
        // TooLarge proves the bound is checked first.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(type_byte);
        bytes.extend_from_slice(&over.to_be_bytes());
        prop_assert_eq!(decode(&bytes).unwrap_err(), FrameError::TooLarge(over));
    }

    #[test]
    fn garbage_payload_is_bad_payload_not_a_panic(
        payload in "\\PC{0,64}",
        type_byte in 1u8..8,
    ) {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(type_byte);
        bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
        bytes.extend_from_slice(payload.as_bytes());
        // Random text essentially never parses as a frame schema; when it
        // does not, the error names the frame type it failed to decode as.
        if let Err(e) = decode(&bytes) {
            prop_assert!(
                matches!(e, FrameError::BadPayload { .. }),
                "expected BadPayload, got {}", e
            );
        }
    }
}

/// A ShardResult carrying a real crawled shard (not a synthetic default)
/// survives the wire bit-for-bit — the frame the whole gaggle's
/// byte-identity guarantee rides on.
#[test]
fn crawled_shard_result_round_trips_exactly() {
    let study = StudyConfig::builder()
        .web(WebConfig::small())
        .seed(5)
        .steps(3)
        .walks(6)
        .failure_rate(0.1)
        .build()
        .unwrap();
    let web = generate(&study.web);
    let shard = crawl_study(&web, &study).unwrap();
    let frame = Frame::ShardResult {
        lease_id: 1,
        shard: shard.clone(),
        truth: web.truth_snapshot(),
    };
    let bytes = encode(&frame);
    let (back, consumed) = decode(&bytes).unwrap();
    assert_eq!(consumed, bytes.len());
    match back {
        Frame::ShardResult { shard: got, .. } => {
            assert_eq!(got.to_json().unwrap(), shard.to_json().unwrap());
        }
        other => panic!("wrong frame back: {}", other.name()),
    }
}

/// A ShardResult whose truth ledger holds 100k entries (a few MB, well
/// under `MAX_FRAME_BYTES`) survives the wire exactly. A peer controls
/// how many keys that ledger object has, so its decode must stay linear
/// in them: one object of this size is 5×10⁹ key comparisons when every
/// parsed key is checked against all earlier ones.
#[test]
fn shard_result_with_a_large_truth_ledger_round_trips_exactly() {
    let mut truth = TruthLog::new();
    for i in 0..100_000u32 {
        truth.note(&format!("uid-{i:08x}"), label(i as u8));
    }
    let frame = Frame::ShardResult {
        lease_id: 9,
        shard: cc_crawler::CrawlDataset::default(),
        truth,
    };
    let bytes = encode(&frame);
    assert!(bytes.len() < MAX_FRAME_BYTES as usize, "{} bytes", bytes.len());
    let (back, consumed) = decode(&bytes).unwrap();
    assert_eq!(consumed, bytes.len());
    assert_eq!(back, frame);
}

/// Frames stream back-to-back on one connection; each read consumes
/// exactly one frame and a clean EOF after the last is `Closed`.
#[test]
fn pipelined_frames_decode_in_sequence() {
    let first = Frame::Heartbeat {
        lease_id: 1,
        walks_done: 3,
    };
    let second = Frame::Goodbye {
        reason: "complete".into(),
    };
    let hello = Frame::Hello {
        protocol: PROTOCOL.into(),
        label: "w".into(),
    };
    let mut bytes = encode(&hello);
    bytes.extend(encode(&first));
    bytes.extend(encode(&second));

    let mut stream = bytes.as_slice();
    assert_eq!(read_frame(&mut stream).unwrap().0, hello);
    assert_eq!(read_frame(&mut stream).unwrap().0, first);
    assert_eq!(read_frame(&mut stream).unwrap().0, second);
    assert_eq!(read_frame(&mut stream).unwrap_err(), FrameError::Closed);
}

/// Bytes put in place of each payload byte: every JSON delimiter, a
/// digit, a letter, a control character and a byte that is not UTF-8.
const SUBSTITUTES: &[u8] = b"\"\\{}[]:,0a\x00\xff";

/// A real ShardResult, trimmed so that every cut and every single-byte
/// change of its payload can be tried: one crawled walk cut to its first
/// observation and two beacons, and ten entries of the crawl's ledger.
fn small_real_shard_result() -> Frame {
    let study = StudyConfig::builder()
        .web(WebConfig::small())
        .seed(7)
        .steps(1)
        .walks(1)
        .failure_rate(0.0)
        .build()
        .unwrap();
    let web = generate(&study.web);
    let mut shard = crawl_study(&web, &study).unwrap();
    let step = &mut shard.walks[0].steps[0];
    step.observations.truncate(1);
    step.observations[0].beacons.truncate(2);
    let mut truth = TruthLog::new();
    for (value, label) in web.truth_snapshot().iter().take(10) {
        truth.note(value, label);
    }
    Frame::ShardResult {
        lease_id: 3,
        shard,
        truth,
    }
}

fn shard_result_frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = MAGIC.to_vec();
    bytes.push(0x05);
    bytes.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// Hostile payloads: every truncation of a real ShardResult payload is a
/// `BadPayload`, and every single-byte change is one too, or else a frame
/// that survives its own round trip (a changed digit or string byte, or a
/// key renamed out of the schema, where the field is optional). None
/// panics.
#[test]
fn every_cut_and_byte_change_of_a_real_shard_payload_is_refused_or_sound() {
    let frame = small_real_shard_result();
    let bytes = encode(&frame);
    let payload = &bytes[9..];
    for cut in 0..payload.len() {
        match decode(&shard_result_frame(&payload[..cut])) {
            Err(FrameError::BadPayload { frame, .. }) => assert_eq!(frame, "ShardResult"),
            other => panic!("cut at {cut} of {}: {other:?}", payload.len()),
        }
    }
    let mut decoded = 0;
    for at in 0..payload.len() {
        for &b in SUBSTITUTES.iter().filter(|&&b| b != payload[at]) {
            let mut changed = payload.to_vec();
            changed[at] = b;
            match decode(&shard_result_frame(&changed)) {
                Err(FrameError::BadPayload { .. }) => {}
                Ok((back, _)) => {
                    decoded += 1;
                    let again = decode(&encode(&back)).unwrap().0;
                    assert!(again == back, "byte {at} set to {b:#04x}: no round trip");
                }
                Err(other) => panic!("byte {at} set to {b:#04x}: {other}"),
            }
        }
    }
    assert!(decoded > 0, "no single-byte change decoded at all");
}

/// Nesting past the parser's limit is refused, inside a field that no
/// frame reads as well, before it can exhaust the stack.
#[test]
fn deep_nesting_in_a_payload_is_bad_payload_not_a_stack_overflow() {
    let frame = Frame::Heartbeat {
        lease_id: 1,
        walks_done: 0,
    };
    let payload = &encode(&frame)[9..];
    let nested = |n: usize| {
        let open = "[".repeat(n);
        let close = "]".repeat(n);
        let text = std::str::from_utf8(payload).unwrap();
        format!("{{\"unknown\":{open}{close},{}", &text[1..])
    };
    let with = |n: usize| {
        let mut bytes = MAGIC.to_vec();
        bytes.push(0x04);
        let p = nested(n);
        bytes.extend_from_slice(&(p.len() as u32).to_be_bytes());
        bytes.extend_from_slice(p.as_bytes());
        decode(&bytes)
    };
    assert_eq!(with(128).unwrap().0, frame);
    for n in [129, 100_000] {
        assert!(
            matches!(with(n), Err(FrameError::BadPayload { .. })),
            "{n} levels"
        );
    }
}
