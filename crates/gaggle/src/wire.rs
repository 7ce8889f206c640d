//! The `cc-gaggle/v1` frame codec: length-prefixed JSON frames over TCP.
//!
//! Same school as cc-http's `wire.rs` — bounded reads, every decode
//! failure an explicit error variant, clean-close distinguished from
//! mid-frame death — but for a binary peer protocol instead of HTTP. A
//! frame on the wire is:
//!
//! ```text
//! +--------+------+-------------+------------------+
//! | "CCG1" | type | payload_len | JSON payload     |
//! | 4 B    | 1 B  | 4 B (BE)    | payload_len B    |
//! +--------+------+-------------+------------------+
//! ```
//!
//! The magic catches cross-protocol accidents (an HTTP client dialing the
//! manager port fails on its first four bytes, not deep inside a JSON
//! parser); the type byte picks the payload schema; the length prefix
//! bounds the read ([`MAX_FRAME_BYTES`]). Payloads are JSON because every
//! shipped structure (datasets, truth ledgers, study configs) already has
//! a canonical serde encoding that the byte-identity suites pin down —
//! the wire inherits that canon instead of inventing a second one.
//!
//! Error classification mirrors cc-http ([`cc_http::classify_io`] is the
//! shared mapping): EOF before the first magic byte is a clean
//! [`FrameError::Closed`], EOF anywhere later is [`FrameError::Truncated`],
//! and a socket read deadline surfaces as [`FrameError::TimedOut`] so
//! callers can poll shutdown flags between reads.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::io::{Read, Write};

use cc_crawler::{CrawlDataset, StudyConfig};
use cc_http::{classify_io, IoFault};
use cc_util::CcError;
use cc_web::TruthLog;
use serde::{Deserialize, Serialize};

/// The protocol version string carried in every [`Frame::Hello`]. A
/// manager refuses any other value — there is exactly one version today,
/// and the check is what makes the next one introducible.
pub const PROTOCOL: &str = "cc-gaggle/v1";

/// The four magic bytes opening every frame.
pub const MAGIC: [u8; 4] = *b"CCG1";

/// Largest accepted frame payload. Dataset shards for a whole lease ride
/// in one frame, so this is generous — but still bounds what a byte
/// stream can make the decoder allocate.
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Everything that can go wrong reading or writing a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The peer closed the connection cleanly before the first byte of a
    /// frame (normal termination, not an error to report).
    Closed,
    /// The read timed out; the connection is healthy, retry the read.
    TimedOut,
    /// The connection died mid-frame.
    Truncated,
    /// Underlying I/O failure.
    Io(String),
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// An unregistered frame-type byte.
    UnknownType(u8),
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(u32),
    /// The payload did not decode as the frame type's schema.
    BadPayload {
        /// The frame type whose payload failed to decode.
        frame: &'static str,
        /// The rendered serde error.
        detail: String,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::TimedOut => write!(f, "read timed out"),
            FrameError::Truncated => write!(f, "connection died mid-frame"),
            FrameError::Io(e) => write!(f, "i/o error: {e}"),
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:?} (want {MAGIC:?})"),
            FrameError::UnknownType(t) => write!(f, "unknown frame type 0x{t:02x}"),
            FrameError::TooLarge(n) => {
                write!(f, "frame payload of {n} bytes over {MAX_FRAME_BYTES}")
            }
            FrameError::BadPayload { frame, detail } => {
                write!(f, "bad {frame} payload: {detail}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<FrameError> for CcError {
    fn from(e: FrameError) -> Self {
        CcError::Protocol(e.to_string())
    }
}

impl FrameError {
    /// Whether a retry of the same read can succeed (only a timeout).
    pub fn is_timeout(&self) -> bool {
        matches!(self, FrameError::TimedOut)
    }
}

fn io_error(e: std::io::Error) -> FrameError {
    match classify_io(e.kind()) {
        IoFault::TimedOut => FrameError::TimedOut,
        IoFault::Truncated => FrameError::Truncated,
        // A peer that vanished between frames reads like a close; the
        // lease table decides whether that close was expected.
        IoFault::Disconnected => FrameError::Closed,
        IoFault::Other => FrameError::Io(e.to_string()),
    }
}

/// One frame of the `cc-gaggle/v1` protocol.
///
/// Welcome's inline `StudyConfig` makes the enum large, but frames are
/// transient (decoded, matched, consumed — never collected), so the
/// indirection a `Box` would buy costs more in API noise than the moves
/// save.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker → manager, first frame on a connection.
    Hello {
        /// Must equal [`PROTOCOL`].
        protocol: String,
        /// Free-form worker label (host/pid), for logs and telemetry.
        label: String,
    },
    /// Manager → worker, answering a valid Hello.
    Welcome {
        /// The id the manager will know this worker by.
        worker_id: u32,
        /// The full study: the worker regenerates the world from this, so
        /// no study flags are needed (or allowed to disagree) worker-side.
        study: StudyConfig,
    },
    /// Manager → worker: crawl these walk ids.
    Lease {
        /// Fresh id for this issuance (a re-issued lease gets a new one,
        /// which is how stale results from a presumed-dead worker are
        /// told apart from live ones).
        lease_id: u64,
        /// The walk ids to crawl.
        walk_ids: Vec<u32>,
        /// Lease deadline, milliseconds from receipt; renewed by each
        /// Heartbeat. A lease past its deadline is expired and re-issued.
        deadline_ms: u64,
    },
    /// Worker → manager: still alive, still crawling this lease.
    Heartbeat {
        /// The lease being renewed.
        lease_id: u64,
        /// Walks finished so far on this lease (progress reporting only).
        walks_done: u32,
    },
    /// Worker → manager: a finished lease's output.
    ShardResult {
        /// The lease this shard fulfills.
        lease_id: u64,
        /// The crawled walks + failure stats for exactly the leased ids.
        shard: CrawlDataset,
        /// The worker's full truth-ledger snapshot. Merging is idempotent
        /// (identical mints converge), so shipping the whole ledger every
        /// time keeps the frame schema simple.
        truth: TruthLog,
    },
    /// Worker → manager, before Goodbye: drained telemetry totals to fold
    /// into the manager's session.
    Telemetry {
        /// Counter name → total.
        counters: BTreeMap<String, u64>,
    },
    /// Either direction: the sender is done with this connection.
    Goodbye {
        /// Why ("complete", "shutdown", ...) — for logs only.
        reason: String,
    },
}

impl Frame {
    /// The type byte identifying this frame on the wire.
    fn type_byte(&self) -> u8 {
        match self {
            Frame::Hello { .. } => 0x01,
            Frame::Welcome { .. } => 0x02,
            Frame::Lease { .. } => 0x03,
            Frame::Heartbeat { .. } => 0x04,
            Frame::ShardResult { .. } => 0x05,
            Frame::Telemetry { .. } => 0x06,
            Frame::Goodbye { .. } => 0x07,
        }
    }

    /// The frame's name, for error messages and telemetry labels.
    pub fn name(&self) -> &'static str {
        match self {
            Frame::Hello { .. } => "Hello",
            Frame::Welcome { .. } => "Welcome",
            Frame::Lease { .. } => "Lease",
            Frame::Heartbeat { .. } => "Heartbeat",
            Frame::ShardResult { .. } => "ShardResult",
            Frame::Telemetry { .. } => "Telemetry",
            Frame::Goodbye { .. } => "Goodbye",
        }
    }
}

/// Serde shadows of [`Frame`] carrying only the payload fields — the type
/// byte on the wire picks the variant, so the JSON is the *content* of
/// the variant, not an externally-tagged enum (which would spell the type
/// twice and let the two disagree). Each shadow lends the frame's fields
/// to the encoder and owns them once decoded.
#[derive(Serialize, Deserialize)]
struct HelloPayload<'a> {
    protocol: Cow<'a, str>,
    label: Cow<'a, str>,
}

#[derive(Serialize, Deserialize)]
struct WelcomePayload<'a> {
    worker_id: u32,
    study: Cow<'a, StudyConfig>,
}

#[derive(Serialize, Deserialize)]
struct LeasePayload<'a> {
    lease_id: u64,
    walk_ids: Cow<'a, [u32]>,
    deadline_ms: u64,
}

#[derive(Serialize, Deserialize)]
struct HeartbeatPayload {
    lease_id: u64,
    walks_done: u32,
}

#[derive(Serialize, Deserialize)]
struct ShardResultPayload<'a> {
    lease_id: u64,
    shard: Cow<'a, CrawlDataset>,
    truth: Cow<'a, TruthLog>,
}

#[derive(Serialize, Deserialize)]
struct TelemetryPayload<'a> {
    counters: Cow<'a, BTreeMap<String, u64>>,
}

#[derive(Serialize, Deserialize)]
struct GoodbyePayload<'a> {
    reason: Cow<'a, str>,
}

fn encode_payload(frame: &Frame) -> Result<Vec<u8>, FrameError> {
    let _span = cc_telemetry::span("gaggle.frame.encode");
    let encoded = match frame {
        Frame::Hello { protocol, label } => serde_json::to_string(&HelloPayload {
            protocol: protocol.into(),
            label: label.into(),
        }),
        Frame::Welcome { worker_id, study } => serde_json::to_string(&WelcomePayload {
            worker_id: *worker_id,
            study: Cow::Borrowed(study),
        }),
        Frame::Lease {
            lease_id,
            walk_ids,
            deadline_ms,
        } => serde_json::to_string(&LeasePayload {
            lease_id: *lease_id,
            walk_ids: walk_ids.into(),
            deadline_ms: *deadline_ms,
        }),
        Frame::Heartbeat {
            lease_id,
            walks_done,
        } => serde_json::to_string(&HeartbeatPayload {
            lease_id: *lease_id,
            walks_done: *walks_done,
        }),
        Frame::ShardResult {
            lease_id,
            shard,
            truth,
        } => serde_json::to_string(&ShardResultPayload {
            lease_id: *lease_id,
            shard: Cow::Borrowed(shard),
            truth: Cow::Borrowed(truth),
        }),
        Frame::Telemetry { counters } => serde_json::to_string(&TelemetryPayload {
            counters: Cow::Borrowed(counters),
        }),
        Frame::Goodbye { reason } => serde_json::to_string(&GoodbyePayload {
            reason: reason.into(),
        }),
    };
    encoded.map(String::into_bytes).map_err(|e| FrameError::BadPayload {
        frame: frame.name(),
        detail: e.to_string(),
    })
}

fn decode_payload(type_byte: u8, payload: &[u8]) -> Result<Frame, FrameError> {
    fn parse<T: Deserialize>(frame: &'static str, payload: &[u8]) -> Result<T, FrameError> {
        let text = std::str::from_utf8(payload).map_err(|e| FrameError::BadPayload {
            frame,
            detail: e.to_string(),
        })?;
        serde_json::from_str(text).map_err(|e| FrameError::BadPayload {
            frame,
            detail: e.to_string(),
        })
    }
    let _span = cc_telemetry::span("gaggle.frame.decode");
    Ok(match type_byte {
        0x01 => {
            let p: HelloPayload = parse("Hello", payload)?;
            Frame::Hello {
                protocol: p.protocol.into_owned(),
                label: p.label.into_owned(),
            }
        }
        0x02 => {
            let p: WelcomePayload = parse("Welcome", payload)?;
            Frame::Welcome {
                worker_id: p.worker_id,
                study: p.study.into_owned(),
            }
        }
        0x03 => {
            let p: LeasePayload = parse("Lease", payload)?;
            Frame::Lease {
                lease_id: p.lease_id,
                walk_ids: p.walk_ids.into_owned(),
                deadline_ms: p.deadline_ms,
            }
        }
        0x04 => {
            let p: HeartbeatPayload = parse("Heartbeat", payload)?;
            Frame::Heartbeat {
                lease_id: p.lease_id,
                walks_done: p.walks_done,
            }
        }
        0x05 => {
            let p: ShardResultPayload = parse("ShardResult", payload)?;
            Frame::ShardResult {
                lease_id: p.lease_id,
                shard: p.shard.into_owned(),
                truth: p.truth.into_owned(),
            }
        }
        0x06 => {
            let p: TelemetryPayload = parse("Telemetry", payload)?;
            Frame::Telemetry {
                counters: p.counters.into_owned(),
            }
        }
        0x07 => {
            let p: GoodbyePayload = parse("Goodbye", payload)?;
            Frame::Goodbye {
                reason: p.reason.into_owned(),
            }
        }
        other => return Err(FrameError::UnknownType(other)),
    })
}

/// Write one frame; returns the bytes put on the wire (for the
/// `gaggle.bytes.sent` counter).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<usize, FrameError> {
    let payload = encode_payload(frame)?;
    let len = u32::try_from(payload.len()).map_err(|_| FrameError::TooLarge(u32::MAX))?;
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut buf = Vec::with_capacity(9 + payload.len());
    buf.extend_from_slice(&MAGIC);
    buf.push(frame.type_byte());
    buf.extend_from_slice(&len.to_be_bytes());
    buf.extend_from_slice(&payload);
    w.write_all(&buf).map_err(io_error)?;
    w.flush().map_err(io_error)?;
    Ok(buf.len())
}

/// Read exactly `buf.len()` bytes, distinguishing EOF-before-first-byte
/// (`Closed` when `first` is set) from EOF mid-frame (`Truncated`).
fn read_exact_classified(
    r: &mut impl Read,
    buf: &mut [u8],
    first: bool,
) -> Result<(), FrameError> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(if first && filled == 0 {
                    FrameError::Closed
                } else {
                    FrameError::Truncated
                });
            }
            Ok(n) => filled += n,
            Err(e) => match io_error(e) {
                // A timeout with part of a frame already read must not
                // surface as TimedOut — the caller would retry from the
                // frame boundary and desync. Keep waiting for the rest;
                // the peer either finishes the frame or dies (and the
                // death classifies below).
                FrameError::TimedOut if filled > 0 => continue,
                FrameError::TimedOut => return Err(FrameError::TimedOut),
                FrameError::Closed => {
                    return Err(if first && filled == 0 {
                        FrameError::Closed
                    } else {
                        FrameError::Truncated
                    });
                }
                other => return Err(other),
            },
        }
    }
    Ok(())
}

/// Read one frame; returns it with the bytes consumed off the wire (for
/// the `gaggle.bytes.received` counter).
///
/// [`FrameError::Closed`] means the peer ended the connection cleanly at
/// a frame boundary; [`FrameError::TimedOut`] means no frame has started
/// yet and the caller may retry (poll a shutdown flag, then read again).
pub fn read_frame(r: &mut impl Read) -> Result<(Frame, usize), FrameError> {
    let mut magic = [0u8; 4];
    read_exact_classified(r, &mut magic, true)?;
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let mut head = [0u8; 5];
    read_exact_classified(r, &mut head, false)?;
    let type_byte = head[0];
    let len = u32::from_be_bytes([head[1], head[2], head[3], head[4]]);
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let mut payload = vec![0u8; len as usize];
    read_exact_classified(r, &mut payload, false)?;
    let frame = decode_payload(type_byte, &payload)?;
    Ok((frame, 9 + payload.len()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(frame: Frame) {
        let mut buf = Vec::new();
        let written = write_frame(&mut buf, &frame).unwrap();
        assert_eq!(written, buf.len());
        let (back, consumed) = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(back, frame);
        assert_eq!(consumed, buf.len());
    }

    #[test]
    fn every_frame_type_round_trips() {
        round_trip(Frame::Hello {
            protocol: PROTOCOL.into(),
            label: "worker-1".into(),
        });
        round_trip(Frame::Welcome {
            worker_id: 3,
            study: StudyConfig::default(),
        });
        round_trip(Frame::Lease {
            lease_id: 42,
            walk_ids: vec![0, 5, 9],
            deadline_ms: 3000,
        });
        round_trip(Frame::Heartbeat {
            lease_id: 42,
            walks_done: 2,
        });
        round_trip(Frame::ShardResult {
            lease_id: 42,
            shard: CrawlDataset::default(),
            truth: TruthLog::new(),
        });
        round_trip(Frame::Telemetry {
            counters: [("gaggle.worker.walks".to_string(), 7u64)].into_iter().collect(),
        });
        round_trip(Frame::Goodbye {
            reason: "complete".into(),
        });
    }

    #[test]
    fn clean_eof_is_closed_and_mid_frame_eof_is_truncated() {
        let empty: &[u8] = &[];
        assert_eq!(read_frame(&mut &*empty).unwrap_err(), FrameError::Closed);

        let mut buf = Vec::new();
        write_frame(
            &mut buf,
            &Frame::Goodbye {
                reason: "x".into(),
            },
        )
        .unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut &buf[..cut]).unwrap_err();
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn garbage_magic_is_rejected() {
        let bytes = b"GET / HTTP/1.1\r\n\r\n";
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err, FrameError::BadMagic(*b"GET "));
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocation() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(0x07);
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, FrameError::TooLarge(u32::MAX));
    }

    #[test]
    fn unknown_type_byte_is_rejected() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(0x7f);
        bytes.extend_from_slice(&2u32.to_be_bytes());
        bytes.extend_from_slice(b"{}");
        let err = read_frame(&mut bytes.as_slice()).unwrap_err();
        assert_eq!(err, FrameError::UnknownType(0x7f));
    }

    #[test]
    fn frame_errors_lower_to_protocol_cc_errors() {
        let e: CcError = FrameError::UnknownType(0x7f).into();
        assert!(matches!(e, CcError::Protocol(_)), "{e}");
        assert!(e.to_string().contains("unknown frame type"));
    }
}
