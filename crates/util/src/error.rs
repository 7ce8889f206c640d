//! The workspace error taxonomy.
//!
//! Fault-tolerant crawling needs to *match on error class*: a retry loop
//! must distinguish a transient `ECONNRESET` (back off and try again) from
//! a structural failure like an unknown host (give up immediately). The
//! original code carried `String` errors (`CliError(String)`, stringly
//! `error` fields) that made that impossible. [`CcError`] is the single
//! workspace-wide error enum: every crate converts into it, and
//! [`CcError::is_transient`] is the classification the retry policy keys
//! on.
//!
//! [`NetError`] lives here (rather than in `cc-net`) so that the lowest
//! layer of the workspace can name it as a `CcError` variant without a
//! dependency cycle; `cc-net` re-exports it under its historical path.

use serde::{Deserialize, Serialize};

/// Simulated network error kinds (the classes named in the paper: §3.3
/// "ECONNREFUSED, ECONNRESET, etc.").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NetError {
    /// Connection refused by the peer.
    ConnRefused,
    /// Connection reset mid-handshake.
    ConnReset,
    /// Connection timed out.
    TimedOut,
    /// Name resolution failed.
    NameResolution,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            NetError::ConnRefused => "ECONNREFUSED",
            NetError::ConnReset => "ECONNRESET",
            NetError::TimedOut => "ETIMEDOUT",
            NetError::NameResolution => "EAI_NONAME",
        };
        f.write_str(s)
    }
}

impl std::error::Error for NetError {}

/// The workspace error enum.
///
/// Variants group into three classes:
///
/// * **transient** — connection-level faults that a retry with backoff may
///   outlast ([`CcError::is_transient`] returns `true`);
/// * **structural** — failures retrying cannot fix (DNS for a host outside
///   the world, redirect loops, an open circuit breaker's fast-fail);
/// * **operational** — configuration, CLI, I/O, and serialization errors
///   raised outside the crawl itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CcError {
    /// Connection-level failure (ECONNREFUSED and friends).
    Net(NetError),
    /// DNS failure for a host.
    Dns(String),
    /// The host is outside the simulated world.
    UnknownHost(String),
    /// Redirect chain exceeded the hop limit (the offending URL).
    TooManyRedirects(String),
    /// The per-host circuit breaker is open: failing fast without a
    /// connection attempt. Carries the host and the error that tripped it.
    BreakerOpen {
        /// The host whose breaker is open.
        host: String,
        /// The connection error that tripped the breaker.
        last: NetError,
    },
    /// Invalid configuration (builder validation, bad combinations).
    Config(String),
    /// Command-line usage error.
    Cli(String),
    /// Filesystem error with the path it concerns.
    Io {
        /// The path being read or written.
        path: String,
        /// The rendered OS error.
        msg: String,
    },
    /// JSON (de)serialization error.
    Serde(String),
    /// Checkpoint file problems: bad schema, config mismatch, truncation.
    Checkpoint(String),
    /// Wire-protocol violation on a framed connection (bad magic, unknown
    /// frame type, oversized or truncated payload, version mismatch).
    Protocol(String),
    /// A crawl thread panicked: in a walk, or in a sink the walk's
    /// completion fired. The run stops and returns this instead of
    /// unwinding into its caller.
    Panic {
        /// The walk that was running, when there was one.
        walk: Option<u32>,
        /// The panic's message.
        msg: String,
    },
}

impl CcError {
    /// Whether a retry with backoff could plausibly clear this error.
    ///
    /// Only connection-level faults are transient; an open breaker is an
    /// explicit *fast-fail* signal and structural/operational errors never
    /// recover by retrying.
    pub fn is_transient(&self) -> bool {
        matches!(self, CcError::Net(_))
    }

    /// Convenience constructor for I/O errors.
    pub fn io(path: impl Into<String>, err: impl std::fmt::Display) -> Self {
        CcError::Io {
            path: path.into(),
            msg: err.to_string(),
        }
    }

    /// Convenience constructor for CLI usage errors.
    pub fn cli(msg: impl Into<String>) -> Self {
        CcError::Cli(msg.into())
    }
}

impl std::fmt::Display for CcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Keep the historical `NavError` renderings: recorded walk
            // terminations embed these strings in released datasets.
            CcError::Net(e) => write!(f, "network error: {e}"),
            CcError::Dns(h) => write!(f, "DNS failure for {h}"),
            CcError::UnknownHost(h) => write!(f, "unknown host {h}"),
            CcError::TooManyRedirects(u) => write!(f, "too many redirects at {u}"),
            CcError::BreakerOpen { host, last } => {
                write!(f, "circuit open for {host} (last error: {last})")
            }
            CcError::Config(m) => write!(f, "invalid configuration: {m}"),
            CcError::Cli(m) => f.write_str(m),
            CcError::Io { path, msg } => write!(f, "{path}: {msg}"),
            CcError::Serde(m) => write!(f, "serialization error: {m}"),
            CcError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            CcError::Protocol(m) => write!(f, "protocol error: {m}"),
            CcError::Panic {
                walk: Some(walk),
                msg,
            } => write!(f, "walk {walk} panicked: {msg}"),
            CcError::Panic { walk: None, msg } => write!(f, "crawl thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for CcError {}

impl From<NetError> for CcError {
    fn from(e: NetError) -> Self {
        CcError::Net(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names() {
        assert_eq!(NetError::ConnRefused.to_string(), "ECONNREFUSED");
        assert_eq!(NetError::ConnReset.to_string(), "ECONNRESET");
        assert_eq!(NetError::TimedOut.to_string(), "ETIMEDOUT");
        assert_eq!(NetError::NameResolution.to_string(), "EAI_NONAME");
    }

    #[test]
    fn net_errors_render_like_the_old_nav_error() {
        let e: CcError = NetError::ConnReset.into();
        assert_eq!(e.to_string(), "network error: ECONNRESET");
    }

    #[test]
    fn transience_classification() {
        assert!(CcError::Net(NetError::ConnRefused).is_transient());
        assert!(CcError::Net(NetError::TimedOut).is_transient());
        assert!(!CcError::Dns("x.com".into()).is_transient());
        assert!(!CcError::UnknownHost("x.com".into()).is_transient());
        assert!(!CcError::TooManyRedirects("https://x.com/".into()).is_transient());
        assert!(!CcError::BreakerOpen {
            host: "x.com".into(),
            last: NetError::ConnRefused,
        }
        .is_transient());
        assert!(!CcError::Config("bad".into()).is_transient());
        assert!(!CcError::Protocol("bad magic".into()).is_transient());
    }

    #[test]
    fn protocol_errors_render_with_prefix() {
        let e = CcError::Protocol("unknown frame type 0x7f".into());
        assert_eq!(e.to_string(), "protocol error: unknown frame type 0x7f");
    }

    #[test]
    fn breaker_open_names_the_host() {
        let e = CcError::BreakerOpen {
            host: "r.trk.io".into(),
            last: NetError::ConnRefused,
        };
        let s = e.to_string();
        assert!(s.contains("r.trk.io") && s.contains("ECONNREFUSED"), "{s}");
    }

    #[test]
    fn constructors() {
        let e = CcError::io("/tmp/x", "permission denied");
        assert_eq!(e.to_string(), "/tmp/x: permission denied");
        assert_eq!(CcError::cli("no command given").to_string(), "no command given");
    }
}
