//! Waking a thread that blocks in [`TcpListener::accept`].
//!
//! A listener thread that blocks in `accept` sleeps until a peer
//! connects, so the thread that decides the listener is done connects to
//! it once itself; the woken thread then sees the decision and leaves.
//!
//! [`TcpListener::accept`]: std::net::TcpListener::accept

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpStream};
use std::time::Duration;

/// How long a wake-up connect may take.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Where to connect to wake a listener bound at `bound`: the bound
/// address itself, scope id and flow info included, with an unspecified
/// IP replaced by loopback.
pub fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let mut wake = bound;
    match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => wake.set_ip(Ipv4Addr::LOCALHOST.into()),
        IpAddr::V6(ip) if ip.is_unspecified() => wake.set_ip(Ipv6Addr::LOCALHOST.into()),
        _ => {}
    }
    wake
}

/// Wake the thread blocked in `accept` on the listener bound at `bound`
/// with a connection of our own, closed at once.
pub fn wake_accept(bound: SocketAddr) -> std::io::Result<()> {
    TcpStream::connect_timeout(&wake_addr(bound), WAKE_TIMEOUT).map(drop)
}
