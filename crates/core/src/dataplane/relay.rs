//! The split-TCP relay: a real TCP proxy over `std::net`.
//!
//! Protocol: the client connects and sends one [`Frame`](super::Frame) whose `addr` is
//! the destination (`payload` is ignored in the hello); the relay opens a
//! second TCP connection to that destination and pumps bytes in both
//! directions until either side closes. This is the overlay-node program
//! of the paper's "Split-Overlay" mode: the end-to-end transfer becomes
//! two independent TCP loops, halving the per-loop RTT.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use obs::sync::{RELAY_BYTES, RELAY_CONNECTIONS};

use crate::dataplane::frame::read_frame;

/// Why a relay connection attempt failed before any byte was relayed.
///
/// Errors past this point (mid-pump resets) are stream terminations, not
/// connection failures: the pumps half-close and the peers observe EOF.
#[derive(Debug)]
pub enum RelayError {
    /// The client's hello frame was missing or malformed.
    Hello(io::Error),
    /// The relay could not reach the destination the hello asked for.
    Connect {
        /// The requested destination address.
        addr: String,
        /// The underlying socket error.
        source: io::Error,
    },
    /// Duplicating the sockets for the two pump directions failed.
    Split(io::Error),
}

impl std::fmt::Display for RelayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RelayError::Hello(e) => write!(f, "relay hello failed: {e}"),
            RelayError::Connect { addr, source } => {
                write!(f, "relay could not connect to {addr}: {source}")
            }
            RelayError::Split(e) => write!(f, "relay socket split failed: {e}"),
        }
    }
}

impl std::error::Error for RelayError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RelayError::Hello(e) | RelayError::Split(e) => Some(e),
            RelayError::Connect { source, .. } => Some(source),
        }
    }
}

/// A running split-TCP relay bound to a local address.
///
/// Dropping the handle requests shutdown and joins the accept thread
/// (connection pumps finish their in-flight transfers on their own
/// threads).
#[derive(Debug)]
pub struct SplitRelay {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    relayed: Arc<AtomicU64>,
    failed: Arc<AtomicU64>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SplitRelay {
    /// Binds a relay on `127.0.0.1` (ephemeral port) and starts serving.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding.
    pub fn spawn() -> io::Result<SplitRelay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Accept loop polls so shutdown can interrupt it.
        listener.set_nonblocking(true)?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let relayed = Arc::new(AtomicU64::new(0));
        let failed = Arc::new(AtomicU64::new(0));
        let shutdown2 = Arc::clone(&shutdown);
        let relayed2 = Arc::clone(&relayed);
        let failed2 = Arc::clone(&failed);
        let accept_thread = std::thread::spawn(move || {
            while !shutdown2.load(Ordering::Relaxed) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        let relayed = Arc::clone(&relayed2);
                        let failed = Arc::clone(&failed2);
                        std::thread::spawn(move || {
                            if handle_connection(stream, &relayed).is_err() {
                                failed.fetch_add(1, Ordering::Relaxed);
                            }
                        });
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => break,
                }
            }
        });
        Ok(SplitRelay {
            addr,
            shutdown,
            relayed,
            failed,
            accept_thread: Some(accept_thread),
        })
    }

    /// The relay's listening address.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Total bytes relayed (both directions) since start.
    #[must_use]
    pub fn bytes_relayed(&self) -> u64 {
        self.relayed.load(Ordering::Relaxed)
    }

    /// Connections that failed before relaying (bad hello, unreachable
    /// destination, or socket split failure — see [`RelayError`]).
    #[must_use]
    pub fn failed_connections(&self) -> u64 {
        self.failed.load(Ordering::Relaxed)
    }
}

impl Drop for SplitRelay {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Relaxed);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn handle_connection(client: TcpStream, relayed: &Arc<AtomicU64>) -> Result<(), RelayError> {
    RELAY_CONNECTIONS.inc();
    client.set_nodelay(true).ok();
    let hello = read_frame(&client).map_err(RelayError::Hello)?;
    let upstream = TcpStream::connect(&hello.addr).map_err(|source| RelayError::Connect {
        addr: hello.addr.clone(),
        source,
    })?;
    upstream.set_nodelay(true).ok();

    let c2 = client.try_clone().map_err(RelayError::Split)?;
    let u2 = upstream.try_clone().map_err(RelayError::Split)?;
    let r1 = Arc::clone(relayed);
    let r2 = Arc::clone(relayed);
    let t1 = std::thread::spawn(move || pump(client, u2, &r1));
    let t2 = std::thread::spawn(move || pump(upstream, c2, &r2));
    let _ = t1.join();
    let _ = t2.join();
    Ok(())
}

/// Copies bytes `from → to` until EOF/error, then half-closes the write
/// side so the peer sees the end of stream.
fn pump(mut from: TcpStream, mut to: TcpStream, relayed: &AtomicU64) {
    let mut buf = [0u8; 16 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                relayed.fetch_add(n as u64, Ordering::Relaxed);
                RELAY_BYTES.add(n as u64);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataplane::frame::{write_frame, Bytes, Frame};

    /// A TCP echo server for the tests to target.
    fn spawn_echo() -> io::Result<(SocketAddr, JoinHandle<()>)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let t = std::thread::spawn(move || {
            // Serve a bounded number of connections; tests drop quickly.
            for stream in listener.incoming().take(8).flatten() {
                std::thread::spawn(move || {
                    let mut s2 = stream.try_clone().expect("clone");
                    let mut buf = [0u8; 4096];
                    let mut s = stream;
                    while let Ok(n) = s.read(&mut buf) {
                        if n == 0 || s2.write_all(&buf[..n]).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        Ok((addr, t))
    }

    fn connect_through(relay: &SplitRelay, target: SocketAddr) -> io::Result<TcpStream> {
        let mut stream = TcpStream::connect(relay.addr())?;
        write_frame(&mut stream, &Frame::new(target.to_string(), Bytes::new()))?;
        Ok(stream)
    }

    #[test]
    fn relays_bytes_both_ways() {
        let (echo, _t) = spawn_echo().unwrap();
        let relay = SplitRelay::spawn().unwrap();
        let mut conn = connect_through(&relay, echo).unwrap();
        conn.write_all(b"through the overlay").unwrap();
        let mut buf = [0u8; 64];
        let n = conn.read(&mut buf).unwrap();
        assert_eq!(&buf[..n], b"through the overlay");
        assert!(relay.bytes_relayed() >= 2 * 19, "both directions counted");
    }

    #[test]
    fn large_transfer_is_intact() {
        let (echo, _t) = spawn_echo().unwrap();
        let relay = SplitRelay::spawn().unwrap();
        let mut conn = connect_through(&relay, echo).unwrap();
        // 1 MiB of patterned data, written and read back in chunks.
        let chunk: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        let mut reader = conn.try_clone().unwrap();
        let writer = std::thread::spawn(move || {
            for _ in 0..256 {
                conn.write_all(&chunk).unwrap();
            }
            conn.shutdown(Shutdown::Write).unwrap();
        });
        let mut received = Vec::with_capacity(1 << 20);
        let mut buf = [0u8; 8192];
        loop {
            let n = reader.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            received.extend_from_slice(&buf[..n]);
        }
        writer.join().unwrap();
        assert_eq!(received.len(), 1 << 20);
        assert!(received
            .chunks(4096)
            .all(|c| c.iter().enumerate().all(|(i, &b)| b == (i % 251) as u8)));
    }

    #[test]
    fn concurrent_connections_are_isolated() {
        let (echo, _t) = spawn_echo().unwrap();
        let relay = SplitRelay::spawn().unwrap();
        let handles: Vec<_> = (0..4u8)
            .map(|i| {
                let mut conn = connect_through(&relay, echo).unwrap();
                std::thread::spawn(move || {
                    let msg = vec![i; 1000];
                    conn.write_all(&msg).unwrap();
                    let mut got = vec![0u8; 1000];
                    conn.read_exact(&mut got).unwrap();
                    assert_eq!(got, msg, "stream {i} corrupted");
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Polls until the relay records `n` failed connections (the accept
    /// loop counts on its own threads) or a generous deadline passes.
    fn wait_for_failures(relay: &SplitRelay, n: u64) -> u64 {
        for _ in 0..400 {
            let got = relay.failed_connections();
            if got >= n {
                return got;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        relay.failed_connections()
    }

    #[test]
    fn unreachable_target_is_a_counted_connect_error() {
        let relay = SplitRelay::spawn().unwrap();
        // Port 1 on localhost is almost certainly closed.
        let mut conn = connect_through(&relay, "127.0.0.1:1".parse().unwrap()).unwrap();
        let mut buf = [0u8; 8];
        // The relay fails to connect and drops us: read returns EOF (0)
        // or an error — never data.
        match conn.read(&mut buf) {
            Ok(0) | Err(_) => {}
            Ok(n) => panic!("received {n} bytes from nowhere"),
        }
        assert_eq!(
            wait_for_failures(&relay, 1),
            1,
            "RelayError::Connect must be counted"
        );
    }

    #[test]
    fn malformed_hello_is_a_counted_hello_error() {
        let relay = SplitRelay::spawn().unwrap();
        {
            let mut conn = TcpStream::connect(relay.addr()).unwrap();
            // An address-length prefix far over the frame limit.
            conn.write_all(&[0xFF, 0xFF, 0xFF, 0x7F]).unwrap();
        }
        assert_eq!(
            wait_for_failures(&relay, 1),
            1,
            "RelayError::Hello must be counted"
        );
    }

    #[test]
    fn relay_error_display_names_the_failure() {
        let hello = RelayError::Hello(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(hello.to_string().contains("hello"));
        let connect = RelayError::Connect {
            addr: "198.51.100.1:80".into(),
            source: io::Error::new(io::ErrorKind::ConnectionRefused, "refused"),
        };
        assert!(connect.to_string().contains("198.51.100.1:80"));
        let split = RelayError::Split(io::Error::other("dup"));
        assert!(split.to_string().contains("split"));
        use std::error::Error;
        assert!(connect.source().is_some());
    }

    #[test]
    fn shutdown_on_drop_is_clean() {
        let relay = SplitRelay::spawn().unwrap();
        let addr = relay.addr();
        drop(relay);
        // Give the accept thread a moment to exit, then the port may be
        // reused; connecting may fail or connect-and-EOF — both fine, the
        // property is that drop() returned (join didn't hang).
        let _ = TcpStream::connect(addr);
    }
}
