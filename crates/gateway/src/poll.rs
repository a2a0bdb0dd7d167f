//! The poll core: nonblocking sockets and the readiness sweep.
//!
//! This is the **only** module in the gateway allowed to touch `std::net`
//! (enforced by `scripts/lint_invariants.py` rule R5) — everything above
//! it sees tokens and byte buffers, never sockets.
//!
//! Honesty note on the mechanism: the workspace forbids `unsafe` and
//! vendors no libc/mio, so there is no `epoll_wait` to sleep in. The
//! event loop is instead a *level-triggered readiness sweep*: every
//! socket is `set_nonblocking(true)` and each iteration attempts
//! `accept`/`read`/`write` on whatever has work, treating `WouldBlock` as
//! "not ready" — per connection one `read` per sweep, straight into the
//! free tail of that connection's receive buffer (`Conn::read_space`), so
//! received bytes are copied once, by the kernel. When a full sweep does no work, the loop parks on the
//! [`IdleGate`](crate::wake::IdleGate) with an adaptive backoff instead
//! of spinning, so an idle gateway costs ~zero CPU while a loaded one
//! never sleeps. For the connection counts this system targets (hundreds
//! of sockets, each carrying thousands of lines/s) the sweep is bounded
//! by the same syscalls epoll would make on ready sockets; what it gives
//! up is O(1) discovery of *which* sockets are ready, which matters only
//! in the many-idle-connections regime.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
// Re-exported so the rest of the crate can name addresses without
// touching `std::net` itself (lint rule R5 confines it to this module).
pub use std::net::SocketAddr;

/// Identifies one connection inside the [`Poller`]: a dense slot index,
/// which the gateway uses as the index of its own connection table.
/// Tokens are reused after close — the gateway pairs each with a
/// generation id.
pub type Token = usize;

/// Result of a nonblocking read attempt.
#[derive(Debug)]
pub enum ReadOutcome {
    /// `n` bytes were appended to the buffer.
    Data(usize),
    /// The socket has no bytes right now.
    WouldBlock,
    /// EOF or a hard error — the connection is done.
    Closed,
}

/// Result of a nonblocking write attempt.
#[derive(Debug)]
pub enum WriteOutcome {
    /// `n` bytes were written.
    Wrote(usize),
    /// The socket's send buffer is full.
    WouldBlock,
    /// The peer is gone — the connection is done.
    Closed,
}

/// Owns the listener and every connection socket, all nonblocking.
pub struct Poller {
    listener: TcpListener,
    addr: SocketAddr,
    /// Slab of connection sockets; `None` slots are free for reuse.
    conns: Vec<Option<TcpStream>>,
    free: Vec<Token>,
}

impl Poller {
    /// Bind the listener (port 0 picks an ephemeral port) and switch it
    /// to nonblocking accept.
    pub fn bind(addr: &str) -> std::io::Result<Poller> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        Ok(Poller {
            listener,
            addr,
            conns: Vec::new(),
            free: Vec::new(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Try to accept one connection. `Ok(None)` means nothing is waiting.
    pub fn accept(&mut self) -> std::io::Result<Option<Token>> {
        match self.listener.accept() {
            Ok((stream, _peer)) => {
                stream.set_nonblocking(true)?;
                let _ = stream.set_nodelay(true);
                let token = match self.free.pop() {
                    Some(t) => {
                        self.conns[t] = Some(stream);
                        t
                    }
                    None => {
                        self.conns.push(Some(stream));
                        self.conns.len() - 1
                    }
                };
                Ok(Some(token))
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => Ok(None),
            Err(e) if e.kind() == ErrorKind::Interrupted => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Nonblocking read into `buf`.
    pub fn read(&mut self, token: Token, buf: &mut [u8]) -> ReadOutcome {
        let Some(Some(stream)) = self.conns.get_mut(token) else {
            return ReadOutcome::Closed;
        };
        match stream.read(buf) {
            Ok(0) => ReadOutcome::Closed,
            Ok(n) => ReadOutcome::Data(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => ReadOutcome::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => ReadOutcome::WouldBlock,
            Err(_) => ReadOutcome::Closed,
        }
    }

    /// Nonblocking write of as much of `buf` as the socket accepts.
    pub fn write(&mut self, token: Token, buf: &[u8]) -> WriteOutcome {
        let Some(Some(stream)) = self.conns.get_mut(token) else {
            return WriteOutcome::Closed;
        };
        match stream.write(buf) {
            Ok(n) => WriteOutcome::Wrote(n),
            Err(e) if e.kind() == ErrorKind::WouldBlock => WriteOutcome::WouldBlock,
            Err(e) if e.kind() == ErrorKind::Interrupted => WriteOutcome::WouldBlock,
            Err(_) => WriteOutcome::Closed,
        }
    }

    /// Drop the socket (the OS flushes or resets as usual) and free the
    /// token for reuse.
    pub fn close(&mut self, token: Token) {
        if let Some(slot) = self.conns.get_mut(token) {
            if slot.take().is_some() {
                self.free.push(token);
            }
        }
    }

    /// Number of open connections.
    pub fn open_count(&self) -> usize {
        self.conns.iter().filter(|c| c.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::{Duration, Instant};

    /// Loopback smoke for the poll primitives: accept, echo, close —
    /// all without ever blocking the polling side.
    #[test]
    fn nonblocking_accept_read_write_roundtrip() {
        let mut poller = Poller::bind("127.0.0.1:0").unwrap();
        let addr = poller.local_addr();
        assert!(poller.accept().unwrap().is_none(), "no client yet");

        let mut client = TcpStream::connect(addr).unwrap();
        let token = {
            let deadline = Instant::now() + Duration::from_secs(5);
            loop {
                if let Some(t) = poller.accept().unwrap() {
                    break t;
                }
                assert!(Instant::now() < deadline, "accept timed out");
                sync::thread::sleep(Duration::from_millis(1));
            }
        };
        client.write_all(b"hello\n").unwrap();
        let mut buf = [0u8; 64];
        let deadline = Instant::now() + Duration::from_secs(5);
        let n = loop {
            match poller.read(token, &mut buf) {
                ReadOutcome::Data(n) => break n,
                ReadOutcome::WouldBlock => {
                    assert!(Instant::now() < deadline, "read timed out");
                    sync::thread::sleep(Duration::from_millis(1));
                }
                ReadOutcome::Closed => panic!("client closed early"),
            }
        };
        assert_eq!(&buf[..n], b"hello\n");
        match poller.write(token, b"ok\n") {
            WriteOutcome::Wrote(3) => {}
            other => panic!("unexpected write outcome {other:?}"),
        }
        let mut reply = [0u8; 3];
        client.read_exact(&mut reply).unwrap();
        assert_eq!(&reply, b"ok\n");

        assert_eq!(poller.open_count(), 1);
        poller.close(token);
        assert_eq!(poller.open_count(), 0);
        // token slot is reused by the next accept
        let _client2 = TcpStream::connect(addr).unwrap();
        let deadline = Instant::now() + Duration::from_secs(5);
        let token2 = loop {
            if let Some(t) = poller.accept().unwrap() {
                break t;
            }
            assert!(Instant::now() < deadline, "second accept timed out");
            sync::thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(token2, token, "freed token must be reused");
    }
}
