//! The poll core: nonblocking sockets, and the one place the loop sleeps.
//!
//! This is the **only** module in the gateway allowed to touch sockets and
//! descriptors — `std::net`, `std::os::unix::net`, `std::os::fd` (enforced
//! by `scripts/lint_invariants.py` rule R5) — everything above it sees
//! tokens and byte buffers.
//!
//! Two halves. *Moving bytes* is a level-triggered sweep: every socket is
//! `set_nonblocking(true)` and the loop attempts `accept`/`read`/`write`
//! on each, treating `WouldBlock` as "not ready" — per connection one
//! `read` per sweep, straight into the free tail of that connection's
//! receive buffer (`Conn::read_space`), so received bytes are copied once,
//! by the kernel. *Waiting* is [`Poller::wait`]: when a sweep did no work
//! the loop blocks in `poll(2)` (through `sync::poll`, the workspace's one
//! FFI) over the listener, the wake descriptor and every connection the
//! caller names an interest in, and returns the moment any of them is
//! ready. No timer: a readable socket, a shard ack and freed queue room
//! all end the same sleep at once, and nothing else does.
//!
//! The wake descriptor is the read end of a `UnixStream::pair()` this
//! module owns. [`Poller::kicker`] hands out the write end as a closure
//! that puts one byte on it; [`IdleGate`](crate::wake::IdleGate) guards
//! that closure with its pending flag, so other threads end the sleep
//! without seeing a socket. `wait` drains the byte before it returns and
//! says it did — the caller then clears the gate's flag, *before* the
//! sweep that consumes the work (`wake.rs` has the ordering argument).
//!
//! What the sweep gives up against `epoll` is O(1) discovery of *which*
//! sockets are ready: after a wake it still tries every connection. For
//! the connection counts this system targets (hundreds of sockets, each
//! carrying thousands of lines/s) that is the same system calls epoll
//! would make on the ready ones plus a `WouldBlock` on each of the rest.

use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::net::UnixStream;
use std::time::Duration;
use sync::poll::PollFd;
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

/// What an `accept` failure means for the listener: one lost connection
/// must not stop a gateway, and a listener that stays readable must not
/// turn the loop's sleep into a spin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AcceptFailure {
    /// The connection at the head of the backlog died there (a client
    /// that reset before it was accepted, a network error the kernel
    /// passes on through `accept`). It is gone; the next one may be fine —
    /// try again at once.
    Connection,
    /// Nothing was taken off the backlog: no descriptor or memory to give
    /// it (`EMFILE`, `ENFILE`, `ENOBUFS`, `ENOMEM`), or an error this
    /// module does not know. The listener stays readable, so it is left
    /// out of the next wait — an `accept` is tried again on the next sweep,
    /// which whatever frees a descriptor (a connection closing) causes.
    Stalled,
    /// The listener itself is unusable; the gateway drains and exits.
    Fatal,
}

/// Classify an `accept` error by kind and raw OS error alone. The raw
/// numbers are Linux's where they differ between unixes (`ENOTSOCK`, the
/// network errors); elsewhere such an error reads as `Stalled`, the safe
/// default.
pub fn classify_accept_error(kind: ErrorKind, raw_os_error: Option<i32>) -> AcceptFailure {
    const EPERM: i32 = 1; // a firewall rule refused the connection
    const EBADF: i32 = 9;
    const EFAULT: i32 = 14;
    const ENOTSOCK: i32 = 88;
    // accept(2): "already-pending network errors on the new socket" —
    // ENONET, EPROTO, ENOPROTOOPT, EOPNOTSUPP, ENETDOWN, ENETUNREACH,
    // ETIMEDOUT, EHOSTDOWN, EHOSTUNREACH; to be treated like a retry.
    const PENDING_NETWORK_ERRORS: [i32; 9] = [64, 71, 92, 95, 100, 101, 110, 112, 113];
    match (kind, raw_os_error) {
        (ErrorKind::ConnectionAborted | ErrorKind::ConnectionReset, _) => AcceptFailure::Connection,
        (_, Some(EPERM)) => AcceptFailure::Connection,
        (_, Some(raw)) if PENDING_NETWORK_ERRORS.contains(&raw) => AcceptFailure::Connection,
        (ErrorKind::InvalidInput, _) => AcceptFailure::Fatal,
        (_, Some(EBADF | EFAULT | ENOTSOCK)) => AcceptFailure::Fatal,
        _ => AcceptFailure::Stalled,
    }
}

/// Result of a nonblocking accept attempt.
#[derive(Debug)]
pub enum AcceptOutcome {
    /// A connection was accepted into this slot.
    Accepted(Token),
    /// Nothing is waiting.
    WouldBlock,
    /// The attempt failed; how, and what it means for the listener.
    Failed(AcceptFailure, std::io::Error),
}

/// Owns the listener, the wake descriptor and every connection socket,
/// all nonblocking.
pub struct Poller {
    listener: TcpListener,
    addr: SocketAddr,
    /// The pair [`Poller::wait`] sleeps on (`wake_rx`) and
    /// [`Poller::kicker`]s write to. Keeping a write end here means the
    /// read end never reads hang-up, whoever drops their kicker.
    wake_rx: UnixStream,
    wake_tx: UnixStream,
    /// Slab of connection sockets; `None` slots are free for reuse.
    conns: Vec<Option<TcpStream>>,
    free: Vec<Token>,
    /// The descriptor array of the wait, refilled in place: the wake
    /// descriptor first, then the listener if watched, then connections.
    fds: Vec<PollFd>,
}

impl Poller {
    /// Bind the listener (port 0 picks an ephemeral port) and switch it
    /// to nonblocking accept.
    pub fn bind(addr: &str) -> std::io::Result<Poller> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (wake_tx, wake_rx) = UnixStream::pair()?;
        wake_tx.set_nonblocking(true)?;
        wake_rx.set_nonblocking(true)?;
        Ok(Poller {
            listener,
            addr,
            wake_rx,
            wake_tx,
            conns: Vec::new(),
            free: Vec::new(),
            fds: Vec::new(),
        })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A closure that ends the current (or the next) [`Poller::wait`] from
    /// any thread, by putting one byte on the wake pair. Meant to sit
    /// behind an [`IdleGate`](crate::wake::IdleGate), whose pending flag
    /// keeps it to one byte per sleep; a full pair (`WouldBlock`) already
    /// holds a byte that does the job, so the error is not one.
    pub fn kicker(&self) -> std::io::Result<impl Fn() + Send + Sync + 'static> {
        let tx = self.wake_tx.try_clone()?;
        Ok(move || {
            let _ = (&tx).write(&[1]);
        })
    }

    /// Try to accept one connection.
    pub fn accept(&mut self) -> AcceptOutcome {
        let stream = match self.listener.accept() {
            Ok((stream, _peer)) => stream,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {
                return AcceptOutcome::WouldBlock;
            }
            Err(e) => {
                let failure = classify_accept_error(e.kind(), e.raw_os_error());
                return AcceptOutcome::Failed(failure, e);
            }
        };
        // A blocking socket in the sweep would stall every client: a stream
        // that cannot be switched is dropped, and only that stream.
        if let Err(e) = stream.set_nonblocking(true) {
            return AcceptOutcome::Failed(AcceptFailure::Connection, e);
        }
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
        AcceptOutcome::Accepted(token)
    }

    /// Sleep until something the caller would act on is ready: a kick
    /// ([`Poller::kicker`]), a connection waiting to be accepted if
    /// `listen`, or a connection of `interests` — `(token, read, write)`:
    /// readable if `read`, room to send if `write`; one with neither is
    /// left out of the set altogether, because a socket merely *listed*
    /// still reports hang-up and error, and a connection the sweep is not
    /// going to touch must not be able to end the sleep. `timeout` bounds
    /// the sleep (`None`: no bound). Returns whether a kick ended it (or
    /// arrived during it); the kick is consumed. Spurious returns happen
    /// (a signal): the caller sweeps and comes back.
    ///
    /// Allocates nothing once the descriptor array has grown to the
    /// number of connections.
    pub fn wait(
        &mut self,
        listen: bool,
        interests: impl Iterator<Item = (Token, bool, bool)>,
        timeout: Option<Duration>,
    ) -> std::io::Result<bool> {
        self.fds.clear();
        self.fds
            .push(PollFd::new(self.wake_rx.as_raw_fd(), true, false));
        if listen {
            self.fds
                .push(PollFd::new(self.listener.as_raw_fd(), true, false));
        }
        for (token, read, write) in interests {
            if let (true, Some(Some(stream))) = (read || write, self.conns.get(token)) {
                self.fds.push(PollFd::new(stream.as_raw_fd(), read, write));
            }
        }
        sync::poll::poll(&mut self.fds, timeout)?;
        let kicked = self.fds[0].ready();
        if kicked {
            // Everything, not one byte: kicks that raced each other's
            // pending flag may have left more than one.
            let mut sink = [0u8; 64];
            while matches!((&self.wake_rx).read(&mut sink), Ok(n) if n == sink.len()) {}
        }
        Ok(kicked)
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

    const BRIEF: Option<Duration> = Some(Duration::from_millis(20));

    /// Sleep until the listener is ready, then accept.
    fn accept_one(poller: &mut Poller) -> Token {
        poller.wait(true, std::iter::empty(), None).unwrap();
        match poller.accept() {
            AcceptOutcome::Accepted(token) => token,
            other => panic!("unexpected accept outcome {other:?}"),
        }
    }

    /// Loopback smoke for the poll primitives: accept, echo, close — the
    /// polling side never blocks on a socket and never sleeps on a timer:
    /// every pause is a `wait` that the awaited event ends.
    #[test]
    fn nonblocking_accept_read_write_roundtrip() {
        let mut poller = Poller::bind("127.0.0.1:0").unwrap();
        let addr = poller.local_addr();
        assert!(
            matches!(poller.accept(), AcceptOutcome::WouldBlock),
            "no client yet"
        );
        assert!(!poller.wait(true, std::iter::empty(), BRIEF).unwrap());

        let mut client = TcpStream::connect(addr).unwrap();
        let token = accept_one(&mut poller);
        let mut buf = [0u8; 64];
        assert!(matches!(
            poller.read(token, &mut buf),
            ReadOutcome::WouldBlock
        ));
        client.write_all(b"hello\n").unwrap();
        let reading = [(token, true, false)];
        assert!(!poller.wait(false, reading.into_iter(), None).unwrap());
        match poller.read(token, &mut buf) {
            ReadOutcome::Data(n) => assert_eq!(&buf[..n], b"hello\n"),
            other => panic!("unexpected read outcome {other:?}"),
        }
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
        assert_eq!(accept_one(&mut poller), token, "freed token must be reused");
    }

    /// The interest rules the gateway's sleep rests on, at the socket: a
    /// connection is watched for exactly what the caller names, and one
    /// named for nothing cannot end the wait however ready it is.
    #[test]
    fn wait_watches_what_it_is_told_and_nothing_else() {
        let mut poller = Poller::bind("127.0.0.1:0").unwrap();
        let mut client = TcpStream::connect(poller.local_addr()).unwrap();
        let token = accept_one(&mut poller);
        let wait = |poller: &mut Poller, read, write| {
            let interest = [(token, read, write)];
            let started = std::time::Instant::now();
            poller.wait(true, interest.into_iter(), BRIEF).unwrap();
            started.elapsed() < Duration::from_millis(20)
        };
        assert!(!wait(&mut poller, true, false), "silent: nothing to read");
        assert!(
            wait(&mut poller, false, true),
            "an empty send buffer has room"
        );

        client.write_all(b"PING\n").unwrap();
        // the byte may still be in flight: wait for it with no bound
        assert!(!poller
            .wait(false, [(token, true, false)].into_iter(), None)
            .unwrap());
        assert!(
            wait(&mut poller, true, false),
            "level-triggered: still unread"
        );
        assert!(
            !wait(&mut poller, false, false),
            "readable, but not watched"
        );

        // half-closed: readable for ever (first the bytes, then the EOF),
        // and once the peer is gone altogether a hang-up no mask hides —
        // so "not watched" has to mean "not in the set"
        client.shutdown(std::net::Shutdown::Write).unwrap();
        assert!(!wait(&mut poller, false, false));
        drop(client);
        let mut buf = [0u8; 64];
        while !matches!(poller.read(token, &mut buf), ReadOutcome::Closed) {
            poller
                .wait(false, [(token, true, false)].into_iter(), None)
                .unwrap();
        }
        assert!(
            !wait(&mut poller, false, false),
            "closed by the peer, unwatched"
        );
        assert!(wait(&mut poller, true, false), "watched: ready for ever");
    }

    #[test]
    fn a_listener_left_out_cannot_end_the_wait() {
        let mut poller = Poller::bind("127.0.0.1:0").unwrap();
        let _client = TcpStream::connect(poller.local_addr()).unwrap();
        poller.wait(true, std::iter::empty(), None).unwrap();
        // a connection is waiting and stays waiting: what descriptor
        // exhaustion looks like to the loop
        let started = std::time::Instant::now();
        assert!(!poller.wait(false, std::iter::empty(), BRIEF).unwrap());
        assert!(started.elapsed() >= Duration::from_millis(20));
        assert!(matches!(poller.accept(), AcceptOutcome::Accepted(_)));
    }

    #[test]
    fn a_kick_ends_the_wait_once() {
        let mut poller = Poller::bind("127.0.0.1:0").unwrap();
        let kick = poller.kicker().unwrap();
        kick();
        kick();
        assert!(poller.wait(true, std::iter::empty(), None).unwrap());
        assert!(
            !poller.wait(true, std::iter::empty(), BRIEF).unwrap(),
            "every byte of the kick was consumed"
        );
        // dropping a kicker is not a hang-up: the poller holds a write end
        drop(kick);
        assert!(!poller.wait(true, std::iter::empty(), BRIEF).unwrap());
    }

    /// Fatal or not is a pure function of the error's kind and number.
    #[test]
    fn accept_errors_are_classified_by_kind_and_raw_os_error() {
        use AcceptFailure::{Connection, Fatal, Stalled};
        let of_raw = |raw: i32| {
            let e = std::io::Error::from_raw_os_error(raw);
            classify_accept_error(e.kind(), e.raw_os_error())
        };
        // a client that reset while in the backlog
        assert_eq!(of_raw(103), Connection, "ECONNABORTED");
        assert_eq!(of_raw(104), Connection, "ECONNRESET");
        assert_eq!(of_raw(71), Connection, "EPROTO");
        assert_eq!(of_raw(113), Connection, "EHOSTUNREACH");
        assert_eq!(of_raw(1), Connection, "EPERM: firewalled");
        // descriptor and memory exhaustion: transient, but the connection
        // is still in the backlog
        assert_eq!(of_raw(24), Stalled, "EMFILE");
        assert_eq!(of_raw(23), Stalled, "ENFILE");
        assert_eq!(of_raw(105), Stalled, "ENOBUFS");
        assert_eq!(of_raw(12), Stalled, "ENOMEM");
        // the listener is not a listening socket (any more)
        assert_eq!(of_raw(9), Fatal, "EBADF");
        assert_eq!(of_raw(22), Fatal, "EINVAL");
        assert_eq!(of_raw(88), Fatal, "ENOTSOCK");
        assert_eq!(of_raw(14), Fatal, "EFAULT");
        // by kind alone, as a failing `set_nonblocking` or a test would
        // present it
        assert_eq!(
            classify_accept_error(ErrorKind::ConnectionAborted, None),
            Connection
        );
        assert_eq!(classify_accept_error(ErrorKind::InvalidInput, None), Fatal);
        assert_eq!(classify_accept_error(ErrorKind::Other, None), Stalled);
        assert_eq!(classify_accept_error(ErrorKind::Other, Some(9999)), Stalled);
    }
}
