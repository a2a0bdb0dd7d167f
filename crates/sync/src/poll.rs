//! `poll(2)`: sleep until one of several descriptors is ready.
//!
//! The workspace's only FFI and its only `unsafe` (lint rules R2/R3 and the
//! `extern "C"` rule of `scripts/lint_invariants.py` keep it so). `std` can
//! block on one socket or on a condition variable, never on "whichever of
//! these sockets speaks first"; the gateway's event loop needs exactly that
//! (DESIGN.md §8), and the facade every blocking operation of the workspace
//! already goes through is where the one system call lives. There is no
//! `libc` crate behind it: `std` links the C library on every unix target,
//! so declaring the symbol is enough.
//!
//! The call is *not* a schedule point of the model checker — a descriptor's
//! readiness is the kernel's state, not the scheduler's. What is checked
//! under `--cfg intellog_check` is the flag protocol around the sleep
//! (`tests/model_check.rs`, with a condition variable standing in for the
//! descriptor).

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::RawFd;
use std::time::Duration;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on the other unixes.
#[cfg(any(target_os = "linux", target_os = "android"))]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(any(target_os = "linux", target_os = "android")))]
type NfdsT = std::ffi::c_uint;

// The event bits every unix agrees on (POSIX leaves the values open; Linux,
// the BSDs and macOS all use these).
const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;

/// One entry of the descriptor array: `struct pollfd`, field for field.
/// The array belongs to the caller, who refills it in place between
/// sleeps.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl PollFd {
    /// Watch `fd` for readability (`read`), for room to write (`write`),
    /// or — with neither — only for the conditions the kernel reports
    /// unasked: an error, a hang-up, a descriptor that is not open. A
    /// caller that wants silence about a descriptor leaves it out of the
    /// array.
    pub fn new(fd: RawFd, read: bool, write: bool) -> PollFd {
        let mut events = 0;
        if read {
            events |= POLLIN;
        }
        if write {
            events |= POLLOUT;
        }
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }

    /// Whether the last [`poll`] reported anything for this entry:
    /// readiness that was asked for, or an error/hang-up that was not —
    /// either way the next nonblocking operation on it will not say
    /// `WouldBlock` for lack of news.
    pub fn ready(&self) -> bool {
        self.revents != 0
    }
}

extern "C" {
    #[link_name = "poll"]
    fn c_poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until an entry of `fds` is ready or `timeout` passes (`None`:
/// until something is ready, however long). Returns how many entries are
/// ready; each says so through [`PollFd::ready`]. `Ok(0)` is a timeout
/// or a signal (`EINTR`) — a spurious wake the caller treats like any
/// other: look again, sleep again. The timeout has millisecond
/// granularity and is rounded up.
pub fn poll(fds: &mut [PollFd], timeout: Option<Duration>) -> io::Result<usize> {
    let timeout_ms = match timeout {
        None => -1,
        Some(t) => c_int::try_from(t.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX),
    };
    // Why the call is sound for every argument safe code can pass: the
    // slice's own length is passed as `nfds` (the cast cannot truncate —
    // the kernel refuses, with EINVAL, more entries than RLIMIT_NOFILE long
    // before `NfdsT` overflows); the kernel writes nothing but `revents`
    // and keeps no pointer past the call; and a descriptor number that is
    // closed or was never open is answered with POLLNVAL in `revents` —
    // poll moves no data to or from the descriptors, so no value of `fd`
    // can touch memory.
    //
    // SAFETY: `fds` is an exclusively borrowed, initialised slice of
    // `#[repr(C)]` structs laid out as `struct pollfd`, and `nfds` is its
    // length: the kernel reads and writes inside the slice only.
    let n = unsafe { c_poll(fds.as_mut_ptr(), fds.len() as NfdsT, timeout_ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let err = io::Error::last_os_error();
    if err.kind() == io::ErrorKind::Interrupted {
        return Ok(0);
    }
    Err(err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn layout_is_struct_pollfd() {
        assert_eq!(std::mem::size_of::<PollFd>(), 8);
        assert_eq!(std::mem::align_of::<PollFd>(), 4);
    }

    #[test]
    fn reports_exactly_the_ready_descriptors() {
        let (mut a_tx, a_rx) = UnixStream::pair().unwrap();
        let (_b_tx, b_rx) = UnixStream::pair().unwrap();
        let mut fds = [
            PollFd::new(a_rx.as_raw_fd(), true, false),
            PollFd::new(b_rx.as_raw_fd(), true, false),
        ];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].ready() && !fds[1].ready());

        a_tx.write_all(b"x").unwrap();
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready() && !fds[1].ready());

        // level-triggered: still ready until the byte is read
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        let mut byte = [0u8; 1];
        (&a_rx).read_exact(&mut byte).unwrap();
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 0);
        assert!(!fds[0].ready(), "revents is rewritten by every call");
    }

    #[test]
    fn a_fresh_socket_has_room_to_write() {
        let (tx, _rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(tx.as_raw_fd(), false, true)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        assert!(fds[0].ready());
    }

    #[test]
    fn a_hang_up_is_reported_unasked_and_a_left_out_descriptor_is_silent() {
        let (tx, rx) = UnixStream::pair().unwrap();
        drop(tx);
        let mut fds = [PollFd::new(rx.as_raw_fd(), false, false)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(fds[0].ready(), "POLLHUP cannot be masked");
        assert_eq!(poll(&mut [], Some(Duration::ZERO)).unwrap(), 0);
    }

    #[test]
    fn a_descriptor_that_is_not_open_is_an_answer_not_an_error() {
        let mut fds = [PollFd::new(RawFd::MAX, true, false)];
        assert_eq!(poll(&mut fds, Some(Duration::ZERO)).unwrap(), 1);
        assert!(fds[0].ready(), "POLLNVAL");
    }

    #[test]
    fn the_timeout_is_honoured_and_rounded_up() {
        let (_tx, rx) = UnixStream::pair().unwrap();
        let mut fds = [PollFd::new(rx.as_raw_fd(), true, false)];
        let started = Instant::now();
        assert_eq!(
            poll(&mut fds, Some(Duration::from_micros(20_500))).unwrap(),
            0
        );
        assert!(started.elapsed() >= Duration::from_millis(20));
    }

    #[test]
    fn a_write_from_another_thread_ends_the_sleep() {
        let (mut tx, rx) = UnixStream::pair().unwrap();
        let writer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.write_all(b"x").unwrap();
            tx
        });
        let mut fds = [PollFd::new(rx.as_raw_fd(), true, false)];
        assert_eq!(poll(&mut fds, None).unwrap(), 1);
        drop(writer.join().unwrap());
    }
}
