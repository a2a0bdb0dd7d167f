//! The idle gate: how other threads end the event loop's sleep.
//!
//! The loop sleeps in one place — `Poller::wait`, a `poll(2)` over its
//! sockets and one wake descriptor — and sockets wake it by themselves.
//! Work that appears *off* the loop thread does not: a finished `LOAD` in
//! the completion channel, a shard's `Drain`/`Rebalance` ack, room in a
//! shard queue a connection is waiting for. Whoever creates such work calls
//! [`IdleGate::wake`] *after* the work is visible to the loop (the gateway
//! hands its shards the gate as their `AckWaker`), and the gate kicks the
//! wake descriptor — one byte on a socket pair the poll core owns, which
//! ends the same sleep a readable client socket ends.
//!
//! The kick is guarded by an atomic `pending` flag so a burst of wakes costs
//! one byte, and so the protocol can be stated — and model-checked, in
//! `tests/model_check.rs`, with a condition variable standing in for the
//! descriptor behind the `kick` closure — without a socket in sight:
//!
//! * **waker:** publish the work; `pending.swap(true)`; if it was `false`,
//!   kick.
//! * **loop:** sleep until kicked (or a socket is ready); consume the kick
//!   (the poll core drains the byte); [`IdleGate::clear`] — `pending
//!   .swap(false)`; *then* sweep, consuming the work.
//!
//! Why a wake is never lost: a waker that finds `pending` already `true`
//! skips the kick, so it must be certain the loop has yet to look. It is —
//! its `swap` comes before the loop's clearing `swap` in the flag's
//! modification order (it read `true`, which only a clear overwrites), the
//! two read-modify-writes synchronise, and the sweep comes after the clear:
//! the sweep sees the work. A waker that comes after the clear reads
//! `false` and kicks; the byte sits in the pair until the next sleep, which
//! returns at once. Clearing *after* the sweep breaks exactly this — a
//! waker between the sweep's look and the clear is told "a wake is already
//! pending" when the look it was promised has already happened — and the
//! checker reports that variant as a forced timeout. Consuming the kick
//! *after* the clear breaks it the other way: a kick that lands between the
//! two is drained while its flag stays `true`, and every later waker skips
//! its kick for good. Hence the one order: consume, clear, sweep.

use sync::atomic::{AtomicBool, Ordering};

/// A coalescing wake flag in front of a kick.
pub struct IdleGate {
    pending: AtomicBool,
    kick: Box<dyn Fn() + Send + Sync>,
}

impl IdleGate {
    /// A gate with no wake pending whose kick is `kick`: whatever makes the
    /// loop's sleep return (`Poller::kicker` in the gateway).
    pub fn new(kick: impl Fn() + Send + Sync + 'static) -> IdleGate {
        IdleGate {
            pending: AtomicBool::new(false),
            kick: Box::new(kick),
        }
    }

    /// Signal the loop: work exists. Callable from any thread, after the
    /// work is visible; coalesces (many wakes before the loop's next
    /// [`IdleGate::clear`] kick once).
    pub fn wake(&self) {
        if !self.pending.swap(true, Ordering::SeqCst) {
            (self.kick)();
        }
    }

    /// Loop side: take the pending wake, after the kick has been consumed
    /// and before the sweep that looks for the work. Returns whether one
    /// was pending.
    pub fn clear(&self) -> bool {
        self.pending.swap(false, Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync::atomic::AtomicUsize;
    use sync::Arc;

    fn counting_gate() -> (IdleGate, Arc<AtomicUsize>) {
        let kicks = Arc::new(AtomicUsize::new(0));
        let k = Arc::clone(&kicks);
        let gate = IdleGate::new(move || {
            k.fetch_add(1, Ordering::SeqCst);
        });
        (gate, kicks)
    }

    #[test]
    fn wakes_coalesce_into_one_kick_until_cleared() {
        let (gate, kicks) = counting_gate();
        assert!(!gate.clear(), "nothing pending at first");
        gate.wake();
        gate.wake();
        assert_eq!(kicks.load(Ordering::SeqCst), 1);
        assert!(gate.clear());
        assert!(!gate.clear(), "the wake was taken");
        gate.wake();
        assert_eq!(
            kicks.load(Ordering::SeqCst),
            2,
            "a wake after the clear kicks"
        );
    }

    /// The real kick: a wake from another thread ends a `Poller::wait` with
    /// no timeout, and one that came before the wait is not lost.
    #[test]
    fn a_wake_ends_the_pollers_sleep() {
        let mut poller = crate::poll::Poller::bind("127.0.0.1:0").unwrap();
        let gate = Arc::new(IdleGate::new(poller.kicker().unwrap()));
        gate.wake();
        assert!(poller.wait(true, std::iter::empty(), None).unwrap());
        assert!(gate.clear());

        let g2 = Arc::clone(&gate);
        let waker = sync::thread::spawn(move || {
            sync::thread::sleep(std::time::Duration::from_millis(20));
            g2.wake();
            g2.wake();
        });
        assert!(poller.wait(true, std::iter::empty(), None).unwrap());
        waker.join().unwrap();
        assert!(gate.clear());
        // both wakes were one kick, and it was consumed
        let brief = Some(std::time::Duration::from_millis(1));
        assert!(!poller.wait(true, std::iter::empty(), brief).unwrap());
    }
}
