//! The idle gate: how background threads wake a parked event loop.
//!
//! The readiness sweep parks here when a full pass found no work. Anything
//! that creates work off the loop thread calls [`IdleGate::wake`] *after*
//! the work is visible to the loop, so the loop re-sweeps immediately
//! instead of eating the backoff latency: the `LOAD` thread once its
//! result is in the completion channel, and every shard worker right
//! after it sends a `Drain`/`Rebalance` ack (the gateway hands its shards
//! the gate as their `AckWaker`), which is what a `DRAIN`, `DRAINSHARD`,
//! `ADDSHARD` or `SHUTDOWN` reply waits for. A socket becoming readable
//! does *not* wake the gate — there is no `poll(2)` under the sweep — so a
//! parked loop still notices new bytes only when its back-off (≤ 2 ms)
//! runs out.
//!
//! This is the classic missed-wakeup shape (flag + condvar), so the
//! protocol is deliberately minimal and is model-checked in
//! `tests/model_check.rs`: `wake` sets the flag *under the lock* before
//! notifying, and `wait` consumes the flag under the same lock, so a wake
//! that races a not-yet-parked loop is never lost — the next `wait`
//! returns immediately.

use std::time::Duration;
use sync::{Condvar, Mutex};

/// A one-slot wake flag with a bounded wait.
pub struct IdleGate {
    pending: Mutex<bool>,
    cv: Condvar,
}

impl Default for IdleGate {
    fn default() -> IdleGate {
        IdleGate::new()
    }
}

impl IdleGate {
    /// A gate with no wake pending.
    pub fn new() -> IdleGate {
        IdleGate {
            pending: Mutex::new(false),
            cv: Condvar::new(),
        }
    }

    /// Signal the loop: work exists. Callable from any thread; coalesces
    /// (many wakes before the next wait count as one).
    pub fn wake(&self) {
        let mut pending = self.pending.lock();
        *pending = true;
        drop(pending);
        self.cv.notify_one();
    }

    /// Park until woken or `timeout` elapses. Returns `true` if a wake
    /// was consumed (including one that arrived before the call).
    pub fn wait(&self, timeout: Duration) -> bool {
        let mut pending = self.pending.lock();
        if !*pending {
            let (next, _res) = self.cv.wait_timeout(pending, timeout);
            pending = next;
        }
        let woken = *pending;
        *pending = false;
        woken
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sync::Arc;

    #[test]
    fn wake_before_wait_is_not_lost() {
        let gate = IdleGate::new();
        gate.wake();
        gate.wake(); // coalesces
        assert!(gate.wait(Duration::from_millis(1)));
        assert!(!gate.wait(Duration::from_millis(1)), "flag was consumed");
    }

    #[test]
    fn wake_from_other_thread_unparks() {
        let gate = Arc::new(IdleGate::new());
        let g2 = Arc::clone(&gate);
        let waker = sync::thread::spawn(move || {
            sync::thread::sleep(Duration::from_millis(20));
            g2.wake();
        });
        assert!(gate.wait(Duration::from_secs(5)));
        waker.join().unwrap();
    }
}
