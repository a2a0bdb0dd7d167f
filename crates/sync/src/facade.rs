//! The lock facade: `Mutex`, `Condvar`.
//!
//! Thin newtypes over the std primitives. In release builds every method
//! inlines to the std call (plus an `Option` take in guard drop). Debug
//! builds add lock-order tracking ([`crate::order`]); `--cfg
//! intellog_check` routes acquisition/release/wait/notify through the
//! model-checking scheduler when one is active on the current thread.
//!
//! Two deliberate divergences from `std::sync`:
//!
//! * **No poison plumbing.** `lock()` returns the guard directly; if a
//!   previous holder panicked, the poison is swallowed (`into_inner`).
//!   The panic that poisoned the lock already failed its own thread or
//!   test — cascading `PoisonError` panics only mask the original
//!   failure, and dropping the plumbing removes an `.unwrap()` from
//!   every call site (see `scripts/lint_invariants.py` rule R4).
//! * **`WaitTimeoutResult` is our own type** (std's has no public
//!   constructor, and the model checker must fabricate timeout results).

use std::fmt;
use std::time::Duration;

#[cfg(any(debug_assertions, intellog_check))]
use std::panic::Location;

#[cfg(intellog_check)]
use crate::check;
#[cfg(any(debug_assertions, intellog_check))]
use crate::order;

/// Whether a [`Condvar`] timed wait returned because of its timeout.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WaitTimeoutResult(pub(crate) bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

// ---------------------------------------------------------------------------
// Mutex

/// Drop-in mutual-exclusion lock (see module docs for std divergences).
pub struct Mutex<T> {
    #[cfg(any(debug_assertions, intellog_check))]
    id: order::LockId,
    inner: std::sync::Mutex<T>,
}

/// RAII guard for [`Mutex::lock`]. Holds the std guard in an `Option` so
/// [`Condvar::wait`] can move it out without unsafe code.
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    inner: Option<std::sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Mutex<T> {
        Mutex {
            #[cfg(any(debug_assertions, intellog_check))]
            id: order::LockId::new(),
            inner: std::sync::Mutex::new(value),
        }
    }

    #[cfg(intellog_check)]
    fn addr(&self) -> usize {
        self as *const Mutex<T> as *const () as usize
    }

    /// Acquire the lock, panicking never (poison is swallowed) but
    /// flagging lock-order cycles in debug/check builds.
    #[cfg_attr(any(debug_assertions, intellog_check), track_caller)]
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        #[cfg(any(debug_assertions, intellog_check))]
        let (id, loc) = (self.id.get(), Location::caller());
        #[cfg(any(debug_assertions, intellog_check))]
        if !std::thread::panicking() {
            order::before_acquire(id, loc);
        }
        #[cfg(intellog_check)]
        if check::active() && !std::thread::panicking() {
            let g = check::lock_mutex(&self.inner, self.addr());
            order::after_acquire(id, loc);
            return MutexGuard {
                lock: self,
                inner: Some(g),
            };
        }
        let g = match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        };
        #[cfg(any(debug_assertions, intellog_check))]
        order::after_acquire(id, loc);
        MutexGuard {
            lock: self,
            inner: Some(g),
        }
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        match self.inner.into_inner() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Mutable access without locking (requires exclusive ownership).
    pub fn get_mut(&mut self) -> &mut T {
        match self.inner.get_mut() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Mutex<T> {
        Mutex::new(T::default())
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.inner.try_lock() {
            Ok(g) => f.debug_struct("Mutex").field("data", &*g).finish(),
            Err(_) => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        self.inner
            .as_deref()
            .expect("guard consumed by Condvar::wait")
    }
}

impl<T> std::ops::DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        self.inner
            .as_deref_mut()
            .expect("guard consumed by Condvar::wait")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            #[cfg(any(debug_assertions, intellog_check))]
            order::on_release(self.lock.id.get());
            drop(g);
            #[cfg(intellog_check)]
            if check::active() && !std::thread::panicking() {
                check::lock_released(self.lock.addr());
            }
            #[cfg(not(any(debug_assertions, intellog_check)))]
            let _ = self.lock;
        }
    }
}

impl<T: fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

// ---------------------------------------------------------------------------
// Condvar

/// Condition variable paired with [`Mutex`].
pub struct Condvar {
    inner: std::sync::Condvar,
}

impl Condvar {
    pub const fn new() -> Condvar {
        Condvar {
            inner: std::sync::Condvar::new(),
        }
    }

    #[cfg(intellog_check)]
    fn addr(&self) -> usize {
        self as *const Condvar as *const () as usize
    }

    /// Untimed wait. Spurious wakeups are possible (inherited from std) —
    /// always wait in a predicate loop.
    #[cfg_attr(any(debug_assertions, intellog_check), track_caller)]
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_impl(guard, None).0
    }

    /// Timed wait. Under the model checker the duration is ignored: the
    /// timeout fires only when the scheduler proves nothing else can run.
    #[cfg_attr(any(debug_assertions, intellog_check), track_caller)]
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        self.wait_impl(guard, Some(timeout))
    }

    #[cfg_attr(any(debug_assertions, intellog_check), track_caller)]
    fn wait_impl<'a, T>(
        &self,
        mut guard: MutexGuard<'a, T>,
        timeout: Option<Duration>,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        #[cfg(any(debug_assertions, intellog_check))]
        let lock = guard.lock;
        #[cfg(any(debug_assertions, intellog_check))]
        let (id, loc) = (lock.id.get(), Location::caller());
        #[cfg(intellog_check)]
        if check::active() && !std::thread::panicking() {
            let std_guard = guard.inner.take().expect("guard consumed twice");
            order::on_release(id);
            drop(std_guard);
            drop(guard);
            let timed_out = check::cond_wait(self.addr(), lock.addr(), timeout.is_some());
            let fresh = lock.lock();
            return (fresh, WaitTimeoutResult(timed_out));
        }
        let std_guard = guard.inner.take().expect("guard consumed twice");
        #[cfg(any(debug_assertions, intellog_check))]
        order::on_release(id);
        let (g, timed_out) = match timeout {
            None => {
                let g = match self.inner.wait(std_guard) {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                (g, false)
            }
            Some(d) => {
                let (g, res) = match self.inner.wait_timeout(std_guard, d) {
                    Ok(pair) => pair,
                    Err(poisoned) => poisoned.into_inner(),
                };
                (g, res.timed_out())
            }
        };
        #[cfg(any(debug_assertions, intellog_check))]
        {
            if !std::thread::panicking() {
                order::before_acquire(id, loc);
            }
            order::after_acquire(id, loc);
        }
        guard.inner = Some(g);
        (guard, WaitTimeoutResult(timed_out))
    }

    pub fn notify_one(&self) {
        #[cfg(intellog_check)]
        if check::active() && !std::thread::panicking() {
            check::cond_notify(self.addr(), false);
            return;
        }
        self.inner.notify_one();
    }

    pub fn notify_all(&self) {
        #[cfg(intellog_check)]
        if check::active() && !std::thread::panicking() {
            check::cond_notify(self.addr(), true);
            return;
        }
        self.inner.notify_all();
    }
}

impl Default for Condvar {
    fn default() -> Condvar {
        Condvar::new()
    }
}

impl fmt::Debug for Condvar {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad("Condvar")
    }
}
