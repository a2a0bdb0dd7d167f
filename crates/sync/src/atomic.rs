//! Atomics facade.
//!
//! Normal builds re-export the std atomics untouched. Under `--cfg
//! intellog_check` each type is a wrapper whose every operation —
//! including loads — is a schedule point, because protocols like the
//! gateway's idle gate (a `pending` flag swapped by wakers and cleared by
//! the loop) are exactly about which load observes which store.

pub use std::sync::atomic::Ordering;

#[cfg(not(intellog_check))]
pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(intellog_check)]
pub use checked::{AtomicBool, AtomicU64, AtomicUsize};

#[cfg(intellog_check)]
mod checked {
    use super::Ordering;
    use crate::check;

    #[inline]
    fn hook(addr: usize) {
        if !std::thread::panicking() {
            check::op_point("atomic", Some(addr));
        }
    }

    macro_rules! checked_atomic {
        ($Name:ident, $Std:ty, $T:ty, [$($extra:ident),*]) => {
            /// Model-checked atomic: every op is a schedule point.
            #[derive(Default)]
            pub struct $Name {
                inner: $Std,
            }

            impl $Name {
                pub const fn new(v: $T) -> $Name {
                    $Name { inner: <$Std>::new(v) }
                }

                #[inline]
                fn addr(&self) -> usize {
                    self as *const $Name as *const () as usize
                }

                pub fn load(&self, order: Ordering) -> $T {
                    hook(self.addr());
                    self.inner.load(order)
                }

                pub fn store(&self, v: $T, order: Ordering) {
                    hook(self.addr());
                    self.inner.store(v, order)
                }

                pub fn swap(&self, v: $T, order: Ordering) -> $T {
                    hook(self.addr());
                    self.inner.swap(v, order)
                }

                pub fn compare_exchange(
                    &self,
                    current: $T,
                    new: $T,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$T, $T> {
                    hook(self.addr());
                    self.inner.compare_exchange(current, new, success, failure)
                }

                pub fn compare_exchange_weak(
                    &self,
                    current: $T,
                    new: $T,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$T, $T> {
                    hook(self.addr());
                    self.inner.compare_exchange_weak(current, new, success, failure)
                }

                pub fn into_inner(self) -> $T {
                    self.inner.into_inner()
                }

                $(checked_atomic!(@extra $extra, $T);)*
            }

            impl std::fmt::Debug for $Name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    // No schedule point: Debug must stay passive.
                    std::fmt::Debug::fmt(&self.inner, f)
                }
            }
        };
        (@extra fetch_add, $T:ty) => {
            pub fn fetch_add(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_add(v, order)
            }
        };
        (@extra fetch_sub, $T:ty) => {
            pub fn fetch_sub(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_sub(v, order)
            }
        };
        (@extra fetch_max, $T:ty) => {
            pub fn fetch_max(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_max(v, order)
            }
        };
        (@extra fetch_min, $T:ty) => {
            pub fn fetch_min(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_min(v, order)
            }
        };
        (@extra fetch_or, $T:ty) => {
            pub fn fetch_or(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_or(v, order)
            }
        };
        (@extra fetch_and, $T:ty) => {
            pub fn fetch_and(&self, v: $T, order: Ordering) -> $T {
                hook(self.addr());
                self.inner.fetch_and(v, order)
            }
        };
    }

    checked_atomic!(
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool,
        [fetch_or, fetch_and]
    );
    checked_atomic!(
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64,
        [fetch_add, fetch_sub, fetch_max, fetch_min]
    );
    checked_atomic!(
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize,
        [fetch_add, fetch_sub, fetch_max, fetch_min]
    );
}
