//! Threads facade.
//!
//! Normal builds re-export `std::thread` wholesale. Under `--cfg
//! intellog_check`, spawning from inside an exploration registers a
//! scheduler *task* instead of a free-running OS thread: the scheduler
//! decides when it runs, `join` is a blocking schedule point, and `sleep` /
//! `yield_now` are plain schedule points (no real time passes). Nothing in
//! the workspace calls `park`, so the checked facade has none. Outside an
//! exploration everything falls through to std, so the same binary can run
//! both checked scenarios and ordinary tests.
//!
//! Scoped threads are the exception: `scope` is std's under the cfg too, and
//! `Builder::spawn_scoped` always starts a real OS thread. They are not
//! scheduler tasks — a facade op on one runs on the std fallback — so no
//! exploration runs the parallel map ([`crate::par_map_ordered`], their
//! only user); a scenario drives the map's [`crate::Handoff`] from
//! [`spawn`]ed tasks instead.

#[cfg(not(intellog_check))]
pub use std::thread::*;

#[cfg(intellog_check)]
pub use checked::*;

#[cfg(intellog_check)]
mod checked {
    use crate::check;
    use std::io;
    use std::time::Duration;

    pub use std::thread::{available_parallelism, scope, Scope, ScopedJoinHandle};

    /// Mirror of `std::thread::Builder` (name only — that is all the
    /// workspace uses).
    #[derive(Debug, Default)]
    pub struct Builder {
        name: Option<String>,
    }

    impl Builder {
        pub fn new() -> Builder {
            Builder { name: None }
        }

        pub fn name(mut self, name: String) -> Builder {
            self.name = Some(name);
            self
        }

        pub fn spawn<F, T>(self, f: F) -> io::Result<JoinHandle<T>>
        where
            F: FnOnce() -> T + Send + 'static,
            T: Send + 'static,
        {
            if check::active() && !std::thread::panicking() {
                let name = self.name.unwrap_or_else(|| "thread".to_string());
                Ok(JoinHandle(Imp::Task(check::spawn_scenario_thread(name, f))))
            } else {
                let mut b = std::thread::Builder::new();
                if let Some(n) = self.name {
                    b = b.name(n);
                }
                Ok(JoinHandle(Imp::Std(b.spawn(f)?)))
            }
        }

        /// Always a real OS thread: scoped threads are not scheduler tasks.
        pub fn spawn_scoped<'scope, F, T>(
            self,
            scope: &'scope Scope<'scope, '_>,
            f: F,
        ) -> io::Result<ScopedJoinHandle<'scope, T>>
        where
            F: FnOnce() -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let mut b = std::thread::Builder::new();
            if let Some(n) = self.name {
                b = b.name(n);
            }
            b.spawn_scoped(scope, f)
        }
    }

    enum Imp<T> {
        Std(std::thread::JoinHandle<T>),
        Task(check::TaskHandle<T>),
    }

    /// Join handle over either a real thread or a scheduler task.
    pub struct JoinHandle<T>(Imp<T>);

    impl<T> JoinHandle<T> {
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Imp::Std(h) => h.join(),
                Imp::Task(t) => t.join(),
            }
        }

        pub fn is_finished(&self) -> bool {
            match &self.0 {
                Imp::Std(h) => h.is_finished(),
                Imp::Task(t) => t.is_finished(),
            }
        }
    }

    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        Builder::new().spawn(f).expect("failed to spawn thread")
    }

    pub fn sleep(dur: Duration) {
        if check::active() && !std::thread::panicking() {
            // Model time: sleeping only cedes the schedule.
            check::op_point("sleep", None);
        } else {
            std::thread::sleep(dur);
        }
    }

    pub fn yield_now() {
        if check::active() && !std::thread::panicking() {
            check::op_point("yield", None);
        } else {
            std::thread::yield_now();
        }
    }

    pub fn panicking() -> bool {
        std::thread::panicking()
    }
}
