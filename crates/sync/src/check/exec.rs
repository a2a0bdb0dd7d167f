//! One model-checked execution: real OS threads, but exactly one runs at
//! a time. The token holder executes user code until it reaches a facade
//! synchronization op (a *schedule point*), where the strategy picks who
//! runs next. Blocked tasks record *why* they are blocked, which gives
//! the scheduler a global view: an empty runnable set with no timed
//! waiter is a proven deadlock, and a timed waiter that can only proceed
//! by force-firing its timeout is a proven lost wakeup (nothing else in
//! the program would ever have satisfied the wait).

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex};

use super::strategy::Strategy;

pub(crate) const NO_TASK: usize = usize::MAX;

/// Panic payload used to unwind task threads when the execution aborts
/// (failure found, step budget exceeded). Caught by the task wrapper and
/// silenced by the panic hook.
pub(crate) struct Abort;

fn resume_abort() -> ! {
    std::panic::resume_unwind(Box::new(Abort));
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Blocked {
    /// Waiting to acquire the lock identified by its address.
    Lock(usize),
    /// Waiting on a condvar; `timed` waits are eligible for forced timeout.
    Cond { cond: usize, timed: bool },
    /// Waiting for a task to finish.
    Join(usize),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Status {
    Runnable,
    Blocked(Blocked),
    Finished,
}

pub(crate) struct Task {
    pub(crate) status: Status,
    /// Set when the scheduler force-fired this task's timed wait.
    pub(crate) timed_out: bool,
    /// PCT priority (0 under other strategies).
    pub(crate) priority: u64,
    pub(crate) name: String,
}

pub(crate) struct ExecState {
    pub(crate) tasks: Vec<Task>,
    pub(crate) current: usize,
    pub(crate) strategy: Strategy,
    /// Recorded choice indices — the replayable schedule.
    pub(crate) schedule: Vec<u32>,
    /// Human-readable event log (`t0 lock o1` …). Object ids are assigned
    /// in first-touch order, so the trace is address-free and replays
    /// byte-identically.
    pub(crate) trace: String,
    pub(crate) steps: usize,
    pub(crate) max_steps: usize,
    pub(crate) forced_timeouts: u64,
    pub(crate) failure: Option<String>,
    pub(crate) abort: bool,
    pub(crate) finished: usize,
    objs: HashMap<usize, u32>,
    pub(crate) handles: Vec<std::thread::JoinHandle<()>>,
}

impl ExecState {
    fn obj(&mut self, addr: usize) -> u32 {
        let next = self.objs.len() as u32;
        *self.objs.entry(addr).or_insert(next)
    }

    pub(crate) fn note(&mut self, me: usize, verb: &str, addr: Option<usize>) {
        match addr {
            Some(a) => {
                let o = self.obj(a);
                let _ = writeln!(self.trace, "t{me} {verb} o{o}");
            }
            None => {
                let _ = writeln!(self.trace, "t{me} {verb}");
            }
        }
    }

    fn fail(&mut self, msg: String) {
        if self.failure.is_none() {
            self.failure = Some(msg);
        }
        self.abort = true;
    }

    fn runnable(&self) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Runnable))
            .map(|(i, _)| i)
            .collect()
    }

    fn timed_waiters(&self) -> Vec<usize> {
        self.tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| matches!(t.status, Status::Blocked(Blocked::Cond { timed: true, .. })))
            .map(|(i, _)| i)
            .collect()
    }

    /// Strategy decision over `options`; records the index iff `len ≥ 2`.
    pub(crate) fn choose(&mut self, options: &[usize]) -> usize {
        if options.len() == 1 {
            return options[0];
        }
        let ExecState {
            strategy,
            tasks,
            schedule,
            current,
            ..
        } = self;
        let idx = strategy.choose(options, tasks, *current);
        schedule.push(idx as u32);
        options[idx]
    }

    /// Pick the next task to hold the token. Forced timeouts fire only
    /// when *nothing* is runnable — so every forced timeout is a wait the
    /// program itself would never have satisfied.
    fn reschedule(&mut self) {
        let runnable = self.runnable();
        if !runnable.is_empty() {
            self.current = self.choose(&runnable);
            return;
        }
        let timed = self.timed_waiters();
        if !timed.is_empty() {
            let t = self.choose(&timed);
            self.tasks[t].status = Status::Runnable;
            self.tasks[t].timed_out = true;
            self.forced_timeouts += 1;
            self.note(t, "forced-timeout", None);
            self.current = t;
            return;
        }
        if self.finished == self.tasks.len() {
            self.current = NO_TASK;
            return;
        }
        let mut desc = String::new();
        for (i, t) in self.tasks.iter().enumerate() {
            if !matches!(t.status, Status::Finished) {
                let _ = write!(desc, "\n  t{i} ({}) {:?}", t.name, t.status);
            }
        }
        self.fail(format!(
            "deadlock: no runnable task and no timed waiter; stuck tasks:{desc}"
        ));
    }

    fn charge_step(&mut self) -> bool {
        self.steps += 1;
        if self.steps > self.max_steps {
            self.fail(format!(
                "step budget exceeded ({} schedule points) — livelock or runaway loop",
                self.max_steps
            ));
            return false;
        }
        true
    }
}

pub(crate) struct Execution {
    pub(crate) state: StdMutex<ExecState>,
    pub(crate) cv: StdCondvar,
}

impl Execution {
    pub(crate) fn new(strategy: Strategy, max_steps: usize) -> Execution {
        Execution {
            state: StdMutex::new(ExecState {
                tasks: Vec::new(),
                current: NO_TASK,
                strategy,
                schedule: Vec::new(),
                trace: String::new(),
                steps: 0,
                max_steps,
                forced_timeouts: 0,
                failure: None,
                abort: false,
                finished: 0,
                objs: HashMap::new(),
                handles: Vec::new(),
            }),
            cv: StdCondvar::new(),
        }
    }

    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut ExecState) -> R) -> R {
        let mut st = self.state.lock().unwrap_or_else(|p| p.into_inner());
        f(&mut st)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, ExecState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Schedule point: hand the token to whichever task the strategy
    /// picks (possibly `me` again) and wait for our next turn.
    pub(crate) fn yield_point(&self, me: usize, verb: &'static str, addr: Option<usize>) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            resume_abort();
        }
        if !st.charge_step() {
            self.cv.notify_all();
            drop(st);
            resume_abort();
        }
        st.note(me, verb, addr);
        st.reschedule();
        self.cv.notify_all();
        while st.current != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            drop(st);
            resume_abort();
        }
    }

    /// Block `me` for the given reason and wait to be woken + scheduled.
    /// Returns `true` if the wakeup was a forced timeout.
    pub(crate) fn block(
        &self,
        me: usize,
        how: Blocked,
        verb: &'static str,
        addr: Option<usize>,
    ) -> bool {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            resume_abort();
        }
        if !st.charge_step() {
            self.cv.notify_all();
            drop(st);
            resume_abort();
        }
        st.note(me, verb, addr);
        st.tasks[me].status = Status::Blocked(how);
        st.reschedule();
        self.cv.notify_all();
        while !(st.current == me && matches!(st.tasks[me].status, Status::Runnable)) && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        if st.abort {
            drop(st);
            resume_abort();
        }
        let timed_out = st.tasks[me].timed_out;
        st.tasks[me].timed_out = false;
        timed_out
    }

    /// A lock at `addr` was released: wake its waiters and yield, giving
    /// the strategy the chance to run a waiter before the releaser's next
    /// action (release→reacquire races live here).
    pub(crate) fn release_and_yield(&self, me: usize, addr: usize) {
        {
            let mut st = self.lock_state();
            if st.abort {
                drop(st);
                resume_abort();
            }
            st.note(me, "unlock", Some(addr));
            wake_lock_waiters(&mut st, addr);
        }
        self.yield_point(me, "post-unlock", Some(addr));
    }

    /// Release without yielding — the condvar-wait entry path, where the
    /// release and the block must be one atomic transition.
    pub(crate) fn release_quiet(&self, me: usize, addr: usize) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            resume_abort();
        }
        st.note(me, "unlock-for-wait", Some(addr));
        wake_lock_waiters(&mut st, addr);
    }

    /// Condvar notify: wakes one strategy-chosen waiter (or all). A notify
    /// with no waiters is deliberately a no-op — signals are not buffered,
    /// which is exactly what makes lost wakeups observable.
    pub(crate) fn notify_cond(&self, me: usize, addr: usize, all: bool) {
        let mut st = self.lock_state();
        if st.abort {
            drop(st);
            resume_abort();
        }
        st.note(
            me,
            if all { "notify-all" } else { "notify-one" },
            Some(addr),
        );
        let waiters: Vec<usize> = st
            .tasks
            .iter()
            .enumerate()
            .filter(|(_, t)| {
                matches!(t.status, Status::Blocked(Blocked::Cond { cond, .. }) if cond == addr)
            })
            .map(|(i, _)| i)
            .collect();
        if waiters.is_empty() {
            return;
        }
        if all {
            for &w in &waiters {
                st.tasks[w].status = Status::Runnable;
            }
        } else {
            let w = st.choose(&waiters);
            st.tasks[w].status = Status::Runnable;
        }
    }

    /// Normal task completion (or user panic, reported as a failure).
    pub(crate) fn task_finished(&self, me: usize, panic_msg: Option<String>) {
        let mut st = self.lock_state();
        st.tasks[me].status = Status::Finished;
        st.finished += 1;
        st.note(me, "exit", None);
        if let Some(msg) = panic_msg {
            let name = st.tasks[me].name.clone();
            st.fail(format!("task t{me} ({name}) panicked: {msg}"));
        }
        for t in st.tasks.iter_mut() {
            if t.status == Status::Blocked(Blocked::Join(me)) {
                t.status = Status::Runnable;
            }
        }
        if st.abort {
            st.current = NO_TASK;
        } else {
            st.reschedule();
        }
        self.cv.notify_all();
    }

    /// Task unwound by [`Abort`]: account for it without scheduling.
    pub(crate) fn task_aborted(&self, me: usize) {
        let mut st = self.lock_state();
        if !matches!(st.tasks[me].status, Status::Finished) {
            st.tasks[me].status = Status::Finished;
            st.finished += 1;
        }
        self.cv.notify_all();
    }

    /// First wait of a freshly spawned task; `false` means the execution
    /// aborted before the task ever ran.
    pub(crate) fn wait_first_turn(&self, me: usize) -> bool {
        let mut st = self.lock_state();
        while st.current != me && !st.abort {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
        !st.abort
    }

    /// Block until every registered task has finished.
    pub(crate) fn wait_all_finished(&self) {
        let mut st = self.lock_state();
        while st.finished < st.tasks.len() {
            st = self.cv.wait(st).unwrap_or_else(|p| p.into_inner());
        }
    }
}

pub(crate) fn wake_lock_waiters(st: &mut ExecState, addr: usize) {
    for t in st.tasks.iter_mut() {
        if t.status == Status::Blocked(Blocked::Lock(addr)) {
            t.status = Status::Runnable;
        }
    }
}
