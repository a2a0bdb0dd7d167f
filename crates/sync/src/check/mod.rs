//! The model checker (compiled only under `--cfg intellog_check`).
//!
//! [`explore`] runs a closure many times under a controlled scheduler
//! that owns every interleaving decision: first a bounded exhaustive DFS
//! over schedules, then seeded randomized search (uniform and PCT-style
//! alternating). Any failing execution — assertion, panic, deadlock,
//! step-budget livelock — is reported with its recorded schedule, which
//! [`replay`] reruns byte-identically.
//!
//! ```text
//! let report = check::explore(&CheckConfig::default(), || {
//!     let q = Arc::new(ShardQueue::new(2, Backpressure::Block));
//!     /* spawn sync::thread threads, join them, assert invariants */
//! });
//! report.assert_no_lost_wakeups();
//! ```
//!
//! Two detectors come for free from the scheduler's global view:
//!
//! * **deadlock** — no runnable task, no timed waiter, unfinished tasks;
//! * **lost wakeup** — a *forced timeout*: timed waits (`wait_timeout`)
//!   only fire when nothing else in the program can run,
//!   so in a scenario whose waits are all eventually satisfied, a single
//!   forced timeout proves a wakeup went missing.

mod exec;
mod strategy;

use std::cell::RefCell;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex as StdMutex, MutexGuard as StdMutexGuard, OnceLock, TryLockError};

use exec::{Abort, Blocked, Execution, Status, Task};
use strategy::{mix_seed, DfsTree, Strategy};

// ---------------------------------------------------------------------------
// Per-thread execution context

#[derive(Clone)]
pub(crate) struct Ctx {
    pub(crate) exec: Arc<Execution>,
    pub(crate) id: usize,
}

thread_local! {
    static CTX: RefCell<Option<Ctx>> = const { RefCell::new(None) };
    /// Rendered message of the most recent non-Abort panic on this thread,
    /// captured by the quiet hook (payload downcasts lose the location).
    static LAST_PANIC: RefCell<Option<String>> = const { RefCell::new(None) };
}

/// Is this thread a task inside a running exploration? Facade primitives
/// call this on every op; outside explorations they fall through to std.
#[inline]
pub fn active() -> bool {
    CTX.with(|c| c.borrow().is_some())
}

pub(crate) fn ctx() -> Option<Ctx> {
    CTX.with(|c| c.borrow().clone())
}

/// Silence `Abort` unwinds and capture task panics for the failure report;
/// anything outside a model-checked task keeps the previous hook.
fn install_quiet_hook() {
    static ONCE: OnceLock<()> = OnceLock::new();
    ONCE.get_or_init(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().is::<Abort>() {
                return;
            }
            if active() {
                LAST_PANIC.with(|p| *p.borrow_mut() = Some(format!("{info}")));
                return;
            }
            prev(info);
        }));
    });
}

// ---------------------------------------------------------------------------
// Task spawning / joining (used by crate::thread under the check cfg)

pub(crate) struct TaskHandle<T> {
    exec: Arc<Execution>,
    id: usize,
    result: Arc<StdMutex<Option<std::thread::Result<T>>>>,
}

fn spawn_task<T, F>(exec: &Arc<Execution>, name: String, f: F) -> TaskHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let id = exec.with(|st| {
        let priority = st.strategy.new_priority();
        st.tasks.push(Task {
            status: Status::Runnable,
            timed_out: false,
            priority,
            name: name.clone(),
        });
        st.tasks.len() - 1
    });
    let result = Arc::new(StdMutex::new(None));
    let result2 = Arc::clone(&result);
    let exec2 = Arc::clone(exec);
    let os_handle = std::thread::Builder::new()
        .name(format!("mc-{name}"))
        .spawn(move || {
            CTX.with(|c| {
                *c.borrow_mut() = Some(Ctx {
                    exec: Arc::clone(&exec2),
                    id,
                })
            });
            if exec2.wait_first_turn(id) {
                LAST_PANIC.with(|p| *p.borrow_mut() = None);
                match std::panic::catch_unwind(AssertUnwindSafe(f)) {
                    Ok(v) => {
                        *result2.lock().unwrap_or_else(|p| p.into_inner()) = Some(Ok(v));
                        exec2.task_finished(id, None);
                    }
                    Err(payload) => {
                        if payload.is::<Abort>() {
                            exec2.task_aborted(id);
                        } else {
                            let msg = LAST_PANIC
                                .with(|p| p.borrow_mut().take())
                                .unwrap_or_else(|| "panicked (message unavailable)".to_string());
                            *result2.lock().unwrap_or_else(|p| p.into_inner()) = Some(Err(payload));
                            exec2.task_finished(id, Some(msg));
                        }
                    }
                }
            } else {
                exec2.task_aborted(id);
            }
            CTX.with(|c| *c.borrow_mut() = None);
        })
        .expect("spawn model-checker task thread");
    exec.with(|st| st.handles.push(os_handle));
    TaskHandle {
        exec: Arc::clone(exec),
        id,
        result,
    }
}

impl<T> TaskHandle<T> {
    pub(crate) fn join(self) -> std::thread::Result<T> {
        let c = ctx().expect("join on a model-checked thread from outside the exploration");
        loop {
            let done = self
                .exec
                .with(|st| matches!(st.tasks[self.id].status, Status::Finished));
            if done {
                break;
            }
            // Token-passing makes check-then-block atomic: nothing ran
            // between the status check above and blocking here.
            c.exec.block(c.id, Blocked::Join(self.id), "join", None);
        }
        self.result
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .take()
            .expect("joined task produced no result")
    }

    pub(crate) fn is_finished(&self) -> bool {
        self.exec
            .with(|st| matches!(st.tasks[self.id].status, Status::Finished))
    }
}

/// Spawn a task inside the current exploration (caller must be a task).
pub(crate) fn spawn_scenario_thread<T, F>(name: String, f: F) -> TaskHandle<T>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let c = ctx().expect("spawn inside exploration only");
    let h = spawn_task(&c.exec, name, f);
    // The spawn is a schedule point: the child may run before the parent
    // continues.
    c.exec.yield_point(c.id, "spawn", None);
    h
}

// ---------------------------------------------------------------------------
// Facade hooks (all assume `active()`, checked by the caller)

/// Checked mutex acquisition over the real std primitive.
pub(crate) fn lock_mutex<'a, T>(m: &'a StdMutex<T>, addr: usize) -> StdMutexGuard<'a, T> {
    let c = ctx().expect("checked lock without ctx");
    loop {
        c.exec.yield_point(c.id, "lock", Some(addr));
        // Token-passing: a failed try_lock means a *suspended* task holds
        // the lock, so blocking can't miss a concurrent release.
        match m.try_lock() {
            Ok(g) => return g,
            Err(TryLockError::WouldBlock) => {
                c.exec
                    .block(c.id, Blocked::Lock(addr), "lock-wait", Some(addr));
            }
            Err(TryLockError::Poisoned(p)) => return p.into_inner(),
        }
    }
}

/// A facade lock guard was dropped (the std guard is already released).
pub(crate) fn lock_released(addr: usize) {
    if let Some(c) = ctx() {
        c.exec.release_and_yield(c.id, addr);
    }
}

/// Condvar wait: atomically release the mutex and block on the condvar.
/// Returns `true` if the scheduler force-fired the (timed) wait. The
/// caller reacquires the mutex through the normal checked path.
pub(crate) fn cond_wait(cond_addr: usize, mutex_addr: usize, timed: bool) -> bool {
    let c = ctx().expect("checked wait without ctx");
    c.exec.release_quiet(c.id, mutex_addr);
    c.exec.block(
        c.id,
        Blocked::Cond {
            cond: cond_addr,
            timed,
        },
        if timed { "wait-timed" } else { "wait" },
        Some(cond_addr),
    )
}

pub(crate) fn cond_notify(addr: usize, all: bool) {
    if let Some(c) = ctx() {
        c.exec.notify_cond(c.id, addr, all);
    }
}

/// Atomic op / sleep / yield_now — a plain schedule point.
pub(crate) fn op_point(verb: &'static str, addr: Option<usize>) {
    if let Some(c) = ctx() {
        c.exec.yield_point(c.id, verb, addr);
    }
}

// ---------------------------------------------------------------------------
// Exploration driver

/// Exploration parameters. `Default` is sized for a CI smoke run of one
/// scenario (a few hundred executions); scale `iterations` up for
/// soak-style searches.
#[derive(Clone, Debug)]
pub struct CheckConfig {
    /// Base seed for the randomized phases.
    pub seed: u64,
    /// Randomized executions (alternating uniform / PCT-style).
    pub iterations: usize,
    /// Max executions spent on the exhaustive-DFS phase before falling
    /// back to randomized search (0 disables DFS — use for scenarios with
    /// real-time branches, which are nondeterministic under a fixed
    /// schedule).
    pub dfs_budget: usize,
    /// Schedule points per execution before declaring a livelock.
    pub max_steps: usize,
    /// Stop at the first failing execution.
    pub fail_fast: bool,
}

impl Default for CheckConfig {
    fn default() -> CheckConfig {
        CheckConfig {
            seed: 0x0101_1061,
            iterations: 200,
            dfs_budget: 200,
            max_steps: 20_000,
            fail_fast: true,
        }
    }
}

/// A failing execution, replayable via [`replay`].
#[derive(Clone, Debug)]
pub struct Failure {
    /// What went wrong (panic message, deadlock report, …).
    pub message: String,
    /// The recorded choice sequence — feed to [`replay`].
    pub schedule: Vec<u32>,
    /// Address-free event log of the failing execution.
    pub trace: String,
    /// Which strategy found it (`dfs`, `random`, `pct`).
    pub strategy: String,
    /// Seed of the randomized execution (0 for DFS).
    pub seed: u64,
}

/// Aggregate result of [`explore`].
#[derive(Debug)]
pub struct ExploreReport {
    /// Executions actually run.
    pub executions: usize,
    /// Distinct recorded schedules among them (diversity measure).
    pub distinct_schedules: usize,
    /// DFS visited the entire (step-bounded) schedule space.
    pub exhaustive: bool,
    /// Total forced timeouts across all executions (see module docs).
    pub forced_timeouts: u64,
    /// First failure found, if any.
    pub failure: Option<Failure>,
}

impl ExploreReport {
    /// Panic (with full replay info) if any execution failed.
    pub fn assert_ok(&self) {
        if let Some(f) = &self.failure {
            panic!(
                "model check failed ({} strategy, seed {:#x}): {}\nschedule: {:?}\ntrace:\n{}",
                f.strategy, f.seed, f.message, f.schedule, f.trace
            );
        }
    }

    /// [`ExploreReport::assert_ok`] plus: no forced timeouts. Use for
    /// scenarios whose every timed wait is eventually satisfied — there a
    /// forced timeout proves a lost wakeup.
    pub fn assert_no_lost_wakeups(&self) {
        self.assert_ok();
        assert_eq!(
            self.forced_timeouts, 0,
            "{} forced timeout(s) across {} executions: some timed wait \
             could only proceed by timing out — a wakeup was lost",
            self.forced_timeouts, self.executions
        );
    }
}

/// Outcome of a single (replayed) execution.
#[derive(Debug)]
pub struct RunOutcome {
    /// Event log (compare byte-for-byte across replays).
    pub trace: String,
    /// Recorded schedule (equals the input schedule for a faithful replay).
    pub schedule: Vec<u32>,
    /// Failure message, if the execution failed.
    pub failure: Option<String>,
    /// Forced timeouts in this execution.
    pub forced_timeouts: u64,
}

struct ExecOutput {
    schedule: Vec<u32>,
    trace: String,
    forced_timeouts: u64,
    failure: Option<String>,
    strategy: Strategy,
}

fn run_one(strategy: Strategy, max_steps: usize, f: &Arc<dyn Fn() + Send + Sync>) -> ExecOutput {
    install_quiet_hook();
    let exec = Arc::new(Execution::new(strategy, max_steps));
    let scenario = Arc::clone(f);
    let _root = spawn_task(&exec, "main".to_string(), move || scenario());
    exec.with(|st| st.current = 0);
    exec.cv.notify_all();
    exec.wait_all_finished();
    let handles = exec.with(|st| std::mem::take(&mut st.handles));
    for h in handles {
        let _ = h.join();
    }
    exec.with(|st| ExecOutput {
        schedule: std::mem::take(&mut st.schedule),
        trace: std::mem::take(&mut st.trace),
        forced_timeouts: st.forced_timeouts,
        failure: st.failure.take(),
        strategy: std::mem::replace(&mut st.strategy, Strategy::null()),
    })
}

fn schedule_hash(schedule: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &c in schedule {
        h ^= c as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Explore interleavings of `f`: bounded exhaustive DFS first, then
/// `iterations` seeded randomized executions. On the first failure, full
/// replay instructions are printed to stderr and recorded in the report.
pub fn explore<F>(cfg: &CheckConfig, f: F) -> ExploreReport
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(
        !active(),
        "explore() cannot be nested inside a model-checked task"
    );
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let mut report = ExploreReport {
        executions: 0,
        distinct_schedules: 0,
        exhaustive: false,
        forced_timeouts: 0,
        failure: None,
    };
    let mut seen = std::collections::HashSet::new();

    let absorb = |report: &mut ExploreReport,
                  seen: &mut std::collections::HashSet<u64>,
                  out: ExecOutput,
                  seed: u64| {
        report.executions += 1;
        report.forced_timeouts += out.forced_timeouts;
        if seen.insert(schedule_hash(&out.schedule)) {
            report.distinct_schedules += 1;
        }
        if let Some(msg) = out.failure {
            if report.failure.is_none() {
                let strategy = out.strategy.describe();
                eprintln!(
                    "model-check FAILURE ({strategy}, seed {seed:#x}): {msg}\n\
                     replay schedule: {:?}\ntrace:\n{}",
                    out.schedule, out.trace
                );
                report.failure = Some(Failure {
                    message: msg,
                    schedule: out.schedule,
                    trace: out.trace,
                    strategy,
                    seed,
                });
            }
        }
    };

    // Phase 1: bounded exhaustive DFS.
    let mut tree = DfsTree::new();
    for _ in 0..cfg.dfs_budget {
        let mut out = run_one(Strategy::Dfs { tree }, cfg.max_steps, &f);
        tree = match std::mem::replace(&mut out.strategy, Strategy::null()) {
            Strategy::Dfs { tree } => tree,
            _ => unreachable!("dfs execution returns its tree"),
        };
        absorb(&mut report, &mut seen, out, 0);
        if report.failure.is_some() && cfg.fail_fast {
            return report;
        }
        if tree.nondeterministic {
            break;
        }
        if !tree.advance() {
            report.exhaustive = true;
            break;
        }
    }

    // Phase 2: seeded randomized search (uniform / PCT alternating).
    if !report.exhaustive {
        for i in 0..cfg.iterations {
            if report.failure.is_some() && cfg.fail_fast {
                break;
            }
            let seed = mix_seed(cfg.seed, i as u64);
            let strat = if i % 2 == 0 {
                Strategy::random(seed)
            } else {
                Strategy::pct(seed)
            };
            let out = run_one(strat, cfg.max_steps, &f);
            absorb(&mut report, &mut seen, out, seed);
        }
    }
    report
}

/// Re-run `f` under a recorded schedule. The returned trace is
/// byte-identical to the original execution's for a deterministic
/// scenario.
pub fn replay<F>(schedule: &[u32], max_steps: usize, f: F) -> RunOutcome
where
    F: Fn() + Send + Sync + 'static,
{
    assert!(!active(), "replay() cannot be nested");
    let f: Arc<dyn Fn() + Send + Sync> = Arc::new(f);
    let out = run_one(Strategy::replay(schedule.to_vec()), max_steps, &f);
    RunOutcome {
        trace: out.trace,
        schedule: out.schedule,
        failure: out.failure,
        forced_timeouts: out.forced_timeouts,
    }
}
