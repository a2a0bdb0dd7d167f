//! Spark job model: driver + executor container sessions.
//!
//! Message templates are transcribed from Spark 2.1-era log statements
//! (`SecurityManager`, `MemoryStore`, `BlockManager`, `Executor`,
//! `TaskSetManager`, …) — the entity families that the paper's Fig. 8
//! HW-graph recovers: `acl`, `memory`, `directory`, `driver`, `block`,
//! `task`, `broadcast`, `fetch`, `shutdown`.

use crate::catalog::Truth;
use crate::emit::Emitter;
use crate::faults::{FaultKind, FaultPlan};
use crate::types::{GenJob, GenSession, SystemKind};
use crate::workload::JobConfig;

/// Ground truth for the Spark templates (see module docs of
/// [`mod@crate::catalog`] for the annotation rules).
pub const TRUTHS: &[Truth] = &[
    Truth::new(
        "sp.acl.view",
        "Changing view acls to root",
        &["view acl"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.acl.modify",
        "Changing modify acls to root",
        &["modify acl"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.sec.auth",
        "authentication disabled for SecurityManager",
        &["authentication", "security manager"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.exec.start",
        "Starting executor ID 3 on host worker4",
        &["executor", "host"],
        1,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.exec.reg",
        "Successfully registered with driver",
        &["driver"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.mem.start",
        "MemoryStore started with capacity 2048 MB",
        &["memory store", "capacity"],
        0,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.dir.create",
        "Created local directory at /tmp/spark-4f2a/executor-12",
        &["local directory"],
        0,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.bm.registering",
        "Registering BlockManager worker4:41111 with 2048 MB RAM",
        &["block manager", "ram"],
        0,
        1,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.bm.registered",
        "Registered BlockManager worker4:41111 successfully",
        &["block manager"],
        0,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.bm.init",
        "Initialized BlockManager on worker4:41111 for executor 3",
        &["block manager", "executor"],
        1,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.task.got",
        "Got assigned task 42",
        &["task"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.deser",
        "Task 42 deserialized in 6 ms on executor 3",
        &["task", "executor"],
        2,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.input",
        "task 42 reading 2 input partitions from parent rdd 7",
        &["task", "input partition", "parent rdd"],
        2,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.mem",
        "task 42 acquired 5242880 bytes of execution memory",
        &["task", "execution memory"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.run",
        "Running task 4 in stage 1 TID 42",
        &["task", "stage"],
        3,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.bc.start",
        "Started reading broadcast variable 2",
        &["broadcast variable"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.bc.took",
        "Reading broadcast variable 2 took 14 ms",
        &["broadcast variable"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.block.stored",
        "block broadcast_2 stored as values in memory with estimated size 48 KB",
        &["block", "value", "memory", "size"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.shuffle.get",
        "Getting 5 non-empty blocks out of 12 blocks",
        &["block"],
        0,
        2,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.finish",
        "Finished task 4 in stage 1 TID 42. 2264 bytes result sent to driver",
        &["task", "stage", "result", "driver"],
        3,
        1,
        0,
        2,
        true,
    ),
    Truth::new(
        "sp.drv.shutdown",
        "Driver commanded a shutdown",
        &["driver", "shutdown"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.mem.cleared",
        "MemoryStore cleared",
        &["memory store"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.bm.stopped",
        "BlockManager stopped",
        &["block manager"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.hook",
        "Shutdown hook called",
        &["shutdown hook"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.dir.delete",
        "Deleting directory /tmp/spark-4f2a/executor-12",
        &["directory"],
        0,
        0,
        1,
        1,
        true,
    ),
    // driver-side templates
    Truth::new(
        "sp.drv.job.start",
        "Starting job collect with 8 output partitions",
        &["job", "output partition"],
        0,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.stage.submit",
        "Submitting stage 1 with 8 missing tasks",
        &["stage", "missing task"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.taskset.add",
        "Adding task set 1 with 8 tasks",
        &["task set"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.task.start",
        "Starting task 4 in stage 1 TID 42 on executor 3",
        &["task", "stage", "executor"],
        4,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.taskset.done",
        "Removed task set 1 whose tasks have all completed",
        &["task set", "task"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.stage.done",
        "Stage 1 finished in 12 seconds",
        &["stage"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.job.done",
        "Job collect finished successfully",
        &["job"],
        0,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.exec.classpath",
        "Using classpath /opt/spark/jars for executor launch",
        &["classpath", "executor launch"],
        0,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.cache.hit",
        "Found block rdd_4_2 locally in memory cache",
        &["block", "memory cache"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.cache.miss",
        "block rdd_4_2 not found locally and will be fetched from a remote block manager",
        &["block", "remote block manager"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.bc.cleaned",
        "Cleaned broadcast variable 4 from memory",
        &["broadcast variable", "memory"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.heartbeat.send",
        "Sending heartbeat to driver with 4 active tasks",
        &["heartbeat", "driver", "active task"],
        0,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.gc",
        "Garbage collection took 120 ms during task execution",
        &["garbage collection", "task execution"],
        0,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.shuffle.write",
        "task 42 wrote 1024 bytes of shuffle data to local disk",
        &["task", "shuffle data", "local disk"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.task.result",
        "Sending result of task 42 back to driver",
        &["result of task", "driver"],
        1,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.rdd",
        "Registering RDD 7 with 8 partitions",
        &["rdd", "partition"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.job.got",
        "Got job 2 with 16 output partitions",
        &["job", "output partition"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.bc",
        "Broadcasting variable 3 from driver with size 24 KB",
        &["variable", "driver", "size"],
        1,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.locality",
        "Preferred locations for task 4 are worker2 and worker5",
        &["preferred location", "task"],
        1,
        0,
        2,
        1,
        true,
    ),
    Truth::new(
        "sp.drv.speculate",
        "Marking task 4 in stage 1 as speculatable because of slow progress",
        &["task", "stage", "slow progress"],
        2,
        0,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.exec.deps",
        "Fetching 3 missing dependencies from driver",
        &["missing dependency", "driver"],
        0,
        1,
        0,
        1,
        true,
    ),
    Truth::new(
        "sp.rare.heartbeat",
        "Received last heartbeat telling driver disconnection during shutdown",
        &["heartbeat", "driver disconnection", "shutdown"],
        0,
        0,
        0,
        1,
        true,
    ),
    // fault-only templates (never seen in clean training)
    Truth::new(
        "sp.fault.connect",
        "Failed to connect to worker4:41111 while fetching remote blocks",
        &["remote block"],
        0,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.fault.retry",
        "Retrying block fetch from worker4:41111 after connection failure",
        &["block fetch", "connection failure"],
        0,
        0,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.fault.spill",
        "spill 3 of 64 MB written to /tmp/spark-4f2a/spill3.out due to memory pressure",
        &["spill", "memory pressure"],
        1,
        1,
        1,
        1,
        true,
    ),
    Truth::new(
        "sp.fault.lost",
        "Lost executor 3 on worker4 because the worker was lost",
        &["executor", "worker"],
        1,
        0,
        1,
        1,
        true,
    ),
];

/// How many tasks the whole job runs, derived from the input size.
fn total_tasks(cfg: &JobConfig) -> u64 {
    (cfg.input_gb as u64 * 8).max(2)
}

/// Generate a Spark job: one driver session + `cfg.executors` executor
/// sessions, with an optional fault.
pub fn generate(cfg: &JobConfig, fault: Option<&FaultPlan>) -> GenJob {
    let tasks = total_tasks(cfg);
    let n_exec = cfg.executors.max(1) as u64;
    let hosts: Vec<String> = (0..cfg.hosts.max(2))
        .map(|h| format!("worker{}", h + 1))
        .collect();

    // Assign tasks round-robin to executors; the starvation bug removes all
    // tasks from some executors.
    let starved = |e: u64| -> bool {
        matches!(fault, Some(p) if p.kind == FaultKind::Starvation) && e % 2 == 1
    };
    let mut next_tid = 0u64;
    let mut sessions = Vec::new();
    let mut driver = Emitter::new(cfg.seed, 0);
    let driver_host = hosts[0].clone();

    driver.info(
        "SparkContext",
        "sp.acl.view",
        "Changing view acls to root".into(),
    );
    driver.info(
        "SparkContext",
        "sp.acl.modify",
        "Changing modify acls to root".into(),
    );
    driver.info(
        "SecurityManager",
        "sp.sec.auth",
        "authentication disabled for SecurityManager".into(),
    );
    driver.info(
        "DAGScheduler",
        "sp.drv.job.start",
        format!(
            "Starting job {} with {} output partitions",
            cfg.workload,
            tasks.min(64)
        ),
    );
    let stages = (2 + cfg.input_gb / 16).min(5) as u64;
    let tasks_per_stage = (tasks / stages).max(1);
    driver.info(
        "SparkContext",
        "sp.drv.rdd",
        format!(
            "Registering RDD {} with {} partitions",
            stages + 5,
            tasks_per_stage
        ),
    );
    driver.info(
        "DAGScheduler",
        "sp.drv.job.got",
        format!("Got job 0 with {} output partitions", tasks.min(64)),
    );
    let bkb = driver.range(4, 256);
    driver.info(
        "TorrentBroadcast",
        "sp.drv.bc",
        format!("Broadcasting variable 0 from driver with size {bkb} KB"),
    );

    // Executor sessions run concurrently with the driver's scheduling.
    for e in 0..n_exec {
        let host = hosts[(1 + e as usize) % hosts.len()].clone();
        let mut ex = driver.fork(e + 1);
        let exec_id = e + 1;
        ex.info(
            "SparkContext",
            "sp.acl.view",
            "Changing view acls to root".into(),
        );
        ex.info(
            "SecurityManager",
            "sp.sec.auth",
            "authentication disabled for SecurityManager".into(),
        );
        ex.info(
            "CoarseGrainedExecutorBackend",
            "sp.exec.start",
            format!("Starting executor ID {exec_id} on host {host}"),
        );
        ex.info(
            "Executor",
            "sp.exec.reg",
            "Successfully registered with driver".into(),
        );
        ex.info(
            "Executor",
            "sp.exec.classpath",
            "Using classpath /opt/spark/jars for executor launch".into(),
        );
        let deps = ex.range(1, 6);
        ex.info(
            "Executor",
            "sp.exec.deps",
            format!("Fetching {deps} missing dependencies from driver"),
        );
        ex.info(
            "MemoryStore",
            "sp.mem.start",
            format!("MemoryStore started with capacity {} MB", cfg.mem_mb),
        );
        let dir = format!("/tmp/spark-{:04x}/executor-{exec_id}", cfg.seed & 0xffff);
        ex.info(
            "DiskBlockManager",
            "sp.dir.create",
            format!("Created local directory at {dir}"),
        );
        let port = 41100 + exec_id;
        ex.info(
            "BlockManager",
            "sp.bm.registering",
            format!(
                "Registering BlockManager {host}:{port} with {} MB RAM",
                cfg.mem_mb
            ),
        );
        ex.info(
            "BlockManager",
            "sp.bm.registered",
            format!("Registered BlockManager {host}:{port} successfully"),
        );
        ex.info(
            "BlockManager",
            "sp.bm.init",
            format!("Initialized BlockManager on {host}:{port} for executor {exec_id}"),
        );
        sessions.push((format!("container_{:08}", e + 2), host, ex, exec_id));
    }

    // Drive stages and tasks.
    for s in 0..stages {
        driver.info(
            "DAGScheduler",
            "sp.drv.stage.submit",
            format!("Submitting stage {s} with {tasks_per_stage} missing tasks"),
        );
        driver.info(
            "TaskSchedulerImpl",
            "sp.drv.taskset.add",
            format!("Adding task set {s} with {tasks_per_stage} tasks"),
        );
        for t in 0..tasks_per_stage {
            let tid = next_tid;
            next_tid += 1;
            let e = (tid % n_exec) as usize;
            if starved(e as u64) {
                continue;
            }
            let exec_id = sessions[e].3;
            if driver.chance(0.15) {
                let h1 = &hosts[(t as usize) % hosts.len()];
                let h2 = &hosts[(t as usize + 1) % hosts.len()];
                driver.info(
                    "TaskSetManager",
                    "sp.drv.locality",
                    format!("Preferred locations for task {t} are {h1} and {h2}"),
                );
            }
            if driver.chance(0.05) {
                driver.info(
                    "TaskSetManager",
                    "sp.drv.speculate",
                    format!(
                        "Marking task {t} in stage {s} as speculatable because of slow progress"
                    ),
                );
            }
            driver.info(
                "TaskSetManager",
                "sp.drv.task.start",
                format!("Starting task {t} in stage {s} TID {tid} on executor {exec_id}"),
            );
            let sess_host = sessions[e].1.clone();
            let ex = &mut sessions[e].2;
            ex.info(
                "CoarseGrainedExecutorBackend",
                "sp.task.got",
                format!("Got assigned task {tid}"),
            );
            let deser = ex.range(1, 20);
            ex.info(
                "Executor",
                "sp.task.deser",
                format!("Task {tid} deserialized in {deser} ms on executor {exec_id}"),
            );
            ex.info(
                "Executor",
                "sp.task.run",
                format!("Running task {t} in stage {s} TID {tid}"),
            );
            let parts = ex.range(1, 4);
            ex.info(
                "Executor",
                "sp.task.input",
                format!("task {tid} reading {parts} input partitions from parent rdd {s}"),
            );
            let memb = ex.range(1_048_576, 16_777_216);
            ex.info(
                "TaskMemoryManager",
                "sp.task.mem",
                format!("task {tid} acquired {memb} bytes of execution memory"),
            );
            if ex.chance(0.4) {
                let b = s;
                ex.info(
                    "TorrentBroadcast",
                    "sp.bc.start",
                    format!("Started reading broadcast variable {b}"),
                );
                let took = ex.range(2, 40);
                ex.info(
                    "TorrentBroadcast",
                    "sp.bc.took",
                    format!("Reading broadcast variable {b} took {took} ms"),
                );
                let kb = ex.range(4, 512);
                ex.info(
                    "MemoryStore",
                    "sp.block.stored",
                    format!("block broadcast_{b} stored as values in memory with estimated size {kb} KB"),
                );
            }
            if s > 0 {
                let m = ex.range(4, 16);
                let n = ex.range(1, m);
                ex.info(
                    "ShuffleBlockFetcherIterator",
                    "sp.shuffle.get",
                    format!("Getting {n} non-empty blocks out of {m} blocks"),
                );
                // Network fault: fetches against the victim host fail.
                if let Some(p) = fault {
                    if p.kind == FaultKind::NetworkFailure {
                        let victim = &hosts[p.victim_host % hosts.len()];
                        if ex.now() > 400 && victim != &sess_host {
                            let vport = 41100 + (p.victim_host as u64 % n_exec) + 1;
                            ex.warn(
                                "ShuffleBlockFetcherIterator",
                                "sp.fault.connect",
                                format!("Failed to connect to {victim}:{vport} while fetching remote blocks"),
                            );
                            ex.warn(
                                "ShuffleBlockFetcherIterator",
                                "sp.fault.retry",
                                format!("Retrying block fetch from {victim}:{vport} after connection failure"),
                            );
                        }
                    }
                }
            }
            // Memory-pressure spills (performance issue).
            if let Some(p) = fault {
                if p.kind == FaultKind::MemorySpill && ex.chance(0.6) {
                    let spill_no = ex.range(0, 9);
                    let mb = ex.range(16, 128);
                    let dir = format!("/tmp/spark-{:04x}/spill{spill_no}.out", cfg.seed & 0xffff);
                    ex.warn(
                        "ExternalSorter",
                        "sp.fault.spill",
                        format!(
                            "spill {spill_no} of {mb} MB written to {dir} due to memory pressure"
                        ),
                    );
                }
            }
            if ex.chance(0.3) {
                let rdd_block = format!("rdd_{s}_{t}");
                if ex.chance(0.5) {
                    ex.info(
                        "BlockManager",
                        "sp.cache.hit",
                        format!("Found block {rdd_block} locally in memory cache"),
                    );
                } else {
                    ex.info(
                        "BlockManager",
                        "sp.cache.miss",
                        format!("block {rdd_block} not found locally and will be fetched from a remote block manager"),
                    );
                }
            }
            if ex.chance(0.25) {
                let gcms = ex.range(10, 300);
                ex.info(
                    "Executor",
                    "sp.gc",
                    format!("Garbage collection took {gcms} ms during task execution"),
                );
            }
            if s > 0 {
                let wbytes = ex.range(200, 8000);
                ex.info(
                    "ShuffleWriter",
                    "sp.shuffle.write",
                    format!("task {tid} wrote {wbytes} bytes of shuffle data to local disk"),
                );
            }
            ex.info(
                "Executor",
                "sp.task.result",
                format!("Sending result of task {tid} back to driver"),
            );
            ex.tick(20, 200);
            let bytes = ex.range(900, 4200);
            ex.info(
                "Executor",
                "sp.task.finish",
                format!(
                    "Finished task {t} in stage {s} TID {tid}. {bytes} bytes result sent to driver"
                ),
            );
        }
        driver.tick(50, 200);
        driver.info(
            "TaskSchedulerImpl",
            "sp.drv.taskset.done",
            format!("Removed task set {s} whose tasks have all completed"),
        );
        let secs = driver.range(2, 30);
        driver.info(
            "DAGScheduler",
            "sp.drv.stage.done",
            format!("Stage {s} finished in {secs} seconds"),
        );
    }
    driver.info(
        "DAGScheduler",
        "sp.drv.job.done",
        format!("Job {} finished successfully", cfg.workload),
    );

    // Shutdown phase per executor.
    let mut out_sessions: Vec<GenSession> = Vec::new();
    for (id, host, mut ex, exec_id) in sessions {
        let active = ex.range(0, 4);
        ex.info(
            "Executor",
            "sp.heartbeat.send",
            format!("Sending heartbeat to driver with {active} active tasks"),
        );
        if ex.chance(0.5) {
            let bv = ex.range(0, 4);
            ex.info(
                "ContextCleaner",
                "sp.bc.cleaned",
                format!("Cleaned broadcast variable {bv} from memory"),
            );
        }
        ex.info(
            "CoarseGrainedExecutorBackend",
            "sp.drv.shutdown",
            "Driver commanded a shutdown".into(),
        );
        // Under tight memory the worker shuts down slowly enough to still
        // receive the driver-disconnect heartbeat — a benign message that
        // never shows up in (well-tuned) training runs. This reproduces the
        // paper's false-positive class (§6.4: incomplete HW-graph due to
        // insufficient training logs).
        if cfg.mem_mb <= 1024 && ex.chance(0.25) {
            ex.info(
                "CoarseGrainedExecutorBackend",
                "sp.rare.heartbeat",
                "Received last heartbeat telling driver disconnection during shutdown".into(),
            );
        }
        ex.info(
            "MemoryStore",
            "sp.mem.cleared",
            "MemoryStore cleared".into(),
        );
        ex.info(
            "BlockManager",
            "sp.bm.stopped",
            "BlockManager stopped".into(),
        );
        ex.info(
            "ShutdownHookManager",
            "sp.hook",
            "Shutdown hook called".into(),
        );
        let dir = format!("/tmp/spark-{:04x}/executor-{exec_id}", cfg.seed & 0xffff);
        ex.info(
            "ShutdownHookManager",
            "sp.dir.delete",
            format!("Deleting directory {dir}"),
        );
        out_sessions.push(GenSession {
            id,
            host,
            lines: ex.finish(),
            affected: false,
        });
    }
    driver.info(
        "ShutdownHookManager",
        "sp.hook",
        "Shutdown hook called".into(),
    );
    out_sessions.insert(
        0,
        GenSession {
            id: "container_00000001".into(),
            host: driver_host,
            lines: driver.finish(),
            affected: false,
        },
    );

    // Apply truncating faults and ground-truth markers.
    apply_truncating_faults(
        &mut out_sessions,
        fault,
        &hosts,
        "sp.fault.lost",
        "TaskSchedulerImpl",
        |i, victim| format!("Lost executor {i} on {victim} because the worker was lost"),
    );
    mark_fault_affected(&mut out_sessions);
    if matches!(fault, Some(p) if p.kind == FaultKind::Starvation) {
        for s in out_sessions.iter_mut().skip(1) {
            if !s.lines.iter().any(|l| l.template_id == "sp.task.run") {
                s.affected = true;
            }
        }
    }

    GenJob {
        system: SystemKind::Spark,
        workload: cfg.workload.clone(),
        sessions: out_sessions,
        injected: fault.map(|p| p.kind),
    }
}

/// Mark every session carrying a fault-template line as affected (ground
/// truth for per-session detection scoring).
pub(crate) fn mark_fault_affected(sessions: &mut [GenSession]) {
    for s in sessions.iter_mut() {
        if s.lines.iter().any(|l| l.template_id.contains(".fault.")) {
            s.affected = true;
        }
    }
}

/// Session-kill and node-failure truncate log streams; node failure also
/// makes the coordinating session (driver / AM) report the lost workers
/// with a system-specific template.
pub(crate) fn apply_truncating_faults(
    sessions: &mut [GenSession],
    fault: Option<&FaultPlan>,
    _hosts: &[String],
    lost_template: &'static str,
    lost_source: &str,
    lost_msg: impl Fn(usize, &str) -> String,
) {
    let Some(p) = fault else { return };
    match p.kind {
        FaultKind::SessionKill => {
            let idx = 1 + p.victim_session % sessions.len().saturating_sub(1).max(1);
            if let Some(s) = sessions.get_mut(idx) {
                let lines = std::mem::take(&mut s.lines);
                s.lines = Emitter::lines_truncated_at_frac(lines, p.at_frac);
                s.affected = true;
            }
        }
        FaultKind::NodeFailure => {
            // The victim is a node that actually hosts containers of this
            // job (the paper injects on active worker nodes).
            let worker_count = sessions.len().saturating_sub(1).max(1);
            let victim = sessions[1 + p.victim_host % worker_count].host.clone();
            let mut lost: Vec<String> = Vec::new();
            for s in sessions.iter_mut().skip(1) {
                if s.host == victim {
                    let lines = std::mem::take(&mut s.lines);
                    s.lines = Emitter::lines_truncated_at_frac(lines, p.at_frac);
                    s.affected = true;
                    lost.push(s.id.clone());
                }
            }
            if let Some(coord) = sessions.first_mut() {
                let last_ts = coord.lines.last().map(|l| l.ts_ms).unwrap_or(0);
                for (i, _) in lost.iter().enumerate() {
                    coord.lines.push(crate::types::SimLine {
                        ts_ms: last_ts + 1 + i as u64,
                        level: crate::types::SimLevel::Error,
                        source: lost_source.to_string(),
                        message: lost_msg(i + 1, &victim),
                        template_id: lost_template,
                    });
                }
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::JobConfig;

    fn cfg(seed: u64) -> JobConfig {
        JobConfig {
            system: SystemKind::Spark,
            workload: "wordcount".into(),
            input_gb: 8,
            mem_mb: 2048,
            cores: 4,
            executors: 4,
            hosts: 4,
            seed,
        }
    }

    #[test]
    fn clean_job_shape() {
        let job = generate(&cfg(1), None);
        assert_eq!(job.sessions.len(), 5); // driver + 4 executors
        assert!(job.injected.is_none());
        assert!(job.total_lines() > 50);
        // all template ids are in the catalog
        for s in &job.sessions {
            for l in &s.lines {
                assert!(
                    crate::catalog::truth_of(SystemKind::Spark, l.template_id).is_some(),
                    "unknown template {}",
                    l.template_id
                );
            }
        }
        // every executor session ends with the shutdown sequence
        for s in &job.sessions[1..] {
            let last = &s.lines.last().unwrap().message;
            assert!(last.starts_with("Deleting directory"), "{last}");
        }
    }

    #[test]
    fn deterministic_generation() {
        let a = generate(&cfg(7), None);
        let b = generate(&cfg(7), None);
        assert_eq!(a, b);
        let c = generate(&cfg(8), None);
        assert_ne!(a, c);
    }

    #[test]
    fn input_size_scales_session_length() {
        let small = generate(&cfg(2), None);
        let big = generate(
            &JobConfig {
                input_gb: 64,
                ..cfg(2)
            },
            None,
        );
        assert!(big.total_lines() > small.total_lines() * 2);
    }

    #[test]
    fn session_kill_truncates_one_session() {
        let clean = generate(&cfg(3), None);
        let plan = FaultPlan::new(FaultKind::SessionKill, 0.5, 0, 1);
        let faulty = generate(&cfg(3), Some(&plan));
        let victim = 1 + 1 % (faulty.sessions.len() - 1);
        assert!(faulty.sessions[victim].lines.len() < clean.sessions[victim].lines.len());
        // no shutdown hook in the killed session
        assert!(!faulty.sessions[victim]
            .lines
            .iter()
            .any(|l| l.template_id == "sp.hook"));
    }

    #[test]
    fn network_failure_emits_connect_errors() {
        let plan = FaultPlan::new(FaultKind::NetworkFailure, 0.3, 1, 0);
        let job = generate(
            &JobConfig {
                input_gb: 32,
                ..cfg(4)
            },
            Some(&plan),
        );
        let n_fail = job
            .sessions
            .iter()
            .flat_map(|s| &s.lines)
            .filter(|l| l.template_id == "sp.fault.connect")
            .count();
        assert!(n_fail > 0);
    }

    #[test]
    fn starvation_leaves_executors_taskless() {
        let plan = FaultPlan::new(FaultKind::Starvation, 0.0, 0, 0);
        let job = generate(&cfg(5), Some(&plan));
        let taskless = job.sessions[1..]
            .iter()
            .filter(|s| !s.lines.iter().any(|l| l.template_id == "sp.task.run"))
            .count();
        assert!(taskless >= 1, "some executors must be starved");
    }

    #[test]
    fn node_failure_truncates_and_driver_logs_loss() {
        let plan = FaultPlan::new(FaultKind::NodeFailure, 0.4, 1, 0);
        let job = generate(&cfg(6), Some(&plan));
        assert!(job.sessions[0]
            .lines
            .iter()
            .any(|l| l.template_id == "sp.fault.lost"));
    }

    #[test]
    fn spill_fault_adds_spill_lines() {
        let plan = FaultPlan::new(FaultKind::MemorySpill, 0.0, 0, 0);
        let job = generate(&cfg(7), Some(&plan));
        assert!(job
            .sessions
            .iter()
            .flat_map(|s| &s.lines)
            .any(|l| l.template_id == "sp.fault.spill"));
    }
}
