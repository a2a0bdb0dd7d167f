//! Seeded inputs. Everything the program under test receives is generated
//! here from `--seed` and rendered to the text or wire bytes a deployment
//! would hand it; the simulator itself is never on a timed path.

use crate::harness::loadgen::Batch;
use dlasim::{FaultKind, ForeignFormat, GenJob, RawFormat, SystemKind, WorkloadGen};
use intellog_core::sessions_from_job;
use spell::Session;

/// 2019-06-22T00:00:00Z, the simulator's clock origin, as epoch-ms: real
/// JSON logs carry 13-digit timestamps, which the simulator's do not.
pub const EPOCH_MS: u64 = 1_561_161_600_000;

const HOSTS: u32 = 8;

const ALL_FAULTS: [FaultKind; 5] = [
    FaultKind::SessionKill,
    FaultKind::NetworkFailure,
    FaultKind::NodeFailure,
    FaultKind::MemorySpill,
    FaultKind::Starvation,
];

/// Jobs cycling through the simulator's five configuration sets (input
/// size, memory, cores, executors), so that every seed yields a corpus of
/// the same size and mix and only the workloads and the details within a
/// job differ. Session ids are prefixed with the job index so they never
/// collide. With `faults`, every second job carries an injected fault,
/// cycling through all five kinds.
pub fn jobs(system: SystemKind, jobs: usize, seed: u64, faults: bool) -> Vec<GenJob> {
    let mut gen = WorkloadGen::new(seed, HOSTS);
    (0..jobs)
        .map(|j| {
            let cfg = gen.detection_config(system, j);
            let plan = (faults && j % 2 == 1).then(|| gen.fault_plan(ALL_FAULTS[j / 2 % 5]));
            qualify(j, dlasim::generate(&cfg, plan.as_ref()))
        })
        .collect()
}

fn qualify(index: usize, mut job: GenJob) -> GenJob {
    for s in &mut job.sessions {
        s.id = format!("j{index}-{}", s.id);
    }
    job
}

pub fn total_lines(jobs: &[GenJob]) -> usize {
    jobs.iter().map(GenJob::total_lines).sum()
}

/// One session's log file: its id (the file stem) and its content.
pub struct SessionText {
    pub id: String,
    pub text: String,
}

/// Each session rendered in its system's native syntax.
pub fn native_text(jobs: &[GenJob]) -> Vec<SessionText> {
    jobs.iter()
        .flat_map(|job| {
            let format = RawFormat::for_system(job.system);
            job.sessions.iter().map(move |s| SessionText {
                id: s.id.clone(),
                text: s.raw_lines(format).join("\n"),
            })
        })
        .collect()
}

/// Move every timestamp onto the real epoch, so JSON renderings carry
/// 13-digit epoch-ms like production logs.
pub fn shift_to_epoch(jobs: &mut [GenJob]) {
    for line in jobs
        .iter_mut()
        .flat_map(|j| j.sessions.iter_mut())
        .flat_map(|s| s.lines.iter_mut())
    {
        line.ts_ms += EPOCH_MS;
    }
}

/// Each session rendered as JSON lines.
pub fn json_text(jobs: &[GenJob]) -> Vec<SessionText> {
    jobs.iter()
        .flat_map(|job| job.sessions.iter())
        .map(|s| SessionText {
            id: s.id.clone(),
            text: ForeignFormat::Json.render_session(s).join("\n"),
        })
        .collect()
}

/// The natively bridged sessions of every job, in job order.
pub fn bridged_sessions(jobs: &[GenJob]) -> Vec<Session> {
    jobs.iter().flat_map(sessions_from_job).collect()
}

/// The wire form of a corpus, per sender connection: each job's sessions
/// merged into one cluster-wide timeline (the order a collector tailing
/// every container sees), a session's `END` right behind its last line,
/// sessions dealt round-robin to connections so that one session's lines
/// stay on one socket and in order.
pub fn wire_streams(jobs: &[GenJob], connections: usize) -> Vec<Vec<u8>> {
    let mut streams = vec![Vec::new(); connections.max(1)];
    let mut session_index = 0usize;
    for job in jobs {
        let sessions = sessions_from_job(job);
        let conn_of: Vec<usize> = sessions
            .iter()
            .map(|_| {
                session_index += 1;
                (session_index - 1) % streams.len()
            })
            .collect();
        let mut left: Vec<usize> = sessions.iter().map(Session::len).collect();
        let mut merged: Vec<(usize, &spell::LogLine)> = sessions
            .iter()
            .enumerate()
            .flat_map(|(i, s)| s.lines.iter().map(move |l| (i, l)))
            .collect();
        merged.sort_by_key(|(_, l)| l.ts_ms);
        for (i, line) in merged {
            let out = &mut streams[conn_of[i]];
            out.extend_from_slice(intellog_serve::render_log(&sessions[i].id, line).as_bytes());
            out.push(b'\n');
            left[i] -= 1;
            if left[i] == 0 {
                out.extend_from_slice(format!("END\t{}\n", sessions[i].id).as_bytes());
            }
        }
    }
    streams
}

/// The `LOG` lines of a wire stream (without `END`s), as the gateway's
/// framing hands them to `parse_log`.
pub fn log_lines(stream: &[u8]) -> Vec<&str> {
    std::str::from_utf8(stream)
        .expect("rendered wire bytes are UTF-8")
        .lines()
        .filter(|l| l.starts_with("LOG\t"))
        .collect()
}

/// Cut one wire stream into batches of `batch_lines` `LOG` lines.
pub fn wire_batches(stream: &[u8], batch_lines: usize) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut current = Batch::default();
    for line in stream.split_inclusive(|&b| b == b'\n') {
        // an END belongs with the line before it, so it never opens a batch
        if current.lines == batch_lines && line.starts_with(b"LOG\t") {
            batches.push(std::mem::take(&mut current));
        }
        current.bytes.extend_from_slice(line);
        current.lines += usize::from(line.starts_with(b"LOG\t"));
    }
    if !current.bytes.is_empty() {
        batches.push(current);
    }
    batches
}

/// The verdict probe: from one small job of the system the model was
/// trained on, the complete container log nearest to 38 lines. It is the
/// same for every seed, so that only the model under it varies.
pub fn probe_session(system: SystemKind) -> Session {
    let job = dlasim::generate(
        &WorkloadGen::new(38, HOSTS).detection_config(system, 0),
        None,
    );
    sessions_from_job(&job)
        .into_iter()
        .min_by_key(|s| s.len().abs_diff(38))
        .expect("a generated job has sessions")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_wire_form_is_complete() {
        let corpus = jobs(SystemKind::MapReduce, 3, 5, false);
        let again = jobs(SystemKind::MapReduce, 3, 5, false);
        assert_eq!(wire_streams(&corpus, 2), wire_streams(&again, 2));
        assert_ne!(
            wire_streams(&corpus, 2),
            wire_streams(&jobs(SystemKind::MapReduce, 3, 6, false), 2)
        );
        let streams = wire_streams(&corpus, 2);
        let logs: usize = streams.iter().map(|s| log_lines(s).len()).sum();
        assert_eq!(logs, total_lines(&corpus));
        let sessions: usize = corpus.iter().map(|j| j.sessions.len()).sum();
        let ends = streams
            .iter()
            .flat_map(|s| s.split(|&b| b == b'\n'))
            .filter(|l| l.starts_with(b"END\t"))
            .count();
        assert_eq!(ends, sessions);
        for line in streams.iter().flat_map(|s| log_lines(s)) {
            assert!(intellog_serve::parse_log(line).is_some(), "{line}");
        }
    }

    #[test]
    fn batches_partition_the_stream() {
        let corpus = jobs(SystemKind::Spark, 2, 5, false);
        let stream = wire_streams(&corpus, 1).remove(0);
        let batches = wire_batches(&stream, 64);
        let joined: Vec<u8> = batches.iter().flat_map(|b| b.bytes.clone()).collect();
        assert_eq!(joined, stream);
        assert_eq!(
            batches.iter().map(|b| b.lines).sum::<usize>(),
            total_lines(&corpus)
        );
        assert!(batches[..batches.len() - 1].iter().all(|b| b.lines == 64));
    }

    #[test]
    fn faults_cover_all_kinds_on_every_second_job() {
        let corpus = jobs(SystemKind::Spark, 10, 5, true);
        let kinds: Vec<_> = corpus.iter().filter_map(|j| j.injected).collect();
        assert_eq!(kinds, ALL_FAULTS);
        let mut shifted = corpus;
        shift_to_epoch(&mut shifted);
        let first = json_text(&shifted).remove(0).text;
        assert!(first.starts_with("{\"ts\":15611"), "{first}");
    }
}
