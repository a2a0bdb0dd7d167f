//! The event loop holds no lines: re-sharding a gateway that is being
//! written to as fast as TCP allows must not turn it into a buffer.
//!
//! A sender `write_all`s MapReduce sessions in a loop and counts the lines
//! it has written; `held` is that count minus `STATS`' `ingested` — the
//! lines somewhere between the sender and a detector (socket buffers, the
//! connection's receive buffer, the shard queues). With the loop holding
//! nothing, `held` is bounded by those fixed-size stages before and after
//! an `ADDSHARD` alike. The parking queue this test was written against
//! accepted every record that arrived after a rebalance into an owned,
//! uncapped queue, so `held` grew for as long as the sender kept writing.

use anomaly::Detector;
use dlasim::SystemKind;
use intellog_core::sessions_from_job;
use intellog_gateway::{Gateway, GatewayConfig};
use intellog_serve::{render_log, Backpressure, ServeClient};
use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — the client side of the loopback socket; the sender
// must block in `write_all` when the gateway stops reading.
use std::net::TcpStream;
use std::time::{Duration, Instant};
use sync::atomic::{AtomicBool, AtomicU64, Ordering};
use sync::Arc;

const SYSTEM: SystemKind = SystemKind::MapReduce;
/// How long `held` is watched on each side of the `ADDSHARD`.
const WINDOW: Duration = Duration::from_millis(1500);
const SAMPLE_EVERY: Duration = Duration::from_millis(100);
/// Lines `held` may rise by beyond twice its earlier maximum: the new
/// shard's queue, and socket buffers the kernel is still growing.
const SLACK: u64 = 20_000;
/// Every session id starts with the number of its round in this many
/// digits, so one round's bytes become the next's by overwriting them.
const ROUND_DIGITS: usize = 8;
/// Enough sessions per round that a third shard takes some of them over
/// (each moves with probability 1/3).
const JOBS_PER_ROUND: usize = 6;

fn trained() -> Arc<Detector> {
    let mut gen = dlasim::WorkloadGen::new(42, 8);
    let mut sessions = Vec::new();
    for j in 0..2 {
        let job = dlasim::generate(&gen.training_config(SYSTEM), None);
        for (i, mut s) in sessions_from_job(&job).into_iter().enumerate() {
            s.id = format!("train{j}_{i}_{}", s.id);
            sessions.push(s);
        }
    }
    Arc::new(anomaly::Trainer::default().train(&sessions))
}

/// One round on the wire: a few jobs' sessions on one cluster-wide
/// timeline, then the `END`s of the round before — so a round's worth of
/// sessions is live whenever the rebalance lands.
struct Round {
    bytes: Vec<u8>,
    /// Where the round number starts in each `LOG` line, and in each `END`.
    log_marks: Vec<usize>,
    end_marks: Vec<usize>,
}

impl Round {
    fn render() -> Round {
        let mut gen = dlasim::WorkloadGen::new(9, 8);
        let zeros = "0".repeat(ROUND_DIGITS);
        let mut sessions = Vec::new();
        for j in 0..JOBS_PER_ROUND {
            let job = dlasim::generate(&gen.detection_config(SYSTEM, j), None);
            for mut s in sessions_from_job(&job) {
                s.id = format!("{zeros}_{j}_{}", s.id);
                sessions.push(s);
            }
        }
        let mut lines: Vec<(&str, &spell::LogLine)> = sessions
            .iter()
            .flat_map(|s| s.lines.iter().map(move |l| (s.id.as_str(), l)))
            .collect();
        lines.sort_by_key(|(_, l)| l.ts_ms);
        let mut round = Round {
            bytes: Vec::new(),
            log_marks: Vec::new(),
            end_marks: Vec::new(),
        };
        for (id, line) in lines {
            let at = round.push(&render_log(id, line));
            round.log_marks.push(at);
        }
        for s in &sessions {
            let at = round.push(&format!("END\t{}", s.id));
            round.end_marks.push(at);
        }
        round
    }

    /// Append one protocol line; returns where its session id starts (both
    /// data verbs are three letters and a tab).
    fn push(&mut self, line: &str) -> usize {
        let at = self.bytes.len() + 4;
        self.bytes.extend_from_slice(line.as_bytes());
        self.bytes.push(b'\n');
        at
    }

    fn number(&mut self, round: u64) {
        for (marks, n) in [
            (&self.log_marks, round),
            (&self.end_marks, round.saturating_sub(1)),
        ] {
            let digits = format!("{n:0width$}", width = ROUND_DIGITS);
            for &m in marks {
                self.bytes[m..m + ROUND_DIGITS].copy_from_slice(digits.as_bytes());
            }
        }
    }
}

/// Write rounds until told to stop, then `PING`: when that is answered,
/// every line written is in a shard queue.
fn firehose(addr: &str, mut round: Round, written: &AtomicU64, stop: &AtomicBool) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let mut n = 0;
    while !stop.load(Ordering::Relaxed) {
        round.number(n);
        stream.write_all(&round.bytes).expect("write a round");
        written.fetch_add(round.log_marks.len() as u64, Ordering::Relaxed);
        n += 1;
    }
    stream.write_all(b"PING\n").expect("write PING");
    let mut reply = String::new();
    let mut reader = BufReader::new(stream);
    reader.read_line(&mut reply).expect("read the PING reply");
    assert_eq!(reply, "OK 0\n");
}

/// The most lines found between the sender and the detectors over one
/// window, sampled through `STATS`.
fn max_held(ctl: &mut ServeClient, written: &AtomicU64) -> u64 {
    let until = Instant::now() + WINDOW;
    let mut max = 0;
    while Instant::now() < until {
        sync::thread::sleep(SAMPLE_EVERY);
        let sent = written.load(Ordering::Relaxed);
        let ingested = ctl.stats().expect("STATS").ingested;
        max = max.max(sent.saturating_sub(ingested));
    }
    max
}

#[test]
fn a_rebalance_under_a_firehose_leaves_no_lines_in_the_loop() {
    let cfg = GatewayConfig {
        shards: 2,
        queue_capacity: 128,
        backpressure: Backpressure::Block,
        idle_timeout: Duration::from_secs(120),
        ..GatewayConfig::default()
    };
    let gateway = Gateway::bind(&cfg, trained()).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");
    let addr = addr.to_string();
    let mut ctl = ServeClient::connect(&addr).expect("control connection");

    let written = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    let sender = {
        let (addr, written, stop) = (addr.clone(), Arc::clone(&written), Arc::clone(&stop));
        let round = Round::render();
        sync::thread::Builder::new()
            .name("firehose".into())
            .spawn(move || firehose(&addr, round, &written, &stop))
            .expect("spawn the sender")
    };

    // let the pipe between sender and detectors fill before measuring it
    max_held(&mut ctl, &written);
    let before = max_held(&mut ctl, &written);
    ctl.add_shard().expect("ADDSHARD");
    let after = max_held(&mut ctl, &written);
    println!("held lines: at most {before} before ADDSHARD, {after} after");

    stop.store(true, Ordering::Relaxed);
    sender.join().expect("sender thread");
    ctl.drain().expect("DRAIN");
    let stats = ctl.stats().expect("STATS");
    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");

    assert!(before > 0, "the sender never got ahead of the detectors");
    assert!(
        after <= 2 * before + SLACK,
        "lines held rose from {before} to {after} after ADDSHARD"
    );
    assert_eq!(stats.ingested, written.load(Ordering::Relaxed));
    assert_eq!(stats.dropped, 0);
    assert_eq!(stats.sessions_live, 0);
    assert_eq!(stats.rebalances, 1);
    assert!(stats.sessions_moved > 0, "ADDSHARD moved no live session");
}
