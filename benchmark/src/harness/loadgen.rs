//! Load generators for the serving workloads: a closed-loop sender, an
//! open-loop paced sender and an open-loop verdict probe, all over
//! pre-rendered wire bytes.
//!
//! The generators and the gateway share one process and one small host, so
//! the generator must cost as little as possible: it writes bytes rendered
//! during set-up and formats nothing while the clock runs.

use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — this is the client side of the loopback socket.
// `ServeClient::log` formats and allocates per line and would make the
// generator, not the gateway, the bottleneck.
use std::net::TcpStream;
use std::time::{Duration, Instant};
use sync::atomic::{AtomicBool, Ordering};
use sync::Arc;

/// A probe that takes longer than this counts as failed.
pub const PROBE_DEADLINE_MS: f64 = 1000.0;

/// One blocking client connection speaking the line protocol.
pub struct Wire {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Wire {
    pub fn connect(addr: &str) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Wire { stream, reader })
    }

    pub fn send(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Read one `OK <n>` status line and return `n`.
    pub fn read_ok(&mut self) -> std::io::Result<u64> {
        let mut status = String::new();
        self.reader.read_line(&mut status)?;
        status
            .trim_end()
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("gateway replied {:?}", status.trim_end()),
                )
            })
    }

    /// Send a verb whose reply is a bare `OK <n>` (PING, TENANT, DRAIN).
    pub fn request(&mut self, verb: &str) -> std::io::Result<u64> {
        self.send(format!("{verb}\n").as_bytes())?;
        self.read_ok()
    }
}

/// Closed loop: every connection writes its whole stream as fast as TCP
/// flow control and the gateway's backpressure admit, then waits for a
/// `PING` reply — which the gateway sends only once every earlier line on
/// that connection has been parsed and routed. One thread per connection;
/// the last stream is sent from the calling thread.
pub fn send_closed(mut wires: Vec<Wire>, streams: &Arc<Vec<Vec<u8>>>) -> std::io::Result<()> {
    assert_eq!(wires.len(), streams.len());
    let own = wires.pop();
    let handles: Vec<_> = wires
        .into_iter()
        .enumerate()
        .map(|(i, mut wire)| {
            let streams = Arc::clone(streams);
            sync::thread::spawn(move || {
                wire.send(&streams[i])?;
                wire.request("PING").map(|_| ())
            })
        })
        .collect();
    if let (Some(mut wire), Some(stream)) = (own, streams.last()) {
        wire.send(stream)?;
        wire.request("PING")?;
    }
    for h in handles {
        h.join()
            .map_err(|_| std::io::Error::other("sender thread panicked"))??;
    }
    Ok(())
}

/// A run of whole wire lines sent with one write.
#[derive(Default)]
pub struct Batch {
    pub bytes: Vec<u8>,
    /// `LOG` lines in the batch (`END` lines ride along uncounted).
    pub lines: usize,
}

pub struct PacedReport {
    /// Per batch, how late its write started after its due time (ms).
    pub lag_ms: Vec<f64>,
    /// Lines sent ÷ lines the schedule offered while the sender ran.
    pub achieved_share: f64,
}

/// Open loop: batch `i` is due when the lines before it have been offered
/// at `rate` lines/s, whether or not the gateway kept up. A late sender
/// does not skip or stretch the schedule; it reports its lag.
pub fn send_paced(
    wire: &mut Wire,
    batches: &[Batch],
    rate: f64,
    start: Instant,
) -> std::io::Result<PacedReport> {
    let mut lag_ms = Vec::with_capacity(batches.len());
    let mut offered = 0usize;
    for batch in batches {
        let due = start + Duration::from_secs_f64(offered as f64 / rate);
        sleep_until(due);
        lag_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
        wire.send(&batch.bytes)?;
        offered += batch.lines;
    }
    let scheduled = (start.elapsed().as_secs_f64() * rate).max(offered as f64);
    wire.request("PING")?;
    Ok(PacedReport {
        lag_ms,
        achieved_share: offered as f64 / scheduled,
    })
}

#[derive(Default)]
pub struct ProbeReport {
    /// Due time → `PING` reply: the gateway loop's own responsiveness.
    pub ping_ms: Vec<f64>,
    /// Due time → `DRAIN` ack of the probe session: line-to-verdict latency.
    pub verdict_ms: Vec<f64>,
    /// Probes answered wrongly or later than [`PROBE_DEADLINE_MS`].
    pub failed: u64,
}

/// Open-loop verdict probe on its own connection (already bound to the
/// probe tenant). Every `interval` one probe is due: `PING`, one short
/// session, then a tenant-scoped `DRAIN`, sent with a single write. The
/// `DRAIN` ack cannot arrive before every shard has worked off what was
/// queued ahead of it and the probe session has been finished, so the time
/// from the due instant to that ack is a client-observed line-to-verdict
/// latency. A probe that overruns its slot delays the next one, and that
/// delay is charged to the next one.
pub fn run_probes(
    wire: &mut Wire,
    probes: &[Vec<u8>],
    interval: Duration,
    start: Instant,
    stop: &AtomicBool,
) -> std::io::Result<ProbeReport> {
    let mut report = ProbeReport::default();
    for k in 0u32.. {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let due = start + interval * k;
        sleep_until(due);
        wire.send(&probes[k as usize % probes.len()])?;
        let pong = wire.read_ok()?;
        let ping_ms = due.elapsed().as_secs_f64() * 1e3;
        let finished = wire.read_ok()?;
        let verdict_ms = due.elapsed().as_secs_f64() * 1e3;
        if pong != 0 || finished != 1 || verdict_ms > PROBE_DEADLINE_MS {
            report.failed += 1;
        }
        report.ping_ms.push(ping_ms);
        report.verdict_ms.push(verdict_ms);
    }
    Ok(report)
}

fn sleep_until(due: Instant) {
    let wait = due.saturating_duration_since(Instant::now());
    if !wait.is_zero() {
        sync::thread::sleep(wait);
    }
}
