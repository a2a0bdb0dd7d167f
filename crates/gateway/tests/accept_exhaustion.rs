//! A failed `accept` is counted and survived, and a listener that stays
//! readable because nothing can be accepted does not spin the sleeping loop.
//!
//! The failure is real: the test hoards descriptors until the process has
//! none left, so the gateway's `accept` fails with `EMFILE` while a
//! connection waits in the backlog. That starves everything else in the
//! process too, which is why this is a test binary of its own with one test.

use anomaly::Trainer;
use intellog_gateway::{Gateway, GatewayConfig};
use intellog_serve::ServeClient;
use spell::{Level, LogLine, Session};
use std::io::{BufRead, BufReader, Write};
// lint: allow(std-net) — the client whose connection is left in the backlog
use std::net::TcpStream;
use std::time::{Duration, Instant};
use sync::Arc;

/// More than this many free descriptors: not a limit worth filling.
const HOARD_MAX: usize = 100_000;

fn detector() -> Arc<anomaly::Detector> {
    let line = |message: &str| LogLine {
        ts_ms: 0,
        level: Level::Info,
        source: "X".into(),
        message: message.into(),
    };
    let sessions: Vec<Session> = (0..3)
        .map(|i| Session::new(format!("c{i}"), vec![line(&format!("Starting task {i}"))]))
        .collect();
    Arc::new(Trainer::default().train(&sessions))
}

#[test]
fn descriptor_exhaustion_is_counted_survived_and_slept_through() {
    let gateway = Gateway::bind(&GatewayConfig::default(), detector()).expect("bind");
    let (addr, join) = gateway.spawn().expect("spawn gateway");
    let mut ctl = ServeClient::connect(&addr.to_string()).expect("ctl");
    assert_eq!(ctl.stats().expect("STATS").accept_errors, 0);

    // every descriptor the process may have, but one: the client's
    let null = std::fs::File::open("/dev/null").expect("open /dev/null");
    let mut hoard = Vec::new();
    while let Ok(dup) = null.try_clone() {
        hoard.push(dup);
        if hoard.len() > HOARD_MAX {
            eprintln!("skipped: more than {HOARD_MAX} descriptors to exhaust");
            drop(hoard);
            ctl.shutdown().expect("shutdown");
            join.join().expect("gateway thread").expect("gateway run");
            return;
        }
    }
    drop(hoard.pop());
    let mut client = TcpStream::connect(addr).expect("connect with the last descriptor");

    // the connection is in the backlog and cannot be taken out of it
    let deadline = Instant::now() + Duration::from_secs(30);
    while ctl.stats().expect("STATS").accept_errors == 0 {
        assert!(Instant::now() < deadline, "accept never failed");
        sync::thread::sleep(Duration::from_millis(1));
    }
    // the listener reads ready for as long as that lasts; the loop sleeps
    // all the same, and the connections it has are served
    let before = ctl.stats().expect("STATS").loop_waits;
    sync::thread::sleep(Duration::from_millis(300));
    let stats = ctl.stats().expect("STATS");
    assert!(
        stats.loop_waits - before <= 5,
        "a listener nothing can be accepted from woke the loop {} times",
        stats.loop_waits - before
    );
    assert_eq!(stats.connections_total, 1, "only the control connection");

    // descriptors come back; the next event's sweep accepts the connection
    drop(hoard);
    ctl.ping().expect("PING");
    client.write_all(b"PING\n").expect("PING");
    let mut reply = String::new();
    BufReader::new(&client)
        .read_line(&mut reply)
        .expect("reply");
    assert_eq!(reply, "OK 0\n");
    let stats = ctl.stats().expect("STATS");
    assert!(stats.accept_errors >= 1);
    assert_eq!(stats.connections_total, 2);

    ctl.shutdown().expect("shutdown");
    join.join().expect("gateway thread").expect("gateway run");
}
