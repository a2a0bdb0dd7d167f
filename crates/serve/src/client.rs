//! A small line-protocol client, used by `intellog replay`, the serve
//! bench and the integration tests.

use crate::metrics::StatsSnapshot;
use anomaly::SessionReport;
use spell::LogLine;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;

/// A socket whose every write carries at most `chunk` bytes.
struct ChunkedStream {
    stream: TcpStream,
    chunk: usize,
}

impl Write for ChunkedStream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.stream.write(&buf[..buf.len().min(self.chunk)])
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// A connected client over the serve line protocol.
pub struct ServeClient {
    writer: BufWriter<ChunkedStream>,
    reader: BufReader<TcpStream>,
}

impl ServeClient {
    /// Connect to a running server.
    pub fn connect(addr: &str) -> std::io::Result<ServeClient> {
        ServeClient::connect_chunked(addr, usize::MAX)
    }

    /// [`ServeClient::connect`], but cutting everything sent into socket
    /// writes of at most `chunk` bytes (each its own TCP segment): how the
    /// soak and the wire tests make protocol lines, CRLFs and UTF-8
    /// sequences straddle the server's reads.
    pub fn connect_chunked(addr: &str, chunk: usize) -> std::io::Result<ServeClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        let chunk = chunk.max(1);
        Ok(ServeClient {
            writer: BufWriter::with_capacity(1 << 16, ChunkedStream { stream, chunk }),
            reader,
        })
    }

    /// Bind this connection's data verbs (`LOG`/`END`) to a tenant. The
    /// server routes to the default tenant until this is called.
    pub fn tenant(&mut self, id: &str) -> std::io::Result<()> {
        self.request(&format!("TENANT\t{id}")).map(|_| ())
    }

    /// Send one log line (fire-and-forget; buffered).
    pub fn log(&mut self, session: &str, line: &LogLine) -> std::io::Result<()> {
        let wire = crate::proto::render_log(session, line);
        writeln!(self.writer, "{wire}")
    }

    /// Close a session (fire-and-forget; buffered).
    pub fn end(&mut self, session: &str) -> std::io::Result<()> {
        writeln!(self.writer, "END\t{session}")
    }

    /// Flush buffered data lines to the socket.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.writer.flush()
    }

    fn request(&mut self, verb: &str) -> std::io::Result<Vec<String>> {
        writeln!(self.writer, "{verb}")?;
        self.writer.flush()?;
        let mut status = String::new();
        self.reader.read_line(&mut status)?;
        let status = status.trim_end();
        let Some(count) = status
            .strip_prefix("OK ")
            .and_then(|n| n.parse::<usize>().ok())
        else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("server replied {status:?} to {verb}"),
            ));
        };
        let mut lines = Vec::with_capacity(count);
        for _ in 0..count {
            let mut l = String::new();
            self.reader.read_line(&mut l)?;
            lines.push(l.trim_end().to_string());
        }
        Ok(lines)
    }

    /// Round-trip a `PING`.
    pub fn ping(&mut self) -> std::io::Result<()> {
        self.request("PING").map(|_| ())
    }

    /// Fetch the server metrics snapshot.
    pub fn stats(&mut self) -> std::io::Result<StatsSnapshot> {
        let lines = self.request("STATS")?;
        let json = lines
            .first()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty STATS"))?;
        serde_json::from_str(json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Fetch the server metrics in Prometheus text exposition format
    /// (`METRICS` verb); returns the raw text, one line per series/sample.
    pub fn metrics(&mut self) -> std::io::Result<String> {
        let lines = self.request("METRICS")?;
        let mut out = String::new();
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
        Ok(out)
    }

    /// Fetch the newest `n` completed session reports.
    pub fn reports(&mut self, n: usize) -> std::io::Result<Vec<SessionReport>> {
        self.fetch_reports("REPORTS", n, None)
    }

    /// Fetch the newest `n` completed reports for one tenant.
    pub fn reports_for(&mut self, n: usize, tenant: &str) -> std::io::Result<Vec<SessionReport>> {
        self.fetch_reports("REPORTS", n, Some(tenant))
    }

    /// Fetch the newest `n` problematic session reports.
    pub fn anomalies(&mut self, n: usize) -> std::io::Result<Vec<SessionReport>> {
        self.fetch_reports("ANOMALIES", n, None)
    }

    fn fetch_reports(
        &mut self,
        verb: &str,
        n: usize,
        tenant: Option<&str>,
    ) -> std::io::Result<Vec<SessionReport>> {
        let req = match tenant {
            Some(t) => format!("{verb}\t{n}\t{t}"),
            None => format!("{verb}\t{n}"),
        };
        self.request(&req)?
            .iter()
            .map(|l| {
                serde_json::from_str(l).map_err(|e| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
                })
            })
            .collect()
    }

    /// Hot-load a model from `path` for `tenant` (created if new). Blocks
    /// until the background load completes; returns the result line
    /// (`LOADED\t<tenant>\t<version>\t<keys>\t<prev_live>`).
    pub fn load(&mut self, tenant: &str, path: &str) -> std::io::Result<String> {
        let lines = self.request(&format!("LOAD\t{tenant}\t{path}"))?;
        lines
            .into_iter()
            .next()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::InvalidData, "empty LOAD reply"))
    }

    /// Add a shard worker; returns the new shard's index once the ring
    /// rebalance completed.
    pub fn add_shard(&mut self) -> std::io::Result<usize> {
        self.numeric_request("ADDSHARD")
    }

    /// Drain shard `index` under live load: its sessions are
    /// snapshot-moved to the remaining shards. Returns how many moved.
    pub fn drain_shard(&mut self, index: usize) -> std::io::Result<usize> {
        self.numeric_request(&format!("DRAINSHARD\t{index}"))
    }

    /// Drain every live session; returns how many were finished.
    pub fn drain(&mut self) -> std::io::Result<usize> {
        self.numeric_request("DRAIN")
    }

    /// Drain one tenant's live sessions; returns how many were finished.
    pub fn drain_tenant(&mut self, tenant: &str) -> std::io::Result<usize> {
        self.numeric_request(&format!("DRAIN\t{tenant}"))
    }

    /// Send a verb whose `OK <n>` reply carries a count, not a line batch.
    fn numeric_request(&mut self, verb: &str) -> std::io::Result<usize> {
        writeln!(self.writer, "{verb}")?;
        self.writer.flush()?;
        let mut status = String::new();
        self.reader.read_line(&mut status)?;
        status
            .trim_end()
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("server replied {:?} to {verb}", status.trim_end()),
                )
            })
    }

    /// Ask the server to drain and exit.
    pub fn shutdown(&mut self) -> std::io::Result<()> {
        writeln!(self.writer, "SHUTDOWN")?;
        self.writer.flush()?;
        let mut status = String::new();
        let _ = self.reader.read_line(&mut status);
        Ok(())
    }
}
