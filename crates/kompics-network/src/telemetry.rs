//! A tiny pull-based metrics endpoint: Prometheus text at `/metrics`, the
//! JSON snapshot at `/metrics.json`.
//!
//! Deliberately minimal — a hand-rolled HTTP/1.0 responder over
//! `std::net::TcpListener` on one dedicated thread, good enough for a
//! scraper or `curl`, with zero dependencies. Rendering happens per
//! request (scrape-time aggregation is the registry's whole design);
//! nothing here touches the dispatch hot path.
//!
//! ```no_run
//! use std::sync::Arc;
//! use kompics_network::telemetry::MetricsServer;
//! use kompics_telemetry::Registry;
//!
//! let registry = Arc::new(Registry::new());
//! let server = MetricsServer::serve("127.0.0.1:9095", registry).unwrap();
//! println!("scrape http://{}/metrics", server.local_addr());
//! // ... run the system; drop the server (or call shutdown) to stop it.
//! ```

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use kompics_telemetry::{json_snapshot, prometheus_text, Registry};

/// How long the accept loop sleeps between polls of the non-blocking
/// listener. Scrapes are human/scraper-paced; 25 ms of added latency is
/// irrelevant and keeps the idle endpoint near-free.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// A pull endpoint serving a [`Registry`] over HTTP.
///
/// Runs on its own thread; stops (and joins the thread) on
/// [`shutdown`](MetricsServer::shutdown) or drop.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `bind` (e.g. `"127.0.0.1:9095"`, or port `0` for an ephemeral
    /// port) and starts serving `registry`.
    pub fn serve(bind: &str, registry: Arc<Registry>) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        // Infrastructure thread (like the TCP transport's acceptor), not
        // component code: the endpoint needs its own serving thread.
        let thread = std::thread::Builder::new()
            .name("kompics-metrics".to_string())
            .spawn(move || accept_loop(listener, registry, stop_flag))?;
        Ok(MetricsServer {
            addr,
            stop,
            thread: Some(thread),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the endpoint and joins its thread.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<Registry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare and rendering is cheap, so
                // one connection at a time is plenty.
                let _ = serve_connection(stream, &registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // komlint: allow(blocking-sleep) reason="accept-poll backoff on the endpoint's dedicated serving thread, not a scheduler worker"
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => break,
        }
    }
}

fn serve_connection(mut stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    // Read enough for the request line; ignore the rest of the headers.
    let mut buf = [0u8; 1024];
    let n = stream.read(&mut buf)?;
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");

    let (status, content_type, body) = match path {
        "/metrics" => (
            "200 OK",
            "text/plain; version=0.0.4",
            prometheus_text(registry),
        ),
        "/metrics.json" => ("200 OK", "application/json", json_snapshot(registry)),
        _ => (
            "404 Not Found",
            "text/plain",
            "not found; try /metrics or /metrics.json\n".to_string(),
        ),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to metrics endpoint");
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        out
    }

    #[test]
    fn serves_prometheus_and_json() {
        let registry = Arc::new(Registry::with_shards(1));
        registry.counter("demo_requests", &[("route", "/x")]).add(7);
        let server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();

        let prom = http_get(addr, "/metrics");
        assert!(prom.starts_with("HTTP/1.0 200 OK"));
        assert!(prom.contains("demo_requests{route=\"/x\"} 7"));

        let json = http_get(addr, "/metrics.json");
        assert!(json.contains("\"schema\":\"kompics-telemetry/v1\""));
        assert!(json.contains("\"value\":7"));

        let missing = http_get(addr, "/nope");
        assert!(missing.starts_with("HTTP/1.0 404"));
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let registry = Arc::new(Registry::with_shards(1));
        let mut server = MetricsServer::serve("127.0.0.1:0", registry).unwrap();
        server.shutdown();
        // Second shutdown (and the drop) are no-ops.
        server.shutdown();
    }
}
