//! The Web abstraction and a minimal HTTP status server.
//!
//! The paper embeds Jetty in a `JettyWebServer` component "which wraps
//! every HTTP request into a WebRequest event and triggers it on a required
//! Web port"; application components *provide* the [`Web`] port and answer
//! with [`WebResponse`]s. This module substitutes a small HTTP/1.0 server
//! over `std::net` (DESIGN.md §4): the architectural role — a Web port
//! between the HTTP frontend and inspectable components — is identical.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::time::Duration;

use kompics_core::port::PortRef;
use kompics_core::prelude::*;
use parking_lot::Mutex;

// ---------------------------------------------------------------------------
// Port type and events
// ---------------------------------------------------------------------------

/// Request: an incoming HTTP request, wrapped.
#[derive(Debug, Clone)]
pub struct WebRequest {
    /// Correlates the response.
    pub id: u64,
    /// Request path, e.g. `/status`.
    pub path: String,
}
impl_event!(WebRequest);

/// Indication: the page answering a [`WebRequest`].
#[derive(Debug, Clone)]
pub struct WebResponse {
    /// The request this answers.
    pub id: u64,
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON by convention).
    pub body: String,
}
impl_event!(WebResponse);

port_type! {
    /// The web abstraction: provided by components that expose status
    /// pages, required by the HTTP frontend.
    pub struct Web {
        indication: WebResponse;
        request: WebRequest;
    }
}

// ---------------------------------------------------------------------------
// HTTP frontend component
// ---------------------------------------------------------------------------

type Pending = Arc<Mutex<HashMap<u64, SyncSender<(u16, String)>>>>;

/// Minimal HTTP frontend: accepts `GET` requests, triggers them as
/// [`WebRequest`]s on its required [`Web`] port, and answers each socket
/// with the matching [`WebResponse`] (or `504` after a timeout).
pub struct HttpServer {
    ctx: ComponentContext,
    web: RequiredPort<Web>,
    listener: Option<TcpListener>,
    port: u16,
    pending: Pending,
    shutdown: Arc<AtomicBool>,
    timeout: Duration,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl HttpServer {
    /// Binds an HTTP listener (port `0` for OS-assigned) and returns the
    /// actual port together with the pre-bound listener for
    /// [`HttpServer::new`].
    ///
    /// # Errors
    ///
    /// Propagates socket bind errors.
    pub fn bind(port: u16) -> std::io::Result<(u16, TcpListener)> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let actual = listener.local_addr()?.port();
        Ok((actual, listener))
    }

    /// Creates the frontend around a pre-bound listener.
    pub fn new(port: u16, listener: TcpListener, timeout: Duration) -> Self {
        let ctx = ComponentContext::new();
        let web: RequiredPort<Web> = RequiredPort::new();
        let pending: Pending = Arc::new(Mutex::new(HashMap::new()));

        web.subscribe(|this: &mut HttpServer, resp: &WebResponse| {
            if let Some(tx) = this.pending.lock().remove(&resp.id) {
                let _ = tx.send((resp.status, resp.body.clone()));
            }
        });
        ctx.subscribe_control(|this: &mut HttpServer, _s: &Start| {
            this.ensure_listener();
        });

        HttpServer {
            ctx,
            web,
            listener: Some(listener),
            port,
            pending,
            shutdown: Arc::new(AtomicBool::new(false)),
            timeout,
            thread: None,
        }
    }

    /// The port the frontend listens on.
    pub fn port(&self) -> u16 {
        self.port
    }

    fn ensure_listener(&mut self) {
        if self.thread.is_some() {
            return;
        }
        let Some(listener) = self.listener.take() else {
            return;
        };
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let pending = Arc::clone(&self.pending);
        let shutdown = Arc::clone(&self.shutdown);
        let web = self.web.inside_ref();
        let timeout = self.timeout;
        let handle = std::thread::Builder::new()
            .name(format!("http-{}", self.port))
            .spawn(move || http_loop(listener, pending, shutdown, web, timeout))
            .expect("spawn http acceptor");
        self.thread = Some(handle);
    }
}

static NEXT_REQUEST_ID: AtomicU64 = AtomicU64::new(1);

fn http_loop(
    listener: TcpListener,
    pending: Pending,
    shutdown: Arc<AtomicBool>,
    web: PortRef<Web>,
    timeout: Duration,
) {
    while !shutdown.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                let pending = Arc::clone(&pending);
                let web = web.clone();
                // komlint: allow(thread-spawn) reason="one short-lived connection-handler thread per HTTP request; the frontend bridges blocking HTTP onto event triggers"
                std::thread::spawn(move || handle_http(stream, pending, web, timeout));
            }
            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                // komlint: allow(blocking-sleep) reason="accept-poll backoff on the frontend's dedicated listener thread"
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => return,
        }
    }
}

fn handle_http(
    mut stream: std::net::TcpStream,
    pending: Pending,
    web: PortRef<Web>,
    timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
    let mut buf = [0u8; 4096];
    let n = match stream.read(&mut buf) {
        Ok(n) if n > 0 => n,
        _ => return,
    };
    let request = String::from_utf8_lossy(&buf[..n]);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/")
        .to_string();

    let id = NEXT_REQUEST_ID.fetch_add(1, Ordering::Relaxed);
    let (tx, rx) = sync_channel(1);
    pending.lock().insert(id, tx);
    let _ = web.trigger(WebRequest { id, path });

    let (status, body) = rx
        // komlint: allow(blocking-recv) reason="blocks the per-connection HTTP thread awaiting the component's WebResponse, never a scheduler worker"
        .recv_timeout(timeout)
        .unwrap_or((504, "{\"error\":\"status timeout\"}".to_string()));
    pending.lock().remove(&id);
    let reply = format!(
        "HTTP/1.0 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
        status,
        if status == 200 { "OK" } else { "Error" },
        body.len(),
        body
    );
    let _ = stream.write_all(reply.as_bytes());
}

impl ComponentDefinition for HttpServer {
    fn context(&self) -> &ComponentContext {
        &self.ctx
    }
    fn type_name(&self) -> &'static str {
        "HttpServer"
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kompics_core::channel::connect;
    use kompics_core::port::{Direction, PortType};

    #[test]
    fn web_port_direction_rules() {
        assert!(Web::allows(
            &WebRequest {
                id: 1,
                path: "/".into()
            },
            Direction::Negative
        ));
        assert!(Web::allows(
            &WebResponse {
                id: 1,
                status: 200,
                body: String::new()
            },
            Direction::Positive
        ));
    }

    /// A trivial status page provider.
    struct StatusPage {
        ctx: ComponentContext,
        web: ProvidedPort<Web>,
    }
    impl StatusPage {
        fn new() -> Self {
            let web: ProvidedPort<Web> = ProvidedPort::new();
            web.subscribe(|this: &mut StatusPage, req: &WebRequest| {
                let (status, body) = if req.path == "/status" {
                    (200, "{\"ok\":true}".to_string())
                } else {
                    (404, "{\"error\":\"not found\"}".to_string())
                };
                this.web.trigger(WebResponse {
                    id: req.id,
                    status,
                    body,
                });
            });
            StatusPage {
                ctx: ComponentContext::new(),
                web,
            }
        }
    }
    impl ComponentDefinition for StatusPage {
        fn context(&self) -> &ComponentContext {
            &self.ctx
        }
        fn type_name(&self) -> &'static str {
            "StatusPage"
        }
    }

    fn http_get(port: u16, path: &str) -> (u16, String) {
        let mut stream = std::net::TcpStream::connect(("127.0.0.1", port)).unwrap();
        stream
            .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let status: u16 = response
            .lines()
            .next()
            .unwrap()
            .split_whitespace()
            .nth(1)
            .unwrap()
            .parse()
            .unwrap();
        let body = response.split("\r\n\r\n").nth(1).unwrap_or("").to_string();
        (status, body)
    }

    #[test]
    fn serves_status_pages_over_real_http() {
        let system = KompicsSystem::new(Config::default().workers(2));
        let (port, listener) = HttpServer::bind(0).unwrap();
        let server = system.create(move || HttpServer::new(port, listener, Duration::from_secs(2)));
        let page = system.create(StatusPage::new);
        connect(
            &page.provided_ref::<Web>().unwrap(),
            &server.required_ref::<Web>().unwrap(),
        )
        .unwrap();
        system.start(&server);
        system.start(&page);
        std::thread::sleep(Duration::from_millis(50));

        let (status, body) = http_get(port, "/status");
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        let (status, _) = http_get(port, "/nope");
        assert_eq!(status, 404);
        system.shutdown();
    }
}
