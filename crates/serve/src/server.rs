//! The observability server: a background accept loop over a
//! [`RunManager`], serving Prometheus metrics, health, JSON run
//! status, and streaming NDJSON telemetry.
//!
//! Isolation guarantees (what makes serving safe to leave attached to
//! a production run):
//!
//! * **`/metrics` never touches the manager lock** — the shared
//!   registry handle is captured at construction, and rendering takes
//!   only the registry's own short-lived mutex.
//! * **Status endpoints hold the manager lock for one snapshot** —
//!   subscriptions and snapshots are taken under the lock, streaming
//!   happens outside it.
//! * **A stalled scraper cannot back-pressure the scheduler** — event
//!   fan-out goes through unbounded channels (send never blocks), and
//!   every connection has a bounded write timeout, after which the
//!   connection is dropped.
//! * **Graceful shutdown** — the acceptor blocks in `accept`, so a
//!   request is picked up the moment it arrives; [`Server::shutdown`]
//!   sets a stop flag and connects to its own address to wake it.
//!   In-flight event streams write their terminator chunk and close,
//!   and every connection thread is joined before `shutdown` returns.

use crate::http;
use e3_islands::{RunId, RunManager, RunStatus};
use e3_telemetry::SharedRegistry;
use serde::{Deserialize, Serialize};
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Prometheus text exposition content type.
pub(crate) const METRICS_CONTENT_TYPE: &str = "text/plain; version=0.0.4; charset=utf-8";
/// NDJSON event-stream content type.
pub(crate) const EVENTS_CONTENT_TYPE: &str = "application/x-ndjson";
const JSON: &str = "application/json";
/// How often an idle `/events` stream looks at the stop flag.
const EVENTS_POLL: Duration = Duration::from_millis(50);

/// Server construction knobs.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address; port 0 picks a free port (see
    /// `Server::local_addr`).
    pub addr: String,
    /// Per-connection read timeout (time to produce a request line).
    pub read_timeout: Duration,
    /// Per-connection write timeout — the bound on how long a stalled
    /// scraper can hold a connection thread.
    pub write_timeout: Duration,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: "127.0.0.1:0".to_string(),
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// The `/healthz` body.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Health {
    /// `"ok"` while the daemon is serving.
    pub status: String,
    /// One row per known run.
    pub runs: Vec<RunHealth>,
}

/// One run's liveness row inside [`Health`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunHealth {
    /// Canonical `run-NNNN` id.
    pub id: String,
    /// [`RunStatus::name`] of the run.
    pub status: String,
}

/// A running observability server. Dropping it (or calling
/// [`Server::shutdown`]) stops the accept loop, closes in-flight
/// streams, and joins every connection thread.
#[derive(Debug)]
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Server {
    /// The bound address (resolves port 0 to the actual port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port` for the bound address.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting, closes in-flight streams cleanly, and joins
    /// every connection thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(acceptor) = self.acceptor.take() {
            // The acceptor is blocked in `accept`: a connection to
            // ourselves returns it to the flag. If the connection
            // cannot be made (no descriptors left), `accept` is failing
            // for the same reason and reaches the flag on its own.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = acceptor.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Mounts the observability plane on `manager` and starts serving in
/// the background.
///
/// Endpoints:
///
/// | Path | Body |
/// |------|------|
/// | `GET /` | JSON endpoint index |
/// | `GET /metrics` | Prometheus text exposition of the manager's registry |
/// | `GET /healthz` | [`Health`] JSON: daemon + per-run liveness |
/// | `GET /runs` | JSON array of [`e3_islands::RunSnapshot`] |
/// | `GET /runs/{id}` | One [`e3_islands::RunSnapshot`] |
/// | `GET /runs/{id}/events` | Chunked NDJSON event stream (`?limit=N` to bound it) |
/// | `DELETE /runs/{id}` | Stops the run ([`RunManager::stop`]), returns its final [`e3_islands::RunSnapshot`] |
/// | `POST /runs/{id}/stop` | Alias for `DELETE /runs/{id}` (for clients without DELETE) |
///
/// # Errors
///
/// [`io::Error`] if the listener cannot bind `opts.addr`.
pub fn serve(manager: Arc<Mutex<RunManager>>, opts: ServeOptions) -> io::Result<Server> {
    let listener = TcpListener::bind(&opts.addr)?;
    let addr = listener.local_addr()?;
    let registry = manager.lock().expect("manager lock").registry().clone();
    let stop = Arc::new(AtomicBool::new(false));
    let acceptor_stop = Arc::clone(&stop);
    let acceptor = std::thread::spawn(move || {
        let mut connections: Vec<JoinHandle<()>> = Vec::new();
        loop {
            let accepted = listener.accept();
            if acceptor_stop.load(Ordering::SeqCst) {
                // `accepted` is `shutdown`'s wake-up call, or a client
                // that lost the race with it: dropped either way.
                break;
            }
            connections.retain(|handle| !handle.is_finished());
            match accepted {
                Ok((stream, _peer)) => {
                    let manager = Arc::clone(&manager);
                    let registry = registry.clone();
                    let stop = Arc::clone(&acceptor_stop);
                    let opts = opts.clone();
                    connections.push(std::thread::spawn(move || {
                        // Connection-level errors (timeouts, resets,
                        // malformed requests) just drop the connection.
                        let _ = handle_connection(stream, &manager, &registry, &stop, &opts);
                    }));
                }
                // Accept errors (EMFILE, aborted handshakes) are
                // transient; back off instead of spinning on them.
                Err(_) => std::thread::sleep(Duration::from_millis(10)),
            }
        }
        for handle in connections {
            let _ = handle.join();
        }
    });
    Ok(Server {
        addr,
        stop,
        acceptor: Some(acceptor),
    })
}

fn handle_connection(
    stream: TcpStream,
    manager: &Arc<Mutex<RunManager>>,
    registry: &SharedRegistry,
    stop: &Arc<AtomicBool>,
    opts: &ServeOptions,
) -> io::Result<()> {
    stream.set_read_timeout(Some(opts.read_timeout))?;
    stream.set_write_timeout(Some(opts.write_timeout))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let request = http::read_request(&mut reader)?;
    let mut writer = BufWriter::new(stream);
    let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
    match (request.method.as_str(), segments.as_slice()) {
        ("GET", []) => http::ok(
            &mut writer,
            JSON,
            br#"{"endpoints":["GET /metrics","GET /healthz","GET /runs","GET /runs/{id}","GET /runs/{id}/events","DELETE /runs/{id}","POST /runs/{id}/stop"]}"#,
        ),
        ("GET", ["metrics"]) => http::ok(
            &mut writer,
            METRICS_CONTENT_TYPE,
            registry.prometheus_text().as_bytes(),
        ),
        ("GET", ["healthz"]) => {
            let health = {
                let manager = manager.lock().expect("manager lock");
                Health {
                    status: "ok".to_string(),
                    runs: manager
                        .runs()
                        .into_iter()
                        .map(|id| RunHealth {
                            id: id.to_string(),
                            status: manager
                                .status(id)
                                .as_ref()
                                .map_or("unknown", RunStatus::name)
                                .to_string(),
                        })
                        .collect(),
                }
            };
            http::ok(&mut writer, JSON, to_json(&health).as_bytes())
        }
        ("GET", ["runs"]) => {
            let snapshots = manager.lock().expect("manager lock").snapshots();
            http::ok(&mut writer, JSON, to_json(&snapshots).as_bytes())
        }
        ("GET", ["runs", id]) => match parse_run_id(id) {
            Some(id) => match manager.lock().expect("manager lock").snapshot(id) {
                Some(snapshot) => http::ok(&mut writer, JSON, to_json(&snapshot).as_bytes()),
                None => http::not_found(&mut writer, &id.to_string()),
            },
            None => http::not_found(&mut writer, &request.path),
        },
        ("GET", ["runs", id, "events"]) => match parse_run_id(id) {
            Some(id) => {
                // Subscribe under the manager lock, stream outside it.
                let events = manager.lock().expect("manager lock").subscribe(id);
                match events {
                    Some(events) => stream_events(&mut writer, &events, &request, stop),
                    None => http::not_found(&mut writer, &id.to_string()),
                }
            }
            None => http::not_found(&mut writer, &request.path),
        },
        ("DELETE", ["runs", id]) | ("POST", ["runs", id, "stop"]) => match parse_run_id(id) {
            Some(id) => stop_run(&mut writer, manager, id),
            None => http::not_found(&mut writer, &request.path),
        },
        ("GET", _) => http::not_found(&mut writer, &request.path),
        _ => http::method_not_allowed(&mut writer),
    }
}

/// Stops a run and reports its final state: `404` for an unknown id,
/// `200` with the post-stop [`e3_islands::RunSnapshot`] when the run
/// wound down cleanly, `500` with the run's error when it failed.
/// Idempotent like [`RunManager::stop`] — stopping a finished run
/// replays its cached outcome.
fn stop_run(
    writer: &mut impl Write,
    manager: &Arc<Mutex<RunManager>>,
    id: RunId,
) -> io::Result<()> {
    // Stop + snapshot under one lock acquisition so the snapshot
    // reflects the stopped state; the response is written outside it.
    let (result, snapshot) = {
        let mut manager = manager.lock().expect("manager lock");
        let result = manager
            .stop(id)
            .map(|outcome| outcome.map_err(|err| err.to_string()));
        (result, manager.snapshot(id))
    };
    match (result, snapshot) {
        (Some(Ok(_)), Some(snapshot)) => http::ok(writer, JSON, to_json(&snapshot).as_bytes()),
        (Some(Err(message)), _) => http::server_error(writer, &message),
        _ => http::not_found(writer, &id.to_string()),
    }
}

/// Streams the subscription as chunked NDJSON: one event per line, one
/// line per chunk, flushed per record. Ends with a clean terminator
/// chunk when the run's stream closes, the optional `?limit=N` is
/// reached, or the server shuts down.
fn stream_events(
    writer: &mut impl Write,
    events: &mpsc::Receiver<e3_telemetry::TelemetryEvent>,
    request: &http::Request,
    stop: &Arc<AtomicBool>,
) -> io::Result<()> {
    let limit: usize = request
        .query_param("limit")
        .and_then(|v| v.parse().ok())
        .unwrap_or(usize::MAX);
    http::start_chunked(writer, EVENTS_CONTENT_TYPE)?;
    let mut sent = 0usize;
    while sent < limit {
        match events.recv_timeout(EVENTS_POLL) {
            Ok(event) => {
                let mut line = serde_json::to_string(&event).expect("telemetry events serialize");
                line.push('\n');
                http::write_chunk(writer, line.as_bytes())?;
                sent += 1;
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    http::finish_chunks(writer)
}

fn parse_run_id(raw: &str) -> Option<RunId> {
    raw.parse().ok()
}

fn to_json<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("observability types serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No request ever arrives, so the acceptor sits in `accept` until
    /// `shutdown` wakes it — also when bound to the wildcard address,
    /// which cannot be connected to as it stands.
    #[test]
    fn shutdown_wakes_an_idle_acceptor() {
        for addr in ["127.0.0.1:0", "0.0.0.0:0", "[::]:0"] {
            let manager = Arc::new(Mutex::new(RunManager::new()));
            let opts = ServeOptions {
                addr: addr.to_string(),
                ..ServeOptions::default()
            };
            let Ok(mut server) = serve(manager, opts) else {
                assert!(addr.starts_with('['), "{addr} must bind");
                continue; // host without IPv6
            };
            let (done, joined) = mpsc::channel();
            std::thread::spawn(move || {
                server.shutdown();
                done.send(()).ok();
            });
            joined
                .recv_timeout(Duration::from_secs(10))
                .unwrap_or_else(|_| panic!("{addr}: shutdown did not return"));
        }
    }
}
