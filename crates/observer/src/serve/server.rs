//! The daemon's accept loop and lifecycle.
//!
//! One non-blocking listener thread admits connections, enforces the
//! concurrent-session cap, and hands each admitted socket to its own
//! session thread (see [`super::tenant`]). Outcomes flow back over a
//! channel; [`Server::run`] collects them until a target count is
//! reached or [`ServerHandle::stop`] is called, then joins every session
//! before returning the [`ServeSummary`] — a clean shutdown by
//! construction.
//!
//! [`Server::observability`] hands out a cloneable view — live tenant
//! table, active-session count, accepting flag — that a metrics endpoint
//! can serve from without ever touching the accept loop.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use jmpax_core::SymbolTable;
use jmpax_spec::parse;

use super::ops::{LogLevel, LogValue};
use super::status::{ServeObservability, TenantTable};
use super::tenant::{reject, run_session};
use super::{ServeConfig, ServeSummary, TenantOutcome};

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    config: Arc<ServeConfig>,
    /// Names of the variables the spec refers to — every tenant handshake
    /// must declare them.
    spec_var_names: Arc<Vec<String>>,
    stopping: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    tenants: TenantTable,
    started: Instant,
}

impl Server {
    /// Binds `127.0.0.1:port` (0 picks an ephemeral port) and validates
    /// the configured spec.
    ///
    /// # Errors
    /// [`std::io::ErrorKind::InvalidInput`] when the spec does not parse
    /// or monitor synthesis fails, or the underlying bind error.
    pub fn bind(port: u16, config: ServeConfig) -> std::io::Result<Self> {
        // Fail at bind time, not on the first tenant: parse the spec
        // against a scratch table to surface syntax errors and collect
        // the variable names every handshake must cover.
        let mut scratch = SymbolTable::new();
        let formula = parse(&config.spec, &mut scratch)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        formula
            .monitor()
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        let spec_var_names: Vec<String> = formula
            .variables()
            .into_iter()
            .map(|id| scratch.name_or_default(id))
            .collect();

        let listener = TcpListener::bind(("127.0.0.1", port))?;
        listener.set_nonblocking(true)?;
        Ok(Self {
            listener,
            config: Arc::new(config),
            spec_var_names: Arc::new(spec_var_names),
            stopping: Arc::new(AtomicBool::new(false)),
            active: Arc::new(AtomicUsize::new(0)),
            tenants: TenantTable::default(),
            started: Instant::now(),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    /// When the socket's address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A cloneable view of the daemon's live state for status endpoints
    /// (`/tenants`, `/healthz`). Stays valid across [`Server::run`]: the
    /// handle observes shutdown through the same flag `stop` sets.
    #[must_use]
    pub fn observability(&self) -> ServeObservability {
        ServeObservability {
            tenants: self.tenants.clone(),
            stopping: Arc::clone(&self.stopping),
            active: Arc::clone(&self.active),
            started: self.started,
        }
    }

    /// Serves until `target` session outcomes have been collected (`None`
    /// = until [`ServerHandle::stop`]), then joins every in-flight
    /// session and returns the summary.
    pub fn run(self, target: Option<usize>) -> ServeSummary {
        let tel = &self.config.telemetry;
        let ops = &self.config.ops_log;
        let active = Arc::clone(&self.active);
        let active_gauge = tel.gauge("serve.sessions_active");
        let rejected = Arc::new(AtomicU64::new(0));
        let (outcome_tx, outcome_rx) = mpsc::channel::<TenantOutcome>();
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut summary = ServeSummary::default();
        let mut next_session = 0u64;

        let done = |summary: &ServeSummary| target.is_some_and(|t| summary.outcomes.len() >= t);
        loop {
            if self.stopping.load(Ordering::Relaxed) || done(&summary) {
                break;
            }
            match self.listener.accept() {
                Ok((mut stream, peer)) => {
                    let session = next_session;
                    next_session += 1;
                    if active.load(Ordering::Relaxed) >= self.config.max_sessions {
                        tel.counter("serve.sessions_rejected").inc();
                        rejected.fetch_add(1, Ordering::Relaxed);
                        ops.event(
                            LogLevel::Warn,
                            "reject",
                            None,
                            Some(session),
                            &[("reason", LogValue::from("at capacity"))],
                        );
                        // The socket came from a non-blocking accept;
                        // restore blocking so the rejection line is
                        // actually written.
                        let _ = stream.set_nonblocking(false);
                        reject(&mut stream, session, "server at capacity");
                        continue;
                    }
                    active.fetch_add(1, Ordering::Relaxed);
                    active_gauge.set(active.load(Ordering::Relaxed) as u64);
                    ops.event(
                        LogLevel::Info,
                        "accept",
                        None,
                        Some(session),
                        &[("peer", LogValue::Str(peer.to_string()))],
                    );
                    let _ = stream.set_nonblocking(false);
                    let config = Arc::clone(&self.config);
                    let spec_var_names = Arc::clone(&self.spec_var_names);
                    let stopping = Arc::clone(&self.stopping);
                    let outcome_tx = outcome_tx.clone();
                    let active = Arc::clone(&active);
                    let active_gauge = active_gauge.clone();
                    let rejected = Arc::clone(&rejected);
                    let rejected_counter = tel.counter("serve.sessions_rejected");
                    let tenants = self.tenants.clone();
                    sessions.push(std::thread::spawn(move || {
                        let outcome = run_session(
                            stream,
                            session,
                            &config,
                            &spec_var_names,
                            &stopping,
                            &tenants,
                        );
                        match outcome {
                            Some(outcome) => {
                                let _ = outcome_tx.send(outcome);
                            }
                            None => {
                                rejected.fetch_add(1, Ordering::Relaxed);
                                rejected_counter.inc();
                            }
                        }
                        active.fetch_sub(1, Ordering::Relaxed);
                        active_gauge.set(active.load(Ordering::Relaxed) as u64);
                    }));
                }
                Err(err) if err.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
            while let Ok(outcome) = outcome_rx.try_recv() {
                tel.counter("serve.sessions_completed").inc();
                summary.outcomes.push(outcome);
            }
            // Reap finished session threads so a long-running daemon does
            // not accumulate handles.
            sessions.retain(|h| !h.is_finished());
        }

        // Shutdown: stop admitting, let in-flight sessions finish (each
        // notices `stopping` within one read timeout of its last chunk),
        // then drain the last outcomes.
        self.stopping.store(true, Ordering::Relaxed);
        for handle in sessions {
            let _ = handle.join();
        }
        drop(outcome_tx);
        while let Ok(outcome) = outcome_rx.try_recv() {
            tel.counter("serve.sessions_completed").inc();
            summary.outcomes.push(outcome);
        }
        summary.rejected = rejected.load(Ordering::Relaxed);
        if ops.suppressed() > 0 {
            tel.counter("serve.ops_log_suppressed")
                .add(ops.suppressed());
        }
        ops.event(
            LogLevel::Info,
            "shutdown",
            None,
            None,
            &[
                ("sessions", LogValue::from(summary.outcomes.len())),
                ("rejected", LogValue::U64(summary.rejected)),
                ("log_suppressed", LogValue::U64(ops.suppressed())),
            ],
        );
        summary
    }

    /// Runs the daemon on a background thread, returning a handle to stop
    /// it and collect the summary. For tests and embedding; the CLI calls
    /// [`Server::run`] directly.
    #[must_use]
    pub fn spawn(self) -> ServerHandle {
        let addr = self.local_addr().expect("a bound listener has an address");
        let stopping = Arc::clone(&self.stopping);
        let observability = self.observability();
        let thread = std::thread::spawn(move || self.run(None));
        ServerHandle {
            addr,
            stopping,
            thread,
            observability,
        }
    }
}

/// A running daemon started with [`Server::spawn`].
pub struct ServerHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<ServeSummary>,
    observability: ServeObservability,
}

impl ServerHandle {
    /// Where the daemon is listening.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The daemon's live-state view; see [`Server::observability`].
    #[must_use]
    pub fn observability(&self) -> ServeObservability {
        self.observability.clone()
    }

    /// Requests shutdown and blocks until every session has completed,
    /// returning the summary.
    #[must_use]
    pub fn stop(self) -> ServeSummary {
        self.stopping.store(true, Ordering::Relaxed);
        self.thread.join().expect("serve loop must not panic")
    }
}
