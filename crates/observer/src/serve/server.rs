//! The daemon's accept loop and lifecycle.
//!
//! One listener thread blocks in `accept`, enforces the concurrent-session
//! cap, and hands each admitted socket to its own session thread (see
//! [`super::tenant`]). Outcomes flow back over a channel; [`Server::run`]
//! collects them after every `accept` until a target count is reached or
//! [`ServerHandle::stop`] is called, then joins every session before
//! returning the [`ServeSummary`] — a clean shutdown by construction. No
//! timer drives the loop: `stop()`, and the session whose outcome meets the
//! target, wake it with one connection to its own address, which the loop
//! drops unseen.
//!
//! [`Server::observability`] hands out a cloneable view — live tenant
//! table, active-session count, accepting flag — that a metrics endpoint
//! can serve from without ever touching the accept loop.

use std::net::{SocketAddr, TcpListener, TcpStream};
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
    addr: SocketAddr,
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
        let addr = listener.local_addr()?;
        Ok(Self {
            listener,
            addr,
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
    /// None once bound: [`Server::bind`] reads the address.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        Ok(self.addr)
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
        let addr = self.addr;
        let active = Arc::clone(&self.active);
        let active_gauge = tel.gauge("serve.sessions_active");
        let rejected = Arc::new(AtomicU64::new(0));
        let (outcome_tx, outcome_rx) = mpsc::channel::<TenantOutcome>();
        let mut sessions: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut summary = ServeSummary::default();
        let mut next_session = 0u64;

        // Collects every outcome sent so far and says whether the loop is
        // finished. Checked again after each `accept`, so a wake connection
        // from `stop()` or from the session that met the target is dropped
        // before it gets a session id, an ops event or a counter.
        let finished = |summary: &mut ServeSummary| {
            while let Ok(outcome) = outcome_rx.try_recv() {
                tel.counter("serve.sessions_completed").inc();
                summary.outcomes.push(outcome);
            }
            self.stopping.load(Ordering::Relaxed)
                || target.is_some_and(|t| summary.outcomes.len() >= t)
        };
        let sent = Arc::new(AtomicUsize::new(0));
        while !finished(&mut summary) {
            let accepted = self.listener.accept();
            // Reap finished session threads so a long-running daemon does
            // not accumulate handles.
            sessions.retain(|h| !h.is_finished());
            if finished(&mut summary) {
                break;
            }
            match accepted {
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
                    let config = Arc::clone(&self.config);
                    let spec_var_names = Arc::clone(&self.spec_var_names);
                    let stopping = Arc::clone(&self.stopping);
                    let outcome_tx = outcome_tx.clone();
                    let sent = Arc::clone(&sent);
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
                                // The n-th outcome ends a targeted run: wake the
                                // loop, which may be blocked in `accept`. AcqRel:
                                // every earlier sender's increment, and so its
                                // send, happens before the waker's connect.
                                if target == Some(sent.fetch_add(1, Ordering::AcqRel) + 1) {
                                    wake(addr);
                                }
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
                // A real accept error (e.g. EMFILE): back off briefly.
                Err(_) => std::thread::sleep(Duration::from_millis(2)),
            }
        }

        // Shutdown: stop admitting, let in-flight sessions finish (each
        // notices `stopping` within one read timeout of its last chunk),
        // then drain the last outcomes.
        self.stopping.store(true, Ordering::Relaxed);
        for handle in sessions {
            let _ = handle.join();
        }
        finished(&mut summary);
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
        let addr = self.addr;
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
        wake(self.addr);
        self.thread.join().expect("serve loop must not panic")
    }
}

/// Wakes an accept loop that may be blocked on `addr`: the loop re-checks
/// `stopping` and its target once `accept` returns and drops this
/// connection unseen. A refused or timed-out connect is harmless — the
/// listener is gone, or its queue is full and the loop's next `accept`
/// returns at once and checks the same flag.
fn wake(addr: SocketAddr) {
    let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(100));
}
