//! The `jmpax serve` session protocol and client-side TCP sink.
//!
//! A serving session is one TCP connection carrying, in order:
//!
//! ```text
//! hello   := "JSV1" tenant_len:u16le tenant threads:u32le cap:u32le
//!            nanalyses:u8 analysis* nvars:u16le var*
//! analysis:= code:u8                               (jmpax_core::AnalysisKind)
//! var     := name_len:u16le name value
//! value   := 0:u8 v:i64le | 1:u8 (0|1):u8 | 2:u8  (int / bool / unit)
//! stream  := v2 frames (magic + version + len + crc + payload)*
//! ```
//!
//! followed by a write-side shutdown. The daemon replies with exactly one
//! line of JSON (the tenant's verdict) and closes. Variables are listed in
//! `VarId` order so the server can rebuild a symbol table that assigns the
//! same ids the client used when encoding events, then evaluate its
//! configured specification against this tenant's stream.
//!
//! The hello is strict and bounded (tenant ≤ [`MAX_TENANT_LEN`], names ≤
//! [`MAX_VAR_NAME_LEN`], at most [`MAX_VARS`] variables): a hostile client
//! cannot make the daemon allocate unboundedly before it is even admitted.

use std::io::{self, BufRead as _, BufReader, Read, Write as _};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

use bytes::{BufMut as _, BytesMut};
use parking_lot::{Condvar, Mutex};

use jmpax_core::{Message, Value};

use crate::codec::encode_frame_v2;
use crate::sink::EventSink;

/// First bytes of every serving session — "JMPaX serve, version 1".
pub const HELLO_MAGIC: [u8; 4] = *b"JSV1";

/// Longest accepted tenant name, in bytes.
pub const MAX_TENANT_LEN: usize = 128;

/// Longest accepted variable name, in bytes.
pub const MAX_VAR_NAME_LEN: usize = 256;

/// Most variables a single hello may declare.
pub const MAX_VARS: usize = 1024;

/// Most threads a single hello may declare.
pub const MAX_THREADS: u32 = 1 << 16;

/// Most analysis codes a single hello may request.
pub const MAX_ANALYSES: usize = 8;

/// What a client announces before streaming frames.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionHello {
    /// Tenant name — labels the verdict and per-tenant telemetry.
    pub tenant: String,
    /// Number of threads in the instrumented execution (clock width).
    pub threads: u32,
    /// Requested frontier cap; `0` accepts the server default. The server
    /// clamps the request to its own ceiling.
    pub frontier_cap: u32,
    /// Requested analyses as raw [`jmpax_core::AnalysisKind`] wire codes,
    /// in run order; empty requests the server's default (ptLTL only).
    /// Codes are carried raw — not eagerly validated — so a daemon can
    /// reject an unknown request with a clean `Error` verdict naming the
    /// code instead of dropping the connection.
    pub analyses: Vec<u8>,
    /// Shared variables in `VarId` order with their initial values.
    pub vars: Vec<(String, Value)>,
}

impl SessionHello {
    /// Serializes the hello.
    #[must_use]
    pub fn encode(&self) -> BytesMut {
        let mut out = BytesMut::with_capacity(32 + self.vars.len() * 16);
        out.extend_from_slice(&HELLO_MAGIC);
        out.put_u16_le(self.tenant.len() as u16);
        out.extend_from_slice(self.tenant.as_bytes());
        out.put_u32_le(self.threads);
        out.put_u32_le(self.frontier_cap);
        out.put_u8(self.analyses.len() as u8);
        out.extend_from_slice(&self.analyses);
        out.put_u16_le(self.vars.len() as u16);
        for (name, value) in &self.vars {
            out.put_u16_le(name.len() as u16);
            out.extend_from_slice(name.as_bytes());
            match *value {
                Value::Int(v) => {
                    out.put_u8(0);
                    out.put_i64_le(v);
                }
                Value::Bool(b) => {
                    out.put_u8(1);
                    out.put_u8(u8::from(b));
                }
                Value::Unit => out.put_u8(2),
            }
        }
        out
    }

    /// Reads and validates a hello from `reader` (the server side of the
    /// handshake). Relies on the caller having set a read timeout; every
    /// length is bounds-checked before its allocation.
    ///
    /// # Errors
    /// [`io::ErrorKind::InvalidData`] on a malformed or out-of-bounds
    /// hello, or the underlying transport error (including timeouts).
    pub fn decode(reader: &mut impl Read) -> io::Result<Self> {
        let mut magic = [0u8; 4];
        reader.read_exact(&mut magic)?;
        if magic != HELLO_MAGIC {
            return Err(bad_hello("bad hello magic"));
        }
        let tenant_len = read_u16(reader)? as usize;
        if tenant_len == 0 || tenant_len > MAX_TENANT_LEN {
            return Err(bad_hello("tenant name length out of bounds"));
        }
        let tenant = read_string(reader, tenant_len)?;
        let threads = read_u32(reader)?;
        if threads == 0 || threads > MAX_THREADS {
            return Err(bad_hello("thread count out of bounds"));
        }
        let frontier_cap = read_u32(reader)?;
        let mut nanalyses = [0u8; 1];
        reader.read_exact(&mut nanalyses)?;
        let nanalyses = nanalyses[0] as usize;
        if nanalyses > MAX_ANALYSES {
            return Err(bad_hello("too many analyses"));
        }
        let mut analyses = vec![0u8; nanalyses];
        reader.read_exact(&mut analyses)?;
        let nvars = read_u16(reader)? as usize;
        if nvars > MAX_VARS {
            return Err(bad_hello("too many variables"));
        }
        let mut vars = Vec::with_capacity(nvars);
        for _ in 0..nvars {
            let name_len = read_u16(reader)? as usize;
            if name_len == 0 || name_len > MAX_VAR_NAME_LEN {
                return Err(bad_hello("variable name length out of bounds"));
            }
            let name = read_string(reader, name_len)?;
            let mut tag = [0u8; 1];
            reader.read_exact(&mut tag)?;
            let value = match tag[0] {
                0 => {
                    let mut v = [0u8; 8];
                    reader.read_exact(&mut v)?;
                    Value::Int(i64::from_le_bytes(v))
                }
                1 => {
                    let mut b = [0u8; 1];
                    reader.read_exact(&mut b)?;
                    match b[0] {
                        0 => Value::Bool(false),
                        1 => Value::Bool(true),
                        b => return Err(bad_hello(&format!("bad bool byte {b}"))),
                    }
                }
                2 => Value::Unit,
                t => return Err(bad_hello(&format!("unknown value tag {t}"))),
            };
            vars.push((name, value));
        }
        Ok(Self {
            tenant,
            threads,
            frontier_cap,
            analyses,
            vars,
        })
    }
}

fn bad_hello(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn read_u16(reader: &mut impl Read) -> io::Result<u16> {
    let mut b = [0u8; 2];
    reader.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

fn read_u32(reader: &mut impl Read) -> io::Result<u32> {
    let mut b = [0u8; 4];
    reader.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_string(reader: &mut impl Read, len: usize) -> io::Result<String> {
    let mut b = vec![0u8; len];
    reader.read_exact(&mut b)?;
    String::from_utf8(b).map_err(|_| bad_hello("name is not UTF-8"))
}

/// Pending bytes at which an emitter stops handing frames to the flusher
/// and writes the batch itself — the outbox's backpressure.
const OUTBOX_CAP: usize = 16 * 1024;

/// An [`EventSink`] that streams v2 frames to a `jmpax serve` daemon —
/// the live equivalent of [`crate::FrameSink`]'s in-memory buffer.
///
/// The sink is an outbox. [`EventSink::emit`] encodes the frame into a
/// pending buffer behind a short mutex and makes no syscall; a flusher
/// thread owned by the sink swaps the buffer out and sends it with one
/// `write_all`. Frames emitted during that write go out with the next
/// one, so a frame waits at most one wake-up plus one write. An emitter
/// writes inline only when the pending buffer reaches a fixed 16 KiB cap.
/// Frames enter the buffer in emission order and batches reach the socket
/// in the order they were swapped out, so the wire order is the emission
/// order.
///
/// Transport errors are latched instead of panicking (the program under
/// test must never die because its observer did): after the first one
/// `emit` drops frames, and [`TcpFrameSink::finish`] surfaces the error.
/// Dropping the sink without `finish` flushes what is pending and stops
/// the flusher.
pub struct TcpFrameSink {
    outbox: Arc<Outbox>,
    /// The flusher; `None` once [`TcpFrameSink::finish`] has let it go.
    flusher: Option<JoinHandle<()>>,
}

/// What a [`TcpFrameSink`] shares with its flusher thread.
struct Outbox {
    stream: TcpStream,
    pending: Mutex<Pending>,
    /// Wakes the flusher parked on an empty outbox.
    wake: Condvar,
    /// The batch on the wire. Its lock is held across one `write_all`,
    /// and a batch is swapped out of `pending` only under it, so batches
    /// reach the socket in swap order.
    batch: Mutex<BytesMut>,
    error: OnceLock<io::Error>,
    frames_sent: AtomicU64,
    /// `instrument.frames_sent` / `instrument.bytes_sent` (flat plus the
    /// `{tenant="..."}` labeled series); no-ops unless built via
    /// [`TcpFrameSink::connect_with_telemetry`].
    tel_frames: jmpax_telemetry::Counter,
    tel_bytes: jmpax_telemetry::Counter,
    tel_frames_tenant: jmpax_telemetry::Counter,
    tel_bytes_tenant: jmpax_telemetry::Counter,
}

/// Frames encoded but not yet written, and the flusher's state.
#[derive(Default)]
struct Pending {
    bytes: BytesMut,
    frames: u64,
    /// The flusher is parked on [`Outbox::wake`].
    idle: bool,
    /// The flusher should exit once the outbox is empty.
    closed: bool,
    /// A write failed: frames are dropped from now on.
    failed: bool,
}

impl Outbox {
    /// Writes everything pending when the call starts. Returns once those
    /// frames are on the socket (or the transport has failed), including
    /// any the flusher was writing at the time.
    fn flush(&self) {
        let mut batch = self.batch.lock();
        let frames = {
            let mut pending = self.pending.lock();
            if pending.bytes.is_empty() {
                return;
            }
            std::mem::swap(&mut pending.bytes, &mut *batch);
            std::mem::take(&mut pending.frames)
        };
        match (&self.stream).write_all(&batch) {
            Ok(()) => {
                let bytes = batch.len() as u64;
                self.frames_sent.fetch_add(frames, Ordering::Relaxed);
                self.tel_frames.add(frames);
                self.tel_frames_tenant.add(frames);
                self.tel_bytes.add(bytes);
                self.tel_bytes_tenant.add(bytes);
            }
            Err(err) => {
                // Latch the first error and stop writing; the observer is
                // expendable, the instrumented program is not.
                let _ = self.error.set(err);
                let mut pending = self.pending.lock();
                pending.failed = true;
                pending.bytes.clear();
                pending.frames = 0;
            }
        }
        batch.clear();
    }

    /// Asks the flusher to send what is pending and exit.
    fn close(&self) {
        self.pending.lock().closed = true;
        self.wake.notify_one();
    }

    /// The flusher thread: parks while the outbox is empty, otherwise
    /// writes one batch at a time.
    fn run_flusher(&self) {
        loop {
            {
                let mut pending = self.pending.lock();
                while pending.bytes.is_empty() && !pending.closed && !pending.failed {
                    pending.idle = true;
                    self.wake.wait(&mut pending);
                }
                pending.idle = false;
                if pending.bytes.is_empty() {
                    return;
                }
            }
            self.flush();
        }
    }
}

impl TcpFrameSink {
    /// Connects to a daemon and performs the client half of the handshake.
    ///
    /// # Errors
    /// Connection or handshake-write failures.
    pub fn connect(addr: impl ToSocketAddrs, hello: &SessionHello) -> io::Result<Self> {
        let off = jmpax_telemetry::Counter::disabled;
        Self::open(addr, hello, [off(), off(), off(), off()])
    }

    /// Like [`TcpFrameSink::connect`], additionally counting
    /// `instrument.frames_sent` and `instrument.bytes_sent` — both the
    /// flat series and the `{tenant="..."}` labeled series for the
    /// hello's tenant — into `registry`. The client side of the wire thus
    /// carries the same tenant dimension the daemon exposes, so a scrape
    /// of both ends lines up frame-for-frame.
    ///
    /// # Errors
    /// Connection or handshake-write failures.
    pub fn connect_with_telemetry(
        addr: impl ToSocketAddrs,
        hello: &SessionHello,
        registry: &jmpax_telemetry::Registry,
    ) -> io::Result<Self> {
        let labels = [("tenant", hello.tenant.as_str())];
        // Flat aggregate + labeled per-tenant handles; bumping both keeps
        // the flat series meaningful when many programs share a registry.
        Self::open(
            addr,
            hello,
            [
                registry.counter("instrument.frames_sent"),
                registry.counter("instrument.bytes_sent"),
                registry.counter_with("instrument.frames_sent", &labels),
                registry.counter_with("instrument.bytes_sent", &labels),
            ],
        )
    }

    fn open(
        addr: impl ToSocketAddrs,
        hello: &SessionHello,
        [tel_frames, tel_bytes, tel_frames_tenant, tel_bytes_tenant]: [jmpax_telemetry::Counter; 4],
    ) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        // The outbox does the batching; Nagle would only delay each batch.
        stream.set_nodelay(true)?;
        stream.write_all(&hello.encode())?;
        let outbox = Arc::new(Outbox {
            stream,
            pending: Mutex::default(),
            wake: Condvar::new(),
            batch: Mutex::new(BytesMut::with_capacity(OUTBOX_CAP)),
            error: OnceLock::new(),
            frames_sent: AtomicU64::new(0),
            tel_frames,
            tel_bytes,
            tel_frames_tenant,
            tel_bytes_tenant,
        });
        let flusher = std::thread::Builder::new()
            .name("jmpax-flusher".to_string())
            .spawn({
                let outbox = Arc::clone(&outbox);
                move || outbox.run_flusher()
            })?;
        Ok(Self {
            outbox,
            flusher: Some(flusher),
        })
    }

    /// Frames written to the socket so far. Flushes the outbox first, so
    /// every frame emitted before the call is counted once it is sent.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.outbox.flush();
        self.outbox.frames_sent.load(Ordering::Relaxed)
    }

    /// The latched transport error, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<&io::Error> {
        self.outbox.error.get()
    }

    /// Ends the session: flushes, half-closes the write side, and reads
    /// the daemon's one-line JSON verdict. The flusher is told to exit
    /// only after the verdict is in, and is not waited for.
    ///
    /// # Errors
    /// The first latched transport error, or a failure while reading the
    /// verdict.
    pub fn finish(mut self) -> io::Result<String> {
        self.outbox.flush();
        let verdict = match self.outbox.error.get() {
            Some(err) => Err(io::Error::new(err.kind(), err.to_string())),
            None => finish_session(&self.outbox.stream),
        };
        // Detached, not joined: waiting for the flusher to wake and exit
        // would only delay the caller, and it holds nothing to return.
        self.outbox.close();
        self.flusher = None;
        verdict
    }
}

impl Drop for TcpFrameSink {
    fn drop(&mut self) {
        if let Some(flusher) = self.flusher.take() {
            self.outbox.close();
            let _ = flusher.join();
        }
    }
}

impl std::fmt::Debug for TcpFrameSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpFrameSink")
            .field(
                "frames_sent",
                &self.outbox.frames_sent.load(Ordering::Relaxed),
            )
            .field("error", &self.io_error())
            .finish_non_exhaustive()
    }
}

impl EventSink for TcpFrameSink {
    fn emit(&mut self, message: &Message) {
        let outbox = &*self.outbox;
        let mut pending = outbox.pending.lock();
        if pending.failed {
            return;
        }
        encode_frame_v2(message, &mut pending.bytes);
        pending.frames += 1;
        let full = pending.bytes.len() >= OUTBOX_CAP;
        // The flusher parks only on an empty outbox, so a parked flusher
        // means this frame made it non-empty. Only then is it woken (a
        // wake-up is a syscall), and only once.
        let wake = std::mem::take(&mut pending.idle);
        drop(pending);
        if full {
            outbox.flush();
        } else if wake {
            outbox.wake.notify_one();
        }
    }
}

/// Sends one complete pre-encoded session — hello, then `body` as the
/// frame stream — and returns the daemon's verdict line. This is the chaos
/// loader's path: the body typically comes from a
/// [`crate::ChaosSink`], already damaged on purpose.
///
/// # Errors
/// Connection, write, or verdict-read failures.
pub fn send_raw_session(
    addr: impl ToSocketAddrs,
    hello: &SessionHello,
    body: &[u8],
) -> io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(&hello.encode())?;
    stream.write_all(body)?;
    finish_session(&stream)
}

/// Half-closes the write side and reads the one-line verdict.
fn finish_session(stream: &TcpStream) -> io::Result<String> {
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if line.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed without a verdict",
        ));
    }
    Ok(line.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use std::net::TcpListener;
    use std::time::{Duration, Instant};

    use jmpax_core::{Event, Relevance, ThreadId, VarId, VectorClock};

    use super::*;
    use crate::codec::ResilientFrameDecoder;
    use crate::Session;

    /// A listener standing in for the daemon, and the hello a sink sends it.
    fn listener() -> (TcpListener, SessionHello) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        (listener, sample_hello())
    }

    /// Accepts one connection and consumes its hello.
    fn accept(listener: &TcpListener) -> TcpStream {
        let (mut stream, _) = listener.accept().expect("accept");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        assert_eq!(SessionHello::decode(&mut stream).unwrap(), sample_hello());
        stream
    }

    fn message(i: u32) -> Message {
        Message {
            event: Event::write(ThreadId(0), VarId(0), i64::from(i)),
            clock: VectorClock::from_components(vec![i + 1, 0, 0]),
        }
    }

    fn encoded(n: u32) -> Vec<u8> {
        let mut out = BytesMut::new();
        for i in 0..n {
            encode_frame_v2(&message(i), &mut out);
        }
        out.to_vec()
    }

    #[test]
    fn emitted_frames_reach_the_wire_without_another_call() {
        let (listener, hello) = listener();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpFrameSink::connect(addr, &hello).unwrap();
        let mut peer = accept(&listener);
        const N: u32 = 100;
        for i in 0..N {
            sink.emit(&message(i));
        }
        // No flush, finish or drop: the flusher alone must deliver them,
        // within the peer's read timeout.
        let want = encoded(N);
        let mut got = vec![0u8; want.len()];
        peer.read_exact(&mut got)
            .expect("every frame within the deadline");
        assert_eq!(got, want);
        assert_eq!(sink.frames_sent(), u64::from(N));
    }

    #[test]
    fn concurrent_writers_keep_each_thread_in_order_on_the_wire() {
        const THREADS: usize = 4;
        const WRITES: usize = 2_000;
        let (listener, hello) = listener();
        let addr = listener.local_addr().unwrap();
        let registry = jmpax_telemetry::Registry::enabled();
        let sink = TcpFrameSink::connect(addr, &hello).unwrap();
        let mut peer = accept(&listener);
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            peer.read_to_end(&mut bytes).expect("read to EOF");
            bytes
        });
        {
            let session = Session::builder(Relevance::AllWrites)
                .sink(Box::new(sink))
                .telemetry(&registry)
                .build();
            let x = session.shared("x", 0i64);
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    let x = x.clone();
                    session.spawn(move |ctx| {
                        for k in 0..WRITES {
                            x.write(ctx, k as i64);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        } // the last session handle drops the sink: flush, then EOF
        let bytes = reader.join().unwrap();
        let mut decoder = ResilientFrameDecoder::new();
        let messages = decoder.push(&bytes);
        assert!(decoder.finish().is_clean());
        let emitted = registry
            .snapshot()
            .counter("instrument.messages_emitted")
            .unwrap();
        assert_eq!(messages.len() as u64, emitted);
        assert_eq!(messages.len(), THREADS * WRITES);
        let mut last = [0u32; THREADS];
        for m in &messages {
            let t = m.event.thread.index();
            let own = m.clock.get(m.event.thread);
            assert!(own > last[t], "thread {t}: {own} after {}", last[t]);
            last[t] = own;
        }
    }

    #[test]
    fn a_closed_peer_latches_an_error_without_blocking_emit() {
        let (listener, hello) = listener();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpFrameSink::connect(addr, &hello).unwrap();
        // Closing with the hello unread resets the connection.
        drop(listener.accept().unwrap());
        let deadline = Instant::now() + Duration::from_secs(10);
        let mut i = 0;
        while sink.io_error().is_none() {
            assert!(Instant::now() < deadline, "no error after {i} emits");
            sink.emit(&message(i));
            i = i.wrapping_add(1);
        }
        let kind = sink.io_error().unwrap().kind();
        // Once latched, emits drop their frames and return at once.
        let start = Instant::now();
        for j in 0..10_000 {
            sink.emit(&message(j));
        }
        assert!(start.elapsed() < Duration::from_secs(5));
        let err = sink.finish().unwrap_err();
        assert_eq!(err.kind(), kind);
    }

    #[test]
    fn dropping_without_finish_flushes_then_closes() {
        let (listener, hello) = listener();
        let addr = listener.local_addr().unwrap();
        let mut sink = TcpFrameSink::connect(addr, &hello).unwrap();
        let mut peer = accept(&listener);
        // Enough frames to cross the inline-write cap at least once.
        let n = (2 * OUTBOX_CAP / encoded(1).len()) as u32 + 7;
        for i in 0..n {
            sink.emit(&message(i));
        }
        drop(sink);
        let mut got = Vec::new();
        peer.read_to_end(&mut got).expect("every frame, then EOF");
        assert_eq!(got, encoded(n));
    }

    fn sample_hello() -> SessionHello {
        SessionHello {
            tenant: "tenant-a".to_string(),
            threads: 3,
            frontier_cap: 64,
            analyses: vec![0, 1, 2],
            vars: vec![
                ("x".to_string(), Value::Int(0)),
                ("flag".to_string(), Value::Bool(true)),
                ("u".to_string(), Value::Unit),
            ],
        }
    }

    #[test]
    fn hello_carries_unknown_analysis_codes_through() {
        // Unknown codes must survive the round trip: rejection (by name,
        // with a clean Error verdict) is the daemon's decision, not the
        // codec's.
        let hello = SessionHello {
            analyses: vec![0, 200],
            ..sample_hello()
        };
        let encoded = hello.encode();
        let decoded = SessionHello::decode(&mut &encoded[..]).unwrap();
        assert_eq!(decoded.analyses, vec![0, 200]);
    }

    #[test]
    fn hello_rejects_too_many_analyses() {
        let hello = SessionHello {
            analyses: vec![0; MAX_ANALYSES + 1],
            ..sample_hello()
        };
        let encoded = hello.encode();
        assert!(SessionHello::decode(&mut &encoded[..]).is_err());
    }

    #[test]
    fn hello_round_trips() {
        let hello = sample_hello();
        let encoded = hello.encode();
        let decoded = SessionHello::decode(&mut &encoded[..]).unwrap();
        assert_eq!(decoded, hello);
    }

    #[test]
    fn hello_rejects_bad_magic() {
        let mut encoded = sample_hello().encode();
        encoded[0] = b'X';
        let err = SessionHello::decode(&mut &encoded[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn hello_rejects_out_of_bounds_fields() {
        // Zero threads.
        let mut hello = sample_hello();
        hello.threads = 0;
        let encoded = hello.encode();
        assert!(SessionHello::decode(&mut &encoded[..]).is_err());

        // Oversized tenant name.
        let mut hello = sample_hello();
        hello.tenant = "t".repeat(MAX_TENANT_LEN + 1);
        let encoded = hello.encode();
        assert!(SessionHello::decode(&mut &encoded[..]).is_err());

        // Truncated mid-vars.
        let encoded = sample_hello().encode();
        assert!(SessionHello::decode(&mut &encoded[..encoded.len() - 2]).is_err());
    }

    #[test]
    fn hello_rejects_unknown_value_tag() {
        let hello = SessionHello {
            vars: vec![("x".to_string(), Value::Unit)],
            ..sample_hello()
        };
        let mut encoded = hello.encode();
        let last = encoded.len() - 1;
        encoded[last] = 9; // clobber the Unit tag
        assert!(SessionHello::decode(&mut &encoded[..]).is_err());

        // A bool byte other than 0 or 1 would not re-encode to itself.
        let hello = SessionHello {
            vars: vec![("b".to_string(), Value::Bool(true))],
            ..sample_hello()
        };
        let mut encoded = hello.encode();
        let last = encoded.len() - 1;
        encoded[last] = 2;
        assert!(SessionHello::decode(&mut &encoded[..]).is_err());
    }
}
