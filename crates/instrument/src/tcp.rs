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

use bytes::{BufMut as _, BytesMut};

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

/// An [`EventSink`] that streams v2 frames straight to a `jmpax serve`
/// daemon — the live equivalent of [`crate::FrameSink`]'s in-memory
/// buffer. Transport errors are latched instead of panicking (the program
/// under test must never die because its observer did); [`TcpFrameSink::finish`]
/// surfaces the first one.
#[derive(Debug)]
pub struct TcpFrameSink {
    stream: Option<TcpStream>,
    error: Option<io::Error>,
    frames_sent: u64,
    /// `instrument.frames_sent` / `instrument.bytes_sent` (flat plus the
    /// `{tenant="..."}` labeled series); no-ops unless built via
    /// [`TcpFrameSink::connect_with_telemetry`].
    tel_frames: jmpax_telemetry::Counter,
    tel_bytes: jmpax_telemetry::Counter,
    tel_frames_tenant: jmpax_telemetry::Counter,
    tel_bytes_tenant: jmpax_telemetry::Counter,
}

impl TcpFrameSink {
    /// Connects to a daemon and performs the client half of the handshake.
    ///
    /// # Errors
    /// Connection or handshake-write failures.
    pub fn connect(addr: impl ToSocketAddrs, hello: &SessionHello) -> io::Result<Self> {
        let mut stream = TcpStream::connect(addr)?;
        stream.write_all(&hello.encode())?;
        Ok(Self {
            stream: Some(stream),
            error: None,
            frames_sent: 0,
            tel_frames: jmpax_telemetry::Counter::disabled(),
            tel_bytes: jmpax_telemetry::Counter::disabled(),
            tel_frames_tenant: jmpax_telemetry::Counter::disabled(),
            tel_bytes_tenant: jmpax_telemetry::Counter::disabled(),
        })
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
        let mut sink = Self::connect(addr, hello)?;
        let labels = [("tenant", hello.tenant.as_str())];
        // Flat aggregate + labeled per-tenant handles; bumping both keeps
        // the flat series meaningful when many programs share a registry.
        sink.tel_frames = registry.counter("instrument.frames_sent");
        sink.tel_bytes = registry.counter("instrument.bytes_sent");
        sink.tel_frames_tenant = registry.counter_with("instrument.frames_sent", &labels);
        sink.tel_bytes_tenant = registry.counter_with("instrument.bytes_sent", &labels);
        Ok(sink)
    }

    /// Frames successfully written so far.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// The latched transport error, if any.
    #[must_use]
    pub fn io_error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Ends the session: flushes, half-closes the write side, and reads
    /// the daemon's one-line JSON verdict.
    ///
    /// # Errors
    /// The first latched transport error, or a failure while reading the
    /// verdict.
    pub fn finish(mut self) -> io::Result<String> {
        if let Some(err) = self.error.take() {
            return Err(err);
        }
        let Some(stream) = self.stream.take() else {
            return Err(io::Error::new(io::ErrorKind::NotConnected, "no stream"));
        };
        finish_session(stream)
    }
}

impl EventSink for TcpFrameSink {
    fn emit(&mut self, message: &Message) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let mut scratch = BytesMut::with_capacity(64);
        encode_frame_v2(message, &mut scratch);
        match stream.write_all(&scratch) {
            Ok(()) => {
                self.frames_sent += 1;
                self.tel_frames.inc();
                self.tel_frames_tenant.inc();
                self.tel_bytes.add(scratch.len() as u64);
                self.tel_bytes_tenant.add(scratch.len() as u64);
            }
            Err(err) => {
                // Latch the first error and stop writing; the observer is
                // expendable, the instrumented program is not.
                self.error = Some(err);
                self.stream = None;
            }
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
    finish_session(stream)
}

/// Half-closes the write side and reads the one-line verdict.
fn finish_session(mut stream: TcpStream) -> io::Result<String> {
    stream.flush()?;
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
    use super::*;

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
