//! Wire format for observer messages.
//!
//! JMPaX ships messages "via a socket to an external observer" (Section
//! 4.1). This module defines the one frame format used on that socket:
//!
//! ```text
//! frame   := magic:u8 version:u8 len:u32le crc:u32le payload
//! payload := thread:u32le kind:u8 body clock
//! body    := ε                         (kind 0, internal)
//!          | var:u32le                 (kind 1, read)
//!          | var:u32le value           (kind 2, write)
//! value   := 0:u8 v:i64le | 1:u8 b:u8 | 2:u8      (int / bool / unit)
//! clock   := n:u16le c_1:u32le … c_n:u32le
//! ```
//!
//! `magic` is [`MAGIC`], `version` is [`VERSION`], `len` is bounded by
//! [`MAX_FRAME_LEN`] and `crc` is the CRC-32 (IEEE) of the payload. The
//! format is deliberately hand-rolled (no serde data format crates are
//! used by this workspace).
//!
//! [`ResilientFrameDecoder`] is the one decoder. The magic byte gives it a
//! resynchronization point: after garbage or a failed CRC it scans forward
//! to the next credible header instead of giving up, counting what was
//! lost. A CRC-valid payload is accepted only when it parses to exactly one
//! message — an unknown tag, a short read or bytes left over after the
//! clock count the frame as corrupt.

use bytes::{BufMut, BytesMut};

use jmpax_core::{Event, EventKind, Message, ThreadId, Value, VarId, VectorClock};

/// First byte of every frame — the resynchronization point.
pub const MAGIC: u8 = 0xA5;

/// Wire-format version encoded in every frame header.
pub const VERSION: u8 = 2;

/// Upper bound on an encoded payload. The largest legitimate payload is a
/// write of an `i64` plus a full `u16::MAX`-component clock (≈ 256 KiB);
/// anything above this bound is a corrupt length prefix, rejected *before*
/// any buffer is reserved.
pub const MAX_FRAME_LEN: usize = 1 << 19;

/// Bytes in a frame header: magic + version + len + crc.
const V2_HEADER_LEN: usize = 10;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), hand-rolled — no external dependency.
// ---------------------------------------------------------------------------

const CRC32_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `data` — the checksum protecting every payload.
#[must_use]
pub fn crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

/// Appends one frame (magic + version + length + CRC-32 + payload) to
/// `out`. The payload is encoded in place behind a reserved header, whose
/// length and CRC are patched in afterwards: no scratch buffer, no copy.
pub fn encode_frame_v2(message: &Message, out: &mut BytesMut) {
    let start = out.len();
    out.extend_from_slice(&[MAGIC, VERSION, 0, 0, 0, 0, 0, 0, 0, 0]);
    let payload = start + V2_HEADER_LEN;
    encode_payload(message, out);
    let len = (out.len() - payload) as u32;
    let crc = crc32(&out[payload..]);
    out[start + 2..start + 6].copy_from_slice(&len.to_le_bytes());
    out[start + 6..payload].copy_from_slice(&crc.to_le_bytes());
}

fn encode_payload(message: &Message, payload: &mut BytesMut) {
    payload.put_u32_le(message.event.thread.0);
    match message.event.kind {
        EventKind::Internal => payload.put_u8(0),
        EventKind::Read { var } => {
            payload.put_u8(1);
            payload.put_u32_le(var.0);
        }
        EventKind::Write { var, value } => {
            payload.put_u8(2);
            payload.put_u32_le(var.0);
            match value {
                Value::Int(v) => {
                    payload.put_u8(0);
                    payload.put_i64_le(v);
                }
                Value::Bool(b) => {
                    payload.put_u8(1);
                    payload.put_u8(u8::from(b));
                }
                Value::Unit => payload.put_u8(2),
            }
        }
    }
    let clock = message.clock.as_slice();
    payload.put_u16_le(clock.len() as u16);
    for &c in clock {
        payload.put_u32_le(c);
    }
}

/// Fault accounting for one stream, returned by
/// [`ResilientFrameDecoder::finish`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResilientDecode {
    /// Frames decoded intact.
    pub frames_ok: u64,
    /// Frames whose header was credible but whose payload failed the CRC
    /// or did not parse to exactly one message — each counts one message
    /// lost in place.
    pub frames_corrupt: u64,
    /// Garbage runs skipped before locking back onto a credible frame.
    pub frames_resynced: u64,
    /// Total bytes discarded while scanning for the next magic boundary.
    pub bytes_skipped: u64,
    /// The stream ended inside a credible frame (a partial tail, e.g. a
    /// cut-off stream) — not counted as corruption.
    pub truncated: bool,
}

impl ResilientDecode {
    /// True when every byte decoded cleanly.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.frames_lost() == 0
    }

    /// Frames lost in transit — corrupt, resynced over, or cut off at the
    /// tail — each counted as one lost message.
    #[must_use]
    pub fn frames_lost(&self) -> u64 {
        self.frames_corrupt + self.frames_resynced + u64::from(self.truncated)
    }
}

fn le_u32(buf: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([buf[at], buf[at + 1], buf[at + 2], buf[at + 3]])
}

/// Is `buf[at..]` a credible header? Magic, version and bounded length
/// must all hold; truncation mid-header is *not* credible (the caller
/// decides how to treat the tail).
fn credible_header(buf: &[u8], at: usize) -> bool {
    buf.len() - at >= V2_HEADER_LEN
        && buf[at] == MAGIC
        && buf[at + 1] == VERSION
        && le_u32(buf, at + 2) as usize <= MAX_FRAME_LEN
}

/// Could `buf[at..]` still become a credible header once more bytes
/// arrive? Short tails are judged on the magic byte alone; anything
/// already contradicting the header layout answers `false`.
fn credible_prefix(buf: &[u8], at: usize) -> bool {
    if buf.len() - at >= V2_HEADER_LEN {
        return credible_header(buf, at);
    }
    buf[at] == MAGIC
}

/// Splits the next `N` bytes off the front of `buf`.
fn take<const N: usize>(buf: &mut &[u8]) -> Option<[u8; N]> {
    let (head, rest) = buf.split_first_chunk::<N>()?;
    *buf = rest;
    Some(*head)
}

/// Parses one payload. `None` unless `buf` is exactly one message: an
/// unknown tag, a short read or bytes left over after the clock reject it.
fn decode_payload(mut buf: &[u8]) -> Option<Message> {
    let thread = ThreadId(u32::from_le_bytes(take(&mut buf)?));
    let [kind] = take(&mut buf)?;
    let kind = match kind {
        0 => EventKind::Internal,
        1 => EventKind::Read {
            var: VarId(u32::from_le_bytes(take(&mut buf)?)),
        },
        2 => {
            let var = VarId(u32::from_le_bytes(take(&mut buf)?));
            let [tag] = take(&mut buf)?;
            let value = match tag {
                0 => Value::Int(i64::from_le_bytes(take(&mut buf)?)),
                1 => {
                    let [b] = take(&mut buf)?;
                    Value::Bool(b != 0)
                }
                2 => Value::Unit,
                _ => return None,
            };
            EventKind::Write { var, value }
        }
        _ => return None,
    };
    let n = usize::from(u16::from_le_bytes(take(&mut buf)?));
    if buf.len() != n * 4 {
        return None;
    }
    let components: Vec<u32> = buf
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
        .collect();
    Some(Message {
        event: Event { thread, kind },
        clock: VectorClock::from_components(components),
    })
}

/// The frame decoder, for live transports and whole buffers alike: feed
/// byte chunks as they arrive with [`ResilientFrameDecoder::push`] and get
/// back every message completed by that chunk; call
/// [`ResilientFrameDecoder::finish`] at end-of-stream for the fault
/// accounting. A whole buffer is one `push` followed by `finish`. Over any
/// chunking of a byte stream the decoded messages and counters are the
/// same — the long-running `jmpax serve` daemon relies on this to analyze
/// tenants online without buffering their whole session.
///
/// Frames whose CRC or payload fails are counted and stepped over, and
/// stretches of garbage are scanned byte-by-byte until the next credible
/// [`MAGIC`] boundary ("resync"). Decoding never fails — damage is
/// reported in the returned [`ResilientDecode`] instead.
#[derive(Clone, Debug, Default)]
pub struct ResilientFrameDecoder {
    /// Unconsumed tail: either empty or a credible prefix of the next
    /// frame, waiting for more bytes.
    buf: Vec<u8>,
    frames_ok: u64,
    frames_corrupt: u64,
    frames_resynced: u64,
    bytes_skipped: u64,
    /// True while inside a garbage run; the next complete credible frame
    /// closes it and counts one resync.
    scanning: bool,
}

impl ResilientFrameDecoder {
    /// A decoder at the start of a stream.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes one received chunk and returns every message whose frame is
    /// now complete. Corruption and garbage are skipped and counted; a
    /// partial frame at the end of the accumulated input is retained for
    /// the next push.
    pub fn push(&mut self, chunk: &[u8]) -> Vec<Message> {
        self.buf.extend_from_slice(chunk);
        let mut out = Vec::new();
        let mut pos = 0usize;
        while pos < self.buf.len() {
            if credible_header(&self.buf, pos) {
                let len = le_u32(&self.buf, pos + 2) as usize;
                let body_at = pos + V2_HEADER_LEN;
                if self.buf.len() - body_at < len {
                    break; // wait for the rest of the payload
                }
                if self.scanning {
                    self.scanning = false;
                    self.frames_resynced += 1;
                }
                let payload = &self.buf[body_at..body_at + len];
                let decoded = if crc32(payload) == le_u32(&self.buf, pos + 6) {
                    decode_payload(payload)
                } else {
                    None
                };
                match decoded {
                    Some(m) => {
                        out.push(m);
                        self.frames_ok += 1;
                    }
                    // The length field was credible, so step over the whole
                    // claimed frame — under isolated bit flips this keeps
                    // the loss accounting at exactly one frame.
                    None => self.frames_corrupt += 1,
                }
                pos = body_at + len;
            } else if credible_prefix(&self.buf, pos) {
                break; // may complete once more bytes arrive
            } else {
                self.scanning = true;
                self.bytes_skipped += 1;
                pos += 1;
            }
        }
        self.buf.drain(..pos);
        out
    }

    /// Bytes retained while waiting for a frame to complete — bounded by
    /// one header plus [`MAX_FRAME_LEN`].
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Ends the stream and returns the fault accounting. Any retained
    /// partial frame becomes a cut-off tail: `truncated` when it was a
    /// credible (prefix of a) header outside a garbage run, plain skipped
    /// bytes otherwise. A garbage run that reaches the end of the stream
    /// never resynced; it is accounted in `bytes_skipped` only.
    #[must_use]
    pub fn finish(mut self) -> ResilientDecode {
        let residue = self.buf.len();
        let mut truncated = false;
        if residue > 0 {
            self.bytes_skipped += residue as u64;
            truncated = credible_header(&self.buf, 0) || !self.scanning;
        }
        ResilientDecode {
            frames_ok: self.frames_ok,
            frames_corrupt: self.frames_corrupt,
            frames_resynced: self.frames_resynced,
            bytes_skipped: self.bytes_skipped,
            truncated,
        }
    }
}

#[cfg(test)]
fn decode_all(stream: &[u8]) -> (Vec<Message>, ResilientDecode) {
    let mut dec = ResilientFrameDecoder::new();
    let messages = dec.push(stream);
    (messages, dec.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Message) {
        let mut buf = BytesMut::new();
        encode_frame_v2(&msg, &mut buf);
        let (decoded, tally) = decode_all(&buf);
        assert_eq!(decoded, vec![msg]);
        assert!(tally.is_clean());
    }

    #[test]
    fn roundtrip_write_int() {
        roundtrip(Message {
            event: Event::write(ThreadId(3), VarId(7), -42i64),
            clock: VectorClock::from_components(vec![1, 0, 5]),
        });
    }

    #[test]
    fn roundtrip_write_bool_and_unit() {
        roundtrip(Message {
            event: Event::write(ThreadId(0), VarId(0), true),
            clock: VectorClock::new(),
        });
        roundtrip(Message {
            event: Event::write(ThreadId(0), VarId(1), Value::Unit),
            clock: VectorClock::from_components(vec![9]),
        });
    }

    #[test]
    fn roundtrip_read_and_internal() {
        roundtrip(Message {
            event: Event::read(ThreadId(1), VarId(2)),
            clock: VectorClock::from_components(vec![0, 1]),
        });
        roundtrip(Message {
            event: Event::internal(ThreadId(9)),
            clock: VectorClock::from_components(vec![0, 0, 0, 4]),
        });
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = BytesMut::new();
        let msgs: Vec<Message> = (0..10)
            .map(|i| Message {
                event: Event::write(ThreadId(i), VarId(i), i64::from(i)),
                clock: VectorClock::from_components(vec![i; (i as usize % 3) + 1]),
            })
            .collect();
        for m in &msgs {
            encode_frame_v2(m, &mut buf);
        }
        let (decoded, tally) = decode_all(&buf);
        assert_eq!(decoded, msgs);
        assert_eq!(tally.frames_ok, 10);
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut buf = BytesMut::new();
        encode_frame_v2(
            &Message {
                event: Event::internal(ThreadId(0)),
                clock: VectorClock::new(),
            },
            &mut buf,
        );
        for cut in 1..buf.len() {
            let (decoded, tally) = decode_all(&buf[..cut]);
            assert!(decoded.is_empty(), "cut at {cut}");
            assert!(tally.truncated, "cut at {cut}");
        }
    }

    /// A CRC-valid frame around `payload`.
    fn frame_around(payload: &[u8]) -> Vec<u8> {
        let mut frame = vec![MAGIC, VERSION];
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(payload).to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    }

    #[test]
    fn bad_tags_rejected() {
        // Bogus kind, then a write with a bogus value tag: both pass the
        // CRC, neither decodes.
        let bad_kind = [0, 0, 0, 0, 9, 0, 0];
        let bad_value = [0, 0, 0, 0, 2, 1, 0, 0, 0, 7, 0, 0];
        for payload in [&bad_kind[..], &bad_value[..]] {
            let (decoded, tally) = decode_all(&frame_around(payload));
            assert!(decoded.is_empty());
            assert_eq!(tally.frames_corrupt, 1);
        }
    }

    #[test]
    fn empty_buffer_is_ok() {
        let (decoded, tally) = decode_all(&[]);
        assert!(decoded.is_empty());
        assert!(tally.is_clean());
        assert_eq!(tally, ResilientDecode::default());
    }

    #[test]
    fn oversized_prefix_rejected_without_allocation() {
        let mut buf = vec![MAGIC, VERSION];
        buf.extend_from_slice(&u32::MAX.to_le_bytes()); // a 4 GiB "frame"
        buf.extend_from_slice(&0u32.to_le_bytes());
        let mut dec = ResilientFrameDecoder::new();
        assert!(dec.push(&buf).is_empty());
        assert_eq!(dec.buffered(), 0, "nothing is held for the claimed payload");
        let tally = dec.finish();
        assert_eq!(tally.bytes_skipped, V2_HEADER_LEN as u64);
        assert!(!tally.truncated);
    }

    #[test]
    fn trailing_bytes_after_the_clock_are_corrupt() {
        let mut payload = BytesMut::new();
        encode_payload(
            &Message {
                event: Event::internal(ThreadId(1)),
                clock: VectorClock::from_components(vec![1, 2, 3]),
            },
            &mut payload,
        );
        let mut payload = payload.to_vec();
        payload.extend_from_slice(&[0xDE, 0xAD, 0xBE]);
        let frame = frame_around(&payload);
        assert_eq!(
            hex(&frame),
            "a5021600000005b2838c01000000000300010000000200000003000000deadbe"
        );
        let (decoded, tally) = decode_all(&frame);
        assert!(decoded.is_empty());
        assert_eq!((tally.frames_ok, tally.frames_corrupt), (0, 1));
        assert!(!tally.is_clean());
    }

    #[test]
    fn clock_wider_than_the_count_field_is_corrupt() {
        // The u16 count wraps to 1; the remaining 65 536 components would
        // be left over — the frame must not decode to a shorter clock.
        let mut buf = BytesMut::new();
        encode_frame_v2(
            &Message {
                event: Event::internal(ThreadId(0)),
                clock: VectorClock::from_components(vec![1; 65_537]),
            },
            &mut buf,
        );
        let (decoded, tally) = decode_all(&buf);
        assert!(decoded.is_empty());
        assert_eq!((tally.frames_ok, tally.frames_corrupt), (0, 1));
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The exact bytes of every event shape. The frame format is the only
    /// one on the wire, so any change here breaks deployed observers.
    #[test]
    fn golden_bytes() {
        let clock = |c: [u32; 3]| VectorClock::from_components(c.to_vec());
        let cases = [
            (
                Event::internal(ThreadId(1)),
                [1, 2, 3],
                "a502130000001088beba01000000000300010000000200000003000000",
            ),
            (
                Event::read(ThreadId(0), VarId(7)),
                [4, 0, 1],
                "a50217000000b9d7b7830000000001070000000300040000000000000001000000",
            ),
            (
                Event::write(ThreadId(2), VarId(3), -42i64),
                [1, 0, 5],
                "a5022000000069b8eca802000000020300000000d6ffffffffffffff0300010000000000000005000000",
            ),
            (
                Event::write(ThreadId(1), VarId(1), true),
                [0, 2, 0],
                "a5021900000065cc30e401000000020100000001010300000000000200000000000000",
            ),
            (
                Event::write(ThreadId(0), VarId(9), Value::Unit),
                [7, 7, 7],
                "a50218000000146d2180000000000209000000020300070000000700000007000000",
            ),
        ];
        for (event, components, golden) in cases {
            let msg = Message {
                event,
                clock: clock(components),
            };
            let mut buf = BytesMut::new();
            encode_frame_v2(&msg, &mut buf);
            assert_eq!(hex(&buf), golden, "{msg:?}");
            assert_eq!(decode_all(&buf).0, vec![msg]);
        }
    }
}

#[cfg(test)]
mod v2_tests {
    use super::*;

    fn sample_messages() -> Vec<Message> {
        (0..12)
            .map(|i| Message {
                event: Event::write(ThreadId(i % 3), VarId(i), i64::from(i) - 5),
                clock: VectorClock::from_components(vec![i + 1; (i as usize % 4) + 1]),
            })
            .collect()
    }

    fn encode_all(msgs: &[Message]) -> BytesMut {
        let mut buf = BytesMut::new();
        for m in msgs {
            encode_frame_v2(m, &mut buf);
        }
        buf
    }

    /// Length of the first frame in `buf`.
    fn first_frame_len(buf: &[u8]) -> usize {
        V2_HEADER_LEN + le_u32(buf, 2) as usize
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn v2_roundtrips() {
        let msgs = sample_messages();
        let (decoded, r) = decode_all(&encode_all(&msgs));
        assert!(r.is_clean());
        assert_eq!(decoded, msgs);
        assert_eq!(r.frames_ok, msgs.len() as u64);
    }

    #[test]
    fn v2_strict_rejects_damage() {
        // A flipped payload bit fails the CRC; a bad magic or version byte
        // makes the header incredible. Either way the damaged frame never
        // decodes and the rest of the stream does.
        let msgs = sample_messages();
        let mut flipped = encode_all(&msgs);
        flipped[V2_HEADER_LEN + 2] ^= 0x40;
        let (decoded, r) = decode_all(&flipped);
        assert_eq!(decoded, msgs[1..].to_vec());
        assert_eq!((r.frames_corrupt, r.frames_resynced), (1, 0));

        for (at, byte) in [(0, 0x00), (1, 9)] {
            let mut bad = encode_all(&msgs);
            bad[at] = byte;
            let (decoded, r) = decode_all(&bad);
            assert_eq!(decoded, msgs[1..].to_vec(), "header byte {at}");
            assert_eq!(r.frames_resynced, 1, "header byte {at}");
            assert_eq!(r.frames_corrupt, 0, "header byte {at}");
        }
    }

    #[test]
    fn resilient_steps_over_corrupt_frame() {
        let msgs = sample_messages();
        let mut buf = encode_all(&msgs);
        // Flip one payload bit in the second frame; its length field stays
        // intact, so exactly one frame is lost and no resync is needed.
        let frame_len = first_frame_len(&buf);
        buf[frame_len + V2_HEADER_LEN + 1] ^= 0x10;
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_corrupt, 1);
        assert_eq!(r.frames_resynced, 0);
        assert_eq!(r.frames_ok, msgs.len() as u64 - 1);
        assert_eq!(decoded.len(), msgs.len() - 1);
        assert!(!r.truncated);
    }

    #[test]
    fn resilient_resyncs_over_garbage() {
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x01, 0x02]);
        encode_frame_v2(&msgs[1], &mut buf);
        buf.extend_from_slice(&[0x42; 11]);
        encode_frame_v2(&msgs[2], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 3);
        assert_eq!(r.frames_resynced, 2);
        assert_eq!(r.bytes_skipped, 18);
        assert_eq!(decoded, msgs[..3].to_vec());
    }

    #[test]
    fn resilient_reports_truncated_tail() {
        let msgs = sample_messages();
        let buf = encode_all(&msgs[..2]);
        let first_len = first_frame_len(&buf);
        for cut in 1..V2_HEADER_LEN {
            // Cut inside the second frame's header.
            let (_, r) = decode_all(&buf[..first_len + cut]);
            assert!(r.truncated, "cut {cut} must look truncated");
            assert_eq!(r.frames_ok, 1);
            assert_eq!(r.frames_corrupt, 0);
        }
        // Cut inside the second payload.
        let (_, r) = decode_all(&buf[..buf.len() - 3]);
        assert!(r.truncated);
        assert_eq!(r.frames_ok, 1);
    }

    #[test]
    fn resilient_handles_pure_garbage_and_empty() {
        assert!(decode_all(&[]).1.is_clean());
        let (decoded, r) = decode_all(&[0x13, 0x37, 0xAB]);
        assert!(decoded.is_empty());
        assert_eq!(r.frames_ok, 0);
        assert_eq!(r.bytes_skipped, 3);
        assert_eq!(
            r.frames_resynced, 0,
            "a run that never recovers is not a resync"
        );
    }

    #[test]
    fn resilient_rejects_absurd_length_as_garbage() {
        // A magic + version header whose length claims 4 GiB must be
        // treated as garbage (skipped), not allocated.
        let mut buf = BytesMut::new();
        buf.put_u8(MAGIC);
        buf.put_u8(VERSION);
        buf.put_u32_le(u32::MAX);
        buf.put_u32_le(0);
        buf.extend_from_slice(&[0u8; 16]);
        let (_, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 0);
        assert!(r.bytes_skipped > 0);
    }

    #[test]
    fn resilient_steps_past_decoy_magic_in_garbage() {
        // Garbage between two frames that itself contains MAGIC bytes with
        // a wrong version — the scanner must not lock onto them.
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[
            MAGIC, 0x07, MAGIC, 0xFF, 0x00, MAGIC, 0x01, 0x02, 0x03, 0x04,
        ]);
        encode_frame_v2(&msgs[1], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 2);
        assert_eq!(r.frames_resynced, 1);
        assert_eq!(r.bytes_skipped, 10);
        assert_eq!(decoded, msgs[..2].to_vec());
        assert!(!r.truncated);
    }

    #[test]
    fn resilient_truncation_inside_garbage_is_not_a_cut_frame() {
        // A stream that ends mid-garbage (no credible header in sight) is
        // skipped bytes, not a truncated frame.
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[0x00, 0x11, 0x22, 0x33]);
        let (_, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 1);
        assert_eq!(r.bytes_skipped, 4);
        assert!(!r.truncated, "garbage tail is not a cut-off frame");

        // ...but a garbage run that ends on a MAGIC byte still reads as a
        // possible cut-off header only when outside the run. Here the run
        // swallows it.
        let mut buf = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut buf);
        buf.extend_from_slice(&[0x99, 0x98, MAGIC, VERSION]);
        let (_, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 1);
        assert_eq!(r.bytes_skipped, 4);
        assert!(!r.truncated);
    }

    #[test]
    fn resilient_garbage_prefix_before_first_frame() {
        let msgs = sample_messages();
        let mut buf = BytesMut::new();
        buf.extend_from_slice(&[0xFE, 0xFD, 0xFC]);
        encode_frame_v2(&msgs[0], &mut buf);
        let (decoded, r) = decode_all(&buf);
        assert_eq!(r.frames_ok, 1);
        assert_eq!(r.frames_resynced, 1);
        assert_eq!(r.bytes_skipped, 3);
        assert_eq!(decoded, msgs[..1].to_vec());
    }

    /// Asserts that feeding `stream` at several granularities (including
    /// byte-at-a-time) yields the messages and counters of one push, with
    /// the retained tail bounded throughout.
    fn assert_chunking_invariant(stream: &[u8]) {
        let whole = decode_all(stream);
        for chunk in [1usize, 2, 3, 5, 8, 13] {
            let mut dec = ResilientFrameDecoder::new();
            let mut msgs = Vec::new();
            for part in stream.chunks(chunk) {
                msgs.extend(dec.push(part));
                assert!(dec.buffered() <= V2_HEADER_LEN + MAX_FRAME_LEN);
            }
            assert_eq!(
                (msgs, dec.finish()),
                whole,
                "chunk={chunk} diverges from one push"
            );
        }
    }

    #[test]
    fn incremental_matches_whole_buffer_on_clean_stream() {
        let msgs = sample_messages();
        assert_chunking_invariant(&encode_all(&msgs));
    }

    #[test]
    fn incremental_matches_whole_buffer_on_damaged_streams() {
        let msgs = sample_messages();
        // Interleaved garbage with decoy MAGIC bytes.
        let mut interleaved = BytesMut::new();
        encode_frame_v2(&msgs[0], &mut interleaved);
        interleaved.extend_from_slice(&[MAGIC, 0x00, 0xAB, MAGIC, 0xCD]);
        encode_frame_v2(&msgs[1], &mut interleaved);
        interleaved.extend_from_slice(&[0x42; 7]);
        encode_frame_v2(&msgs[2], &mut interleaved);
        assert_chunking_invariant(&interleaved);

        // A frame with a flipped payload bit (corrupt-in-place).
        let mut corrupt = encode_all(&msgs[..4]);
        corrupt[V2_HEADER_LEN + 3] ^= 0x08;
        assert_chunking_invariant(&corrupt);

        // Truncated mid-payload and mid-header.
        let clean = encode_all(&msgs[..3]);
        assert_chunking_invariant(&clean[..clean.len() - 2]);
        let first_len = first_frame_len(&clean);
        for cut in 1..V2_HEADER_LEN {
            assert_chunking_invariant(&clean[..first_len + cut]);
        }

        // Garbage-only, and garbage ending on a decoy MAGIC byte.
        assert_chunking_invariant(&[0x10, 0x20, 0x30, 0x40]);
        assert_chunking_invariant(&[0x10, 0x20, MAGIC]);
        assert_chunking_invariant(&[MAGIC, 0xFF]);
    }

    #[test]
    fn incremental_emits_messages_as_frames_complete() {
        let msgs = sample_messages();
        let frame = encode_all(&msgs[..1]);
        let mut dec = ResilientFrameDecoder::new();
        // Everything but the last byte: nothing decodes, bytes retained.
        assert!(dec.push(&frame[..frame.len() - 1]).is_empty());
        assert_eq!(dec.buffered(), frame.len() - 1);
        // The final byte completes the frame.
        let out = dec.push(&frame[frame.len() - 1..]);
        assert_eq!(out, msgs[..1].to_vec());
        assert_eq!(dec.buffered(), 0);
        let tally = dec.finish();
        assert_eq!(tally.frames_ok, 1);
        assert!(tally.is_clean());
    }
}
