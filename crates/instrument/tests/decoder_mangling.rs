//! Seeded byte-mangling over the one frame decoder: random message
//! streams are encoded, damaged (bit flips, byte inserts and deletes,
//! duplicated and deleted spans, cut-off tails) and fed to
//! `ResilientFrameDecoder` in random chunk sizes. Whatever the damage, the
//! decoder never panics, every chunking agrees with a single push, the
//! retained tail stays bounded, and an undamaged stream decodes to exactly
//! its input.

use bytes::BytesMut;
use jmpax_core::{Event, Message, ThreadId, Value, VarId, VectorClock};
use jmpax_instrument::codec::MAX_FRAME_LEN;
use jmpax_instrument::{encode_frame_v2, ResilientDecode, ResilientFrameDecoder};

/// Frame header bytes: magic + version + len + crc.
const HEADER_LEN: usize = 10;

/// SplitMix64: a std-only, seedable generator.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

fn random_message(rng: &mut SplitMix64) -> Message {
    let thread = ThreadId(rng.range(0, 7) as u32);
    let var = VarId(rng.range(0, 300) as u32);
    let event = match rng.range(0, 4) {
        0 => Event::internal(thread),
        1 => Event::read(thread, var),
        2 => Event::write(thread, var, rng.next() as i64),
        3 => Event::write(thread, var, rng.next() & 1 == 1),
        _ => Event::write(thread, var, Value::Unit),
    };
    // Mostly narrow clocks; now and then one wide enough that a single
    // frame spans several of the larger chunks.
    let width = if rng.range(0, 40) == 0 {
        rng.range(500, 3_000)
    } else {
        rng.range(0, 8)
    };
    let clock: Vec<u32> = (0..width).map(|_| rng.next() as u32 % 1_000).collect();
    Message {
        event,
        clock: VectorClock::from_components(clock),
    }
}

/// Applies one random mutation: a bit flip, a byte insert or delete, a
/// duplicated span, a deleted span, or a cut-off tail.
fn mangle(stream: &mut Vec<u8>, rng: &mut SplitMix64) {
    if stream.is_empty() {
        stream.push(rng.next() as u8);
        return;
    }
    let at = rng.range(0, stream.len() - 1);
    let span = rng.range(1, 64).min(stream.len() - at);
    match rng.range(0, 5) {
        0 => stream[at] ^= 1 << rng.range(0, 7),
        1 => stream.insert(at, rng.next() as u8),
        2 => {
            stream.remove(at);
        }
        3 => {
            let copy = stream[at..at + span].to_vec();
            stream.splice(at..at, copy);
        }
        4 => {
            stream.drain(at..at + span);
        }
        _ => stream.truncate(at),
    }
}

/// Feeds `stream` to a fresh decoder in `chunks`-sized pieces (cycling
/// through the list), checking the retained tail after every push.
fn decode_chunked(stream: &[u8], chunks: &[usize]) -> (Vec<Message>, ResilientDecode) {
    let mut dec = ResilientFrameDecoder::new();
    let mut msgs = Vec::new();
    let mut rest = stream;
    for &size in chunks.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (part, tail) = rest.split_at(size.min(rest.len()));
        msgs.extend(dec.push(part));
        assert!(dec.buffered() <= HEADER_LEN + MAX_FRAME_LEN);
        rest = tail;
    }
    (msgs, dec.finish())
}

#[test]
fn mangled_streams_decode_identically_under_any_chunking() {
    let mut rng = SplitMix64(0x5EED_C0DE);
    for case in 0..2_000 {
        let msgs: Vec<Message> = (0..rng.range(0, 12))
            .map(|_| random_message(&mut rng))
            .collect();
        let mut encoded = BytesMut::new();
        for m in &msgs {
            encode_frame_v2(m, &mut encoded);
        }
        let mut stream = encoded.to_vec();
        let mutations = rng.range(0, 3);
        for _ in 0..mutations {
            mangle(&mut stream, &mut rng);
        }

        let whole = decode_chunked(&stream, &[usize::MAX]);
        if mutations == 0 {
            assert_eq!(whole.0, msgs, "case {case}: clean stream");
            assert!(whole.1.is_clean(), "case {case}: {:?}", whole.1);
        }
        assert_eq!(whole.0.len() as u64, whole.1.frames_ok, "case {case}");
        for _ in 0..3 {
            let chunks: Vec<usize> = (0..rng.range(1, 6))
                .map(|_| {
                    if rng.range(0, 1) == 0 {
                        rng.range(1, 16)
                    } else {
                        rng.range(1, 9_000)
                    }
                })
                .collect();
            assert_eq!(
                decode_chunked(&stream, &chunks),
                whole,
                "case {case}: chunking {chunks:?} diverges from one push"
            );
        }
    }
}
