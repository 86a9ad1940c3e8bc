//! Seeded mangling of the serve handshake: random `SessionHello`s are
//! encoded, damaged (bit flips, truncations, length fields pushed past
//! their bounds, bad value tags, non-UTF-8 names, inserted and deleted
//! bytes) and fed to `SessionHello::decode`, followed by stray stream bytes
//! as on a real socket. Whatever the damage, decoding never panics, gives
//! the same answer however the transport splits the bytes, and every hello
//! it accepts re-encodes to exactly the bytes it consumed.

use std::io::{self, Read};

use jmpax_core::Value;
use jmpax_instrument::tcp::{SessionHello, MAX_ANALYSES, MAX_TENANT_LEN, MAX_VARS};

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

/// A short name, sometimes with multi-byte UTF-8.
fn random_name(rng: &mut SplitMix64) -> String {
    (0..rng.range(1, 12))
        .map(|_| match rng.range(0, 9) {
            0 => 'é',
            1 => '→',
            _ => char::from(b'a' + rng.range(0, 25) as u8),
        })
        .collect()
}

fn random_hello(rng: &mut SplitMix64) -> SessionHello {
    SessionHello {
        tenant: random_name(rng),
        threads: rng.range(1, 16) as u32,
        frontier_cap: if rng.range(0, 1) == 0 {
            0
        } else {
            rng.next() as u32
        },
        analyses: (0..rng.range(0, 3))
            .map(|_| rng.range(0, 3) as u8)
            .collect(),
        vars: (0..rng.range(0, 6))
            .map(|_| {
                let value = match rng.range(0, 2) {
                    0 => Value::Int(rng.next() as i64),
                    1 => Value::Bool(rng.range(0, 1) == 1),
                    _ => Value::Unit,
                };
                (random_name(rng), value)
            })
            .collect(),
    }
}

/// Byte offsets of the fields a targeted mutation rewrites.
struct Layout {
    tenant_len: usize,
    tenant: std::ops::Range<usize>,
    nanalyses: usize,
    nvars: usize,
    /// Per variable: its name's range and its value tag's offset.
    vars: Vec<(std::ops::Range<usize>, usize)>,
}

fn layout(hello: &SessionHello) -> Layout {
    let tenant = 6..6 + hello.tenant.len();
    let nanalyses = tenant.end + 8;
    let nvars = nanalyses + 1 + hello.analyses.len();
    let mut at = nvars + 2;
    let mut vars = Vec::new();
    for (name, value) in &hello.vars {
        let name_range = at + 2..at + 2 + name.len();
        let tag = name_range.end;
        at = tag
            + 1
            + match value {
                Value::Int(_) => 8,
                Value::Bool(_) => 1,
                Value::Unit => 0,
            };
        vars.push((name_range, tag));
    }
    Layout {
        tenant_len: 4,
        tenant,
        nanalyses,
        nvars,
        vars,
    }
}

/// The mutations; the targeted ones (`Truncate` onwards) must always be
/// rejected when applied alone.
#[derive(Clone, Copy, Debug)]
enum Mutation {
    FlipBit,
    InsertByte,
    DeleteByte,
    Truncate,
    TenantTooLong,
    TooManyAnalyses,
    TooManyVars,
    BadValueTag,
    NonUtf8Name,
}

const MUTATIONS: [Mutation; 9] = [
    Mutation::FlipBit,
    Mutation::InsertByte,
    Mutation::DeleteByte,
    Mutation::Truncate,
    Mutation::TenantTooLong,
    Mutation::TooManyAnalyses,
    Mutation::TooManyVars,
    Mutation::BadValueTag,
    Mutation::NonUtf8Name,
];

impl Mutation {
    fn always_rejected(self) -> bool {
        !matches!(
            self,
            Mutation::FlipBit | Mutation::InsertByte | Mutation::DeleteByte
        )
    }
}

/// Applies `mutation` to the encoded `hello`, returning false when it does
/// not apply (a bad value tag on a hello without variables).
fn mangle(bytes: &mut Vec<u8>, hello: &SessionHello, m: Mutation, rng: &mut SplitMix64) -> bool {
    let layout = layout(hello);
    let put_u16 = |bytes: &mut Vec<u8>, at: usize, v: usize| {
        bytes[at..at + 2].copy_from_slice(&(v as u16).to_le_bytes());
    };
    match m {
        Mutation::FlipBit => {
            let at = rng.range(0, bytes.len() - 1);
            bytes[at] ^= 1 << rng.range(0, 7);
        }
        Mutation::InsertByte => {
            let at = rng.range(0, bytes.len());
            bytes.insert(at, rng.next() as u8);
        }
        Mutation::DeleteByte => {
            bytes.remove(rng.range(0, bytes.len() - 1));
        }
        Mutation::Truncate => bytes.truncate(rng.range(0, bytes.len() - 1)),
        Mutation::TenantTooLong => {
            put_u16(
                bytes,
                layout.tenant_len,
                rng.range(MAX_TENANT_LEN + 1, 0xFFFF),
            );
        }
        Mutation::TooManyAnalyses => {
            bytes[layout.nanalyses] = rng.range(MAX_ANALYSES + 1, 0xFF) as u8;
        }
        Mutation::TooManyVars => put_u16(bytes, layout.nvars, rng.range(MAX_VARS + 1, 0xFFFF)),
        Mutation::BadValueTag => {
            if layout.vars.is_empty() {
                return false;
            }
            let (_, tag) = layout.vars[rng.range(0, layout.vars.len() - 1)];
            bytes[tag] = rng.range(3, 0xFF) as u8;
        }
        Mutation::NonUtf8Name => {
            let mut names = vec![layout.tenant];
            names.extend(layout.vars.into_iter().map(|(name, _)| name));
            let name = names.swap_remove(rng.range(0, names.len() - 1));
            // 0xFF never occurs in UTF-8.
            bytes[rng.range(name.start, name.end - 1)] = 0xFF;
        }
    }
    true
}

/// A reader that hands out its bytes in small random pieces, as a socket
/// does.
struct Trickle<'a> {
    bytes: &'a [u8],
    rng: SplitMix64,
}

impl Read for Trickle<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.rng.range(1, 7).min(buf.len()).min(self.bytes.len());
        buf[..n].copy_from_slice(&self.bytes[..n]);
        self.bytes = &self.bytes[n..];
        Ok(n)
    }
}

/// Decodes from a byte slice, returning the result and the bytes consumed.
fn decode(bytes: &[u8]) -> (io::Result<SessionHello>, usize) {
    let mut rest = bytes;
    let result = SessionHello::decode(&mut rest);
    (result, bytes.len() - rest.len())
}

#[test]
fn mangled_hellos_never_panic_and_accepted_ones_round_trip() {
    let mut rng = SplitMix64(0x4E11_0C0D);
    let (mut accepted, mut rejected) = (0u32, 0u32);
    for case in 0..3_000 {
        let hello = random_hello(&mut rng);
        let clean = hello.encode().to_vec();
        // Frame bytes follow the hello on the wire; decode must stop at
        // the hello's end.
        let trailer: Vec<u8> = (0..rng.range(0, 16)).map(|_| rng.next() as u8).collect();

        let mut stream = [clean.as_slice(), &trailer].concat();
        let (result, consumed) = decode(&stream);
        assert_eq!(result.unwrap(), hello, "case {case}: clean hello");
        assert_eq!(consumed, clean.len(), "case {case}: clean hello length");

        let mut bytes = clean.clone();
        let count = rng.range(1, 3);
        let mut applied = Vec::new();
        for _ in 0..count {
            let m = MUTATIONS[rng.range(0, MUTATIONS.len() - 1)];
            // Targeted mutations read offsets of the undamaged layout.
            if bytes.len() == clean.len() && mangle(&mut bytes, &hello, m, &mut rng) {
                applied.push(m);
            }
        }
        // A truncated hello is a connection closed mid-handshake: nothing
        // follows it.
        stream = if applied.iter().any(|m| matches!(m, Mutation::Truncate)) {
            bytes
        } else {
            [bytes.as_slice(), &trailer].concat()
        };
        let (result, consumed) = decode(&stream);

        let trickled = SessionHello::decode(&mut Trickle {
            bytes: &stream,
            rng: SplitMix64(case),
        });
        match (&result, &trickled) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "case {case}: trickled read diverges"),
            (Err(a), Err(b)) => assert_eq!(a.kind(), b.kind(), "case {case}"),
            _ => panic!("case {case}: trickled read diverges: {result:?} vs {trickled:?}"),
        }

        match result {
            Ok(decoded) => {
                accepted += 1;
                assert!(
                    !(applied.len() == 1 && applied[0].always_rejected()),
                    "case {case}: {applied:?} accepted as {decoded:?}"
                );
                assert_eq!(
                    decoded.encode().as_ref(),
                    &stream[..consumed],
                    "case {case}: {applied:?} did not re-encode to the consumed bytes"
                );
            }
            Err(err) => {
                rejected += 1;
                assert!(
                    matches!(
                        err.kind(),
                        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
                    ),
                    "case {case}: {err}"
                );
            }
        }
    }
    // The mix exercises both outcomes.
    assert!(
        accepted > 100 && rejected > 1_000,
        "{accepted} accepted, {rejected} rejected"
    );
}
