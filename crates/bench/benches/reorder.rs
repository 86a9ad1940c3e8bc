//! Q4: the causal reordering buffer — delivery cost in order, reversed,
//! and shuffled, plus the frame codec ("socket") round-trip.

use bytes::BytesMut;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use jmpax_core::gen::{random_execution, RandomExecutionConfig};
use jmpax_core::{CausalBuffer, Message, Relevance};
use rand::seq::SliceRandom;
use rand::SeedableRng;

fn messages(events: usize, seed: u64) -> Vec<Message> {
    let ex = random_execution(RandomExecutionConfig {
        threads: 4,
        vars: 4,
        events,
        write_ratio: 0.6,
        internal_ratio: 0.0,
        seed,
    });
    ex.instrument(Relevance::AllWrites)
}

fn bench_delivery(c: &mut Criterion) {
    let mut group = c.benchmark_group("reorder/delivery");
    let msgs = messages(4_000, 5);
    let mut reversed = msgs.clone();
    reversed.reverse();
    let mut shuffled = msgs.clone();
    shuffled.shuffle(&mut rand::rngs::StdRng::seed_from_u64(9));

    for (name, input) in [
        ("in_order", &msgs),
        ("reversed", &reversed),
        ("shuffled", &shuffled),
    ] {
        group.throughput(Throughput::Elements(input.len() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), input, |b, input| {
            b.iter(|| {
                let mut buf = CausalBuffer::new();
                let mut delivered = 0usize;
                for m in input {
                    delivered += buf.push(m.clone()).len();
                }
                assert_eq!(delivered, input.len());
                delivered
            });
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("reorder/codec");
    let msgs = messages(4_000, 6);
    group.throughput(Throughput::Elements(msgs.len() as u64));
    group.bench_function("encode", |b| {
        b.iter(|| {
            let mut out = BytesMut::new();
            for m in &msgs {
                jmpax_instrument::encode_frame_v2(m, &mut out);
            }
            out.len()
        });
    });
    let mut encoded = BytesMut::new();
    for m in &msgs {
        jmpax_instrument::encode_frame_v2(m, &mut encoded);
    }
    group.bench_function("decode", |b| {
        // 8 KiB chunks, as the `jmpax serve` daemon reads its sockets.
        b.iter(|| {
            let mut decoder = jmpax_instrument::ResilientFrameDecoder::new();
            let decoded: usize = encoded.chunks(8192).map(|c| decoder.push(c).len()).sum();
            assert_eq!(decoded, msgs.len());
            decoded
        });
    });
    group.finish();
}

criterion_group!(benches, bench_delivery, bench_codec);
criterion_main!(benches);
