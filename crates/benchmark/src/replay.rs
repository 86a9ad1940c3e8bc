//! The in-process attribution path of the traced run: the same public
//! calls a tenant worker makes (`ResilientFrameDecoder`, `Reassembler`,
//! `Pipeline::check_stream_suite`) over the bytes a session sent, plus
//! single-analysis runs and Algorithm A timings.

use std::hint::black_box;
use std::time::{Duration, Instant};

use jmpax_core::{AnalysisKind, Event, Message, MvcInstrumentor, Relevance, VarId};
use jmpax_instrument::ResilientFrameDecoder;
use jmpax_lattice::{Exactness, Reassembler, SuiteReport, DEFAULT_STALL_BUDGET};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_telemetry::Registry;

use crate::client::Verdict;
use crate::inputs::{access_events, encode, Tenant, ACCESS_VARS};
use crate::rng::Rng;

/// The daemon's socket read size: bytes reach the decoder in chunks of
/// at most this many.
pub const CHUNK: usize = 8192;

/// Instants at the layer boundaries of one in-process replay.
pub struct Replay {
    pub start: Instant,
    pub compiled: Instant,
    pub decoded: Instant,
    pub reassembled: Instant,
    pub done: Instant,
    /// After the verdict was rebuilt and compared: the end of the replay.
    pub checked: Instant,
    pub frames: u64,
    pub messages: u64,
    /// `Err` when the replayed verdict differs from the reference.
    pub check: Result<(), String>,
}

pub fn replay(tenant: &Tenant, body: &[u8], expected: &Verdict) -> Replay {
    let start = Instant::now();
    let monitor = if tenant.kinds.contains(&AnalysisKind::Ltl) {
        Some(tenant.monitor().expect("the spec compiled at set-up"))
    } else {
        None
    };
    let initial = tenant.initial();
    let compiled = Instant::now();

    let mut decoder = ResilientFrameDecoder::new();
    let mut decoded_msgs = Vec::new();
    for chunk in body.chunks(CHUNK) {
        decoded_msgs.extend(decoder.push(chunk));
    }
    let decoded = decoder.finish();
    let decoded_at = Instant::now();

    let mut reassembler = Reassembler::with_stall_budget(DEFAULT_STALL_BUDGET);
    reassembler.push_all(decoded_msgs);
    let (messages, reassembly) = reassembler.finish();
    let reassembled = Instant::now();

    let lost = decoded.frames_corrupt + decoded.frames_resynced + u64::from(decoded.truncated);
    let transport = reassembly.exactness().combine(Exactness::degraded(
        0,
        lost.saturating_sub(reassembly.messages_lost()),
    ));
    let count = messages.len() as u64;
    let suite = Pipeline::new(PipelineConfig::new()).check_stream_suite(
        &tenant.kinds,
        monitor.map(|m| (m, &initial)),
        tenant.threads as usize,
        transport,
        messages,
    );
    let done = Instant::now();
    let got = Verdict::expected(&tenant.kinds, &suite, count);
    let check = if suite.exactness().is_exact() && got == *expected {
        Ok(())
    } else {
        Err(format!(
            "in-process replay gave {got:?}, reference {expected:?}"
        ))
    };
    let checked = Instant::now();
    Replay {
        start,
        compiled,
        decoded: decoded_at,
        reassembled,
        done,
        checked,
        frames: decoded.frames_ok,
        messages: count,
        check,
    }
}

/// One analysis alone over a clean stream, timed.
pub fn single(
    tenant: &Tenant,
    kind: AnalysisKind,
    messages: &[Message],
) -> (Duration, SuiteReport) {
    let messages = messages.to_vec();
    let pipeline = Pipeline::new(PipelineConfig::new());
    let start = Instant::now();
    let report = tenant
        .suite(&pipeline, &[kind], messages)
        .expect("the spec compiled at set-up");
    (start.elapsed(), report)
}

/// Physical monitor evaluations and cache hits of one suite run, read
/// from a telemetry registry (counts only; the run is not timed).
pub fn eval_counts(tenant: &Tenant, messages: &[Message]) -> (u64, u64) {
    let registry = Registry::enabled();
    let monitor = tenant
        .monitor()
        .expect("the spec compiled at set-up")
        .with_telemetry(&registry);
    let initial = tenant.initial();
    let _ = Pipeline::new(PipelineConfig::new().telemetry(&registry)).check_stream_suite(
        &[AnalysisKind::Ltl],
        Some((monitor, &initial)),
        tenant.threads as usize,
        Exactness::Exact,
        messages.to_vec(),
    );
    let snap = registry.snapshot();
    (
        snap.counter("spec.formula_evals").unwrap_or(0),
        snap.counter("spec.eval_cache_hits").unwrap_or(0),
    )
}

/// Algorithm A (`MvcInstrumentor::process`) per event, in nanoseconds.
pub fn process_ns(relevance: &Relevance, events: &[Event], min_events: usize) -> f64 {
    let reps = min_events.div_ceil(events.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..reps {
        let mut instr = MvcInstrumentor::with_relevance(relevance.clone());
        for e in events {
            black_box(instr.process(black_box(e)));
        }
    }
    start.elapsed().as_nanos() as f64 / (reps * events.len().max(1)) as f64
}

/// `encode_frame_v2` per frame, in nanoseconds.
pub fn encode_ns(messages: &[Message], min_frames: usize) -> f64 {
    let reps = min_frames.div_ceil(messages.len().max(1)).max(1);
    let start = Instant::now();
    for _ in 0..reps {
        black_box(encode(black_box(messages)));
    }
    start.elapsed().as_nanos() as f64 / (reps * messages.len().max(1)) as f64
}

/// Thread counts of the Algorithm A sweep.
pub const SWEEP: [usize; 4] = [2, 8, 32, 64];

/// `process` per event on the access-mix generator at each sweep thread
/// count: median of fifteen passes over `events` events.
pub fn process_sweep(seed: u64, events: usize) -> Vec<(usize, f64)> {
    let relevance = Relevance::accesses_of((0..ACCESS_VARS as u32).map(VarId));
    SWEEP
        .iter()
        .map(|&threads| {
            let mut rng = Rng::derive(seed, 0x5EE9 + threads as u64);
            let trace = access_events(&mut rng, threads, ACCESS_VARS, events);
            let passes: Vec<f64> = (0..15).map(|_| process_ns(&relevance, &trace, 0)).collect();
            (threads, crate::stats::median(&passes))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{access_tenant, build};

    #[test]
    fn replay_matches_the_reference_and_counts_frames() {
        let tenant = access_tenant();
        let input = build(&tenant, access_events(&mut Rng::new(9), 4, 8, 120)).unwrap();
        let r = replay(&tenant, &input.body, &input.expected);
        r.check.unwrap();
        assert_eq!((r.frames, r.messages), (120, 120));
        assert!(
            r.start <= r.compiled
                && r.compiled <= r.decoded
                && r.decoded <= r.reassembled
                && r.reassembled <= r.done
                && r.done <= r.checked
        );
        let (_, ltl) = single(&tenant, AnalysisKind::Ltl, &input.messages);
        let states = ltl.reports[0].as_ltl().unwrap().states_explored;
        assert!(states > 120);
        let (evals, hits) = eval_counts(&tenant, &input.messages);
        assert!(
            evals > 0 && evals + hits >= states - 1,
            "{evals} + {hits} vs {states}"
        );
        assert!(process_ns(&tenant.relevance, &input.events, 1000) > 0.0);
        assert_eq!(process_sweep(1, 50).len(), 4);
    }
}
