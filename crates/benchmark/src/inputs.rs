//! Input generators and the reference verdicts sessions are checked
//! against. Everything here is built from the benchmark's own PRNG and
//! the public core API, never from another crate's generators.

use std::collections::BTreeMap;

use bytes::BytesMut;
use jmpax_core::{
    AnalysisKind, Event, Message, MvcInstrumentor, Relevance, SymbolTable, ThreadId, Value, VarId,
};
use jmpax_instrument::{encode_frame_v2, SessionHello};
use jmpax_lattice::{Exactness, SuiteReport};
use jmpax_observer::{Pipeline, PipelineConfig};
use jmpax_spec::{parse, Monitor, ProgramState};

use crate::client::Verdict;
use crate::rng::Rng;

/// What one tenant declares, and the spec the daemon holds it to.
#[derive(Clone, Debug)]
pub struct Tenant {
    pub name: &'static str,
    pub spec: String,
    /// Shared variables in `VarId` order with their initial values.
    pub vars: Vec<(String, Value)>,
    pub threads: u32,
    /// Analyses the daemon runs for this tenant.
    pub kinds: Vec<AnalysisKind>,
    /// Whether the handshake names `kinds` (otherwise the daemon's
    /// default, LTL only, applies).
    pub request_kinds: bool,
    pub relevance: Relevance,
}

impl Tenant {
    pub fn hello(&self) -> SessionHello {
        SessionHello {
            tenant: self.name.to_string(),
            threads: self.threads,
            frontier_cap: 0,
            analyses: if self.request_kinds {
                self.kinds.iter().map(|k| k.code()).collect()
            } else {
                Vec::new()
            },
            vars: self.vars.clone(),
        }
    }

    pub fn initial(&self) -> ProgramState {
        let map: BTreeMap<VarId, Value> = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, (_, v))| (VarId(i as u32), *v))
            .collect();
        ProgramState::from_map(map)
    }

    /// Parses the spec and synthesizes its monitor against the declared
    /// variables, as a tenant session does.
    pub fn monitor(&self) -> Result<Monitor, String> {
        let mut symbols = SymbolTable::new();
        for (name, _) in &self.vars {
            symbols.intern(name);
        }
        parse(&self.spec, &mut symbols)
            .map_err(|e| e.to_string())?
            .monitor()
            .map_err(|e| e.to_string())
    }

    /// `Pipeline::check_stream_suite` over a clean stream — the call the
    /// tenant worker makes once its stream ends.
    pub fn suite(
        &self,
        pipeline: &Pipeline,
        kinds: &[AnalysisKind],
        messages: Vec<Message>,
    ) -> Result<SuiteReport, String> {
        let monitor = if kinds.contains(&AnalysisKind::Ltl) {
            Some(self.monitor()?)
        } else {
            None
        };
        let initial = self.initial();
        Ok(pipeline.check_stream_suite(
            kinds,
            monitor.map(|m| (m, &initial)),
            self.threads as usize,
            Exactness::Exact,
            messages,
        ))
    }
}

/// One distinct session input with its reference verdict.
#[derive(Clone, Debug)]
pub struct Input {
    pub events: Vec<Event>,
    pub messages: Vec<Message>,
    /// The v2 frames alone.
    pub body: Vec<u8>,
    /// Hello plus frames: exactly the bytes a session writes.
    pub wire: Vec<u8>,
    pub expected: Verdict,
}

/// Runs Algorithm A over `events`, encodes the frames, and computes the
/// reference verdict in process.
pub fn build(tenant: &Tenant, events: Vec<Event>) -> Result<Input, String> {
    let messages = MvcInstrumentor::with_relevance(tenant.relevance.clone()).process_all(&events);
    let body = encode(&messages);
    let mut wire = tenant.hello().encode().to_vec();
    wire.extend_from_slice(&body);
    let suite = tenant.suite(
        &Pipeline::new(PipelineConfig::new()),
        &tenant.kinds,
        messages.clone(),
    )?;
    if !suite.exactness().is_exact() {
        return Err(format!("{}: reference is not exact", tenant.name));
    }
    let expected = Verdict::expected(&tenant.kinds, &suite, messages.len() as u64);
    Ok(Input {
        events,
        messages,
        body,
        wire,
        expected,
    })
}

pub fn encode(messages: &[Message]) -> Vec<u8> {
    let mut buf = BytesMut::with_capacity(messages.len() * 40);
    for m in messages {
        encode_frame_v2(m, &mut buf);
    }
    buf.to_vec()
}

fn int_vars(names: &[&str]) -> Vec<(String, Value)> {
    names
        .iter()
        .map(|n| (n.to_string(), Value::Int(0)))
        .collect()
}

fn numbered_vars(n: usize) -> Vec<(String, Value)> {
    (0..n).map(|i| (format!("v{i}"), Value::Int(0))).collect()
}

// --- wide-lattice -----------------------------------------------------

pub const WIDE_THREADS: usize = 8;
pub const WIDE_ROUNDS: usize = 3;

/// Banded 8 × 3 with no barrier: every thread writes its own variable,
/// so the lattice is the full (3+1)^8 = 65 536-state hypercube. The spec
/// names every variable, so no projection can shrink it.
pub fn wide_tenant(threads: usize) -> Tenant {
    let atoms: Vec<String> = (0..threads).map(|i| format!("v{i} >= 0")).collect();
    Tenant {
        name: "wide-lattice",
        spec: format!("[*] ({})", atoms.join(" /\\ ")),
        vars: numbered_vars(threads),
        threads: threads as u32,
        kinds: vec![AnalysisKind::Ltl],
        request_kinds: false,
        relevance: Relevance::AllWrites,
    }
}

pub fn wide_events(threads: usize, rounds: usize) -> Vec<Event> {
    let mut events = Vec::with_capacity(threads * rounds);
    let mut counter = 0i64;
    for _ in 0..rounds {
        for t in 0..threads {
            counter += 1;
            events.push(Event::write(ThreadId(t as u32), VarId(t as u32), counter));
        }
    }
    events
}

// --- tenant-churn: the paper's Example 2 --------------------------------

/// Example 2: `x = -1, y = 0, z = 0`; T1 runs `x++; y = x + 1`, T2 runs
/// `z = x + 1; x++`.
pub fn example2_tenant() -> Tenant {
    Tenant {
        name: "tenant-churn",
        spec: "(x > 0) -> [y = 0, y > z)".to_string(),
        vars: vec![
            ("x".to_string(), Value::Int(-1)),
            ("y".to_string(), Value::Int(0)),
            ("z".to_string(), Value::Int(0)),
        ],
        threads: 2,
        kinds: vec![AnalysisKind::Ltl],
        request_kinds: false,
        relevance: Relevance::writes_of([VarId(0), VarId(1), VarId(2)]),
    }
}

/// Every interleaving of the two four-event threads (70 of them): bit `i`
/// says which thread runs step `i`.
pub fn example2_schedules() -> Vec<[u8; 8]> {
    (0u32..256)
        .filter(|m| m.count_ones() == 4)
        .map(|m| std::array::from_fn(|i| ((m >> i) & 1) as u8))
        .collect()
}

/// Executes Example 2 under `schedule`, returning the observed events.
pub fn example2_events(schedule: &[u8; 8]) -> Vec<Event> {
    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const Z: VarId = VarId(2);
    // Per thread: (variable written at steps 1 and 3).
    let writes = [[X, Y], [Z, X]];
    let mut memory = [-1i64, 0, 0];
    let mut pc = [0usize; 2];
    let mut reg = [0i64; 2];
    let mut events = Vec::with_capacity(8);
    for &t in schedule {
        let t = t as usize;
        let tid = ThreadId(t as u32);
        if pc[t] % 2 == 0 {
            reg[t] = memory[0];
            events.push(Event::read(tid, X));
        } else {
            let var = writes[t][pc[t] / 2];
            memory[var.index()] = reg[t] + 1;
            events.push(Event::write(tid, var, reg[t] + 1));
        }
        pc[t] += 1;
    }
    events
}

/// The ground truth for a tiny stream: does any linearization of the
/// causal order violate the monitor? Independent of the lattice code.
pub fn brute_force_satisfied(
    monitor: &Monitor,
    initial: &ProgramState,
    messages: &[Message],
) -> bool {
    fn walk(
        monitor: &Monitor,
        messages: &[Message],
        used: &mut Vec<bool>,
        states: &mut Vec<ProgramState>,
    ) -> bool {
        if states.len() == messages.len() + 1 {
            return monitor.holds_over(states);
        }
        for i in 0..messages.len() {
            let ready = !used[i]
                && (0..messages.len())
                    .all(|j| used[j] || j == i || !messages[j].causally_precedes(&messages[i]));
            if !ready {
                continue;
            }
            let next = match (messages[i].var(), messages[i].written_value()) {
                (Some(var), Some(value)) => states[states.len() - 1].updated(var, value),
                _ => states[states.len() - 1].clone(),
            };
            used[i] = true;
            states.push(next);
            let ok = walk(monitor, messages, used, states);
            states.pop();
            used[i] = false;
            if !ok {
                return false;
            }
        }
        true
    }
    walk(
        monitor,
        messages,
        &mut vec![false; messages.len()],
        &mut vec![initial.clone()],
    )
}

// --- access-mix ---------------------------------------------------------

pub const ACCESS_VARS: usize = 8;
pub const ACCESS_THREADS: usize = 4;

/// Reads next to writes with the whole suite: every access is relevant,
/// the spec names only `v0`, and the stream carries no lock variables.
pub fn access_tenant() -> Tenant {
    Tenant {
        name: "access-mix",
        spec: "v0 >= 0".to_string(),
        vars: numbered_vars(ACCESS_VARS),
        threads: ACCESS_THREADS as u32,
        kinds: vec![
            AnalysisKind::Ltl,
            AnalysisKind::Race,
            AnalysisKind::Atomicity,
        ],
        request_kinds: true,
        relevance: Relevance::accesses_of((0..ACCESS_VARS as u32).map(VarId)),
    }
}

/// A random execution: uniformly chosen thread and variable per event,
/// 30 % writes of non-negative values, 70 % reads.
pub fn access_events(rng: &mut Rng, threads: usize, vars: usize, n: usize) -> Vec<Event> {
    (0..n)
        .map(|_| {
            let t = ThreadId(rng.below(threads as u64) as u32);
            let v = VarId(rng.below(vars as u64) as u32);
            if rng.unit() < 0.3 {
                Event::write(t, v, rng.below(1000) as i64)
            } else {
                Event::read(t, v)
            }
        })
        .collect()
}

// --- live-stream ----------------------------------------------------------

pub const LIVE_VARS: [&str; 4] = ["a", "b", "cfg", "tok"];
pub const LIVE_CFG: i64 = 7;
/// Writes of `a` (T0) and of `b` (T1) per round, and reads of `cfg` by
/// each thread.
pub const LIVE_BURST: usize = 8;

pub fn live_tenant() -> Tenant {
    let mut vars = int_vars(&LIVE_VARS);
    vars[2].1 = Value::Int(LIVE_CFG);
    Tenant {
        name: "live-stream",
        spec: "[*] (a >= 0 /\\ tok >= 0)".to_string(),
        vars,
        threads: 2,
        kinds: vec![AnalysisKind::Ltl],
        request_kinds: false,
        relevance: Relevance::writes_of([VarId(0), VarId(3)]),
    }
}

/// One linearization of the live program (see `live.rs`). The token
/// hand-off is ordered by a barrier, so every real run emits this run's
/// message set.
pub fn live_events(rounds: usize) -> Vec<Event> {
    let (a, b, cfg, tok) = (VarId(0), VarId(1), VarId(2), VarId(3));
    let mut events = Vec::with_capacity(rounds * (4 * LIVE_BURST + 2));
    for r in 0..rounds {
        for (t, var) in [(0u32, a), (1, b)] {
            for k in 0..LIVE_BURST {
                events.push(Event::write(ThreadId(t), var, live_value(r, k)));
            }
            for _ in 0..LIVE_BURST {
                events.push(Event::read(ThreadId(t), cfg));
            }
        }
        let holder = (r % 2) as u32;
        events.push(Event::write(ThreadId(holder), tok, r as i64 + 1));
        events.push(Event::read(ThreadId(1 - holder), tok));
    }
    events
}

pub fn live_value(round: usize, k: usize) -> i64 {
    (round * LIVE_BURST + k) as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example2_has_seventy_schedules_and_both_verdicts() {
        let schedules = example2_schedules();
        assert_eq!(schedules.len(), 70);
        let tenant = example2_tenant();
        let monitor = tenant.monitor().unwrap();
        let mut verdicts = [0usize; 2];
        for s in &schedules {
            let input = build(&tenant, example2_events(s)).unwrap();
            assert_eq!(input.messages.len(), 4);
            let truth = brute_force_satisfied(&monitor, &tenant.initial(), &input.messages);
            assert_eq!(input.expected.satisfied, truth, "schedule {s:?}");
            verdicts[usize::from(truth)] += 1;
        }
        assert!(verdicts[0] > 0 && verdicts[1] > 0, "{verdicts:?}");
    }

    #[test]
    fn wide_lattice_is_satisfied_by_construction() {
        let input = build(&wide_tenant(3), wide_events(3, 2)).unwrap();
        assert!(input.expected.satisfied);
        assert_eq!(input.expected.messages, 6);
    }

    #[test]
    fn live_linearization_satisfies_its_spec() {
        let input = build(&live_tenant(), live_events(4)).unwrap();
        assert!(input.expected.satisfied);
        assert_eq!(input.expected.messages as usize, 4 * (LIVE_BURST + 1));
    }

    #[test]
    fn access_mix_depends_on_the_seed() {
        let a = access_events(&mut Rng::new(1), 4, 8, 50);
        let b = access_events(&mut Rng::new(2), 4, 8, 50);
        assert_ne!(a, b);
        let input = build(&access_tenant(), a).unwrap();
        assert_eq!(input.expected.analyses.len(), 3);
        assert!(
            input.expected.analyses[0].1,
            "v0 >= 0 holds by construction"
        );
    }
}
