//! Equivalence of the concurrent instrumentation with the sequential
//! Algorithm A.
//!
//! The instrumented runtime records a global linearization of all shared
//! accesses (sequence numbers taken inside the per-variable critical
//! sections). Replaying that linearization through the *sequential*
//! [`MvcInstrumentor`] must produce byte-identical messages — same events,
//! same clocks — proving that the concurrent implementation computes
//! exactly Algorithm A.

use std::collections::HashMap;

use jmpax_core::{Message, MvcInstrumentor, Relevance, ThreadId};
use jmpax_instrument::Session;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn replay_and_compare(session: &Session, emitted: Vec<Message>, relevance: Relevance) {
    let log = session.take_log();
    assert!(!log.is_empty(), "logging session must record accesses");
    let mut seq = MvcInstrumentor::with_relevance(relevance);
    let expected: Vec<Message> = log.iter().filter_map(|e| seq.process(e)).collect();

    // The sink receives messages in linearization order per thread but the
    // interleaving between threads can differ from the log order; match by
    // (thread, seq) which uniquely identifies each message.
    let index = |msgs: &[Message]| -> HashMap<(ThreadId, u32), Message> {
        msgs.iter()
            .map(|m| ((m.thread(), m.seq()), m.clone()))
            .collect()
    };
    let got = index(&emitted);
    let want = index(&expected);
    assert_eq!(
        got.len(),
        emitted.len(),
        "duplicate (thread, seq) in emitted"
    );
    assert_eq!(
        got.len(),
        want.len(),
        "message counts differ: got {}, want {}",
        emitted.len(),
        expected.len()
    );
    for (key, want_msg) in &want {
        let got_msg = got
            .get(key)
            .unwrap_or_else(|| panic!("missing message for thread {:?} seq {}", key.0, key.1));
        assert_eq!(got_msg.event, want_msg.event, "event mismatch at {key:?}");
        assert_eq!(
            got_msg.clock.normalized(),
            want_msg.clock.normalized(),
            "clock mismatch at {key:?}"
        );
    }
}

#[test]
fn counter_hammer_matches_sequential_algorithm() {
    let relevance = Relevance::AllWrites;
    let session = Session::new_logged(relevance.clone());
    let x = session.shared("x", 0i64);
    let y = session.shared("y", 0i64);

    let mut handles = Vec::new();
    for i in 0..4 {
        let (xs, ys) = (x.clone(), y.clone());
        handles.push(session.spawn(move |ctx| {
            for k in 0..100 {
                if (k + i) % 3 == 0 {
                    let v = xs.read(ctx);
                    ys.write(ctx, v + 1);
                } else {
                    xs.update(ctx, |v| v + 1);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let emitted = session.drain_messages();
    replay_and_compare(&session, emitted, relevance);
}

#[test]
fn randomized_workload_matches_sequential_algorithm() {
    for seed in 0..4u64 {
        let relevance = Relevance::AllWrites;
        let session = Session::new_logged(relevance.clone());
        let vars: Vec<_> = (0..5)
            .map(|i| session.shared(&format!("v{i}"), 0i64))
            .collect();

        let mut handles = Vec::new();
        for t in 0..6u64 {
            let vars = vars.clone();
            handles.push(session.spawn(move |ctx| {
                let mut rng = StdRng::seed_from_u64(seed * 100 + t);
                for _ in 0..200 {
                    let v = &vars[rng.gen_range(0..vars.len())];
                    if rng.gen_bool(0.5) {
                        let _ = v.read(ctx);
                    } else {
                        let val = rng.gen_range(-100..100);
                        v.write(ctx, val);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let emitted = session.drain_messages();
        replay_and_compare(&session, emitted, relevance);
    }
}

#[test]
fn locked_workload_matches_sequential_algorithm() {
    let relevance = Relevance::AllWrites;
    let session = Session::new_logged(relevance.clone());
    let balance = session.shared("balance", 0i64);
    let m = session.mutex("m", ());

    let mut handles = Vec::new();
    for _ in 0..4 {
        let (b, m) = (balance.clone(), m.clone());
        handles.push(session.spawn(move |ctx| {
            for _ in 0..50 {
                let mut g = m.lock(ctx);
                let v = b.read(g.ctx());
                b.write(g.ctx(), v + 1);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(balance.peek(), 200);
    let emitted = session.drain_messages();
    replay_and_compare(&session, emitted, relevance);
}

#[test]
fn relevance_filtering_matches_sequential_algorithm() {
    // Only writes of x are relevant; y-traffic shapes causality silently.
    let session = Session::new_logged(Relevance::Nothing);
    let x = session.shared("x", 0i64);
    let relevance = Relevance::writes_of([x.var()]);
    // Rebuild with the right relevance now that we know x's id (ids are
    // deterministic: first interned name gets VarId(0)).
    drop(session);
    let session = Session::new_logged(relevance.clone());
    let x = session.shared("x", 0i64);
    let y = session.shared("y", 0i64);

    let mut handles = Vec::new();
    for _ in 0..3 {
        let (xs, ys) = (x.clone(), y.clone());
        handles.push(session.spawn(move |ctx| {
            for k in 0..100 {
                let v = ys.read(ctx);
                ys.write(ctx, v + 1);
                if k % 10 == 0 {
                    xs.update(ctx, |v| v + 1);
                }
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let emitted = session.drain_messages();
    assert_eq!(emitted.len(), 30, "3 threads × 10 relevant writes");
    replay_and_compare(&session, emitted, relevance);
}

#[test]
fn condvar_handoff_matches_sequential_algorithm() {
    // A one-slot producer/consumer: the slot's mutex and the condvar's
    // dummy variable carry the handoff edges, so their pseudo writes
    // (relevant under `AllWrites`) are replayed along with the data.
    const ITEMS: i64 = 40;
    let relevance = Relevance::AllWrites;
    let session = Session::new_logged(relevance.clone());
    let slot = session.mutex("slot", None::<i64>);
    let ready = std::sync::Arc::new(session.condvar("ready"));
    let item = session.shared("item", 0i64);

    let (m, cv, x) = (slot.clone(), std::sync::Arc::clone(&ready), item.clone());
    let producer = session.spawn(move |ctx| {
        for k in 1..=ITEMS {
            let mut g = m.lock(ctx);
            while g.is_some() {
                cv.wait(&mut g);
            }
            x.write(g.ctx(), k);
            *g = Some(k);
            cv.notify_all(g.ctx());
        }
    });
    let (m, cv, x) = (slot, ready, item);
    let consumer = session.spawn(move |ctx| {
        for k in 1..=ITEMS {
            let mut g = m.lock(ctx);
            while g.is_none() {
                cv.wait(&mut g);
            }
            assert_eq!(x.read(g.ctx()), k);
            *g = None;
            cv.notify_all(g.ctx());
        }
    });
    producer.join().unwrap();
    consumer.join().unwrap();
    let emitted = session.drain_messages();
    assert!(
        emitted
            .iter()
            .any(|m| m.written_value() == Some(jmpax_core::Value::Unit)),
        "condvar dummy writes must be among the messages"
    );
    replay_and_compare(&session, emitted, relevance);
}
