//! Self-tests of the benchmark: seeded inputs, exact repeatability of
//! answers and counters, and the open-loop validity rule.

use std::sync::Mutex;

use crate::digest::Digest;
use crate::report::Report;
use crate::{gen, serve, session, sweep};

/// The workload tests time things; they run one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn input_digests(seed: u64) -> [u64; 3] {
    let mut serve = Digest::default();
    for r in gen::serve_pool(seed, 120) {
        r.raw.digest_into(&mut serve);
    }
    let mut sessions = Digest::default();
    for s in gen::sessions(seed, 2, 50) {
        s.raw.digest_into(&mut sessions);
        for delta in &s.deltas {
            sessions.delta(delta);
        }
    }
    let mut fronts = Digest::default();
    for f in gen::fronts(seed, 9) {
        f.raw.digest_into(&mut fronts);
    }
    [serve.value(), sessions.value(), fronts.value()]
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_other_inputs() {
    let a = input_digests(7);
    assert_eq!(a, input_digests(7));
    let b = input_digests(8);
    for k in 0..3 {
        assert_ne!(a[k], b[k], "workload {k} ignores the seed");
    }
}

fn assert_repeats(a: &Report, b: &Report) {
    assert!(a.correct() && b.correct(), "{:?} {:?}", a.errors, b.errors);
    assert!(!a.digests.is_empty() && !a.counters.is_empty());
    assert_eq!(a.digests, b.digests, "answer or input digests differ");
    assert_eq!(a.counters, b.counters, "exact counters differ");
}

#[test]
fn serve_answers_and_counters_repeat_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = serve::run(5, 80, 0.4, 1);
    let b = serve::run(5, 80, 0.4, 1);
    assert_repeats(&a, &b);
    assert!(a.counters["service.refused"] > 0.0 && a.counters["service.degraded"] > 0.0);
}

#[test]
fn session_answers_and_counters_repeat_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = session::run(5, 0.2, 1);
    let b = session::run(5, 0.2, 1);
    assert_repeats(&a, &b);
}

#[test]
fn sweep_answers_repeat_exactly() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let a = sweep::run(5, 0.2, 1);
    let b = sweep::run(5, 0.2, 1);
    assert!(a.correct() && b.correct(), "{:?} {:?}", a.errors, b.errors);
    assert_eq!(a.digests, b.digests);
}

#[test]
fn most_resumes_replay_on_the_storage_heavy_fronts() {
    use sws_core::rls::{PriorityOrder, RlsEngine};
    use sws_service::ServiceInstance;
    use sws_workloads::rng::seeded_rng;

    let grid = sws_core::pareto_sweep::delta_grid(gen::RLS_GRID.0, gen::RLS_GRID.1, 32)
        .expect("valid grid");
    for (n, m) in gen::HEAVY_FRONTS {
        let raw = gen::staged(n, m, &mut seeded_rng(3));
        let Ok(ServiceInstance::Dag(dag)) = raw.build() else {
            panic!("a storage-heavy front is a DAG");
        };
        let mut engine = RlsEngine::new(&dag, PriorityOrder::Index);
        let mut replaying = 0;
        for &delta in &grid {
            engine.run(delta).expect("RLS∆ runs");
            replaying += usize::from(engine.replayed_rounds().unwrap_or(0) > 0);
        }
        // The first run is cold and counts as replaying.
        assert!(
            4 * (replaying - 1) >= 3 * (grid.len() - 1),
            "{n}, {m}: {replaying}"
        );
    }
}

#[test]
fn a_generator_that_falls_behind_invalidates_the_run() {
    // At 2000 requests/s the mean gap is 500 µs; the rule allows a p99
    // send lag of a quarter of it.
    assert!(serve::lag_verdict(100.0, 2000.0).is_none());
    let late = serve::lag_verdict(150.0, 2000.0);
    assert!(late.is_some());
    let mut report = Report {
        attempted: 10,
        invalid: late,
        ..Report::default()
    };
    assert!(!report.correct());
    report.invalid = None;
    assert!(report.correct());
}
