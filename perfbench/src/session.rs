//! `session`: incremental replanning sessions driven in a closed loop
//! on the caller's thread.
//!
//! A few sessions are opened with `ServiceHandle::open_session`, half
//! uncapped and half capped at `∆·LB`. One operation is one
//! `SessionTicket::apply` of the next delta of a session's
//! `DeltaStreamConfig::mixed()` stream; the sessions take turns. When a
//! stream is used up its session is opened again from the raw input and
//! the stream replays, so every answer after the first cycle must equal
//! the checked answer of the first cycle bit for bit.
//!
//! The path exercises `core::replan`, `CsrDag::apply_delta` and the
//! kernel's `ReplanRun` replay, and bypasses the queue, dispatch,
//! routing and the per-solve CSR rebuild.

use std::time::Instant;

use sws_core::portfolio::KernelWorkspace;
use sws_core::replan::{solve_from_scratch, ReplanEngine};
use sws_dag::CsrDag;
use sws_model::policy::TenantPolicy;
use sws_model::solve::{Guarantee, Solution};
use sws_model::task::TaskSet;
use sws_service::{SchedulingService, ServiceInstance, SessionTicket};

use crate::check;
use crate::digest::Digest;
use crate::gen::{self, SessionSpec};
use crate::report::{Report, SERVICE_WORKERS};
use crate::stats;
use crate::trace::Tracer;

/// The timed operations are split into this many consecutive segments;
/// throughput and latencies are the median segment's.
const SEGMENTS: usize = 5;

/// Sessions, alternately uncapped and capped. Capped sessions replay
/// deeper, so the apply times of the two kinds form two clusters; with
/// several sessions of graded sizes the clusters blend, and the latency
/// median does not sit on the gap between them.
pub const SESSIONS: usize = 8;
/// Deltas per session per cycle.
pub const EVENTS: usize = 1000;
/// Deltas per session in the traced breakdown.
const TRACED_EVENTS: usize = 300;
const TENANT: &str = "planner";

pub struct Sessions {
    specs: Vec<SessionSpec>,
    service: SchedulingService,
    live: Vec<Live>,
    /// First-cycle answer digests, per session and event.
    first: Vec<Vec<Option<u64>>>,
    ratios: Vec<(f64, f64)>,
    replayed_rounds: u64,
    first_cycle_events: u64,
    input_digest: u64,
    seed: u64,
    ws: KernelWorkspace,
    compared: usize,
}

struct Live {
    ticket: SessionTicket,
    next: usize,
    cycle: usize,
}

fn open(
    service: &SchedulingService,
    spec: &SessionSpec,
    tr: &mut Tracer,
) -> (CsrDag, SessionTicket) {
    let build = tr.enter("dag.build");
    let inst = spec.raw.build().expect("session inputs build");
    tr.exit(build);
    let ServiceInstance::Dag(dag) = inst else {
        unreachable!("sessions are DAGs")
    };
    let csr = tr.time("dag.csr", || dag.csr());
    let ticket = tr
        .time("session.open", || {
            service
                .handle()
                .open_session(TENANT, csr.clone(), dag.m(), spec.cap)
        })
        .expect("session opens");
    (csr, ticket)
}

/// A session answer is a feasible schedule of the mutated instance that
/// respects the session cap, with objective values that match it;
/// uncapped sessions carry Graham's ratio.
fn check_answer(csr: &CsrDag, m: usize, cap: Option<f64>, sol: &Solution) -> Result<(), String> {
    let tasks = TaskSet::from_ps(csr.proc_times(), csr.mem_sizes()).map_err(|e| e.to_string())?;
    check::timed(&tasks, m, &sol.schedule, csr.pred_lists(), cap)?;
    check::point_matches(&tasks, &sol.schedule, sol.point.cmax, sol.point.mmax)?;
    if sol.achieved == Guarantee::PaperRatio && sol.ratio_bound.is_none() {
        return Err("PaperRatio answer without a ratio_bound".into());
    }
    if cap.is_none() && sol.achieved != Guarantee::PaperRatio {
        return Err("uncapped session answer without Graham's guarantee".into());
    }
    Ok(())
}

impl Sessions {
    pub fn setup(seed: u64) -> Sessions {
        let specs = gen::sessions(seed, SESSIONS, EVENTS);
        let mut d = Digest::default();
        for s in &specs {
            s.raw.digest_into(&mut d);
            d.float(s.cap.unwrap_or(-1.0));
            for delta in &s.deltas {
                d.delta(delta);
            }
        }
        let service = SchedulingService::builder()
            .workers(SERVICE_WORKERS)
            .tenant(TENANT, TenantPolicy::unlimited())
            .build();
        let mut off = Tracer::new(false);
        let live = specs
            .iter()
            .map(|spec| Live {
                ticket: open(&service, spec, &mut off).1,
                next: 0,
                cycle: 1,
            })
            .collect();
        Sessions {
            first: specs.iter().map(|s| vec![None; s.deltas.len()]).collect(),
            specs,
            service,
            live,
            ratios: Vec::new(),
            replayed_rounds: 0,
            first_cycle_events: 0,
            input_digest: d.value(),
            seed,
            ws: KernelWorkspace::new(),
            compared: 0,
        }
    }

    /// Applies the next delta of session `s` and returns the apply time
    /// (µs, spans included). The answer is checked outside that time.
    fn step(&mut self, s: usize, tr: &mut Tracer, report: &mut Report) -> f64 {
        if self.live[s].next == self.specs[s].deltas.len() {
            let ticket = open(&self.service, &self.specs[s], &mut Tracer::new(false)).1;
            let cycle = self.live[s].cycle + 1;
            self.live[s] = Live {
                ticket,
                next: 0,
                cycle,
            };
        }
        let e = self.live[s].next;
        let delta = &self.specs[s].deltas[e];
        let t = Instant::now();
        let root = tr.enter("session.event");
        let apply = tr.enter("session.apply");
        let answer = self.live[s].ticket.apply(delta);
        tr.exit(apply);
        tr.exit(root);
        let us = t.elapsed().as_secs_f64() * 1e6;
        self.live[s].next += 1;
        report.attempted += 1;
        match answer {
            Ok(sol) => self.check(s, e, &sol, report),
            Err(err) => report.fail(format!("session {s} event {e}: {err}")),
        }
        us
    }

    fn check(&mut self, s: usize, e: usize, sol: &Solution, report: &mut Report) {
        let digest = Digest::of_solution(sol);
        if self.live[s].cycle > 1 {
            if self.first[s][e] != Some(digest) {
                report.fail(format!(
                    "session {s} event {e}: answer differs from the first cycle"
                ));
            }
            return;
        }
        let csr = self.live[s].ticket.csr();
        let cap = self.specs[s].cap;
        if let Err(err) = check_answer(csr, gen::SESSION_M, cap, sol) {
            report.fail(format!("session {s} event {e}: {err}"));
        }
        if gen::sampled(self.seed, (s * EVENTS + e) as u64) {
            self.compared += 1;
            match solve_from_scratch(csr, gen::SESSION_M, cap, &mut self.ws) {
                Ok(scratch) if Digest::of_solution(&scratch) == digest => {}
                _ => report.fail(format!(
                    "session {s} event {e}: differs from solve_from_scratch"
                )),
            }
        }
        self.first[s][e] = Some(digest);
        self.ratios.push((sol.cmax_over_lb(), sol.mmax_over_lb()));
        self.replayed_rounds += sol.stats.rounds as u64;
        self.first_cycle_events += 1;
    }

    /// Drives the sessions in turn for `seconds`; returns the apply times
    /// in order.
    fn drive(&mut self, seconds: f64, tr: &mut Tracer, report: &mut Report) -> Vec<f64> {
        let stop = Instant::now() + std::time::Duration::from_secs_f64(seconds);
        let mut times = Vec::new();
        let mut k = 0usize;
        while Instant::now() < stop {
            tr.set_op(k as u64);
            times.push(self.step(k % self.specs.len(), tr, report));
            k += 1;
        }
        times
    }

    /// Finishes the first cycle of every session (untimed), so the
    /// quality figures, digest and counters cover exactly one cycle.
    fn finish_first_cycle(&mut self, report: &mut Report) {
        let mut off = Tracer::new(false);
        for s in 0..self.specs.len() {
            while self.live[s].cycle == 1 && self.live[s].next < self.specs[s].deltas.len() {
                self.step(s, &mut off, report);
            }
        }
    }

    fn answer_digest(&self) -> String {
        let mut d = Digest::default();
        for digests in &self.first {
            for digest in digests {
                d.word(digest.unwrap_or(0));
            }
        }
        d.hex()
    }
}

pub fn run(seed: u64, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let mut times = Vec::new();
    let mut state = None;
    for _ in 0..setups.max(1) {
        drop(state.take());
        let t = Instant::now();
        state = Some(Sessions::setup(seed));
        times.push(t.elapsed().as_secs_f64());
    }
    let mut sessions = state.expect("at least one set-up");
    report.note("affinity", crate::affinity::pin_threads());
    let apply_us = sessions.drive(seconds, &mut Tracer::new(false), &mut report);
    sessions.finish_first_cycle(&mut report);

    let (cmax, mmax): (Vec<f64>, Vec<f64>) = sessions.ratios.iter().copied().unzip();
    report.metric(
        "throughput_ops_s",
        stats::segment_median(&apply_us, SEGMENTS, stats::rate_per_s),
        "ops/s",
    );
    report.metric(
        "latency_p50_us",
        stats::segment_median(&apply_us, SEGMENTS, stats::median),
        "us",
    );
    report.metric(
        "latency_p99_us",
        stats::segment_median(&apply_us, SEGMENTS, |s| stats::quantile(s, 0.99)),
        "us",
    );
    report.metric(
        "success_rate",
        1.0 - report.failed as f64 / report.attempted as f64,
        "ratio",
    );
    report.metric("cmax_over_lb_mean", stats::mean(&cmax), "ratio");
    report.metric("mmax_over_lb_mean", stats::mean(&mmax), "ratio");
    report.metric("setup_s", stats::median(&times), "s");
    sessions.counters(&mut report);
    report.note("session.latency_samples", apply_us.len());
    report.note("session.bit_identity_sample", sessions.compared);
    report
}

impl Sessions {
    fn counters(&self, report: &mut Report) {
        report.counter(
            "replan.replayed_rounds_per_event",
            self.replayed_rounds as f64 / self.first_cycle_events.max(1) as f64,
        );
        report.counter("session.first_cycle_events", self.first_cycle_events as f64);
        report.digests.insert(
            "session.input".into(),
            format!("{:016x}", self.input_digest),
        );
        report
            .digests
            .insert("session.answers".into(), self.answer_digest());
    }
}

/// Apply throughput with the tracer on or off, for the trace overhead.
pub fn apply_throughput(
    sessions: &mut Sessions,
    seconds: f64,
    traced: bool,
    report: &mut Report,
) -> f64 {
    let times = sessions.drive(seconds, &mut Tracer::new(traced), report);
    stats::rate_per_s(&times)
}

/// The traced session breakdown: fresh sessions opened under spans, each
/// with a twin `ReplanEngine` and a clone of its CSR fed the same
/// deltas, so `SessionTicket::apply` can be set against
/// `ReplanEngine::apply` and `CsrDag::apply_delta` event by event.
pub fn traced(sessions: &Sessions, report: &mut Report, spans: &mut Vec<(String, Tracer)>) {
    let mut tr = Tracer::new(true);
    let mut live = Vec::new();
    for (s, spec) in sessions.specs.iter().enumerate() {
        tr.set_op(s as u64);
        let root = tr.enter("session.setup");
        let (csr, ticket) = open(&sessions.service, spec, &mut tr);
        let twin = tr
            .time("replan.open", || {
                ReplanEngine::open(csr.clone(), gen::SESSION_M, spec.cap)
            })
            .expect("twin engine opens");
        tr.exit(root);
        live.push((ticket, twin, csr));
    }
    let opens = tr.self_us("session.open");
    let mut events = 0u64;
    let mut rounds = 0u64;
    let mut ev = Tracer::new(true);
    for e in 0..TRACED_EVENTS {
        for (s, (ticket, twin, csr)) in live.iter_mut().enumerate() {
            let delta = &sessions.specs[s].deltas[e];
            ev.set_op((e * SESSIONS + s) as u64);
            let root = ev.enter("session.event");
            let served = ev.time("session.apply", || ticket.apply(delta));
            let replanned = ev.time("replan.apply", || twin.apply(delta));
            let applied = ev.time("dag.apply_delta", || csr.apply_delta(delta));
            ev.exit(root);
            report.attempted += 1;
            events += 1;
            match (served, replanned, applied) {
                (Ok(a), Ok(b), Ok(())) if Digest::of_solution(&a) == Digest::of_solution(&b) => {
                    rounds += b.stats.rounds as u64;
                }
                _ => report.fail(format!(
                    "traced session {s} event {e}: session and twin engine disagree"
                )),
            }
        }
    }
    let served = ev.self_us_by_op("session.apply");
    let replanned = ev.self_us_by_op("replan.apply");
    let overhead: Vec<f64> = served
        .iter()
        .filter_map(|(op, a)| Some(a - replanned.get(op)?))
        .collect();
    let replan: Vec<f64> = replanned.values().copied().collect();
    report.metric("session.open_us.p50", stats::median(&opens), "us");
    report.metric(
        "session.apply_overhead_us.p50",
        stats::median(&overhead),
        "us",
    );
    report.metric("replan.apply_us.p50", stats::median(&replan), "us");
    report.metric("replan.apply_us.p99", stats::quantile(&replan, 0.99), "us");
    report.metric(
        "dag.apply_delta_us.p50",
        stats::median(&ev.self_us("dag.apply_delta")),
        "us",
    );
    let per_event = rounds as f64 / events.max(1) as f64;
    report.metric("replan.replayed_rounds_per_event", per_event, "count");
    report.counter("traced.replan.replayed_rounds_per_event", per_event);
    spans.push(("session-open".into(), tr));
    spans.push(("session-events".into(), ev));
}
