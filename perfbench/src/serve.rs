//! `serve`: an open-loop, multi-tenant request stream into
//! `SchedulingService` with one worker, driven by one generator thread.
//!
//! The generator builds every request's instance from its raw input
//! (timed: users pay it), submits it, and spins on `Ticket::try_wait`
//! between due times, stamping completions as they arrive. Three phases:
//!
//! 1. a closed backlog (a fixed window of outstanding requests) gives
//!    `throughput_ops_s`;
//! 2. whole passes over the pool at the fixed reference rate give the
//!    latencies, from each request's *intended* send time, and the
//!    admission counts;
//! 3. probes on the fixed rate ladder give `slo_rate_ops_s`.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sws_core::portfolio::{KernelWorkspace, Portfolio};
use sws_core::rls::{rls_guarantee, PriorityOrder, RlsConfig, RlsResult};
use sws_listsched::kernel::{event_driven_schedule_csr, MemoryCapAdmission};
use sws_model::policy::{OverflowPolicy, QuotaError, TenantPolicy};
use sws_model::solve::{BackendId, BoundReport, Guarantee, Solution};
use sws_service::{
    SchedulingService, ServiceError, ServiceInstance, ServiceRequest, ServiceStats, Ticket,
};

use crate::digest::Digest;
use crate::gen::{self, Kind, ServeRequest};
use crate::report::{Report, SERVICE_WORKERS};
use crate::slo;
use crate::stats;
use crate::trace::Tracer;

/// Requests in the pool; every phase cycles through it.
pub const POOL: usize = 300;
/// The fixed reference rate (requests/s) the latencies are measured at:
/// about a quarter of the saturated rate on a 2-vCPU host, so queueing
/// does not amplify host noise into the percentiles.
pub const REF_RATE: f64 = 900.0;
/// The fixed latency limit (µs) of `slo_rate_ops_s`.
pub const LIMIT_US: f64 = 50_000.0;
/// Queue capacity: far above any backlog a probe can build, so a
/// refusal is always the tenant policy's, never backpressure.
const QUEUE_CAPACITY: usize = 1 << 16;
/// Outstanding requests in the closed backlog.
const BACKLOG_WINDOW: usize = 32;
/// Fewest requests in a reference-rate latency window (≥ 10 beyond its
/// p99).
const MIN_WINDOW: usize = 1000;
/// Segments of the closed backlog.
const SEGMENTS: usize = 4;
/// A ladder probe stops, as a miss, once its backlog holds this many
/// latency limits' worth of arrivals: the newest request would then wait
/// about a limit. It also bounds the memory an overloaded probe holds.
const PROBE_BACKLOG_LIMITS: f64 = 1.0;
/// Fewest requests offered per ladder probe (≥ 10 beyond the p99).
const MIN_PROBE: usize = 1000;
/// Share of the mean inter-arrival gap the generator may run late (p99)
/// before a run is invalid.
pub const MAX_LAG_SHARE: f64 = 0.25;
/// The closure check passes when the layers' self times add up to the
/// untraced latency, and the kernel path's stages to `solve_in`, within
/// this share.
pub const CLOSURE_TOLERANCE: f64 = 0.15;

/// `Some(reason)` when the open-loop generator ran so late (p99 send lag
/// over [`MAX_LAG_SHARE`] of the mean inter-arrival gap at `rate`) that
/// the run measured the generator, not the service.
pub fn lag_verdict(lag_p99_us: f64, rate: f64) -> Option<String> {
    let gap_us = 1e6 / rate;
    (lag_p99_us > MAX_LAG_SHARE * gap_us).then(|| {
        format!(
            "open-loop generator ran late: send lag p99 {lag_p99_us:.1} µs > {MAX_LAG_SHARE} × mean gap {gap_us:.1} µs"
        )
    })
}

/// Backends the serve mix routes to, for the per-backend layer metrics.
pub const MIX: [BackendId; 6] = [
    BackendId::KernelRls,
    BackendId::Sbo,
    BackendId::Lpt,
    BackendId::KernelTriRls,
    BackendId::ConstrainedSearch,
    BackendId::ExactParetoEnum,
];

/// The checked answer of one pool entry; every later answer to the same
/// request must have the same digest.
#[derive(Debug, Clone)]
struct Expected {
    digest: u64,
    effective: Guarantee,
    degraded: bool,
    cmax_ratio: f64,
    mmax_ratio: f64,
    rounds: usize,
    backend: BackendId,
}

pub struct Serve {
    pool: Vec<ServeRequest>,
    service: SchedulingService,
    /// `None`: refused at admission by the tenant's work gate.
    expected: Vec<Option<Expected>>,
    input_digest: u64,
    seed: u64,
}

/// How a finished request went.
enum Verdict {
    Answered,
    /// Refused by the tenant policy, as the pool entry always is.
    Refused,
    Failed(String),
}

#[derive(Default)]
struct Phase {
    attempted: u64,
    answered: u64,
    refused: u64,
    failures: Vec<String>,
    /// `(op, pool index, latency µs)` in offer order; `INFINITY` for a
    /// failed request. Refused requests have no latency.
    latencies: Vec<(u64, usize, f64)>,
    /// How late the generator started each send beyond both its due
    /// time and the end of its previous send (µs).
    lags_us: Vec<f64>,
    elapsed_s: f64,
    /// An open-loop phase stopped sending because its backlog passed
    /// `max_pending`.
    aborted: bool,
}

impl Phase {
    fn latency_values(&self) -> Vec<f64> {
        self.latencies.iter().map(|&(_, _, l)| l).collect()
    }
}

enum Arrivals {
    /// Keep `window` requests outstanding until `stop`.
    Closed { window: usize, stop: Instant },
    /// Send request `k` at `offsets[k]` after the phase start; give up
    /// (stop sending, mark the phase aborted) once more than
    /// `max_pending` requests are outstanding.
    Open {
        offsets: Vec<Duration>,
        max_pending: usize,
    },
}

struct Pending {
    ticket: Ticket,
    op: u64,
    idx: usize,
    due: Instant,
    effective: Guarantee,
}

fn service() -> SchedulingService {
    let [(gold, gold_w), (silver, silver_w), (bronze, bronze_w)] = gen::TENANTS;
    SchedulingService::builder()
        .workers(SERVICE_WORKERS)
        .queue_capacity(QUEUE_CAPACITY)
        .tenant(gold, TenantPolicy::unlimited().with_weight(gold_w))
        .tenant(
            silver,
            TenantPolicy::unlimited()
                .with_weight(silver_w)
                .with_max_estimated_work(gen::SILVER_GATE)
                .with_overflow(OverflowPolicy::Degrade),
        )
        .tenant(
            bronze,
            TenantPolicy::unlimited()
                .with_weight(bronze_w)
                .with_max_estimated_work(gen::BRONZE_GATE),
        )
        .build()
}

fn request(req: &ServeRequest, inst: ServiceInstance) -> ServiceRequest {
    ServiceRequest::new(req.tenant, inst, req.objective).with_guarantee(req.guarantee)
}

fn is_policy_refusal(err: &ServiceError) -> bool {
    matches!(err, ServiceError::Refused(QuotaError::WorkExceeded { .. }))
}

/// Poisson offsets at `rate` for `count` requests.
fn poisson_offsets(seed: u64, stream: u64, count: usize, rate: f64) -> Vec<Duration> {
    let mut t = 0.0;
    slo::unit_gaps(seed, stream, count)
        .into_iter()
        .map(|g| {
            t += g / rate;
            Duration::from_secs_f64(t)
        })
        .collect()
}

impl Serve {
    /// Set-up: input generation, service build and a warm-up pass over
    /// the whole pool (which also yields each entry's answer). Returns the
    /// state and the warm-up answers, which [`Serve::check_warm_up`]
    /// validates outside the set-up time.
    fn setup(seed: u64, pool_size: usize) -> (Serve, Vec<WarmAnswer>) {
        let pool = gen::serve_pool(seed, pool_size);
        let mut d = Digest::default();
        for r in &pool {
            r.raw.digest_into(&mut d);
        }
        let serve = Serve {
            pool,
            service: service(),
            expected: Vec::new(),
            input_digest: d.value(),
            seed,
        };
        let mut warm: Vec<WarmAnswer> =
            (0..serve.pool.len()).map(|_| WarmAnswer::Missing).collect();
        let count = serve.pool.len();
        serve.run_phase(
            0,
            count,
            Arrivals::Closed {
                window: BACKLOG_WINDOW,
                stop: Instant::now() + Duration::from_secs(3600),
            },
            &mut Tracer::new(false),
            &mut |idx, outcome, effective, degraded| {
                warm[idx] = match outcome {
                    Ok(sol) => WarmAnswer::Solved(Box::new(sol), effective, degraded),
                    Err(err) if is_policy_refusal(&err) => WarmAnswer::Refused,
                    Err(err) => WarmAnswer::Failed(err.to_string()),
                };
                Verdict::Answered
            },
        );
        (serve, warm)
    }

    /// Validates every warm-up answer and records it as the expected
    /// answer of its pool entry.
    fn check_warm_up(&mut self, warm: Vec<WarmAnswer>, report: &mut Report) {
        report.attempted += warm.len() as u64;
        self.expected = warm
            .into_iter()
            .enumerate()
            .map(|(idx, answer)| {
                let req = &self.pool[idx];
                match answer {
                    WarmAnswer::Solved(sol, effective, degraded) => {
                        let inst = req.raw.build().expect("the pool builds");
                        if let Err(e) = crate::check::served(&inst, req.objective, effective, &sol)
                        {
                            report.fail(format!("serve request {idx} ({:?}): {e}", req.kind));
                        }
                        Some(Expected {
                            digest: Digest::of_solution(&sol),
                            effective,
                            degraded,
                            cmax_ratio: sol.cmax_over_lb(),
                            mmax_ratio: sol.mmax_over_lb(),
                            rounds: sol.stats.rounds,
                            backend: sol.stats.backend,
                        })
                    }
                    WarmAnswer::Refused => None,
                    WarmAnswer::Failed(e) => {
                        report.fail(format!("serve request {idx} ({:?}): {e}", req.kind));
                        None
                    }
                    WarmAnswer::Missing => {
                        report.fail(format!("serve request {idx}: no answer"));
                        None
                    }
                }
            })
            .collect();
    }

    /// Runs `count` requests from pool position `start`, calling
    /// `on_done(pool index, outcome, effective guarantee, degraded)` as
    /// each resolves.
    fn run_phase(
        &self,
        start: usize,
        mut count: usize,
        arrivals: Arrivals,
        tr: &mut Tracer,
        on_done: &mut dyn FnMut(usize, Result<Solution, ServiceError>, Guarantee, bool) -> Verdict,
    ) -> Phase {
        let handle = self.service.handle();
        let mut phase = Phase::default();
        let mut pending: Vec<Pending> = Vec::with_capacity(BACKLOG_WINDOW);
        let mut still: Vec<Pending> = Vec::with_capacity(BACKLOG_WINDOW);
        let t0 = Instant::now();
        let mut prev_end = t0;
        let mut last_done = t0;
        let mut next = 0usize;
        let tally = |phase: &mut Phase, op: u64, idx: usize, verdict: Verdict, latency: f64| {
            match verdict {
                Verdict::Answered => {
                    phase.answered += 1;
                    phase.latencies.push((op, idx, latency));
                }
                Verdict::Refused => phase.refused += 1,
                Verdict::Failed(e) => {
                    phase.failures.push(e);
                    phase.latencies.push((op, idx, f64::INFINITY));
                }
            }
        };
        loop {
            let now = Instant::now();
            if let Arrivals::Open { max_pending, .. } = &arrivals {
                if pending.len() > *max_pending && next < count {
                    phase.aborted = true;
                    count = next;
                }
            }
            let due = match &arrivals {
                Arrivals::Closed { window, stop } => {
                    (next < count && pending.len() < *window && now < *stop).then_some(now)
                }
                Arrivals::Open { offsets, .. } => {
                    (next < count && now >= t0 + offsets[next]).then(|| t0 + offsets[next])
                }
            };
            if let Some(due) = due {
                if matches!(arrivals, Arrivals::Open { .. }) {
                    let late = now.saturating_duration_since(due.max(prev_end));
                    phase.lags_us.push(late.as_secs_f64() * 1e6);
                }
                let idx = (start + next) % self.pool.len();
                let op = next as u64;
                let req = &self.pool[idx];
                tr.set_op(op);
                let root = tr.enter("serve.request");
                let build = tr.enter(if req.raw.is_dag() {
                    "dag.build"
                } else {
                    "model.build"
                });
                let inst = req.raw.build().expect("the pool builds");
                tr.exit(build);
                let submit = tr.enter("service.submit");
                let submitted = handle.submit(request(req, inst));
                tr.exit(submit);
                tr.exit(root);
                prev_end = Instant::now();
                phase.attempted += 1;
                next += 1;
                match submitted {
                    Ok(ticket) => {
                        let effective = ticket.effective_guarantee();
                        pending.push(Pending {
                            ticket,
                            op,
                            idx,
                            due,
                            effective,
                        });
                    }
                    Err(err) => {
                        let verdict = on_done(idx, Err(err), req.guarantee, false);
                        tally(&mut phase, op, idx, verdict, f64::INFINITY);
                    }
                }
                continue;
            }
            let sending_done =
                next >= count || matches!(&arrivals, Arrivals::Closed { stop, .. } if now >= *stop);
            if sending_done && pending.is_empty() {
                break;
            }
            // The generator spins between due times; the pause hint keeps
            // the spinning from slowing a worker on a sibling hardware
            // thread.
            std::hint::spin_loop();
            for p in pending.drain(..) {
                let degraded = matches!(
                    p.ticket.verdict(),
                    sws_model::policy::AdmissionVerdict::Degraded { .. }
                );
                match p.ticket.try_wait() {
                    Ok(outcome) => {
                        let done = Instant::now();
                        last_done = done;
                        let latency = done.duration_since(p.due).as_secs_f64() * 1e6;
                        let verdict = on_done(p.idx, outcome, p.effective, degraded);
                        tally(&mut phase, p.op, p.idx, verdict, latency);
                    }
                    Err(ticket) => still.push(Pending { ticket, ..p }),
                }
            }
            std::mem::swap(&mut pending, &mut still);
        }
        phase.elapsed_s = last_done.duration_since(t0).as_secs_f64();
        phase
    }

    /// A timed phase: every answer is compared with its pool entry's
    /// checked answer.
    fn checked_phase(
        &self,
        start: usize,
        count: usize,
        arrivals: Arrivals,
        tr: &mut Tracer,
    ) -> Phase {
        let expected = &self.expected;
        self.run_phase(
            start,
            count,
            arrivals,
            tr,
            &mut |idx, outcome, effective, degraded| match (outcome, &expected[idx]) {
                (Ok(sol), Some(exp)) => {
                    if Digest::of_solution(&sol) != exp.digest {
                        Verdict::Failed(format!(
                            "serve request {idx}: answer differs from its checked answer"
                        ))
                    } else if effective != exp.effective || degraded != exp.degraded {
                        Verdict::Failed(format!("serve request {idx}: admitted differently"))
                    } else {
                        Verdict::Answered
                    }
                }
                (Err(err), None) if is_policy_refusal(&err) => Verdict::Refused,
                (Err(err), _) => Verdict::Failed(format!("serve request {idx}: {err}")),
                (Ok(_), None) => {
                    Verdict::Failed(format!("serve request {idx}: answered, expected a refusal"))
                }
            },
        )
    }

    /// Whole passes over the pool at the reference rate.
    fn reference_phase(
        &self,
        passes: usize,
        rate: f64,
        tr: &mut Tracer,
    ) -> (Phase, ServiceStats, ServiceStats) {
        let count = passes * self.pool.len();
        let before = self.service.handle().stats();
        let offsets = poisson_offsets(self.seed, 11, count, rate);
        let arrivals = Arrivals::Open {
            offsets,
            max_pending: usize::MAX,
        };
        let phase = self.checked_phase(0, count, arrivals, tr);
        let after = self.service.handle().stats();
        (phase, before, after)
    }

    /// Bit-identity on a seeded sample: the served answer of every
    /// sampled pool entry equals a direct `Portfolio::solve` at the
    /// ticket's effective guarantee.
    fn sample_bit_identity(&self, report: &mut Report) -> usize {
        let portfolio = Portfolio::standard();
        let mut compared = 0;
        for (idx, (req, exp)) in self.pool.iter().zip(&self.expected).enumerate() {
            let Some(exp) = exp else { continue };
            if gen::sampled(self.seed, idx as u64) {
                compared += 1;
                let inst = req.raw.build().expect("the pool builds");
                let direct = portfolio.solve(&inst.as_request(req.objective, exp.effective));
                match direct {
                    Ok(sol) if Digest::of_solution(&sol) == exp.digest => {}
                    Ok(_) => report.fail(format!(
                        "serve request {idx}: served answer differs from Portfolio::solve"
                    )),
                    Err(e) => report.fail(format!("serve request {idx}: direct solve failed: {e}")),
                }
            }
        }
        compared
    }

    fn answer_digest(&self) -> String {
        let mut d = Digest::default();
        for exp in &self.expected {
            d.word(exp.as_ref().map_or(0, |e| e.digest));
        }
        d.hex()
    }

    fn phase_into(report: &mut Report, phase: &Phase) {
        report.attempted += phase.attempted;
        for e in &phase.failures {
            report.fail(e.clone());
        }
    }

    /// Counts and quality figures of the pool's checked answers; all
    /// exact for a given seed.
    fn pool_counters(&self, report: &mut Report) {
        let answered: Vec<&Expected> = self.expected.iter().flatten().collect();
        let rounds: usize = answered.iter().map(|e| e.rounds).sum();
        report.counter("listsched.rounds", rounds as f64);
        for backend in MIX {
            let count = answered.iter().filter(|e| e.backend == backend).count();
            report.counter(format!("portfolio.mix.{}", backend.label()), count as f64);
        }
        report.counter(
            "serve.pool_refused",
            (self.expected.len() - answered.len()) as f64,
        );
        report.counter(
            "serve.pool_degraded",
            answered.iter().filter(|e| e.degraded).count() as f64,
        );
    }
}

enum WarmAnswer {
    Missing,
    Solved(Box<Solution>, Guarantee, bool),
    Refused,
    Failed(String),
}

/// Repeats the set-up `setups` times (keeping the last) and reports the
/// median set-up time.
fn set_up(seed: u64, pool: usize, setups: usize, report: &mut Report) -> (Serve, f64) {
    let mut times = Vec::new();
    let mut kept = None;
    for _ in 0..setups.max(1) {
        if let Some((old, _)) = kept.take() {
            let old: Serve = old;
            old.service.shutdown();
        }
        let t = Instant::now();
        let state = Serve::setup(seed, pool);
        times.push(t.elapsed().as_secs_f64());
        kept = Some(state);
    }
    let (mut serve, warm) = kept.expect("at least one set-up");
    report.note("affinity", crate::affinity::pin_threads());
    serve.check_warm_up(warm, report);
    (serve, stats::median(&times))
}

/// The untraced run: every end-to-end metric.
pub fn run(seed: u64, pool: usize, seconds: f64, setups: usize) -> Report {
    let mut report = Report::default();
    let (serve, setup_s) = set_up(seed, pool, setups, &mut report);
    let mut tr = Tracer::new(false);

    // 1. Closed backlog, in segments; the median segment's rate counts,
    //    so a stall of the host moves one segment, not the figure.
    let mut cursor = 0;
    let mut segment_rates = Vec::new();
    let mut backlog_requests = 0;
    for _ in 0..SEGMENTS {
        let stop = Instant::now() + Duration::from_secs_f64(0.2 * seconds / SEGMENTS as f64);
        let arrivals = Arrivals::Closed {
            window: BACKLOG_WINDOW,
            stop,
        };
        let phase = serve.checked_phase(cursor, usize::MAX, arrivals, &mut tr);
        cursor += phase.attempted as usize;
        backlog_requests += phase.attempted;
        segment_rates.push(phase.answered as f64 / phase.elapsed_s);
        Serve::phase_into(&mut report, &phase);
    }
    let throughput = stats::median(&segment_rates);

    // 2. Reference rate: whole pool passes, about 40% of the run,
    //    in windows of whole passes with at least MIN_WINDOW requests.
    //    Latencies are taken per window and the median window counts.
    let window = MIN_WINDOW.div_ceil(serve.pool.len());
    let windows = ((0.4 * seconds * REF_RATE) / (window * serve.pool.len()) as f64)
        .round()
        .max(1.0) as usize;
    let passes = windows * window;
    let (reference, before, after) = serve.reference_phase(passes, REF_RATE, &mut tr);
    Serve::phase_into(&mut report, &reference);
    let per_window = |q: f64| -> f64 {
        let by_window: Vec<f64> = (0..windows)
            .map(|w| {
                let lat: Vec<f64> = reference
                    .latencies
                    .iter()
                    .filter(|(op, _, _)| *op as usize / (window * serve.pool.len()) == w)
                    .map(|&(_, _, l)| l)
                    .collect();
                stats::quantile(&lat, q)
            })
            .collect();
        stats::median(&by_window)
    };
    let lag_p99 = stats::quantile(&reference.lags_us, 0.99);
    report.invalid = lag_verdict(lag_p99, REF_RATE);

    // 3. The rate ladder, between half and 1.25× the measured saturation
    //    (rungs above it are taken to miss). A probe that builds a
    //    backlog the latency limit cannot clear stops early as a miss.
    let probe_s = 0.4 * seconds / 7.0;
    let mut probes = Vec::new();
    let mut probe = |k: usize| -> bool {
        let rate = slo::rung(k);
        let count = ((rate * probe_s) as usize).max(MIN_PROBE);
        let arrivals = Arrivals::Open {
            offsets: poisson_offsets(seed, 1000 + k as u64, count, rate),
            max_pending: (PROBE_BACKLOG_LIMITS * rate * LIMIT_US / 1e6).ceil() as usize,
        };
        let phase = serve.checked_phase(0, count, arrivals, &mut Tracer::new(false));
        let ok = !phase.aborted
            && phase.failures.is_empty()
            && slo::meets(&phase.latency_values(), LIMIT_US);
        probes.push((k, ok, phase));
        ok
    };
    let slo_rung = slo::highest_passing(
        slo::rung_below(0.5 * throughput),
        slo::rung_below(1.25 * throughput) + 1,
        &mut probe,
    );
    for (k, ok, phase) in &probes {
        Serve::phase_into(&mut report, phase);
        let verdict = match (ok, phase.aborted) {
            (true, _) => "meets",
            (false, true) => "misses (backlog)",
            (false, false) => "misses",
        };
        report.note(
            format!("ladder.{k:03}"),
            format!(
                "rate {:.1}/s {verdict} ({} requests)",
                slo::rung(*k),
                phase.attempted
            ),
        );
    }

    let answered: Vec<&Expected> = serve.expected.iter().flatten().collect();
    let ref_ok = reference.answered as f64;
    report.metric("throughput_ops_s", throughput, "ops/s");
    report.metric(
        "slo_rate_ops_s",
        slo_rung.map_or(f64::NAN, slo::rung),
        "ops/s",
    );
    report.metric("latency_p50_us", per_window(0.5), "us");
    report.metric("latency_p99_us", per_window(0.99), "us");
    report.metric("success_rate", ref_ok / reference.attempted as f64, "ratio");
    report.metric(
        "cmax_over_lb_mean",
        stats::mean(&answered.iter().map(|e| e.cmax_ratio).collect::<Vec<_>>()),
        "ratio",
    );
    report.metric(
        "mmax_over_lb_mean",
        stats::mean(&answered.iter().map(|e| e.mmax_ratio).collect::<Vec<_>>()),
        "ratio",
    );
    report.metric("setup_s", setup_s, "s");

    let compared = serve.sample_bit_identity(&mut report);
    serve.pool_counters(&mut report);
    report.counter(
        "service.admitted",
        (after.global.admitted - before.global.admitted) as f64,
    );
    report.counter(
        "service.refused",
        (after.global.refused - before.global.refused) as f64,
    );
    report.counter(
        "service.degraded",
        (after.global.degraded - before.global.degraded) as f64,
    );
    report
        .digests
        .insert("serve.input".into(), format!("{:016x}", serve.input_digest));
    report
        .digests
        .insert("serve.answers".into(), serve.answer_digest());
    report.note("serve.latency_samples", reference.latencies.len());
    report.note(
        "serve.latency_windows",
        format!("{windows} of {window} passes"),
    );
    report.note("serve.reference_requests", reference.attempted);
    report.note("serve.reference_refused", reference.refused);
    report.note(
        "serve.error_rate",
        1.0 - ref_ok / reference.attempted as f64,
    );
    report.note("serve.backlog_requests", backlog_requests);
    report.note(
        "serve.backlog_segment_rates",
        format!("{segment_rates:.1?}"),
    );
    report.note("serve.bit_identity_sample", compared);
    report.note("harness.send_lag_us.p99", lag_p99);
    report.note("serve.reference_rate", REF_RATE);
    report.note("serve.latency_limit_us", LIMIT_US);
    serve.service.shutdown();
    report
}

/// Closed-backlog throughput with the tracer on or off, for the trace
/// overhead.
pub fn backlog_throughput(serve: &Serve, seconds: f64, traced: bool) -> f64 {
    let mut tr = Tracer::new(traced);
    let phase = serve.checked_phase(
        0,
        usize::MAX,
        Arrivals::Closed {
            window: BACKLOG_WINDOW,
            stop: Instant::now() + Duration::from_secs_f64(seconds),
        },
        &mut tr,
    );
    phase.answered as f64 / phase.elapsed_s
}

pub fn setup_for_trace(seed: u64, pool: usize, report: &mut Report) -> Serve {
    set_up(seed, pool, 1, report).0
}

/// Spins on `Ticket::try_wait` until the request resolves.
fn spin(mut ticket: Ticket) -> Result<Solution, ServiceError> {
    loop {
        match ticket.try_wait() {
            Ok(outcome) => return outcome,
            Err(t) => {
                ticket = t;
                std::hint::spin_loop();
            }
        }
    }
}

/// Passes of the serve breakdown over the pool. A layer's time for a
/// request is the median of its passes, and the closure check compares
/// each request with itself, so one host stall moves one sample, not a
/// figure or the verdict.
const BREAKDOWN_PASSES: usize = 5;

/// The median over the passes of each request's time, keyed by the
/// request's index (`by_op` is keyed by `pass * len + index`).
fn per_request(by_op: &BTreeMap<u64, f64>, len: usize) -> BTreeMap<u64, f64> {
    let mut samples: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for (&op, &us) in by_op {
        samples.entry(op % len as u64).or_default().push(us);
    }
    samples
        .into_iter()
        .map(|(idx, v)| (idx, stats::median(&v)))
        .collect()
}

/// The traced serve breakdown, in passes over the pool on an idle
/// service, each repeated [`BREAKDOWN_PASSES`] times:
///
/// 1. round trips (build, submit, wait) under spans, one request at a
///    time, each next to an untraced round trip of the same request for
///    the closure check. Nothing else runs in between: the service's
///    worker frees each instance, and the next build pays for that in
///    the allocator, as it does for an untraced request;
/// 2. the same requests called directly: `Portfolio::plan` and
///    `Portfolio::solve_in` at the admitted guarantee and, for RLS
///    requests, the kernel path taken apart into public calls, each
///    timed on its own: `DagInstance::csr`, `PriorityOrder::rank_csr`,
///    `event_driven_schedule_csr`, and the assembly of the answer
///    (`RlsResult::into_solution` with the DAG's bounds). The assembled
///    answer must equal `solve_in`'s bit for bit.
///
/// Then one pass at the reference rate for queue wait, submit cost,
/// admission counts and generator lag.
pub fn traced(serve: &Serve, report: &mut Report, spans: &mut Vec<(String, Tracer)>) {
    let portfolio = Portfolio::standard();
    let mut ws = KernelWorkspace::new();
    let handle = serve.service.handle();
    let len = serve.pool.len();

    let mut idle = Tracer::new(true);
    let mut admitted_at = vec![None; len];
    let mut untraced_of = vec![Vec::with_capacity(BREAKDOWN_PASSES); len];
    // Both kinds of round trip check their answer right after it, so the
    // next build always starts after the same pause, in which the worker
    // frees the previous instance.
    let as_checked =
        |idx: usize, outcome: Result<Solution, ServiceError>| match (outcome, &serve.expected[idx])
        {
            (Ok(sol), Some(exp)) => Digest::of_solution(&sol) == exp.digest,
            (Err(err), None) => is_policy_refusal(&err),
            _ => false,
        };
    let untraced_round_trip = |idx: usize, req: &ServeRequest| {
        let t = Instant::now();
        let inst = req.raw.build().expect("the pool builds");
        let outcome = handle.submit(request(req, inst)).and_then(spin);
        let us = t.elapsed().as_secs_f64() * 1e6;
        (us, as_checked(idx, outcome))
    };
    for pass in 0..BREAKDOWN_PASSES {
        for (idx, req) in serve.pool.iter().enumerate() {
            // Traced and untraced round trips of each request, in
            // alternating order, so drift of the host between them cancels.
            let mut untraced = |report: &mut Report| {
                let (us, ok) = untraced_round_trip(idx, req);
                untraced_of[idx].push(us);
                if !ok {
                    report.fail(format!(
                        "serve request {idx}: untraced round trip differs from its checked answer"
                    ));
                }
            };
            if (idx + pass) % 2 == 1 {
                untraced(report);
            }
            idle.set_op((pass * len + idx) as u64);
            let root = idle.enter("serve.request");
            let build = idle.enter(if req.raw.is_dag() {
                "dag.build"
            } else {
                "model.build"
            });
            let inst = req.raw.build().expect("the pool builds");
            idle.exit(build);
            let submit = idle.enter("service.submit");
            let submitted = handle.submit(request(req, inst));
            idle.exit(submit);
            let outcome = submitted.map(|ticket| {
                let effective = ticket.effective_guarantee();
                let wait = idle.enter("service.wait");
                let outcome = spin(ticket);
                idle.exit(wait);
                (effective, outcome)
            });
            idle.exit(root);
            report.attempted += 1;
            let effective = outcome.as_ref().ok().map(|(e, _)| *e);
            if as_checked(idx, outcome.and_then(|(_, o)| o)) {
                if pass == 0 {
                    admitted_at[idx] = effective.filter(|_| serve.expected[idx].is_some());
                }
            } else {
                report.fail(format!(
                    "serve request {idx}: traced round trip differs from its checked answer"
                ));
            }
            if (idx + pass) % 2 == 0 {
                untraced(report);
            }
        }
    }

    let mut direct = Tracer::new(true);
    let mut backend_of: BTreeMap<u64, (BackendId, f64)> = BTreeMap::new();
    let mut kernel_rounds = 0u64;
    let (mut csrs, mut keyed) = (0u64, 0u64);
    let mut rls_ops = Vec::new();
    for pass in 0..BREAKDOWN_PASSES {
        // Work counters, the backend mix and the RLS requests come from
        // the first pass; every pass checks its answers.
        let first = pass == 0;
        for (idx, (req, effective)) in serve.pool.iter().zip(&admitted_at).enumerate() {
            let op = idx as u64;
            let inst = req.raw.build().expect("the pool builds");
            direct.set_op((pass * len + idx) as u64);
            let sreq = inst.as_request(req.objective, effective.unwrap_or(req.guarantee));
            let plan = direct.time("portfolio.plan", || portfolio.plan(&sreq));
            if effective.is_none() {
                continue;
            }
            let solved = direct.time("portfolio.solve_in", || portfolio.solve_in(&sreq, &mut ws));
            let solved = match (solved, plan) {
                (Ok(sol), Ok(plan)) => {
                    if first {
                        backend_of.insert(op, (sol.stats.backend, plan.cost.work));
                    }
                    Some(sol)
                }
                _ => {
                    report.fail(format!("serve request {idx}: direct solve failed"));
                    None
                }
            };
            if let ServiceInstance::Dag(dag) = &inst {
                let csr = direct.time("dag.csr", || dag.csr());
                if first {
                    csrs += 1;
                    keyed += u64::from(csr.cost_keys().is_some());
                }
                if req.kind == Kind::Rls {
                    let rank = direct.time("listsched.rank", || {
                        PriorityOrder::Index.rank_csr(dag.graph(), &csr)
                    });
                    let cap = gen::SERVE_DELTA * dag.mmax_lower_bound();
                    let mut admission = MemoryCapAdmission::new(dag.m(), cap);
                    let out = direct.time("listsched.kernel", || {
                        event_driven_schedule_csr(&csr, dag.m(), &rank, &mut admission, &mut ws)
                    });
                    let Ok(outcome) = out else {
                        report.fail(format!("serve request {idx}: kernel run failed"));
                        continue;
                    };
                    let assembled = direct.time("core.assemble", || {
                        let lb = dag.mmax_lower_bound();
                        let result = RlsResult {
                            schedule: outcome.schedule,
                            lb,
                            memory_cap: gen::SERVE_DELTA * lb,
                            marked: outcome.marked,
                            guarantee: rls_guarantee(gen::SERVE_DELTA, dag.m()),
                            config: RlsConfig::new(gen::SERVE_DELTA),
                        };
                        let bounds = BoundReport::with_critical_path(
                            dag.tasks(),
                            dag.m(),
                            dag.critical_path_length(),
                        );
                        result.into_solution(dag.tasks(), BackendId::KernelRls, bounds, true)
                    });
                    if solved.as_ref().map(Digest::of_solution)
                        != Some(Digest::of_solution(&assembled))
                    {
                        report.fail(format!(
                            "serve request {idx}: the kernel path taken apart differs from solve_in"
                        ));
                    }
                    if first {
                        kernel_rounds += csr.n() as u64;
                        rls_ops.push(op);
                    }
                }
            }
        }
    }

    let untraced: BTreeMap<u64, f64> = rls_ops
        .iter()
        .map(|&op| (op, stats::median(&untraced_of[op as usize])))
        .collect();

    let at = |tr: &Tracer, name: &str| per_request(&tr.self_us_by_op(name), len);
    let build = at(&idle, "dag.build");
    let submit_idle = at(&idle, "service.submit");
    let wait = at(&idle, "service.wait");
    let solve = at(&direct, "portfolio.solve_in");
    let csr = at(&direct, "dag.csr");
    let rank = at(&direct, "listsched.rank");
    let kernel = at(&direct, "listsched.kernel");
    let plan = at(&direct, "portfolio.plan");
    let assembly = at(&direct, "core.assemble");
    let get = |m: &BTreeMap<u64, f64>, op: u64| m.get(&op).copied().unwrap_or(0.0);
    // `core.assemble` is what `solve_in` does beyond the kernel path:
    // the routing it repeats (timed as `Portfolio::plan`) and the
    // assembly of the answer. Every term of the sum is timed on its own
    // call, so the sum only matches the untraced latency when no layer
    // is missing or counted twice.
    let mut assemble = Vec::new();
    let mut stage_error = Vec::new();
    let mut closure_sum = Vec::new();
    let mut closure_ratio = Vec::new();
    let mut round_trip = Vec::new();
    for &op in &rls_ops {
        round_trip.push(get(&build, op) + get(&submit_idle, op) + get(&wait, op));
        let asm = get(&plan, op) + get(&assembly, op);
        let stages = get(&csr, op) + get(&rank, op) + get(&kernel, op) + asm;
        let overhead = get(&submit_idle, op) + get(&wait, op) - get(&solve, op);
        let sum = get(&build, op) + stages + overhead;
        assemble.push(asm);
        stage_error.push(stages / get(&solve, op) - 1.0);
        closure_sum.push(sum);
        closure_ratio.push(sum / get(&untraced, op));
    }
    let overhead: Vec<f64> = solve
        .iter()
        .map(|(&op, &s)| get(&submit_idle, op) + get(&wait, op) - s)
        .collect();

    report.metric(
        "dag.build_us.p50",
        stats::median(&build.values().copied().collect::<Vec<_>>()),
        "us",
    );
    report.metric(
        "dag.csr_us.p50",
        stats::median(&csr.values().copied().collect::<Vec<_>>()),
        "us",
    );
    report.metric(
        "dag.keytable_share",
        keyed as f64 / csrs.max(1) as f64,
        "ratio",
    );
    report.counter("dag.keytable_share", keyed as f64 / csrs.max(1) as f64);
    report.metric(
        "listsched.rank_us.p50",
        stats::median(&rank.values().copied().collect::<Vec<_>>()),
        "us",
    );
    report.metric(
        "listsched.kernel_us.p50",
        stats::median(&kernel.values().copied().collect::<Vec<_>>()),
        "us",
    );
    let rounds = serve
        .expected
        .iter()
        .flatten()
        .map(|e| e.rounds)
        .sum::<usize>();
    report.metric("listsched.rounds", rounds as f64, "count");
    report.metric(
        "listsched.ns_per_round",
        kernel.values().sum::<f64>() * 1e3 / kernel_rounds.max(1) as f64,
        "ns",
    );
    report.metric(
        "portfolio.plan_us.p50",
        stats::median(&direct.self_us("portfolio.plan")),
        "us",
    );
    for backend in MIX {
        let ops: Vec<(u64, f64)> = backend_of
            .iter()
            .filter(|(_, (b, _))| *b == backend)
            .map(|(&op, &(_, work))| (op, work))
            .collect();
        let times: Vec<f64> = ops.iter().map(|&(op, _)| get(&solve, op)).collect();
        let work: f64 = ops.iter().map(|&(_, w)| w).sum();
        report.metric(
            format!("portfolio.solve_us.{}.p50", backend.label()),
            stats::median(&times),
            "us",
        );
        report.metric(
            format!("portfolio.ns_per_work_unit.{}", backend.label()),
            times.iter().sum::<f64>() * 1e3 / work,
            "ns",
        );
    }
    report.metric("core.assemble_us.p50", stats::median(&assemble), "us");
    report.metric("service.overhead_us.p50", stats::median(&overhead), "us");

    // Closure: on idle RLS requests the layers' self times add up to the
    // untraced end-to-end latency. A miss makes the traced run incorrect.
    // Each request is compared with its own untraced latency, so the
    // spread of request sizes does not enter the verdict.
    let traced_sum = stats::median(&closure_sum);
    let e2e = stats::median(&untraced.values().copied().collect::<Vec<_>>());
    let ratio = stats::median(&closure_ratio);
    let closure = (ratio - 1.0).abs();
    report.metric("harness.closure_error", closure, "ratio");
    report.note("closure.layer_sum_over_untraced.p50", ratio);
    report.note("closure.layer_sum_us.p50", traced_sum);
    report.note("closure.untraced_latency_us.p50", e2e);
    report.note(
        "closure.traced_round_trip_us.p50",
        stats::median(&round_trip),
    );
    let stage_error = stats::median(&stage_error);
    report.note("closure.stages_over_solve_in.p50", 1.0 + stage_error);
    report.note("closure.requests", rls_ops.len());
    report.note("closure.tolerance", CLOSURE_TOLERANCE);
    if closure > CLOSURE_TOLERANCE {
        report.fail(format!(
            "closure check: the layers add up to {ratio:.3} × the untraced latency (p50 {traced_sum:.1} vs {e2e:.1} µs)"
        ));
    }
    if stage_error.abs() > CLOSURE_TOLERANCE {
        report.fail(format!(
            "closure check: the kernel path's stages add up to {:.3} × solve_in",
            1.0 + stage_error
        ));
    }

    // One pass at the reference rate, traced.
    let mut refr = Tracer::new(true);
    let (phase, before, after) = serve.reference_phase(1, REF_RATE, &mut refr);
    Serve::phase_into(report, &phase);
    let rbuild_dag = refr.self_us_by_op("dag.build");
    let rbuild_ind = refr.self_us_by_op("model.build");
    let rsubmit = refr.self_us_by_op("service.submit");
    let solve_of_idx: BTreeMap<usize, f64> =
        solve.iter().map(|(&op, &s)| (op as usize, s)).collect();
    let queue_wait: Vec<f64> = phase
        .latencies
        .iter()
        .filter(|(_, _, l)| l.is_finite())
        .filter_map(|&(op, idx, l)| {
            let build = rbuild_dag
                .get(&op)
                .or(rbuild_ind.get(&op))
                .copied()
                .unwrap_or(0.0);
            Some(l - build - rsubmit.get(&op).copied().unwrap_or(0.0) - solve_of_idx.get(&idx)?)
        })
        .collect();
    let submit_us: Vec<f64> = rsubmit.values().copied().collect();
    report.metric("service.submit_us.p50", stats::median(&submit_us), "us");
    report.metric(
        "service.submit_us.p99",
        stats::quantile(&submit_us, 0.99),
        "us",
    );
    report.metric(
        "service.queue_wait_us.p99",
        stats::quantile(&queue_wait, 0.99),
        "us",
    );
    for (name, a, b) in [
        (
            "service.admitted",
            after.global.admitted,
            before.global.admitted,
        ),
        (
            "service.refused",
            after.global.refused,
            before.global.refused,
        ),
        (
            "service.degraded",
            after.global.degraded,
            before.global.degraded,
        ),
    ] {
        report.metric(name, (a - b) as f64, "count");
        report.counter(name, (a - b) as f64);
    }
    report.metric(
        "harness.send_lag_us.p99",
        stats::quantile(&phase.lags_us, 0.99),
        "us",
    );
    serve.pool_counters(report);
    spans.push(("serve-idle".into(), idle));
    spans.push(("serve-direct".into(), direct));
    spans.push(("serve-reference".into(), refr));
}
