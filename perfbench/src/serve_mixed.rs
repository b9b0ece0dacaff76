//! `serve_mixed`: open-loop Poisson single-vector requests from four
//! tenants against an `SpmvServer`. Tenants 0–2 send to the tall
//! roadNet-CA analogue, tenant 3 to the wide crankseg_2 analogue, whose
//! values `update_values` refreshes once per second of schedule. The run
//! is split into rounds; each round offers the fixed rate open loop, then
//! measures the served capacity closed loop. A metric is the median of
//! its per-round values, so a slow second of the shared host moves one
//! round, not the result.
//!
//! The schedule, tenants, vector choices and refreshed values all come
//! from the seed before timing starts. One generator thread submits on
//! schedule; latency runs from each request's due time to the moment a
//! waiter thread holds the response. Every response is compared bit for
//! bit with a standalone execute of the values it may have been computed
//! with (those current at submit or any refresh begun since).

use crate::common::{self, bits_eq, secs, Report, Rng, RunConfig};
use crate::metrics::SERVED;
use crate::stats::{median, tail};
use crate::trace::Tracer;
use spmv_autotune::prelude::*;
use spmv_serve::{CacheConfig, CacheError, PlanCache, ServeConfig, SpmvServer, Ticket};
use spmv_sparse::CsrMatrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phases, requests per second.
pub const RATE: f64 = 100.0;
/// The latency limit: each request's deadline is its due time plus this,
/// which orders the server's earliest-deadline tie-breaks.
pub const P99_LIMIT_MS: f64 = 50.0;
/// Rounds per run; each runs `1/ROUNDS` of the open-loop window, then a
/// saturation phase.
const ROUNDS: usize = 8;
/// Saturation phase: requests sent closed loop with this many in flight
/// (two full batches), so the server always has a full batch queued.
const SAT_WINDOW: usize = 16;
/// Requests per saturation phase.
const SAT_REQUESTS: usize = 400;
/// Lowest served rate (req/s) the saturation phase budgets value
/// refreshes for; below it refreshes stop early.
const SAT_MIN_RATE: f64 = 100.0;
const TENANTS: u64 = 4;
const REFRESH_PERIOD_S: f64 = 1.0;
/// Distinct request vectors per matrix (hot, cold).
const X_POOL: [usize; 2] = [32, 8];
/// One waiter per request the closed loop keeps in flight, so a finished
/// response does not queue behind an unfinished one for a free waiter.
const WAITERS: usize = SAT_WINDOW;
const SETUP_REPS: usize = 5;
const HOT: usize = 0;
const COLD: usize = 1;

struct Served {
    name: &'static str,
    a: CsrMatrix<f32>,
    strategy: Strategy,
    plan: VerifiedPlan<f32>,
    xs: Vec<Vec<f32>>,
    /// Standalone results per value version, then per pool vector.
    refs: Vec<Vec<Vec<f32>>>,
}

#[derive(Clone, Copy)]
enum Event {
    Request { tenant: u32, m: usize, x: usize },
    Refresh,
}

/// Tenants 0–2 send to the hot matrix, tenant 3 to the cold one.
fn matrix_of(tenant: u32) -> usize {
    if tenant == 3 {
        COLD
    } else {
        HOT
    }
}

/// Seeded request draws, scaled to a rate only when a phase runs.
struct Draws {
    gaps: Vec<f64>,
    picks: Vec<(u32, usize)>,
}

impl Draws {
    fn new(rng: &mut Rng, n: usize) -> Self {
        let mut gaps = Vec::with_capacity(n);
        let mut picks = Vec::with_capacity(n);
        for _ in 0..n {
            gaps.push(rng.exp1());
            let tenant = (rng.next_u64() % TENANTS) as u32;
            let m = matrix_of(tenant);
            picks.push((tenant, (rng.next_u64() % X_POOL[m] as u64) as usize));
        }
        Draws { gaps, picks }
    }

    /// Due offsets (seconds) of the requests at `rate`, with a refresh
    /// every [`REFRESH_PERIOD_S`] of schedule.
    fn schedule(&self, rate: f64) -> Vec<(f64, Event)> {
        let mut out = Vec::new();
        let mut t = 0.0;
        let mut next_refresh = REFRESH_PERIOD_S;
        for (&g, &(tenant, x)) in self.gaps.iter().zip(&self.picks) {
            t += g / rate;
            while next_refresh <= t {
                out.push((next_refresh, Event::Refresh));
                next_refresh += REFRESH_PERIOD_S;
            }
            let m = matrix_of(tenant);
            out.push((t, Event::Request { tenant, m, x }));
        }
        out
    }
}

/// Value `k` of the cold matrix after refresh `v`.
fn refresh_value(seed: u64, v: usize, k: usize) -> f32 {
    Rng::new(seed ^ v as u64, k as u64).value()
}

/// Standalone results for value versions up to `v_max` (version 0 is
/// the matrix as generated).
fn extend_refs(s: &mut Served, seed: u64, v_max: usize) -> Result<(), String> {
    while s.refs.len() <= v_max {
        let v = s.refs.len();
        let mut a = s.a.clone();
        if v > 0 {
            a.fill_values_with(|k| refresh_value(seed, v, k));
        }
        let ys =
            s.xs.iter()
                .map(|x| {
                    let mut y = vec![0.0f32; a.n_rows()];
                    s.plan
                        .execute_unchecked(&a, x, &mut y)
                        .map(|_| y)
                        .map_err(|e| e.to_string())
                })
                .collect::<Result<Vec<_>, _>>()?;
        s.refs.push(ys);
    }
    Ok(())
}

fn server_config() -> ServeConfig {
    ServeConfig {
        refine: Default::default(),
        ..ServeConfig::default()
    }
}

struct Job {
    idx: usize,
    ticket: Ticket<f32>,
    due: Instant,
    m: usize,
    x: usize,
    v_lo: usize,
}

struct Done {
    idx: usize,
    m: usize,
    at: Instant,
    lat_ms: f64,
    batch_k: usize,
    ok: bool,
}

#[derive(Default)]
struct Phase {
    /// Seconds from the phase start to the last response.
    span_s: f64,
    lat_ms: Vec<f64>,
    m: Vec<usize>,
    batch_k: Vec<usize>,
    late_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Server counters over the phase.
    batches: u64,
    occupancy: Vec<u64>,
    hits: u64,
    lookups: u64,
}

impl Phase {
    fn fold_into(&self, report: &mut Report) {
        report.attempted += self.attempted;
        report.failed += self.failed;
    }

    /// Append another phase's samples and counters (`span_s` is kept).
    fn absorb(&mut self, o: Phase) {
        self.lat_ms.extend(o.lat_ms);
        self.m.extend(o.m);
        self.batch_k.extend(o.batch_k);
        self.late_ms.extend(o.late_ms);
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.batches += o.batches;
        if self.occupancy.is_empty() {
            self.occupancy = vec![0; o.occupancy.len()];
        }
        for (a, b) in self.occupancy.iter_mut().zip(&o.occupancy) {
            *a += b;
        }
        self.hits += o.hits;
        self.lookups += o.lookups;
    }
}

/// How a phase offers its requests.
enum Load<'a> {
    /// Open loop: each event at its due offset (seconds) from the start.
    Open(&'a [(f64, Event)]),
    /// Closed loop: at most `window` requests outstanding, a refresh
    /// every [`REFRESH_PERIOD_S`] of wall time up to version `max_version`.
    Closed {
        draws: &'a Draws,
        window: usize,
        max_version: usize,
    },
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Drive one load against the server from this thread, with
/// [`WAITERS`] threads collecting and checking responses.
fn run_phase(
    server: &SpmvServer<f32>,
    served: &[Served],
    load: Load,
    version: &AtomicUsize,
    seed: u64,
    tr: &mut Tracer,
) -> Phase {
    let before = server.stats();
    let (tx, rx) = mpsc::channel::<Job>();
    let rx = Mutex::new(rx);
    // Closed-loop tokens: one per request allowed in flight.
    let window = match load {
        Load::Open(_) => 1,
        Load::Closed { window, .. } => window,
    };
    let (token_tx, token_rx) = mpsc::sync_channel::<()>(window);
    for _ in 0..window {
        token_tx.send(()).expect("token channel open");
    }
    let mut phase = Phase::default();
    let t0 = Instant::now() + Duration::from_millis(5);
    let mut done: Vec<Done> = std::thread::scope(|s| {
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let rx = &rx;
                let token_tx = token_tx.clone();
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let job = rx.lock().expect("waiter queue poisoned").recv();
                        let Ok(job) = job else { break };
                        let r = job.ticket.wait();
                        let now = Instant::now();
                        // The channel holds `window` tokens, so this never
                        // blocks; in an open-loop phase nobody takes them.
                        let _ = token_tx.try_send(());
                        let v_hi = if job.m == COLD {
                            version.load(Ordering::SeqCst)
                        } else {
                            0
                        };
                        let (ok, batch_k) = match r {
                            Ok(resp) => {
                                let refs = &served[job.m].refs;
                                let ok = (job.v_lo..=v_hi.min(refs.len() - 1))
                                    .any(|v| bits_eq(&resp.y, &refs[v][job.x]));
                                (ok, resp.batch_k)
                            }
                            Err(_) => (false, 0),
                        };
                        out.push(Done {
                            idx: job.idx,
                            m: job.m,
                            at: now,
                            lat_ms: now.saturating_duration_since(job.due).as_secs_f64() * 1e3,
                            batch_k,
                            ok,
                        });
                    }
                    out
                })
            })
            .collect();

        let submit = |tr: &mut Tracer,
                      i: usize,
                      (tenant, m, x): (u32, usize, usize),
                      due: Instant,
                      xv: Vec<f32>| {
            let key = if tr.enabled() {
                i.to_string()
            } else {
                String::new()
            };
            let v_lo = if m == COLD {
                version.load(Ordering::SeqCst)
            } else {
                0
            };
            let deadline = due + Duration::from_secs_f64(P99_LIMIT_MS / 1e3);
            match tr.span("serve.submit", &key, || {
                server.submit(tenant, m as u64, xv, deadline)
            }) {
                Ok(ticket) => {
                    let job = Job {
                        idx: i,
                        ticket,
                        due,
                        m,
                        x,
                        v_lo,
                    };
                    tx.send(job).expect("waiters alive");
                    true
                }
                Err(e) => {
                    eprintln!("perfbench: FAILED: submit refused: {e}");
                    false
                }
            }
        };
        let refresh = |tr: &mut Tracer| {
            let v = version.fetch_add(1, Ordering::SeqCst) + 1;
            let key = if tr.enabled() {
                format!("refresh {v}")
            } else {
                String::new()
            };
            let r = tr.span("serve.update_values", &key, || {
                server.update_values(COLD as u64, |k| refresh_value(seed, v, k))
            });
            r.map_err(|e| eprintln!("perfbench: FAILED: update_values: {e}"))
                .is_ok()
        };
        match load {
            Load::Open(events) => {
                for (i, &(due_s, ev)) in events.iter().enumerate() {
                    let due = t0 + Duration::from_secs_f64(due_s);
                    phase.attempted += 1;
                    let ok = match ev {
                        Event::Request { tenant, m, x } => {
                            let xv = served[m].xs[x].clone();
                            sleep_until(due);
                            phase.late_ms.push(due.elapsed().as_secs_f64() * 1e3);
                            submit(tr, i, (tenant, m, x), due, xv)
                        }
                        Event::Refresh => {
                            sleep_until(due);
                            refresh(tr)
                        }
                    };
                    phase.failed += u64::from(!ok);
                }
            }
            Load::Closed {
                draws, max_version, ..
            } => {
                sleep_until(t0);
                let mut next_refresh = REFRESH_PERIOD_S;
                for (i, &(tenant, x)) in draws.picks.iter().enumerate() {
                    let m = matrix_of(tenant);
                    let xv = served[m].xs[x].clone();
                    token_rx.recv().expect("token channel open");
                    if t0.elapsed().as_secs_f64() >= next_refresh
                        && version.load(Ordering::SeqCst) < max_version
                    {
                        next_refresh += REFRESH_PERIOD_S;
                        phase.attempted += 1;
                        phase.failed += u64::from(!refresh(tr));
                    }
                    phase.attempted += 1;
                    if !submit(tr, i, (tenant, m, x), Instant::now(), xv) {
                        // No ticket will hand the token back.
                        phase.failed += 1;
                        let _ = token_tx.try_send(());
                    }
                }
            }
        }
        drop(tx);
        waiters
            .into_iter()
            .flat_map(|w| w.join().expect("waiter thread panicked"))
            .collect()
    });
    done.sort_by_key(|d| d.idx);
    phase.span_s = done
        .iter()
        .map(|d| d.at.saturating_duration_since(t0).as_secs_f64())
        .fold(0.0, f64::max);
    for d in &done {
        if !d.ok {
            phase.failed += 1;
            if phase.failed <= 5 {
                eprintln!(
                    "perfbench: FAILED: request {} response wrong or errored",
                    d.idx
                );
            }
        }
        phase.lat_ms.push(d.lat_ms);
        phase.m.push(d.m);
        phase.batch_k.push(d.batch_k);
    }
    let after = server.stats();
    phase.batches = after.batches - before.batches;
    phase.occupancy = diff(&after.occupancy, &before.occupancy);
    phase.hits = after.cache.hits - before.cache.hits;
    phase.lookups = after.cache.lookups() - before.cache.lookups();
    phase
}

fn diff(a: &[u64], b: &[u64]) -> Vec<u64> {
    a.iter().zip(b).map(|(x, y)| x - y).collect()
}

/// Refresh events the schedule holds.
fn refreshes(events: &[(f64, Event)]) -> usize {
    events
        .iter()
        .filter(|(_, e)| matches!(e, Event::Refresh))
        .count()
}

/// Start a server, register both matrices with their predicted
/// strategies, and wait for the first (cold-plan) response of each.
fn start_server(
    model: &TrainedModel,
    served: &[Served],
    report: &mut Report,
) -> (SpmvServer<f32>, f64) {
    let mats: Vec<CsrMatrix<f32>> = served.iter().map(|s| s.a.clone()).collect();
    let xs: Vec<Vec<f32>> = served.iter().map(|s| s.xs[0].clone()).collect();
    let t = Instant::now();
    let server = SpmvServer::start(server_config());
    for (m, a) in mats.into_iter().enumerate() {
        let strategy = model.predict_strategy(&a);
        server.register_matrix(m as u64, a, strategy);
    }
    let far = Instant::now() + Duration::from_secs(1);
    let tickets: Vec<_> = xs
        .into_iter()
        .enumerate()
        .map(|(m, x)| server.submit(0, m as u64, x, far))
        .collect();
    let ys: Vec<_> = tickets
        .into_iter()
        .map(|t| {
            t.map_err(|e| e.to_string())
                .and_then(|t| t.wait().map_err(|e| e.to_string()))
        })
        .collect();
    let dt = secs(t);
    for (m, y) in ys.iter().enumerate() {
        let ok = y
            .as_ref()
            .is_ok_and(|r| bits_eq(&r.y, &served[m].refs[0][0]));
        report.check(ok, || {
            format!("{}: first response wrong or failed", served[m].name)
        });
    }
    (server, dt)
}

fn occupancy_mean(occupancy: &[u64]) -> f64 {
    let batches: u64 = occupancy.iter().sum();
    let cols: u64 = occupancy
        .iter()
        .enumerate()
        .map(|(k, &c)| (k as u64 + 1) * c)
        .sum();
    cols as f64 / batches.max(1) as f64
}

/// K = 8 SpMM over the traffic mix (three hot batches per cold one)
/// through the standalone plans, `reps` times; each column must equal
/// its single-vector result. Returns the seconds of each mix.
fn spmm8_mix(
    served: &[Served],
    outs: &mut [DenseBlock<f32>],
    reps: usize,
    report: &mut Report,
) -> Vec<f64> {
    let blocks: Vec<DenseBlock<f32>> = served
        .iter()
        .map(|s| DenseBlock::from_columns(&s.xs[..8]))
        .collect();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        for m in [HOT, HOT, HOT, COLD] {
            let s = &served[m];
            let r = s
                .plan
                .execute_batch_unchecked(&s.a, &blocks[m], &mut outs[m]);
            report.check(r.is_ok(), || format!("{}: execute_batch error", s.name));
        }
        times.push(secs(t));
        for (s, y) in served.iter().zip(outs.iter()) {
            let ok = (0..8).all(|j| bits_eq(&y.column(j), &s.refs[0][j]));
            report.check(ok, || format!("{}: K = 8 column differs", s.name));
        }
    }
    times
}

/// Run the workload.
pub fn run(cfg: &RunConfig, report: &mut Report) -> Result<(), String> {
    let model = common::load_model();
    let mut tr = Tracer::new(cfg.trace);
    let mut rng = Rng::new(cfg.seed, 0x5345_5256);
    let mut served = Vec::new();
    for (m, name) in SERVED.into_iter().enumerate() {
        let a = spmv_sparse::suite::by_name(name)
            .ok_or_else(|| format!("{name} missing from the suite"))?
            .generate();
        let strategy = model.predict_strategy(&a);
        let plan = common::plan_chain(&model, &a, &mut tr, name)?;
        let xs: Vec<Vec<f32>> = (0..X_POOL[m]).map(|_| rng.vector(a.n_cols())).collect();
        let mut s = Served {
            name,
            a,
            strategy,
            plan,
            xs,
            refs: Vec::new(),
        };
        extend_refs(&mut s, cfg.seed, 0)?;
        served.push(s);
    }
    if cfg.trace {
        common::setup_layer_metrics(&tr, report);
    }

    // Seeded draws for every round, made before any timing: an open-loop
    // schedule (the traced run offers it twice) and the closed-loop picks.
    let per_round = (RATE * cfg.seconds / ROUNDS as f64).ceil() as usize;
    let sat_n = if cfg.tiny { 40 } else { SAT_REQUESTS };
    let rounds: Vec<(Vec<(f64, Event)>, Draws)> = (0..ROUNDS)
        .map(|_| {
            let open = Draws::new(&mut rng, per_round).schedule(RATE);
            (open, Draws::new(&mut rng, sat_n))
        })
        .collect();

    // The K = 8 mix is sampled before the rounds and after each one.
    let mut outs: Vec<DenseBlock<f32>> = served
        .iter()
        .map(|s| DenseBlock::zeros(s.a.n_rows(), 8))
        .collect();
    let slice = if cfg.tiny { 2 } else { 20 };
    let mut mix_s = spmm8_mix(&served, &mut outs, slice, report);

    // Set-up: start → first cold-plan response per matrix.
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..reps {
        drop(kept.take());
        let (server, dt) = start_server(&model, &served, report);
        setup_s.push(dt);
        kept = Some(server);
    }
    let server = kept.expect("at least one set-up");
    let version = AtomicUsize::new(0);
    let mut untraced = Tracer::new(false);

    let open = |served: &mut Vec<Served>, events: &[(f64, Event)], tr: &mut Tracer| {
        let v_max = version.load(Ordering::SeqCst) + refreshes(events);
        extend_refs(&mut served[COLD], cfg.seed, v_max)?;
        let load = Load::Open(events);
        Ok::<_, String>(run_phase(&server, served, load, &version, cfg.seed, tr))
    };
    // Closed loop, so the served rate is the capacity.
    let closed = |served: &mut Vec<Served>, draws: &Draws, tr: &mut Tracer| {
        let max_version = version.load(Ordering::SeqCst)
            + (draws.picks.len() as f64 / SAT_MIN_RATE / REFRESH_PERIOD_S).ceil() as usize;
        extend_refs(&mut served[COLD], cfg.seed, max_version)?;
        let load = Load::Closed {
            draws,
            window: SAT_WINDOW,
            max_version,
        };
        Ok::<_, String>(run_phase(&server, served, load, &version, cfg.seed, tr))
    };
    // Per round: open-loop p50, traced open-loop p50, and the capacity
    // as (req/s, GFLOP/s, mean batch width).
    let (mut p50s, mut p50s_traced, mut caps) = (Vec::new(), Vec::new(), Vec::new());
    let (mut all, mut traced) = (Phase::default(), Phase::default());
    for (events, sat) in &rounds {
        let a = open(&mut served, events, &mut untraced)?;
        a.fold_into(report);
        p50s.push(median(&a.lat_ms));
        all.absorb(a);
        if cfg.trace {
            let b = open(&mut served, events, &mut tr)?;
            b.fold_into(report);
            p50s_traced.push(median(&b.lat_ms));
            traced.absorb(b);
        } else {
            let c = closed(&mut served, sat, &mut untraced)?;
            c.fold_into(report);
            let flops: f64 = c.m.iter().map(|&m| 2.0 * served[m].a.nnz() as f64).sum();
            caps.push((
                c.m.len() as f64 / c.span_s,
                flops / c.span_s / 1e9,
                occupancy_mean(&c.occupancy),
            ));
        }
        mix_s.extend(spmm8_mix(&served, &mut outs, slice, report));
    }

    let list = |v: &mut dyn Iterator<Item = f64>| {
        v.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ")
    };
    println!(
        "serve_mixed (offered {RATE} req/s in {ROUNDS} rounds, deadline {P99_LIMIT_MS} ms, 3:1 hot:cold):"
    );
    common::print_setup(&setup_s);
    common::print_timing(
        "latency_ms from due, all rounds (p99 not gated)",
        "ms",
        &all.lat_ms,
    );
    let p50 = median(&p50s);
    println!(
        "  p50_ms: {p50:.4} ms, median of the round medians [{}]",
        list(&mut p50s.iter().copied())
    );
    report.set("setup_s", median(&setup_s));
    report.set("p50_ms", p50);

    if cfg.trace {
        // `start_server` records no spans, so tracing adds nothing there.
        report.set("trace.overhead_setup_s", 0.0);
        report.set("trace.overhead_p50_ms", median(&p50s_traced) - p50);
        per_layer(&server, &served, &traced, &mut tr, report)?;
        crate::print_trace_summary(&tr);
    } else {
        let gflops: Vec<f64> = caps.iter().map(|c| c.1).collect();
        println!(
            "  capacity (gflops): {:.4} GFLOP/s, median of the rounds [{}] with {SAT_WINDOW} in flight; req/s [{}], mean batch [{}]",
            median(&gflops),
            list(&mut gflops.iter().copied()),
            list(&mut caps.iter().map(|c| c.0)),
            list(&mut caps.iter().map(|c| c.2)),
        );
        report.set("gflops", median(&gflops));
    }
    let mix_flops = 8.0 * 2.0 * (3 * served[HOT].a.nnz() + served[COLD].a.nnz()) as f64;
    let spmm8 = mix_flops / median(&mix_s) / 1e9;
    println!("  spmm8_gflops: {spmm8:.4} GFLOP/s (3 hot + 1 cold K = 8 batches)");
    report.set("spmm8_gflops", spmm8);
    server.shutdown();
    Ok(())
}

/// Serving per-layer metrics from the traced phase, plus a replay of the
/// dispatcher's calls for each matrix at its observed batch width.
fn per_layer(
    server: &SpmvServer<f32>,
    served: &[Served],
    p: &Phase,
    tr: &mut Tracer,
    report: &mut Report,
) -> Result<(), String> {
    let stats = server.stats();
    report.set(
        "serve.submit_us",
        median(&tr.durations("serve.submit", None)) / 1e3,
    );
    report.set("serve.gen_late_ms", tail(&p.late_ms).value);
    report.set("serve.batches", p.batches as f64);
    report.set("serve.occupancy_mean", occupancy_mean(&p.occupancy));
    report.set("cache.hit_rate", p.hits as f64 / p.lookups.max(1) as f64);
    report.set("cache.builds", stats.cache.builds as f64);
    report.set(
        "serve.update_values_ms",
        median(&tr.durations("serve.update_values", None)) / 1e6,
    );

    let mut service_ms = [0.0f64; 2];
    for (m, s) in served.iter().enumerate() {
        // Observed batch width: responses over batches for this matrix.
        let batches: f64 =
            p.m.iter()
                .zip(&p.batch_k)
                .filter(|(&mm, &k)| mm == m && k > 0)
                .map(|(_, &k)| 1.0 / k as f64)
                .sum();
        let responses = p.m.iter().filter(|&&mm| mm == m).count() as f64;
        let k = ((responses / batches.max(1e-9)).round() as usize).clamp(1, 8);
        let cache = PlanCache::<f32>::new(CacheConfig::default());
        let pc = PlanConfig::default();
        let build = || {
            SpmvPlan::compile_with(
                &s.a,
                s.strategy.clone(),
                Box::new(NativeCpuBackend::new()),
                pc,
            )
            .verify(&s.a)
            .map_err(|e| CacheError::Build(e.to_string()))
        };
        cache
            .get_or_build(&s.a, &pc, build)
            .map_err(|e| e.to_string())?;
        for _ in 0..30 {
            let plan = tr
                .span("cache.lookup", s.name, || {
                    cache.get_or_build(&s.a, &pc, || {
                        Err(CacheError::Build("rebuild on a warm hit".into()))
                    })
                })
                .map_err(|e| e.to_string())?;
            let x = tr.span("dense_block.gather", s.name, || {
                DenseBlock::from_columns(&s.xs[..k])
            });
            let mut y = DenseBlock::zeros(s.a.n_rows(), k);
            let r = tr.span("plan.spmm", s.name, || {
                plan.execute_batch_unchecked(&s.a, &x, &mut y)
            });
            let cols = tr.span("dense_block.scatter", s.name, || {
                (0..k).map(|j| y.column(j)).collect::<Vec<_>>()
            });
            let ok = r.is_ok() && cols.iter().zip(&s.refs[0]).all(|(c, r)| bits_eq(c, r));
            report.check(ok, || format!("{}: replayed batch differs", s.name));
        }
        let mut total = 0.0;
        for (span, metric) in [
            ("cache.lookup", "cache.lookup_us"),
            ("dense_block.gather", "dense_block.gather_us"),
            ("plan.spmm", "plan.spmm_us"),
            ("dense_block.scatter", "dense_block.scatter_us"),
        ] {
            let us = median(&tr.durations(span, Some(s.name))) / 1e3;
            total += us / 1e3;
            report.set(format!("{metric}.{}", s.name), us);
        }
        service_ms[m] = total;
        println!("  replay {}: K = {k}, service {total:.3} ms", s.name);
    }
    let wait: Vec<f64> = p
        .lat_ms
        .iter()
        .zip(&p.m)
        .map(|(l, &m)| l - service_ms[m])
        .collect();
    report.set("serve.wait_ms", median(&wait));
    report.set("serve.failed", report.failed as f64);
    Ok(())
}
