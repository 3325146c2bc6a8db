//! `serve-exit`: the serving data plane, `adapex::serve::ServeEngine`
//! and `adapex_nn::serve::BatchExecutor`, on a width-8 CNV under an
//! open loop of Poisson arrivals.
//!
//! The loop never sleeps. Its clock is virtual and advances by the
//! measured wall time of every call into `ServeEngine` and the
//! executor; idle gaps jump straight to the next arrival or batch
//! deadline. Arrivals therefore land exactly when they are due, and a
//! request's latency runs from when it was due to its verdict.

use crate::ledger::{self, TracedExecutor};
use crate::stats::{hist_bucket, median, rank_quantile};
use crate::{median_setup, obj, Args, Outcome};
use adapex::serve::{
    generate_arrivals, Arrival, ArrivalPattern, ServeConfig, ServeEngine, ServeReport,
};
use adapex_dataset::{DatasetKind, LabeledImages, SyntheticConfig};
use adapex_nn::eval::{evaluate_exits_with, EvalConfig, ExitEvaluation};
use adapex_nn::layers::Activation;
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::{BatchExecutor, BatchVerdicts, EnginePlan, ExecutorConfig};
use adapex_tensor::int2;
use serde_json::Value;
use std::time::{Duration, Instant};

/// Fixed seed of the served network's weights.
const NET_SEED: u64 = 0x5E17E;
const DATA_SALT: u64 = 0xDA7A_5E7E;
const ARRIVAL_SALT: u64 = 0xA771_7A15;
/// Held-out images the threshold is calibrated on.
const CAL_IMAGES: usize = 512;
/// Distinct request images; request `id` carries image `id % POOL_IMAGES`.
const POOL_IMAGES: usize = 1024;
/// Share of serve-exit requests the calibrated threshold retires at exit 1.
const TARGET_EXIT1: f64 = 0.85;
/// Above any softmax confidence: every image runs to the final exit.
/// The traced run's full-depth reconciliation uses it.
const FULL_THRESHOLD: f32 = 2.0;
/// Poisson arrival rate: about a fifth of the batch-16 executor
/// capacity on a quiet 2-core x86-64 host, and under half of it when
/// heavy steal halves that capacity. At higher rates, queueing
/// amplified host steal into the median latency.
const EXIT_RATE_RPS: f64 = 500.0;
/// Virtual seconds of arrivals generated at a time.
const ARRIVAL_CHUNK_S: f64 = 10.0;
/// Arrival classes `[gold, best-effort]` in a 1:3 mix.
const CLASS_WEIGHTS: [f64; 2] = [1.0, 3.0];
/// Completed requests per throughput window; `ops_per_s` is the median
/// window rate.
const WINDOW: u64 = 64;
/// Set-up passes per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Images per pass, and interleaved rounds, of the full-depth
/// reconciliation in a traced run.
const RECONCILE_IMAGES: usize = 256;
const RECONCILE_ROUNDS: usize = 7;

/// The verdict a full forward (`evaluate_exits`) implies at a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    exit: usize,
    conf_bits: u32,
    correct: bool,
}

/// First exit whose confidence clears `threshold`, the final exit
/// otherwise — `ExitEvaluation::at_threshold`'s rule, per sample.
fn expected_verdicts(eval: &ExitEvaluation, threshold: f32) -> Vec<Expected> {
    let last = eval.num_exits() - 1;
    (0..eval.samples)
        .map(|s| {
            let exit = (0..last)
                .find(|&e| eval.confidence[e][s] >= threshold)
                .unwrap_or(last);
            Expected {
                exit,
                conf_bits: eval.confidence[exit][s].to_bits(),
                correct: eval.correct[exit][s],
            }
        })
        .collect()
}

/// Whether a served verdict is the expected one: same exit, same
/// confidence bits, same correctness against the label.
fn verdict_ok(exp: &Expected, exit: usize, class: usize, conf: f32, label: usize) -> bool {
    exp.exit == exit && exp.conf_bits == conf.to_bits() && exp.correct == (class == label)
}

/// Poisson arrivals, generated in seeded chunks of `ARRIVAL_CHUNK_S`
/// virtual seconds as the loop reaches them, so however fast serving
/// gets, a run never runs out of arrivals. Each chunk is an independent
/// Poisson process on its own interval, so the stream is one too, and
/// it depends only on the seed.
#[derive(Clone)]
struct ArrivalStream {
    seed: u64,
    chunks: u64,
    buf: Vec<Arrival>,
}

impl ArrivalStream {
    fn new(seed: u64) -> Self {
        let mut stream = ArrivalStream {
            seed,
            chunks: 0,
            buf: Vec::new(),
        };
        stream.extend();
        stream
    }

    fn extend(&mut self) {
        let offset_us = (self.chunks as f64 * ARRIVAL_CHUNK_S * 1e6) as u64;
        let chunk_seed = self
            .seed
            .wrapping_add(self.chunks.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let chunk = generate_arrivals(
            ArrivalPattern::Steady,
            EXIT_RATE_RPS,
            ARRIVAL_CHUNK_S,
            &CLASS_WEIGHTS,
            chunk_seed,
        );
        self.buf.extend(chunk.into_iter().map(|a| Arrival {
            at_us: a.at_us + offset_us,
            ..a
        }));
        self.chunks += 1;
    }

    /// Arrival `i`, generating chunks until it exists.
    fn get(&mut self, i: usize) -> Arrival {
        while i >= self.buf.len() {
            self.extend();
        }
        self.buf[i]
    }
}

struct Setup {
    net: EarlyExitNetwork,
    threshold: f32,
    pool: LabeledImages,
    expected: Vec<Expected>,
    arrivals: ArrivalStream,
}

fn split(images: &LabeledImages, range: std::ops::Range<usize>) -> LabeledImages {
    let (c, h, w) = images.dims();
    let mut out = LabeledImages::new(c, h, w);
    for i in range {
        out.push(images.image(i), images.label(i), images.difficulty(i));
    }
    out
}

/// Confidence threshold retiring `TARGET_EXIT1` of the calibration
/// split at exit 1: the `1 - target` quantile of exit-1 confidences.
fn calibrate(net: &EarlyExitNetwork, cal: &LabeledImages) -> f32 {
    let mut exec = BatchExecutor::new(
        net,
        &ExecutorConfig {
            threshold: 0.0,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    let mut out = BatchVerdicts::default();
    let mut confs = Vec::with_capacity(cal.len());
    let idx: Vec<usize> = (0..cal.len()).collect();
    for chunk in idx.chunks(64) {
        let (pixels, _) = cal.gather(chunk);
        exec.run_batch(
            &Activation::new(pixels, chunk.len(), net.input_dims.clone()),
            &mut out,
        );
        confs.extend_from_slice(&out.confidence);
    }
    confs.sort_by(|a, b| a.total_cmp(b));
    confs[(((1.0 - TARGET_EXIT1) * confs.len() as f64) as usize).min(confs.len() - 1)]
}

fn setup(args: &Args) -> Setup {
    let net = ledger::build_net(NET_SEED);
    let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
        .with_seed(args.seed ^ DATA_SALT)
        .with_sizes(0, CAL_IMAGES + POOL_IMAGES)
        .generate();
    let cal = split(&data.test, 0..CAL_IMAGES);
    let pool = split(&data.test, CAL_IMAGES..CAL_IMAGES + POOL_IMAGES);
    let threshold = calibrate(&net, &cal);
    let eval = evaluate_exits_with(&mut net.clone(), &pool, EvalConfig { batch: 64, jobs: 1 });
    let expected = expected_verdicts(&eval, threshold);
    Setup {
        net,
        threshold,
        pool,
        expected,
        arrivals: ArrivalStream::new(args.seed ^ ARRIVAL_SALT),
    }
}

/// Serving config: `ServeConfig::paper_default` batching with budgets
/// and queue capacities far above any host stall, so the run sheds and
/// drops nothing and every request gets a verdict.
fn serve_config() -> ServeConfig {
    let mut cfg = ServeConfig::paper_default();
    for (class, budget_us) in cfg.classes.iter_mut().zip([10_000_000, 30_000_000]) {
        class.budget_us = budget_us;
        class.queue_capacity = 1 << 20;
    }
    cfg
}

/// The batch runner under test: the real executor or the traced replay.
trait Runner {
    fn run(&mut self, x: &Activation, out: &mut BatchVerdicts);
}

impl Runner for BatchExecutor {
    fn run(&mut self, x: &Activation, out: &mut BatchVerdicts) {
        self.run_batch(x, out);
    }
}

impl Runner for TracedExecutor {
    fn run(&mut self, x: &Activation, out: &mut BatchVerdicts) {
        self.run_batch(x, out);
    }
}

/// What one serving loop measured.
#[derive(Default)]
struct Served {
    offered: u64,
    completed: u64,
    /// Per completed request, due → verdict on the virtual clock.
    latency_ns: Vec<u64>,
    /// The same in whole µs as the engine computes it, per class.
    latency_us_by_class: Vec<Vec<u64>>,
    queue_wait_ns: Vec<u64>,
    service_ns: Vec<u64>,
    window_rates: Vec<f64>,
    engine_ns: u64,
    batches: u64,
    bad_verdicts: u64,
    first_bad: Option<String>,
    report: Option<ServeReport>,
}

/// Runs `f`, returning its result and wall nanoseconds.
fn timed<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let t0 = Instant::now();
    let v = f();
    (v, t0.elapsed().as_nanos() as u64)
}

struct Loop<'a, R: Runner> {
    s: &'a Setup,
    runner: &'a mut R,
    arrivals: ArrivalStream,
    engine: ServeEngine,
    served: Served,
    verdicts: BatchVerdicts,
    now: u64,
    window_done: u64,
    window_busy: u64,
}

impl<'a, R: Runner> Loop<'a, R> {
    fn new(s: &'a Setup, runner: &'a mut R) -> Self {
        let cfg = serve_config();
        let classes = cfg.classes.len();
        // The estimator only matters for shedding, which the budgets
        // rule out; rough per-exit costs keep it well defined.
        let engine = ServeEngine::new(cfg, vec![300, 450, 500], vec![0.85, 0.10, 0.05]);
        Loop {
            s,
            runner,
            arrivals: s.arrivals.clone(),
            engine,
            served: Served {
                latency_us_by_class: vec![Vec::new(); classes],
                ..Served::default()
            },
            verdicts: BatchVerdicts::default(),
            now: 0,
            window_done: 0,
            window_busy: 0,
        }
    }

    fn due_ns(&mut self, i: usize) -> u64 {
        self.arrivals.get(i).at_us * 1000
    }

    fn offer(&mut self, i: usize) {
        let a = self.arrivals.get(i);
        let (accepted, ns) = timed(|| self.engine.offer(i as u64, a.class, a.at_us));
        assert!(accepted, "queue capacities exceed any run's arrivals");
        self.now += ns;
        self.served.engine_ns += ns;
        self.window_busy += ns;
        self.served.offered += 1;
    }

    /// Closes a batch at the current clock, serves it and records every
    /// member's verdict and latency.
    fn serve_batch(&mut self) {
        let t_close = self.now;
        let (members, ns) = timed(|| self.engine.close_batch(t_close / 1000));
        self.now += ns;
        self.served.engine_ns += ns;
        self.window_busy += ns;
        if members.is_empty() {
            return;
        }
        let pool = &self.s.pool;
        let mut pixels = Vec::with_capacity(members.len() * pool.image_len());
        for m in &members {
            pixels.extend_from_slice(pool.image(m.id as usize % POOL_IMAGES));
        }
        let x = Activation::new(pixels, members.len(), self.s.net.input_dims.clone());
        let ((), ns) = timed(|| self.runner.run(&x, &mut self.verdicts));
        drop(x);
        self.now += ns;
        self.window_busy += ns;
        let finish = self.now;
        let exits = &self.verdicts.exit;
        let ((), ns) = timed(|| self.engine.complete_batch(&members, finish / 1000, exits));
        self.now += ns;
        self.served.engine_ns += ns;
        self.window_busy += ns;
        self.served.batches += 1;
        for (i, m) in members.iter().enumerate() {
            let idx = m.id as usize % POOL_IMAGES;
            let (exit, class, conf) = (
                self.verdicts.exit[i],
                self.verdicts.class[i],
                self.verdicts.confidence[i],
            );
            if !verdict_ok(&self.s.expected[idx], exit, class, conf, pool.label(idx)) {
                self.served.bad_verdicts += 1;
                self.served.first_bad.get_or_insert_with(|| {
                    format!(
                        "request {} (image {idx}): exit {exit} class {class} conf {conf} vs {:?}",
                        m.id, self.s.expected[idx]
                    )
                });
            }
            let due_ns = m.arrival_us * 1000;
            self.served.latency_ns.push(finish - due_ns);
            self.served.latency_us_by_class[m.class].push(finish / 1000 - m.arrival_us);
            self.served
                .queue_wait_ns
                .push(t_close.saturating_sub(due_ns));
            self.served.service_ns.push(finish - t_close);
        }
        self.served.completed += members.len() as u64;
        self.window_done += members.len() as u64;
        if self.window_done >= WINDOW {
            self.served
                .window_rates
                .push(self.window_done as f64 / (self.window_busy as f64 / 1e9));
            self.window_done = 0;
            self.window_busy = 0;
        }
    }

    /// Open loop over the Poisson arrivals; stops offering after
    /// `limit` of host time and drains the queues.
    fn run(mut self, limit: Duration) -> Served {
        let start = Instant::now();
        let cfg = self.engine.config().clone();
        let window_ns = cfg.batch_deadline_us * 1000;
        let mut next = 0usize;
        let mut open = true;
        loop {
            open = open && start.elapsed() < limit;
            while open && self.due_ns(next) <= self.now {
                self.offer(next);
                next += 1;
            }
            if self.engine.queued() == 0 {
                if !open {
                    break;
                }
                self.now = self.now.max(self.due_ns(next));
                continue;
            }
            // Assembly window: later arrivals join until it closes or
            // the batch is full.
            let deadline = self.now + window_ns;
            while open && self.engine.queued() < cfg.max_batch && self.due_ns(next) <= deadline {
                self.now = self.now.max(self.due_ns(next));
                self.offer(next);
                next += 1;
            }
            if self.engine.queued() < cfg.max_batch {
                self.now = self.now.max(deadline);
            }
            self.serve_batch();
        }
        self.finish()
    }

    fn finish(mut self) -> Served {
        self.served.report = Some(self.engine.finish(self.now / 1000));
        self.served
    }
}

/// Output checks shared by traced and untraced runs.
fn check_served(out: &mut Outcome, served: &Served) {
    let report = served.report.as_ref().expect("finished loop");
    out.check(served.bad_verdicts == 0, || {
        format!(
            "{} verdicts differ from the full-forward reference; first: {}",
            served.bad_verdicts,
            served.first_bad.clone().unwrap_or_default()
        )
    });
    out.check(report.conservation_holds(), || {
        "offered != completed + dropped + shed + residual".into()
    });
    out.check(
        report.offered == served.offered
            && report.completed == served.completed
            && served.completed == served.offered,
        || {
            format!(
                "offered {} / completed {} (engine {} / {}): every request needs a verdict",
                served.offered, served.completed, report.offered, report.completed
            )
        },
    );
    for (c, stats) in report.per_class.iter().enumerate() {
        let exact = &served.latency_us_by_class[c];
        for (q, engine_q) in [(0.5, stats.p50_us()), (0.99, stats.p99_us())] {
            let mine = rank_quantile(exact, q);
            let ok = match (mine, engine_q) {
                (Some(v), Some(e)) => hist_bucket(v).0 == e,
                (None, None) => true,
                _ => false,
            };
            out.check(ok, || {
                format!(
                    "class {c} p{}: exact {mine:?} µs outside the engine's bucket {engine_q:?}",
                    q * 100.0
                )
            });
        }
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let limit = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let s = setup(args);
        traced(args, &s, &mut out);
        return out;
    }
    let (setup_s, s) = median_setup(SETUP_REPS, || setup(args));
    let mut exec = BatchExecutor::new(
        &s.net,
        &ExecutorConfig {
            threshold: s.threshold,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    let served = Loop::new(&s, &mut exec).run(limit);
    check_served(&mut out, &served);
    out.attempted = served.offered;
    let p50 = rank_quantile(&served.latency_ns, 0.5).unwrap_or(0) as f64 / 1e6;
    let p99 = rank_quantile(&served.latency_ns, 0.99).unwrap_or(0) as f64 / 1e6;
    out.set("setup_s", setup_s);
    out.set("ops_per_s", median(&served.window_rates));
    out.set("op_p50_ms", p50);
    let report = served.report.as_ref().expect("finished loop");
    out.detail.push((
        "serve".into(),
        obj(vec![
            ("threshold", Value::Float(f64::from(s.threshold))),
            ("requests", Value::UInt(served.completed)),
            ("batches", Value::UInt(served.batches)),
            (
                "exit_counts",
                Value::Array(report.exit_counts.iter().map(|&c| Value::UInt(c)).collect()),
            ),
            ("p50_ms", Value::Float(p50)),
            ("p99_ms", Value::Float(p99)),
            ("windows", Value::UInt(served.window_rates.len() as u64)),
            (
                "img_per_s_windows",
                Value::Array(
                    served
                        .window_rates
                        .iter()
                        .map(|&r| Value::Float(r))
                        .collect(),
                ),
            ),
        ]),
    ));
    eprintln!(
        "serve-exit: {} requests in {} batches, exits {:?}, {:.0} img/s, p50 {p50:.3} ms, p99 {p99:.3} ms, set-up {setup_s:.3} s",
        served.completed,
        served.batches,
        report.exit_counts,
        median(&served.window_rates),
    );
    out
}

/// Median wall ns per image of `runner` over `passes` passes of `xs`.
fn ns_per_img<R: Runner>(runner: &mut R, xs: &[Activation]) -> f64 {
    let mut v = BatchVerdicts::default();
    let t0 = Instant::now();
    for x in xs {
        runner.run(x, &mut v);
    }
    t0.elapsed().as_nanos() as f64 / xs.iter().map(|x| x.n).sum::<usize>() as f64
}

fn batches_of(s: &Setup, n: usize, size: usize) -> Vec<Activation> {
    let idx: Vec<usize> = (0..n).collect();
    idx.chunks(size)
        .map(|c| {
            let (pixels, _) = s.pool.gather(c);
            Activation::new(pixels, c.len(), s.net.input_dims.clone())
        })
        .collect()
}

/// The traced run: the same loop through [`TracedExecutor`], then a
/// full-depth reconciliation of layer times against the executor.
fn traced(args: &Args, s: &Setup, out: &mut Outcome) {
    let limit = Duration::from_secs_f64(args.seconds / 2.0);
    let mut tracer = TracedExecutor::new(&s.net, s.threshold);
    let (m0, p0) = int2::op_counters();
    let d0 = int2::direct_conv_calls();
    let served = Loop::new(s, &mut tracer).run(limit);
    let (m1, p1) = int2::op_counters();
    let d1 = int2::direct_conv_calls();
    check_served(out, &served);
    out.attempted = served.offered;
    let per_req = |v: u64| v as f64 / served.completed.max(1) as f64;

    for r in &tracer.rows {
        out.set(&format!("layer.{}.us_per_img", r.name), r.us_per_img());
        if r.is_matrix {
            out.set(&format!("layer.{}.gops", r.name), r.gops());
        }
    }
    let cost = tracer.cost_to_exit_us();
    out.set("exec.exit0.us_per_img", cost[0]);
    out.set("exec.exit1.us_per_img", cost[1]);
    out.set("exec.final.us_per_img", cost[2]);
    out.set(
        "exec.compact.us_per_batch",
        tracer.compact_ns as f64 / 1e3 / tracer.batches.max(1) as f64,
    );
    out.set(
        "exec.batch_fill",
        tracer.imgs as f64 / tracer.batches.max(1) as f64,
    );
    out.set("kernel.int2_macs_per_img", per_req(m1 - m0));
    out.set("kernel.popcount_words_per_img", per_req(p1 - p0));
    out.set("kernel.direct_convs_per_img", per_req(d1 - d0));
    out.set(
        "engine.queue_wait_ms_p50",
        rank_quantile(&served.queue_wait_ns, 0.5).unwrap_or(0) as f64 / 1e6,
    );
    out.set(
        "engine.service_ms_p50",
        rank_quantile(&served.service_ns, 0.5).unwrap_or(0) as f64 / 1e6,
    );
    out.set("engine.ns_per_request", per_req(served.engine_ns));
    let loop_rows = tracer.rows_json();

    // Full depth at batch 1: the traced replay's layer sum and wall
    // against the executor's own time, interleaved to share host drift.
    let singles = batches_of(s, RECONCILE_IMAGES, 1);
    let mut exec = BatchExecutor::new(
        &s.net,
        &ExecutorConfig {
            threshold: FULL_THRESHOLD,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    let mut full = TracedExecutor::new(&s.net, FULL_THRESHOLD);
    // Each round pairs two adjacent passes; the ratios take the median
    // over rounds.
    let (mut exec_ns, mut layer_ratio, mut traced_ratio) = (Vec::new(), Vec::new(), Vec::new());
    ns_per_img(&mut exec, &singles);
    ns_per_img(&mut full, &singles);
    for _ in 0..RECONCILE_ROUNDS {
        full.reset();
        let e = ns_per_img(&mut exec, &singles);
        let t = ns_per_img(&mut full, &singles);
        exec_ns.push(e);
        traced_ratio.push(t / e);
        layer_ratio.push(full.layer_sum_us_per_img() * 1e3 / e);
    }
    let exec_full_ns = median(&exec_ns);
    let layer_sum = median(&layer_ratio);
    ledger::warn_outside(
        "ledger.layer_sum_over_exec",
        layer_sum,
        ledger::LAYER_SUM_TOLERANCE,
    );
    out.set("ledger.layer_sum_over_exec", layer_sum);
    out.set(
        "ledger.trace_overhead_pct",
        (median(&traced_ratio) - 1.0) * 100.0,
    );

    // bench-serving's inference of per-exit costs (two end-to-end rates
    // and an exit-2 cost set halfway), beside the measured stage costs.
    let mut staged = BatchExecutor::new(
        &s.net,
        &ExecutorConfig {
            threshold: s.threshold,
            workers: 1,
            engine: EnginePlan::Auto,
        },
    );
    let batched = batches_of(s, POOL_IMAGES, 16);
    ns_per_img(&mut staged, &batched);
    let m_us = ns_per_img(&mut staged, &batched) / 1e3;
    let mut counts = [0u64; 3];
    let mut v = BatchVerdicts::default();
    for x in &batched {
        staged.run_batch(x, &mut v);
        for &e in &v.exit {
            counts[e] += 1;
        }
    }
    let total = counts.iter().sum::<u64>() as f64;
    let f: Vec<f64> = counts
        .iter()
        .map(|&c| (c as f64 / total).max(1e-6))
        .collect();
    let cfull_us = exec_full_ns / 1e3;
    let c1_us =
        ((m_us - cfull_us * (f[2] + f[1] / 2.0)) / (f[0] + f[1] / 2.0)).clamp(1.0, cfull_us * 0.9);
    let inferred = [c1_us, (c1_us + cfull_us) / 2.0, cfull_us];
    let floats = |xs: &[f64]| Value::Array(xs.iter().map(|&x| Value::Float(x)).collect());
    out.detail.push((
        "ledger".into(),
        obj(vec![
            ("workload_rows", loop_rows),
            ("workload_batches", Value::UInt(served.batches)),
            ("full_depth_batch1_rows", full.rows_json()),
            ("measured_cost_to_exit_us_workload", floats(&cost)),
            (
                "measured_cost_to_exit_us_full_depth_batch1",
                floats(&full.cost_to_exit_us()),
            ),
            ("bench_serving_inferred_cost_to_exit_us", floats(&inferred)),
            ("executor_full_depth_us_per_img", Value::Float(cfull_us)),
            ("executor_batch16_calibrated_us_per_img", Value::Float(m_us)),
            ("exit_fractions_batch16", floats(&f)),
        ]),
    ));
    eprintln!(
        "serve-exit traced: {} requests; cost to exit (µs) measured {:?}, full-depth {:?}, bench-serving infers {:?}",
        served.completed,
        cost,
        full.cost_to_exit_us(),
        inferred
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_nn::eval::evaluate_exits;

    /// A perturbed verdict is rejected: any other exit, confidence bit
    /// or correctness fails the check.
    #[test]
    fn verdict_check_rejects_a_perturbed_verdict() {
        let _counters = ledger::KERNEL_COUNTERS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let net = ledger::build_net(NET_SEED);
        let data = SyntheticConfig::new(DatasetKind::Cifar10Like)
            .with_seed(9)
            .with_sizes(0, 24)
            .generate();
        let eval = evaluate_exits(&mut net.clone(), &data.test);
        let threshold = {
            let mut c = eval.confidence[0].clone();
            c.sort_by(|a, b| a.total_cmp(b));
            c[c.len() / 2]
        };
        let expected = expected_verdicts(&eval, threshold);
        let mut exec = BatchExecutor::new(
            &net,
            &ExecutorConfig {
                threshold,
                workers: 1,
                engine: EnginePlan::Auto,
            },
        );
        let idx: Vec<usize> = (0..data.test.len()).collect();
        let (pixels, labels) = data.test.gather(&idx);
        let mut v = BatchVerdicts::default();
        exec.run_batch(
            &Activation::new(pixels, idx.len(), net.input_dims.clone()),
            &mut v,
        );
        assert!(v.exit.contains(&0) && v.exit.iter().any(|&e| e > 0));
        for i in idx {
            let (e, c, p, y) = (v.exit[i], v.class[i], v.confidence[i], labels[i]);
            assert!(verdict_ok(&expected[i], e, c, p, y), "sample {i}");
            assert!(!verdict_ok(&expected[i], (e + 1) % 3, c, p, y));
            assert!(!verdict_ok(
                &expected[i],
                e,
                c,
                f32::from_bits(p.to_bits() ^ 1),
                y
            ));
            let flipped = if c == y { (c + 1) % 10 } else { y };
            assert!(!verdict_ok(&expected[i], e, flipped, p, y));
        }
    }
}
