//! `generate`: cold design-time library generation
//! (`LibraryGenerator::generate_with_stats`) followed by a warm, all-hit
//! re-run from the cache the cold run wrote.
//!
//! The traced run replays the generator's pipeline sequentially through
//! the public calls it is built from — `SyntheticConfig::generate`,
//! `Trainer::fit`, `derive_constraints`, `Pruner::prune`,
//! `finn_dataflow::compile`, `evaluate_exits_with`,
//! `ExitEvaluation::at_threshold` with `Accelerator::performance`, and
//! `ArtifactCache` stores and loads — timing each phase, and sets the
//! phase sum against a `jobs = 1` generate of the same config.

use crate::host::nproc;
use crate::ledger;
use crate::stats::median;
use crate::{median_setup, obj, out_dir, Args, Outcome};
use adapex::cache::{fingerprint, ArtifactCache};
use adapex::generator::derive_constraints;
use adapex::{Artifacts, GeneratorConfig, LibraryEntry, LibraryGenerator, OperatingPoint};
use adapex_dataset::{DatasetKind, SyntheticConfig, SyntheticDataset};
use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::eval::{evaluate_exits_with, EvalConfig};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::train::{TrainConfig, Trainer};
use adapex_prune::{ConstraintMap, PruneConfig, Pruner};
use finn_dataflow::graph::Segment;
use finn_dataflow::{compile, FoldingConfig, FpgaDevice, ModelIr, ResourceUsage};
use serde_json::Value;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

const SEED_SALT: u64 = 0x6E4E_4A7E;
/// Training images per class and held-out test images: between the
/// `fast` (24/class, 120) and `repro` (120/class, 500) profiles.
const TRAIN_PER_CLASS: usize = 40;
const TEST_IMAGES: usize = 200;
const EPOCHS: usize = 3;
const RETRAIN_EPOCHS: usize = 1;
const PRUNING_RATES: [f64; 4] = [0.0, 0.25, 0.5, 0.75];
const SETUP_REPS: usize = 2;

/// The workload's generator config for `seed`, without a cache.
fn config(seed: u64, jobs: usize) -> GeneratorConfig {
    let kind = DatasetKind::Cifar10Like;
    let fast = TrainConfig::fast();
    GeneratorConfig {
        kind,
        dataset: SyntheticConfig::new(kind)
            .with_seed(seed ^ SEED_SALT)
            .with_sizes(TRAIN_PER_CLASS * kind.num_classes(), TEST_IMAGES),
        cnv: CnvConfig::scaled(8),
        exits: ExitsConfig::paper_default(),
        train: TrainConfig {
            epochs: EPOCHS,
            ..fast.clone()
        },
        retrain: TrainConfig {
            epochs: RETRAIN_EPOCHS,
            ..fast
        },
        pruning_rates: PRUNING_RATES.to_vec(),
        exit_prune_modes: vec![false, true],
        ct_step: 0.1,
        folding_target_cycles: 235_000,
        pre_junction_speedup: 2.0,
        clock_mhz: 100.0,
        seed: seed ^ SEED_SALT.rotate_left(17),
        verbose: false,
        jobs,
        cache_dir: None,
    }
}

/// A fresh, empty cache directory unique to this process and tag.
fn fresh_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("gen-cache-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create cache dir");
    dir
}

fn dir_bytes(dir: &Path) -> u64 {
    let mut total = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for e in entries.flatten() {
            match e.metadata() {
                Ok(m) if m.is_dir() => total += dir_bytes(&e.path()),
                Ok(m) => total += m.len(),
                Err(_) => {}
            }
        }
    }
    total
}

/// Property checks on one generated library; returns what failed.
fn check_artifacts(a: &Artifacts, cfg: &GeneratorConfig) -> Vec<String> {
    let mut bad = Vec::new();
    let want = cfg.pruning_rates.len() * cfg.exit_prune_modes.len();
    if a.adapex.len() != want {
        bad.push(format!(
            "{} AdaPEx entries, want rates × modes = {want}",
            a.adapex.len()
        ));
    }
    for e in &a.adapex.entries {
        for p in &e.points {
            let sum: f64 = p.exit_fractions.iter().sum();
            if (sum - 1.0).abs() > 1e-9 {
                bad.push(format!(
                    "entry {} CT {}: exit fractions sum to {sum}",
                    e.id, p.confidence_threshold
                ));
            }
        }
    }
    for &mode in &cfg.exit_prune_modes {
        let mut entries: Vec<&LibraryEntry> = a
            .adapex
            .entries
            .iter()
            .filter(|e| e.prune_exits == mode)
            .collect();
        entries.sort_by(|x, y| x.pruning_rate.total_cmp(&y.pruning_rate));
        for w in entries.windows(2) {
            if w[1].static_ips < w[0].static_ips {
                bad.push(format!(
                    "prune_exits={mode}: static IPS falls from {} at rate {} to {} at rate {}",
                    w[0].static_ips, w[0].pruning_rate, w[1].static_ips, w[1].pruning_rate
                ));
            }
        }
    }
    let chance = 1.0 / cfg.kind.num_classes() as f64;
    if a.reference_accuracy.is_nan() || a.reference_accuracy <= chance {
        bad.push(format!(
            "reference accuracy {} not above chance {chance}",
            a.reference_accuracy
        ));
    }
    bad
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let jobs = nproc();
    // Set-up: the config, and the reference library from the sequential
    // path (`jobs = 1`, no cache) that every timed cold run must match
    // byte for byte.
    let (setup_s, (cfg, reference)) = median_setup(SETUP_REPS, || {
        let cfg = config(args.seed, jobs);
        let sequential = GeneratorConfig {
            jobs: 1,
            cache_dir: None,
            ..cfg.clone()
        };
        let reference = LibraryGenerator::new(sequential).generate();
        (
            cfg,
            serde_json::to_string(&reference).expect("serialize artifacts"),
        )
    });

    let limit = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut cold_s = Vec::new();
    let mut rep = 0;
    while rep == 0 || start.elapsed() < limit {
        let dir = fresh_dir(&format!("rep{rep}"));
        let cfg = GeneratorConfig {
            cache_dir: Some(dir.clone()),
            ..cfg.clone()
        };
        let t0 = Instant::now();
        let (cold, cold_stats) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
        cold_s.push(t0.elapsed().as_secs_f64());
        let (warm, warm_stats) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
        out.attempted += 2;

        let cold_json = serde_json::to_string(&cold).expect("serialize artifacts");
        out.check(cold_stats.hits() == 0, || {
            format!("rep {rep}: cold run hit a fresh cache: {cold_stats:?}")
        });
        out.check(warm_stats.all_hits(), || {
            format!("rep {rep}: warm re-run missed: {warm_stats:?}")
        });
        out.check(
            serde_json::to_string(&warm).expect("serialize") == cold_json,
            || format!("rep {rep}: warm re-run is not byte-identical to the cold run"),
        );
        for f in check_artifacts(&cold, &cfg) {
            out.check(false, || format!("rep {rep}: {f}"));
        }
        out.check(cold_json == reference, || {
            format!("rep {rep}: cold run at jobs {jobs} differs from the sequential reference")
        });
        let _ = std::fs::remove_dir_all(&dir);
        rep += 1;
    }
    let generate_s = median(&cold_s);
    let entries = (cfg.pruning_rates.len() * (1 + cfg.exit_prune_modes.len())) as f64;
    out.set("setup_s", setup_s);
    out.set("ops_per_s", entries / generate_s);
    out.set("op_p50_ms", generate_s * 1e3);
    out.detail.push((
        "generate".into(),
        obj(vec![
            ("jobs", Value::UInt(jobs as u64)),
            ("library_entries_per_generate", Value::Float(entries)),
            (
                "cold_generate_s",
                Value::Array(cold_s.iter().map(|&s| Value::Float(s)).collect()),
            ),
        ]),
    ));
    eprintln!(
        "generate: {} cold runs at jobs {jobs}, median {generate_s:.3} s ({:?}), set-up {:.6} s",
        cold_s.len(),
        cold_s,
        setup_s
    );
    out
}

/// Phase clocks of the sequential replay.
#[derive(Default, Debug)]
struct Phases {
    dataset: Duration,
    train_base: Duration,
    train_images: u64,
    retrain: Duration,
    prune: Duration,
    compile: Duration,
    eval: Duration,
    eval_images: u64,
    characterize: Duration,
    store: Duration,
    load: Duration,
}

impl Phases {
    /// The phases a cold generate runs (loads excluded: a cold run only
    /// stores).
    fn sum(&self) -> Duration {
        self.dataset
            + self.train_base
            + self.retrain
            + self.prune
            + self.compile
            + self.eval
            + self.characterize
            + self.store
    }
}

fn clock<T>(slot: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let v = f();
    *slot += t0.elapsed();
    v
}

struct Replay<'a> {
    cfg: &'a GeneratorConfig,
    data: SyntheticDataset,
    cache: ArtifactCache,
    device: FpgaDevice,
    ph: Phases,
    stored: Vec<String>,
}

impl Replay<'_> {
    fn train_base(&mut self, net: &mut EarlyExitNetwork, train: TrainConfig, seed: u64) {
        self.ph.train_images += (self.data.train.len() * train.epochs) as u64;
        clock(&mut self.ph.train_base, || {
            Trainer::new(train).fit(net, &self.data, seed)
        });
        let fp = fingerprint("perfbench-model", &format!("{seed}"));
        clock(&mut self.ph.store, || self.cache.store_checkpoint(&fp, net));
        self.stored.push(fp);
    }

    #[allow(clippy::too_many_arguments)]
    fn entry(
        &mut self,
        id: usize,
        base: &EarlyExitNetwork,
        rate: f64,
        prune_exits: bool,
        constraints: &ConstraintMap,
        folding: &FoldingConfig,
        thresholds: &[f64],
    ) {
        let cfg = self.cfg;
        let ph = &mut self.ph;
        let fp = fingerprint(
            "perfbench-variant",
            &format!("{id}-{rate}-{prune_exits}-{}", thresholds.len()),
        );
        let (mut net, achieved_rate) = if rate > 0.0 {
            let pruner = Pruner::new(PruneConfig { rate, prune_exits });
            let (mut pruned, report) = clock(&mut ph.prune, || pruner.prune(base, constraints));
            let retrain = TrainConfig {
                exit_loss_weights: Some(cfg.exits.loss_weights(pruned.num_exits())),
                ..cfg.retrain.clone()
            };
            clock(&mut ph.retrain, || {
                Trainer::new(retrain).fit(&mut pruned, &self.data, cfg.seed ^ (id as u64) << 8)
            });
            clock(&mut ph.store, || self.cache.store_checkpoint(&fp, &pruned));
            (pruned, report.overall_rate())
        } else {
            (base.clone(), 0.0)
        };
        let acc = clock(&mut ph.compile, || {
            let ir = ModelIr::from_summary(&net.summarize());
            compile(&ir, folding, &self.device, cfg.clock_mhz).expect("variant compiles")
        });
        let eval = clock(&mut ph.eval, || {
            evaluate_exits_with(
                &mut net,
                &self.data.test,
                EvalConfig {
                    jobs: 0,
                    ..EvalConfig::default()
                },
            )
        });
        ph.eval_images += self.data.test.len() as u64;
        clock(&mut ph.store, || {
            self.cache.store_eval(&fp, &eval);
            self.cache.store_report(&fp, acc.report());
        });
        let points: Vec<OperatingPoint> = clock(&mut ph.characterize, || {
            thresholds
                .iter()
                .map(|&ct| {
                    let report = eval.at_threshold(ct as f32);
                    let perf = acc.performance(&report.exit_fractions);
                    OperatingPoint {
                        confidence_threshold: ct,
                        accuracy: report.accuracy,
                        exit_fractions: report.exit_fractions,
                        ips: perf.ips,
                        avg_latency_ms: perf.avg_latency_ms,
                        power_w: perf.power_w,
                        energy_per_inference_mj: perf.energy_per_inference_mj,
                    }
                })
                .collect()
        });
        let report = acc.report();
        let entry = LibraryEntry {
            id,
            pruning_rate: rate,
            achieved_rate,
            prune_exits,
            mean_exit_accuracy: eval.mean_exit_accuracy(),
            final_exit_accuracy: eval.exit_accuracy(eval.num_exits() - 1),
            resources: report.resources,
            exit_resources: (0..acc.graph().exits.len())
                .map(|e| acc.graph().segment_resources(Segment::Exit(e)))
                .fold(ResourceUsage::zero(), |a, b| a + b),
            utilization: report.utilization,
            static_ips: report.throughput_ips,
            latency_to_exit_ms: report.latency_to_exit_ms.clone(),
            points,
        };
        clock(&mut ph.store, || self.cache.store_entry(&fp, &entry));
        self.stored.push(fp);
    }

    /// Reads back everything stored, timing the loads.
    fn load_all(&mut self, plain: &EarlyExitNetwork) {
        let t0 = Instant::now();
        for fp in &self.stored {
            let mut net = plain.clone();
            let _ = self.cache.load_checkpoint_into(fp, &mut net);
            let _ = self.cache.load_eval(fp);
            let _ = self.cache.load_report(fp);
            let _ = self.cache.load_entry(fp);
        }
        self.ph.load += t0.elapsed();
    }
}

/// Replays `generate_with_stats` at `jobs = 1` phase by phase.
fn replay(cfg: &GeneratorConfig, cache_dir: &Path) -> Phases {
    let mut ph = Phases::default();
    let data = clock(&mut ph.dataset, || cfg.dataset.generate());
    let mut r = Replay {
        cfg,
        data,
        cache: ArtifactCache::new(cache_dir),
        device: FpgaDevice::zcu104(),
        ph,
        stored: Vec::new(),
    };
    let classes = cfg.kind.num_classes();
    let thresholds = cfg.thresholds();

    // Plain CNV: FINN baseline + PR-Only sweep.
    let (plain_folding, plain_constraints) = clock(&mut r.ph.prune, || {
        let shape = cfg.cnv.build(classes, cfg.seed);
        let ir = ModelIr::from_summary(&shape.summarize());
        let folding = FoldingConfig::balanced(&ir, cfg.folding_target_cycles, 1.0);
        let constraints = derive_constraints(&shape, &folding);
        (folding, constraints)
    });
    let mut plain = cfg.cnv.build(classes, cfg.seed);
    r.train_base(&mut plain, cfg.train.clone(), cfg.seed ^ 0x1);
    clock(&mut r.ph.eval, || {
        evaluate_exits_with(&mut plain.clone(), &r.data.test, EvalConfig::default())
    });
    r.ph.eval_images += r.data.test.len() as u64;
    for (i, &rate) in cfg.pruning_rates.iter().enumerate() {
        r.entry(
            i,
            &plain,
            rate,
            false,
            &plain_constraints,
            &plain_folding,
            &[1.0],
        );
    }

    // Early-exit CNV: the AdaPEx library.
    let (ee_folding, ee_constraints) = clock(&mut r.ph.prune, || {
        let shape = cfg.cnv.build_early_exit(classes, &cfg.exits, cfg.seed);
        let ir = ModelIr::from_summary(&shape.summarize());
        let folding =
            FoldingConfig::balanced(&ir, cfg.folding_target_cycles, cfg.pre_junction_speedup);
        let constraints = derive_constraints(&shape, &folding);
        (folding, constraints)
    });
    let mut ee = cfg.cnv.build_early_exit(classes, &cfg.exits, cfg.seed);
    let train = TrainConfig {
        exit_loss_weights: Some(cfg.exits.loss_weights(ee.num_exits())),
        ..cfg.train.clone()
    };
    r.train_base(&mut ee, train, cfg.seed ^ 0x2);
    let mut id = 0;
    for &prune_exits in &cfg.exit_prune_modes {
        for &rate in &cfg.pruning_rates {
            r.entry(
                id,
                &ee,
                rate,
                prune_exits,
                &ee_constraints,
                &ee_folding,
                &thresholds,
            );
            id += 1;
        }
    }
    r.load_all(&plain);
    r.ph
}

fn traced(args: &Args, out: &mut Outcome) {
    // A jobs = 1 cold generate and its warm re-run.
    let dir = fresh_dir("trace");
    let cfg = config(args.seed, 1).with_cache_dir(&dir);
    let t0 = Instant::now();
    let (cold, cold_stats) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
    let jobs1_before_s = t0.elapsed().as_secs_f64();
    let bytes = dir_bytes(&dir);
    let t0 = Instant::now();
    let (warm, warm_stats) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
    let warm_s = t0.elapsed().as_secs_f64();
    out.attempted += 2;
    out.check(cold_stats.hits() == 0 && warm_stats.all_hits(), || {
        format!("cache stats cold {cold_stats:?} warm {warm_stats:?}")
    });
    out.check(
        serde_json::to_string(&cold).expect("serialize")
            == serde_json::to_string(&warm).expect("serialize"),
        || "warm re-run is not byte-identical to the cold run".into(),
    );
    for f in check_artifacts(&cold, &cfg) {
        out.check(false, || f);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The sequential replay, phase by phase.
    let rdir = fresh_dir("replay");
    let t0 = Instant::now();
    let ph = replay(&cfg, &rdir);
    let replay_s = t0.elapsed().as_secs_f64() - ph.load.as_secs_f64();
    let _ = std::fs::remove_dir_all(&rdir);
    out.attempted += 1;

    // A second jobs = 1 cold generate after the replay: the phase sum is
    // set against the mean of the two, so host drift over the replay
    // cancels to first order.
    let dir = fresh_dir("trace2");
    let t0 = Instant::now();
    let (again, _) =
        LibraryGenerator::new(config(args.seed, 1).with_cache_dir(&dir)).generate_with_stats();
    let jobs1_after_s = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    out.attempted += 1;
    out.check(
        serde_json::to_string(&again).expect("serialize")
            == serde_json::to_string(&cold).expect("serialize"),
        || "second cold generate differs from the first".into(),
    );
    let jobs1_s = (jobs1_before_s + jobs1_after_s) / 2.0;

    let s = |d: Duration| d.as_secs_f64();
    let rate = |n: u64, d: Duration| {
        if d.is_zero() {
            0.0
        } else {
            n as f64 / d.as_secs_f64()
        }
    };
    out.set("gen.dataset_s", s(ph.dataset));
    out.set("gen.train_base_s", s(ph.train_base));
    out.set("gen.train_img_per_s", rate(ph.train_images, ph.train_base));
    out.set("gen.retrain_s", s(ph.retrain));
    out.set("gen.prune_ms", s(ph.prune) * 1e3);
    out.set("gen.compile_ms", s(ph.compile) * 1e3);
    out.set("gen.eval_img_per_s", rate(ph.eval_images, ph.eval));
    out.set("gen.characterize_ms", s(ph.characterize) * 1e3);
    out.set("cache.store_ms", s(ph.store) * 1e3);
    out.set("cache.load_ms", s(ph.load) * 1e3);
    out.set("cache.bytes_written", bytes as f64);
    out.set("cache.warm_regen_s", warm_s);
    let phase_sum = s(ph.sum()) / jobs1_s;
    ledger::warn_outside(
        "ledger.phase_sum_over_generate",
        phase_sum,
        ledger::PHASE_SUM_TOLERANCE,
    );
    out.set("ledger.phase_sum_over_generate", phase_sum);
    out.set(
        "ledger.trace_overhead_pct",
        (replay_s / jobs1_s - 1.0) * 100.0,
    );
    out.detail.push((
        "ledger".into(),
        obj(vec![
            ("generate_jobs1_before_s", Value::Float(jobs1_before_s)),
            ("generate_jobs1_after_s", Value::Float(jobs1_after_s)),
            ("replay_s", Value::Float(replay_s)),
            ("phase_sum_s", Value::Float(s(ph.sum()))),
            ("train_images", Value::UInt(ph.train_images)),
            ("eval_images", Value::UInt(ph.eval_images)),
        ]),
    ));
    eprintln!("generate traced: jobs=1 {jobs1_s:.3} s, replay {replay_s:.3} s, phases {ph:?}");
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The library checks reject bad outputs: a dropped entry, exit
    /// fractions that do not sum to one, static IPS falling with the
    /// pruning rate, and chance-level accuracy.
    #[test]
    fn library_checks_reject_bad_artifacts() {
        let _counters = ledger::KERNEL_COUNTERS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let mut cfg = config(1, 2);
        cfg.dataset = cfg.dataset.with_sizes(60, 40);
        cfg.train.epochs = 1;
        cfg.pruning_rates = vec![0.0, 0.5];
        let good = LibraryGenerator::new(cfg.clone()).generate();
        assert_eq!(check_artifacts(&good, &cfg), Vec::<String>::new());

        let mut a = good.clone();
        a.adapex.entries.pop();
        assert!(!check_artifacts(&a, &cfg).is_empty());
        let mut a = good.clone();
        a.adapex.entries[0].points[0].exit_fractions[0] += 0.01;
        assert!(!check_artifacts(&a, &cfg).is_empty());
        let mut a = good.clone();
        a.adapex.entries[1].static_ips = a.adapex.entries[0].static_ips * 0.5;
        assert!(!check_artifacts(&a, &cfg).is_empty());
        let mut a = good;
        a.reference_accuracy = 0.1;
        assert!(!check_artifacts(&a, &cfg).is_empty());
    }

    /// A corrupted cache entry is caught: the warm re-run misses and
    /// recomputes instead of serving the corrupt file as a hit.
    #[test]
    fn corrupted_cache_entry_fails_the_all_hits_check() {
        let _counters = ledger::KERNEL_COUNTERS
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../.bench_out")
            .join(format!("test-gen-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = config(2, 1).with_cache_dir(&dir);
        cfg.dataset = cfg.dataset.with_sizes(60, 40);
        cfg.train.epochs = 1;
        cfg.pruning_rates = vec![0.0, 0.5];
        cfg.exit_prune_modes = vec![false];
        let (cold, _) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
        let (_, warm) = LibraryGenerator::new(cfg.clone()).generate_with_stats();
        assert!(warm.all_hits());
        let mut corrupted = 0;
        for e in std::fs::read_dir(dir.join(format!("v{}", adapex::CACHE_FORMAT_EPOCH))).unwrap() {
            let p = e.unwrap().path();
            if p.to_string_lossy().ends_with(".entry.json") {
                let mut text = std::fs::read_to_string(&p).unwrap();
                text.truncate(text.len() / 2);
                std::fs::write(&p, text).unwrap();
                corrupted += 1;
            }
        }
        assert!(corrupted > 0);
        let (again, stats) = LibraryGenerator::new(cfg).generate_with_stats();
        assert!(!stats.all_hits(), "a corrupt entry must not count as a hit");
        assert_eq!(
            serde_json::to_string(&again).unwrap(),
            serde_json::to_string(&cold).unwrap(),
            "recomputation restores the cold artifacts"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
