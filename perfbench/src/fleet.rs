//! `fleet-faults`: a sharded fleet simulation (`Fleet::run_jobs_with_faults`)
//! under the committed canned fault plan, with the golden three-entry
//! library and recommended mitigation, so the runtime manager's
//! reconfiguration and abort paths run on every server.
//!
//! Sampled shards are checked bit for bit against the pre-DES tick loop
//! (`EdgeSimulation::run_tick_reference_with_faults`), computed in
//! set-up.

use crate::host::nproc;
use crate::stats::median;
use crate::{median_setup, obj, Args, Outcome};
use adapex::library::{Library, LibraryEntry, OperatingPoint};
use adapex::runtime::{MitigationConfig, RuntimeManager, SelectionPolicy};
use adapex_edge::{
    EdgeSimulation, FaultPlan, Fleet, FleetConfig, FleetResult, ServerAssignment, SimConfig,
    SimResult, WorkloadConfig, FLEET_SALT,
};
use adapex_tensor::rng::derive_stream;
use finn_dataflow::ResourceUsage;
use serde_json::Value;
use std::path::Path;
use std::time::{Duration, Instant};

/// Servers × cameras per server: about 1.5 s per fleet run at two jobs
/// on a 2-core host.
const SERVERS: usize = 2000;
const CAMERAS: usize = 20;
/// Shards per run checked against the tick loop.
const SAMPLED: usize = 6;
const RECONFIG_MS: f64 = 145.0;
const MIN_ACCURACY: f64 = 0.75;
const SEED_SALT: u64 = 0xF1EE_7FA0;
const FAULT_PLAN: &str = "tests/golden/fault_plan_canned.json";
const SETUP_REPS: usize = 3;

fn entry(id: usize, rate: f64, points: &[(f64, f64, f64)]) -> LibraryEntry {
    let points: Vec<OperatingPoint> = points
        .iter()
        .map(|&(ct, acc, ips)| OperatingPoint {
            confidence_threshold: ct,
            accuracy: acc,
            exit_fractions: vec![1.0],
            ips,
            avg_latency_ms: 2.0,
            power_w: 1.2,
            energy_per_inference_mj: 1.2 / ips * 1000.0,
        })
        .collect();
    let acc = points[0].accuracy;
    LibraryEntry {
        id,
        pruning_rate: rate,
        achieved_rate: rate,
        prune_exits: false,
        mean_exit_accuracy: acc,
        final_exit_accuracy: acc,
        resources: ResourceUsage::zero(),
        exit_resources: ResourceUsage::zero(),
        utilization: (0.1, 0.1, 0.1, 0.0),
        static_ips: points[0].ips,
        latency_to_exit_ms: vec![1.0],
        points,
    }
}

/// The golden scenario suite's manager: accurate, pruned and
/// degraded-headroom entries with threshold-only fallback points, at a
/// 0.75 accuracy floor with recommended mitigation.
fn golden_manager() -> RuntimeManager {
    let library = Library {
        entries: vec![
            entry(0, 0.0, &[(0.9, 0.88, 700.0), (0.3, 0.82, 1150.0)]),
            entry(1, 0.5, &[(0.9, 0.80, 1400.0), (0.3, 0.76, 1900.0)]),
            entry(2, 0.8, &[(0.9, 0.70, 2500.0)]),
        ],
    };
    let mut m = RuntimeManager::new(library, MIN_ACCURACY, SelectionPolicy::ReconfigAware);
    m.set_mitigation(MitigationConfig::recommended());
    m
}

struct Setup {
    fleet: Fleet,
    manager: RuntimeManager,
    plan: FaultPlan,
    seed: u64,
    /// `(server index, simulator, episode seed)` of the sampled shards.
    shards: Vec<(usize, EdgeSimulation, u64)>,
    /// Tick-loop results of the sampled shards, serialized.
    reference: Vec<String>,
}

/// The simulator and episode seed `Fleet` gives server `s`.
fn shard(
    fleet: &Fleet,
    assignments: &[ServerAssignment],
    seed: u64,
    s: usize,
) -> (EdgeSimulation, u64) {
    let cfg = fleet.config();
    let a = &assignments[s];
    let cameras = a.cameras.len();
    let workload = WorkloadConfig {
        cameras,
        ips_per_camera: if cameras == 0 {
            0.0
        } else {
            a.nominal_ips / cameras as f64
        },
        ..cfg.sim.workload
    };
    let sim = EdgeSimulation::new(SimConfig {
        workload,
        ..cfg.sim.clone()
    });
    (sim, derive_stream(seed, s as u64, FLEET_SALT))
}

fn setup(plan_path: &Path, seed: u64, servers: usize) -> Setup {
    let plan = FaultPlan::load_json(plan_path).expect("the committed canned fault plan loads");
    let manager = golden_manager();
    let fleet = Fleet::new(FleetConfig::paper_default(servers, CAMERAS, RECONFIG_MS));
    let seed = seed ^ SEED_SALT;
    let assignments = fleet.placement(seed);
    let offset = (derive_stream(seed, 0, SEED_SALT) % servers as u64) as usize;
    let mut idx: Vec<usize> = (0..SAMPLED.min(servers))
        .map(|k| (offset + k * servers / SAMPLED.min(servers)) % servers)
        .collect();
    idx.sort_unstable();
    idx.dedup();
    let shards: Vec<(usize, EdgeSimulation, u64)> = idx
        .into_iter()
        .map(|s| {
            let (sim, ep) = shard(&fleet, &assignments, seed, s);
            (s, sim, ep)
        })
        .collect();
    let reference = shards
        .iter()
        .map(|(_, sim, ep)| {
            let r = sim.run_tick_reference_with_faults(&mut manager.clone(), *ep, &plan);
            serde_json::to_string(&r).expect("serialize")
        })
        .collect();
    Setup {
        fleet,
        manager,
        plan,
        seed,
        shards,
        reference,
    }
}

/// Output checks on one fleet run; returns what failed.
fn check_fleet(s: &Setup, r: &FleetResult) -> Vec<String> {
    let mut bad = Vec::new();
    for ((idx, _, _), want) in s.shards.iter().zip(&s.reference) {
        if serde_json::to_string(&r.servers[*idx]).expect("serialize") != *want {
            bad.push(format!("shard {idx} differs from the tick-loop reference"));
        }
    }
    for (i, sr) in r.servers.iter().enumerate() {
        if sr.offered != sr.processed + sr.lost {
            bad.push(format!(
                "server {i}: offered {} != processed {} + lost {}",
                sr.offered, sr.processed, sr.lost
            ));
            break;
        }
    }
    let sum = &r.summary;
    if sum.reconfig_count == 0 || sum.failed_reconfigs == 0 {
        bad.push(format!(
            "reconfigurations {} / failed {}: both must be above 0",
            sum.reconfig_count, sum.failed_reconfigs
        ));
    }
    bad
}

fn server_seconds(s: &Setup) -> f64 {
    s.fleet.config().servers as f64 * s.fleet.config().sim.workload.duration_s
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    if args.trace {
        traced(args, &mut out);
        return out;
    }
    let (setup_s, s) = median_setup(SETUP_REPS, || {
        setup(Path::new(FAULT_PLAN), args.seed, SERVERS)
    });
    let jobs = nproc();
    let limit = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first: Option<String> = None;
    let mut rep = 0;
    while rep == 0 || start.elapsed() < limit {
        let t0 = Instant::now();
        let r = s
            .fleet
            .run_jobs_with_faults(&s.manager, s.seed, jobs, &s.plan);
        walls.push(t0.elapsed().as_secs_f64());
        out.attempted += 1;
        for f in check_fleet(&s, &r) {
            out.check(false, || format!("rep {rep}: {f}"));
        }
        let summary = serde_json::to_string(&r.summary).expect("serialize");
        match &first {
            None => first = Some(summary),
            Some(j) => out.check(*j == summary, || {
                format!("rep {rep}: fleet summary differs from rep 0")
            }),
        }
        rep += 1;
    }
    let wall = median(&walls);
    out.set("setup_s", setup_s);
    out.set("ops_per_s", server_seconds(&s) / wall);
    out.set("op_p50_ms", wall * 1e3);
    out.detail.push((
        "fleet".into(),
        obj(vec![
            ("servers", Value::UInt(SERVERS as u64)),
            ("jobs", Value::UInt(jobs as u64)),
            (
                "run_s",
                Value::Array(walls.iter().map(|&w| Value::Float(w)).collect()),
            ),
        ]),
    ));
    eprintln!(
        "fleet-faults: {} runs of {SERVERS} servers at jobs {jobs}, median {wall:.3} s, {:.0} server-s/s, set-up {setup_s:.4} s",
        walls.len(),
        server_seconds(&s) / wall
    );
    out
}

fn traced(args: &Args, out: &mut Outcome) {
    let s = setup(Path::new(FAULT_PLAN), args.seed, SERVERS);
    let jobs = nproc();
    let t0 = Instant::now();
    let serial = s.fleet.run_jobs_with_faults(&s.manager, s.seed, 1, &s.plan);
    let t1 = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let parallel = s
        .fleet
        .run_jobs_with_faults(&s.manager, s.seed, jobs, &s.plan);
    let tn = t0.elapsed().as_secs_f64();
    // The serial run again after the parallel one, so drift cancels.
    let t0 = Instant::now();
    let serial_again = s.fleet.run_jobs_with_faults(&s.manager, s.seed, 1, &s.plan);
    let t1 = (t1 + t0.elapsed().as_secs_f64()) / 2.0;
    out.attempted += 3;
    out.check(
        serde_json::to_string(&serial_again.summary).expect("serialize")
            == serde_json::to_string(&serial.summary).expect("serialize"),
        || "second serial fleet run differs from the first".into(),
    );
    for f in check_fleet(&s, &serial)
        .into_iter()
        .chain(check_fleet(&s, &parallel))
    {
        out.check(false, || f);
    }
    out.check(
        serde_json::to_string(&serial).expect("serialize")
            == serde_json::to_string(&parallel).expect("serialize"),
        || format!("fleet at jobs 1 differs from jobs {jobs}"),
    );

    // Sampled shards one by one through the DES entry point.
    let mut shard_ms = Vec::new();
    let mut decide_ns = 0u128;
    let mut decisions = 0u64;
    for (idx, sim, ep) in &s.shards {
        let t0 = Instant::now();
        let (r, _stats) = sim.run_with_faults_stats(&mut s.manager.clone(), *ep, &s.plan);
        shard_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        out.check(same(&r, &serial.servers[*idx]), || {
            format!("shard {idx}: run_with_faults_stats differs from the fleet")
        });
        // RuntimeManager::decide over the shard's observed loads.
        let mut m = s.manager.clone();
        let t0 = Instant::now();
        for sample in &r.trace {
            std::hint::black_box(m.decide(std::hint::black_box(sample.workload_ips)));
        }
        decide_ns += t0.elapsed().as_nanos();
        decisions += r.trace.len() as u64;
    }
    let sum = &serial.summary;
    out.set("edge.ns_per_tick", t1 * 1e9 / sum.ticks.max(1) as f64);
    out.set("edge.ns_per_event", t1 * 1e9 / sum.events.max(1) as f64);
    out.set("edge.events", sum.events as f64);
    out.set("edge.ticks", sum.ticks as f64);
    out.set("edge.shard_ms_p50", median(&shard_ms));
    out.set(
        "edge.shard_ms_max",
        shard_ms.iter().copied().fold(0.0, f64::max),
    );
    out.set("fleet.parallel_efficiency", t1 / (jobs as f64 * tn));
    let fleet_decisions: usize = serial.servers.iter().map(|r| r.trace.len()).sum();
    out.set("runtime.decisions", fleet_decisions as f64);
    out.set("runtime.reconfigs", sum.reconfig_count as f64);
    out.set("runtime.failed_reconfigs", sum.failed_reconfigs as f64);
    out.set(
        "runtime.us_per_decide",
        decide_ns as f64 / 1e3 / decisions.max(1) as f64,
    );
    out.detail.push((
        "ledger".into(),
        obj(vec![
            ("jobs", Value::UInt(jobs as u64)),
            ("fleet_jobs1_s", Value::Float(t1)),
            ("fleet_jobsN_s", Value::Float(tn)),
            (
                "sampled_shard_ms",
                Value::Array(shard_ms.iter().map(|&v| Value::Float(v)).collect()),
            ),
        ]),
    ));
    eprintln!(
        "fleet-faults traced: jobs 1 {t1:.3} s, jobs {jobs} {tn:.3} s, {} events, {} ticks",
        sum.events, sum.ticks
    );
}

fn same(a: &SimResult, b: &SimResult) -> bool {
    serde_json::to_string(a).expect("serialize") == serde_json::to_string(b).expect("serialize")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (Setup, FleetResult) {
        let plan = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join(FAULT_PLAN);
        let s = setup(&plan, 3, 24);
        let r = s.fleet.run_jobs_with_faults(&s.manager, s.seed, 2, &s.plan);
        (s, r)
    }

    /// A fleet shard that differs from the tick loop is rejected, and so
    /// is broken conservation or a run without failed reconfigurations.
    #[test]
    fn fleet_checks_reject_a_diverging_shard() {
        let (s, r) = small();
        assert_eq!(check_fleet(&s, &r), Vec::<String>::new());
        let idx = s.shards[0].0;

        let mut bad = r.clone();
        bad.servers[idx].energy_j = f64::from_bits(bad.servers[idx].energy_j.to_bits() ^ 1);
        assert!(check_fleet(&s, &bad)
            .iter()
            .any(|f| f.contains("tick-loop")));

        let mut bad = r.clone();
        bad.servers[idx].lost += 1;
        assert!(check_fleet(&s, &bad).iter().any(|f| f.contains("offered")));

        let mut bad = r;
        bad.summary.failed_reconfigs = 0;
        assert!(check_fleet(&s, &bad)
            .iter()
            .any(|f| f.contains("reconfigurations")));
    }
}
