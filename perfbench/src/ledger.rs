//! Per-layer ledger of the served CNV and the list of per-layer metrics.
//!
//! [`TracedExecutor`] replays `adapex_nn::serve::BatchExecutor`'s staged
//! forward from outside the crate: the same engine plan, the same
//! per-exit segments, the same confidence test and survivor compaction,
//! built only from public calls (`Layer::forward_owned`, `softmax_into`,
//! `confidence`, the workspace pools). A timer and the int2 engine's
//! counters are read around every layer, so each CNV layer gets a row
//! with its wall time, op counts, achieved GMAC/s, the FINN model's
//! cycles and the kernel route it took. The executor itself is never
//! edited; `ledger.layer_sum_over_exec` checks the replay against it.

use adapex_nn::cnv::{CnvConfig, ExitsConfig};
use adapex_nn::layers::{Activation, Layer};
use adapex_nn::loss::{confidence, softmax_into};
use adapex_nn::network::EarlyExitNetwork;
use adapex_nn::serve::BatchVerdicts;
use adapex_tensor::int2;
use adapex_tensor::workspace::{
    recycle_f32, recycle_usize, take_f32_from, take_f32_uninit, take_usize_from,
};
use finn_dataflow::{compile, FoldingConfig, FpgaDevice, IrOp, ModelIr};
use serde_json::Value;
use std::time::Instant;

use crate::obj;

/// CNV width of the served network (`CnvConfig::scaled`).
const WIDTH: usize = 8;
/// Classes of the CIFAR-like task.
const CLASSES: usize = 10;
/// Folding cycle budget the generator's reproduction profile uses for
/// this width; the FINN column of the ledger is compiled against it.
const FOLDING_TARGET_CYCLES: u64 = 235_000;

/// Reconciliation tolerances of the ledger's coverage ratios (see the
/// README). They depend on timing, so a ratio outside them is reported,
/// never counted as a wrong output.
pub const LAYER_SUM_TOLERANCE: (f64, f64) = (0.90, 1.10);
pub const PHASE_SUM_TOLERANCE: (f64, f64) = (0.85, 1.15);

/// Warns on standard error when `value` lies outside `(lo, hi)`.
pub fn warn_outside(name: &str, value: f64, (lo, hi): (f64, f64)) {
    if !(lo..=hi).contains(&value) {
        eprintln!("warning: {name} = {value:.3} outside its tolerance {lo}–{hi}");
    }
}

/// The served network: a width-8 CNV with the paper's two exits.
pub fn build_net(seed: u64) -> EarlyExitNetwork {
    CnvConfig::scaled(WIDTH).build_early_exit(CLASSES, &ExitsConfig::paper_default(), seed)
}

/// Every per-layer metric `(name, unit)`, in the order `BENCHMARK.json`
/// lists them. The CNV node names come from the network's own IR.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let ir = ModelIr::from_summary(&build_net(0).summarize());
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    for node in ir
        .backbone
        .iter()
        .chain(ir.exits.iter().flat_map(|e| e.nodes.iter()))
    {
        add(&format!("layer.{}.us_per_img", node.name), "us");
        if node.op.is_matrix_op() {
            add(&format!("layer.{}.gops", node.name), "GOP/s");
        }
    }
    for (name, unit) in [
        ("exec.exit0.us_per_img", "us"),
        ("exec.exit1.us_per_img", "us"),
        ("exec.final.us_per_img", "us"),
        ("exec.compact.us_per_batch", "us"),
        ("exec.batch_fill", "img/batch"),
        ("kernel.int2_macs_per_img", "count"),
        ("kernel.popcount_words_per_img", "count"),
        ("kernel.direct_convs_per_img", "count"),
        ("engine.queue_wait_ms_p50", "ms"),
        ("engine.service_ms_p50", "ms"),
        ("engine.ns_per_request", "ns"),
        ("gen.dataset_s", "s"),
        ("gen.train_base_s", "s"),
        ("gen.train_img_per_s", "img/s"),
        ("gen.retrain_s", "s"),
        ("gen.prune_ms", "ms"),
        ("gen.compile_ms", "ms"),
        ("gen.eval_img_per_s", "img/s"),
        ("gen.characterize_ms", "ms"),
        ("cache.store_ms", "ms"),
        ("cache.load_ms", "ms"),
        ("cache.bytes_written", "bytes"),
        ("cache.warm_regen_s", "s"),
        ("edge.ns_per_tick", "ns"),
        ("edge.ns_per_event", "ns"),
        ("edge.events", "count"),
        ("edge.ticks", "count"),
        ("edge.shard_ms_p50", "ms"),
        ("edge.shard_ms_max", "ms"),
        ("fleet.parallel_efficiency", "ratio"),
        ("runtime.decisions", "count"),
        ("runtime.reconfigs", "count"),
        ("runtime.failed_reconfigs", "count"),
        ("runtime.us_per_decide", "us"),
        ("ledger.layer_sum_over_exec", "ratio"),
        ("ledger.phase_sum_over_generate", "ratio"),
        ("ledger.trace_overhead_pct", "%"),
        ("host.nproc", "count"),
        ("host.steal_ticks", "count"),
        ("host.ref_loop_ms", "ms"),
    ] {
        add(name, unit);
    }
    m
}

/// Applies `EnginePlan::Auto` exactly as `BatchExecutor::new` does: an
/// int2-eligible conv runs on the popcount engine only where
/// `int2::conv_engine_profitable` predicts a win.
fn apply_auto_plan(net: &mut EarlyExitNetwork) {
    let layers = net
        .backbone
        .iter_mut()
        .chain(net.exits.iter_mut().flat_map(|e| e.layers.iter_mut()));
    for l in layers {
        if let Layer::Conv(c) = l {
            c.prefer_f32_codes = !int2::conv_engine_profitable(c.c_out, c.geom.kernel);
        }
    }
}

/// One CNV layer (FINN IR node) of the ledger.
#[derive(Debug, Clone)]
pub struct LayerRow {
    pub name: String,
    pub is_matrix: bool,
    /// MACs per image from `IrOp::macs`.
    pub ir_macs: u64,
    /// Popcount word-ops per image from `IrOp::int2_popcount_ops`.
    pub ir_popcounts: u64,
    /// Cycles of the node's slowest FINN module.
    pub finn_cycles: u64,
    /// Wall time spent in the node's layers.
    pub ns: u64,
    /// Images that went through the node.
    pub imgs: u64,
    /// int2 engine counter deltas over the node's layers.
    pub macs: u64,
    pub popcounts: u64,
    pub direct_convs: u64,
    /// Kernel route of the matrix layer, detected from counter deltas.
    pub route: &'static str,
}

impl LayerRow {
    pub fn us_per_img(&self) -> f64 {
        if self.imgs == 0 {
            0.0
        } else {
            self.ns as f64 / 1e3 / self.imgs as f64
        }
    }

    /// Achieved giga-MACs per second of layer time.
    pub fn gops(&self) -> f64 {
        if self.ns == 0 {
            0.0
        } else {
            (self.ir_macs * self.imgs) as f64 / self.ns as f64
        }
    }
}

/// The route a matrix layer took, told apart from outside by what the
/// int2 engine's counters did during its forward.
fn route_of(layer: &Layer, input_quantized: bool, macs: u64, direct: u64) -> &'static str {
    match layer {
        Layer::Conv(_) | Layer::Linear(_) if !input_quantized => "f32",
        Layer::Conv(_) if direct > 0 => "int2-direct",
        Layer::Conv(_) if macs > 0 => "int2-im2col",
        Layer::Linear(_) if macs > 0 => "int2-gemm",
        Layer::Conv(_) | Layer::Linear(_) => "f32-codes",
        _ => "",
    }
}

/// Staged executor replay with per-layer and per-stage clocks.
pub struct TracedExecutor {
    net: EarlyExitNetwork,
    threshold: f32,
    /// IR row of each backbone layer / each exit layer.
    bb_row: Vec<usize>,
    exit_row: Vec<Vec<usize>>,
    pub rows: Vec<LayerRow>,
    /// Per stage (one per early exit, then the final tail): wall time
    /// and images entering it.
    pub stage_ns: Vec<u64>,
    pub stage_imgs: Vec<u64>,
    /// Confidence tests and survivor compaction, all stages.
    pub compact_ns: u64,
    pub batches: u64,
    pub imgs: u64,
}

/// Maps each layer of a chain to the IR node it streamlines into:
/// matrix and pool layers open a node, BatchNorm and activations fold
/// into the latest matrix node, Flatten into the latest node.
fn node_of_layers(layers: &[Layer], first_row: usize) -> Vec<usize> {
    let mut out = Vec::with_capacity(layers.len());
    let mut nodes = 0usize;
    let mut last_matrix = None;
    for l in layers {
        let row = match l {
            Layer::Conv(_) | Layer::Linear(_) => {
                nodes += 1;
                last_matrix = Some(first_row + nodes - 1);
                first_row + nodes - 1
            }
            Layer::Pool(_) => {
                nodes += 1;
                first_row + nodes - 1
            }
            Layer::Norm(_) | Layer::Act(_) => last_matrix.expect("norm/act follows a matrix layer"),
            Layer::Flatten => first_row + nodes.max(1) - 1,
        };
        out.push(row);
    }
    out
}

impl TracedExecutor {
    pub fn new(net: &EarlyExitNetwork, threshold: f32) -> Self {
        let mut net = net.clone();
        apply_auto_plan(&mut net);
        let ir = ModelIr::from_summary(&net.summarize());
        let folding = FoldingConfig::balanced(&ir, FOLDING_TARGET_CYCLES, 2.0);
        let acc = compile(&ir, &folding, &FpgaDevice::zcu104(), 100.0)
            .expect("the served CNV compiles at the reproduction folding budget");
        let cycles_of = |name: &str| {
            acc.graph()
                .modules
                .iter()
                .filter(|m| {
                    m.name
                        .strip_prefix(name)
                        .is_some_and(|rest| matches!(rest, "_swu" | "_mvtu" | "_pool"))
                })
                .map(|m| m.module.cycles())
                .max()
                .unwrap_or(0)
        };
        let mut rows = Vec::new();
        for node in ir
            .backbone
            .iter()
            .chain(ir.exits.iter().flat_map(|e| e.nodes.iter()))
        {
            rows.push(LayerRow {
                name: node.name.clone(),
                is_matrix: node.op.is_matrix_op(),
                ir_macs: node.op.macs(),
                ir_popcounts: node.op.int2_popcount_ops(),
                finn_cycles: cycles_of(&node.name),
                ns: 0,
                imgs: 0,
                macs: 0,
                popcounts: 0,
                direct_convs: 0,
                route: if matches!(node.op, IrOp::MaxPool { .. }) {
                    "f32"
                } else {
                    ""
                },
            });
        }
        let bb_row = node_of_layers(&net.backbone, 0);
        assert_eq!(ir.backbone.len(), bb_row.iter().max().map_or(0, |m| m + 1));
        let mut first = ir.backbone.len();
        let mut exit_row = Vec::new();
        for (e, branch) in net.exits.iter().enumerate() {
            exit_row.push(node_of_layers(&branch.layers, first));
            first += ir.exits[e].nodes.len();
        }
        let stages = net.exits.len() + 1;
        TracedExecutor {
            net,
            threshold,
            bb_row,
            exit_row,
            rows,
            stage_ns: vec![0; stages],
            stage_imgs: vec![0; stages],
            compact_ns: 0,
            batches: 0,
            imgs: 0,
        }
    }

    fn traced_forward(layer: &mut Layer, row: &mut LayerRow, x: Activation) -> Activation {
        let n = x.n as u64;
        let quantized = x.quant.is_some();
        let (m0, p0) = int2::op_counters();
        let d0 = int2::direct_conv_calls();
        let t0 = Instant::now();
        let y = layer.forward_owned(x, false);
        let ns = t0.elapsed().as_nanos() as u64;
        let (m1, p1) = int2::op_counters();
        let d1 = int2::direct_conv_calls();
        row.ns += ns;
        let (macs, direct) = (m1 - m0, d1 - d0);
        row.macs += macs;
        row.popcounts += p1 - p0;
        row.direct_convs += direct;
        if matches!(layer, Layer::Conv(_) | Layer::Linear(_)) {
            row.imgs += n;
            row.route = route_of(layer, quantized, macs, direct);
        }
        if matches!(layer, Layer::Pool(_)) {
            row.imgs += n;
        }
        y
    }

    /// Runs one batch like `BatchExecutor::run_batch` with one worker,
    /// writing the same verdicts.
    pub fn run_batch(&mut self, x: &Activation, out: &mut BatchVerdicts) {
        let n0 = x.n;
        out.exit.clear();
        out.exit.resize(n0, 0);
        out.class.clear();
        out.class.resize(n0, 0);
        out.confidence.clear();
        out.confidence.resize(n0, 0.0);
        if n0 == 0 {
            return;
        }
        self.batches += 1;
        self.imgs += n0 as u64;
        let net = &mut self.net;
        let rows = &mut self.rows;
        let mut cur = Activation {
            data: take_f32_from(&x.data),
            n: n0,
            dims: take_usize_from(&x.dims),
            quant: x.quant,
        };
        let mut alive = take_usize_from(&[]);
        alive.extend(0..n0);
        let mut probs = take_f32_uninit(net.num_classes);
        let mut seg_start = 0usize;
        let final_exit = net.exits.len();

        for ei in 0..net.exits.len() {
            let t_stage = Instant::now();
            self.stage_imgs[ei] += cur.n as u64;
            let attach = net.exits[ei].attach_after;
            for li in seg_start..=attach {
                cur = Self::traced_forward(&mut net.backbone[li], &mut rows[self.bb_row[li]], cur);
            }
            seg_start = attach + 1;
            let mut logits = cur.clone();
            for (li, l) in net.exits[ei].layers.iter_mut().enumerate() {
                logits = Self::traced_forward(l, &mut rows[self.exit_row[ei][li]], logits);
            }
            let t_compact = Instant::now();
            let sample_len = cur.sample_len();
            let mut keep = 0usize;
            for s in 0..logits.n {
                softmax_into(logits.sample(s), &mut probs);
                let conf = confidence(&probs);
                let local = alive[s];
                if conf >= self.threshold {
                    out.exit[local] = ei;
                    out.class[local] = argmax(&probs);
                    out.confidence[local] = conf;
                } else {
                    if keep != s {
                        cur.data
                            .copy_within(s * sample_len..(s + 1) * sample_len, keep * sample_len);
                        alive[keep] = local;
                    }
                    keep += 1;
                }
            }
            drop(logits);
            cur.data.truncate(keep * sample_len);
            cur.n = keep;
            alive.truncate(keep);
            self.compact_ns += t_compact.elapsed().as_nanos() as u64;
            self.stage_ns[ei] += t_stage.elapsed().as_nanos() as u64;
            if keep == 0 {
                recycle_f32(probs);
                recycle_usize(alive);
                return;
            }
        }

        let t_stage = Instant::now();
        self.stage_imgs[final_exit] += cur.n as u64;
        for li in seg_start..net.backbone.len() {
            cur = Self::traced_forward(&mut net.backbone[li], &mut rows[self.bb_row[li]], cur);
        }
        for (s, &local) in alive.iter().enumerate() {
            softmax_into(cur.sample(s), &mut probs);
            out.exit[local] = final_exit;
            out.class[local] = argmax(&probs);
            out.confidence[local] = confidence(&probs);
        }
        self.stage_ns[final_exit] += t_stage.elapsed().as_nanos() as u64;
        recycle_f32(probs);
        recycle_usize(alive);
    }

    /// Measured staged cost to each exit (µs per image): the per-image
    /// cost of every stage an image retiring there went through.
    pub fn cost_to_exit_us(&self) -> Vec<f64> {
        let mut acc = 0.0;
        self.stage_ns
            .iter()
            .zip(&self.stage_imgs)
            .map(|(&ns, &n)| {
                if n > 0 {
                    acc += ns as f64 / 1e3 / n as f64;
                }
                acc
            })
            .collect()
    }

    /// Sum over all layer rows of their per-image wall time.
    pub fn layer_sum_us_per_img(&self) -> f64 {
        self.rows.iter().map(LayerRow::us_per_img).sum()
    }

    /// Clears every clock and counter, keeping the network.
    pub fn reset(&mut self) {
        for r in &mut self.rows {
            r.ns = 0;
            r.imgs = 0;
            r.macs = 0;
            r.popcounts = 0;
            r.direct_convs = 0;
        }
        self.stage_ns.iter_mut().for_each(|v| *v = 0);
        self.stage_imgs.iter_mut().for_each(|v| *v = 0);
        self.compact_ns = 0;
        self.batches = 0;
        self.imgs = 0;
    }

    /// The ledger rows as JSON.
    pub fn rows_json(&self) -> Value {
        Value::Array(
            self.rows
                .iter()
                .map(|r| {
                    let per = |v: u64| {
                        if r.imgs == 0 {
                            0.0
                        } else {
                            v as f64 / r.imgs as f64
                        }
                    };
                    obj(vec![
                        ("layer", Value::String(r.name.clone())),
                        ("route", Value::String(r.route.to_string())),
                        ("images", Value::UInt(r.imgs)),
                        ("wall_ns", Value::UInt(r.ns)),
                        ("us_per_img", Value::Float(r.us_per_img())),
                        ("ir_macs_per_img", Value::UInt(r.ir_macs)),
                        ("ir_popcount_words_per_img", Value::UInt(r.ir_popcounts)),
                        ("engine_macs_per_img", Value::Float(per(r.macs))),
                        (
                            "engine_popcount_words_per_img",
                            Value::Float(per(r.popcounts)),
                        ),
                        ("direct_convs_per_img", Value::Float(per(r.direct_convs))),
                        (
                            "gops",
                            Value::Float(if r.is_matrix { r.gops() } else { 0.0 }),
                        ),
                        ("finn_cycles", Value::UInt(r.finn_cycles)),
                    ])
                })
                .collect(),
        )
    }
}

/// First-max argmax, as the executor and the eval scorer compute it.
fn argmax(probs: &[f32]) -> usize {
    let mut best = 0;
    for k in 1..probs.len() {
        if probs[k] > probs[best] {
            best = k;
        }
    }
    best
}

/// Serialises tests that run int2 kernels: the engine's op counters are
/// process-wide, and one test reconciles them exactly.
#[cfg(test)]
pub static KERNEL_COUNTERS: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;
    use adapex_nn::serve::{BatchExecutor, EnginePlan, ExecutorConfig};
    use adapex_tensor::rng::rng_from_seed;
    use rand::RngExt;

    fn batch(net: &EarlyExitNetwork, n: usize, seed: u64) -> Activation {
        let mut rng = rng_from_seed(seed);
        let per: usize = net.input_dims.iter().product();
        let data = (0..n * per).map(|_| rng.random::<f32>()).collect();
        Activation::new(data, n, net.input_dims.clone())
    }

    /// The replay gives the executor's verdicts bit for bit and charges
    /// every stem, tail and exit layer.
    #[test]
    fn traced_replay_matches_the_executor() {
        let _counters = KERNEL_COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
        let net = build_net(3);
        let x = batch(&net, 12, 5);
        for threshold in [0.0f32, 0.105, 2.0] {
            let mut exec = BatchExecutor::new(
                &net,
                &ExecutorConfig {
                    threshold,
                    workers: 1,
                    engine: EnginePlan::Auto,
                },
            );
            let mut want = BatchVerdicts::default();
            exec.run_batch(&x, &mut want);
            let mut traced = TracedExecutor::new(&net, threshold);
            let mut got = BatchVerdicts::default();
            traced.run_batch(&x, &mut got);
            assert_eq!(got.exit, want.exit, "CT {threshold}");
            assert_eq!(got.class, want.class, "CT {threshold}");
            let bits =
                |v: &BatchVerdicts| v.confidence.iter().map(|c| c.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "CT {threshold}");
            if threshold == 2.0 {
                assert!(traced.rows.iter().all(|r| r.imgs == 12 && r.ns > 0));
                assert_eq!(traced.rows[0].route, "f32", "the stem reads raw pixels");
                assert!(traced.rows.iter().any(|r| r.route.starts_with("int2")));
                let macs: u64 = traced.rows.iter().map(|r| r.macs).sum();
                let ir = ModelIr::from_summary(&net.summarize());
                let (ir_macs, _) = ir.int2_engine_profile();
                let codes: u64 = traced
                    .rows
                    .iter()
                    .filter(|r| r.route == "f32-codes")
                    .map(|r| r.ir_macs)
                    .sum();
                assert_eq!(
                    macs,
                    (ir_macs - codes) * 12,
                    "engine MACs reconcile with the IR"
                );
            }
        }
    }

    #[test]
    fn metric_names_are_unique_and_valid() {
        let m = per_layer_metrics();
        let mut names: Vec<&str> = m.iter().map(|(n, _)| n.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), m.len());
        assert!(m.len() <= 128);
        for (n, u) in &m {
            assert!(
                n.len() <= 64
                    && n.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{n}"
            );
            assert!(
                u.len() <= 16
                    && u.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{u}"
            );
        }
        assert!(names.contains(&"layer.bb_conv1.us_per_img"));
        assert!(names.contains(&"layer.exit1_fc3.gops"));
    }
}
