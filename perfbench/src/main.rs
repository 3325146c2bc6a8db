//! One benchmark for the AdaPEx reproduction's serving data plane,
//! design-time library generation and fleet simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-exit --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Each process runs one workload. With `--trace 0` it prints the
//! end-to-end metrics, with `--trace 1` the per-layer ledger; the last
//! line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. Every layer is
//! measured from outside, through the crates' public functions only.
//! Ledger rows and the host record go to `.bench_out/` under the
//! working directory. See `README.md` beside this file.

mod fleet;
mod generate;
mod host;
mod ledger;
mod serve;
mod stats;

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads this binary runs, as `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["serve-exit", "generate", "fleet-faults"];

/// End-to-end metrics `(name, unit)`: printed by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
];

/// Run parameters from the command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (the workload's unit of work). None of
    /// them fails outright: a wrong output fails a check instead.
    pub attempted: u64,
    /// Failed output checks; any entry makes the run incorrect.
    pub check_failures: Vec<String>,
    /// Metric values by name; units come from the declared lists.
    pub metrics: BTreeMap<String, f64>,
    /// Ledger rows and other detail for `.bench_out/`.
    pub detail: Vec<(String, Value)>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.check_failures.push(what());
        }
    }
}

/// Times `f` `reps` times and returns the median wall seconds plus the
/// last result; set-up is reported this way so one slow pass cannot
/// move `setup_s`.
pub fn median_setup<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        let v = f();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (stats::median(&times), last.expect("at least one rep"))
}

/// Directory for ledger files and scratch caches, under the working
/// directory so a run reads and writes only inside its checkout.
pub fn out_dir() -> PathBuf {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).expect("create .bench_out");
    dir
}

/// A JSON object from `(key, value)` pairs, in order.
pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };

    if args.workload == "generate" {
        // generate runs `jobs = nproc` sweep jobs, and each of them would
        // spawn kernel threads in every conv as well, beyond nproc in
        // all. So its kernels run on one thread each. The other
        // workloads keep the program's default thread count.
        // `num_threads` reads the variable once, on first use, and
        // nothing has used it yet.
        std::env::set_var("ADAPEX_THREADS", "1");
        assert_eq!(
            adapex_tensor::parallel::num_threads(),
            1,
            "ADAPEX_THREADS read before set"
        );
    }
    let host = host::HostRecord::start();
    let mut out = match args.workload.as_str() {
        "serve-exit" => serve::run(&args),
        "generate" => generate::run(&args),
        "fleet-faults" => fleet::run(&args),
        _ => unreachable!("validated by parse_args"),
    };
    let (nproc, steal, ref_ms) = host.finish();
    out.set("host.nproc", nproc as f64);
    out.set("host.steal_ticks", steal as f64);
    out.set("host.ref_loop_ms", ref_ms);
    if !args.trace {
        out.set("peak_rss_mb", host::peak_rss_mb().unwrap_or(0.0));
    }

    let declared: Vec<(String, &str)> = if args.trace {
        ledger::per_layer_metrics()
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    for (name, _) in &declared {
        if !out.metrics.contains_key(name) {
            // A layer this workload never runs spent no time in it.
            out.metrics.insert(name.clone(), 0.0);
        }
    }
    for f in &out.check_failures {
        eprintln!("CHECK FAILED: {f}");
    }

    let detail_path = out_dir().join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let mut detail = vec![
        ("workload".to_string(), Value::String(args.workload.clone())),
        ("seed".to_string(), Value::UInt(args.seed)),
        ("trace".to_string(), Value::Bool(args.trace)),
        (
            "host".to_string(),
            obj(vec![
                ("nproc", Value::UInt(nproc as u64)),
                ("steal_ticks", Value::UInt(steal)),
                ("ref_loop_ms", Value::Float(ref_ms)),
            ]),
        ),
        (
            "metrics".to_string(),
            Value::Object(
                out.metrics
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Float(*v)))
                    .collect(),
            ),
        ),
        (
            "check_failures".to_string(),
            Value::Array(
                out.check_failures
                    .iter()
                    .cloned()
                    .map(Value::String)
                    .collect(),
            ),
        ),
    ];
    detail.append(&mut out.detail);
    let detail = Value::Object(detail);
    if let Err(e) = std::fs::write(
        &detail_path,
        serde_json::to_string_pretty(&detail).expect("serialize detail"),
    ) {
        eprintln!("warning: could not write {}: {e}", detail_path.display());
    }
    eprintln!(
        "host: nproc {nproc}, steal ticks {steal}, reference loop {ref_ms:.2} ms; detail in {}",
        detail_path.display()
    );

    let metrics: Vec<String> = declared
        .iter()
        .map(|(name, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(out.metrics[name])
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        out.check_failures.is_empty(),
        out.attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn args_parse_and_reject() {
        let a = parse_args(&argv("--workload generate --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("generate", 7, 3.0, true)
        );
        assert!(parse_args(&argv("--workload nope --seed 1")).is_err());
        assert!(parse_args(&argv("--workload generate")).is_err());
        assert!(parse_args(&argv("--workload generate --seed 1 --trace 2")).is_err());
        assert!(parse_args(&argv("--workload generate --seed")).is_err());
    }

    /// `BENCHMARK.json` declares exactly the metrics this binary prints.
    #[test]
    fn benchmark_json_matches_the_declared_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let spec: Value = serde_json::from_str(&text).expect("valid JSON");
        let field = |v: &Value, key: &str| -> String {
            v.get(key)
                .and_then(Value::as_str)
                .expect("string field")
                .to_string()
        };
        let list = |key: &str| -> Vec<(String, String)> {
            spec.get(key)
                .and_then(Value::as_array)
                .expect("metric list")
                .iter()
                .map(|m| (field(m, "name"), field(m, "unit")))
                .collect()
        };
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(list("end_to_end"), e2e);
        let per_layer: Vec<(String, String)> = ledger::per_layer_metrics()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(list("per_layer"), per_layer);
        let workloads: Vec<String> = spec
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
