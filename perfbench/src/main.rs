//! The repository benchmark: one seeded workload per process, end-to-end
//! metrics with tracing off, per-layer metrics from a separate traced run.
//!
//! ```text
//! obfuscade-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!                     [--design perfbench/design.json]
//! ```
//!
//! The last line of standard output is the JSON result; the lines before
//! it are the readable report (sample counts, per-rate rows, failures).
//! Workloads and metrics are described in `perfbench/design.json`.

mod inproc;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

use obfuscade::{kernel_mode, KernelMode};

use report::{END_TO_END, PER_LAYER};

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: &[&str] = &["cold-native", "tensile-study", "serve-hot", "serve-churn"];

/// A small deterministic generator (SplitMix64) for workload inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    design: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        design: PathBuf::from("perfbench/design.json"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if args.seconds.is_nan() || args.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--design" => args.design = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

fn run(args: &Args) -> Result<(), String> {
    // Every number this benchmark reports is for the production kernels;
    // the benchmark never selects another mode.
    if kernel_mode() != KernelMode::SpanPlan {
        return Err(format!(
            "kernel mode is {:?}, expected SpanPlan",
            kernel_mode()
        ));
    }
    if let Some(&(bad, _)) = END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|&&(name, _)| !stats::valid_metric_name(name))
    {
        return Err(format!("invalid metric name {bad}"));
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let design = serve::Design::load(&args.design)?;

    let (seed, seconds) = (args.seed, args.seconds);
    let mut rec = trace::Recorder::default();
    let mut result = match (args.workload.as_str(), args.trace) {
        ("cold-native", false) => inproc::cold_native(seed, seconds, nproc)?,
        ("cold-native", true) => inproc::cold_native_traced(seed, seconds, &mut rec)?,
        ("tensile-study", false) => inproc::tensile_study(seed, seconds, nproc)?,
        ("tensile-study", true) => inproc::tensile_study_traced(seed, seconds, nproc, &mut rec)?,
        (workload, traced) => {
            serve::run(workload, &design, seed, seconds, traced.then_some(&mut rec))?
        }
    };
    result.line(format!(
        "{} seed={seed} seconds={seconds} trace={} threads={nproc}",
        args.workload,
        u8::from(args.trace)
    ));
    if args.trace {
        let error_frac = result.failed as f64 / result.attempted.max(1) as f64;
        result.put("error_frac", error_frac, result.attempted as usize);
        let path =
            PathBuf::from(".bench_trace").join(format!("{}-seed{seed}.jsonl", args.workload));
        rec.write_jsonl(&path)
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        result.line(format!(
            "spans: {} written to {}",
            rec.spans().len(),
            path.display()
        ));
        result.print(PER_LAYER);
    } else {
        result.print(END_TO_END);
    }
    Ok(())
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
