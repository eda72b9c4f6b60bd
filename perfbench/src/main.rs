//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <ingest|serve|live> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Run from the repository root. `--trace 0` prints the end-to-end metrics
//! listed in `BENCHMARK.json`; `--trace 1` runs the same workload with
//! bench-side spans around every layer call and prints the per-layer
//! metrics instead (a layer the workload bypasses reads 0). The last line
//! of standard output is one JSON object with `correct`, `attempted`,
//! `failed` and `metrics`; the line before it carries the context (cores,
//! revision, repetitions, medians and quartiles, fixed rates and sizes).
//! The exit code is 1 when any correctness check failed.
//!
//! Inputs come only from `--seed`; the program under test sees only the
//! inputs generated from it. Scratch stores live under `.bench_work/` and
//! are removed on exit; span dumps and result records go to `.bench_out/`.

mod ingest;
mod live;
mod load;
mod serve;
mod spec;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use serde::Deserialize;

use crate::trace::Tracer;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Deserialize)]
struct MetricDef {
    name: String,
    unit: String,
}

#[derive(Deserialize)]
struct BenchmarkDef {
    end_to_end: Vec<MetricDef>,
    per_layer: Vec<MetricDef>,
}

/// What a workload gets to work with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Tracer,
    /// Scratch directory for this run's stores, removed on exit.
    pub work: PathBuf,
    /// Cores available (`nproc`): scan and build threads.
    pub threads: usize,
}

impl Ctx {
    pub fn dir(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }
}

/// What a workload reports.
#[derive(Default)]
pub struct Report {
    checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
    metrics: BTreeMap<String, f64>,
    notes: Vec<(String, String)>,
}

impl Report {
    /// Record a correctness check; any failed check fails the run. A check
    /// made more than once passes only if it passed every time.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            eprintln!("perfbench: check failed: {name}");
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, passed)) => *passed &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).copied()
    }

    /// Add operations attempted and how many of them failed or were refused.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Attach a context entry (`json` must be a JSON value).
    pub fn note(&mut self, name: &str, json: String) {
        self.notes.retain(|(n, _)| n != name);
        self.notes.push((name.to_string(), json));
    }

    /// Record a sample set's median and quartiles in the context.
    pub fn samples(&mut self, name: &str, values: &[f64]) -> stats::Summary {
        let summary = stats::Summary::of(values);
        self.note(name, summary.json());
        summary
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be an integer")?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| "--seconds must be an integer")?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: u64 = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// High-water resident set of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".into();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Removes the run's scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn json_str(s: &str) -> String {
    serde_json::to_string(s).expect("string serializes")
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let def: BenchmarkDef =
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let run: fn(&Ctx) -> Report = match args.workload.as_str() {
        "ingest" => ingest::run,
        "serve" => serve::run,
        "live" => live::run,
        other => {
            eprintln!("perfbench: unknown workload {other:?} (ingest, serve, live)");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let work = PathBuf::from(".bench_work").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create .bench_work");
    let guard = WorkDir(work.clone());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        tracer: Tracer::new(args.trace),
        work,
        threads,
    };

    let mut report = run(&ctx);
    report.metric("peak_rss_mb", peak_rss_mb());

    let out_dir = Path::new(".bench_out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload, args.seed, args.trace as u8
    );
    if ctx.tracer.on() {
        std::fs::create_dir_all(out_dir).expect("create .bench_out");
        ctx.tracer
            .write(&out_dir.join(format!("trace-{stem}.jsonl")))
            .expect("write span dump");
    }
    drop(guard);

    let wanted = if args.trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let mut metrics = Vec::new();
    let mut not_finite = Vec::new();
    for m in wanted {
        let value = match report.metrics.get(&m.name) {
            Some(v) => *v,
            // A layer this workload bypasses did no work.
            None if args.trace => 0.0,
            None => {
                report.check(&format!("reports {}", m.name), false);
                0.0
            }
        };
        if !value.is_finite() {
            not_finite.push(m.name.clone());
        }
        let value = if value.is_finite() { value } else { 0.0 };
        metrics.push(format!(
            "{}:{{\"value\":{value},\"unit\":{}}}",
            json_str(&m.name),
            json_str(&m.unit)
        ));
    }
    if !not_finite.is_empty() {
        eprintln!("perfbench: not finite: {not_finite:?}");
    }
    report.check("every metric is finite", not_finite.is_empty());
    let all_names: Vec<&str> = def
        .end_to_end
        .iter()
        .chain(&def.per_layer)
        .map(|m| m.name.as_str())
        .collect();
    let unlisted: Vec<String> = report
        .metrics
        .keys()
        .filter(|k| !all_names.contains(&k.as_str()))
        .cloned()
        .collect();
    for name in unlisted {
        report.check(&format!("{name} is listed in BENCHMARK.json"), false);
    }

    report.check("at least one operation attempted", report.attempted >= 1);
    let correct = report.checks.iter().all(|(_, ok)| *ok);
    let measured: Vec<String> = report
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", json_str(k), if v.is_finite() { *v } else { 0.0 }))
        .collect();
    let checks: Vec<String> = report
        .checks
        .iter()
        .map(|(name, ok)| format!("{}:{ok}", json_str(name)))
        .collect();
    let notes: Vec<String> = report
        .notes
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let mut fields = vec![
        format!("\"workload\":{}", json_str(&args.workload)),
        format!("\"seed\":{}", args.seed),
        format!("\"seconds\":{}", args.seconds),
        format!("\"trace\":{}", args.trace),
        format!("\"nproc\":{threads}"),
        format!("\"git_revision\":{}", json_str(&git_revision())),
        format!("\"checks\":{{{}}}", checks.join(",")),
        format!("\"measured\":{{{}}}", measured.join(",")),
    ];
    fields.extend(notes);
    let context = format!("{{\"context\":{{{}}}}}", fields.join(","));
    let result = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    if std::fs::create_dir_all(out_dir).is_ok() {
        let _ = std::fs::write(
            out_dir.join(format!("result-{stem}.json")),
            format!("{context}\n{result}\n"),
        );
    }
    println!("{context}");
    println!("{result}");
    if !correct {
        std::process::exit(1);
    }
}
