//! The repository benchmark: one process per run of one workload.
//!
//! ```text
//! carlbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Every workload generates its inputs from `--seed`, sets up seven times
//! (reporting the median set-up time), measures for `--seconds`, checks
//! every answer, and prints its metrics by name and unit. The last line of
//! standard output is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`: the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics of a traced window that follows an untraced one. A
//! run record (and with `--trace 1` every span) is written under `out/`
//! next to this package. See README.md for the workloads and metrics.

mod compose;
mod ground;
mod query_cold;
mod serve;
mod stats;
mod trace;

use stats::{json_str, Summary};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// The seed runs use when none is given. README.md names a held-out seed
/// for re-checking claims on inputs not used while writing a change.
const DEFAULT_SEED: u64 = 1;

const WORKLOADS: [&str; 3] = ["query-cold-8k", "ground-skewed-8k", "serve-mixed-2k"];

/// The end-to-end metrics, reported for the workload's timed operation
/// (a query or a cold base grounding). Generic names keep every metric
/// defined on every workload; the run also prints the specific names
/// (`query_p50_ms`, `ground_p50_ms`, and the serve writer's
/// `commit_p50_ms`, …).
const END_TO_END: [(&str, &str); 5] = [
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run. Times are mean self time per call
/// of the layer; counts are per call of the layer, or per timed operation
/// for counters read around it; 0 where a workload never enters the layer.
pub const LAYERS: [(&str, &str); 36] = [
    ("carl_lang.parse_us", "us"),
    ("paths.unify_us", "us"),
    ("model.bind_ms", "ms"),
    ("ground.extension_ms", "ms"),
    ("peers.compute_ms", "ms"),
    ("peers.entries", "count"),
    ("adjust.covariates_ms", "ms"),
    ("adjust.columns", "count"),
    ("unit_table.build_ms", "ms"),
    ("unit_table.cells", "count"),
    ("query.estimate_ms", "ms"),
    ("reldb.index.builds", "count"),
    ("reldb.index.hits", "count"),
    ("reldb.plan.hit_frac", "ratio"),
    ("ground.base_ms", "ms"),
    ("reldb.eval.join_ms", "ms"),
    ("reldb.eval.rows", "count"),
    ("ground.merge_ms", "ms"),
    ("graph.nodes", "count"),
    ("graph.edges", "count"),
    ("rayon.morsels", "count"),
    ("rayon.steals", "count"),
    ("rayon.imbalance", "ratio"),
    ("snapshot.acquire_us", "us"),
    ("engine.first_read_ms", "ms"),
    ("engine.repeat_read_ms", "ms"),
    ("engine.first_read_frac", "ratio"),
    ("history.digest_us", "us"),
    ("instance.apply_ms", "ms"),
    ("instance.delta_cells", "count"),
    ("engine.screen_us", "us"),
    ("engine.patch_ms", "ms"),
    ("engine.cold_build_ms", "ms"),
    ("snapshot.patched_frac", "ratio"),
    ("trace.overhead_ms", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub window: Duration,
    pub trace: bool,
}

/// One latency series of a run: its operation, samples (ms) and the wall
/// time of the window that produced them.
pub struct Stream {
    pub op: &'static str,
    pub latencies: Vec<f64>,
    pub window_s: f64,
}

impl Stream {
    pub fn per_s(&self) -> f64 {
        self.latencies.len() as f64 / self.window_s
    }
}

/// What a workload hands back for reporting.
#[derive(Default)]
pub struct Run {
    pub workers: usize,
    pub setup_s: Vec<f64>,
    /// The untraced window's latency series; the first is the timed op.
    pub streams: Vec<Stream>,
    /// The timed op's latencies in the traced window (`--trace 1`).
    pub traced: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    pub peak_rss_mb: f64,
    /// Extra run-record fields, as JSON values.
    pub record: Vec<(&'static str, String)>,
    /// Per-layer values by metric name (`--trace 1`).
    pub layers: BTreeMap<&'static str, f64>,
    pub spans: String,
}

impl Run {
    /// Mean self time of span `name` per occurrence, in `unit` (`ms`/`us`).
    pub fn layer_times(
        &mut self,
        times: &BTreeMap<&'static str, (u64, u64)>,
        spans: &[(&'static str, &'static str)],
    ) {
        for &(span, metric) in spans {
            let (n, ns) = times.get(span).copied().unwrap_or((0, 0));
            let per_ns = if n == 0 { 0.0 } else { ns as f64 / n as f64 };
            let scale = if metric.ends_with("_us") { 1e3 } else { 1e6 };
            self.layers.insert(metric, per_ns / scale);
        }
    }
}

/// How many times a run sets up; `setup_s` is the median.
const SETUPS: usize = 7;

/// Set up [`SETUPS`] times, dropping each result before the next, and
/// return the last result with every set-up time in seconds.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        drop(kept.take());
        let start = std::time::Instant::now();
        kept = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (kept.expect("SETUPS >= 1"), times)
}

fn plural(op: &str) -> &'static str {
    match op {
        "query" => "queries",
        "ground" => "groundings",
        _ => "commits",
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        window: Duration::from_secs(10),
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                let s: u64 = value.parse().map_err(bad)?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                args.window = Duration::from_secs(s);
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}, not {:?}",
            WORKLOADS.join(", "),
            args.workload
        ));
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("carlbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match args.workload.as_str() {
        "query-cold-8k" => query_cold::run(&args),
        "ground-skewed-8k" => ground::run(&args),
        _ => serve::run(&args),
    };
    report(&args, run);
}

fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the package sits in the repository root")
        .to_path_buf()
}

fn report(args: &Args, run: Run) {
    let root = root();
    let primary = &run.streams[0];
    let summary = Summary::of(&primary.latencies);
    let setup_s = stats::median(&run.setup_s);
    let commit = stats::commit_hash(&root);
    let source = stats::source_digest(&root);

    println!(
        "{} seed={} trace={} nproc={} workers={} commit={} source={}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        stats::nproc(),
        run.workers,
        commit,
        source
    );
    // The operation-specific names of every series the workload measured.
    let mut named = Vec::new();
    for stream in &run.streams {
        let s = Summary::of(&stream.latencies);
        named.push((format!("{}_p50_ms", stream.op), s.p50, "ms", s.n));
        named.push((format!("{}_p95_ms", stream.op), s.p95, "ms", s.n));
        named.push((
            format!("{}_per_s", plural(stream.op)),
            stream.per_s(),
            "1/s",
            s.n,
        ));
    }
    named.push(("setup_s".into(), setup_s, "s", run.setup_s.len()));
    let failed_frac = compose::ratio(run.failed, run.attempted);
    named.push((
        "failed_frac".into(),
        failed_frac,
        "ratio",
        run.attempted as usize,
    ));
    named.push(("peak_rss_mb".into(), run.peak_rss_mb, "MB", 1));
    for (name, value, unit, n) in &named {
        println!("  {name:<22} {value:>12.4} {unit:<5} (n={n})");
    }

    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let traced = Summary::of(&run.traced);
        let mut layers = run.layers.clone();
        layers.insert("trace.overhead_ms", traced.p50 - summary.p50);
        layers.insert(
            "trace.overhead_frac",
            if summary.p50 > 0.0 {
                traced.p50 / summary.p50 - 1.0
            } else {
                0.0
            },
        );
        println!(
            "  traced window: {} p50 {:.4} ms (n={})",
            primary.op, traced.p50, traced.n
        );
        for (name, unit) in LAYERS {
            println!(
                "  {name:<24} {:>12.4} {unit}",
                layers.get(name).copied().unwrap_or(0.0)
            );
        }
        LAYERS
            .iter()
            .map(|&(name, unit)| (name, layers.get(name).copied().unwrap_or(0.0), unit))
            .collect()
    } else {
        let values = [
            summary.p50,
            summary.p95,
            primary.per_s(),
            setup_s,
            run.peak_rss_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| (name, v, unit))
            .collect()
    };

    let metrics_json = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(name),
                json_str(unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");

    let mut record = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("trace", args.trace.to_string()),
        ("seconds", args.window.as_secs().to_string()),
        ("nproc", stats::nproc().to_string()),
        ("workers", run.workers.to_string()),
        ("git_commit", json_str(&commit)),
        ("source_digest", json_str(&source)),
        ("attempted", run.attempted.to_string()),
        ("failed", run.failed.to_string()),
        (
            "setup_s_runs",
            format!(
                "[{}]",
                run.setup_s
                    .iter()
                    .map(f64::to_string)
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ),
    ];
    for stream in &run.streams {
        let latency = Summary::of(&stream.latencies).json();
        record.push((
            stream.op,
            format!(
                "{{\"window_s\": {}, \"latency\": {latency}}}",
                stream.window_s
            ),
        ));
    }
    if args.trace {
        record.push(("traced_latency", Summary::of(&run.traced).json()));
    }
    record.push((
        "named_metrics",
        format!(
            "{{{}}}",
            named
                .iter()
                .map(|(n, v, u, c)| format!(
                    "{}: {{\"value\": {v}, \"unit\": {}, \"samples\": {c}}}",
                    json_str(n),
                    json_str(u)
                ))
                .collect::<Vec<_>>()
                .join(", ")
        ),
    ));
    record.push(("metrics", format!("{{{metrics_json}}}")));
    record.extend(run.record.iter().cloned());

    let out = root.join("carlbench").join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let body = record
        .iter()
        .map(|(k, v)| format!("  {}: {v}", json_str(k)))
        .collect::<Vec<_>>()
        .join(",\n");
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| {
            std::fs::write(
                out.join(format!("{stem}.json")),
                format!("{{\n{body}\n}}\n"),
            )
        })
        .and_then(|()| {
            if args.trace {
                std::fs::write(out.join(format!("{stem}-spans.json")), &run.spans)
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!(
            "carlbench: cannot write the run record under {}: {e}",
            out.display()
        );
        std::process::exit(1);
    }
    println!("  run record: carlbench/out/{stem}.json");

    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics_json}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed
    );
}
