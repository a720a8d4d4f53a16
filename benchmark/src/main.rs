//! nestmark — the end-to-end benchmark for the NeST appliance.
//!
//! ```text
//! nestmark --workload W --seed N --seconds S --trace 0|1   one run, driver line last
//! nestmark run    [--seed N] [--seconds S]   all four workloads, every metric by name
//! nestmark traced [--seed N]                 the per-layer ladder for all four workloads
//! nestmark smoke                             everything, tiny, ≤ 30 s; non-zero on any failure
//! nestmark aa     [--seed N] [--seconds S]   the suite twice; differences against the bounds
//! nestmark serve --root DIR                  (internal) the appliance child process
//! ```
//!
//! See `README.md` beside this crate for what every workload and metric
//! means.

mod appliance;
mod json;
mod loadgen;
mod ops;
mod payload;
mod report;
mod rng;
mod serve;
mod stats;
mod traced;

use json::Json;
use loadgen::{RunParams, RunResult};
use ops::{Scale, Workload};
use report::Metric;
use std::io;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

/// Client threads (= cores of the reference box); each keeps at most one
/// request in flight.
const CLIENTS: usize = 2;
const WARMUP: Duration = Duration::from_secs(2);
/// Window of `run` / `aa` when `--seconds` is not given; matches
/// `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;
const SETUP_REPS: usize = 3;

/// Regression bounds of the end-to-end metrics, as in `BENCHMARK.json`.
const BOUNDS: [(&str, f64); 9] = [
    ("setup_s", 0.25),
    ("throughput_mbps", 0.25),
    ("ops_per_s", 0.25),
    ("op_p50_ms", 0.25),
    ("op_p99_ms", 0.25),
    ("get_ttfb_p50_ms", 0.25),
    ("server_cpu_ms_per_op", 0.25),
    ("server_rss_peak_mb", 0.25),
    ("space_amp", 0.001),
];

/// Metrics where a larger value is the better one.
const HIGHER_IS_BETTER: [&str; 2] = ["throughput_mbps", "ops_per_s"];

struct Args(Vec<String>);

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == name)?;
        self.0.get(at + 1).map(String::as_str)
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value for {name}: {v}")),
        }
    }
}

fn params(workload: Workload, scale: &Scale, seed: u64, seconds: f64) -> RunParams {
    RunParams {
        workload,
        scale: scale.clone(),
        seed,
        clients: CLIENTS,
        warmup: WARMUP,
        window: Duration::from_secs_f64(seconds),
        setup_reps: SETUP_REPS,
    }
}

fn print_failures(r: &RunResult) {
    let (attempted, failed) = report::attempts(r);
    if failed > 0 {
        eprintln!(
            "  {failed} of {attempted} ops FAILED on {}:",
            r.params.workload.name()
        );
        for why in &r.failures {
            eprintln!("    {why}");
        }
    }
}

fn write_out(name: &str, value: &Json) -> io::Result<()> {
    let dir = appliance::out_dir();
    std::fs::create_dir_all(&dir)?;
    std::fs::write(dir.join(name), format!("{value}\n"))
}

/// The driver contract: one workload, one JSON object as the last line.
fn driver(args: &Args) -> Result<ExitCode, String> {
    let name = args.flag("--workload").ok_or("--workload is required")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload {name}"))?;
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let trace: u8 = args.parsed("--trace", 0)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    let scale = Scale::full();
    let run = loadgen::run(&params(workload, &scale, seed, seconds)).map_err(|e| e.to_string())?;
    print_failures(&run);
    let (attempted, failed) = report::attempts(&run);
    let e2e = report::end_to_end(&run);
    eprint!("{}", report::slice_line(&run));
    let metrics = if trace == 0 {
        eprint!("{}", report::render_table(&e2e));
        e2e
    } else {
        let ladder = traced::ladder(workload, &scale, seed, &e2e).map_err(|e| e.to_string())?;
        let mut layers = ladder.metrics.clone();
        layers.extend(report::untraced_layers(&run));
        eprint!("{}", ladder.tree);
        eprint!("{}", report::render_table(&layers));
        write_out(&format!("trace-{}.json", workload.name()), &ladder.spans)
            .map_err(|e| e.to_string())?;
        // An open ladder is reported (trace.coverage_ratio, and `traced` /
        // `smoke` fail on it) but does not make this run's *outputs* wrong:
        // `correct` is about verified bytes only.
        layers
    };
    let line = Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Int(attempted.max(1) as i64)),
        ("failed", Json::Int(failed as i64)),
        ("metrics", report::driver_metrics(&metrics)),
    ]);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

struct SuiteRow {
    workload: Workload,
    end_to_end: Vec<Metric>,
    layers: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

/// All four workloads, untraced, each with the parameters `make` gives it.
fn suite(make: impl Fn(Workload) -> RunParams) -> io::Result<Vec<SuiteRow>> {
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let p = make(workload);
        eprintln!(
            "== {} (seed {}, {} s window)",
            workload.name(),
            p.seed,
            p.window.as_secs_f64()
        );
        let run = loadgen::run(&p)?;
        print_failures(&run);
        eprint!("{}", report::slice_line(&run));
        let (attempted, failed) = report::attempts(&run);
        rows.push(SuiteRow {
            workload,
            end_to_end: report::end_to_end(&run),
            layers: report::untraced_layers(&run),
            attempted,
            failed,
        });
    }
    Ok(rows)
}

fn host_json() -> Json {
    Json::obj(
        appliance::host_facts(&appliance::out_dir())
            .into_iter()
            .map(|(k, v)| (k, Json::Str(v))),
    )
}

fn print_suite(rows: &[SuiteRow]) {
    for row in rows {
        println!(
            "{}: {} ops attempted, {} failed",
            row.workload.name(),
            row.attempted,
            row.failed
        );
        print!("{}", report::render_table(&row.end_to_end));
        print!("{}", report::render_table(&row.layers));
    }
}

fn suite_json(rows: &[SuiteRow]) -> Json {
    Json::obj(rows.iter().map(|row| {
        (
            row.workload.name(),
            Json::obj([
                ("attempted", Json::Int(row.attempted as i64)),
                ("failed", Json::Int(row.failed as i64)),
                ("end_to_end", report::metrics_json(&row.end_to_end)),
                ("per_layer", report::metrics_json(&row.layers)),
            ]),
        )
    }))
}

fn run_mode(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let scale = Scale::full();
    let rows = suite(|w| params(w, &scale, seed, seconds)).map_err(|e| e.to_string())?;
    print_suite(&rows);
    let report = Json::obj([
        ("claim", Json::Null),
        ("seed", Json::Int(seed as i64)),
        ("window_s", Json::Num(seconds)),
        ("host", host_json()),
        ("workloads", suite_json(&rows)),
    ]);
    write_out("report.json", &report).map_err(|e| e.to_string())?;
    println!(
        "wrote {}",
        appliance::out_dir().join("report.json").display()
    );
    let failed: u64 = rows.iter().map(|r| r.failed).sum();
    Ok(if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The ladder for all four workloads; `Ok(false)` when one of them is open
/// (attributes less than 90 % of its dispatcher-rung wall time).
fn traced_suite(seed: u64, scale: &Scale) -> Result<bool, String> {
    let mut all_close = true;
    for workload in Workload::ALL {
        let ladder = traced::ladder(workload, scale, seed, &[]).map_err(|e| e.to_string())?;
        println!("== {} traced ladder (seed {seed})", workload.name());
        print!("{}", ladder.tree);
        print!("{}", report::render_table(&ladder.metrics));
        write_out(&format!("trace-{}.json", workload.name()), &ladder.spans)
            .map_err(|e| e.to_string())?;
        all_close &= ladder.closes;
    }
    Ok(all_close)
}

fn traced_mode(args: &Args) -> Result<ExitCode, String> {
    if traced_suite(args.parsed("--seed", 1)?, &Scale::full())? {
        return Ok(ExitCode::SUCCESS);
    }
    eprintln!("a ladder attributes less than 90 % of its dispatcher-rung wall time");
    Ok(ExitCode::FAILURE)
}

/// All four workloads plus the ladder on a tiny population and windows.
/// Fails on any wrong byte or failed op; an open ladder is only reported,
/// because a few hundred ops are too few to hold it to 90 %.
fn smoke_mode() -> Result<ExitCode, String> {
    let scale = Scale::smoke();
    let rows = suite(|w| RunParams {
        warmup: Duration::from_millis(300),
        setup_reps: 1,
        ..params(w, &scale, 1, 1.5)
    })
    .map_err(|e| e.to_string())?;
    print_suite(&rows);
    let failed: u64 = rows.iter().map(|r| r.failed).sum();
    let empty = rows.iter().any(|r| r.attempted == 0);
    // The ladder verifies every body it reads; a wrong byte is an error.
    if !traced_suite(1, &scale)? {
        eprintln!("note: a smoke-scale ladder attributes less than 90 %");
    }
    if failed > 0 || empty {
        eprintln!("smoke FAILED: {failed} failed ops, empty window: {empty}");
        return Ok(ExitCode::FAILURE);
    }
    println!("smoke ok");
    Ok(ExitCode::SUCCESS)
}

/// The suite twice, back to back, on the same code: the relative
/// difference of every (metric, workload) pair next to its bound. A pair
/// beyond its bound is `unresolved` — the measurement, not the bound, is
/// what to fix then.
fn aa_mode(args: &Args) -> Result<ExitCode, String> {
    let seed: u64 = args.parsed("--seed", 1)?;
    let seconds: f64 = args.parsed("--seconds", DEFAULT_SECONDS)?;
    let scale = Scale::full();
    let first = suite(|w| params(w, &scale, seed, seconds)).map_err(|e| e.to_string())?;
    let second = suite(|w| params(w, &scale, seed, seconds)).map_err(|e| e.to_string())?;
    let mut unresolved = 0;
    println!(
        "{:<10} {:<22} {:>12} {:>12} {:>8} {:>7}",
        "workload", "metric", "run A", "run B", "worse", "bound"
    );
    for (a, b) in first.iter().zip(&second) {
        for (ma, mb) in a.end_to_end.iter().zip(&b.end_to_end) {
            let (Some(va), Some(vb)) = (ma.value, mb.value) else {
                continue;
            };
            let bound = BOUNDS
                .iter()
                .find(|(n, _)| *n == ma.name)
                .map_or(f64::NAN, |(_, b)| *b);
            // How much worse B reads than A, as a share of A.
            let sign = if HIGHER_IS_BETTER.contains(&ma.name.as_str()) {
                -1.0
            } else {
                1.0
            };
            let worse = sign * (vb - va) / va;
            let verdict = if worse.abs() > bound {
                unresolved += 1;
                "  unresolved"
            } else {
                ""
            };
            println!(
                "{:<10} {:<22} {va:>12.4} {vb:>12.4} {:>+7.1}% {:>6.1}%{verdict}",
                a.workload.name(),
                ma.name,
                worse * 100.0,
                bound * 100.0
            );
        }
    }
    println!("{unresolved} unresolved pair(s)");
    Ok(if unresolved == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args = Args(std::env::args().skip(1).collect());
    let result = match args.0.first().map(String::as_str) {
        Some("serve") => match args.flag("--root") {
            Some(root) => serve::serve(Path::new(root))
                .map(|()| ExitCode::SUCCESS)
                .map_err(|e| e.to_string()),
            None => Err("serve needs --root DIR".into()),
        },
        Some("run") => run_mode(&args),
        Some("traced") => traced_mode(&args),
        Some("smoke") => smoke_mode(),
        Some("aa") => aa_mode(&args),
        Some(flag) if flag.starts_with("--") => driver(&args),
        _ => Err(
            "usage: nestmark run|traced|smoke|aa [--seed N] [--seconds S]\n       \
             nestmark --workload W --seed N --seconds S --trace 0|1"
                .into(),
        ),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("nestmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// `"name": "<x>"` → the text that follows up to the closing brace.
    fn spec_entries(section: &str) -> BTreeMap<String, String> {
        let spec = include_str!("../../BENCHMARK.json");
        let start = spec.find(&format!("\"{section}\"")).expect("section");
        let body = &spec[start..];
        let body = &body[..body.find(']').expect("section end")];
        body.split("\"name\": \"")
            .skip(1)
            .map(|entry| {
                let (name, rest) = entry.split_once('"').expect("closing quote");
                let rest = rest.split('}').next().unwrap_or("");
                (name.to_owned(), rest.to_owned())
            })
            .collect()
    }

    fn idle_run() -> RunResult {
        RunResult {
            params: params(Workload::JobIo, &Scale::smoke(), 1, 1.0),
            samples: Vec::new(),
            failures: Vec::new(),
            setup_s: vec![1.0],
            server_cpu_ms: 0.0,
            loadgen_cpu_ms: 0.0,
            server_rss_peak_mb: 1.0,
            stats_before: BTreeMap::new(),
            stats_after: BTreeMap::new(),
            committed_bytes: 1.0,
            live_bytes: 1,
        }
    }

    #[test]
    fn benchmark_json_and_the_code_agree_on_names_units_and_bounds() {
        let run = idle_run();
        let e2e = report::end_to_end(&run);
        let spec_e2e = spec_entries("end_to_end");
        assert_eq!(
            e2e.iter().map(|m| m.name.as_str()).collect::<Vec<_>>(),
            BOUNDS.iter().map(|(n, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(spec_e2e.len(), BOUNDS.len());
        for (metric, (name, bound)) in e2e.iter().zip(BOUNDS) {
            let entry = &spec_e2e[name];
            assert!(
                entry.contains(&format!("\"unit\": \"{}\"", metric.unit)),
                "{name}"
            );
            assert!(
                entry.contains(&format!("\"bound\": {bound}")),
                "{name}: {entry}"
            );
            let better = if HIGHER_IS_BETTER.contains(&name) {
                "higher"
            } else {
                "lower"
            };
            assert!(
                entry.contains(&format!("\"better\": \"{better}\"")),
                "{name}"
            );
        }

        // Per layer: the smoke-scale ladder (which must also close) plus
        // the untraced layers, in BENCHMARK.json's order.
        let ladder = traced::ladder(Workload::JobIo, &Scale::smoke(), 1, &e2e).expect("ladder");
        assert!(ladder.closes, "{}", ladder.tree);
        let mut layers = ladder.metrics;
        layers.extend(report::untraced_layers(&run));
        let spec_layers = spec_entries("per_layer");
        assert_eq!(spec_layers.len(), layers.len());
        for metric in &layers {
            let entry = spec_layers
                .get(&metric.name)
                .unwrap_or_else(|| panic!("{} is not in BENCHMARK.json", metric.name));
            assert!(
                entry.contains(&format!("\"unit\": \"{}\"", metric.unit)),
                "{}",
                metric.name
            );
        }
        for workload in Workload::ALL {
            assert!(spec_entries("workloads").contains_key(workload.name()));
        }
    }

    #[test]
    fn flags_parse_with_defaults() {
        let args = Args(["--seed", "7", "--trace", "1"].map(String::from).to_vec());
        assert_eq!(args.parsed("--seed", 1u64), Ok(7));
        assert_eq!(args.parsed("--seconds", 15.0), Ok(15.0));
        assert!(args.parsed::<u8>("--seed", 0).is_ok());
        assert!(Args(vec!["--seed".into(), "x".into()])
            .parsed("--seed", 1u64)
            .is_err());
    }
}
