//! Turns what a run observed into named metrics. Names, units and
//! definitions here are the contract `BENCHMARK.json` and the README pin;
//! a unit test holds the three together.

use crate::json::Json;
use crate::loadgen::{RunResult, Sample};
use crate::ops::Front;
use crate::stats::{median, percentile, samples_beyond, slice_rates};
use std::collections::BTreeMap;

/// The measured window is cut into this many equal slices; throughput and
/// op rate are the median slice rate, so a stall that hits one or two
/// slices does not move them.
pub const SLICES: usize = 6;

/// A named value. `None` means "not measured here", with the reason in
/// `note`: the metric does not apply to this workload, or the counter it
/// reads no longer exists. Never an error.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: Option<f64>,
    pub note: Option<String>,
}

impl Metric {
    pub fn new(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: value.is_finite().then_some(value),
            note: (!value.is_finite()).then(|| "not a finite number".to_owned()),
        }
    }

    pub fn absent(name: impl Into<String>, unit: &'static str, why: impl Into<String>) -> Metric {
        Metric {
            name: name.into(),
            unit,
            value: None,
            note: Some(why.into()),
        }
    }

    fn from_option(name: &str, unit: &'static str, value: Option<f64>, why: &str) -> Metric {
        match value {
            Some(v) => Metric::new(name, unit, v),
            None => Metric::absent(name, unit, why),
        }
    }
}

fn ok_samples(r: &RunResult) -> impl Iterator<Item = &Sample> {
    r.samples.iter().filter(|s| s.ok)
}

fn sorted(values: impl Iterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Attempted and failed op counts inside the window.
pub fn attempts(r: &RunResult) -> (u64, u64) {
    let failed = r.samples.iter().filter(|s| !s.ok).count() as u64;
    (r.samples.len() as u64, failed)
}

/// The end-to-end metrics, in `BENCHMARK.json` order. Only ever computed
/// from an untraced run.
pub fn end_to_end(r: &RunResult) -> Vec<Metric> {
    let window_s = r.params.window.as_secs_f64();
    let ok: Vec<&Sample> = ok_samples(r).collect();
    let ops = ok.len() as f64;
    let mb: Vec<(f64, f64)> = ok.iter().map(|s| (s.end_s, s.bytes as f64 / 1e6)).collect();
    let done: Vec<(f64, f64)> = ok.iter().map(|s| (s.end_s, 1.0)).collect();
    let latency = sorted(ok.iter().map(|s| s.latency_ms));
    let ttfb = sorted(ok.iter().filter_map(|s| s.ttfb_ms));
    let no_ops = "no op completed inside the window";
    vec![
        Metric::from_option("setup_s", "s", median(&r.setup_s), "no set-up ran"),
        Metric::from_option(
            "throughput_mbps",
            "MB/s",
            median(&slice_rates(&mb, window_s, SLICES)),
            no_ops,
        ),
        Metric::from_option(
            "ops_per_s",
            "1/s",
            median(&slice_rates(&done, window_s, SLICES)),
            no_ops,
        ),
        Metric::from_option("op_p50_ms", "ms", percentile(&latency, 0.50), no_ops),
        Metric::from_option("op_p99_ms", "ms", percentile(&latency, 0.99), no_ops),
        Metric::from_option(
            "get_ttfb_p50_ms",
            "ms",
            percentile(&ttfb, 0.50),
            "no GET/READ completed inside the window",
        ),
        Metric::new("server_cpu_ms_per_op", "ms", r.server_cpu_ms / ops),
        Metric::new("server_rss_peak_mb", "MB", r.server_rss_peak_mb),
        Metric::new(
            "space_amp",
            "ratio",
            r.committed_bytes / r.live_bytes as f64,
        ),
    ]
}

/// The per-slice MB/s behind `throughput_mbps`, for the human report: a
/// stall or a drift inside the window shows here and nowhere else.
pub fn slice_line(r: &RunResult) -> String {
    let mb: Vec<(f64, f64)> = ok_samples(r)
        .map(|s| (s.end_s, s.bytes as f64 / 1e6))
        .collect();
    let rates = slice_rates(&mb, r.params.window.as_secs_f64(), SLICES);
    let shown: Vec<String> = rates.iter().map(|v| format!("{v:.1}")).collect();
    format!("  MB/s per slice: {}\n", shown.join(" "))
}

/// `after − before` of a `/nest/stats` counter; `None` when either
/// snapshot lacks it (the counter was renamed or removed).
pub fn counter_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    name: &str,
) -> Option<f64> {
    Some(after.get(name)? - before.get(name)?)
}

/// Sum of the deltas of every counter named `<prefix>…<suffix>`; `None`
/// when no such counter exists in both snapshots.
fn family_delta(
    before: &BTreeMap<String, f64>,
    after: &BTreeMap<String, f64>,
    prefix: &str,
    suffix: &str,
) -> Option<f64> {
    let mut members = after
        .keys()
        .filter(|k| k.starts_with(prefix) && k.ends_with(suffix))
        .filter_map(|k| counter_delta(before, after, k))
        .peekable();
    members.peek()?;
    Some(members.sum())
}

/// Builds one ratio-style metric from counters: `f` receives a lookup that
/// yields a counter's delta and records the first missing name, which then
/// becomes the metric's note.
fn derived(
    name: &str,
    unit: &'static str,
    r: &RunResult,
    f: impl FnOnce(&mut dyn FnMut(&str) -> Option<f64>) -> Option<f64>,
) -> Metric {
    let mut missing = None;
    let mut lookup = |counter: &str| {
        let v = counter_delta(&r.stats_before, &r.stats_after, counter);
        if v.is_none() && missing.is_none() {
            missing = Some(counter.to_owned());
        }
        v
    };
    match (f(&mut lookup), missing) {
        (Some(v), _) if v.is_finite() => Metric::new(name, unit, v),
        (_, Some(counter)) => Metric::absent(
            name,
            unit,
            format!("/nest/stats has no counter {counter} any more"),
        ),
        _ => Metric::absent(name, unit, "denominator was zero in this window"),
    }
}

fn ratio(num: f64, den: f64) -> Option<f64> {
    (den != 0.0).then(|| num / den)
}

/// Per-layer metrics that come from the untraced run: per-front client
/// timers, `/nest/stats` deltas over the window, and the load generator's
/// own validity numbers.
pub fn untraced_layers(r: &RunResult) -> Vec<Metric> {
    let window_s = r.params.window.as_secs_f64();
    let ops = ok_samples(r).count() as f64;
    let kops = ops / 1e3;
    let mut out = Vec::new();

    for front in Front::ALL {
        let mine: Vec<&Sample> = ok_samples(r).filter(|s| s.front == front).collect();
        let p50 = format!("core.fronts.{}.op_p50_ms", front.name());
        let mbps = format!("core.fronts.{}.mbps", front.name());
        if mine.is_empty() {
            let why = format!(
                "{} sends nothing through {}",
                r.params.workload.name(),
                front.name()
            );
            out.push(Metric::absent(p50, "ms", why.clone()));
            out.push(Metric::absent(mbps, "MB/s", why));
            continue;
        }
        let latency = sorted(mine.iter().map(|s| s.latency_ms));
        let bytes: f64 = mine.iter().map(|s| s.bytes as f64).sum();
        out.push(Metric::new(
            p50,
            "ms",
            percentile(&latency, 0.50).unwrap_or(f64::NAN),
        ));
        // A front's share of the wall clock is not known (fronts
        // interleave), so this is delivered MB over the whole window.
        out.push(Metric::new(mbps, "MB/s", bytes / 1e6 / window_s));
    }

    let connects = sorted(ok_samples(r).filter_map(|s| s.connect_us));
    out.push(Metric::from_option(
        "core.session.connect_p50_us",
        "us",
        percentile(&connects, 0.50),
        "the workload opens no fresh connection inside the window",
    ));

    out.push(derived("storage.handle_cache.hit_ratio", "ratio", r, |c| {
        let (hits, misses) = (c("handlecache.hits")?, c("handlecache.misses")?);
        ratio(hits, hits + misses)
    }));
    out.push(derived(
        "storage.handle_cache.evictions_per_kop",
        "1/kop",
        r,
        |c| ratio(c("handlecache.evictions")?, kops),
    ));
    out.push(derived("storage.mem_tier.hit_ratio", "ratio", r, |c| {
        let (hits, misses) = (c("memtier.hits")?, c("memtier.misses")?);
        ratio(hits, hits + misses)
    }));
    out.push(derived(
        "storage.mem_tier.hits_per_promotion",
        "ratio",
        r,
        |c| ratio(c("memtier.hits")?, c("memtier.promotions")?),
    ));
    out.push(Metric::from_option(
        "storage.mem_tier.resident_mb",
        "MB",
        r.stats_after.get("memtier.bytes").map(|b| b / 1e6),
        "/nest/stats has no gauge memtier.bytes any more",
    ));
    out.push(derived("transfer.bufpool.reuse_ratio", "ratio", r, |c| {
        let (reuse, fresh) = (c("bufpool.reuse")?, c("bufpool.fresh")?);
        ratio(reuse, reuse + fresh)
    }));
    out.push(derived("transfer.zerocopy.flow_share", "ratio", r, |c| {
        ratio(
            c("transfer.zerocopy.sendfile_flows")?,
            c("dispatch.op.get")?,
        )
    }));
    out.push(derived(
        "transfer.zerocopy.fallbacks_per_kop",
        "1/kop",
        r,
        |c| ratio(c("transfer.zerocopy.fallbacks")?, kops),
    ));
    out.push(derived(
        "transfer.manager.engine_cpu_ns_per_byte",
        "ns/B",
        r,
        |c| ratio(c("transfer.engine.cpu_ns")?, c("transfer.bytes_total")?),
    ));
    out.push(derived(
        "transfer.adaptive.switches_per_kop",
        "1/kop",
        r,
        |c| ratio(c("transfer.model.switches")?, kops),
    ));
    out.push(derived(
        "transfer.manager.retries_per_kop",
        "1/kop",
        r,
        |c| ratio(c("transfer.retries")?, kops),
    ));
    out.push(derived("transfer.manager.failures", "count", r, |c| {
        Some(c("transfer.failures")? + c("transfer.aborted")?)
    }));
    out.push(derived(
        "transfer.cache.predicted_hit_ratio",
        "ratio",
        r,
        |c| {
            let hits = c("dispatch.cache.predicted_hits")?;
            ratio(hits, hits + c("dispatch.cache.predicted_misses")?)
        },
    ));
    out.push(derived(
        "core.session.rejected_per_kconn",
        "1/kconn",
        r,
        |c| ratio(c("session.rejected")?, c("session.accepted")? / 1e3),
    ));

    let lock = |suffix| family_delta(&r.stats_before, &r.stats_after, "lock.", suffix);
    let no_locks = "/nest/stats has no lock.* families any more";
    out.push(Metric::from_option(
        "lock.wait_us_per_op",
        "us",
        lock(".wait_us").and_then(|w| ratio(w, ops)),
        no_locks,
    ));
    out.push(Metric::from_option(
        "lock.contended_ratio",
        "ratio",
        lock(".contended").and_then(|c| ratio(c, lock(".acquires")?)),
        no_locks,
    ));

    let (attempted, failed) = attempts(r);
    out.push(Metric::new(
        "loadgen.cpu_ms_per_op",
        "ms",
        r.loadgen_cpu_ms / ops,
    ));
    out.push(Metric::new(
        "loadgen.fail_ratio",
        "ratio",
        failed as f64 / attempted.max(1) as f64,
    ));
    out.push(Metric::new("loadgen.op_samples", "count", ops));
    out.push(Metric::new(
        "loadgen.op_p99_samples_beyond",
        "count",
        samples_beyond(ops as usize, 0.99) as f64,
    ));
    out
}

/// The driver line's `metrics` object. A metric without a value reads 0
/// there (the driver wants a number for every name); the human report and
/// `out/*.json` keep `null` plus the reason.
pub fn driver_metrics(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let value = Json::Num(m.value.unwrap_or(0.0));
        (
            m.name.clone(),
            Json::obj([("value", value), ("unit", Json::str(m.unit))]),
        )
    }))
}

/// Full-fidelity form for `out/*.json`: `null` values keep their note.
pub fn metrics_json(metrics: &[Metric]) -> Json {
    Json::obj(metrics.iter().map(|m| {
        let mut fields = vec![
            ("value", m.value.map_or(Json::Null, Json::Num)),
            ("unit", Json::str(m.unit)),
        ];
        if let Some(note) = &m.note {
            fields.push(("note", Json::str(note.clone())));
        }
        (m.name.clone(), Json::obj(fields))
    }))
}

/// One aligned `name value unit  # note` line per metric.
pub fn render_table(metrics: &[Metric]) -> String {
    let width = metrics.iter().map(|m| m.name.len()).max().unwrap_or(0);
    let mut out = String::new();
    for m in metrics {
        let value = m
            .value
            .map_or_else(|| "null".to_owned(), |v| format!("{v:.4}"));
        let note = m
            .note
            .as_ref()
            .map_or(String::new(), |n| format!("  # {n}"));
        out.push_str(&format!(
            "  {:width$}  {value:>14} {}{note}\n",
            m.name, m.unit
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect()
    }

    #[test]
    fn stats_delta_is_null_for_a_missing_counter() {
        let text_before = "handlecache.hits 10\nhandlecache.misses 5\nsession.accepted 3\n";
        let text_after = "handlecache.hits 110\nhandlecache.misses 15\nnew.counter 9\n";
        let before = nest_obs::MetricsSnapshot::parse_text(text_before);
        let after = nest_obs::MetricsSnapshot::parse_text(text_after);
        assert_eq!(
            counter_delta(&before, &after, "handlecache.hits"),
            Some(100.0)
        );
        // Gone after, or new since before: no delta, never an error.
        assert_eq!(counter_delta(&before, &after, "session.accepted"), None);
        assert_eq!(counter_delta(&before, &after, "new.counter"), None);
        assert_eq!(counter_delta(&before, &after, "never.existed"), None);
    }

    #[test]
    fn lock_families_sum_across_classes() {
        let before = snapshot(&[("lock.a.wait_us", 1.0), ("lock.b.c.wait_us", 2.0)]);
        let after = snapshot(&[
            ("lock.a.wait_us", 11.0),
            ("lock.b.c.wait_us", 7.0),
            ("lock.a.acquires", 99.0),
        ]);
        assert_eq!(
            family_delta(&before, &after, "lock.", ".wait_us"),
            Some(15.0)
        );
        assert_eq!(family_delta(&before, &after, "lock.", ".hold_us"), None);
    }

    #[test]
    fn driver_line_substitutes_zero_but_the_report_keeps_null() {
        let metrics = [
            Metric::new("a.b", "ms", 1.25),
            Metric::absent("c.d", "us", "no such front"),
        ];
        assert_eq!(
            driver_metrics(&metrics).to_string(),
            "{\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}, \"c.d\": {\"value\": 0, \"unit\": \"us\"}}"
        );
        assert_eq!(
            metrics_json(&metrics).to_string(),
            "{\"a.b\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"c.d\": {\"value\": null, \"unit\": \"us\", \"note\": \"no such front\"}}"
        );
        assert!(render_table(&metrics).contains("null us  # no such front"));
    }
}
