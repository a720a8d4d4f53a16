//! Adaptive concurrency-model selection (paper §4.1).
//!
//! "To deliver high performance, NeST dynamically chooses among these
//! architectures; the choice is enabled by distributing requests among the
//! architectures equally at first, monitoring their progress, and then
//! slowly biasing requests toward the most effective choice."
//!
//! The selector keeps an exponentially weighted moving average of each
//! model's observed throughput. During a warmup window assignments rotate
//! round-robin; afterwards the best-scoring model receives most requests,
//! with a periodic exploration slot that probes the other model so the
//! choice can track workload shifts. This periodic re-measurement is the
//! "cost for adaptation" visible in Figure 5: the adaptive line sits
//! between the best and worst pure models.
//!
//! Scores are kept **per scheduling class** and combined by *relative*
//! standing, not raw bytes/sec. Raw averaging has a starvation failure
//! mode: page-cache-resident flows complete at memcpy speed (GB/s) while
//! disk-bound flows run at device speed (MB/s), so a model that happens
//! to serve more cached traffic dominates any global average even if it
//! is the *worst* choice for the disk-bound class.
//! Normalizing each class's score by that class's best-model score before
//! averaging makes a model's standing mean "how close to the per-class
//! winner is it, on the classes it has served" — classes with wildly
//! different absolute speeds then carry equal weight.

use crate::concurrency::ModelKind;
use std::collections::HashMap;

/// EWMA smoothing factor for throughput observations.
const ALPHA: f64 = 0.2;

/// The adaptive model selector.
#[derive(Debug)]
pub struct AdaptiveSelector {
    models: Vec<ModelKind>,
    /// EWMA of throughput (bytes/sec) per model, split by scheduling
    /// class; empty until first report. Class-free reports land under "".
    score: HashMap<ModelKind, HashMap<String, f64>>,
    assignments: u64,
    /// Assignments during which models rotate round-robin.
    warmup: u64,
    /// After warmup, every `explore_period`-th assignment probes the
    /// first non-best model.
    explore_period: u64,
}

impl AdaptiveSelector {
    /// Creates a selector over the given models with the paper-style
    /// defaults: a warmup of 4 assignments per model, exploration every
    /// 8th assignment.
    pub fn new(models: Vec<ModelKind>) -> Self {
        assert!(!models.is_empty(), "need at least one model");
        let warmup = models.len() as u64 * 4;
        Self {
            models,
            score: HashMap::new(),
            assignments: 0,
            warmup,
            explore_period: 8,
        }
    }

    /// Overrides the warmup length (total assignments, not per model).
    pub fn with_warmup(mut self, warmup: u64) -> Self {
        self.warmup = warmup;
        self
    }

    /// Overrides the exploration period (0 disables exploration entirely —
    /// pure exploit after warmup).
    pub fn with_explore_period(mut self, period: u64) -> Self {
        self.explore_period = period;
        self
    }

    /// The models under consideration.
    pub fn models(&self) -> &[ModelKind] {
        &self.models
    }

    /// Picks the model for the next request.
    pub fn choose(&mut self) -> ModelKind {
        let n = self.assignments;
        self.assignments += 1;

        if n < self.warmup {
            // Equal distribution at first.
            return self.models[(n % self.models.len() as u64) as usize];
        }
        let best = self.best();
        if self.explore_period > 0 && n.is_multiple_of(self.explore_period) {
            // Periodic exploration: probe the other model.
            if let Some(other) = self.models.iter().copied().find(|m| *m != best) {
                return other;
            }
        }
        best
    }

    /// Reports an observed completion: `bytes` moved in `seconds`
    /// (class-free; lands in the "" class).
    pub fn report(&mut self, model: ModelKind, bytes: u64, seconds: f64) {
        self.report_classed(model, "", bytes, seconds);
    }

    /// Reports an observed completion under its scheduling class, so
    /// memcpy-fast classes (page-cache hits) and device-bound classes
    /// are scored separately.
    pub fn report_classed(&mut self, model: ModelKind, class: &str, bytes: u64, seconds: f64) {
        if seconds <= 0.0 {
            return;
        }
        let throughput = bytes as f64 / seconds;
        let entry = self
            .score
            .entry(model)
            .or_default()
            .entry(class.to_string())
            .or_insert(throughput);
        *entry = ALPHA * throughput + (1.0 - ALPHA) * *entry;
    }

    /// Reports a *failed* transfer: the model is scored as if it had
    /// delivered zero throughput, so its EWMA decays and a broken model
    /// stops attracting traffic.
    ///
    /// Crucially this also *creates* a score for a model that has never
    /// succeeded — without it, an always-failing model would keep its
    /// optimistic `INFINITY` standing in [`AdaptiveSelector::best`] and be
    /// picked forever.
    pub fn report_failure(&mut self, model: ModelKind) {
        self.report_failure_classed(model, "");
    }

    /// Class-attributed variant of [`AdaptiveSelector::report_failure`].
    pub fn report_failure_classed(&mut self, model: ModelKind, class: &str) {
        let entry = self
            .score
            .entry(model)
            .or_default()
            .entry(class.to_string())
            .or_insert(0.0);
        *entry *= 1.0 - ALPHA;
    }

    /// A model's standing: the mean, over the classes it has served, of
    /// its EWMA relative to that class's best model. Unmeasured models are
    /// optimistic (`INFINITY`) so they get measured at least once.
    fn relative_standing(&self, model: ModelKind, class_max: &HashMap<&str, f64>) -> f64 {
        match self.score.get(&model) {
            None => f64::INFINITY,
            Some(per_class) if per_class.is_empty() => f64::INFINITY,
            Some(per_class) => {
                let sum: f64 = per_class
                    .iter()
                    .map(|(class, ewma)| {
                        let max = class_max.get(class.as_str()).copied().unwrap_or(0.0);
                        if max > 0.0 {
                            ewma / max
                        } else {
                            0.0
                        }
                    })
                    .sum();
                sum / per_class.len() as f64
            }
        }
    }

    /// The current best model by mean per-class relative standing
    /// (unscored models win ties optimistically so they get measured at
    /// least once).
    pub fn best(&self) -> ModelKind {
        let mut class_max: HashMap<&str, f64> = HashMap::new();
        for per_class in self.score.values() {
            for (class, ewma) in per_class {
                let slot = class_max.entry(class.as_str()).or_insert(0.0);
                if *ewma > *slot {
                    *slot = *ewma;
                }
            }
        }
        *self
            .models
            .iter()
            .max_by(|a, b| {
                let sa = self.relative_standing(**a, &class_max);
                let sb = self.relative_standing(**b, &class_max);
                sa.partial_cmp(&sb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("models non-empty")
    }

    /// The current score table (model → mean EWMA throughput across its
    /// measured classes), for diagnostics.
    pub fn scores(&self) -> Vec<(ModelKind, Option<f64>)> {
        self.models
            .iter()
            .map(|m| {
                let mean = self
                    .score
                    .get(m)
                    .filter(|per_class| !per_class.is_empty())
                    .map(|per_class| per_class.values().sum::<f64>() / per_class.len() as f64);
                (*m, mean)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_models() -> Vec<ModelKind> {
        vec![ModelKind::Threads, ModelKind::Events]
    }

    #[test]
    fn warmup_distributes_equally() {
        let mut s = AdaptiveSelector::new(all_models()).with_warmup(8);
        let mut counts: HashMap<ModelKind, u32> = HashMap::new();
        for _ in 0..8 {
            *counts.entry(s.choose()).or_insert(0) += 1;
        }
        assert_eq!(counts[&ModelKind::Threads], 4);
        assert_eq!(counts[&ModelKind::Events], 4);
    }

    #[test]
    fn converges_to_fastest_model() {
        let mut s = AdaptiveSelector::new(all_models()).with_warmup(4);
        // Feed observations: events 3x faster than threads.
        for _ in 0..20 {
            s.report(ModelKind::Events, 3_000_000, 1.0);
            s.report(ModelKind::Threads, 1_000_000, 1.0);
        }
        assert_eq!(s.best(), ModelKind::Events);
        let mut counts: HashMap<ModelKind, u32> = HashMap::new();
        for _ in 0..800 {
            let m = s.choose();
            *counts.entry(m).or_insert(0) += 1;
            // Keep observations flowing so exploration does not flip the
            // leader.
            let tput = match m {
                ModelKind::Events => 3_000_000,
                ModelKind::Threads => 1_000_000,
            };
            s.report(m, tput, 1.0);
        }
        let events = counts[&ModelKind::Events];
        assert!(
            events > 600,
            "events got only {} of 800 assignments",
            events
        );
        // But exploration means the other is still probed.
        assert!(counts[&ModelKind::Threads] > 0);
    }

    #[test]
    fn adapts_when_workload_shifts() {
        let mut s = AdaptiveSelector::new(vec![ModelKind::Events, ModelKind::Threads])
            .with_warmup(4)
            .with_explore_period(4);
        // Phase 1: events wins.
        for _ in 0..30 {
            s.report(ModelKind::Events, 2_000_000, 1.0);
            s.report(ModelKind::Threads, 500_000, 1.0);
        }
        assert_eq!(s.best(), ModelKind::Events);
        // Phase 2: workload shifts (large I/O-bound files): threads wins.
        // The periodic exploration keeps measuring threads, so the EWMA
        // crosses over.
        for _ in 0..60 {
            s.report(ModelKind::Events, 500_000, 1.0);
            s.report(ModelKind::Threads, 2_000_000, 1.0);
        }
        assert_eq!(s.best(), ModelKind::Threads);
    }

    #[test]
    fn exploration_rate_is_fixed_by_construction() {
        // After warmup, with stable scores, every 8th pick explores the
        // non-best model. Each exploration is two switches (away and
        // back): 250 per 1,000 picks, with 1/8 of all flows going to the
        // non-best model. This is the rate
        // `transfer.adaptive.switches_per_kop` reads on every workload —
        // the paper's periodic re-measurement, not thrash.
        let mut s = AdaptiveSelector::new(all_models());
        let mut last = None;
        for _ in 0..8 {
            last = Some(s.choose()); // warmup: 4 picks per model
        }
        s.report(ModelKind::Events, 3_000_000, 1.0);
        s.report(ModelKind::Threads, 1_000_000, 1.0);
        let mut switches = 0;
        let mut counts: HashMap<ModelKind, u32> = HashMap::new();
        for _ in 0..2000 {
            let m = s.choose();
            if last != Some(m) {
                switches += 1;
            }
            last = Some(m);
            *counts.entry(m).or_insert(0) += 1;
        }
        assert_eq!(switches, 2 * 250);
        assert_eq!(counts[&ModelKind::Threads], 2000 / 8);
        assert_eq!(counts[&ModelKind::Events], 2000 - 2000 / 8);
    }

    #[test]
    fn single_model_always_chosen() {
        let mut s = AdaptiveSelector::new(vec![ModelKind::Threads]);
        for _ in 0..20 {
            assert_eq!(s.choose(), ModelKind::Threads);
        }
    }

    #[test]
    fn unmeasured_model_wins_optimistically() {
        let mut s = AdaptiveSelector::new(all_models()).with_warmup(0);
        s.report(ModelKind::Threads, 100, 1.0);
        // Events is unmeasured → optimistic infinity → "best" until
        // measured.
        assert_eq!(s.best(), ModelKind::Events);
    }

    #[test]
    fn always_failing_model_loses_optimistic_standing() {
        // Regression: a model that had *never* succeeded kept its
        // optimistic INFINITY score (failures were simply not reported)
        // and was picked forever. `report_failure` must create a real
        // (zero) score so the broken model stops attracting traffic.
        let mut s = AdaptiveSelector::new(all_models())
            .with_warmup(0)
            .with_explore_period(0);
        s.report_failure(ModelKind::Events);
        s.report(ModelKind::Threads, 1_000_000, 1.0);
        assert_eq!(s.best(), ModelKind::Threads);
        for _ in 0..32 {
            assert_eq!(s.choose(), ModelKind::Threads);
        }
    }

    #[test]
    fn failures_decay_an_established_score() {
        let mut s = AdaptiveSelector::new(all_models());
        s.report(ModelKind::Events, 1_000_000, 1.0);
        let before = s.scores()[1].1.unwrap();
        for _ in 0..10 {
            s.report_failure(ModelKind::Events);
        }
        let after = s
            .scores()
            .iter()
            .find(|(m, _)| *m == ModelKind::Events)
            .unwrap()
            .1
            .unwrap();
        assert!(after < before / 2.0, "score did not decay: {}", after);
    }

    #[test]
    fn ram_fast_class_does_not_drown_disk_bound_class() {
        // Events serves cached reads slightly faster; Threads is
        // 3x better on the disk-bound class. A raw global average would
        // crown Events (the RAM numbers dominate); per-class relative
        // standing must pick Threads (near-winner on RAM, winner on disk).
        let mut s = AdaptiveSelector::new(vec![ModelKind::Events, ModelKind::Threads]);
        for _ in 0..20 {
            s.report_classed(ModelKind::Events, "ram", 10_000_000_000, 1.0);
            s.report_classed(ModelKind::Threads, "ram", 9_000_000_000, 1.0);
            s.report_classed(ModelKind::Events, "disk", 100_000_000, 1.0);
            s.report_classed(ModelKind::Threads, "disk", 300_000_000, 1.0);
        }
        assert_eq!(s.best(), ModelKind::Threads);
    }

    #[test]
    fn classed_failures_decay_only_that_class() {
        let mut s = AdaptiveSelector::new(vec![ModelKind::Events, ModelKind::Threads]);
        s.report_classed(ModelKind::Events, "ram", 1_000_000, 1.0);
        s.report_classed(ModelKind::Events, "disk", 1_000_000, 1.0);
        s.report_classed(ModelKind::Threads, "ram", 900_000, 1.0);
        s.report_classed(ModelKind::Threads, "disk", 900_000, 1.0);
        assert_eq!(s.best(), ModelKind::Events);
        for _ in 0..20 {
            s.report_failure_classed(ModelKind::Events, "disk");
        }
        // Events still wins "ram" but has collapsed on "disk":
        // Events mean = (1.0 + ~0)/2; Threads mean = (0.9 + 1.0)/2.
        assert_eq!(s.best(), ModelKind::Threads);
    }

    #[test]
    fn zero_duration_reports_ignored() {
        let mut s = AdaptiveSelector::new(all_models());
        s.report(ModelKind::Events, 1000, 0.0);
        assert_eq!(s.scores().iter().filter(|(_, v)| v.is_some()).count(), 0);
    }

    #[test]
    fn exploration_disabled_is_pure_exploit() {
        let mut s = AdaptiveSelector::new(vec![ModelKind::Events, ModelKind::Threads])
            .with_warmup(2)
            .with_explore_period(0);
        s.choose();
        s.choose();
        s.report(ModelKind::Events, 100, 1.0);
        s.report(ModelKind::Threads, 200, 1.0);
        for _ in 0..50 {
            assert_eq!(s.choose(), ModelKind::Threads);
        }
    }
}
