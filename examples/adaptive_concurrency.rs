//! Watch the adaptive concurrency selector at work (paper §4.1):
//! requests are first distributed equally across the models, progress is
//! monitored, and assignments then bias toward the best performer — while
//! periodic exploration keeps tracking workload shifts.
//!
//! ```sh
//! cargo run --example adaptive_concurrency
//! ```

use nest::transfer::adaptive::AdaptiveSelector;
use nest::transfer::flow::{CountingSink, FlowMeta, PatternSource};
use nest::transfer::manager::{ModelSelection, SchedPolicy, TransferConfig, TransferManager};
use nest::transfer::ModelKind;

fn main() {
    // Phase A: drive a real transfer manager in adaptive mode and show
    // where the assignments went.
    let tm = TransferManager::new(TransferConfig {
        policy: SchedPolicy::Fcfs,
        model: ModelSelection::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
        ..TransferConfig::default()
    });
    println!("submitting 60 transfers (256 KB each) under adaptive selection...");
    let handles: Vec<_> = (0..60)
        .map(|_| {
            let meta = FlowMeta::new(tm.next_flow_id(), "chirp", Some(256 * 1024));
            tm.submit(
                meta,
                Box::new(PatternSource::new(256 * 1024)),
                Box::new(CountingSink::default()),
            )
        })
        .collect();
    for h in handles {
        h.wait().unwrap();
    }
    let stats = tm.stats();
    println!("assignments per model: {:?}", stats.per_model);
    println!("(warmup distributes equally, then the winner takes most)\n");
    tm.shutdown();

    // Phase B: the selector alone, with a synthetic workload shift, to
    // show re-adaptation — the behaviour behind Figure 5's "cost of
    // adaptation".
    let mut sel = AdaptiveSelector::new(vec![ModelKind::Events, ModelKind::Threads]);
    let mut tally = std::collections::HashMap::new();
    println!("phase 1: small in-cache requests (events-friendly)");
    for i in 0..60 {
        let m = sel.choose();
        *tally.entry(m).or_insert(0u32) += 1;
        // Events 3x faster on this workload.
        let tput = match m {
            ModelKind::Events => 3_000_000,
            _ => 1_000_000,
        };
        sel.report(m, tput, 1.0);
        if i == 59 {
            println!("  assignments so far: {:?}, best = {}", tally, sel.best());
        }
    }
    println!("phase 2: the workload shifts to large disk-bound files (threads-friendly)");
    for i in 0..120 {
        let m = sel.choose();
        *tally.entry(m).or_insert(0) += 1;
        let tput = match m {
            ModelKind::Threads => 3_000_000,
            _ => 1_000_000,
        };
        sel.report(m, tput, 1.0);
        if i % 40 == 39 {
            println!(
                "  after {:3} more requests: best = {} scores = {:?}",
                i + 1,
                sel.best(),
                sel.scores()
                    .iter()
                    .map(|(m, s)| format!("{}={:.0}", m, s.unwrap_or(0.0)))
                    .collect::<Vec<_>>()
            );
        }
    }
    assert_eq!(sel.best(), ModelKind::Threads);
    println!("\nthe periodic exploration slot kept measuring the losing model,");
    println!("so the selector crossed over when the workload shifted — that");
    println!("probing is the visible 'cost for adaptation' in Figure 5.");
}
