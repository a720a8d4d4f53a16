//! The simulated NeST appliance.
//!
//! One shared machine (link + disk + CPU), one scheduler over every
//! protocol's flows — the property that lets NeST schedule across
//! protocols. The scheduler, adaptive selector and cache model are the
//! production implementations from `nest-transfer`; this module only
//! assigns costs to their decisions under a virtual clock.

use crate::platform::PlatformProfile;
use crate::stats::SimStats;
use crate::workload::{ClientSpec, RequestMode};
use nest_transfer::adaptive::AdaptiveSelector;
use nest_transfer::cache::CacheModel;
use nest_transfer::flow::{FlowId, FlowMeta};
use nest_transfer::sched::{CacheAwareScheduler, FcfsScheduler, Scheduler, StrideScheduler};
use nest_transfer::ModelKind;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

/// Fixed CPU cost of NeST's virtual protocol layer per request: the
/// translation into the common request format. Small — Figure 3's point is
/// that multi-protocol support "incurs little overhead".
const VIRTUAL_LAYER_COST: f64 = 8e-6;

/// Chunk size the event engine moves per quantum.
const CHUNK: u64 = 64 * 1024;

/// Scheduling policy for a simulated server.
#[derive(Debug, Clone)]
pub enum SimPolicy {
    /// FIFO (NeST's default).
    Fcfs,
    /// Proportional share across protocol classes.
    Stride {
        /// `(class, tickets)` pairs.
        tickets: Vec<(String, u32)>,
        /// Work-conserving or idle-waiting.
        work_conserving: bool,
    },
    /// Cache-aware two-band scheduling.
    CacheAware,
}

/// Concurrency-model selection for a simulated server.
#[derive(Debug, Clone)]
pub enum SimModel {
    /// Every request under one model.
    Fixed(ModelKind),
    /// The production adaptive selector chooses per request.
    Adaptive(Vec<ModelKind>),
}

struct SimFlow {
    class: String,
    remaining: u64,
    total: u64,
    model: ModelKind,
    cached: bool,
    first_chunk: bool,
    started: u64,
    client: usize,
}

struct ClientState {
    spec: ClientSpec,
    /// Which file of the working set is next.
    file_cursor: usize,
    /// Block-mode: offset of the next block within the current file.
    offset: u64,
    /// Block-mode: whether this pass over the file was predicted cached.
    pass_cached: bool,
    /// Virtual time when this client's current file began (for file
    /// latency under block mode).
    file_started: u64,
}

fn ns(seconds: f64) -> u64 {
    (seconds * 1e9).round() as u64
}

/// The simulated appliance.
///
/// ```
/// use nest_simenv::server::{SimModel, SimPolicy};
/// use nest_simenv::{ClientSpec, PlatformProfile, SimServer};
/// use nest_transfer::ModelKind;
///
/// let clients = ClientSpec::paper_single_protocol("http");
/// let mut server = SimServer::nest(
///     PlatformProfile::linux_gige(),
///     SimPolicy::Fcfs,
///     SimModel::Fixed(ModelKind::Events),
/// );
/// server.warm_cache(&clients);
/// let stats = server.run(&clients, 2.0);
/// // In-cache HTTP serves near the link peak (~38 MB/s calibrated).
/// assert!(stats.bandwidth("http") > 30.0e6);
/// ```
pub struct SimServer {
    profile: PlatformProfile,
    scheduler: Box<dyn Scheduler>,
    selector: Option<AdaptiveSelector>,
    fixed_model: Option<ModelKind>,
    cache: CacheModel,
    /// True when modelling JBOS (no shared virtual layer cost; the
    /// scheduler passed in is the per-class round-robin).
    jbos: bool,
}

impl SimServer {
    /// Builds a NeST model with the given policy and model selection.
    pub fn nest(profile: PlatformProfile, policy: SimPolicy, model: SimModel) -> Self {
        let scheduler: Box<dyn Scheduler> = match &policy {
            SimPolicy::Fcfs => Box::new(FcfsScheduler::new()),
            SimPolicy::Stride {
                tickets,
                work_conserving,
            } => {
                let mut s = if *work_conserving {
                    StrideScheduler::new()
                } else {
                    StrideScheduler::non_work_conserving(8)
                };
                for (class, t) in tickets {
                    s.set_tickets(class, *t);
                }
                Box::new(s)
            }
            SimPolicy::CacheAware => Box::new(CacheAwareScheduler::new()),
        };
        Self::build(profile, scheduler, model, false)
    }

    pub(crate) fn build(
        profile: PlatformProfile,
        scheduler: Box<dyn Scheduler>,
        model: SimModel,
        jbos: bool,
    ) -> Self {
        let (selector, fixed_model) = match model {
            SimModel::Fixed(m) => (None, Some(m)),
            SimModel::Adaptive(models) => (Some(AdaptiveSelector::new(models)), None),
        };
        let cache = CacheModel::new(profile.cache_bytes);
        Self {
            profile,
            scheduler,
            selector,
            fixed_model,
            cache,
            jbos,
        }
    }

    /// Pre-warms the cache with each client's working set, modelling files
    /// already served once (the paper's in-cache experiments).
    pub fn warm_cache(&mut self, clients: &[ClientSpec]) {
        for (idx, c) in clients.iter().enumerate() {
            for f in 0..c.working_set {
                self.cache.observe_access(&file_key(idx, f), c.file_size);
            }
        }
    }

    /// Runs the workload for `duration` virtual seconds.
    pub fn run(&mut self, clients: &[ClientSpec], duration: f64) -> SimStats {
        let duration_ns = ns(duration);
        let mut now: u64 = 0;
        let mut stats = SimStats::default();
        let mut flows: HashMap<FlowId, SimFlow> = HashMap::new();
        let mut next_flow_id: u64 = 1;
        // (time, seq, client) — seq keeps the heap deterministic on ties.
        let mut arrivals: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
        let mut seq: u64 = 0;

        let mut states: Vec<ClientState> = clients
            .iter()
            .enumerate()
            .map(|(idx, spec)| {
                arrivals.push(Reverse((0, seq, idx)));
                seq += 1;
                let pass_cached = self
                    .cache
                    .predict_resident(&file_key(idx, 0), spec.file_size);
                ClientState {
                    spec: spec.clone(),
                    file_cursor: 0,
                    offset: 0,
                    pass_cached,
                    file_started: 0,
                }
            })
            .collect();

        while now < duration_ns {
            // Admit all arrivals due now.
            while let Some(&Reverse((t, _, _))) = arrivals.peek() {
                if t > now {
                    break;
                }
                let Reverse((_, _, client)) = arrivals.pop().unwrap();
                let id = FlowId(next_flow_id);
                next_flow_id += 1;
                let flow = self.admit(client, &mut states[client], id, now);
                self.scheduler.admit(&meta_of(&flow, id));
                flows.insert(id, flow);
            }

            if self.scheduler.runnable() == 0 {
                // Idle: jump to the next arrival.
                match arrivals.peek() {
                    Some(&Reverse((t, _, _))) => {
                        now = t;
                        continue;
                    }
                    None => break,
                }
            }

            match self.scheduler.next() {
                None => {
                    // Non-work-conserving idle quantum: wait for the next
                    // arrival or a short interval.
                    let idle = ns(200e-6);
                    now = match arrivals.peek() {
                        Some(&Reverse((t, _, _))) => (now + idle).min(t.max(now + 1)),
                        None => now + idle,
                    };
                }
                Some(id) => {
                    let flow = flows.get_mut(&id).expect("scheduled flow exists");
                    let chunk = flow.remaining.min(CHUNK);
                    let dt = self.service_time(flow, chunk);
                    now += ns(dt);
                    flow.remaining -= chunk;
                    flow.first_chunk = false;
                    self.scheduler.account(id, chunk);
                    stats.class_mut(&flow.class).bytes += chunk;

                    if flow.remaining == 0 {
                        self.scheduler.done(id);
                        let flow = flows.remove(&id).unwrap();
                        self.complete(flow, now, &mut stats, &mut states, &mut arrivals, &mut seq);
                    }
                }
            }
        }
        stats.elapsed = (now.min(duration_ns)) as f64 / 1e9;
        stats
    }

    fn admit(&mut self, client: usize, state: &mut ClientState, _id: FlowId, now: u64) -> SimFlow {
        let (size, cached) = match state.spec.mode {
            RequestMode::WholeFile => {
                let key = file_key(client, state.file_cursor);
                let cached = self.cache.predict_resident(&key, state.spec.file_size);
                state.file_started = now;
                (state.spec.file_size, cached)
            }
            RequestMode::Blocks { block } => {
                if state.offset == 0 {
                    state.file_started = now;
                    let key = file_key(client, state.file_cursor);
                    state.pass_cached = self.cache.predict_resident(&key, state.spec.file_size);
                }
                let remaining_in_file = state.spec.file_size - state.offset;
                (block.min(remaining_in_file), state.pass_cached)
            }
        };
        let model = match (&mut self.selector, self.fixed_model) {
            (_, Some(m)) => m,
            (Some(sel), None) => sel.choose(),
            (None, None) => ModelKind::Events,
        };
        SimFlow {
            class: state.spec.protocol.clone(),
            remaining: size,
            total: size,
            model,
            cached,
            first_chunk: true,
            started: now,
            client,
        }
    }

    fn service_time(&self, flow: &SimFlow, chunk: u64) -> f64 {
        let costs = self.profile.model_costs(flow.model);
        let net_t = chunk as f64 / self.profile.net_bps;
        let disk_t = if flow.cached {
            0.0
        } else {
            chunk as f64 / self.profile.disk_bps
        };
        let io_t = if costs.overlapped_io {
            net_t.max(disk_t)
        } else {
            net_t + disk_t
        };
        let mut dt = costs.per_chunk + io_t + self.profile.chunk_overhead(&flow.class);
        if flow.first_chunk {
            dt += self.profile.overhead(&flow.class) + costs.dispatch;
            if !self.jbos {
                dt += VIRTUAL_LAYER_COST;
            }
            if !flow.cached {
                dt += self.profile.disk_seek;
            }
        }
        dt
    }

    fn complete(
        &mut self,
        flow: SimFlow,
        now: u64,
        stats: &mut SimStats,
        states: &mut [ClientState],
        arrivals: &mut BinaryHeap<Reverse<(u64, u64, usize)>>,
        seq: &mut u64,
    ) {
        let latency = (now - flow.started) as f64 / 1e9;
        {
            let c = stats.class_mut(&flow.class);
            c.completions += 1;
            c.latency_sum += latency;
            c.latencies.push(latency as f32);
        }
        *stats.per_model.entry(model_name(flow.model)).or_insert(0) += 1;
        if let Some(sel) = &mut self.selector {
            sel.report(flow.model, flow.total, latency.max(1e-9));
        }

        let state = &mut states[flow.client];
        let turnaround = ns(self.profile.turnaround(&flow.class));
        match state.spec.mode {
            RequestMode::WholeFile => {
                let key = file_key(flow.client, state.file_cursor);
                self.cache.observe_access(&key, state.spec.file_size);
                stats.class_mut(&flow.class).files += 1;
                state.file_cursor = (state.file_cursor + 1) % state.spec.working_set;
                arrivals.push(Reverse((now + turnaround, *seq, flow.client)));
                *seq += 1;
            }
            RequestMode::Blocks { .. } => {
                state.offset += flow.total;
                if state.offset >= state.spec.file_size {
                    // Finished a pass over the file.
                    let key = file_key(flow.client, state.file_cursor);
                    self.cache.observe_access(&key, state.spec.file_size);
                    stats.class_mut(&flow.class).files += 1;
                    state.offset = 0;
                    state.file_cursor = (state.file_cursor + 1) % state.spec.working_set;
                }
                arrivals.push(Reverse((now + turnaround, *seq, flow.client)));
                *seq += 1;
            }
        }
    }
}

fn file_key(client: usize, cursor: usize) -> String {
    format!("client{}-file{}", client, cursor)
}

fn meta_of(flow: &SimFlow, id: FlowId) -> FlowMeta {
    let mut m = FlowMeta::new(id, flow.class.clone(), Some(flow.total));
    m.predicted_cached = flow.cached;
    m
}

fn model_name(m: ModelKind) -> &'static str {
    match m {
        ModelKind::Events => "events",
        ModelKind::Threads => "threads",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::mbps;

    fn nest_fcfs_events(profile: PlatformProfile) -> SimServer {
        SimServer::nest(profile, SimPolicy::Fcfs, SimModel::Fixed(ModelKind::Events))
    }

    #[test]
    fn single_http_client_near_link_peak_when_cached() {
        let clients = vec![ClientSpec::file_client("http", 10 << 20)];
        let mut server = nest_fcfs_events(PlatformProfile::linux_gige());
        server.warm_cache(&clients);
        let stats = server.run(&clients, 5.0);
        let bw = mbps(stats.bandwidth("http"));
        assert!(bw > 28.0 && bw < 40.0, "http bandwidth {}", bw);
    }

    #[test]
    fn nfs_block_protocol_delivers_less_than_file_protocols() {
        let profile = PlatformProfile::linux_gige();
        let mut s1 = nest_fcfs_events(profile.clone());
        let http = ClientSpec::paper_single_protocol("http");
        s1.warm_cache(&http);
        let http_bw = s1.run(&http, 5.0).bandwidth("http");

        let mut s2 = nest_fcfs_events(profile);
        let nfs = ClientSpec::paper_single_protocol("nfs");
        s2.warm_cache(&nfs);
        let nfs_bw = s2.run(&nfs, 5.0).bandwidth("nfs");

        let ratio = nfs_bw / http_bw;
        assert!(
            ratio > 0.3 && ratio < 0.75,
            "nfs/http ratio {} (nfs {} MB/s, http {} MB/s)",
            ratio,
            mbps(nfs_bw),
            mbps(http_bw)
        );
    }

    #[test]
    fn uncached_files_pay_disk() {
        let clients = vec![ClientSpec::file_client("http", 10 << 20).with_working_set(100)];
        let mut cold = nest_fcfs_events(PlatformProfile::linux_gige());
        // Working set of 100×10 MB exceeds the 256 MB cache: mostly misses.
        let cold_bw = cold.run(&clients, 10.0).bandwidth("http");
        let warm_clients = vec![ClientSpec::file_client("http", 10 << 20)];
        let mut warm = nest_fcfs_events(PlatformProfile::linux_gige());
        warm.warm_cache(&warm_clients);
        let warm_bw = warm.run(&warm_clients, 10.0).bandwidth("http");
        assert!(
            cold_bw < warm_bw * 0.8,
            "cold {} vs warm {}",
            mbps(cold_bw),
            mbps(warm_bw)
        );
    }

    #[test]
    fn simulation_is_deterministic() {
        let clients = ClientSpec::paper_mixed_workload();
        let run = || {
            let mut s = nest_fcfs_events(PlatformProfile::linux_gige());
            s.warm_cache(&clients);
            let st = s.run(&clients, 3.0);
            (
                st.classes
                    .iter()
                    .map(|(k, v)| (k.clone(), v.bytes))
                    .collect::<std::collections::BTreeMap<_, _>>(),
                st.elapsed.to_bits(),
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn stride_policy_balances_mixed_workload() {
        let clients = ClientSpec::paper_mixed_workload();
        let mut s = SimServer::nest(
            PlatformProfile::linux_gige(),
            SimPolicy::Stride {
                tickets: vec![
                    ("chirp".into(), 100),
                    ("gridftp".into(), 100),
                    ("http".into(), 100),
                    ("nfs".into(), 100),
                ],
                work_conserving: true,
            },
            SimModel::Fixed(ModelKind::Events),
        );
        s.warm_cache(&clients);
        let stats = s.run(&clients, 5.0);
        // With equal tickets, chirp/http/gridftp should be near-equal.
        let chirp = stats.bandwidth("chirp");
        let http = stats.bandwidth("http");
        assert!(
            (chirp / http - 1.0).abs() < 0.15,
            "chirp {} http {}",
            mbps(chirp),
            mbps(http)
        );
    }

    #[test]
    fn adaptive_assigns_all_models_then_biases() {
        let clients = vec![ClientSpec::file_client("chirp", 1 << 20)];
        let mut s = SimServer::nest(
            PlatformProfile::linux_gige(),
            SimPolicy::Fcfs,
            SimModel::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
        );
        s.warm_cache(&clients);
        let stats = s.run(&clients, 5.0);
        assert!(stats.per_model.get("events").copied().unwrap_or(0) > 0);
        assert!(stats.per_model.get("threads").copied().unwrap_or(0) > 0);
    }
}
