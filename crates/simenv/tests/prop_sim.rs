//! Property tests on the simulation substrate: conservation, determinism
//! and sanity bounds must hold for *any* workload, not just the paper's.

use nest_simenv::server::{SimModel, SimPolicy};
use nest_simenv::workload::RequestMode;
use nest_simenv::{ClientSpec, PlatformProfile, SimJbos, SimServer};
use nest_transfer::ModelKind;
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_client() -> impl Strategy<Value = ClientSpec> {
    (
        prop_oneof![
            Just("chirp"),
            Just("gridftp"),
            Just("http"),
            Just("ftp"),
            Just("nfs")
        ],
        1u64..(4 << 20),
        1usize..4,
    )
        .prop_map(|(proto, file_size, working_set)| {
            let spec = if proto == "nfs" {
                ClientSpec::nfs_client(file_size)
            } else {
                ClientSpec::file_client(proto, file_size)
            };
            spec.with_working_set(working_set)
        })
}

fn arb_workload() -> impl Strategy<Value = Vec<ClientSpec>> {
    prop::collection::vec(arb_client(), 1..8)
}

fn arb_policy() -> impl Strategy<Value = SimPolicy> {
    prop_oneof![
        Just(SimPolicy::Fcfs),
        Just(SimPolicy::CacheAware),
        prop::collection::vec(1u32..8, 5).prop_map(|t| SimPolicy::Stride {
            tickets: ["chirp", "gridftp", "http", "ftp", "nfs"]
                .iter()
                .zip(t)
                .map(|(c, w)| ((*c).to_owned(), w * 100))
                .collect(),
            work_conserving: true,
        }),
    ]
}

fn arb_model() -> impl Strategy<Value = SimModel> {
    prop_oneof![
        Just(SimModel::Fixed(ModelKind::Events)),
        Just(SimModel::Fixed(ModelKind::Threads)),
        Just(SimModel::Adaptive(vec![
            ModelKind::Events,
            ModelKind::Threads
        ])),
    ]
}

fn snapshot(stats: &nest_simenv::SimStats) -> (BTreeMap<String, (u64, u64)>, u64) {
    (
        stats
            .classes
            .iter()
            .map(|(k, v)| (k.clone(), (v.bytes, v.completions)))
            .collect(),
        stats.elapsed.to_bits(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Bit-identical results across runs for any workload/policy/model.
    #[test]
    fn any_simulation_is_deterministic(
        clients in arb_workload(),
        policy in arb_policy(),
        model in arb_model(),
        warm in any::<bool>(),
    ) {
        let run = || {
            let mut s = SimServer::nest(PlatformProfile::linux_gige(), policy.clone(), model.clone());
            if warm {
                s.warm_cache(&clients);
            }
            snapshot(&s.run(&clients, 1.0))
        };
        prop_assert_eq!(run(), run());
    }

    /// Physical sanity: no class exceeds the link rate, elapsed time is
    /// bounded by the requested duration, and only admitted protocols
    /// appear in the stats.
    #[test]
    fn delivered_bandwidth_respects_the_link(
        clients in arb_workload(),
        policy in arb_policy(),
    ) {
        let profile = PlatformProfile::linux_gige();
        let net = profile.net_bps;
        let mut s = SimServer::nest(profile, policy, SimModel::Fixed(ModelKind::Events));
        s.warm_cache(&clients);
        let stats = s.run(&clients, 2.0);
        prop_assert!(stats.elapsed <= 2.0 + 1e-6);
        let protos: std::collections::HashSet<&str> =
            clients.iter().map(|c| c.protocol.as_str()).collect();
        for (class, cs) in &stats.classes {
            prop_assert!(protos.contains(class.as_str()), "unknown class {}", class);
            if stats.elapsed > 0.1 {
                let bw = cs.bytes as f64 / stats.elapsed;
                prop_assert!(
                    bw <= net * 1.05,
                    "class {} bandwidth {} exceeds link {}",
                    class, bw, net
                );
            }
        }
    }

    /// Block-mode accounting: every completed NFS file pass delivers
    /// exactly file_size bytes (completions × block accounting adds up).
    #[test]
    fn nfs_file_passes_account_exactly(
        file_size in 8192u64..1_000_000,
        duration in 1.0f64..3.0,
    ) {
        let clients = vec![ClientSpec::nfs_client(file_size)];
        let mut s = SimServer::nest(
            PlatformProfile::linux_gige(),
            SimPolicy::Fcfs,
            SimModel::Fixed(ModelKind::Events),
        );
        s.warm_cache(&clients);
        let stats = s.run(&clients, duration);
        let c = &stats.classes["nfs"];
        // Bytes delivered ≥ completed-file bytes; the tail is a partial
        // pass in flight when the clock ran out.
        prop_assert!(c.bytes >= c.files * file_size);
        prop_assert!(c.bytes < (c.files + 1) * file_size + 8192);
    }

    /// JBOS and NeST deliver comparable totals on any single-protocol
    /// workload (the Figure 3 equivalence, generalized).
    #[test]
    fn jbos_nest_equivalence_generalizes(
        proto in prop_oneof![Just("chirp"), Just("http"), Just("ftp")],
        file_size in 65_536u64..(4 << 20),
        n_clients in 1usize..6,
    ) {
        let clients: Vec<ClientSpec> = (0..n_clients)
            .map(|_| ClientSpec::file_client(proto, file_size))
            .collect();
        let mut nest = SimServer::nest(
            PlatformProfile::linux_gige(),
            SimPolicy::Fcfs,
            SimModel::Fixed(ModelKind::Events),
        );
        nest.warm_cache(&clients);
        let n = nest.run(&clients, 2.0).bandwidth(proto);
        let mut jbos = SimJbos::new(PlatformProfile::linux_gige());
        jbos.warm_cache(&clients);
        let j = jbos.run(&clients, 2.0).bandwidth(proto);
        let ratio = n / j.max(1.0);
        prop_assert!(
            (0.85..1.15).contains(&ratio),
            "{} x{} @{}: nest/jbos {}",
            proto, n_clients, file_size, ratio
        );
    }

    /// A client's block mode never yields blocks beyond the file size.
    #[test]
    fn client_spec_modes_consistent(spec in arb_client()) {
        match spec.mode {
            RequestMode::WholeFile => prop_assert!(spec.file_size > 0),
            RequestMode::Blocks { block } => {
                prop_assert_eq!(block, 8192);
                prop_assert!(spec.file_size > 0);
            }
        }
    }
}
