//! The process model's persistent `cat` workers end with the appliance:
//! none survives `NestServer::shutdown`.
//!
//! This file holds one test on purpose. It counts every `cat` child of the
//! test process, so no other test may run process-model flows beside it.

use nest_core::config::NestConfig;
use nest_core::server::NestServer;
use nest_proto::http::HttpClient;
use nest_transfer::ModelKind;

/// Pids of this process's `cat` children, reaped or not.
fn cat_children() -> Vec<u32> {
    let me = std::process::id().to_string();
    let Ok(procs) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    procs
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            // "<pid> (<comm>) <state> <ppid> ..."
            let Ok(stat) = std::fs::read_to_string(format!("/proc/{pid}/stat")) else {
                return false;
            };
            let Some((head, tail)) = stat.rsplit_once(')') else {
                return false;
            };
            head.ends_with("(cat") && tail.split_whitespace().nth(1) == Some(me.as_str())
        })
        .collect()
}

#[test]
fn no_cat_worker_survives_shutdown() {
    let config = NestConfig::builder("procpool-reaping")
        .fixed_model(ModelKind::Processes)
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 1 << 20, 3600)
        .unwrap();
    let mut client = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    let body: Vec<u8> = (0..200_000u32).map(|i| (i % 251) as u8).collect();
    assert_eq!(client.put_bytes("/f.bin", &body).unwrap(), 201);
    for _ in 0..4 {
        assert_eq!(client.get_bytes("/f.bin").unwrap(), body);
    }
    assert!(
        !cat_children().is_empty(),
        "process-model flows ran without a worker process"
    );
    drop(client);
    server.shutdown();
    assert_eq!(cat_children(), Vec::<u32>::new());
}
