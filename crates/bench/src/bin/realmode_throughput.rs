//! Real-mode sanity check: drive a live NeST over loopback sockets and
//! report delivered throughput per protocol and per concurrency model.
//!
//! The paper's absolute numbers come from 2002 hardware and the figure
//! binaries reproduce their *shapes* in simulation; this harness confirms
//! the real server actually moves bytes at a healthy rate and that every
//! concurrency model works on this host. (Numbers here are loopback
//! numbers — expect hundreds of MB/s, not GigE-era 35.)

use nest_bench::Table;
use nest_core::config::NestConfig;
use nest_core::server::NestServer;
use nest_proto::chirp::ChirpClient;
use nest_proto::http::HttpClient;
use nest_transfer::manager::ModelSelection;
use nest_transfer::ModelKind;
use std::time::{Duration, Instant};

const FILE_SIZE: usize = 4 << 20;
const CLIENTS: usize = 4;
const RUN: Duration = Duration::from_secs(2);

fn run_config(model_name: &str, model: ModelSelection) -> (f64, f64, String) {
    let mut config = NestConfig::ephemeral("realmode");
    config.model = model;
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 256 << 20, 3600)
        .unwrap();

    // Stage the file once.
    let body = vec![7u8; FILE_SIZE];
    let mut stage = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(stage.put_bytes("/bench.bin", &body).unwrap(), 201);

    let deadline = Instant::now() + RUN;
    let chirp_addr = server.chirp_addr.unwrap();
    let http_addr = server.http_addr.unwrap();
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        handles.push(std::thread::spawn(move || {
            let mut c = ChirpClient::connect(chirp_addr).unwrap();
            let mut bytes = 0u64;
            while Instant::now() < deadline {
                bytes += c.get_bytes("/bench.bin").unwrap().len() as u64;
            }
            ("chirp", bytes)
        }));
        handles.push(std::thread::spawn(move || {
            let mut c = HttpClient::connect(http_addr).unwrap();
            let mut bytes = 0u64;
            while Instant::now() < deadline {
                bytes += c.get_bytes("/bench.bin").unwrap().len() as u64;
            }
            ("http", bytes)
        }));
    }
    let mut chirp_bytes = 0u64;
    let mut http_bytes = 0u64;
    for h in handles {
        let (proto, bytes) = h.join().unwrap();
        if proto == "chirp" {
            chirp_bytes += bytes;
        } else {
            http_bytes += bytes;
        }
    }
    let stats = server.dispatcher().transfer_stats();
    let mut models: Vec<String> = stats
        .per_model
        .iter()
        .map(|(m, n)| format!("{}:{}", m, n))
        .collect();
    models.sort();
    server.shutdown();
    let secs = RUN.as_secs_f64();
    let _ = model_name;
    (
        chirp_bytes as f64 / secs / 1e6,
        http_bytes as f64 / secs / 1e6,
        models.join(" "),
    )
}

fn main() {
    println!(
        "Real-mode loopback throughput: {} chirp + {} http clients, {} MB file, {:?} per config\n",
        CLIENTS,
        CLIENTS,
        FILE_SIZE >> 20,
        RUN
    );
    let mut table = Table::new(&["model", "chirp MB/s", "http MB/s", "completions by model"]);
    for (name, model) in [
        ("events", ModelSelection::Fixed(ModelKind::Events)),
        ("threads", ModelSelection::Fixed(ModelKind::Threads)),
        (
            "adaptive",
            ModelSelection::Adaptive(vec![ModelKind::Events, ModelKind::Threads]),
        ),
    ] {
        let (chirp, http, models) = run_config(name, model);
        table.row(vec![
            name.into(),
            format!("{:.0}", chirp),
            format!("{:.0}", http),
            models,
        ]);
    }
    table.print();
    println!("\n(loopback numbers; the figure binaries reproduce the paper's 2002 shapes)");
}
