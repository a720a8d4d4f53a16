//! `nestd` — run a NeST appliance from the command line.
//!
//! ```sh
//! nestd --root /srv/nest --capacity 10G \
//!       --chirp 5893 --http 8080 --ftp 5894 --gridftp 2811 --nfs 5899 \
//!       --sched stride --tickets chirp=200,nfs=200,http=100 \
//!       --gridmap /etc/nest/grid-mapfile --ca-secret 0xDEADBEEF
//! ```
//!
//! With no arguments, serves an in-memory appliance on ephemeral ports and
//! prints where everything is listening — the "plug it in and it toasts"
//! appliance experience.

use nest_core::config::{BackendKind, NestConfig};
use nest_core::server::NestServer;
use nest_proto::gsi::{GridMap, SimCa};
use nest_transfer::manager::{ModelSelection, SchedPolicy};
use nest_transfer::ModelKind;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage: nestd [options]
  --name <name>            appliance name for published ads (default: nest)
  --root <dir>             serve a host directory (default: in-memory)
  --capacity <bytes|K|M|G> space under lot management (default: 1G)
  --no-lots                disable lot enforcement
  --chirp/--http/--ftp/--gridftp/--nfs <port>
                           listening ports (default: ephemeral; 'off' disables)
  --sched <fcfs|stride|cache-aware>   transfer scheduling policy
  --tickets a=100,b=200    stride tickets per class
  --non-work-conserving    stride idles for the favored class
  --per-user               schedule per user instead of per protocol
  --model <adaptive|events|threads>
  --gridmap <file>         grid-mapfile for simulated-GSI authentication
  --ca-secret <hex>        trusted CA secret (with --gridmap)
  --default-lot user=SIZE[,SECS]      grant a lot at startup (repeatable)
  --help"
    );
    exit(2)
}

fn parse_size(s: &str) -> Option<u64> {
    let s = s.trim();
    let (num, mult) = match s.chars().last()? {
        'K' | 'k' => (&s[..s.len() - 1], 1u64 << 10),
        'M' | 'm' => (&s[..s.len() - 1], 1u64 << 20),
        'G' | 'g' => (&s[..s.len() - 1], 1u64 << 30),
        _ => (s, 1),
    };
    num.parse::<u64>().ok().map(|n| n.saturating_mul(mult))
}

fn parse_port(s: &str) -> Option<Option<u16>> {
    if s.eq_ignore_ascii_case("off") {
        return Some(None);
    }
    s.parse::<u16>().ok().map(Some)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut config = NestConfig::ephemeral("nest");
    let mut tickets: Vec<(String, u32)> = Vec::new();
    let mut sched = "fcfs".to_owned();
    let mut work_conserving = true;
    let mut gridmap_path: Option<String> = None;
    let mut ca_secret: u64 = 0x6E65_7374; // "nest"
    let mut default_lots: Vec<(String, u64, u64)> = Vec::new();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut val = || it.next().map(String::as_str).unwrap_or_else(|| usage());
        match arg.as_str() {
            "--help" | "-h" => usage(),
            "--name" => config.name = val().to_owned(),
            "--root" => config.backend = BackendKind::LocalFs(val().into()),
            "--capacity" => {
                config.capacity = parse_size(val()).unwrap_or_else(|| usage());
            }
            "--no-lots" => config.enforce_lots = false,
            "--chirp" => config.ports.chirp = parse_port(val()).unwrap_or_else(|| usage()),
            "--http" => config.ports.http = parse_port(val()).unwrap_or_else(|| usage()),
            "--ftp" => config.ports.ftp = parse_port(val()).unwrap_or_else(|| usage()),
            "--gridftp" => config.ports.gridftp = parse_port(val()).unwrap_or_else(|| usage()),
            "--nfs" => config.ports.nfs = parse_port(val()).unwrap_or_else(|| usage()),
            "--sched" => sched = val().to_owned(),
            "--non-work-conserving" => work_conserving = false,
            "--per-user" => config.sched_class = nest_core::config::SchedClass::User,
            "--tickets" => {
                for pair in val().split(',') {
                    let Some((class, t)) = pair.split_once('=') else {
                        usage()
                    };
                    let Ok(t) = t.parse() else { usage() };
                    tickets.push((class.to_owned(), t));
                }
            }
            "--model" => {
                config.model = match val() {
                    "adaptive" => {
                        ModelSelection::Adaptive(vec![ModelKind::Threads, ModelKind::Events])
                    }
                    "events" => ModelSelection::Fixed(ModelKind::Events),
                    "threads" => ModelSelection::Fixed(ModelKind::Threads),
                    _ => usage(),
                };
            }
            "--gridmap" => gridmap_path = Some(val().to_owned()),
            "--ca-secret" => {
                let v = val();
                let v = v.strip_prefix("0x").unwrap_or(v);
                ca_secret = u64::from_str_radix(v, 16).unwrap_or_else(|_| usage());
            }
            "--default-lot" => {
                let spec = val();
                let Some((user, rest)) = spec.split_once('=') else {
                    usage()
                };
                let (size, secs) = match rest.split_once(',') {
                    Some((s, d)) => (
                        parse_size(s).unwrap_or_else(|| usage()),
                        d.parse().unwrap_or_else(|_| usage()),
                    ),
                    None => (parse_size(rest).unwrap_or_else(|| usage()), 86_400),
                };
                default_lots.push((user.to_owned(), size, secs));
            }
            other => {
                eprintln!("unknown option {:?}", other);
                usage();
            }
        }
    }

    config.sched = match sched.as_str() {
        "fcfs" => SchedPolicy::Fcfs,
        "stride" => SchedPolicy::Proportional {
            tickets: tickets.clone(),
            work_conserving,
        },
        "cache-aware" => SchedPolicy::CacheAware,
        _ => usage(),
    };

    if let Some(path) = gridmap_path {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("cannot read gridmap {:?}: {}", path, e);
            exit(1);
        });
        let ca = SimCa::new("nestd-ca", ca_secret);
        config.gsi = Some(nest_proto::gsi::GsiAuthenticator::new(
            ca,
            GridMap::parse(&text),
        ));
    }

    // nestd assembles the config field by field from flags; validate the
    // combination the same way the builder would before starting.
    if let Err(e) = config.validate() {
        eprintln!("invalid configuration: {}", e);
        exit(2);
    }

    let server = NestServer::start(config).unwrap_or_else(|e| {
        eprintln!("failed to start: {}", e);
        exit(1);
    });
    for (user, size, secs) in default_lots {
        match server.grant_default_lot(&user, size, secs) {
            Ok(id) => println!(
                "granted lot {} to {} ({} bytes, {} s)",
                id, user, size, secs
            ),
            Err(e) => eprintln!("default lot for {} failed: {}", user, e),
        }
    }

    println!("NeST appliance running:");
    for (proto, addr) in [
        ("chirp", server.chirp_addr),
        ("http", server.http_addr),
        ("ftp", server.ftp_addr),
        ("gridftp", server.gridftp_addr),
        ("nfs", server.nfs_addr),
    ] {
        match addr {
            Some(a) => println!("  {:8} {}", proto, a),
            None => println!("  {:8} (disabled)", proto),
        }
    }
    println!("press Ctrl-C to stop");

    // Serve until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(3600));
    }
}
