//! The same metrics snapshot must be visible on every monitoring surface:
//! `GET /nest/stats`, the Chirp `stats` command, and the shared [`Obs`]
//! registry handed in through the config builder ("what is this appliance
//! doing, and how fast is it doing it?").

use nest::core::config::NestConfig;
use nest::core::server::NestServer;
use nest::obs::{MetricsSnapshot, Obs};
use nest::proto::chirp::ChirpClient;
use nest::proto::http::HttpClient;
use std::collections::BTreeMap;
use std::sync::Arc;

#[test]
fn http_and_chirp_stats_agree_after_workload() {
    let obs = Obs::new();
    let config = NestConfig::builder("stats-e2e")
        .obs(Arc::clone(&obs))
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 16 << 20, 3600)
        .unwrap();

    // Move some bytes: one PUT and one GET of 200 000 bytes over HTTP.
    let body: Vec<u8> = (0..200_000u32).map(|i| (i % 233) as u8).collect();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(http.put_bytes("/w.bin", &body).unwrap(), 201);
    assert_eq!(http.get_bytes("/w.bin").unwrap(), body);

    // Surface 1: the HTTP monitoring endpoint.
    let text = String::from_utf8(http.get_bytes("/nest/stats").unwrap()).unwrap();
    let via_http: BTreeMap<String, f64> = MetricsSnapshot::parse_text(&text);

    // Surface 2: the Chirp session-level `stats` command.
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    let lines = chirp.stats().unwrap();
    let via_chirp: BTreeMap<String, f64> = MetricsSnapshot::parse_text(&lines.join("\n"));

    // The transfer layer saw the PUT and the GET (>= 400 000 bytes), and
    // both surfaces report the identical count: stats reads themselves are
    // not transfers, so the counter is stable between the two reads.
    let total = via_http["transfer.bytes_total"];
    assert!(total >= 400_000.0, "transfer.bytes_total = {}", total);
    assert_eq!(total, via_chirp["transfer.bytes_total"]);
    assert_eq!(
        via_http["transfer.class.http.bytes"],
        via_chirp["transfer.class.http.bytes"]
    );

    // Failure-domain instruments are registered eagerly, so a healthy
    // appliance renders them as explicit zeros on every surface.
    for key in [
        "transfer.retries",
        "transfer.aborted",
        "transfer.deadline_exceeded",
        "transfer.cancelled",
    ] {
        assert_eq!(via_http[key], 0.0, "{}", key);
        assert_eq!(via_chirp[key], 0.0, "{}", key);
    }

    // Per-layer highlights on the rendered form.
    assert!(via_http["dispatch.op.put"] >= 1.0);
    assert!(via_http["dispatch.op.get"] >= 1.0);
    assert_eq!(via_http["storage.lot.committed_bytes"], 200_000.0);
    assert_eq!(via_http["storage.lot.count"], 1.0);
    assert!(via_http["transfer.latency_us.count"] >= 2.0);
    assert!(via_http["server.conns_total"] >= 1.0);

    // Surface 3: the registry passed through the builder is the same one
    // the appliance writes to — embedders need no endpoint at all.
    let snap = obs.snapshot();
    assert_eq!(snap.count("transfer.bytes_total") as f64, total);

    server.shutdown();
}

#[test]
fn lock_contention_metrics_surface_on_http_and_chirp() {
    // The lock shim's per-class contention profile must ride the same
    // snapshot as every other metric. Two claims:
    //
    //  1. a real transfer workload touches named locks, so
    //     `lock.transfer.stats.acquires` is nonzero after a PUT/GET;
    //  2. a provably *contended* class shows a nonzero
    //     `lock.<class>.contended` on both HTTP and Chirp.
    //
    // For (2) we manufacture contention on a dedicated test class rather
    // than racing real appliance locks: the class table is process-global,
    // so the provider installed by the dispatcher publishes it all the
    // same — that is exactly the aggregation property being tested.
    let obs = Obs::new();
    let config = NestConfig::builder("stats-locks")
        .obs(Arc::clone(&obs))
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 16 << 20, 3600)
        .unwrap();

    // (1) Real workload over HTTP.
    let body: Vec<u8> = (0..100_000u32).map(|i| (i % 199) as u8).collect();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(http.put_bytes("/locks.bin", &body).unwrap(), 201);
    assert_eq!(http.get_bytes("/locks.bin").unwrap(), body);

    // (2) Deterministic contention on a test-owned class. The holder
    // releases only after the shim has *recorded* the blocked attempt
    // (note_contended fires before the blocking wait), so the counter is
    // guaranteed nonzero without sleeping and hoping.
    static CONTEND: parking_lot::Mutex<u32> =
        parking_lot::Mutex::named("test.stats.contend", 990, 0);
    let contended_count = || {
        parking_lot::lockstats::snapshot()
            .into_iter()
            .find(|s| s.name == "test.stats.contend")
            .map(|s| s.contended)
            .unwrap_or(0)
    };
    {
        let guard = CONTEND.lock();
        let blocked = std::thread::spawn(|| {
            let mut g = CONTEND.lock();
            *g += 1;
        });
        while contended_count() == 0 {
            std::thread::yield_now();
        }
        drop(guard);
        blocked.join().unwrap();
    }
    assert!(contended_count() >= 1);

    // Both rendered surfaces carry the lock profile.
    let text = String::from_utf8(http.get_bytes("/nest/stats").unwrap()).unwrap();
    let via_http: BTreeMap<String, f64> = MetricsSnapshot::parse_text(&text);
    let mut chirp = ChirpClient::connect(server.chirp_addr.unwrap()).unwrap();
    let lines = chirp.stats().unwrap();
    let via_chirp: BTreeMap<String, f64> = MetricsSnapshot::parse_text(&lines.join("\n"));

    for (name, surface) in [("http", &via_http), ("chirp", &via_chirp)] {
        assert!(
            surface["lock.transfer.stats.acquires"] >= 1.0,
            "{name}: transfer.stats lock never acquired during a transfer"
        );
        assert!(
            surface["lock.test.stats.contend.contended"] >= 1.0,
            "{name}: contended acquisition not surfaced"
        );
        // Contended implies waited: wait time is tracked (key present),
        // and the acquire that blocked is also counted.
        assert!(surface["lock.test.stats.contend.acquires"] >= 2.0, "{name}");
        assert!(
            surface.contains_key("lock.test.stats.contend.wait_us"),
            "{name}"
        );
    }

    server.shutdown();
}

#[test]
fn ablated_tier_registers_nothing() {
    // The appliance keeps no RAM tier: every read goes through the page
    // cache. `ram_tier_bytes` is still accepted and ignored, so even with
    // it set no tier instrument appears on any surface and the ad
    // advertises no tier.
    let obs = Obs::new();
    let config = NestConfig::builder("stats-no-tier")
        .obs(Arc::clone(&obs))
        .ram_tier_bytes(8 << 20)
        .build()
        .unwrap();
    let server = NestServer::start(config).unwrap();
    server
        .grant_default_lot("anonymous", 16 << 20, 3600)
        .unwrap();
    let body = vec![7u8; 50_000];
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(http.put_bytes("/plain.bin", &body).unwrap(), 201);
    for _ in 0..3 {
        assert_eq!(http.get_bytes("/plain.bin").unwrap(), body);
    }
    let text = String::from_utf8(http.get_bytes("/nest/stats").unwrap()).unwrap();
    let stats: BTreeMap<String, f64> = MetricsSnapshot::parse_text(&text);
    let tier_keys: Vec<_> = stats.keys().filter(|k| k.contains("memtier")).collect();
    assert!(tier_keys.is_empty(), "tier instruments: {tier_keys:?}");
    let ad = server.dispatcher().storage_ad(&["http"]);
    let tier_attrs: Vec<_> = ad
        .iter()
        .map(|(name, _)| name)
        .filter(|name| name.to_ascii_lowercase().contains("tier"))
        .collect();
    assert!(
        tier_attrs.is_empty(),
        "ad advertises a tier: {tier_attrs:?}"
    );
    server.shutdown();
}

#[test]
fn stats_endpoint_needs_no_lot() {
    // The monitoring endpoint must answer even when nothing else works:
    // no lot has been granted, so a data PUT would be refused.
    let server = NestServer::start(NestConfig::builder("bare").build().unwrap()).unwrap();
    let mut http = HttpClient::connect(server.http_addr.unwrap()).unwrap();
    assert_eq!(http.put_bytes("/refused.bin", b"x").unwrap(), 507);
    let text = String::from_utf8(http.get_bytes("/nest/stats").unwrap()).unwrap();
    let stats = MetricsSnapshot::parse_text(&text);
    // The refused PUT is visible as a dispatcher error.
    assert!(stats["dispatch.errors"] >= 1.0);
    assert_eq!(stats["transfer.bytes_total"], 0.0);
    server.shutdown();
}
