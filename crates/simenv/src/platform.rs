//! Calibrated platform profiles.
//!
//! Calibration targets are the *observed* figures in the paper, not raw
//! hardware specs: the measured in-cache service peak on the Linux/GigE
//! cluster is ~35 MB/s (Figure 3), so the link+CPU budget is set to
//! saturate near there; the Solaris/100 Mbit cluster serves 1 KB requests
//! at millisecond-scale latencies (Figure 5, left).

use nest_transfer::ModelKind;

/// Per-concurrency-model costs (seconds).
#[derive(Debug, Clone, Copy)]
pub struct ModelCosts {
    /// One-time cost to start serving a request under this model
    /// (event registration / thread spawn).
    pub dispatch: f64,
    /// CPU charged per chunk moved (context switches, framing).
    pub per_chunk: f64,
    /// Whether disk and network transfers overlap (threads overlap via
    /// blocking I/O in separate contexts; a single-threaded event loop
    /// serializes them).
    pub overlapped_io: bool,
}

/// A simulated host + OS.
#[derive(Debug, Clone)]
pub struct PlatformProfile {
    /// Profile name.
    pub name: &'static str,
    /// Deliverable network bandwidth, bytes/second.
    pub net_bps: f64,
    /// Sustained disk bandwidth, bytes/second.
    pub disk_bps: f64,
    /// Average disk positioning cost per file (seek + rotation).
    pub disk_seek: f64,
    /// Per-request protocol-processing cost, by protocol class.
    /// Block protocols (NFS) pay this per *block* request, which is why
    /// their delivered bandwidth is lower — the Figure 3 effect.
    pub proto_overhead: fn(&str) -> f64,
    /// Per-chunk (64 KB) data-channel cost, by protocol class. GridFTP
    /// pays MODE E framing plus GSI integrity per block, which is why its
    /// delivered bandwidth sits near half of the cheap protocols' in
    /// Figure 3.
    pub proto_chunk: fn(&str) -> f64,
    /// Per-model costs.
    pub costs: fn(ModelKind) -> ModelCosts,
    /// Modeled kernel buffer cache size in bytes.
    pub cache_bytes: u64,
    /// Client-side turnaround between a response and the client's next
    /// request, by protocol class. File clients loop almost immediately;
    /// an NFS client pays a kernel RPC round trip per block — the request
    /// scarcity behind Figure 4's 1:1:1:4 result.
    pub client_turnaround: fn(&str) -> f64,
}

impl PlatformProfile {
    /// The paper's main testbed: Linux 2.2.19, IBM 9LZX disks, GigE.
    pub fn linux_gige() -> Self {
        fn proto_overhead(class: &str) -> f64 {
            match class {
                // NFS pays RPC decode + reply per 8 KB block.
                "nfs" => 180e-6,
                // GridFTP pays GSI/framing per request and per-connection
                // setup amortized here.
                "gridftp" => 220e-6,
                "ftp" => 80e-6,
                // S3 is HTTP plus an auth-tag check and an XML reply
                // envelope per request.
                "s3" => 55e-6,
                // Chirp and HTTP are cheap single-line protocols.
                _ => 30e-6,
            }
        }
        fn proto_chunk(class: &str) -> f64 {
            match class {
                // MODE E block headers + GSI integrity per 64 KB chunk.
                "gridftp" => 1.65e-3,
                "ftp" => 60e-6,
                _ => 0.0,
            }
        }
        fn costs(model: ModelKind) -> ModelCosts {
            match model {
                ModelKind::Events => ModelCosts {
                    dispatch: 15e-6,
                    per_chunk: 6e-6,
                    overlapped_io: false,
                },
                ModelKind::Threads => ModelCosts {
                    dispatch: 180e-6,
                    per_chunk: 14e-6,
                    overlapped_io: true,
                },
            }
        }
        fn client_turnaround(class: &str) -> f64 {
            match class {
                // Kernel RPC stack + wire round trip per 8 KB block.
                "nfs" => 1.6e-3,
                _ => 120e-6,
            }
        }
        Self {
            name: "linux-gige",
            // Calibrated so in-cache file service peaks near the paper's
            // ~35 MB/s (protocol + chunk CPU eat the rest of the wire).
            net_bps: 38.0e6,
            disk_bps: 22.0e6,
            disk_seek: 9e-3,
            proto_overhead,
            proto_chunk,
            costs,
            cache_bytes: 256 << 20,
            client_turnaround,
        }
    }

    /// The paper's second testbed: Netra T1s, Solaris 8, 100 Mbit/s.
    /// Thread dispatch on 2002-era Solaris was markedly more expensive
    /// than the event path, which is what Figure 5 (left) shows for 1 KB
    /// in-cache requests.
    pub fn solaris_100mbit() -> Self {
        fn proto_overhead(class: &str) -> f64 {
            match class {
                "nfs" => 200e-6,
                "gridftp" => 350e-6,
                "s3" => 170e-6,
                _ => 120e-6,
            }
        }
        fn proto_chunk(class: &str) -> f64 {
            match class {
                "gridftp" => 3.0e-3,
                "ftp" => 120e-6,
                _ => 0.0,
            }
        }
        fn costs(model: ModelKind) -> ModelCosts {
            match model {
                ModelKind::Events => ModelCosts {
                    dispatch: 60e-6,
                    per_chunk: 25e-6,
                    overlapped_io: false,
                },
                ModelKind::Threads => ModelCosts {
                    dispatch: 700e-6,
                    per_chunk: 60e-6,
                    overlapped_io: true,
                },
            }
        }
        fn client_turnaround(class: &str) -> f64 {
            match class {
                "nfs" => 2.2e-3,
                _ => 250e-6,
            }
        }
        Self {
            name: "solaris-100mbit",
            net_bps: 11.0e6,
            disk_bps: 15.0e6,
            disk_seek: 12e-3,
            proto_overhead,
            proto_chunk,
            costs,
            cache_bytes: 128 << 20,
            client_turnaround,
        }
    }

    /// Per-request protocol cost for a class.
    pub fn overhead(&self, class: &str) -> f64 {
        (self.proto_overhead)(class)
    }

    /// Per-chunk data-channel cost for a class.
    pub fn chunk_overhead(&self, class: &str) -> f64 {
        (self.proto_chunk)(class)
    }

    /// Client turnaround for a class.
    pub fn turnaround(&self, class: &str) -> f64 {
        (self.client_turnaround)(class)
    }

    /// Model costs lookup.
    pub fn model_costs(&self, model: ModelKind) -> ModelCosts {
        (self.costs)(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linux_profile_sane() {
        let p = PlatformProfile::linux_gige();
        assert!(p.net_bps > p.disk_bps);
        assert!(p.overhead("nfs") > p.overhead("chirp"));
        assert!(p.overhead("gridftp") > p.overhead("http"));
        // S3 costs a little more than plain HTTP but far less than the
        // block/framing-heavy protocols.
        assert!(p.overhead("s3") > p.overhead("http"));
        assert!(p.overhead("s3") < p.overhead("gridftp"));
        let ev = p.model_costs(ModelKind::Events);
        let th = p.model_costs(ModelKind::Threads);
        assert!(ev.dispatch < th.dispatch);
        assert!(!ev.overlapped_io && th.overlapped_io);
    }

    #[test]
    fn solaris_thread_dispatch_much_costlier_than_events() {
        let p = PlatformProfile::solaris_100mbit();
        let ev = p.model_costs(ModelKind::Events);
        let th = p.model_costs(ModelKind::Threads);
        assert!(th.dispatch / ev.dispatch > 10.0);
    }
}
