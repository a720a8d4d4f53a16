//! A no-op placeholder for a process-model launcher.
//!
//! The appliance runs the thread and event concurrency models only
//! (DESIGN §2). The benchmark still names this type when it builds a
//! `TransferConfig`, so it stays as a unit value.

/// Ignored; delete in the benchmark-only PR for ROADMAP 1(b).
#[derive(Debug, Default)]
pub struct SubprocessLauncher;

impl SubprocessLauncher {
    /// Ignored; delete in the benchmark-only PR for ROADMAP 1(b).
    pub fn new() -> Self {
        Self
    }
}
