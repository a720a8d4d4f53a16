//! `nestlint` — the workspace's source-level quality ratchet.
//!
//! The appliance's concurrency and observability guarantees rest on a few
//! *repo rules* that the compiler cannot enforce: all locks flow through
//! the vendored `parking_lot` shim (so the lock-order detector and the
//! contention statistics see them), poison is recovered centrally (never
//! `.lock().unwrap()`), hot transfer paths draw chunk buffers from the
//! `BufPool`, disk chunk I/O goes through the FD handle cache, and every
//! metric registered in code is documented in DESIGN.md's metrics table.
//! This crate scans the workspace line-by-line and fails the build gate
//! (`scripts/check.sh`) on the first drift.
//!
//! ## Rules
//!
//! | id | what it rejects |
//! |---|---|
//! | `raw-std-sync` | `std::sync::{Mutex,RwLock,Condvar}` outside the shim |
//! | `lock-unwrap` | `.lock().unwrap()`-style poison handling |
//! | `unnamed-lock` | shim locks constructed with `::new` (not `::named`) in non-test code |
//! | `transfer-alloc` | `vec![0…]` chunk allocations in `crates/transfer` (use `BufPool`) |
//! | `backend-open` | direct `File::open`/`OpenOptions` in `storage/backend.rs` (use the handle cache) |
//! | `undocumented-metric` | metric name literals registered in code but absent from DESIGN.md |
//! | `conn-spawn` | `thread::spawn`/`thread::Builder` in files that handle `TcpListener`s (connection lifecycles belong to `nest-core::session`) |
//! | `front-registry` | `SessionLayer::register` calls or raw `SessionHandler` closures outside `core/src/front.rs` (protocol fronts register through the `FrontRegistry`) |
//! | `raw-socket-write` | bare `.write(` on reply streams in front/handler reply paths (short writes truncate replies; use `write_all` or the vectored helpers) |
//! | `tier-bypass` | direct raw-backend reads (`.backend().read_at` / `.backend().stat`) or `LocalFsBackend` construction in appliance serving paths — bypassing `StorageManager` skips admission (the ACL check and lot LRU touch) and read instrumentation, and a second backend brings a second handle cache blind to the appliance's invalidations |
//! | `unsafe-safety-comment` | `unsafe` blocks/fns/impls without a `// SAFETY:` comment immediately above (or trailing on the same line) stating the obligation being discharged |
//! | `atomic-ordering` | bare `Ordering::Relaxed` outside the stats module (`crates/obs/src/metrics.rs`) — every relaxed access elsewhere carries a reasoned `nestlint: allow(atomic-ordering)` explaining why no synchronization rides on it |
//! | `lock-rank` | a lock class literal (`Mutex::named` / `RwLock::named` / `Condvar::named`) missing from DESIGN.md's rank table, or a rank-table class no code constructs (`model.*` / `test.*` harness classes are exempt) |
//! | `lot-bypass` | a `LotManager` mutator (`charge_file`, `charge_file_to`, `release_file`, `create`, `renew`, `terminate`) called on the appliance's table (`lot_manager()`, or a binding of it) outside `crates/storage`, where every lot mutation is journaled; and `fs::write(` in `crates/core` or `crates/storage`, whose persistent state goes through the lot journal or `atomic_replace` |
//!
//! ## Suppression
//!
//! A deliberate exception is annotated at the site, with a reason:
//!
//! ```text
//! // nestlint: allow(backend-open): create() must open the file it creates
//! ```
//!
//! on the offending line or the line directly above it. Suppressions are
//! per-rule; a bare `allow` matches nothing.
//!
//! ## Scope
//!
//! Production sources only: `crates/*/src` and the root `src/`, skipping
//! the shim crates (`crates/shims`), this crate, `tests/`, `benches/`,
//! `examples/`, comment lines, and everything after the first
//! `#[cfg(test)]` in a file (by convention test modules sit at the end).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// One repo-rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Rule id (e.g. `raw-std-sync`).
    pub rule: &'static str,
    /// File, relative to the workspace root when produced by
    /// [`scan_workspace`].
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The offending source line, trimmed.
    pub text: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.text
        )
    }
}

/// All rule ids, for reporting and tests.
pub const RULES: &[&str] = &[
    "raw-std-sync",
    "lock-unwrap",
    "unnamed-lock",
    "transfer-alloc",
    "backend-open",
    "undocumented-metric",
    "conn-spawn",
    "front-registry",
    "raw-socket-write",
    "tier-bypass",
    "unsafe-safety-comment",
    "atomic-ordering",
    "lock-rank",
    "lot-bypass",
];

/// `LotManager` methods that change the lot table.
const LOT_MUTATORS: [&str; 6] = [
    "charge_file",
    "charge_file_to",
    "release_file",
    "create",
    "renew",
    "terminate",
];

/// Whether `line` calls `pat` (e.g. `lm.create(`) with `pat` starting at a
/// token boundary, so `xlm.create(` or `nfs::write(` do not match.
fn calls(line: &str, pat: &str) -> bool {
    line.match_indices(pat).any(|(pos, _)| {
        !line[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
    })
}

/// The name a `let` statement binds, if `line` is one.
fn let_binding(line: &str) -> Option<&str> {
    let rest = line.strip_prefix("let ")?;
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let end = rest.find(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))?;
    (end > 0).then(|| &rest[..end])
}

/// Whether `path` (workspace-relative, `/`-separated) is in scope.
fn in_scope(path: &str) -> bool {
    if !path.ends_with(".rs") {
        return false;
    }
    let parts: Vec<&str> = path.split('/').collect();
    // Only crate sources: crates/<name>/src/... or src/...
    let under_src = parts.first() == Some(&"src")
        || (parts.first() == Some(&"crates") && parts.get(2) == Some(&"src"));
    if !under_src {
        return false;
    }
    // The shim implements the rules; this crate tests them (its sources
    // spell the banned patterns out as string fixtures).
    if parts.get(1) == Some(&"shims") || parts.get(1) == Some(&"lint") {
        return false;
    }
    !parts
        .iter()
        .any(|p| *p == "tests" || *p == "benches" || *p == "examples")
}

/// Does `line` (or the line above it) carry `// nestlint: allow(<rule>)`?
fn allowed(rule: &str, line: &str, prev: Option<&str>) -> bool {
    let marker = format!("nestlint: allow({rule})");
    line.contains(&marker) || prev.is_some_and(|p| p.contains(&marker))
}

/// Extracts `"…"` literal arguments of `.counter(` / `.gauge(` /
/// `.meter(` / `.histogram(` registrations on one line.
fn metric_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    for call in [".counter(\"", ".gauge(\"", ".meter(\"", ".histogram(\""] {
        let mut rest = line;
        while let Some(pos) = rest.find(call) {
            rest = &rest[pos + call.len()..];
            if let Some(end) = rest.find('"') {
                out.push(rest[..end].to_owned());
            }
        }
    }
    out
}

/// A documented metric pattern: segments split on `.`, where a segment
/// that was `<…>` in DESIGN.md matches any single name segment.
#[derive(Debug, Clone)]
struct MetricPattern {
    segments: Vec<Option<String>>, // None = wildcard segment
}

impl MetricPattern {
    fn matches(&self, name: &str) -> bool {
        let parts: Vec<&str> = name.split('.').collect();
        if parts.len() != self.segments.len() {
            return false;
        }
        self.segments
            .iter()
            .zip(parts)
            .all(|(seg, part)| seg.as_deref().is_none_or(|s| s == part))
    }
}

/// Brace expansion of one backtick span (multiple groups, no nesting).
fn expand_braces(s: &str) -> Vec<String> {
    let (Some(open), Some(close)) = (s.find('{'), s.find('}')) else {
        return vec![s.to_owned()];
    };
    if close < open {
        return vec![s.to_owned()];
    }
    let mut out = Vec::new();
    for alt in s[open + 1..close].split(',') {
        let candidate = format!("{}{}{}", &s[..open], alt.trim(), &s[close + 1..]);
        out.extend(expand_braces(&candidate));
    }
    out
}

/// Expands one backtick span from DESIGN.md into concrete patterns:
/// `{a,b}` groups multiply out, `<x>` becomes a wildcard segment.
fn expand_span(span: &str) -> Vec<MetricPattern> {
    expand_braces(span)
        .into_iter()
        .map(|s| MetricPattern {
            segments: s
                .split('.')
                .map(|seg| {
                    if seg.starts_with('<') && seg.ends_with('>') {
                        None
                    } else {
                        Some(seg.to_owned())
                    }
                })
                .collect(),
        })
        .collect()
}

/// Parses DESIGN.md: every backtick code span that looks like a metric
/// name (contains a `.`, uses only name characters plus `{},<>`) becomes
/// one or more [`MetricPattern`]s.
fn documented_metrics(design: &str) -> Vec<MetricPattern> {
    let mut out = Vec::new();
    for (i, span) in design.split('`').enumerate() {
        if i % 2 == 0 || !span.contains('.') {
            continue; // outside backticks, or not dotted
        }
        let ok = span
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "._{},<>".contains(c));
        if ok && !span.is_empty() {
            out.extend(expand_span(span));
        }
    }
    out
}

/// The lock classes in DESIGN.md's rank table (the table headed
/// `| Rank | Class |`), brace-expanded, each with its row's 1-based line.
fn ranked_lock_classes(design: &str) -> Vec<(usize, String)> {
    let lines: Vec<&str> = design.lines().collect();
    let Some(head) = lines.iter().position(|l| l.starts_with("| Rank | Class |")) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    // Rows start after the header's `|---|` separator.
    for (idx, row) in lines.iter().enumerate().skip(head + 2) {
        if !row.starts_with('|') {
            break;
        }
        let class_cell = row.split('|').nth(2).unwrap_or("");
        for span in class_cell.split('`').skip(1).step_by(2) {
            out.extend(expand_braces(span).into_iter().map(|c| (idx + 1, c)));
        }
    }
    out
}

/// Whether rank-table class `name` (wildcards allowed) covers `class`.
fn covers(name: &str, class: &str) -> bool {
    expand_span(name).iter().any(|p| p.matches(class))
}

/// Lock constructors whose first argument is the lock's class name.
const LOCK_CTORS: [&str; 3] = ["Mutex::named(", "RwLock::named(", "Condvar::named("];

/// The class literal a lock constructor passes on `line`, or on the line
/// after `prev` when `prev` ends by opening the constructor's arguments.
fn lock_class_literal(line: &str, prev: Option<&str>) -> Option<String> {
    let opened = |l: &str| {
        LOCK_CTORS
            .iter()
            .find_map(|c| l.find(c).map(|p| l[p + c.len()..].trim().to_owned()))
    };
    let arg = match opened(line) {
        Some(rest) if !rest.is_empty() => rest,
        _ if prev.and_then(opened).as_deref() == Some("") => line.to_owned(),
        _ => return None,
    };
    let arg = arg.strip_prefix('"')?;
    arg.find('"').map(|end| arg[..end].to_owned())
}

/// Scans one in-scope source file. `path` must be workspace-relative with
/// `/` separators; `design_patterns` comes from [`documented_metrics`] and
/// `ranked` from [`ranked_lock_classes`]. Production lock classes the file
/// constructs are appended to `lock_classes`.
fn scan_file(
    path: &str,
    content: &str,
    design_patterns: &[MetricPattern],
    ranked: &[(usize, String)],
    lock_classes: &mut Vec<String>,
) -> Vec<Violation> {
    let mut out = Vec::new();
    let is_transfer = path.starts_with("crates/transfer/src");
    let is_backend = path == "crates/storage/src/backend.rs";
    // conn-spawn applies to files that touch listening sockets in
    // production code (pre-`#[cfg(test)]`): connection lifecycles —
    // accept, worker pooling, idle reaping, drain — are owned by
    // `nest-core::session`, the one file allowed to spawn per
    // connection. Hand-rolled `thread::spawn` acceptors bypass the
    // admission caps and the drain joins.
    let pre_test = content.split("#[cfg(test)]").next().unwrap_or("");
    let is_conn_file = path != "crates/core/src/session.rs" && pre_test.contains("TcpListener");
    // The registry implements the front API; the session layer defines it.
    let is_front_api = path == "crates/core/src/front.rs" || path == "crates/core/src/session.rs";
    // raw-socket-write applies where protocol replies are written: the
    // built-in handlers and plugin front crates. A bare `.write(` may
    // return short on a throttled socket and silently truncate the
    // reply; reply bytes leave through `write_all` or the vectored
    // helpers, which loop to completion.
    let is_reply_path =
        path.starts_with("crates/core/src/handlers/") || path.starts_with("crates/s3front/src");
    // tier-bypass applies to appliance serving paths: the core (fronts,
    // dispatcher, handlers), plugin fronts, and the benches that drive the
    // appliance. Reads there are admitted and timed by `StorageManager`;
    // a raw `.backend().read_at` skips both, and a second `LocalFsBackend`
    // has a handle cache blind to the appliance's invalidations.
    // `crates/jbos` is exempt by design: the "just a bunch of servers"
    // baseline lacks the appliance architecture — that contrast *is* the
    // experiment.
    let is_serving_path = path.starts_with("crates/core/src")
        || path.starts_with("crates/s3front/src")
        || path.starts_with("crates/bench/src");
    // The dispatcher is the one sanctioned LocalFsBackend construction
    // site: it builds the backend and immediately wraps it in the
    // StorageManager.
    let is_backend_ctor_site = path == "crates/core/src/dispatcher.rs";
    // atomic-ordering: the metrics module is the sanctioned home of
    // relaxed counters — monotonic stats nobody synchronizes on.
    let is_stats_module = path == "crates/obs/src/metrics.rs";
    // lot-bypass: the storage crate journals every lot mutation; a caller
    // elsewhere that mutates the appliance's table directly skips the
    // journal, and a bare `fs::write` truncates before it writes.
    let owns_lots = path.starts_with("crates/storage/src");
    let keeps_state = owns_lots || path.starts_with("crates/core/src");
    // Receivers that name the appliance's lot table in this file.
    let mut lot_tables: Vec<String> = vec!["lot_manager()".to_owned()];
    let mut prev: Option<&str> = None;
    // Whether the contiguous comment block (plus any attributes)
    // directly above the current line contains `SAFETY:`.
    let mut safety_above = false;
    for (idx, raw) in content.lines().enumerate() {
        let line = raw.trim();
        // Test modules sit at the end of files by repo convention.
        if line == "#[cfg(test)]" {
            break;
        }
        if line.starts_with("//") {
            if line.contains("SAFETY:") {
                safety_above = true;
            }
            prev = Some(raw);
            continue;
        }
        let mut report = |rule: &'static str| {
            if !allowed(rule, raw, prev) {
                out.push(Violation {
                    rule,
                    path: PathBuf::from(path),
                    line: idx + 1,
                    text: line.to_owned(),
                });
            }
        };

        // raw-std-sync: all locks flow through the shim.
        if line.contains("std::sync::Mutex")
            || line.contains("std::sync::RwLock")
            || line.contains("std::sync::Condvar")
        {
            report("raw-std-sync");
        } else if line.starts_with("use std::sync::") || line.contains(" std::sync::{") {
            let items = line.split("std::sync::").nth(1).unwrap_or("");
            if ["Mutex", "RwLock", "Condvar"]
                .iter()
                .any(|t| items.contains(t))
            {
                report("raw-std-sync");
            }
        }

        // lock-unwrap: poison is recovered in the shim, never unwrapped.
        for pat in [
            ".lock().unwrap()",
            ".read().unwrap()",
            ".write().unwrap()",
            ".lock().expect(",
            ".read().expect(",
            ".write().expect(",
        ] {
            if line.contains(pat) {
                report("lock-unwrap");
                break;
            }
        }

        // unnamed-lock: production locks must join a named class so the
        // detector and the stats table see them.
        for pat in ["Mutex::new(", "RwLock::new(", "Condvar::new("] {
            if let Some(pos) = line.find(pat) {
                // `sync::Mutex::new(…)` is already a raw-std-sync hit.
                if !line[..pos].ends_with("sync::") {
                    report("unnamed-lock");
                }
                break;
            }
        }

        // transfer-alloc: chunk staging buffers come from the BufPool.
        if is_transfer && line.contains("vec![0") {
            report("transfer-alloc");
        }

        // backend-open: disk chunk I/O goes through the FD handle cache.
        if is_backend && (line.contains("File::open(") || line.contains("OpenOptions::new(")) {
            report("backend-open");
        }

        // conn-spawn: connection threads come from the session layer's
        // bounded pools, never ad-hoc spawns next to a listener.
        if is_conn_file && (line.contains("thread::spawn(") || line.contains("thread::Builder")) {
            report("conn-spawn");
        }

        // front-registry: protocol fronts implement `ProtocolFront` and
        // register through the `FrontRegistry` — the one sanctioned
        // `SessionLayer::register` caller. Direct registration (or a raw
        // `SessionHandler` closure) bypasses the per-front dialect,
        // pool-spec and metric wiring the registry owns.
        if !is_front_api {
            for pat in [
                "SessionLayer::register",
                "session.register(",
                "SessionHandler",
            ] {
                if line.contains(pat) {
                    report("front-registry");
                    break;
                }
            }
        }

        // raw-socket-write: reply bytes leave through write_all / the
        // vectored helpers, never an unguarded `.write(`.
        if is_reply_path {
            let mut rest = line;
            while let Some(pos) = rest.find(".write(") {
                let after = &rest[pos + ".write(".len()..];
                // An argument-less `.write()` is an RwLock guard
                // acquisition, not stream I/O.
                if !after.starts_with(')') {
                    report("raw-socket-write");
                    break;
                }
                rest = after;
            }
        }

        // tier-bypass: serving paths read through the storage manager,
        // never the raw backend (see §11 in DESIGN.md).
        if is_serving_path {
            for pat in [".backend().read_at(", ".backend().stat("] {
                if line.contains(pat) {
                    report("tier-bypass");
                    break;
                }
            }
            if line.contains("LocalFsBackend::new(") && !is_backend_ctor_site {
                report("tier-bypass");
            }
        }

        // unsafe-safety-comment: every unsafe region states the proof
        // obligation it discharges, where the reviewer reads it.
        for pat in [
            "unsafe {",
            "unsafe fn ",
            "unsafe impl ",
            "unsafe trait ",
            "unsafe extern",
        ] {
            if line.contains(pat) {
                if !safety_above && !line.contains("SAFETY:") {
                    report("unsafe-safety-comment");
                }
                break;
            }
        }

        // atomic-ordering: a bare Relaxed access is either a pure
        // statistic (then it lives in, or is annotated like, the stats
        // module) or a latent reordering bug.
        if !is_stats_module && line.contains("Ordering::Relaxed") {
            report("atomic-ordering");
        }

        // lock-rank: every production lock class has a rank-table row;
        // harness classes (`model.*`, `test.*`) need none.
        if let Some(class) = lock_class_literal(line, prev) {
            if !class.starts_with("model.") && !class.starts_with("test.") {
                if !ranked.iter().any(|(_, name)| covers(name, &class)) {
                    report("lock-rank");
                }
                lock_classes.push(class);
            }
        }

        // lot-bypass: no lot mutation outside the journaling storage
        // crate, and no truncate-then-write of persistent state.
        if !owns_lots {
            if let Some(name) = let_binding(line).filter(|_| line.contains("lot_manager()")) {
                lot_tables.push(name.to_owned());
            }
            // A chain rustfmt split after `lot_manager()` continues here.
            let chained = prev.is_some_and(|p| p.trim_end().ends_with("lot_manager()"));
            if LOT_MUTATORS.iter().any(|m| {
                (chained && line.starts_with(&format!(".{m}(")))
                    || lot_tables.iter().any(|t| calls(line, &format!("{t}.{m}(")))
            }) {
                report("lot-bypass");
            }
        }
        if keeps_state && calls(line, "fs::write(") {
            report("lot-bypass");
        }

        // undocumented-metric: registered names must be in DESIGN.md.
        for name in metric_literals(line) {
            if !design_patterns.iter().any(|p| p.matches(&name))
                && !allowed("undocumented-metric", raw, prev)
            {
                out.push(Violation {
                    rule: "undocumented-metric",
                    path: PathBuf::from(path),
                    line: idx + 1,
                    text: format!("metric {name:?} is not in DESIGN.md's metrics table"),
                });
            }
        }

        // Attributes between a SAFETY comment and its unsafe item
        // (e.g. `#[inline]`) keep the comment attached.
        if !line.starts_with("#[") {
            safety_above = false;
        }
        prev = Some(raw);
    }
    out
}

/// Scans arbitrary source text under a synthetic workspace-relative path
/// against a DESIGN.md body, as a one-file workspace. Exposed for the
/// rule tests; out-of-scope paths return no violations.
pub fn scan_source(path: &str, content: &str, design: &str) -> Vec<Violation> {
    scan_sources(&[(path, content)], design)
}

/// Scans a set of sources — `(workspace-relative path, content)` pairs,
/// out-of-scope ones ignored — as one workspace: every per-file rule, plus
/// the workspace-wide half of `lock-rank` (each rank-table class is
/// constructed somewhere in production code).
pub fn scan_sources(files: &[(impl AsRef<str>, impl AsRef<str>)], design: &str) -> Vec<Violation> {
    let patterns = documented_metrics(design);
    let ranked = ranked_lock_classes(design);
    let mut out = Vec::new();
    let mut classes = Vec::new();
    for (path, content) in files {
        let (path, content) = (path.as_ref(), content.as_ref());
        if in_scope(path) {
            out.extend(scan_file(path, content, &patterns, &ranked, &mut classes));
        }
    }
    for (line, class) in ranked {
        if !classes.iter().any(|c| covers(&class, c)) {
            out.push(Violation {
                rule: "lock-rank",
                path: PathBuf::from("DESIGN.md"),
                line,
                text: format!("rank-table class {class:?} is constructed nowhere"),
            });
        }
    }
    out
}

fn walk(dir: &Path, files: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if entry.file_type()?.is_dir() {
            walk(&path, files)?;
        } else {
            files.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`. Reads `DESIGN.md` for the
/// metrics and rank tables; missing files surface as `io::Error`.
pub fn scan_workspace(root: &Path) -> io::Result<Vec<Violation>> {
    let design = std::fs::read_to_string(root.join("DESIGN.md"))?;
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut sources = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if in_scope(&rel) {
            sources.push((rel, std::fs::read_to_string(&file)?));
        }
    }
    Ok(scan_sources(&sources, &design))
}

#[cfg(test)]
mod tests {
    use super::*;

    const DESIGN: &str = "table: `transfer.bytes_total`, `dispatch.op.<verb>`, \
                          `storage.lot.{count,committed_bytes}`";

    fn rules_of(violations: &[Violation]) -> Vec<&'static str> {
        violations.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn seeded_raw_std_sync_is_caught() {
        let src = "use std::sync::Mutex;\nfn f() { let m = std::sync::RwLock::new(0); }\n";
        let v = scan_source("crates/grid/src/x.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["raw-std-sync", "raw-std-sync"]);
    }

    #[test]
    fn seeded_lock_unwrap_is_caught() {
        let src = "fn f(m: &M) { m.lock().unwrap().push(1); g.read().expect(\"x\"); }\n";
        let v = scan_source("crates/core/src/x.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["lock-unwrap"]);
    }

    #[test]
    fn seeded_unnamed_lock_is_caught() {
        let src = "fn f() { let m = Mutex::new(0); let c = Condvar::new(); }\n";
        let v = scan_source("crates/storage/src/x.rs", src, DESIGN);
        // One per line (first match reports; both lines here are one line).
        assert_eq!(rules_of(&v), vec!["unnamed-lock"]);
        let named = "fn f() { let m = Mutex::named(\"test.a\", 1, 0); }\n";
        assert!(scan_source("crates/storage/src/x.rs", named, DESIGN).is_empty());
    }

    #[test]
    fn seeded_transfer_alloc_is_caught_only_in_transfer() {
        let src = "fn f() { let b = vec![0u8; 65536]; }\n";
        let v = scan_source("crates/transfer/src/flow.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["transfer-alloc"]);
        assert!(scan_source("crates/storage/src/flow.rs", src, DESIGN).is_empty());
    }

    #[test]
    fn seeded_backend_open_is_caught_only_in_backend() {
        let src = "fn f() { let f = fs::File::open(p)?; }\n";
        let v = scan_source("crates/storage/src/backend.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["backend-open"]);
        assert!(scan_source("crates/storage/src/other.rs", src, DESIGN).is_empty());
    }

    #[test]
    fn seeded_undocumented_metric_is_caught() {
        let src = "fn f(m: &R) { m.counter(\"transfer.bytes_total\").inc(); \
                   m.gauge(\"sneaky.metric\").set(1); }\n";
        let v = scan_source("crates/obs/src/x.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["undocumented-metric"]);
        assert!(v[0].text.contains("sneaky.metric"));
    }

    #[test]
    fn seeded_conn_spawn_is_caught_only_near_listeners() {
        // A hand-rolled acceptor: listener + per-connection spawn.
        let src = "use std::net::TcpListener;\n\
                   fn serve(l: TcpListener) {\n\
                   for c in l.incoming() { std::thread::spawn(move || handle(c)); }\n\
                   let _ = std::thread::Builder::new();\n\
                   }\n";
        let v = scan_source("crates/core/src/server.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["conn-spawn", "conn-spawn"]);
        // The session layer is the one place allowed to spawn workers.
        assert!(scan_source("crates/core/src/session.rs", src, DESIGN).is_empty());
        // Spawns in files with no listener (e.g. background compaction)
        // are out of the rule's scope.
        let no_listener = "fn f() { std::thread::spawn(|| work()); }\n";
        assert!(scan_source("crates/core/src/server.rs", no_listener, DESIGN).is_empty());
        // A listener that only appears inside tests does not arm the rule.
        let test_only = "fn f() { std::thread::spawn(|| work()); }\n\
                         #[cfg(test)]\n\
                         mod tests { use std::net::TcpListener; }\n";
        assert!(scan_source("crates/core/src/server.rs", test_only, DESIGN).is_empty());
        // Suppression works as for every other rule.
        let allowed = "use std::net::TcpListener;\n\
                       // nestlint: allow(conn-spawn): bootstrap probe thread\n\
                       fn f() { std::thread::spawn(|| probe()); }\n";
        assert!(scan_source("crates/core/src/server.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn seeded_front_registry_is_caught_outside_the_registry() {
        let src = "use nest_core::session::SessionHandler;\n\
                   fn f() { let addr = session.register(\"x\", l, reply, h)?; }\n\
                   fn g() { SessionLayer::register(s, \"y\", l, reply, h); }\n";
        let v = scan_source("crates/jbos/src/common.rs", src, DESIGN);
        assert_eq!(
            rules_of(&v),
            vec!["front-registry", "front-registry", "front-registry"]
        );
        // The registry implements the API; the session layer defines it.
        assert!(scan_source("crates/core/src/front.rs", src, DESIGN).is_empty());
        assert!(scan_source("crates/core/src/session.rs", src, DESIGN).is_empty());
        // Suppression works as for every other rule.
        let allowed = "// nestlint: allow(front-registry): migration fixture\n\
                       fn f() { let h: SessionHandler = mk(); }\n";
        assert!(scan_source("crates/core/src/x.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn seeded_raw_socket_write_is_caught_only_in_reply_paths() {
        let src = "fn f(s: &mut TcpStream) { s.write(b\"HTTP/1.1 200 OK\\r\\n\")?; }\n";
        let v = scan_source("crates/core/src/handlers/http.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["raw-socket-write"]);
        assert_eq!(
            rules_of(&scan_source("crates/s3front/src/lib.rs", src, DESIGN)),
            vec!["raw-socket-write"]
        );
        // write_all is the sanctioned spelling: it loops to completion.
        let ok = "fn f(s: &mut TcpStream) { s.write_all(b\"x\")?; }\n";
        assert!(scan_source("crates/core/src/handlers/http.rs", ok, DESIGN).is_empty());
        // An argument-less `.write()` is an RwLock guard, not stream I/O.
        let guard = "fn f() { let mut g = table.write(); g.push(1); }\n";
        assert!(scan_source("crates/core/src/handlers/http.rs", guard, DESIGN).is_empty());
        // Outside the reply paths the rule does not apply (the transfer
        // crate's sinks handle short writes by contract, with tests).
        assert!(scan_source("crates/transfer/src/flow.rs", src, DESIGN).is_empty());
        // Suppression works as for every other rule.
        let allowed = "// nestlint: allow(raw-socket-write): best-effort probe, short write ok\n\
                       fn f(s: &mut S) { s.write(b)?; }\n";
        assert!(scan_source("crates/core/src/handlers/http.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn seeded_tier_bypass_is_caught_only_in_serving_paths() {
        let src = "fn f(sm: &StorageManager) {\n\
                   let n = sm.backend().read_at(&p, 0, &mut buf)?;\n\
                   let st = sm.backend().stat(&p)?;\n\
                   }\n";
        let v = scan_source("crates/core/src/handlers/http.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["tier-bypass", "tier-bypass"]);
        // Benches drive the appliance, so they are serving paths too.
        assert_eq!(
            rules_of(&scan_source("crates/bench/src/bin/x.rs", src, DESIGN)),
            vec!["tier-bypass", "tier-bypass"]
        );
        // The storage crate IS the manager/tier/handle-cache; exempt.
        assert!(scan_source("crates/storage/src/manager.rs", src, DESIGN).is_empty());
        // JBOS is the deliberately tier-less baseline; exempt by design.
        assert!(scan_source("crates/jbos/src/httpd.rs", src, DESIGN).is_empty());
        // Raw backend construction outside the dispatcher is the same
        // bypass smell; the dispatcher is the sanctioned assembly site.
        let ctor = "fn f() { let b = LocalFsBackend::new(&root)?; }\n";
        assert_eq!(
            rules_of(&scan_source("crates/core/src/server.rs", ctor, DESIGN)),
            vec!["tier-bypass"]
        );
        assert!(scan_source("crates/core/src/dispatcher.rs", ctor, DESIGN).is_empty());
        // Suppression works as for every other rule (benches stage
        // fixture files through the raw backend with a reasoned allow).
        let allowed = "// nestlint: allow(tier-bypass): staging fixture bytes, not serving\n\
                       fn f() { let b = LocalFsBackend::new(&root)?; }\n";
        assert!(scan_source("crates/bench/src/bin/x.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn seeded_unsafe_without_safety_comment_is_caught() {
        let src = "fn f() { let x = unsafe { *p };\n\
                   unsafe fn g() {}\n\
                   unsafe impl Send for T {}\n\
                   }\n";
        let v = scan_source("crates/core/src/x.rs", src, DESIGN);
        assert_eq!(
            rules_of(&v),
            vec![
                "unsafe-safety-comment",
                "unsafe-safety-comment",
                "unsafe-safety-comment"
            ]
        );
        // A SAFETY comment directly above discharges the rule...
        let above = "// SAFETY: p is valid for reads for the guard's lifetime\n\
                     fn f() { let x = unsafe { *p }; }\n";
        assert!(scan_source("crates/core/src/x.rs", above, DESIGN).is_empty());
        // ...including as a later line of a longer comment block, and
        // across an interposed attribute.
        let block = "// Reads the mapped page.\n\
                     // SAFETY: mapping outlives self; see new().\n\
                     #[inline]\n\
                     fn f() { let x = unsafe { *p }; }\n";
        assert!(scan_source("crates/core/src/x.rs", block, DESIGN).is_empty());
        // ...or trailing on the same line.
        let same = "fn f() { unsafe { syscall() } } // SAFETY: fds outlive the call\n";
        assert!(scan_source("crates/core/src/x.rs", same, DESIGN).is_empty());
        // An unrelated comment above does not.
        let unrelated = "// fast path\nfn f() { let x = unsafe { *p }; }\n";
        assert_eq!(
            rules_of(&scan_source("crates/core/src/x.rs", unrelated, DESIGN)),
            vec!["unsafe-safety-comment"]
        );
        // A SAFETY comment only attaches to the adjacent item: code in
        // between detaches it.
        let detached = "// SAFETY: for g only\nfn g() {}\nfn f() { unsafe { h() } }\n";
        assert_eq!(
            rules_of(&scan_source("crates/core/src/x.rs", detached, DESIGN)),
            vec!["unsafe-safety-comment"]
        );
        // The word inside prose or a string is not an unsafe region.
        let prose = "fn f(s: &str) { assert!(!s.contains('\"'), \"JSON-unsafe string\"); }\n";
        assert!(scan_source("crates/core/src/x.rs", prose, DESIGN).is_empty());
    }

    #[test]
    fn seeded_atomic_ordering_is_caught_outside_stats() {
        let src = "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n";
        let v = scan_source("crates/core/src/x.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["atomic-ordering"]);
        // The stats module is the sanctioned home of relaxed counters.
        assert!(scan_source("crates/obs/src/metrics.rs", src, DESIGN).is_empty());
        // Stronger orderings are always fine.
        let seq = "fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::SeqCst); }\n";
        assert!(scan_source("crates/core/src/x.rs", seq, DESIGN).is_empty());
        // A reasoned allow documents why no synchronization rides on it.
        let allowed =
            "// nestlint: allow(atomic-ordering): monotonic id tick, nothing reads it for sync\n\
                       fn f(a: &AtomicUsize) { a.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(scan_source("crates/core/src/x.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn seeded_lock_rank_is_caught_both_ways() {
        let ranks = "## Locks\n\
                     | Rank | Class | Where |\n\
                     |---|---|---|\n\
                     | 300 | `storage.lot` | `storage/src/lot.rs` |\n\
                     | 320/321 | `storage.acl.{acls,groups}` | `storage/src/acl.rs` |\n\
                     \n\
                     | Other | Table |\n\
                     |---|---|\n\
                     | 9 | `not.a.rank` |\n";
        // Every constructor spelling, including a class literal on the
        // line after the call opens. Unranked classes are caught, and so
        // is a row whose only constructor sits in a test module.
        let src = "fn f() {\n\
                   let a = Mutex::named(\"storage.lot\", 300, 0);\n\
                   let b = RwLock::named(\"storage.acl.acls\", 320, 0);\n\
                   let c = Mutex::named(\n\
                   \"storage.ghost\",\n\
                   1, 0);\n\
                   let d = Condvar::named(\"not.a.rank\", 2);\n\
                   }\n\
                   #[cfg(test)]\n\
                   mod tests { fn g() { RwLock::named(\"storage.acl.groups\", 321, 0); } }\n";
        let v = scan_source("crates/storage/src/x.rs", src, ranks);
        assert_eq!(rules_of(&v), vec!["lock-rank"; 3]);
        assert_eq!(v[0].line, 5);
        assert!(v[0].text.contains("storage.ghost"));
        assert!(v[1].text.contains("not.a.rank"));
        assert_eq!((v[2].path.to_str(), v[2].line), (Some("DESIGN.md"), 5));
        assert!(v[2].text.contains("storage.acl.groups"));
        // The workspace is one set: a class constructed in any file
        // covers its row.
        let files = [
            (
                "crates/storage/src/lot.rs",
                "fn f() { Mutex::named(\"storage.lot\", 300, 0); }\n",
            ),
            (
                "crates/storage/src/acl.rs",
                "fn f() { RwLock::named(\"storage.acl.acls\", 320, 0); }\n\
                 fn g() { RwLock::named(\"storage.acl.groups\", 321, 0); }\n",
            ),
        ];
        assert!(scan_sources(&files, ranks).is_empty());
        // Harness classes need no row, and a reasoned allow suppresses as
        // for every other rule.
        let exempt = "fn f() { let m = Mutex::named(\"model.backend\", 901, 0); }\n\
                      // nestlint: allow(lock-rank): scratch lock in a migration shim\n\
                      fn g() { let m = Mutex::named(\"scratch.x\", 1, 0); }\n";
        assert!(scan_source("crates/storage/src/x.rs", exempt, DESIGN).is_empty());
    }

    #[test]
    fn seeded_lot_bypass_is_caught_outside_storage() {
        let src = "fn f(sm: &StorageManager) {\n\
                   sm.lot_manager().release_file(&p);\n\
                   let lm = sm.lot_manager();\n\
                   lm.charge_file(\"u\", &g, &p, 1, 0)?;\n\
                   let cap = lm.total_capacity();\n\
                   let id = sm.lot_manager()\n\
                   .create(owner, 1, 1, 0)?;\n\
                   std::fs::write(path, snapshot);\n\
                   lm.charge_file_to(\"u\", &g, &p, end, 0)?;\n\
                   }\n";
        let v = scan_source("crates/core/src/handlers/nfs.rs", src, DESIGN);
        assert_eq!(rules_of(&v), vec!["lot-bypass"; 5]);
        assert_eq!(
            v.iter().map(|v| v.line).collect::<Vec<_>>(),
            vec![2, 4, 7, 8, 9]
        );
        // The storage crate owns the table and journals its mutations...
        let mutators = "fn f(&self) { self.lots.release_file(p); lm.terminate(id); }\n";
        assert!(scan_source("crates/storage/src/manager.rs", mutators, DESIGN).is_empty());
        // ...but its persistent state is never truncate-then-written.
        let write = "fn f() { let _ = fs::write(path, bytes); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/storage/src/x.rs", write, DESIGN)),
            vec!["lot-bypass"]
        );
        // A standalone LotManager (a reclamation-policy bench) is not the
        // appliance's table; other crates write files as they please; and
        // an NFS module path is not `fs`.
        let standalone = "fn f() { let lm = LotManager::new(1, p); lm.create(o, 1, 1, 0); }\n";
        assert!(scan_source("crates/bench/src/bin/x.rs", standalone, DESIGN).is_empty());
        assert!(scan_source("crates/bench/src/bin/x.rs", write, DESIGN).is_empty());
        let nfs = "fn f() { nfs::write(d); lm2.create(o); }\n";
        assert!(scan_source("crates/core/src/x.rs", nfs, DESIGN).is_empty());
        // Suppression works as for every other rule.
        let allowed = "// nestlint: allow(lot-bypass): fixture writer for a scratch file\n\
                       fn f() { std::fs::write(p, b)?; }\n";
        assert!(scan_source("crates/core/src/x.rs", allowed, DESIGN).is_empty());
    }

    #[test]
    fn design_brace_and_wildcard_expansion() {
        let src = "fn f(m: &R) { m.counter(\"dispatch.op.get\").inc(); \
                   m.gauge(\"storage.lot.count\").set(1); \
                   m.gauge(\"storage.lot.committed_bytes\").set(1); }\n";
        assert!(scan_source("crates/core/src/x.rs", src, DESIGN).is_empty());
        // Wildcards match exactly one segment.
        let deep = "fn f(m: &R) { m.counter(\"dispatch.op.get.extra\").inc(); }\n";
        assert_eq!(
            rules_of(&scan_source("crates/core/src/x.rs", deep, DESIGN)),
            vec!["undocumented-metric"]
        );
    }

    #[test]
    fn allow_comment_suppresses_same_and_previous_line() {
        let same = "fn f() { let b = vec![0u8; 4]; } // nestlint: allow(transfer-alloc): fixture\n";
        assert!(scan_source("crates/transfer/src/x.rs", same, DESIGN).is_empty());
        let prev = "// nestlint: allow(transfer-alloc): one-off probe buffer\nfn f() { let b = vec![0u8; 4]; }\n";
        assert!(scan_source("crates/transfer/src/x.rs", prev, DESIGN).is_empty());
        // A different rule's allow does not suppress.
        let wrong = "// nestlint: allow(backend-open): nope\nfn f() { let b = vec![0u8; 4]; }\n";
        assert_eq!(
            rules_of(&scan_source("crates/transfer/src/x.rs", wrong, DESIGN)),
            vec!["transfer-alloc"]
        );
    }

    #[test]
    fn test_modules_comments_and_out_of_scope_paths_are_skipped() {
        let src = "fn prod() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(scan_source("crates/core/src/x.rs", src, DESIGN).is_empty());
        let comment = "// std::sync::Mutex is banned; see DESIGN.md\n";
        assert!(scan_source("crates/core/src/x.rs", comment, DESIGN).is_empty());
        let banned = "use std::sync::Mutex;\n";
        assert!(scan_source("crates/core/tests/x.rs", banned, DESIGN).is_empty());
        assert!(scan_source("crates/shims/parking_lot/src/lib.rs", banned, DESIGN).is_empty());
        assert!(scan_source("crates/lint/src/lib.rs", banned, DESIGN).is_empty());
        assert!(scan_source("crates/core/src/x.txt", banned, DESIGN).is_empty());
    }

    /// The permanent ratchet: the actual workspace is clean. A violation
    /// here means new code broke a repo rule (or needs a reasoned
    /// `nestlint: allow`).
    #[test]
    fn actual_workspace_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let violations = scan_workspace(root).expect("scan");
        assert!(
            violations.is_empty(),
            "repo-rule violations:\n{}",
            violations
                .iter()
                .map(|v| v.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
