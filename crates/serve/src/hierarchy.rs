//! The fleet-scope hierarchy feed: daemon-side wiring of
//! [`dbcatcher_hierarchy::FleetEngine`].
//!
//! A single feed thread registers itself as an internal subscriber of the
//! verdict broadcast, so every per-unit verdict a shard fans out also
//! reaches the hierarchy engine — same channel discipline as external
//! subscribers, no new hooks in the shard hot path. For each verdict the
//! feed:
//!
//! 1. appends the [`UnitVerdict`] as one JSONL line to
//!    `wal_dir/hierarchy.wal` (flushed per line, *before* the engine sees
//!    it) — the hierarchy WAL doubles as the `analyze-fleet` input, which
//!    is what makes the online/offline byte-identity checkable;
//! 2. feeds the engine and broadcasts every emitted
//!    [`Response::ScopeVerdict`] to the subscribers.
//!
//! On startup the feed replays an existing hierarchy WAL (without
//! flushing), so a restarted daemon resumes scope state exactly where the
//! log left it; duplicate verdicts re-emitted by the unit-WAL replay are
//! deduplicated inside the engine. On clean shutdown the engine is
//! flushed and the full scope-verdict history is rewritten to the
//! configured `scope_out` file; a (simulated) crash skips both, exactly
//! like a real kill would.

use crate::metrics::ServerMetrics;
use crate::protocol::Response;
use crate::shard::CrashSwitch;
use crate::sync::LockRecover;
use dbcatcher_core::wire::write_unit_verdict;
use dbcatcher_hierarchy::{
    parse_unit_line, render_scope_line, FleetReplay, HierarchyConfig, ScopeVerdict, Topology,
    UnitVerdict,
};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

/// File name of the hierarchy WAL inside the daemon's `--wal-dir`.
pub const HIERARCHY_WAL_FILE: &str = "hierarchy.wal";

/// Operator-facing hierarchy knobs (`dbcatcher serve --hierarchy`).
#[derive(Debug, Clone, PartialEq)]
pub struct HierarchyOptions {
    /// Units per cluster in the rollup topology.
    pub units_per_cluster: usize,
    /// Clusters per region in the rollup topology.
    pub clusters_per_region: usize,
    /// Where the scope-verdict stream is written on clean shutdown
    /// (rewritten whole, so a resumed daemon's file equals an offline
    /// replay of the full hierarchy WAL).
    pub scope_out: Option<PathBuf>,
}

impl Default for HierarchyOptions {
    fn default() -> Self {
        Self {
            units_per_cluster: 4,
            clusters_per_region: 4,
            scope_out: None,
        }
    }
}

/// Everything the feed thread needs from the server.
pub(crate) struct FeedContext {
    pub options: HierarchyOptions,
    pub max_units: usize,
    pub wal_dir: Option<PathBuf>,
    pub metrics: Arc<ServerMetrics>,
    pub subscribers: Arc<Mutex<Vec<Sender<Response>>>>,
    pub crash: Option<Arc<CrashSwitch>>,
}

/// Handle of the running feed thread; joined by the server after the
/// subscriber list is cleared (which closes the feed's channel).
pub(crate) struct HierarchyFeed {
    handle: std::thread::JoinHandle<()>,
}

impl HierarchyFeed {
    pub fn join(self) {
        let _ = self.handle.join();
    }
}

/// Spawns the feed thread and registers it on the verdict broadcast.
pub(crate) fn spawn(ctx: FeedContext) -> HierarchyFeed {
    let (tx, rx) = channel::<Response>();
    ctx.subscribers.lock_clean().push(tx);
    let handle = std::thread::Builder::new()
        .name("dbcatcher-hierarchy".into())
        .spawn(move || run_feed(rx, ctx))
        // dbclint: allow(panic-free) — OS thread-spawn failure has no graceful recovery; fail loud at startup
        .expect("spawn hierarchy feed");
    HierarchyFeed { handle }
}

fn run_feed(rx: Receiver<Response>, ctx: FeedContext) {
    let topology = match Topology::new(
        ctx.max_units,
        ctx.options.units_per_cluster,
        ctx.options.clusters_per_region,
    ) {
        Ok(t) => t,
        Err(e) => {
            ctx.metrics
                .record_shard_note(0, format!("hierarchy disabled: {e}"));
            // Drain the channel so fan-out sends keep succeeding.
            while rx.recv().is_ok() {}
            return;
        }
    };
    ctx.metrics.record_hierarchy_enabled();
    let config = HierarchyConfig::new(topology);
    let mut replay = FleetReplay::new(config);
    let mut history: Vec<ScopeVerdict> = Vec::new();
    let wal_path = ctx.wal_dir.as_ref().map(|d| d.join(HIERARCHY_WAL_FILE));

    // Resume: replay the hierarchy WAL a previous incarnation appended.
    // No flush — buffered ticks stay buffered so the live stream
    // continues them, keeping the final output equal to one offline
    // replay of the whole log.
    if let Some(path) = &wal_path {
        if let Ok(file) = File::open(path) {
            for line in BufReader::new(file).lines() {
                let Ok(line) = line else { break };
                if line.trim().is_empty() {
                    continue;
                }
                // Malformed lines (a torn tail write) are skipped, same
                // as `analyze-fleet` does offline.
                if let Ok(record) = parse_unit_line(&line) {
                    replay.observe(record);
                }
            }
        }
        publish(&mut replay, &mut history, &ctx);
    }

    let mut wal = wal_path.as_ref().and_then(|path| {
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match OpenOptions::new().create(true).append(true).open(path) {
            Ok(file) => Some(BufWriter::new(file)),
            Err(e) => {
                ctx.metrics
                    .record_shard_note(0, format!("hierarchy WAL disabled: {e}"));
                None
            }
        }
    });

    let mut line = String::new();
    while let Ok(response) = rx.recv() {
        let Response::Verdict {
            unit,
            at_tick,
            verdict,
        } = response
        else {
            continue; // our own ScopeVerdict echoes, control frames
        };
        // Durable point: the verdict reaches the hierarchy WAL before the
        // engine can act on it, so a crash never loses an observed line.
        if let Some(writer) = wal.as_mut() {
            line.clear();
            write_unit_verdict(unit, at_tick, &verdict, &mut line);
            line.push('\n');
            if writer
                .write_all(line.as_bytes())
                .and_then(|()| writer.flush())
                .is_err()
            {
                ctx.metrics
                    .record_wal_error(unit, "hierarchy WAL append failed".into());
            }
        }
        replay.observe(UnitVerdict {
            unit,
            at_tick,
            verdict,
        });
        publish(&mut replay, &mut history, &ctx);
    }

    // Channel closed: daemon is going down. A (simulated) crash gets no
    // flush and no scope file — resume recovers from the WAL instead.
    if ctx.crash.as_ref().is_some_and(|c| c.tripped()) {
        return;
    }
    if let Some(engine) = replay.engine_mut() {
        engine.flush();
    }
    publish(&mut replay, &mut history, &ctx);
    if let Some(path) = &ctx.options.scope_out {
        if let Err(e) = write_scope_file(path, &history) {
            ctx.metrics
                .record_shard_note(0, format!("scope output failed: {e}"));
        }
    }
}

/// Drains newly emitted scope verdicts: metrics, subscriber broadcast,
/// history append.
fn publish(replay: &mut FleetReplay, history: &mut Vec<ScopeVerdict>, ctx: &FeedContext) {
    let Some(engine) = replay.engine_mut() else {
        return;
    };
    let emitted = engine.drain();
    if emitted.is_empty() {
        return;
    }
    ctx.metrics
        .record_scope_verdicts(emitted.len() as u64, engine.alarms_active() as u64);
    {
        let mut subs = ctx.subscribers.lock_clean();
        for sv in &emitted {
            subs.retain(|s| s.send(Response::ScopeVerdict(sv.clone())).is_ok());
        }
    }
    history.extend(emitted);
}

/// Rewrites the scope-verdict file atomically (tmp + rename).
fn write_scope_file(path: &std::path::Path, history: &[ScopeVerdict]) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let tmp = path.with_extension("tmp");
    {
        let mut writer = BufWriter::new(File::create(&tmp)?);
        for sv in history {
            writer.write_all(render_scope_line(sv).as_bytes())?;
            writer.write_all(b"\n")?;
        }
        writer.flush()?;
    }
    std::fs::rename(&tmp, path)
}
