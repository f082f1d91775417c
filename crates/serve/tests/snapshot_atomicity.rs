//! Snapshot + WAL atomicity under a mid-tick kill.
//!
//! Property: for an arbitrary kill tick K, a daemon with per-tick
//! snapshots and a write-ahead log that dies mid-tick (via
//! [`CrashSwitch`], after ingesting tick K) leaves recoverable state
//! equal to **exactly** what it ingested: the snapshot alone may lag by
//! the single in-flight tick, but snapshot + WAL suffix reconstructs
//! every accepted tick — zero lost, zero duplicated. A `--resume`
//! reboot replays that state so the union of both sessions' verdicts
//! equals a clean offline run.
//!
//! Fixed kill points run in the default suite; the 256-case sweep over
//! arbitrary kill ticks is `#[ignore]`d and driven by `ci.sh` in release.
//!
//! The upgrade case rides along: a snapshot in the pre-format-2 nested
//! layout is refused and the unit starts fresh while the daemon serves on.

use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::pipeline::{DbCatcher, Verdict};
use dbcatcher_core::snapshot::DetectorSnapshot;
use dbcatcher_serve::{
    emit_surviving, fetch_stats, wal, CrashSwitch, DetectionServer, EmitOptions, ServeConfig,
    UnitStream,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

const DBS: usize = 3;
const KPIS: usize = 4;
const TICKS: usize = 140;

/// Smooth synthetic telemetry: correlated across databases with a mild
/// per-database phase offset, so the detector has structure to track.
fn frame(t: usize) -> Vec<Vec<f64>> {
    (0..DBS)
        .map(|db| {
            (0..KPIS)
                .map(|kpi| {
                    let phase = t as f64 * 0.13 + kpi as f64 * 1.3 + db as f64 * 0.05;
                    50.0 + 10.0 * phase.sin() + kpi as f64
                })
                .collect()
        })
        .collect()
}

fn offline_verdicts() -> Vec<(u64, Verdict)> {
    let mut catcher = DbCatcher::new(DbCatcherConfig::with_kpis(KPIS), DBS);
    let mut out = Vec::new();
    for t in 0..TICKS {
        let report = catcher.try_ingest_tick(&frame(t)).expect("clean frames");
        out.extend(report.verdicts.into_iter().map(|v| (t as u64, v)));
    }
    out
}

type Key = (u64, usize, u64, u64, usize, u32);

fn key(at_tick: u64, v: &Verdict) -> Key {
    (
        at_tick,
        v.db,
        v.start_tick,
        v.end_tick,
        v.window_size,
        v.expansions,
    )
}

fn scratch() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dbcatcher_atomicity_{}_{}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn boot(dir: &Path, crash: Option<std::sync::Arc<CrashSwitch>>) -> Vec<(u64, Verdict)> {
    let config = ServeConfig {
        max_units: 1,
        shards: 1,
        queue_cap: 8,
        snapshot_dir: Some(dir.to_path_buf()),
        snapshot_every: 1,
        resume_dir: Some(dir.to_path_buf()),
        wal_dir: Some(dir.join("wal")),
        fsync_every: 1,
        retry_after_ms: 2,
        crash,
        ..ServeConfig::default()
    };
    let server = DetectionServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let streams = vec![UnitStream {
        unit: 0,
        dbs: DBS,
        kpis: KPIS,
        participation: None,
        frames: (0..TICKS).map(frame).collect(),
    }];
    let options = EmitOptions {
        rate: 0.0,
        window: 16,
        stop_after: false,
        ..EmitOptions::default()
    };
    let report = emit_surviving(addr, streams, &options).expect("session connects");
    handle.stop();
    thread.join().expect("server thread").expect("server run");
    report
        .verdicts
        .into_iter()
        .map(|r| (r.at_tick, r.verdict))
        .collect()
}

/// Kill after `kill_tick` ingests, resume, and check both halves of the
/// contract against the persisted snapshot and the offline oracle.
fn check_kill_resume(kill_tick: u64) {
    let dir = scratch();
    let switch = CrashSwitch::armed(kill_tick);
    let survivors = boot(&dir, Some(switch.clone()));
    assert!(switch.tripped(), "kill at {kill_tick} must fire");
    let ingested = switch.ingested().get(&0).copied().unwrap_or(0);
    assert_eq!(
        ingested, kill_tick,
        "single shard ingests exactly to the trip"
    );

    // Snapshot-only bound: the tripping tick may be ingested but not yet
    // snapshotted, every earlier tick is (snapshot_every == 1).
    let snapshot_path = dir.join("unit_0.json");
    let persisted = if kill_tick <= 1 {
        assert!(
            !snapshot_path.exists(),
            "killing on the first ingest leaves no snapshot"
        );
        0
    } else {
        let json = std::fs::read_to_string(&snapshot_path).expect("snapshot file");
        let snapshot = DetectorSnapshot::from_json(&json).expect("snapshot parses");
        snapshot.validate().expect("snapshot internally consistent");
        snapshot.summary().next_tick
    };
    assert!(
        persisted + 1 == ingested || persisted == ingested,
        "kill at {kill_tick}: persisted {persisted}, ingested {ingested}"
    );

    // Zero-loss contract: the WAL records every accepted tick before it
    // reaches the detector, so snapshot + WAL suffix recovers to the
    // ingest position exactly — no tick lost, none replayed twice.
    let recovery = wal::recover_shard(&dir.join("wal").join("shard_0")).expect("wal readable");
    let recovered = recovery.recovered_position(0, persisted);
    assert_eq!(
        recovered, ingested,
        "kill at {kill_tick}: snapshot+WAL must recover exactly the ingested prefix"
    );

    // Resume and replay the remainder: the union of both sessions'
    // verdicts must equal the deterministic offline run.
    let resumed = boot(&dir, None);
    let mut online: Vec<Key> = survivors
        .iter()
        .chain(resumed.iter())
        .map(|(t, v)| key(*t, v))
        .collect();
    online.sort_unstable();
    online.dedup();
    let mut offline: Vec<Key> = offline_verdicts().iter().map(|(t, v)| key(*t, v)).collect();
    offline.sort_unstable();
    offline.dedup();
    assert_eq!(
        online, offline,
        "kill at {kill_tick}: online union must equal the offline replay"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn kill_on_first_ingest_recovers_it_from_the_wal() {
    check_kill_resume(1);
}

#[test]
fn kill_mid_stream_preserves_the_verdict_stream() {
    check_kill_resume(40);
}

#[test]
fn kill_past_the_first_verdict_window_preserves_state() {
    check_kill_resume(97);
}

/// Rewrites a format-2 snapshot into the pre-format-2 layout: no
/// `format` tag and the history as nested decimal `buffers[db][kpi]`.
fn legacy_layout(snapshot: &DetectorSnapshot) -> String {
    let json = snapshot.to_json().expect("serialize");
    let q = &snapshot.queues;
    let retained = (q.next_tick() - q.base_tick()) as usize;
    let buffers: Vec<Vec<Vec<f64>>> = (0..q.num_dbs())
        .map(|db| {
            (0..q.num_kpis())
                .map(|k| q.window(db, k, q.base_tick(), retained).expect("retained"))
                .collect()
        })
        .collect();
    let start = json.find(r#""samples":""#).expect("samples field") + 11;
    let samples = &json[start..start + json[start..].find('"').expect("closing quote")];
    let nested = format!(
        r#""buffers":{}"#,
        serde_json::to_string(&buffers).expect("buffers")
    );
    json.replace(&format!(r#""samples":"{samples}""#), &nested)
        .replacen(r#""format":2,"#, "", 1)
}

/// Upgrade behaviour: a snapshot left behind by a build that wrote the
/// nested layout is refused, recorded against the unit, and the unit
/// starts fresh; the daemon keeps serving it.
#[test]
fn legacy_layout_snapshot_starts_the_unit_fresh() {
    let dir = scratch();
    let mut old = DbCatcher::new(DbCatcherConfig::with_kpis(KPIS), DBS);
    for t in 0..40 {
        old.try_ingest_tick(&frame(t)).expect("clean frames");
    }
    let legacy = legacy_layout(&old.snapshot());
    assert!(!legacy.contains(r#""format""#) && legacy.contains(r#""buffers":[[["#));
    let planted = dir.join("unit_0.json");
    std::fs::write(&planted, legacy).expect("plant legacy snapshot");

    let config = ServeConfig {
        max_units: 1,
        shards: 1,
        resume_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let server = DetectionServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let handle = server.handle();
    let thread = std::thread::spawn(move || server.run());
    let streams = vec![UnitStream {
        unit: 0,
        dbs: DBS,
        kpis: KPIS,
        participation: None,
        frames: (0..TICKS).map(frame).collect(),
    }];
    let options = EmitOptions {
        stop_after: false,
        ..EmitOptions::default()
    };
    let report = emit_surviving(addr, streams, &options).expect("session connects");
    let stats = fetch_stats(addr).expect("daemon still answers stats");
    handle.stop();
    thread.join().expect("server thread").expect("server run");

    assert!(report.resumed.is_empty(), "resumed from a legacy snapshot");
    assert_eq!(report.ticks_accepted, TICKS as u64, "whole stream served");
    let mut online: Vec<Key> = report
        .verdicts
        .iter()
        .map(|r| key(r.at_tick, &r.verdict))
        .collect();
    online.sort_unstable();
    let mut offline: Vec<Key> = offline_verdicts().iter().map(|(t, v)| key(*t, v)).collect();
    offline.sort_unstable();
    assert_eq!(online, offline, "a fresh start detects like offline");
    let unit = stats
        .units
        .iter()
        .find(|u| u.unit == 0)
        .expect("unit 0 stats");
    let error = unit.last_error.as_deref().expect("the refusal is recorded");
    assert!(
        error.contains("unreadable snapshot")
            && error.contains(&planted.display().to_string())
            && error.contains("format none, expected 2"),
        "{error}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

proptest! {
    /// The full sweep: an arbitrary kill tick anywhere in the stream
    /// recovers every ingested tick from snapshot + WAL and never loses
    /// or duplicates a verdict across the restart.
    #[test]
    #[ignore = "256 daemon lifecycles; ci.sh runs this in release"]
    fn arbitrary_kill_tick_recovers_every_ingested_tick(kill in 1u64..(TICKS as u64)) {
        check_kill_resume(kill);
    }
}
