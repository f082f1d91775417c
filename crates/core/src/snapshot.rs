//! Detector state snapshot / restore.
//!
//! A monitoring sidecar restarts, fails over, or migrates between hosts;
//! the detector must resume exactly where it left off — including the
//! ring-buffer history that pending (possibly expanded) windows will read,
//! the window trackers, and the learned thresholds. [`DetectorSnapshot`]
//! captures all of it as one JSON document.
//!
//! The document is **format 2**: a leading `"format": 2` tag, readable
//! JSON for the configuration, trackers, health ledger and counters, and
//! the [`KpiQueues`] history as one flat `samples` string of raw `f64`
//! bits (16 lowercase hex digits per sample), which restores bit-exactly
//! and encodes without decimal float formatting. Any other format,
//! including the nested-layout files written before the tag existed, is
//! rejected by [`DetectorSnapshot::from_json`] with an error naming the
//! found and expected formats; there is no migration path. A daemon that
//! meets such a file records it and starts the unit fresh, replaying the
//! unit's WAL when one is configured.

use crate::config::DbCatcherConfig;
use crate::ingest::TelemetryHealth;
use crate::pipeline::DbCatcher;
use crate::queues::KpiQueues;
use crate::window::WindowTracker;
use serde::{DeError, Deserialize, Serialize, Value};

/// The snapshot layout version this build writes and accepts.
pub const SNAPSHOT_FORMAT: u64 = 2;

/// The `format` tag of a snapshot document: always [`SNAPSHOT_FORMAT`].
///
/// Deserialising any other value, or a document with no `format` field
/// at all, fails with an error naming the found and expected formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotFormat;

impl Serialize for SnapshotFormat {
    fn to_value(&self) -> Value {
        SNAPSHOT_FORMAT.to_value()
    }
}

impl Deserialize for SnapshotFormat {
    fn from_value(value: &Value) -> Result<Self, DeError> {
        if u64::from_value(value) == Ok(SNAPSHOT_FORMAT) {
            return Ok(SnapshotFormat);
        }
        // The derive hands a missing field over as `null`.
        let found = match value {
            Value::Null => "none".to_string(),
            other => other.to_string(),
        };
        Err(DeError::new(format!(
            "unsupported snapshot format {found}, expected {SNAPSHOT_FORMAT}"
        )))
    }
}

/// The complete persistent state of a [`DbCatcher`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetectorSnapshot {
    /// Layout version tag. Declared first, so a file in another format is
    /// rejected on its version before any other field is read.
    pub format: SnapshotFormat,
    /// Configuration, including learned thresholds.
    pub config: DbCatcherConfig,
    /// Number of databases monitored.
    pub num_dbs: usize,
    /// The data-processing queues (bounded KPI history).
    pub queues: KpiQueues,
    /// Per-database flexible-window trackers.
    pub trackers: Vec<WindowTracker>,
    /// Telemetry health ledger, including non-voting demotion state.
    pub health: TelemetryHealth,
    /// Verdict-count / window-size accumulators for the efficiency metric.
    pub window_size_sum: u64,
    /// Total verdicts emitted so far.
    pub verdict_count: u64,
}

/// A cheap, human-readable digest of a snapshot file — what an operator
/// (or a chaos harness) needs to know about persisted resume state
/// without rebuilding the detector: where the stream picks back up, how
/// much it has seen, and which databases are currently demoted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotSummary {
    /// Databases monitored.
    pub num_dbs: usize,
    /// KPIs per database.
    pub num_kpis: usize,
    /// Next absolute tick the restored detector will accept.
    pub next_tick: u64,
    /// Verdicts emitted before the snapshot was taken.
    pub verdict_count: u64,
    /// Databases demoted to non-voting by telemetry health.
    pub non_voting: Vec<usize>,
}

impl DetectorSnapshot {
    /// Next absolute tick a detector restored from this snapshot accepts.
    pub fn next_tick(&self) -> u64 {
        self.queues.next_tick()
    }

    /// Builds the introspection digest.
    pub fn summary(&self) -> SnapshotSummary {
        SnapshotSummary {
            num_dbs: self.num_dbs,
            num_kpis: self.config.num_kpis,
            next_tick: self.next_tick(),
            verdict_count: self.verdict_count,
            non_voting: self.health.non_voting(),
        }
    }

    /// Checks the internal consistency [`DbCatcher::restore`] would
    /// otherwise assert on, as a recoverable error: a caller holding an
    /// untrusted snapshot file (a warm-restarting daemon, the chaos
    /// harness inspecting state between boots) can reject it instead of
    /// panicking.
    ///
    /// # Errors
    /// Describes the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        if self.trackers.len() != self.num_dbs {
            return Err(format!(
                "{} window trackers for {} databases",
                self.trackers.len(),
                self.num_dbs
            ));
        }
        if self.queues.num_kpis() != self.config.num_kpis {
            return Err(format!(
                "queues carry {} KPIs but the configuration declares {}",
                self.queues.num_kpis(),
                self.config.num_kpis
            ));
        }
        self.config
            .validate()
            .map_err(|e| format!("invalid configuration: {e}"))
    }

    /// Serialises to JSON.
    ///
    /// # Errors
    /// Propagates `serde_json` errors (effectively unreachable for this
    /// data model).
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string(self)
    }

    /// Restores a snapshot from JSON.
    ///
    /// # Errors
    /// Returns the underlying parse error for malformed input, and an
    /// error naming the found and expected formats for a document that
    /// is not [`SNAPSHOT_FORMAT`].
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

impl DbCatcher {
    /// Captures the detector's full persistent state.
    pub fn snapshot(&self) -> DetectorSnapshot {
        DetectorSnapshot {
            format: SnapshotFormat,
            config: self.config().clone(),
            num_dbs: self.num_databases(),
            queues: self.queues_ref().clone(),
            trackers: self.trackers_ref().to_vec(),
            health: self.health().clone(),
            window_size_sum: self.window_size_sum_raw(),
            verdict_count: self.verdict_count(),
        }
    }

    /// Rebuilds a detector from a snapshot; subsequent `ingest_tick` calls
    /// continue bit-identically to the original instance.
    ///
    /// # Panics
    /// Panics when the snapshot is internally inconsistent (tracker count
    /// mismatching the database count, invalid configuration).
    pub fn restore(snapshot: DetectorSnapshot) -> DbCatcher {
        // dbclint: allow(panic-free) — documented panicking wrapper; try_restore is the fallible form used by the daemon.
        Self::try_restore(snapshot).expect("snapshot is internally consistent")
    }

    /// Non-panicking [`Self::restore`]: validates the snapshot first and
    /// returns the [`DetectorSnapshot::validate`] diagnostic instead of
    /// asserting, so long-running services (the serve daemon's warm
    /// restart and WAL replay) can degrade a unit on a bad snapshot
    /// rather than abort a worker thread.
    ///
    /// # Errors
    /// Returns the validation diagnostic for an inconsistent snapshot.
    pub fn try_restore(snapshot: DetectorSnapshot) -> Result<DbCatcher, String> {
        snapshot.validate()?;
        Ok(DbCatcher::from_parts(
            snapshot.config,
            snapshot.num_dbs,
            snapshot.queues,
            snapshot.trackers,
            snapshot.health,
            snapshot.window_size_sum,
            snapshot.verdict_count,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DelayScan;

    fn frames(ticks: usize, dbs: usize, kpis: usize) -> Vec<Vec<Vec<f64>>> {
        (0..ticks)
            .map(|t| {
                (0..dbs)
                    .map(|db| {
                        (0..kpis)
                            .map(|k| {
                                let tf = t as f64;
                                100.0 * (1.0 + 0.1 * db as f64)
                                    + 30.0 * (std::f64::consts::TAU * (tf + k as f64) / 30.0).sin()
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect()
    }

    fn config(kpis: usize) -> DbCatcherConfig {
        DbCatcherConfig {
            initial_window: 10,
            max_window: 30,
            delay_scan: DelayScan::Fixed(3),
            ..DbCatcherConfig::with_kpis(kpis)
        }
    }

    /// The crucial contract: detect(A ++ B) == detect(A), snapshot,
    /// restore, detect(B).
    #[test]
    fn restore_continues_bit_identically() {
        let all = frames(75, 3, 4);
        // reference: uninterrupted run
        let mut reference = DbCatcher::new(config(4), 3);
        let mut ref_verdicts = Vec::new();
        for f in &all {
            ref_verdicts.extend(reference.ingest_tick(f));
        }
        // interrupted run: snapshot mid-window (tick 35 is inside a window)
        let mut first = DbCatcher::new(config(4), 3);
        let mut verdicts = Vec::new();
        for f in &all[..35] {
            verdicts.extend(first.ingest_tick(f));
        }
        let json = first.snapshot().to_json().unwrap();
        let snapshot = DetectorSnapshot::from_json(&json).unwrap();
        let mut second = DbCatcher::restore(snapshot);
        for f in &all[35..] {
            verdicts.extend(second.ingest_tick(f));
        }
        assert_eq!(ref_verdicts.len(), verdicts.len());
        for (a, b) in ref_verdicts.iter().zip(&verdicts) {
            assert_eq!(a, b);
        }
        assert_eq!(
            reference.average_window_size(),
            second.average_window_size()
        );
    }

    #[test]
    fn snapshot_preserves_learned_thresholds() {
        let mut catcher = DbCatcher::new(config(2), 3);
        catcher.set_genes(&crate::ga::Genes {
            alphas: vec![0.63, 0.77],
            theta: 0.14,
            max_tolerance: 1,
        });
        let restored = DbCatcher::restore(catcher.snapshot());
        assert_eq!(restored.config().alphas, vec![0.63, 0.77]);
        assert_eq!(restored.config().theta, 0.14);
        assert_eq!(restored.config().max_tolerance, 1);
    }

    #[test]
    fn malformed_json_rejected() {
        assert!(DetectorSnapshot::from_json("{not json").is_err());
    }

    #[test]
    fn summary_reports_resume_point_and_health() {
        let all = frames(40, 3, 4);
        let mut catcher = DbCatcher::new(config(4), 3);
        for f in &all {
            let _ = catcher.ingest_tick(f);
        }
        let snap = catcher.snapshot();
        let summary = snap.summary();
        assert_eq!(summary.num_dbs, 3);
        assert_eq!(summary.num_kpis, 4);
        assert_eq!(summary.next_tick, 40);
        assert_eq!(summary.next_tick, snap.next_tick());
        assert_eq!(summary.verdict_count, snap.verdict_count);
        assert!(summary.non_voting.is_empty());
        // The digest itself round-trips through serde.
        let json = serde_json::to_string(&summary).unwrap();
        let back: SnapshotSummary = serde_json::from_str(&json).unwrap();
        assert_eq!(summary, back);
    }

    #[test]
    fn validate_catches_what_restore_asserts() {
        let catcher = DbCatcher::new(config(2), 3);
        let good = catcher.snapshot();
        assert!(good.validate().is_ok());
        let mut bad = good.clone();
        bad.trackers.pop();
        let err = bad.validate().unwrap_err();
        assert!(err.contains("window trackers"), "{err}");
        let mut bad = good;
        bad.config.num_kpis = 7;
        assert!(bad.validate().is_err());
    }

    /// A real paper-shape snapshot (5 databases, 14 KPIs) a few ticks in,
    /// plus its `samples` string.
    fn five_db_snapshot(ticks: usize) -> (DetectorSnapshot, String) {
        let mut catcher = DbCatcher::new(DbCatcherConfig::with_kpis(14), 5);
        for f in &frames(ticks, 5, 14) {
            let _ = catcher.ingest_tick(f);
        }
        let snapshot = catcher.snapshot();
        let json = snapshot.to_json().expect("serialize");
        (snapshot, json)
    }

    /// The hex payload of a format-2 document.
    fn samples_of(json: &str) -> &str {
        let start = json.find(r#""samples":""#).expect("samples field") + 11;
        let len = json[start..].find('"').expect("closing quote");
        &json[start..start + len]
    }

    /// The same document in the pre-format-2 layout: no `format` tag and
    /// the history as nested decimal `buffers[db][kpi]`.
    fn legacy_layout(snapshot: &DetectorSnapshot, json: &str) -> String {
        let q = &snapshot.queues;
        let retained = (q.next_tick() - q.base_tick()) as usize;
        let buffers: Vec<Vec<Vec<f64>>> = (0..q.num_dbs())
            .map(|db| {
                (0..q.num_kpis())
                    .map(|k| q.window(db, k, q.base_tick(), retained).expect("retained"))
                    .collect()
            })
            .collect();
        let nested = format!(r#""buffers":{}"#, serde_json::to_string(&buffers).unwrap());
        json.replace(&format!(r#""samples":"{}""#, samples_of(json)), &nested)
            .replacen(r#""format":2,"#, "", 1)
    }

    #[test]
    fn format_tag_leads_and_other_formats_are_rejected_by_name() {
        let (_, json) = five_db_snapshot(6);
        assert!(json.starts_with(r#"{"format":2,"config":"#));
        let cases = [
            (r#""format":1,"#, "format 1, expected 2"),
            (r#""format":3,"#, "format 3, expected 2"),
            (r#""format":"2","#, r#"format "2", expected 2"#),
            (r#""format":2.0,"#, "format 2.0, expected 2"),
            ("", "format none, expected 2"),
        ];
        for (tag, needle) in cases {
            let doc = json.replacen(r#""format":2,"#, tag, 1);
            let err = DetectorSnapshot::from_json(&doc).unwrap_err().to_string();
            assert!(err.contains(needle), "{err}");
        }
    }

    #[test]
    fn legacy_nested_layout_is_rejected_not_migrated() {
        let (snapshot, json) = five_db_snapshot(6);
        let legacy = legacy_layout(&snapshot, &json);
        assert!(legacy.contains(r#""buffers":[[["#), "{legacy}");
        let err = DetectorSnapshot::from_json(&legacy)
            .unwrap_err()
            .to_string();
        assert!(err.contains("format none, expected 2"), "{err}");
        // Even carrying the current tag, the nested history is not read.
        let tagged = format!(r#"{{"format":2,{}"#, &legacy[1..]);
        let err = DetectorSnapshot::from_json(&tagged)
            .unwrap_err()
            .to_string();
        assert!(err.contains("missing field `samples`"), "{err}");
    }

    #[test]
    fn hostile_samples_are_errors_not_panics() {
        let (_, json) = five_db_snapshot(6);
        let samples = samples_of(&json);
        assert_eq!(samples.len(), 5 * 14 * 6 * 16);
        let with = |replacement: &str| json.replace(samples, replacement);
        let hostile = [
            with(&samples[1..]),                                          // odd length
            with(&samples[16..]),                                         // one sample short
            with(&format!("{samples}0000000000000000")),                  // one sample long
            with(&samples.to_ascii_uppercase()),                          // uppercase digits
            with(&format!("+{}", &samples[1..])),                         // `+` sign
            with(&format!("{}g", &samples[..samples.len() - 1])),         // non-hex
            with(&format!("\u{e9}{}", &samples[2..])), // multibyte, same byte count
            with(""),                                  // empty
            json.replace(&format!(r#","samples":"{samples}""#), ""), // missing field
            json.replace(&format!("\"{samples}\""), r#"{"samples":[]}"#), // an object
        ];
        for doc in &hostile {
            assert_ne!(doc, &json, "fixture must actually change");
            assert!(DetectorSnapshot::from_json(doc).is_err());
        }
    }

    #[test]
    fn every_truncation_of_a_real_snapshot_is_an_error() {
        let (_, json) = five_db_snapshot(6);
        assert!(json.is_ascii(), "byte prefixes must be valid &str");
        assert!(DetectorSnapshot::from_json(&json).is_ok());
        for end in 0..json.len() {
            assert!(
                DetectorSnapshot::from_json(&json[..end]).is_err(),
                "accepted a {end}-byte prefix of a {}-byte snapshot",
                json.len()
            );
        }
    }

    #[test]
    #[should_panic(expected = "window trackers")]
    fn inconsistent_snapshot_panics() {
        let catcher = DbCatcher::new(config(2), 3);
        let mut snap = catcher.snapshot();
        snap.trackers.pop();
        let _ = DbCatcher::restore(snap);
    }
}
