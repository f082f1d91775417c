//! Offline replay: the `analyze-fleet` path over verdict JSONL.
//!
//! The hierarchy WAL the serve daemon appends is one [`UnitVerdict`] per
//! line; replaying that file through [`FleetReplay`] reproduces the
//! online scope-verdict stream **byte for byte**, because the engine is
//! arrival-order-insensitive and both sides render through
//! [`render_scope_line`]. The serve daemon itself uses this module on
//! `--resume` to rebuild its scope output from the WAL prefix.

use crate::engine::{FleetEngine, HierarchyConfig, ScopeVerdict, UnitVerdict};
use dbcatcher_core::wire::write_unit_verdict;

/// Incremental offline replay of a unit-verdict stream.
#[derive(Debug)]
pub struct FleetReplay {
    config: HierarchyConfig,
    /// Constructed lazily at the first record so the KPI arity comes
    /// from the stream itself (exactly as the online feed does).
    engine: Option<FleetEngine>,
}

impl FleetReplay {
    /// Starts a replay with the given tuning.
    pub fn new(config: HierarchyConfig) -> Self {
        FleetReplay {
            config,
            engine: None,
        }
    }

    /// Feeds one record; returns whether the engine accepted it as
    /// fresh.
    pub fn observe(&mut self, record: UnitVerdict) -> bool {
        let engine = self.engine.get_or_insert_with(|| {
            FleetEngine::new(self.config.clone(), record.verdict.scores.len())
        });
        engine.observe(record)
    }

    /// Access to the underlying engine once at least one record has
    /// been observed.
    pub fn engine_mut(&mut self) -> Option<&mut FleetEngine> {
        self.engine.as_mut()
    }

    /// Flushes remaining buffered ticks and returns the full emitted
    /// stream.
    pub fn finish(mut self) -> Vec<ScopeVerdict> {
        match self.engine.as_mut() {
            Some(engine) => {
                engine.flush();
                engine.drain()
            }
            None => Vec::new(),
        }
    }
}

/// Replays a full record sequence and returns the scope stream.
pub fn replay<I>(config: HierarchyConfig, records: I) -> Vec<ScopeVerdict>
where
    I: IntoIterator<Item = UnitVerdict>,
{
    let mut run = FleetReplay::new(config);
    for record in records {
        run.observe(record);
    }
    run.finish()
}

/// Renders one unit verdict as its canonical JSONL line (the hierarchy
/// WAL format), through the same direct writer as the serve daemon's
/// `Verdict` replies; the bytes equal `serde_json::to_string(record)`.
pub fn render_unit_line(record: &UnitVerdict) -> String {
    let mut line = String::new();
    write_unit_verdict(record.unit, record.at_tick, &record.verdict, &mut line);
    line
}

/// Parses one hierarchy-WAL / `analyze-fleet` input line.
pub fn parse_unit_line(line: &str) -> Result<UnitVerdict, String> {
    serde_json::from_str(line).map_err(|e| format!("bad unit-verdict line: {e:?}"))
}

/// Renders one scope verdict as its canonical JSONL line.
pub fn render_scope_line(verdict: &ScopeVerdict) -> String {
    serde_json::to_string(verdict).unwrap_or_default()
}

/// Parses one scope-verdict line.
pub fn parse_scope_line(line: &str) -> Result<ScopeVerdict, String> {
    serde_json::from_str(line).map_err(|e| format!("bad scope-verdict line: {e:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::Topology;
    use dbcatcher_core::{DbState, Verdict};

    fn record(unit: usize, at_tick: u64, abnormal: bool) -> UnitVerdict {
        UnitVerdict {
            unit,
            at_tick,
            verdict: Verdict {
                db: 0,
                start_tick: at_tick.saturating_sub(19),
                end_tick: at_tick + 1,
                state: if abnormal {
                    DbState::Abnormal
                } else {
                    DbState::Healthy
                },
                window_size: 20,
                expansions: 0,
                scores: if abnormal {
                    vec![0.05, f64::NAN]
                } else {
                    vec![0.9, f64::NAN]
                },
            },
        }
    }

    fn config(units: usize) -> HierarchyConfig {
        HierarchyConfig::new(Topology::new(units, units, 1).unwrap())
    }

    #[test]
    fn unit_line_round_trips_nan_scores() {
        let r = record(1, 39, true);
        let line = render_unit_line(&r);
        let back = parse_unit_line(&line).unwrap();
        assert_eq!(back.unit, r.unit);
        assert_eq!(back.at_tick, r.at_tick);
        assert_eq!(back.verdict.scores[0], r.verdict.scores[0]);
        assert!(back.verdict.scores[1].is_nan());
    }

    #[test]
    fn replay_equals_incremental_observe() {
        let records: Vec<UnitVerdict> = (0..2)
            .flat_map(|unit| {
                [19u64, 39, 59]
                    .into_iter()
                    .map(move |t| record(unit, t, t == 39))
            })
            .collect();
        let whole = replay(config(2), records.clone());
        let mut run = FleetReplay::new(config(2));
        for r in records {
            run.observe(r);
        }
        let stepped = run.finish();
        assert_eq!(whole, stepped);
    }

    #[test]
    fn empty_stream_yields_empty_output() {
        assert!(replay(config(2), Vec::new()).is_empty());
        assert!(FleetReplay::new(config(2)).finish().is_empty());
    }

    #[test]
    fn scope_lines_round_trip() {
        let out = replay(
            config(2),
            (0..2).flat_map(|unit| {
                [19u64, 39, 59]
                    .into_iter()
                    .map(move |t| record(unit, t, true))
            }),
        );
        assert!(!out.is_empty());
        for sv in &out {
            let line = render_scope_line(sv);
            assert_eq!(&parse_scope_line(&line).unwrap(), sv);
        }
    }
}
