//! Workloads and their inputs.
//!
//! Every input is derived from the seed: a Tencent-mixed dataset from
//! `DatasetSpec`, collector faults from `FaultInjector` (seeded per
//! unit), and every wire line pre-encoded with `protocol::encode` before
//! any timing starts, so generator CPU stays out of the measurements.

use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::pipeline::DbCatcher;
use dbcatcher_serve::protocol::{self, Request, Response};
use dbcatcher_sim::{FaultInjector, FaultPreset};
use dbcatcher_workload::DatasetSpec;
use std::ops::Range;

/// KPIs per database (paper Table II).
pub const KPIS: usize = 14;

/// Largest flexible window W_M of the paper-default detector; warm-up
/// streams at least this many ticks per unit before anything is timed.
pub const MAX_WINDOW: usize = 60;

/// Unit start offsets are spread over this many ticks — the daemon's
/// snapshot cadence — so tumbling windows (every 20 ticks) and snapshots
/// (every 64) do not fire for every unit at once.
pub const PHASE_SPREAD: usize = 64;

/// Extra ticks per unit streamed after a crash-recovery restart, before
/// the timed phases, so the resumed process runs warm.
const REWARM_TICKS: usize = 20;

/// Sort key of a verdict, the offline emission order:
/// `(unit, at_tick, db, start_tick)`.
pub type VerdictKey = (usize, u64, usize, u64);

/// One benchmark workload: the daemon configuration and the traffic.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Workload name on the command line.
    pub name: &'static str,
    /// Units streamed (the daemon runs with `--units` equal to this).
    pub units: usize,
    /// Databases per unit.
    pub dbs: usize,
    /// Share of anomalous (database, tick) pairs in the dataset.
    pub anomaly_ratio: f64,
    /// Collector faults injected into every unit's stream.
    pub faults: FaultPreset,
    /// Open-loop send rate, ticks per second across all units.
    pub rate: f64,
    /// Closed-loop throughput the phase is sized for, ticks per second;
    /// only sets how many ticks the phase sends, never a pace.
    pub closed_rate_hint: f64,
    /// Runs the daemon with WAL, snapshots and hierarchy, and measures
    /// crash recovery as set-up.
    pub durable: bool,
    /// Ticks per unit the shipped `emit` client streams in the traced run.
    pub emit_ticks: usize,
}

/// Ticks each unit sends per closed-loop round, well below the daemon's
/// `queue_cap` (256) so a healthy daemon never applies backpressure.
pub const BATCH: usize = 32;

impl Workload {
    /// Looks a workload up by name.
    pub fn named(name: &str) -> Option<Self> {
        let steady = Workload {
            name: "steady",
            units: 64,
            dbs: 5,
            anomaly_ratio: 0.0311,
            faults: FaultPreset::None,
            rate: 10_000.0,
            closed_rate_hint: 30_000.0,
            durable: false,
            emit_ticks: 400,
        };
        match name {
            "steady" => Some(steady),
            "wide-faulted" => Some(Workload {
                name: "wide-faulted",
                units: 16,
                dbs: 16,
                anomaly_ratio: 0.10,
                faults: FaultPreset::Standard,
                rate: 4_000.0,
                closed_rate_hint: 8_000.0,
                durable: false,
                emit_ticks: 400,
            }),
            "durable" => Some(Workload {
                name: "durable",
                rate: 5_000.0,
                closed_rate_hint: 12_000.0,
                durable: true,
                ..steady
            }),
            _ => None,
        }
    }

    /// Warm-up ticks of unit `unit`: at least `MAX_WINDOW`, plus its
    /// phase offset.
    pub fn prefix(&self, unit: usize) -> usize {
        MAX_WINDOW + unit * PHASE_SPREAD / self.units
    }
}

/// Which part of a run a tick range belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Warm-up (on `durable`: the prefix streamed before the crash).
    Warm,
    /// Post-recovery warm-up (`durable` only; empty elsewhere).
    Rewarm,
    /// Slice `i` of the fixed-rate phase, timed per tick from due time.
    Open(usize),
    /// Slice `i` of the batched phase with a flush barrier per round.
    Closed(usize),
}

/// The measured time alternates between open- and closed-loop slices,
/// so each metric samples the whole run rather than one stretch of it.
pub const SLICES: usize = 4;

/// Per-unit tick counts of each phase.
#[derive(Debug, Clone)]
pub struct Plan {
    prefix: Vec<usize>,
    rewarm: usize,
    /// Ticks per unit in each open-loop slice.
    open: usize,
    /// Ticks per unit in each closed-loop slice.
    closed: usize,
}

impl Plan {
    fn new(workload: &Workload, seconds: f64) -> Self {
        let slice = seconds / 2.0 / SLICES as f64;
        let per_unit = |rate: f64| ((rate * slice) / workload.units as f64).ceil() as usize;
        Plan {
            prefix: (0..workload.units).map(|u| workload.prefix(u)).collect(),
            rewarm: if workload.durable { REWARM_TICKS } else { 0 },
            open: per_unit(workload.rate),
            closed: per_unit(workload.closed_rate_hint).div_ceil(BATCH) * BATCH,
        }
    }

    /// Every phase, in the order a run sends them.
    pub fn phases() -> Vec<Phase> {
        let mut phases = vec![Phase::Warm, Phase::Rewarm];
        for slice in 0..SLICES {
            phases.extend([Phase::Open(slice), Phase::Closed(slice)]);
        }
        phases
    }

    /// Tick range of `phase` for every unit.
    pub fn ranges(&self, phase: Phase) -> Vec<Range<usize>> {
        self.prefix
            .iter()
            .map(|&prefix| {
                let timed = prefix + self.rewarm;
                let slice = |i: usize| timed + i * (self.open + self.closed);
                match phase {
                    Phase::Warm => 0..prefix,
                    Phase::Rewarm => prefix..timed,
                    Phase::Open(i) => slice(i)..slice(i) + self.open,
                    Phase::Closed(i) => slice(i) + self.open..slice(i + 1),
                }
            })
            .collect()
    }

    /// Ticks unit `unit` streams in total.
    pub fn total(&self, unit: usize) -> usize {
        self.prefix[unit] + self.rewarm + SLICES * (self.open + self.closed)
    }

    /// Every `(unit, tick)` in the order the generator sends them:
    /// batched rounds outside the open loop, one tick per unit in turn
    /// inside it.
    pub fn send_order(&self) -> Vec<(usize, usize)> {
        let mut order = Vec::new();
        for phase in Self::phases() {
            let batch = if matches!(phase, Phase::Open(_)) {
                1
            } else {
                BATCH
            };
            for round in rounds(&self.ranges(phase), batch) {
                for (unit, ticks) in round {
                    order.extend(ticks.map(|t| (unit, t)));
                }
            }
        }
        order
    }
}

/// Splits per-unit ranges into rounds of at most `batch` ticks per unit.
pub fn rounds(ranges: &[Range<usize>], batch: usize) -> Vec<Vec<(usize, Range<usize>)>> {
    let mut pos: Vec<usize> = ranges.iter().map(|r| r.start).collect();
    let mut out = Vec::new();
    loop {
        let round: Vec<(usize, Range<usize>)> = ranges
            .iter()
            .enumerate()
            .filter_map(|(unit, range)| {
                let start = pos[unit];
                let end = (start + batch).min(range.end);
                (start < end).then(|| {
                    pos[unit] = end;
                    (unit, start..end)
                })
            })
            .collect();
        if round.is_empty() {
            return out;
        }
        out.push(round);
    }
}

/// One unit's pre-encoded stream.
#[derive(Debug)]
pub struct UnitInput {
    /// Table II participation mask sent with `Hello` (`mask[kpi][db]`).
    pub participation: Vec<Vec<bool>>,
    /// Byte range of each tick's wire line (newline included) in
    /// [`Inputs::wire`].
    pub lines: Vec<Range<usize>>,
    /// The unit's `Hello` line.
    pub hello: String,
    /// The unit's `Flush` line.
    pub flush: String,
}

/// Everything a run sends, generated from the seed.
#[derive(Debug)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Tick counts per phase.
    pub plan: Plan,
    /// All tick lines, back to back.
    pub wire: Vec<u8>,
    /// Per-unit streams.
    pub units: Vec<UnitInput>,
}

impl Inputs {
    /// Generates and pre-encodes every unit's stream for a run of
    /// `seconds` measured seconds.
    pub fn build(workload: &Workload, seed: u64, seconds: f64) -> Self {
        let plan = Plan::new(workload, seconds);
        let fault_seed = seed.wrapping_mul(0xD1B5_4A32_D192_ED03);

        let mut wire = Vec::new();
        let mut units = Vec::with_capacity(workload.units);
        for unit in 0..workload.units {
            // One single-unit dataset per unit keeps only one unit's
            // series in memory at a time.
            let total = plan.total(unit);
            let unit_seed =
                seed.wrapping_add((unit as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
            let mut spec = DatasetSpec::paper_tencent(unit_seed);
            spec.num_units = 1;
            spec.ticks = total;
            spec.databases_per_unit = workload.dbs;
            spec.anomalies.target_ratio = workload.anomaly_ratio;
            let dataset = spec.build();
            let data = &dataset.units[0];
            let mut injector = (workload.faults != FaultPreset::None).then(|| {
                FaultInjector::with_preset(
                    workload.faults,
                    workload.dbs,
                    total as u64,
                    fault_seed.wrapping_add(unit as u64),
                )
            });
            let mut lines = Vec::with_capacity(total);
            for tick in 0..total {
                let mut frame = data.tick_matrix(tick);
                if let Some(injector) = injector.as_mut() {
                    injector.apply(tick as u64, &mut frame);
                }
                let start = wire.len();
                let line = protocol::encode(&Request::Tick {
                    unit,
                    tick: tick as u64,
                    frame,
                });
                wire.extend_from_slice(line.as_bytes());
                wire.push(b'\n');
                lines.push(start..wire.len());
            }
            let hello = protocol::encode(&Request::Hello {
                unit,
                dbs: workload.dbs,
                kpis: KPIS,
                participation: Some(data.participation.clone()),
            });
            units.push(UnitInput {
                participation: data.participation.clone(),
                lines,
                hello: hello + "\n",
                flush: protocol::encode(&Request::Flush { unit }) + "\n",
            });
        }
        Inputs {
            workload: workload.clone(),
            plan,
            wire,
            units,
        }
    }

    /// The wire line (newline included) of `unit`'s tick `tick`.
    pub fn line(&self, unit: usize, tick: usize) -> &[u8] {
        &self.wire[self.units[unit].lines[tick].clone()]
    }

    /// The line as text, for the decoder.
    pub fn line_str(&self, unit: usize, tick: usize) -> &str {
        std::str::from_utf8(self.line(unit, tick)).expect("encoded lines are UTF-8")
    }

    /// The frame exactly as the daemon sees it: the line decoded by the
    /// wire protocol (non-finite samples arrive as NaN).
    pub fn frame(&self, unit: usize, tick: usize) -> Vec<Vec<f64>> {
        match protocol::decode_request(self.line_str(unit, tick)) {
            Ok(Request::Tick { frame, .. }) => frame,
            other => panic!("pre-encoded tick line does not decode: {other:?}"),
        }
    }

    /// A detector configured as the daemon configures every unit.
    pub fn detector(&self, unit: usize) -> DbCatcher {
        DbCatcher::new(DbCatcherConfig::with_kpis(KPIS), self.workload.dbs)
            .with_participation(self.units[unit].participation.clone())
    }

    /// Offline replay: every verdict an in-process detector emits over
    /// the first `sent[unit]` ticks of each unit, rendered as the wire
    /// line the daemon sends and sorted by [`VerdictKey`].
    pub fn offline_verdicts(&self, sent: &[usize]) -> Vec<(VerdictKey, String)> {
        let mut out = Vec::new();
        for (unit, &count) in sent.iter().enumerate() {
            let mut detector = self.detector(unit);
            for tick in 0..count {
                let report = detector
                    .try_ingest_tick(&self.frame(unit, tick))
                    .expect("generated frames have the unit's shape");
                for verdict in report.verdicts {
                    let key = (unit, tick as u64, verdict.db, verdict.start_tick);
                    let line = protocol::encode(&Response::Verdict {
                        unit,
                        at_tick: tick as u64,
                        verdict,
                    });
                    out.push((key, line));
                }
            }
        }
        out.sort();
        out
    }
}

/// Compares an online verdict stream with the offline replay. Online
/// verdicts are sorted and deduplicated by key (a crash-recovery restart
/// re-delivers replayed verdicts); a key seen with two different lines
/// is a mismatch. Returns the `(unit, at_tick)` groups that differ.
pub fn verdict_mismatches(
    mut online: Vec<(VerdictKey, String)>,
    offline: &[(VerdictKey, String)],
) -> Vec<(usize, u64)> {
    online.sort();
    online.dedup();
    let mut bad = std::collections::BTreeSet::new();
    for pair in online.windows(2) {
        if pair[0].0 == pair[1].0 {
            bad.insert((pair[0].0 .0, pair[0].0 .1));
        }
    }
    online.dedup_by(|a, b| a.0 == b.0);
    fn group(v: &[(VerdictKey, String)]) -> std::collections::BTreeMap<(usize, u64), Vec<&str>> {
        let mut map: std::collections::BTreeMap<(usize, u64), Vec<&str>> = Default::default();
        for ((unit, at_tick, _, _), line) in v {
            map.entry((*unit, *at_tick)).or_default().push(line);
        }
        map
    }
    let on = group(&online);
    let off = group(offline);
    for key in on.keys().chain(off.keys()) {
        if on.get(key) != off.get(key) {
            bad.insert(*key);
        }
    }
    bad.into_iter().collect()
}
