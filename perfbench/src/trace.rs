//! The traced run: the workload's exact frames replayed in-process, in
//! send order, through the calls the daemon makes per tick, with a span
//! around each call. Nothing inside the program is instrumented; spans
//! wrap the public entry points from the outside.
//!
//! Per tick: `protocol::decode_request`, `WalWriter::append`,
//! `DbCatcher::try_ingest_tick_with`, `protocol::encode` of the ack and
//! of each verdict, `render_unit_line` plus `FleetEngine::observe`, and
//! at the snapshot cadence `snapshot().to_json()` followed by
//! `DetectorSnapshot::from_json` + `try_restore`. At the end,
//! `wal::recover_shard`. Standalone `TelemetryHealth` and
//! `IncrementalCorrelator` instances fed the same frames time the ingest
//! and lag-scan push components.
//!
//! The durability layers (WAL, snapshots, hierarchy) are timed on every
//! workload at the daemon's defaults, so each layer's cost is known for
//! each traffic shape; only layers the workload's daemon runs enter
//! `trace.layer_sum_us_per_tick`.

use crate::alloc::allocations;
use crate::inputs::{Inputs, VerdictKey, KPIS};
use crate::stats::percentile;
use dbcatcher_core::config::DbCatcherConfig;
use dbcatcher_core::ingest::TelemetryHealth;
use dbcatcher_core::kcd_incremental::IncrementalCorrelator;
use dbcatcher_core::pipeline::DbCatcher;
use dbcatcher_core::scratch::TickScratch;
use dbcatcher_core::snapshot::DetectorSnapshot;
use dbcatcher_hierarchy::{render_unit_line, FleetReplay, HierarchyConfig, Topology, UnitVerdict};
use dbcatcher_serve::protocol::{self, Request, Response};
use dbcatcher_serve::wal::{self, ShardRecovery, WalWriter};
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Shards of the daemon; each owns a WAL directory and a scratch arena.
const SHARDS: usize = 2;
/// The daemon's default WAL fsync cadence (`--fsync-every`).
const FSYNC_EVERY: u64 = 8;
/// The daemon's default snapshot cadence (`--snapshot-every`).
const SNAPSHOT_EVERY: u64 = 64;
/// Hierarchy topology defaults of the daemon.
const UNITS_PER_CLUSTER: usize = 4;
const CLUSTERS_PER_REGION: usize = 4;

/// Span names. The first group are the daemon's layers; the rest are
/// standalone component timings and the per-tick root.
const DECODE: &str = "protocol.decode";
const WAL_APPEND: &str = "wal.append";
const INGEST: &str = "pipeline.ingest";
const ENCODE_ACK: &str = "protocol.encode_ack";
const ENCODE_VERDICT: &str = "protocol.encode_verdict";
const HIER_LINE: &str = "hierarchy.line";
const HIER_OBSERVE: &str = "hierarchy.observe";
const SNAP_ENCODE: &str = "snapshot.encode";
const SNAP_RESTORE: &str = "snapshot.restore";
const HEALTH_OBSERVE: &str = "ingest.observe";
const KCD_PUSH: &str = "kcd.push";
const TICK: &str = "tick";

/// One recorded call.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    unit: u32,
    tick: u32,
    start: u64,
    end: u64,
}

/// Records spans when on; runs the call bare when off.
struct Tracer {
    epoch: Instant,
    on: bool,
    spans: Vec<Span>,
}

impl Tracer {
    fn span<R>(
        &mut self,
        name: &'static str,
        unit: usize,
        tick: usize,
        f: impl FnOnce() -> R,
    ) -> R {
        if !self.on {
            return f();
        }
        let start = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            unit: unit as u32,
            tick: tick as u32,
            start,
            end,
        });
        out
    }

    fn last_ns(&self) -> u64 {
        self.spans.last().map_or(0, |s| s.end - s.start)
    }
}

/// Counts one pass gathers alongside its spans.
#[derive(Debug, Default)]
struct Counts {
    ticks: u64,
    decode_allocs: u64,
    ingest_allocs: u64,
    judging_ticks: u64,
    judge_ns: u64,
    correlation_ns: u64,
    observation_ns: u64,
    verdicts: u64,
    window_ticks: u64,
    tick_bytes: u64,
    verdict_bytes: u64,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    repaired: u64,
    scope_verdicts: u64,
    recover_ns: u64,
    online: Vec<(VerdictKey, String)>,
}

/// What the traced run measured.
#[derive(Debug)]
pub struct TraceResult {
    /// Per-layer metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Daemon-path layer self time per tick, µs.
    pub layer_sum_us: f64,
    /// Verdicts the replay produced, for the correctness gate.
    pub verdicts: Vec<(VerdictKey, String)>,
}

/// Runs the untraced and then the traced replay, writes the spans to
/// `span_file`, and aggregates self time into per-layer metrics.
pub fn run(inputs: &Inputs, work: &Path, span_file: &Path) -> Result<TraceResult, String> {
    let order = inputs.plan.send_order();
    let mut tracer = Tracer {
        epoch: Instant::now(),
        on: false,
        spans: Vec::new(),
    };
    let started = Instant::now();
    replay(inputs, &order, &work.join("untraced"), &mut tracer)?;
    let untraced_ns = started.elapsed().as_nanos() as f64;

    tracer.on = true;
    tracer.spans.reserve(order.len() * 8);
    let started = Instant::now();
    let counts = replay(inputs, &order, &work.join("traced"), &mut tracer)?;
    let traced_ns = started.elapsed().as_nanos() as f64;

    write_spans(&tracer.spans, span_file)?;

    // Self time per layer: leaves are their duration; a tick root is its
    // duration minus its children.
    let mut total: BTreeMap<&str, u64> = BTreeMap::new();
    let mut wal_ns: Vec<f64> = Vec::new();
    let mut children = 0u64;
    for span in &tracer.spans {
        let d = span.end - span.start;
        if span.name == TICK {
            *total.entry(TICK).or_default() += d.saturating_sub(children);
            children = 0;
        } else {
            *total.entry(span.name).or_default() += d;
            children += d;
            if span.name == WAL_APPEND {
                wal_ns.push(d as f64);
            }
        }
    }
    let c = &counts;
    let t = c.ticks.max(1) as f64;
    let v = c.verdicts.max(1) as f64;
    let us = |name: &str| total.get(name).copied().unwrap_or(0) as f64 / 1e3;
    let snaps = c.snapshots.max(1) as f64;

    let durable = inputs.workload.durable;
    let mut daemon_layers = vec![DECODE, INGEST, ENCODE_ACK, ENCODE_VERDICT];
    if durable {
        daemon_layers.extend([WAL_APPEND, HIER_LINE, HIER_OBSERVE, SNAP_ENCODE]);
    }
    let layer_sum_us = daemon_layers.iter().map(|n| us(n)).sum::<f64>() / t;

    let metrics = vec![
        ("protocol.decode_tick_us", us(DECODE) / t, "us"),
        (
            "protocol.decode_allocs_per_tick",
            c.decode_allocs as f64 / t,
            "count",
        ),
        ("protocol.encode_ack_us", us(ENCODE_ACK) / t, "us"),
        ("protocol.encode_verdict_us", us(ENCODE_VERDICT) / v, "us"),
        ("protocol.tick_bytes", c.tick_bytes as f64 / t, "B"),
        ("protocol.verdict_bytes", c.verdict_bytes as f64 / v, "B"),
        ("pipeline.ingest_us_per_tick", us(INGEST) / t, "us"),
        (
            "pipeline.judge_us_per_judging_tick",
            c.judge_ns as f64 / 1e3 / c.judging_ticks.max(1) as f64,
            "us",
        ),
        (
            "pipeline.correlation_us_per_tick",
            c.correlation_ns as f64 / 1e3 / t,
            "us",
        ),
        (
            "pipeline.observation_us_per_tick",
            c.observation_ns as f64 / 1e3 / t,
            "us",
        ),
        (
            "pipeline.allocs_per_tick",
            c.ingest_allocs as f64 / t,
            "count",
        ),
        (
            "pipeline.judging_tick_frac",
            c.judging_ticks as f64 / t,
            "ratio",
        ),
        (
            "pipeline.verdicts_per_ktick",
            c.verdicts as f64 * 1e3 / t,
            "count",
        ),
        (
            "pipeline.mean_window_ticks",
            c.window_ticks as f64 / v,
            "ticks",
        ),
        ("kcd.push_us_per_tick", us(KCD_PUSH) / t, "us"),
        ("ingest.observe_us_per_tick", us(HEALTH_OBSERVE) / t, "us"),
        (
            "ingest.repaired_per_ktick",
            c.repaired as f64 * 1e3 / t,
            "count",
        ),
        ("wal.append_us_per_tick", us(WAL_APPEND) / t, "us"),
        ("wal.append_p99_us", percentile(&wal_ns, 0.99) / 1e3, "us"),
        ("wal.bytes_per_tick", c.wal_bytes as f64 / t, "B"),
        ("wal.recover_ms", c.recover_ns as f64 / 1e6, "ms"),
        ("snapshot.encode_ms", us(SNAP_ENCODE) / 1e3 / snaps, "ms"),
        (
            "snapshot.kb",
            c.snapshot_bytes as f64 / 1024.0 / snaps,
            "KiB",
        ),
        ("snapshot.restore_ms", us(SNAP_RESTORE) / 1e3 / snaps, "ms"),
        (
            "hierarchy.observe_us_per_verdict",
            us(HIER_OBSERVE) / v,
            "us",
        ),
        ("hierarchy.line_us_per_verdict", us(HIER_LINE) / v, "us"),
        ("hierarchy.scope_verdicts", c.scope_verdicts as f64, "count"),
        ("trace.layer_sum_us_per_tick", layer_sum_us, "us"),
        (
            "trace.overhead_frac",
            (traced_ns - untraced_ns) / untraced_ns,
            "ratio",
        ),
    ];
    Ok(TraceResult {
        metrics,
        layer_sum_us,
        verdicts: counts.online,
    })
}

/// One pass over every tick in send order. Fresh detector, WAL and
/// hierarchy state each pass.
fn replay(
    inputs: &Inputs,
    order: &[(usize, usize)],
    dir: &Path,
    tracer: &mut Tracer,
) -> Result<Counts, String> {
    let w = &inputs.workload;
    let _ = std::fs::remove_dir_all(dir);
    let shard_dirs: Vec<_> = (0..SHARDS)
        .map(|s| dir.join(format!("shard_{s}")))
        .collect();
    let mut wals = shard_dirs
        .iter()
        .map(|d| WalWriter::open(d, FSYNC_EVERY, &ShardRecovery::default()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("open trace WAL: {e}"))?;
    let mut scratch: Vec<TickScratch> = (0..SHARDS).map(|_| TickScratch::new()).collect();
    let mut detectors: Vec<DbCatcher> = (0..w.units).map(|u| inputs.detector(u)).collect();
    let topology = Topology::new(w.units, UNITS_PER_CLUSTER, CLUSTERS_PER_REGION)
        .map_err(|e| format!("topology: {e:?}"))?;
    let mut fleet = FleetReplay::new(HierarchyConfig::new(topology));
    let config = DbCatcherConfig::with_kpis(KPIS);
    let retention = config.max_window * 2 + config.initial_window;
    let mut health: Vec<TelemetryHealth> = (0..w.units)
        .map(|_| TelemetryHealth::new(w.dbs, KPIS))
        .collect();
    let mut kcd: Vec<IncrementalCorrelator> = (0..w.units)
        .map(|_| IncrementalCorrelator::new(w.dbs, KPIS, retention))
        .collect();
    let mut sanitized: Vec<Vec<f64>> = Vec::new();
    let mut c = Counts::default();

    for &(unit, tick) in order {
        let shard = unit % SHARDS;
        let root_start = tracer.epoch.elapsed().as_nanos() as u64;
        let line = inputs.line_str(unit, tick);
        c.tick_bytes += line.len() as u64;

        let before = allocations();
        let request = tracer.span(DECODE, unit, tick, || protocol::decode_request(line));
        c.decode_allocs += allocations() - before;
        let frame = match request {
            Ok(Request::Tick { frame, .. }) => frame,
            other => {
                return Err(format!(
                    "unit {unit} tick {tick} does not decode: {other:?}"
                ))
            }
        };

        let wal = &mut wals[shard];
        tracer
            .span(WAL_APPEND, unit, tick, || {
                wal.append(unit, tick as u64, &frame)
            })
            .map_err(|e| format!("trace WAL append: {e}"))?;
        c.wal_bytes += wal::encode_record(unit, tick as u64, &frame).len() as u64;

        let detector = &mut detectors[unit];
        let timing = detector.timing();
        let arena = &mut scratch[shard];
        let before = allocations();
        let report = tracer
            .span(INGEST, unit, tick, || {
                detector.try_ingest_tick_with(&frame, arena)
            })
            .map_err(|e| format!("unit {unit} tick {tick} rejected: {e}"))?;
        c.ingest_allocs += allocations() - before;
        let after = detector.timing();
        let correlation = (after.correlation - timing.correlation).as_nanos() as u64;
        let observation = (after.observation - timing.observation).as_nanos() as u64;
        c.correlation_ns += correlation;
        c.observation_ns += observation;
        if correlation + observation > 0 {
            c.judging_ticks += 1;
            c.judge_ns += tracer.last_ns();
        }
        c.ticks += 1;

        let ack = tracer.span(ENCODE_ACK, unit, tick, || {
            protocol::encode(&Response::Accepted {
                unit,
                tick: tick as u64,
            })
        });
        std::hint::black_box(ack);

        for verdict in report.verdicts {
            c.verdicts += 1;
            c.window_ticks += verdict.window_size as u64;
            let key = (unit, tick as u64, verdict.db, verdict.start_tick);
            let response = Response::Verdict {
                unit,
                at_tick: tick as u64,
                verdict,
            };
            let encoded = tracer.span(ENCODE_VERDICT, unit, tick, || protocol::encode(&response));
            c.verdict_bytes += encoded.len() as u64;
            c.online.push((key, encoded));
            let Response::Verdict { verdict, .. } = response else {
                unreachable!("built above")
            };
            let record = UnitVerdict {
                unit,
                at_tick: tick as u64,
                verdict,
            };
            let rendered = tracer.span(HIER_LINE, unit, tick, || render_unit_line(&record));
            std::hint::black_box(rendered);
            c.scope_verdicts += tracer.span(HIER_OBSERVE, unit, tick, || {
                fleet.observe(record);
                fleet.engine_mut().map_or(0, |e| e.drain().len()) as u64
            });
        }

        if detector.next_tick().is_multiple_of(SNAPSHOT_EVERY) {
            let json = tracer
                .span(SNAP_ENCODE, unit, tick, || detector.snapshot().to_json())
                .map_err(|e| format!("snapshot encode: {e}"))?;
            c.snapshots += 1;
            c.snapshot_bytes += json.len() as u64;
            let restored = tracer.span(SNAP_RESTORE, unit, tick, || {
                DetectorSnapshot::from_json(&json)
                    .map_err(|e| e.to_string())
                    .and_then(DbCatcher::try_restore)
            })?;
            std::hint::black_box(restored);
            wals[shard].note_floor(unit, detector.next_tick());
        }

        let ledger = &mut health[unit];
        let summary = tracer.span(HEALTH_OBSERVE, unit, tick, || {
            ledger.observe_into(
                &frame,
                tick as u64,
                &config.ingest,
                retention,
                &mut sanitized,
            )
        });
        c.repaired += summary.repaired as u64;
        let correlator = &mut kcd[unit];
        tracer.span(KCD_PUSH, unit, tick, || correlator.push(&sanitized));

        if tracer.on {
            let end = tracer.epoch.elapsed().as_nanos() as u64;
            tracer.spans.push(Span {
                name: TICK,
                unit: unit as u32,
                tick: tick as u32,
                start: root_start,
                end,
            });
        }
    }
    c.scope_verdicts += fleet.finish().len() as u64;
    for wal in &mut wals {
        wal.sync().map_err(|e| format!("trace WAL sync: {e}"))?;
    }
    drop(wals);
    let started = Instant::now();
    for d in &shard_dirs {
        let recovery =
            wal::recover_shard(d).map_err(|e| format!("recover {}: {e}", d.display()))?;
        std::hint::black_box(recovery);
    }
    c.recover_ns = started.elapsed().as_nanos() as u64;
    c.online.sort();
    Ok(c)
}

/// Writes spans as tab-separated `name parent start_ns end_ns unit tick`
/// rows; a call's parent is its tick's root span `unit/tick`.
fn write_spans(spans: &[Span], path: &Path) -> Result<(), String> {
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    let mut out = std::io::BufWriter::new(file);
    let mut write = || -> std::io::Result<()> {
        writeln!(out, "name\tparent\tstart_ns\tend_ns\tunit\ttick")?;
        for s in spans {
            let parent = if s.name == TICK {
                "-".to_string()
            } else {
                format!("{}/{}", s.unit, s.tick)
            };
            writeln!(
                out,
                "{}\t{parent}\t{}\t{}\t{}\t{}",
                s.name, s.start, s.end, s.unit, s.tick
            )?;
        }
        out.flush()
    };
    write().map_err(|e| format!("write {}: {e}", path.display()))
}
