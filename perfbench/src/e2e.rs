//! The end-to-end run against the daemon binary: set-up, warm-up,
//! alternating open-loop and closed-loop slices, then a clean stop.

use crate::daemon::Daemon;
use crate::inputs::{Inputs, Phase, BATCH, SLICES};
use crate::session::{Clock, Ledger, Round, Session, NONE};
use crate::stats::{median, percentile};
use dbcatcher_hierarchy::{parse_unit_line, render_scope_line, replay, HierarchyConfig, Topology};
use dbcatcher_serve::{fetch_stats, MetricsSnapshot, HIERARCHY_WAL_FILE};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Daemon boots timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Crash-recovery restarts timed per run on `durable`.
const RECOVERY_REPS: usize = 7;

/// A run whose open-loop generator ran later than this at p99 measured
/// the generator, not the daemon, and is reported invalid.
pub const LATE_LIMIT_MS: f64 = 50.0;

/// A run whose daemon needed longer than this after the last due tick
/// of an open-loop slice to acknowledge everything was building a
/// backlog, and is reported invalid.
pub const DRAIN_LIMIT_MS: f64 = 250.0;

/// Shard workers of the daemon under test.
const SHARDS: usize = 2;

/// Hierarchy topology flags of the daemon (its defaults).
const UNITS_PER_CLUSTER: usize = 4;
const CLUSTERS_PER_REGION: usize = 4;

/// What the end-to-end run measured.
#[derive(Debug)]
pub struct E2eResult {
    /// Everything the daemon sent.
    pub ledger: Ledger,
    /// Closed-loop ticks per second (median over segments).
    pub ticks_per_s: f64,
    /// Open-loop due-to-`Accepted` latencies, ms.
    pub ack_ms: Vec<f64>,
    /// Open-loop due-to-`Verdict` latencies, ms.
    pub verdict_ms: Vec<f64>,
    /// Median daemon set-up time, s.
    pub setup_s: f64,
    /// Daemon CPU per closed-loop tick, µs (median over segments).
    pub cpu_us_per_tick: f64,
    /// Daemon peak RSS, MiB.
    pub rss_mb: f64,
    /// Open-loop generator lateness p99, ms.
    pub late_p99_ms: f64,
    /// Longest open-loop drain (last due tick → its `FlushAck`) over
    /// the slices, ms.
    pub drain_ms: f64,
    /// Stats snapshot fetched after the timed phases.
    pub stats: MetricsSnapshot,
    /// Scope-stream mismatches against the offline replay of the
    /// hierarchy WAL (`durable` only).
    pub scope_mismatches: usize,
}

/// Each closed-loop slice is cut into this many segments of whole
/// rounds; throughput and CPU per tick are the medians over all segments
/// of the run, so a momentary stall of the shared machine moves one
/// segment, not the result.
const SEGMENTS_PER_SLICE: usize = 3;

/// Appends ticks/s and daemon CPU µs per tick of each segment of one
/// closed-loop slice (`rounds[0]` is the slice start).
fn segment_rates(rounds: &[Round], rates: &mut Vec<f64>, cpu: &mut Vec<f64>) {
    let per = (rounds.len() - 1).div_ceil(SEGMENTS_PER_SLICE).max(1);
    let mut from = rounds[0];
    for chunk in rounds[1..].chunks(per) {
        let to = chunk[chunk.len() - 1];
        let ticks: usize = chunk.iter().map(|r| r.ticks).sum();
        rates.push(ticks as f64 / ((to.at - from.at) as f64 / 1e9));
        cpu.push((to.probe - from.probe) as f64 / ticks as f64);
        from = to;
    }
}

/// Arguments of `dbcatcher serve` for the workload.
pub fn serve_args(inputs: &Inputs, work: &Path, resume: bool) -> Vec<String> {
    let w = &inputs.workload;
    let path = |name: &str| work.join(name).to_string_lossy().into_owned();
    let mut args: Vec<String> = ["serve", "--listen", "127.0.0.1:0"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    args.extend([
        "--units".into(),
        w.units.to_string(),
        "--shards".into(),
        SHARDS.to_string(),
    ]);
    if w.durable {
        args.extend([
            "--wal-dir".into(),
            path("wal"),
            "--snapshot-dir".into(),
            path("snaps"),
            "--hierarchy".into(),
            "--scope-out".into(),
            path("scope.jsonl"),
        ]);
        if resume {
            args.extend(["--resume".into(), path("snaps")]);
        }
    }
    args
}

fn check_positions(next: &[u64], expected: impl Fn(usize) -> u64) -> Result<(), String> {
    for (unit, &n) in next.iter().enumerate() {
        if n != expected(unit) {
            return Err(format!(
                "unit {unit}: daemon resumed at tick {n}, expected {}",
                expected(unit)
            ));
        }
    }
    Ok(())
}

/// Boots the daemon, registers every unit, and times spawn to the last
/// `HelloAck`.
fn boot(
    bin: &Path,
    args: &[String],
    inputs: &Inputs,
    ledger: &mut Ledger,
    clock: Clock,
) -> Result<(Daemon, Session, f64, Vec<u64>), String> {
    let start = clock.now();
    let daemon = Daemon::spawn(bin, args)?;
    let mut session = Session::connect(&daemon.addr, clock)?;
    let (last_ack, next) = session.hello(inputs, ledger)?;
    Ok((daemon, session, (last_ack - start) as f64 / 1e9, next))
}

/// Runs the whole end-to-end measurement in `work`.
pub fn run(inputs: &Inputs, bin: &Path, work: &Path) -> Result<E2eResult, String> {
    let w = &inputs.workload;
    let plan = &inputs.plan;
    let clock = Clock::start();
    let mut ledger = Ledger::new(inputs);
    let mut setups = Vec::new();

    let (daemon, mut session) = if w.durable {
        // Set-up is crash recovery: stream the warm-up prefix, wait for
        // it to be processed, SIGKILL, and time restarts with --resume.
        let (daemon, mut session, _, next) = boot(
            bin,
            &serve_args(inputs, work, false),
            inputs,
            &mut ledger,
            clock,
        )?;
        check_positions(&next, |_| 0)?;
        session.closed_loop(
            inputs,
            &mut ledger,
            &plan.ranges(Phase::Warm),
            BATCH,
            &|| Ok(0),
        )?;
        daemon.kill();
        session.close(&mut ledger);
        let prefix = plan.ranges(Phase::Warm);
        let mut booted = None;
        for rep in 0..RECOVERY_REPS {
            let (daemon, session, secs, next) = boot(
                bin,
                &serve_args(inputs, work, true),
                inputs,
                &mut ledger,
                clock,
            )?;
            check_positions(&next, |u| prefix[u].end as u64)?;
            setups.push(secs);
            if rep + 1 < RECOVERY_REPS {
                daemon.kill();
                session.close(&mut ledger);
            } else {
                booted = Some((daemon, session));
            }
        }
        let (daemon, mut session) = booted.expect("at least one recovery boot");
        session.closed_loop(
            inputs,
            &mut ledger,
            &plan.ranges(Phase::Rewarm),
            BATCH,
            &|| Ok(0),
        )?;
        (daemon, session)
    } else {
        let mut booted = None;
        for rep in 0..SETUP_REPS {
            let (daemon, mut session, secs, next) = boot(
                bin,
                &serve_args(inputs, work, false),
                inputs,
                &mut ledger,
                clock,
            )?;
            check_positions(&next, |_| 0)?;
            setups.push(secs);
            if rep + 1 < SETUP_REPS {
                session.stop(&mut ledger)?;
                daemon.wait_exit(Duration::from_secs(30))?;
                session.close(&mut ledger);
            } else {
                booted = Some((daemon, session));
            }
        }
        let (daemon, mut session) = booted.expect("at least one boot");
        session.closed_loop(
            inputs,
            &mut ledger,
            &plan.ranges(Phase::Warm),
            BATCH,
            &|| Ok(0),
        )?;
        (daemon, session)
    };

    let mut late = Vec::new();
    let mut drain = 0;
    let mut rates = Vec::new();
    let mut cpu = Vec::new();
    for slice in 0..SLICES {
        let (slice_late, slice_drain) = session.open_loop(
            inputs,
            &mut ledger,
            &plan.ranges(Phase::Open(slice)),
            w.rate,
        )?;
        late.extend(slice_late);
        drain = drain.max(slice_drain);
        let rounds = session.closed_loop(
            inputs,
            &mut ledger,
            &plan.ranges(Phase::Closed(slice)),
            BATCH,
            &|| daemon.cpu_us(),
        )?;
        segment_rates(&rounds, &mut rates, &mut cpu);
    }
    let rss_kb = daemon.peak_rss_kb()?;
    let stats = fetch_stats(daemon.addr.as_str()).map_err(|e| format!("stats: {e}"))?;
    session.stop(&mut ledger)?;
    daemon.wait_exit(Duration::from_secs(60))?;
    session.close(&mut ledger);

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut ack_ms = Vec::new();
    for (due, acked) in ledger.due.iter().zip(&ledger.acked) {
        for (&due, &acked) in due.iter().zip(acked) {
            if due != NONE && acked != NONE {
                ack_ms.push(ms(acked.saturating_sub(due)));
            }
        }
    }
    let verdict_ms = ledger
        .verdicts
        .iter()
        .filter_map(|&((unit, at_tick, _, _), at, _)| {
            let due = *ledger.due.get(unit)?.get(at_tick as usize)?;
            (due != NONE).then(|| ms(at.saturating_sub(due)))
        })
        .collect();
    let late_ms: Vec<f64> = late.into_iter().map(ms).collect();
    let scope_mismatches = if w.durable {
        scope_check(inputs, work)?
    } else {
        0
    };
    Ok(E2eResult {
        ticks_per_s: median(&rates),
        ack_ms,
        verdict_ms,
        setup_s: median(&setups),
        cpu_us_per_tick: median(&cpu),
        rss_mb: rss_kb as f64 / 1024.0,
        late_p99_ms: percentile(&late_ms, 0.99),
        drain_ms: ms(drain),
        stats,
        scope_mismatches,
        ledger,
    })
}

/// The scope file written at clean stop must equal an offline replay of
/// the hierarchy WAL; returns the number of differing lines.
fn scope_check(inputs: &Inputs, work: &Path) -> Result<usize, String> {
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("read {}: {e}", p.display()));
    let online: Vec<String> = read(work.join("scope.jsonl"))?
        .lines()
        .map(str::to_string)
        .collect();
    let records = read(work.join("wal").join(HIERARCHY_WAL_FILE))?
        .lines()
        .filter_map(|line| parse_unit_line(line).ok())
        .collect::<Vec<_>>();
    let topology = Topology::new(
        inputs.workload.units,
        UNITS_PER_CLUSTER,
        CLUSTERS_PER_REGION,
    )
    .map_err(|e| format!("topology: {e:?}"))?;
    let offline: Vec<String> = replay(HierarchyConfig::new(topology), records)
        .iter()
        .map(render_scope_line)
        .collect();
    let differing = online.iter().zip(&offline).filter(|(a, b)| a != b).count();
    Ok(differing + online.len().abs_diff(offline.len()))
}
