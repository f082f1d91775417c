//! One run of the shipped client, `dbcatcher_serve::emit`, against a
//! fresh daemon of the workload's configuration: what a real producer
//! pays to encode, and how many sends it spends per accepted tick.

use crate::daemon::Daemon;
use crate::e2e::serve_args;
use crate::inputs::{verdict_mismatches, Inputs, VerdictKey, KPIS};
use dbcatcher_serve::protocol::{self, Request, Response};
use dbcatcher_serve::{emit, EmitOptions, UnitStream};
use std::path::Path;
use std::time::{Duration, Instant};

/// What the emit run measured.
#[derive(Debug)]
pub struct EmitResult {
    /// Per-layer metrics: `(name, value, unit)`.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Ticks offered.
    pub attempted: usize,
    /// Ticks never accepted plus ticks whose verdicts differ from the
    /// offline replay.
    pub failed: usize,
}

/// Streams the first `emit_ticks` ticks of every unit through `emit`.
pub fn run(
    inputs: &Inputs,
    bin: &Path,
    work: &Path,
    offline: &[(VerdictKey, String)],
) -> Result<EmitResult, String> {
    let w = &inputs.workload;
    let ticks = w.emit_ticks;
    let streams: Vec<UnitStream> = (0..w.units)
        .map(|unit| UnitStream {
            unit,
            dbs: w.dbs,
            kpis: KPIS,
            participation: Some(inputs.units[unit].participation.clone()),
            frames: (0..ticks).map(|t| inputs.frame(unit, t)).collect(),
        })
        .collect();

    // The per-tick encode `emit` performs: clone the frame into a
    // request and render it.
    let started = Instant::now();
    for stream in &streams {
        for (tick, frame) in stream.frames.iter().enumerate() {
            let line = protocol::encode(&Request::Tick {
                unit: stream.unit,
                tick: tick as u64,
                frame: frame.clone(),
            });
            std::hint::black_box(line);
        }
    }
    let encode_us = started.elapsed().as_secs_f64() * 1e6 / (w.units * ticks) as f64;

    let _ = std::fs::remove_dir_all(work);
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let daemon = Daemon::spawn(bin, &serve_args(inputs, work, false))?;
    let options = EmitOptions {
        stop_after: true,
        ..EmitOptions::default()
    };
    let started = Instant::now();
    let report = emit(daemon.addr.as_str(), streams, &options).map_err(|e| format!("emit: {e}"))?;
    let wall = started.elapsed().as_secs_f64();
    daemon.wait_exit(Duration::from_secs(60))?;

    let accepted = report.ticks_accepted.max(1) as f64;
    let online: Vec<(VerdictKey, String)> = report
        .verdicts
        .into_iter()
        .map(|r| {
            let key = (r.unit, r.at_tick, r.verdict.db, r.verdict.start_tick);
            let line = protocol::encode(&Response::Verdict {
                unit: r.unit,
                at_tick: r.at_tick,
                verdict: r.verdict,
            });
            (key, line)
        })
        .collect();
    let expected: Vec<(VerdictKey, String)> = offline
        .iter()
        .filter(|((_, at_tick, _, _), _)| (*at_tick as usize) < ticks)
        .cloned()
        .collect();
    let attempted = w.units * ticks;
    let failed = verdict_mismatches(online, &expected).len()
        + attempted.saturating_sub(report.ticks_accepted as usize)
        + report.errors.len();
    Ok(EmitResult {
        metrics: vec![
            ("client.encode_tick_us", encode_us, "us"),
            (
                "client.emit_ticks_per_s",
                report.ticks_accepted as f64 / wall,
                "1/s",
            ),
            (
                "client.resends_per_tick",
                (report.rejects_backpressure + report.rejects_order) as f64 / accepted,
                "count",
            ),
            (
                "client.backoff_ms_per_ktick",
                report.backoff_ms_total as f64 * 1e3 / accepted,
                "ms",
            ),
        ],
        attempted,
        failed,
    })
}
