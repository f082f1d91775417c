//! Serve-path benchmark harness.
//!
//! ```text
//! perfbench --workload <steady|wide-faulted|durable> --seed N --seconds S
//!           --trace <0|1> --daemon <path to dbcatcher> --work <dir>
//! ```
//!
//! `--trace 0` runs the end-to-end measurement and prints the end-to-end
//! metrics; `--trace 1` runs it too, then the shipped client and the
//! traced in-process replay, and prints the per-layer metrics. Either
//! way the last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. A run whose open-loop generator
//! fell behind or whose daemon built a backlog is invalid: it prints no
//! result and exits with code 3.

mod alloc;
mod client;
mod daemon;
mod e2e;
mod inputs;
mod session;
mod stats;
mod trace;

use inputs::{verdict_mismatches, Inputs, Workload};
use session::NONE;
use stats::percentile;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    daemon: PathBuf,
    work: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {flag} <value>"))
    };
    let name = value("--workload")?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(1.0..=60.0).contains(&seconds) {
        return Err("--seconds must lie in [1, 60]".into());
    }
    Ok(Args {
        workload: Workload::named(name).ok_or_else(|| format!("unknown workload {name}"))?,
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        daemon: PathBuf::from(value("--daemon")?),
        work: PathBuf::from(value("--work")?),
    })
}

/// One reported metric.
type Metric = (&'static str, f64, &'static str);

fn print_result(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[Metric],
) -> Result<(), String> {
    let mut body = Vec::new();
    for (name, value, unit) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(())
}

fn run(args: &Args) -> Result<bool, String> {
    let w = &args.workload;
    let run_dir = args.work.join(format!("run-{}", w.name));
    let _ = std::fs::remove_dir_all(&run_dir);
    std::fs::create_dir_all(&run_dir).map_err(|e| format!("create {}: {e}", run_dir.display()))?;

    let inputs = Inputs::build(w, args.seed, args.seconds);
    let result = e2e::run(&inputs, &args.daemon, &run_dir.join("e2e"))?;
    let ledger = &result.ledger;
    let attempted: usize = ledger.sent.iter().sum();
    eprintln!(
        "{}: seed {} | open loop {} acks (p50 {:.3} ms), {} verdicts (p50 {:.3} ms), generator late p99 {:.3} ms, drain {:.1} ms | closed loop {:.0} ticks/s",
        w.name,
        args.seed,
        result.ack_ms.len(),
        percentile(&result.ack_ms, 0.5),
        result.verdict_ms.len(),
        percentile(&result.verdict_ms, 0.5),
        result.late_p99_ms,
        result.drain_ms,
        result.ticks_per_s
    );
    if result.late_p99_ms > e2e::LATE_LIMIT_MS || result.drain_ms > e2e::DRAIN_LIMIT_MS {
        eprintln!(
            "run invalid: generator late p99 {:.3} ms (limit {}), drain {:.1} ms (limit {})",
            result.late_p99_ms,
            e2e::LATE_LIMIT_MS,
            result.drain_ms,
            e2e::DRAIN_LIMIT_MS
        );
        return Ok(false);
    }

    // Correctness gate: every sent tick acknowledged, never rejected, and
    // the deduplicated online verdict stream equal to an offline replay.
    let offline = inputs.offline_verdicts(&ledger.sent);
    let online = ledger
        .verdicts
        .iter()
        .map(|(key, _, line)| (*key, line.clone()))
        .collect();
    let mut failed: BTreeSet<(usize, u64)> =
        verdict_mismatches(online, &offline).into_iter().collect();
    failed.extend(ledger.rejected.iter().copied());
    for (unit, acked) in ledger.acked.iter().enumerate() {
        for (tick, &at) in acked.iter().enumerate().take(ledger.sent[unit]) {
            if at == NONE {
                failed.insert((unit, tick as u64));
            }
        }
    }
    for problem in &ledger.problems {
        eprintln!("daemon: {problem}");
    }
    let mut failed_count = failed.len() + result.scope_mismatches;
    let mut correct = failed_count == 0 && ledger.problems.is_empty();
    if result.scope_mismatches > 0 {
        eprintln!(
            "scope stream differs from the hierarchy WAL replay in {} line(s)",
            result.scope_mismatches
        );
    }
    eprintln!(
        "correctness: {} verdicts checked against the offline replay, {} failed tick(s)",
        offline.len(),
        failed.len()
    );

    if !args.trace {
        let metrics = [
            ("setup_s", result.setup_s, "s"),
            ("cpu_us_per_tick", result.cpu_us_per_tick, "us"),
            ("daemon_rss_mb", result.rss_mb, "MiB"),
        ];
        print_result(correct, attempted, failed_count, &metrics)?;
        return Ok(true);
    }

    let emitted = client::run(&inputs, &args.daemon, &run_dir.join("emit"), &offline)?;
    let span_file = args.work.join(format!("spans-{}.tsv", w.name));
    let traced = trace::run(&inputs, &run_dir.join("trace"), &span_file)?;
    let trace_failed = verdict_mismatches(traced.verdicts, &offline).len();
    if trace_failed > 0 || emitted.failed > 0 {
        eprintln!(
            "traced replay: {trace_failed} mismatched tick(s); emit run: {} failed tick(s)",
            emitted.failed
        );
    }
    failed_count += emitted.failed + trace_failed;
    correct &= emitted.failed == 0 && trace_failed == 0;

    let stats = &result.stats;
    let shard_ticks: u64 = stats.shard_status.iter().map(|s| s.ticks).sum();
    let shard_ns: f64 = stats
        .shard_status
        .iter()
        .map(|s| s.ticks as f64 * s.ns_per_tick as f64)
        .sum();
    let mut metrics: Vec<Metric> = traced.metrics;
    metrics.extend(emitted.metrics);
    metrics.extend([
        (
            "shard.detect_us_per_tick",
            shard_ns / 1e3 / shard_ticks.max(1) as f64,
            "us",
        ),
        (
            "shard.rejects_per_ktick",
            stats.total_rejects as f64 * 1e3 / stats.total_ticks.max(1) as f64,
            "count",
        ),
        ("gen.late_p99_ms", result.late_p99_ms, "ms"),
        (
            "trace.unaccounted_frac",
            1.0 - traced.layer_sum_us / result.cpu_us_per_tick,
            "ratio",
        ),
        (
            "failed_frac",
            failed_count as f64 / (attempted + emitted.attempted) as f64,
            "ratio",
        ),
        ("ticks_per_s", result.ticks_per_s, "1/s"),
        ("ack_p50_ms", percentile(&result.ack_ms, 0.5), "ms"),
        ("verdict_p50_ms", percentile(&result.verdict_ms, 0.5), "ms"),
        ("ack_p99_ms", percentile(&result.ack_ms, 0.99), "ms"),
        ("verdict_p99_ms", percentile(&result.verdict_ms, 0.99), "ms"),
    ]);
    eprintln!(
        "ledger: daemon-path layers {:.2} us/tick of {:.2} us/tick daemon CPU; spans in {}",
        traced.layer_sum_us,
        result.cpu_us_per_tick,
        span_file.display()
    );
    print_result(
        correct,
        attempted + emitted.attempted,
        failed_count,
        &metrics,
    )?;
    Ok(true)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(3),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
