//! End-to-end tests of the online daemon: loopback equality with the
//! offline detector, warm restart, backpressure under burst, fault
//! containment, and the subscriber stream.

use dbcatcher::core::config::DbCatcherConfig;
use dbcatcher::core::pipeline::{DbCatcher, Verdict};
use dbcatcher::serve::client::VerdictRecord;
use dbcatcher::serve::server::{DetectionServer, ServeConfig, ServerHandle};
use dbcatcher::serve::{emit, fetch_stats, EmitOptions, Subscriber, UnitStream};
use dbcatcher::workload::scenario::UnitScenario;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

const TICKS: usize = 260;

/// One scenario unit's stream, truncated for test speed.
struct UnitFixture {
    frames: Vec<Vec<Vec<f64>>>,
    participation: Vec<Vec<bool>>,
    dbs: usize,
    kpis: usize,
}

fn unit_frames(seed: u64) -> UnitFixture {
    let data = UnitScenario::quickstart(seed).generate();
    let frames: Vec<_> = (0..TICKS.min(data.num_ticks()))
        .map(|t| data.tick_matrix(t))
        .collect();
    let (dbs, kpis) = (data.num_databases(), data.num_kpis());
    UnitFixture {
        frames,
        participation: data.participation,
        dbs,
        kpis,
    }
}

/// The offline reference: the same frames through a local `DbCatcher`,
/// with each verdict stamped by the tick whose ingestion resolved it.
fn offline_verdicts(
    frames: &[Vec<Vec<f64>>],
    participation: &[Vec<bool>],
    dbs: usize,
) -> Vec<(u64, Verdict)> {
    let mut catcher =
        DbCatcher::new(DbCatcherConfig::default(), dbs).with_participation(participation.to_vec());
    let mut out = Vec::new();
    for (t, frame) in frames.iter().enumerate() {
        let report = catcher.try_ingest_tick(frame).expect("clean frames ingest");
        out.extend(report.verdicts.into_iter().map(|v| (t as u64, v)));
    }
    out
}

/// A fully comparable image of a verdict. Scores are compared by bit
/// pattern with every NaN collapsed to one sentinel — `NaN != NaN` would
/// otherwise make identical streams compare unequal (non-participating
/// KPIs legitimately score NaN).
type VerdictKey = (usize, u64, usize, u64, u64, String, usize, u32, Vec<u64>);

fn verdict_key(unit: usize, at_tick: u64, v: &Verdict) -> VerdictKey {
    (
        unit,
        at_tick,
        v.db,
        v.start_tick,
        v.end_tick,
        format!("{:?}", v.state),
        v.window_size,
        v.expansions,
        v.scores
            .iter()
            .map(|s| if s.is_nan() { u64::MAX } else { s.to_bits() })
            .collect(),
    )
}

fn sorted_records(records: &[VerdictRecord]) -> Vec<VerdictKey> {
    let mut out: Vec<_> = records
        .iter()
        .map(|r| verdict_key(r.unit, r.at_tick, &r.verdict))
        .collect();
    out.sort();
    out
}

fn sorted_expected(expected: &[(u64, Verdict)]) -> Vec<VerdictKey> {
    let mut out: Vec<_> = expected
        .iter()
        .map(|(t, v)| verdict_key(0, *t, v))
        .collect();
    out.sort();
    out
}

/// Spawns a daemon on an ephemeral port; returns its address, handle and
/// the join handle of the serving thread.
fn spawn_server(config: ServeConfig) -> (SocketAddr, ServerHandle, std::thread::JoinHandle<()>) {
    let server = DetectionServer::bind("127.0.0.1:0", config).expect("bind ephemeral");
    let addr = server.local_addr();
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle, join)
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dbcatcher_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn loopback_verdicts_match_offline() {
    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(7);
    let expected = offline_verdicts(&frames, &participation, dbs);
    assert!(!expected.is_empty(), "scenario must produce verdicts");

    let (addr, handle, join) = spawn_server(ServeConfig::default());
    let report = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation),
            frames: frames.clone(),
        }],
        &EmitOptions::default(),
    )
    .expect("emit");
    handle.stop();
    join.join().expect("server thread");

    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert_eq!(report.ticks_accepted, frames.len() as u64);
    assert_eq!(
        sorted_records(&report.verdicts),
        sorted_expected(&expected),
        "online verdict stream must equal offline"
    );
}

#[test]
fn warm_restart_resumes_with_at_most_one_tick_lost() {
    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(21);
    let expected = offline_verdicts(&frames, &participation, dbs);
    let snaps = scratch_dir("serve_restart");
    let split = frames.len() / 2;

    // First run: stream the first half, then stop (final snapshot on
    // clean shutdown persists the exact stream position).
    let (addr, handle, join) = spawn_server(ServeConfig {
        snapshot_dir: Some(snaps.clone()),
        snapshot_every: 16,
        ..ServeConfig::default()
    });
    let first = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation.clone()),
            frames: frames[..split].to_vec(),
        }],
        &EmitOptions::default(),
    )
    .expect("first emit");
    handle.stop();
    join.join().expect("server thread");
    assert_eq!(first.ticks_accepted, split as u64);

    // Second run: resume from the snapshot directory and offer the FULL
    // stream; `HelloAck{next_tick}` makes the client skip what the
    // snapshot already holds.
    let (addr, handle, join) = spawn_server(ServeConfig {
        resume_dir: Some(snaps.clone()),
        ..ServeConfig::default()
    });
    let second = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation),
            frames: frames.clone(),
        }],
        &EmitOptions::default(),
    )
    .expect("second emit");
    handle.stop();
    join.join().expect("server thread");

    let resumed_from = second
        .resumed
        .first()
        .map(|(_, next)| *next)
        .expect("server must resume unit 0 from snapshot");
    // Clean shutdown snapshots every accepted tick; at most one in-flight
    // tick per unit may be lost by a harsher kill.
    assert!(
        resumed_from + 1 >= split as u64,
        "resume point {resumed_from} lost more than one of {split} ticks"
    );

    // Verdict union must equal the offline stream (boundary verdicts may
    // arrive in both runs; dedup by identity).
    let mut got = sorted_records(&first.verdicts);
    got.extend(sorted_records(&second.verdicts));
    got.sort();
    got.dedup();
    assert_eq!(
        got,
        sorted_expected(&expected),
        "resumed stream must reconstruct offline verdicts"
    );

    let _ = std::fs::remove_dir_all(&snaps);
}

#[test]
fn burst_hits_backpressure_and_stays_bounded() {
    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(3);
    let expected = offline_verdicts(&frames, &participation, dbs);

    // Tiny ingress queue + artificially slow shard: a full-speed burst
    // with a window larger than the queue must trip backpressure.
    let queue_cap = 4usize;
    let (addr, handle, join) = spawn_server(ServeConfig {
        queue_cap,
        shards: 1,
        slow_tick: Some(Duration::from_millis(2)),
        ..ServeConfig::default()
    });
    let report = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation),
            frames: frames.clone(),
        }],
        &EmitOptions {
            window: 4 * queue_cap,
            ..EmitOptions::default()
        },
    )
    .expect("emit under burst");

    assert!(
        report.rejects_backpressure > 0,
        "burst must observe backpressure"
    );
    // Rejections are retried, never lost: the stream still completes and
    // matches offline exactly.
    assert_eq!(report.ticks_accepted, frames.len() as u64);
    assert_eq!(sorted_records(&report.verdicts), sorted_expected(&expected));

    // Backpressure is observable in stats, and queues drained afterwards.
    let stats = fetch_stats(addr).expect("stats");
    let unit = stats.units.iter().find(|u| u.unit == 0).expect("unit 0");
    assert_eq!(
        unit.rejected_backpressure, report.rejects_backpressure,
        "server-side reject count must match the client's"
    );
    assert_eq!(unit.queue_depth, 0, "ingress queue must drain");
    assert!(!unit.degraded);
    assert_eq!(stats.total_ticks, frames.len() as u64);

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn malformed_lines_and_nan_bursts_degrade_gracefully() {
    use std::io::{BufRead, BufReader, Write};

    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(5);
    // Offline reference with the same NaN burst: db 1 goes silent (NaN)
    // from tick 40 on, long enough for TelemetryHealth to demote it.
    let mut poisoned = frames.clone();
    for frame in poisoned.iter_mut().skip(40) {
        for value in frame[1].iter_mut() {
            *value = f64::NAN;
        }
    }
    let mut reference =
        DbCatcher::new(DbCatcherConfig::default(), dbs).with_participation(participation.clone());
    for frame in &poisoned {
        reference.try_ingest_tick(frame).expect("repairable frames");
    }
    let expected_demoted = reference.non_voting();
    assert!(
        expected_demoted.contains(&1),
        "reference must demote the silent database"
    );

    let (addr, handle, join) = spawn_server(ServeConfig::default());

    // Hostile connection first: garbage, truncated JSON, an oversized
    // line and a line nested 200k levels deep (under the line cap) must
    // each produce an Error reply and leave the daemon healthy.
    let mut hostile = std::net::TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(hostile.try_clone().expect("clone"));
    for bad in [
        "not json at all\n".to_string(),
        "{\"Tick\":{\"unit\":0\n".to_string(),
        format!("{}\n", "x".repeat(2 * 1024 * 1024)),
        format!("{{\"Stats\":{}\n", "[".repeat(200_000)),
    ] {
        hostile.write_all(bad.as_bytes()).expect("write");
        hostile.flush().expect("flush");
        let mut line = String::new();
        replies.read_line(&mut line).expect("reply");
        assert!(
            line.contains("Error"),
            "hostile line must get an Error reply, got {line:?}"
        );
    }
    drop(replies);
    drop(hostile);

    // The daemon still serves: stream the poisoned unit and compare.
    let report = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation),
            frames: poisoned,
        }],
        &EmitOptions::default(),
    )
    .expect("emit after hostile connection");
    assert!(report.errors.is_empty(), "{:?}", report.errors);

    let stats = fetch_stats(addr).expect("stats");
    let unit = stats.units.iter().find(|u| u.unit == 0).expect("unit 0");
    assert_eq!(
        unit.demoted_dbs, expected_demoted,
        "NaN burst must demote via TelemetryHealth exactly as offline"
    );
    assert!(
        !unit.degraded,
        "repairable faults must not degrade the unit"
    );

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn subscriber_churn_gets_gap_free_suffix_and_never_stalls_the_shard() {
    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(13);

    // Slow the shard so the stream spans real wall-clock time and the
    // mid-stream re-subscribe genuinely lands mid-stream.
    let (addr, handle, join) = spawn_server(ServeConfig {
        shards: 1,
        slow_tick: Some(Duration::from_millis(2)),
        ..ServeConfig::default()
    });

    // First subscriber connects before the stream starts...
    let mut early_sub = Subscriber::connect(addr).expect("subscribe early");
    let emit_thread = {
        let frames = frames.clone();
        let participation = participation.clone();
        std::thread::spawn(move || {
            emit(
                addr,
                vec![UnitStream {
                    unit: 0,
                    dbs,
                    kpis,
                    participation: Some(participation),
                    frames,
                }],
                &EmitOptions::default(),
            )
            .expect("emit")
        })
    };

    // ...reads a few verdicts, then disconnects mid-stream.
    for _ in 0..5 {
        early_sub.next_verdict().expect("early verdicts");
    }
    drop(early_sub);

    // A second subscriber joins mid-stream and drains to shutdown.
    let mut late_sub = Subscriber::connect(addr).expect("re-subscribe mid-stream");
    let late_thread = std::thread::spawn(move || {
        let mut seen = Vec::new();
        while let Ok(record) = late_sub.next_verdict() {
            seen.push(record);
        }
        seen
    });

    // The abandoned early subscriber must not stall the shard: the full
    // stream still completes.
    let report = emit_thread.join().expect("emit thread");
    assert_eq!(report.ticks_accepted, frames.len() as u64);
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    assert!(
        report.verdicts.len() >= 10,
        "need a meaningful verdict stream, got {}",
        report.verdicts.len()
    );
    let stats = fetch_stats(addr).expect("stats");
    let unit = stats.units.iter().find(|u| u.unit == 0).expect("unit 0");
    assert_eq!(unit.queue_depth, 0, "ingress queue must drain");

    handle.stop();
    join.join().expect("server thread");
    let late_seen = late_thread.join().expect("late subscriber thread");

    // The late subscriber's stream must be a gap-free suffix of the
    // producer's emission-ordered stream: compare sequences (not sets)
    // from its first observed verdict — any gap or reorder fails.
    assert!(
        !late_seen.is_empty(),
        "mid-stream subscriber must observe the tail of the stream"
    );
    let emitted: Vec<VerdictKey> = report
        .verdicts
        .iter()
        .map(|r| verdict_key(r.unit, r.at_tick, &r.verdict))
        .collect();
    let late_keys: Vec<VerdictKey> = late_seen
        .iter()
        .map(|r| verdict_key(r.unit, r.at_tick, &r.verdict))
        .collect();
    let start = emitted
        .iter()
        .position(|k| *k == late_keys[0])
        .expect("first late verdict must exist in the emitted stream");
    assert_eq!(
        late_keys,
        emitted[start..],
        "late subscriber must see a gap-free verdict suffix from its join point"
    );
}

#[test]
fn metrics_reconcile_exactly_with_client_observations_under_churn() {
    let unit0 = unit_frames(13);
    let unit1 = unit_frames(14);

    // One slow shard, tiny queues, wide windows: both producers hammer
    // the same worker and live through real backpressure while client A
    // disconnects and reconnects mid-run.
    let (addr, handle, join) = spawn_server(ServeConfig {
        shards: 1,
        queue_cap: 4,
        slow_tick: Some(Duration::from_millis(1)),
        ..ServeConfig::default()
    });
    let options = EmitOptions {
        window: 16,
        ..EmitOptions::default()
    };

    let b_thread = {
        let options = options.clone();
        let frames = unit1.frames.clone();
        let participation = unit1.participation.clone();
        let (dbs, kpis) = (unit1.dbs, unit1.kpis);
        std::thread::spawn(move || {
            emit(
                addr,
                vec![UnitStream {
                    unit: 1,
                    dbs,
                    kpis,
                    participation: Some(participation),
                    frames,
                }],
                &options,
            )
            .expect("producer B")
        })
    };

    // Client A: half the stream, disconnect, reconnect, offer the full
    // stream (the daemon's in-memory position makes it skip the rest).
    let split = unit0.frames.len() / 2;
    let a_first = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs: unit0.dbs,
            kpis: unit0.kpis,
            participation: Some(unit0.participation.clone()),
            frames: unit0.frames[..split].to_vec(),
        }],
        &options,
    )
    .expect("producer A session 1");
    let a_second = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs: unit0.dbs,
            kpis: unit0.kpis,
            participation: Some(unit0.participation.clone()),
            frames: unit0.frames.clone(),
        }],
        &options,
    )
    .expect("producer A session 2");
    let b_report = b_thread.join().expect("producer B thread");

    // Both sessions ended with a flush barrier, so the counters are
    // settled; reconcile them exactly against what the clients saw.
    let stats = fetch_stats(addr).expect("stats");
    handle.stop();
    join.join().expect("server thread");

    let unit0_stats = stats.units.iter().find(|u| u.unit == 0).expect("unit 0");
    let unit1_stats = stats.units.iter().find(|u| u.unit == 1).expect("unit 1");

    assert_eq!(
        a_first.ticks_accepted + a_second.ticks_accepted,
        unit0.frames.len() as u64,
        "A's sessions must cover the stream exactly once"
    );
    assert_eq!(unit0_stats.ticks, unit0.frames.len() as u64);
    assert_eq!(unit1_stats.ticks, unit1.frames.len() as u64);
    assert_eq!(
        unit0_stats.rejected_backpressure,
        a_first.rejects_backpressure + a_second.rejects_backpressure,
        "unit 0 backpressure rejects must equal A's client-side count"
    );
    assert_eq!(
        unit1_stats.rejected_backpressure, b_report.rejects_backpressure,
        "unit 1 backpressure rejects must equal B's client-side count"
    );
    assert_eq!(
        unit0_stats.rejected_order,
        a_first.rejects_order + a_second.rejects_order
    );
    assert_eq!(unit1_stats.rejected_order, b_report.rejects_order);
    assert_eq!(
        unit0_stats.verdicts_healthy + unit0_stats.verdicts_abnormal,
        (a_first.verdicts.len() + a_second.verdicts.len()) as u64,
        "unit 0 verdict counters must equal what A received"
    );
    assert_eq!(
        unit1_stats.verdicts_healthy + unit1_stats.verdicts_abnormal,
        b_report.verdicts.len() as u64,
        "unit 1 verdict counters must equal what B received"
    );

    // And the rollups must be sums of the parts — no drift, no double
    // counting across the reader/worker handoff.
    assert_eq!(stats.total_ticks, unit0_stats.ticks + unit1_stats.ticks);
    assert_eq!(
        stats.total_rejects,
        unit0_stats.rejected_backpressure
            + unit0_stats.rejected_order
            + unit1_stats.rejected_backpressure
            + unit1_stats.rejected_order
    );
    assert_eq!(
        stats.total_verdicts,
        unit0_stats.verdicts_healthy
            + unit0_stats.verdicts_abnormal
            + unit1_stats.verdicts_healthy
            + unit1_stats.verdicts_abnormal
    );
    assert_eq!(unit0_stats.queue_depth, 0);
    assert_eq!(unit1_stats.queue_depth, 0);

    // Shard-level tick accounting runs at the batched granularity the
    // worker actually executes: every tick the shard thread processed
    // counts exactly once, whichever unit it served, so the sum over
    // shards must equal the per-unit rollup with no drift.
    assert_eq!(
        stats.shard_status.iter().map(|s| s.ticks).sum::<u64>(),
        stats.total_ticks,
        "shard tick counters must reconcile with the per-unit totals"
    );
    for shard in &stats.shard_status {
        if shard.ticks > 0 {
            assert!(
                shard.ns_per_tick > 0,
                "shard {} processed {} ticks but reports zero ns/tick",
                shard.shard,
                shard.ticks
            );
        } else {
            assert_eq!(shard.ns_per_tick, 0);
        }
    }
}

#[test]
fn subscriber_receives_the_verdict_stream() {
    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(9);
    let expected = offline_verdicts(&frames, &participation, dbs);

    let (addr, handle, join) = spawn_server(ServeConfig::default());
    let mut subscriber = Subscriber::connect(addr).expect("subscribe");
    let report = emit(
        addr,
        vec![UnitStream {
            unit: 0,
            dbs,
            kpis,
            participation: Some(participation),
            frames,
        }],
        &EmitOptions::default(),
    )
    .expect("emit");
    assert_eq!(report.verdicts.len(), expected.len());

    // The subscriber sees every verdict the producer saw.
    let mut seen = Vec::new();
    for _ in 0..expected.len() {
        seen.push(subscriber.next_verdict().expect("broadcast verdict"));
    }
    assert_eq!(sorted_records(&seen), sorted_records(&report.verdicts));

    handle.stop();
    join.join().expect("server thread");
}

#[test]
fn pipelined_burst_acks_stay_in_request_order_before_control_replies() {
    use dbcatcher::serve::protocol::{decode_response, encode, RejectReason, Request, Response};
    use std::io::{BufRead, BufReader, Write};

    let UnitFixture {
        frames,
        participation,
        dbs,
        kpis,
    } = unit_frames(13);
    // A tiny queue and a slow shard: the burst outruns `queue_cap`, so
    // later ticks bounce with backpressure inside the same read chunk.
    let queue_cap = 4usize;
    let (addr, handle, join) = spawn_server(ServeConfig {
        queue_cap,
        shards: 1,
        slow_tick: Some(Duration::from_millis(20)),
        ..ServeConfig::default()
    });
    let mut conn = std::net::TcpStream::connect(addr).expect("connect");
    let mut replies = BufReader::new(conn.try_clone().expect("clone"));
    let mut next_reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).expect("reply");
        decode_response(&line).expect("well-formed reply")
    };

    let hello = Request::Hello {
        unit: 0,
        dbs,
        kpis,
        participation: Some(participation),
    };
    conn.write_all(format!("{}\n", encode(&hello)).as_bytes())
        .expect("hello");
    assert!(matches!(next_reply(), Response::HelloAck { unit: 0, .. }));

    // N ticks, Flush, Stats and a malformed line, all in one write.
    let n = 40usize;
    let mut burst = String::new();
    for (tick, frame) in frames.iter().take(n).enumerate() {
        let line = encode(&Request::Tick {
            unit: 0,
            tick: tick as u64,
            frame: frame.clone(),
        });
        burst.push_str(&line);
        burst.push('\n');
    }
    for request in [Request::Flush { unit: 0 }, Request::Stats] {
        burst.push_str(&encode(&request));
        burst.push('\n');
    }
    burst.push_str("{\"Tick\":{\"unit\":0,\"tick\":\n");
    conn.write_all(burst.as_bytes()).expect("burst");

    // Replies in arrival order, verdicts aside (they are asynchronous).
    let mut order = Vec::new();
    let (mut flush_at, mut stats_at, mut error_at) = (None, None, None);
    while flush_at.is_none() || stats_at.is_none() || error_at.is_none() {
        match next_reply() {
            Response::Verdict { .. } => continue,
            Response::FlushAck { unit: 0, .. } => flush_at = Some(order.len()),
            Response::Stats(_) => stats_at = Some(order.len()),
            Response::Error { .. } => error_at = Some(order.len()),
            Response::Accepted { unit: 0, tick } => order.push((tick, None)),
            Response::Rejected {
                unit: 0,
                tick,
                reason,
                ..
            } => order.push((tick, Some(reason))),
            other => panic!("unexpected reply {other:?}"),
        }
    }

    // One reply per tick, in request order, all before any control reply.
    let ticks: Vec<u64> = order.iter().map(|&(tick, _)| tick).collect();
    assert_eq!(ticks, (0..n as u64).collect::<Vec<_>>());
    assert_eq!(flush_at, Some(n), "FlushAck overtook a tick reply");
    assert_eq!(stats_at, Some(n), "Stats overtook a tick reply");
    assert_eq!(error_at, Some(n), "Error overtook a tick reply");
    // The queue admitted the head of the burst, then bounced the first
    // tick past it with backpressure — in its own slot.
    assert_eq!(order[0], (0, None));
    let first_reject = order
        .iter()
        .position(|&(_, reason)| reason.is_some())
        .expect("the burst must overrun the queue");
    assert!(first_reject >= 1, "the queue admits at least one tick");
    assert_eq!(
        order[first_reject].1,
        Some(RejectReason::Backpressure),
        "first bounce must be backpressure, got {:?}",
        order[first_reject]
    );

    handle.stop();
    join.join().expect("server thread");
}
