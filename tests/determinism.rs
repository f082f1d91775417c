//! Determinism: the daemon's shard executor must emit exactly the verdict
//! set of N independent single-threaded detectors — shard scheduling may
//! only permute emission order, never change content. Runs under both
//! correlation backends.

use dbcatcher::core::config::{CorrelationBackend, DbCatcherConfig};
use dbcatcher::core::pipeline::{DbCatcher, Verdict};
use dbcatcher::serve::server::{DetectionServer, ServeConfig};
use dbcatcher::serve::{emit, DetectorTemplate, EmitOptions, UnitStream};
use dbcatcher::workload::scenario::UnitScenario;

/// A fully comparable image of a verdict, keyed by unit and the tick whose
/// ingestion resolved it. Scores are compared by bit pattern with every
/// NaN collapsed to one sentinel — masked KPIs score NaN, and `NaN != NaN`
/// would reject identical verdicts.
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

#[test]
fn fleet_equals_sequential_on_both_backends() {
    // Three simulated units with different seeds; every quickstart unit
    // carries an injected anomaly episode, so abnormal verdicts are
    // compared too.
    let units: Vec<_> = [11u64, 42, 99]
        .iter()
        .map(|&seed| UnitScenario::quickstart(seed).generate())
        .collect();
    let kpis = units[0].num_kpis();

    for backend in [CorrelationBackend::Naive, CorrelationBackend::Incremental] {
        let config = DbCatcherConfig {
            backend,
            ..DbCatcherConfig::with_kpis(kpis)
        };

        // N separate single-threaded detectors
        let mut sequential = Vec::new();
        let mut abnormal = 0usize;
        for (unit, u) in units.iter().enumerate() {
            let mut catcher = DbCatcher::new(config.clone(), u.num_databases())
                .with_participation(u.participation.clone());
            for t in 0..u.num_ticks() {
                let report = catcher
                    .try_ingest_tick(&u.tick_matrix(t))
                    .expect("clean frames ingest");
                for v in &report.verdicts {
                    abnormal += usize::from(v.state.is_abnormal());
                    sequential.push(verdict_key(unit, t as u64, v));
                }
            }
        }
        sequential.sort();
        assert!(!sequential.is_empty(), "{backend:?}: no verdicts emitted");
        assert!(
            abnormal > 0,
            "{backend:?}: scenario never alarmed — comparison too weak"
        );

        // the daemon with 3 shard workers over the same streams
        let server = DetectionServer::bind(
            "127.0.0.1:0",
            ServeConfig {
                shards: 3,
                template: DetectorTemplate {
                    backend,
                    ..DetectorTemplate::default()
                },
                ..ServeConfig::default()
            },
        )
        .expect("bind ephemeral");
        let addr = server.local_addr();
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run().expect("server run"));
        let streams = units
            .iter()
            .enumerate()
            .map(|(unit, u)| UnitStream {
                unit,
                dbs: u.num_databases(),
                kpis: u.num_kpis(),
                participation: Some(u.participation.clone()),
                frames: (0..u.num_ticks()).map(|t| u.tick_matrix(t)).collect(),
            })
            .collect();
        let report = emit(addr, streams, &EmitOptions::default()).expect("emit");
        handle.stop();
        join.join().expect("server thread");
        assert!(report.errors.is_empty(), "{backend:?}: {:?}", report.errors);

        let mut sharded: Vec<_> = report
            .verdicts
            .iter()
            .map(|r| verdict_key(r.unit, r.at_tick, &r.verdict))
            .collect();
        sharded.sort();
        assert_eq!(
            sequential.len(),
            sharded.len(),
            "{backend:?}: verdict count diverged"
        );
        assert_eq!(
            sequential, sharded,
            "{backend:?}: 3-shard verdict stream must equal sequential"
        );
    }
}
