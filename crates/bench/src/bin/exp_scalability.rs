//! Fleet scalability (extension): wall-clock detection time over a fleet
//! of units as worker threads grow — the deployment shape of §IV-D4
//! (50 units at once) on a multi-core host. Units are independent, so
//! each scoped worker owns a contiguous slice of units for the whole run.

use dbcatcher_core::{DbCatcher, DbCatcherConfig};
use dbcatcher_eval::experiments::Scale;
use dbcatcher_eval::report::render_table;
use dbcatcher_workload::scenario::UnitScenario;
use std::time::Instant;

fn main() {
    let scale = Scale::from_args();
    let units = ((50.0 * scale.factor.max(0.3)).round() as usize).max(8);
    let ticks = 600usize;
    println!("# Fleet scalability — {units} units x 5 databases x {ticks} ticks");
    println!("(detector configured with the paper's full ±n/2 lag scan to give each tick\n realistic correlation work; available cores: {})",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1));

    // pre-generate the recordings and their frames once
    let recordings: Vec<_> = (0..units)
        .map(|u| UnitScenario::burst_demo(scale.seed + u as u64).generate())
        .collect();
    let frames: Vec<Vec<Vec<Vec<f64>>>> = recordings
        .iter()
        .map(|r| (0..ticks).map(|t| r.tick_matrix(t)).collect())
        .collect();
    let config = DbCatcherConfig {
        delay_scan: dbcatcher_core::config::DelayScan::HalfWindow,
        ..DbCatcherConfig::default()
    };

    let mut rows = Vec::new();
    let mut baseline = None;
    for workers in [1usize, 2, 4, 8] {
        let mut detectors: Vec<DbCatcher> = recordings
            .iter()
            .map(|r| {
                DbCatcher::new(config.clone(), r.num_databases())
                    .with_participation(r.participation.clone())
            })
            .collect();
        let per_worker = units.div_ceil(workers);
        let effective = units.div_ceil(per_worker);
        let t0 = Instant::now();
        let verdicts: usize = std::thread::scope(|scope| {
            let handles: Vec<_> = detectors
                .chunks_mut(per_worker)
                .zip(frames.chunks(per_worker))
                .map(|(owned, streams)| {
                    scope.spawn(move || {
                        let mut verdicts = 0usize;
                        for (catcher, stream) in owned.iter_mut().zip(streams) {
                            for frame in stream {
                                verdicts += catcher.ingest_tick(frame).len();
                            }
                        }
                        verdicts
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("detection worker panicked"))
                .sum()
        });
        let elapsed = t0.elapsed().as_secs_f64();
        let base = *baseline.get_or_insert(elapsed);
        rows.push(vec![
            format!("{workers} ({effective} effective)"),
            format!("{:.1} ms", elapsed * 1000.0),
            format!("{:.2}x", base / elapsed),
            verdicts.to_string(),
        ]);
    }
    println!(
        "{}",
        render_table(
            "Fleet detection wall-clock vs worker threads",
            &["Workers", "Time", "Speedup", "Verdicts"],
            &rows,
        )
    );
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores == 1 {
        println!(
            "(this host has a single core: flat/declining speedup is expected — the extra \
             workers only add thread overhead; on an N-core host the speedup approaches \
             min(workers, N, units))"
        );
    } else {
        println!("(units shard perfectly; speedup saturates at min(workers, cores, units))");
    }
}
