//! Fleet-scale monitoring with root-cause hints: many independent units
//! (paper §IV-D4 runs 50 units), one detector each, every alarm explained
//! by the ranked deviating KPIs and a cause hypothesis (paper future work
//! §V). The online daemon (`dbcatcher serve`) shards the same per-unit
//! detectors across threads.
//!
//! ```bash
//! cargo run --release --example fleet_monitoring
//! ```

use dbcatcher::core::diagnosis::diagnose;
use dbcatcher::core::{ComponentTiming, DbCatcher, DbCatcherConfig, Verdict};
use dbcatcher::sim::{interpret_cause, Kpi};
use dbcatcher::workload::scenario::UnitScenario;

fn main() {
    // Eight units: most healthy, two carrying the paper's case studies.
    let scenarios: Vec<UnitScenario> = (0..8)
        .map(|i| match i {
            2 => UnitScenario::case_study_fragmentation(7),
            5 => UnitScenario::case_study_resource_hog(7),
            _ => UnitScenario::burst_demo(100 + i as u64),
        })
        .collect();
    let recordings: Vec<_> = scenarios.iter().map(|s| s.generate()).collect();
    let ticks = recordings.iter().map(|r| r.num_ticks()).min().unwrap();

    let config = DbCatcherConfig::default();
    let mut fleet: Vec<DbCatcher> = recordings
        .iter()
        .map(|r| {
            DbCatcher::new(config.clone(), r.num_databases())
                .with_participation(r.participation.clone())
        })
        .collect();
    println!("monitoring {} units\n", fleet.len());

    let started = std::time::Instant::now();
    let mut alarms = 0;
    for t in 0..ticks {
        for (unit, (catcher, recording)) in fleet.iter_mut().zip(&recordings).enumerate() {
            for verdict in catcher.ingest_tick(&recording.tick_matrix(t)) {
                if !verdict.state.is_abnormal() {
                    continue;
                }
                alarms += 1;
                report_alarm(unit, &verdict, &config);
            }
        }
    }
    let mut timing = ComponentTiming::default();
    let (mut window_sum, mut verdicts) = (0.0, 0u64);
    for catcher in &fleet {
        let t = catcher.timing();
        timing.correlation += t.correlation;
        timing.observation += t.observation;
        window_sum += catcher.average_window_size() * catcher.verdict_count() as f64;
        verdicts += catcher.verdict_count();
    }
    let avg_window = window_sum / verdicts.max(1) as f64;
    println!(
        "\n{} alarms over {} unit-ticks in {:.2?}; avg window {:.1} ticks; \
         correlation {:.0}% / observation {:.0}% of detection time",
        alarms,
        ticks * recordings.len(),
        started.elapsed(),
        avg_window,
        100.0 * timing.correlation.as_secs_f64()
            / (timing.correlation + timing.observation).as_secs_f64(),
        100.0 * timing.observation.as_secs_f64()
            / (timing.correlation + timing.observation).as_secs_f64(),
    );
    assert!(alarms >= 2, "both case studies must alarm");
}

/// Prints one abnormal verdict with its cause hypothesis and top KPIs.
fn report_alarm(unit: usize, verdict: &Verdict, config: &DbCatcherConfig) {
    let diagnosis = diagnose(verdict, config);
    let kpis: Vec<Kpi> = diagnosis
        .deviations
        .iter()
        .map(|d| Kpi::from_index(d.kpi))
        .collect();
    let hint = interpret_cause(&kpis);
    println!(
        "unit {} db {} [{}..{}): {:?}",
        unit,
        verdict.db + 1,
        verdict.start_tick,
        verdict.end_tick,
        hint
    );
    println!("   {}", hint.description());
    for d in diagnosis.deviations.iter().take(3) {
        println!(
            "   {} score {:.2} ({:?})",
            Kpi::from_index(d.kpi).name(),
            d.score,
            d.level
        );
    }
}
