//! Cross-crate integration tests of the cooperative synchronization
//! system: the §5 protocol end to end, against the §3.3 ideal, over real
//! workload generators and the network substrate.

use besync::cache::FeedbackTargeting;
use besync::config::SystemConfig;
use besync::priority::{PolicyKind, RateEstimator};
use besync::{CoopSystem, IdealSystem};
use besync_data::Metric;
use besync_workloads::buoy::{self, BuoyConfig};
use besync_workloads::generators::{fig6_workload, random_walk_poisson, PoissonWorkloadOptions};
use besync_workloads::WorkloadSpec;

fn spec(sources: u32, n: u32, seed: u64) -> WorkloadSpec {
    random_walk_poisson(
        PoissonWorkloadOptions {
            sources,
            objects_per_source: n,
            rate_range: (0.05, 0.8),
            weight_range: (1.0, 1.0),
            fluctuating_weights: false,
        },
        seed,
    )
}

fn cfg(cache_bw: f64, source_bw: f64) -> SystemConfig {
    SystemConfig {
        metric: Metric::Staleness,
        cache_bandwidth_mean: cache_bw,
        source_bandwidth_mean: source_bw,
        warmup: 50.0,
        measure: 300.0,
        ..SystemConfig::default()
    }
}

#[test]
fn ideal_lower_bounds_the_pragmatic_algorithm() {
    for seed in [1, 2, 3] {
        for bw in [5.0, 20.0, 60.0] {
            let ideal = IdealSystem::new(cfg(bw, 10.0), spec(5, 10, seed)).run();
            let ours = CoopSystem::new(cfg(bw, 10.0), spec(5, 10, seed)).run();
            assert!(
                ours.mean_divergence() + 0.02 >= ideal.mean_divergence(),
                "seed {seed} bw {bw}: ours {} below ideal {}",
                ours.mean_divergence(),
                ideal.mean_divergence()
            );
        }
    }
}

#[test]
fn identical_workload_across_schedulers() {
    // Update sequences are driven by per-object RNG streams, so both
    // schedulers must observe exactly the same number of updates.
    let a = IdealSystem::new(cfg(10.0, 5.0), spec(4, 8, 9)).run();
    let b = CoopSystem::new(cfg(10.0, 5.0), spec(4, 8, 9)).run();
    assert_eq!(a.updates_processed, b.updates_processed);
}

#[test]
fn positive_feedback_avoids_flooding_under_bandwidth_cliff() {
    // Plentiful source bandwidth + starved cache link: negative-feedback
    // designs flood here; the §5 design must keep the queue bounded.
    let mut c = cfg(1.0, 100.0);
    c.measure = 500.0;
    let report = CoopSystem::new(c, spec(10, 10, 4)).run();
    assert!(
        report.max_cache_queue < 150,
        "cache queue peaked at {} — flooding",
        report.max_cache_queue
    );
    // Thresholds must have risen to throttle the sources.
    assert!(report.threshold_stats.mean() > 1.0);
}

#[test]
fn feedback_fills_surplus_bandwidth() {
    // Over-provisioned cache: feedback should flow and thresholds drop,
    // pushing refreshes through and divergence toward zero.
    let report = CoopSystem::new(cfg(500.0, 100.0), spec(5, 10, 5)).run();
    assert!(report.feedback_messages > 0);
    assert!(
        report.mean_divergence() < 0.1,
        "divergence {} despite surplus",
        report.mean_divergence()
    );
}

#[test]
fn fluctuating_bandwidth_is_tracked() {
    let mut fluct = cfg(15.0, 8.0);
    fluct.bandwidth_change_rate = 0.25;
    let mut fixed = cfg(15.0, 8.0);
    fixed.bandwidth_change_rate = 0.0;
    let r_fluct = CoopSystem::new(fluct, spec(5, 10, 6)).run();
    let r_fixed = CoopSystem::new(fixed, spec(5, 10, 6)).run();
    // Adaptivity: fluctuation should cost something but not break the
    // system (divergence within 3x of the fixed-bandwidth run).
    assert!(r_fluct.mean_divergence() <= (r_fixed.mean_divergence() * 3.0).max(0.15));
}

#[test]
fn weighted_objects_get_preferential_treatment() {
    // Two halves with equal rates but 10× weights: the heavy half must
    // end up fresher.
    let mut s = spec(2, 20, 7);
    for obj in s.layout.all_objects() {
        let w = if obj.0 % 2 == 0 { 10.0 } else { 1.0 };
        s.weights[obj.index()] = besync_data::WeightProfile::constant(w);
    }
    let c = cfg(4.0, 2.0); // scarce: choices matter
    let report = CoopSystem::new(c, s).run();
    // Under weight-blind treatment staleness is independent of weight, so
    // the weighted mean would be E[w] = 5.5 times the unweighted mean.
    let uniform_treatment = 5.5 * report.divergence.mean_unweighted;
    assert!(
        report.divergence.mean_weighted < uniform_treatment,
        "weighted {} vs uniform-treatment bound {}",
        report.divergence.mean_weighted,
        uniform_treatment
    );
}

#[test]
fn all_feedback_targeting_policies_work() {
    for targeting in [
        FeedbackTargeting::HighestThreshold,
        FeedbackTargeting::RoundRobin,
        FeedbackTargeting::Random,
    ] {
        let mut c = cfg(20.0, 10.0);
        c.feedback_targeting = targeting;
        let r = CoopSystem::new(c, spec(5, 10, 8)).run();
        assert!(r.mean_divergence().is_finite());
        assert!(r.refreshes_delivered > 0);
    }
}

#[test]
fn closed_form_policy_with_estimators() {
    for estimator in [
        RateEstimator::Known,
        RateEstimator::LongRun,
        RateEstimator::SinceRefresh,
    ] {
        let mut c = cfg(15.0, 8.0);
        c.policy = PolicyKind::PoissonClosedForm;
        c.estimator = estimator;
        let r = CoopSystem::new(c, fig6_workload(5, 10, 11)).run();
        assert!(
            r.mean_divergence() < 0.9,
            "{estimator:?}: divergence {}",
            r.mean_divergence()
        );
    }
}

#[test]
fn scripted_buoy_workload_runs_end_to_end() {
    let bcfg = BuoyConfig::quick();
    let s = buoy::workload(&bcfg, 12);
    let c = SystemConfig {
        metric: Metric::abs_deviation(),
        cache_bandwidth_mean: 10.0 / 60.0,
        source_bandwidth_mean: 1.0,
        warmup: 0.2 * bcfg.duration,
        measure: 0.8 * bcfg.duration,
        ..SystemConfig::default()
    };
    let r = CoopSystem::new(c, s).run();
    assert!(r.updates_processed > 0);
    assert!(r.mean_divergence() >= 0.0);
    // Wind values live in [0, 10]; deviation can't exceed that.
    assert!(r.mean_divergence() <= 10.0);
}

#[test]
fn bound_policy_runs_in_both_systems() {
    let s = spec(3, 5, 13);
    let rates: Vec<f64> = s.rates.clone();
    let mut c = cfg(5.0, 3.0);
    c.policy = PolicyKind::Bound;
    c.bound_rates = Some(rates.clone());
    let coop = CoopSystem::new(c.clone(), s.clone()).run();
    let ideal = IdealSystem::new(c, s).run();
    assert!(coop.refreshes_sent > 0);
    assert!(ideal.refreshes_sent > 0);
}

#[test]
fn lag_metric_accounts_queued_snapshots() {
    // Tight cache link → messages queue → snapshots arrive stale → lag
    // divergence stays positive even right after refreshes.
    let mut c = cfg(2.0, 50.0);
    c.metric = Metric::Lag;
    let r = CoopSystem::new(c, spec(5, 10, 14)).run();
    assert!(r.mean_queue_wait >= 0.0);
    assert!(r.divergence.mean_unweighted > 0.0);
}

#[test]
fn run_until_past_the_horizon_reports_like_run() {
    // Stepping past the horizon must neither process nor count
    // post-horizon events: the stepped report equals `run()`'s exactly.
    let spec = besync_scenarios::by_name("medium")
        .expect("registered scenario")
        .quick();
    let whole = spec.run();
    let besync_scenarios::ReadySystem::Coop(mut coop) = spec.build() else {
        panic!("medium is a cooperative scenario");
    };
    coop.run_until(coop.horizon() + 50.0);
    let stepped = coop.into_report();
    assert_eq!(format!("{whole:?}"), format!("{stepped:?}"));
}
