//! Outside-in correctness checks on every run's `RunReport`.

use besync::{FaultSummary, RunReport};
use besync_scenarios::ScenarioSpec;

/// Everything that must repeat exactly across runs of one seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Fingerprint {
    updates: u64,
    sent: u64,
    delivered: u64,
    feedback: u64,
    polls: u64,
    mean_divergence_bits: u64,
    faults: FaultSummary,
}

impl Fingerprint {
    pub fn of(report: &RunReport) -> Self {
        Fingerprint {
            updates: report.updates_processed,
            sent: report.refreshes_sent,
            delivered: report.refreshes_delivered,
            feedback: report.feedback_messages,
            polls: report.polls_sent,
            mean_divergence_bits: report.mean_divergence().to_bits(),
            faults: report.faults,
        }
    }
}

/// Checks one run's report in isolation.
pub fn check_report(spec: &ScenarioSpec, r: &RunReport) -> Result<(), String> {
    if r.updates_processed == 0 {
        return Err("no updates processed".into());
    }
    // Every sent refresh is delivered, purged as superseded, dropped in
    // an outage, lost in transit or still queued on the cache link.
    let f = &r.faults;
    let settled = r.refreshes_delivered + f.superseded_retries + f.dropped_in_outage;
    let ceiling = settled + f.lost_refreshes + r.max_cache_queue as u64;
    if !(settled <= r.refreshes_sent && r.refreshes_sent <= ceiling) {
        return Err(format!(
            "message bracket broken: settled {settled} <= sent {} <= {ceiling} does not hold",
            r.refreshes_sent
        ));
    }
    let div = r.mean_divergence();
    if !(div.is_finite() && div >= 0.0) {
        return Err(format!("mean divergence {div} is not finite and >= 0"));
    }
    match spec.fault {
        None if f.any() => Err(format!("fault activity on a fault-free run: {f:?}")),
        // A fault profile that records nothing leaves the path unexercised.
        Some(_) if !f.any() => Err("fault profile set but no fault activity".into()),
        _ => Ok(()),
    }
}

/// Checks a repeat against the first run of the same scenario and seed.
pub fn check_repeat(first: &Fingerprint, r: &RunReport) -> Result<(), String> {
    let now = Fingerprint::of(r);
    if &now == first {
        Ok(())
    } else {
        Err(format!(
            "counters differ across repeats of one seed: {first:?} vs {now:?}"
        ))
    }
}
