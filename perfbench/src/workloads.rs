//! The benchmark's workloads, why each was chosen, and what was left out.
//!
//! Every workload is built from the named scenario registry
//! (`besync_scenarios::by_name`) and then re-seeded from `--seed`, so the
//! simulator receives only generated inputs and the same seed always
//! gives the same inputs.

use besync::fault::{FaultProfile, RecoveryPolicy};
use besync_scenarios::{by_name, ScenarioSpec};

/// A seed kept out of every tuning run. A claimed gain must also hold
/// on it (run `--seed 9001`).
pub const HELD_OUT_SEED: u64 = 9001;

/// One benchmark workload: a fixed sequence of scenarios run back to
/// back. One pass over the sequence is one repeat.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Registry scenarios the workload is built from, in run order.
    scenarios: &'static [&'static str],
    /// Measured window in simulated seconds (`None` keeps the registry's).
    measure: Option<f64>,
    /// Fault profile applied on top of the registry scenario.
    fault: Option<FaultProfile>,
}

/// All three simulated-world fault classes at once.
const ALL_FAULTS: FaultProfile = FaultProfile {
    loss_prob: 0.15,
    outage_rate: 0.01,
    outage_duration: 12.0,
    outage_drops_queue: false,
    crash_rate: 0.004,
    crash_downtime: 10.0,
    recovery: RecoveryPolicy::Retransmit { deadline: 3.0 },
    aware: true,
};

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "coop_2k",
        why: "The §5 cooperative scheduler on `medium` (32×64 objects, staleness, \
              fault-free), horizon stretched 10×. About 1.7 MiB of state fits L2, so \
              per-update CPU work (updater, truth, source heap, feedback) dominates and \
              the queue is cheap: the bypass case for queue-geometry and memory-layout \
              changes.",
        scenarios: &["medium"],
        measure: Some(15_000.0),
        fault: None,
    },
    Workload {
        name: "coop_1m",
        why: "The same scheduler at `mega` scale (1024×1024 objects). Its ~730 MiB \
              peak exceeds the L3, so the calendar queue and memory layout dominate, \
              and set-up time and allocation peak matter: the throughput cliff \
              from 2k to 1M objects that the per-layer numbers must explain.",
        scenarios: &["mega"],
        measure: Some(5.0),
        fault: None,
    },
    Workload {
        name: "faults_2k",
        why: "`coop_2k` with all three fault classes at once: 15 % loss, retransmit \
              after 3 s, fault-aware; cache-link outages (0.01/s, 12 s, hold); source \
              crashes (0.004/s, 10 s). Same layers as `coop_2k` through the loss lane, \
              retry queue, recency guard, estimator and outage reorder: a delivery-path \
              change must show here and leave `coop_2k` unmoved.",
        scenarios: &["medium"],
        measure: Some(15_000.0),
        fault: Some(ALL_FAULTS),
    },
    Workload {
        name: "kinds_2k",
        why: "The other three system kinds back to back on the 2048-object regime: \
              `ideal_medium`, `cgm2_medium`, `competitive_lossy`. No other workload runs \
              their event loops (the yardstick for folding them into one kernel), and \
              `besync_baselines` is measured only here.",
        scenarios: &["ideal_medium", "cgm2_medium", "competitive_lossy"],
        measure: None,
        fault: None,
    },
];

/// What the benchmark deliberately does not measure, and why.
pub const LEFT_OUT: &[(&str, &str)] = &[
    (
        "sharded sweep grid",
        "multi-process runs on a 2-core machine measure the OS scheduler, not the simulator",
    ),
    (
        "buoy_week",
        "80 objects over a simulated week: nearly every dispatch is a tick, so it says little about any layer",
    ),
    (
        "besync-bench events_per_sec",
        "stays as it is, but counts updates + refreshes + feedback, which moves when scheduling \
         changes; this benchmark's unit of work is the source update",
    ),
];

impl Workload {
    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    /// The workload's scenarios, seeded from `seed` (workload draws and
    /// simulation-side phases and fault lanes alike).
    pub fn scenarios(&self, seed: u64) -> Vec<ScenarioSpec> {
        self.scenarios
            .iter()
            .map(|name| {
                let mut spec = by_name(name).expect("registry scenario exists");
                spec.seed = seed;
                spec.sim_seed = seed;
                if let Some(measure) = self.measure {
                    spec.measure = measure;
                }
                if self.fault.is_some() {
                    spec.fault = self.fault;
                }
                spec
            })
            .collect()
    }
}

/// `--describe`: the workloads, their rationale and the exclusions.
pub fn describe() -> String {
    let mut out = String::new();
    out.push_str(&format!("held-out seed: {HELD_OUT_SEED}\n\nworkloads:\n"));
    for w in WORKLOADS {
        let names = w.scenarios.join(", ");
        out.push_str(&format!("  {} [{names}]\n    {}\n", w.name, w.why));
    }
    out.push_str("\nleft out:\n");
    for (what, why) in LEFT_OUT {
        out.push_str(&format!("  {what}: {why}\n"));
    }
    out
}
