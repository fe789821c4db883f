//! The idealized cooperative scheduler (paper §3.3).
//!
//! The paper's yardstick: "all sources and the cache share knowledge
//! about each others' state without using network resources, and sources
//! are aware of available cache-side bandwidth. ... Each time there is
//! enough cache-side bandwidth to accept a refresh, the object with the
//! highest refresh priority among all objects at all sources should be
//! refreshed. If the source containing the highest priority object does
//! not have enough source-side bandwidth ... the object with the second
//! highest priority overall should be refreshed instead, and so on."
//!
//! [`IdealSystem`] implements exactly that with a global priority heap and
//! instantaneous (zero-latency, zero-overhead) refreshes. Its measured
//! divergence is the "theoretically achievable divergence" on the x-axis
//! of Figure 4 and the "ideal cooperative" curves of Figures 5–6.

use besync_data::ids::ObjectLayout;
use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_sim::stats::RunningStats;
use besync_sim::SimTime;
use besync_workloads::WorkloadSpec;

use crate::config::SystemConfig;
use crate::delivery::Loss;
use crate::kernel::{Events, Kernel, Model, Shape};
use crate::report::RunReport;
use crate::source::SourceRuntime;

/// The omniscient scheduler defining "theoretically achievable"
/// divergence.
///
/// Runs on the shared [`Kernel`]. The global priority order is the
/// indexed heap of one [`SourceRuntime`] spanning every object; its own
/// uplink and threshold go unused, since the §3.3 rule is bounded by the
/// per-source uplinks and the cache link instead.
/// `tests/scheduler_equivalence.rs` pins the trajectories.
pub struct IdealSystem {
    kernel: Kernel<Ideal>,
}

/// The ideal scheduler as a kernel [`Model`].
struct Ideal {
    layout: ObjectLayout,
    truth: TruthTable,
    /// Every object's state and quote, in global object order.
    book: SourceRuntime,
    uplinks: Vec<Link<()>>,
    cache_link: Link<()>,
    stash: Vec<(f64, u32)>,
    /// The ideal scheduler has no message queue or link outages: of the
    /// simulated-world fault classes only loss applies, which is what
    /// the loss-sweep figure compares systems under.
    loss: Loss,
    time_dependent: bool,
}

impl IdealSystem {
    /// Builds the idealized system from the same configuration/workload a
    /// [`crate::CoopSystem`] takes, so the two are directly comparable on
    /// identical update sequences.
    pub fn new(cfg: SystemConfig, spec: WorkloadSpec) -> Self {
        spec.validate().expect("invalid workload spec");
        let layout = spec.layout;
        let truth = TruthTable::new(cfg.metric, &spec.initial_values, spec.weights.clone());
        let shape = Shape::of(&cfg, spec.rates.iter().sum());
        let rngs = spec.object_rngs();
        let book = SourceRuntime::new(
            SourceId(0),
            0,
            &spec.initial_values,
            spec.weights,
            spec.rates,
            Link::new(cfg.source_wave(0)),
            cfg.threshold_params(1),
            cfg.metric,
            cfg.policy,
            cfg.estimator,
            cfg.bound_rates.clone(),
            SimTime::ZERO,
        );
        let model = Ideal {
            uplinks: layout
                .all_sources()
                .map(|s| Link::new(cfg.source_wave(s.0)))
                .collect(),
            cache_link: Link::new(cfg.cache_wave()),
            loss: Loss::new(cfg.fault.as_ref(), cfg.sim_seed),
            time_dependent: !cfg.policy.piecewise_constant(),
            layout,
            truth,
            book,
            stash: Vec::new(),
        };
        IdealSystem {
            kernel: Kernel::new(model, shape, spec.updaters, rngs),
        }
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        let horizon = self.kernel.run();
        let m = &self.kernel.model;
        RunReport {
            divergence: m.truth.report(horizon),
            refreshes_sent: m.book.sends,
            refreshes_delivered: m.book.sends - m.loss.lost(),
            feedback_messages: 0,
            polls_sent: 0,
            max_cache_queue: 0,
            mean_queue_wait: 0.0,
            threshold_stats: RunningStats::new(),
            updates_processed: self.kernel.updates_processed(),
            faults: m.loss.summary(),
        }
    }
}

impl Model for Ideal {
    #[inline]
    fn value(&self, obj: ObjectId) -> f64 {
        self.book.state(obj.0).value
    }

    fn on_update(&mut self, now: SimTime, obj: ObjectId, value: f64) {
        let weight = self.truth.source_update(now, obj, value);
        self.book.record_update_weighted(now, obj.0, value, weight);
        self.drain(now);
    }

    fn on_tick(&mut self, now: SimTime, _events: &mut Events) {
        if self.time_dependent {
            self.book.requote_all(now);
        }
        self.drain(now);
    }

    fn on_warmup(&mut self, now: SimTime) {
        self.truth.begin_measurement(now);
    }
}

impl Ideal {
    /// Refresh the globally highest-priority feasible object while
    /// cache-side credit lasts, skipping (but retaining) objects whose
    /// source uplink is exhausted — the §3.3 rule.
    fn drain(&mut self, now: SimTime) {
        self.stash.clear();
        loop {
            if self.cache_link.credit(now) < 1.0 {
                break;
            }
            let Some((p, obj)) = self.book.heap.peek_valid() else {
                break;
            };
            if p <= 0.0 {
                break;
            }
            self.book.heap.pop_valid();
            let sid = self.layout.source_of(ObjectId(obj));
            if !self.uplinks[sid.index()].try_consume(now, 1.0) {
                // Source-side constrained: skip to the next-highest.
                self.stash.push((p, obj));
                continue;
            }
            let consumed = self.cache_link.try_consume(now, 1.0);
            debug_assert!(consumed, "credit checked above");
            self.book.mark_sent_unthrottled(now, obj);
            // The scheduler believes the refresh succeeded either way
            // (the sending side cannot observe a silent loss).
            if !self.loss.draw() {
                // Instantaneous and perfectly fresh (the idealized
                // assumption).
                self.truth.apply_fresh_refresh(now, ObjectId(obj));
            }
        }
        // Skipped objects keep their quotes for the next opportunity.
        for &(p, obj) in &self.stash {
            self.book.heap.push(obj, p);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    fn spec(seed: u64) -> WorkloadSpec {
        random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 4,
                objects_per_source: 5,
                rate_range: (0.05, 0.5),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            seed,
        )
    }

    fn cfg() -> SystemConfig {
        SystemConfig {
            cache_bandwidth_mean: 10.0,
            source_bandwidth_mean: 5.0,
            warmup: 20.0,
            measure: 100.0,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn runs_and_reports() {
        let r = IdealSystem::new(cfg(), spec(1)).run();
        assert!(r.refreshes_sent > 0);
        assert!(r.mean_divergence() >= 0.0);
        assert_eq!(r.feedback_messages, 0);
        assert_eq!(r.max_cache_queue, 0);
    }

    #[test]
    fn deterministic() {
        let a = IdealSystem::new(cfg(), spec(9)).run();
        let b = IdealSystem::new(cfg(), spec(9)).run();
        assert_eq!(a.mean_divergence(), b.mean_divergence());
        assert_eq!(a.refreshes_sent, b.refreshes_sent);
    }

    #[test]
    fn more_bandwidth_never_hurts_much() {
        let tight = IdealSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 1.0,
                ..cfg()
            },
            spec(3),
        )
        .run();
        let ample = IdealSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 100.0,
                source_bandwidth_mean: 100.0,
                ..cfg()
            },
            spec(3),
        )
        .run();
        assert!(ample.mean_divergence() <= tight.mean_divergence() + 1e-9);
        // With bandwidth ≫ update rate, near-zero staleness.
        assert!(
            ample.mean_divergence() < 0.05,
            "{}",
            ample.mean_divergence()
        );
    }

    #[test]
    fn respects_source_side_limits() {
        // One source with zero uplink: its objects can never refresh, so
        // they should pile up divergence while others stay synced.
        let mut s = spec(4);
        // All objects of source 0 get huge update rates; cap the sim by
        // checking the run completes and divergence is sane.
        s.rates.iter_mut().for_each(|r| *r = 0.2);
        let r = IdealSystem::new(
            SystemConfig {
                source_bandwidth_mean: 0.0,
                cache_bandwidth_mean: 100.0,
                ..cfg()
            },
            s,
        )
        .run();
        // No source bandwidth at all → no refreshes anywhere.
        assert_eq!(r.refreshes_sent, 0);
        assert!(r.mean_divergence() > 0.5);
    }
}
