//! Cooperation in competitive environments (paper §7).
//!
//! Sources and the cache may disagree about what deserves to stay fresh:
//! the cache has one weighting (e.g. page importance in a Web index),
//! each source has its own (e.g. a retailer pushing its specials). The
//! paper's compromise dedicates a fraction `Ψ` of cache bandwidth to
//! *source* priorities:
//!
//! * options (1)/(2): sources get explicit refresh-rate allocations
//!   (equal, or proportional to their object counts) and spend them on
//!   their own highest-priority objects, while the remaining bandwidth
//!   runs the ordinary threshold protocol under the cache's priority;
//! * option (3): a source earns a piggyback entitlement of `Ψ/(1−Ψ)`
//!   own-choice refreshes per cache-priority refresh it performs, so
//!   sources that serve the cache well get proportionally more say.
//!
//! [`CompetitiveSystem`] extends the §5 machinery with a second,
//! source-weighted priority view per object; both objectives are
//! accounted against the same ground truth, so the Ψ trade-off is
//! directly measurable.

use besync_data::{TruthTable, WeightProfile, WeightSet};
use besync_sim::SimTime;
use besync_workloads::WorkloadSpec;

use crate::cache::partition::{BandwidthPartition, PiggybackCredit, SharePolicy};
use crate::config::SystemConfig;
use crate::delivery::{Delivery, RefreshMsg};
use crate::fault::RecoveryPolicy;
use crate::heap::IndexedMaxHeap;
use crate::kernel::Kernel;
use crate::priority::PolicyKind;
use crate::report::RunReport;
use crate::source::SourceRuntime;
use crate::system::Coop;

/// Configuration of a §7 competitive run.
#[derive(Debug, Clone)]
pub struct CompetitiveConfig {
    /// The base system configuration. The workload's weight profiles are
    /// the **cache's** priorities; the policy must be
    /// [`PolicyKind::Area`] (the §7 machinery derives both priority views
    /// from the shared area tracker).
    pub base: SystemConfig,
    /// Each object's weight under its **source's** objectives.
    pub source_weights: Vec<WeightProfile>,
    /// The Ψ partition.
    pub partition: BandwidthPartition,
}

/// Outcome of a competitive run: both objectives, measured on the same
/// ground truth.
#[derive(Debug, Clone)]
pub struct CompetitiveReport {
    /// Weighted mean divergence under the cache's weights.
    pub cache_objective: f64,
    /// Weighted mean divergence under the sources' weights.
    pub source_objective: f64,
    /// Refreshes sent through the threshold (cache-priority) pool.
    pub threshold_refreshes: u64,
    /// Refreshes sent from source allocations / piggyback entitlements.
    pub source_refreshes: u64,
    /// Positive feedback messages sent.
    pub feedback_messages: u64,
}

/// The §7 competitive synchronization system: the §5 cooperative model
/// plus a `Competition`, both objectives accounted on the same events.
pub struct CompetitiveSystem {
    kernel: Kernel<Coop>,
}

/// What §7 adds to the cooperative model: each source's own-priority
/// view and its share of the Ψ partition. The hooks the model calls are
/// kept out of line, so its per-source send loop stays small and cheap.
pub(crate) struct Competition {
    partition: BandwidthPartition,
    /// Per-source own-priority heap (source weights).
    own_heaps: Vec<IndexedMaxHeap>,
    /// The sources' own priorities' weights, dense-constant fast path
    /// (see [`WeightSet`]); `own_priority` re-derives quotes per send.
    source_weights: WeightSet,
    /// Options (1)/(2): per-source allocated refresh rate, credited per
    /// tick, and accrued credit.
    allocations: Vec<f64>,
    tick: f64,
    own_credit: Vec<f64>,
    /// Option (3): piggyback entitlements.
    piggyback: Vec<PiggybackCredit>,
    threshold_refreshes: u64,
    source_refreshes: u64,
}

impl CompetitiveSystem {
    /// Builds the competitive system.
    ///
    /// # Panics
    ///
    /// Panics if the base policy is not [`PolicyKind::Area`], the spec is
    /// inconsistent, or `source_weights` doesn't cover every object.
    pub fn new(cfg: CompetitiveConfig, spec: WorkloadSpec) -> Self {
        let base = cfg.base;
        assert!(
            matches!(base.policy, PolicyKind::Area),
            "competitive runs require the Area policy"
        );
        spec.validate().expect("invalid workload spec");
        assert_eq!(
            cfg.source_weights.len(),
            spec.total_objects(),
            "one source weight per object"
        );
        // The §7 harness supports loss faults only: outage and crash
        // episodes and a retransmit queue are modelled by the
        // cooperative system alone, so reject profiles this harness would
        // silently mis-simulate.
        if let Some(profile) = base.fault {
            profile.validate().expect("invalid fault profile");
            assert!(
                profile.outage_rate == 0.0 && profile.crash_rate == 0.0,
                "competitive harness supports loss faults only"
            );
            assert!(
                matches!(profile.recovery, RecoveryPolicy::DegradeStale),
                "competitive harness supports degrade-to-stale loss recovery only"
            );
        }
        let layout = spec.layout;
        let m = layout.sources() as usize;
        let per_source = layout.objects_per_source();
        let source_truth = TruthTable::new(
            base.metric,
            &spec.initial_values,
            cfg.source_weights.clone(),
        );
        let allocations = match cfg.partition.policy {
            SharePolicy::ProportionalToValue => vec![0.0; m],
            _ => cfg
                .partition
                .allocations(base.cache_bandwidth_mean, &vec![per_source; m], None),
        };
        let competition = Competition {
            partition: cfg.partition,
            own_heaps: (0..m)
                .map(|_| IndexedMaxHeap::new(per_source as usize))
                .collect(),
            source_weights: WeightSet::new(cfg.source_weights),
            allocations,
            tick: base.tick,
            own_credit: vec![0.0; m],
            piggyback: vec![PiggybackCredit::default(); m],
            threshold_refreshes: 0,
            source_refreshes: 0,
        };
        CompetitiveSystem {
            kernel: Coop::kernel(base, spec, Some((competition, source_truth))),
        }
    }

    /// Runs to the horizon and reports both objectives.
    pub fn run(mut self) -> CompetitiveReport {
        let horizon = self.kernel.run();
        let m = &self.kernel.model;
        let c = m.competition.as_ref().expect("competitive model");
        CompetitiveReport {
            cache_objective: m.truths[0].report(horizon).mean_weighted,
            source_objective: m.truths[1].report(horizon).mean_weighted,
            threshold_refreshes: c.threshold_refreshes,
            source_refreshes: c.source_refreshes,
            feedback_messages: m.delivery.cache.feedback_sent,
        }
    }

    /// Runs to the horizon and reports in the common [`RunReport`] shape
    /// shared by every other system — divergence is the **cache**
    /// objective (the §7 analogue of the base protocol's weighted mean),
    /// refreshes are the threshold + source-entitlement pools combined.
    /// Harnesses that need the source-side objective use [`Self::run`].
    pub fn run_report(mut self) -> RunReport {
        self.kernel.run();
        self.kernel.report()
    }
}

impl Competition {
    fn own_priority(&self, now: SimTime, source: &SourceRuntime, local: u32) -> f64 {
        let obj = source.global(local).index();
        source.raw_area_priority(now, local) * self.source_weights.weight_at(obj, now)
    }

    /// Quotes an updated object's own priority.
    pub(crate) fn quote(&mut self, now: SimTime, source: &SourceRuntime, local: u32) {
        let p = self.own_priority(now, source, local);
        self.own_heaps[source.id.index()].push(local, p);
    }

    /// Options (1)/(2): each source spends its accrued allocation on its
    /// own top objects, regardless of the threshold pool's state.
    #[inline(never)]
    pub(crate) fn allocation_sends(
        &mut self,
        now: SimTime,
        sources: &mut [SourceRuntime],
        delivery: &mut Delivery,
        truths: &mut [TruthTable],
    ) {
        for (sid, source) in sources.iter_mut().enumerate() {
            self.own_credit[sid] =
                (self.own_credit[sid] + self.allocations[sid] * self.tick).min(2.0);
            while self.own_credit[sid] >= 1.0 {
                if !self.send_own_top(now, source, delivery, truths) {
                    break;
                }
                self.own_credit[sid] -= 1.0;
            }
        }
    }

    /// A threshold-pool send of `local` happened: withdraw its own quote
    /// and, under option (3), spend the piggyback credit it earned on
    /// own-priority sends.
    #[inline(never)]
    pub(crate) fn on_threshold_send(
        &mut self,
        now: SimTime,
        local: u32,
        source: &mut SourceRuntime,
        delivery: &mut Delivery,
        truths: &mut [TruthTable],
    ) {
        let sid = source.id.index();
        self.own_heaps[sid].invalidate(local);
        self.threshold_refreshes += 1;
        if matches!(self.partition.policy, SharePolicy::ProportionalToValue) {
            self.piggyback[sid].earn(self.partition.piggyback_ratio());
            while self.piggyback[sid].try_spend() {
                if !self.send_own_top(now, source, delivery, truths) {
                    break;
                }
            }
        }
    }

    /// Sends the source's own-priority top object, if it has one with
    /// positive priority and uplink credit. Returns whether a send
    /// happened.
    fn send_own_top(
        &mut self,
        now: SimTime,
        source: &mut SourceRuntime,
        delivery: &mut Delivery,
        truths: &mut [TruthTable],
    ) -> bool {
        let sid = source.id.index();
        while let Some((quoted, local)) = self.own_heaps[sid].peek_valid() {
            // Re-derive with the current weight; quotes are lazy.
            let p = self.own_priority(now, source, local);
            if quoted <= 0.0 && p <= 0.0 {
                return false;
            }
            if p <= 0.0 {
                // Stale quote; refresh it and retry.
                self.own_heaps[sid].push(local, p);
                continue;
            }
            if !source.uplink.try_consume(now, 1.0) {
                return false;
            }
            let snapshot = source.mark_sent_unthrottled(now, local);
            self.own_heaps[sid].invalidate(local);
            self.source_refreshes += 1;
            delivery.offer(now, RefreshMsg::new(source, local, snapshot), truths);
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_data::Metric;
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    /// Cache wants the first half of each source's objects; sources want
    /// the second half.
    fn conflicted() -> (WorkloadSpec, Vec<WeightProfile>) {
        let mut spec = random_walk_poisson(
            PoissonWorkloadOptions {
                sources: 4,
                objects_per_source: 10,
                rate_range: (0.1, 0.8),
                weight_range: (1.0, 1.0),
                fluctuating_weights: false,
            },
            5,
        );
        let n = spec.layout.objects_per_source();
        let mut source_weights = Vec::new();
        for obj in spec.layout.all_objects() {
            let local = obj.0 % n;
            let cache_w = if local < n / 2 { 10.0 } else { 1.0 };
            let source_w = if local < n / 2 { 1.0 } else { 10.0 };
            spec.weights[obj.index()] = WeightProfile::constant(cache_w);
            source_weights.push(WeightProfile::constant(source_w));
        }
        (spec, source_weights)
    }

    fn base_cfg() -> SystemConfig {
        SystemConfig {
            metric: Metric::Staleness,
            cache_bandwidth_mean: 8.0,
            source_bandwidth_mean: 4.0,
            warmup: 30.0,
            measure: 150.0,
            ..SystemConfig::default()
        }
    }

    fn run_with(psi: f64, policy: SharePolicy) -> CompetitiveReport {
        let (spec, source_weights) = conflicted();
        CompetitiveSystem::new(
            CompetitiveConfig {
                base: base_cfg(),
                source_weights,
                partition: BandwidthPartition::new(psi, policy),
            },
            spec,
        )
        .run()
    }

    #[test]
    fn psi_zero_matches_plain_protocol_shape() {
        let r = run_with(0.0, SharePolicy::EqualShare);
        assert_eq!(r.source_refreshes, 0);
        assert!(r.threshold_refreshes > 0);
    }

    #[test]
    fn psi_shifts_the_objectives() {
        let none = run_with(0.0, SharePolicy::EqualShare);
        let half = run_with(0.5, SharePolicy::EqualShare);
        // Giving sources bandwidth must help their objective...
        assert!(
            half.source_objective < none.source_objective,
            "source objective should improve: {} -> {}",
            none.source_objective,
            half.source_objective
        );
        assert!(half.source_refreshes > 0);
    }

    #[test]
    fn piggyback_option_sends_source_refreshes() {
        let r = run_with(0.5, SharePolicy::ProportionalToValue);
        assert!(r.source_refreshes > 0);
        // Ratio 1:1 at Ψ=0.5 — piggybacks bounded by threshold sends
        // (plus own-heap availability).
        assert!(r.source_refreshes <= r.threshold_refreshes + 1);
    }

    #[test]
    fn run_report_is_consistent_with_the_competitive_report() {
        // Same deterministic build both times: the RunReport adapter must
        // agree with the §7 report on every shared quantity.
        let (spec, source_weights) = conflicted();
        let report = CompetitiveSystem::new(
            CompetitiveConfig {
                base: base_cfg(),
                source_weights,
                partition: BandwidthPartition::new(0.4, SharePolicy::ProportionalToValue),
            },
            spec,
        )
        .run();
        let (spec, source_weights) = conflicted();
        let rr = CompetitiveSystem::new(
            CompetitiveConfig {
                base: base_cfg(),
                source_weights,
                partition: BandwidthPartition::new(0.4, SharePolicy::ProportionalToValue),
            },
            spec,
        )
        .run_report();
        assert_eq!(
            rr.refreshes_sent,
            report.threshold_refreshes + report.source_refreshes
        );
        assert_eq!(rr.feedback_messages, report.feedback_messages);
        assert_eq!(rr.divergence.mean_weighted, report.cache_objective);
        assert!(rr.updates_processed > 0);
        assert!(rr.refreshes_delivered > 0 && rr.refreshes_delivered <= rr.refreshes_sent);
        assert_eq!(rr.polls_sent, 0);
    }

    #[test]
    fn loss_degrades_the_competitive_objectives_and_is_accounted() {
        use crate::fault::FaultProfile;
        let build = |fault: Option<FaultProfile>| {
            let (spec, source_weights) = conflicted();
            CompetitiveSystem::new(
                CompetitiveConfig {
                    base: SystemConfig {
                        fault,
                        ..base_cfg()
                    },
                    source_weights,
                    partition: BandwidthPartition::new(0.4, SharePolicy::ProportionalToValue),
                },
                spec,
            )
        };
        let clean = build(None).run_report();
        assert!(!clean.faults.any());
        let lossy = build(Some(FaultProfile {
            loss_prob: 0.3,
            ..FaultProfile::default()
        }))
        .run_report();
        assert!(lossy.faults.lost_refreshes > 0);
        assert_eq!(lossy.faults.retransmits, 0);
        assert!(
            lossy.refreshes_delivered + lossy.faults.lost_refreshes <= lossy.refreshes_sent,
            "delivered {} + lost {} > sent {}",
            lossy.refreshes_delivered,
            lossy.faults.lost_refreshes,
            lossy.refreshes_sent
        );
        assert!(
            lossy.mean_divergence() > clean.mean_divergence(),
            "loss {} vs clean {}",
            lossy.mean_divergence(),
            clean.mean_divergence()
        );
        // A zero-intensity profile must match `None` exactly: the lane
        // draws change no delivery outcome at prob 0.
        let gated = build(Some(FaultProfile::default())).run_report();
        assert_eq!(
            clean.mean_divergence().to_bits(),
            gated.mean_divergence().to_bits()
        );
        assert_eq!(clean.refreshes_sent, gated.refreshes_sent);
        assert!(!gated.faults.any());
    }

    #[test]
    #[should_panic(expected = "loss faults only")]
    fn competitive_rejects_outage_profiles() {
        use crate::fault::FaultProfile;
        let (spec, source_weights) = conflicted();
        let _ = CompetitiveSystem::new(
            CompetitiveConfig {
                base: SystemConfig {
                    fault: Some(FaultProfile {
                        outage_rate: 0.1,
                        outage_duration: 5.0,
                        ..FaultProfile::default()
                    }),
                    ..base_cfg()
                },
                source_weights,
                partition: BandwidthPartition::new(0.4, SharePolicy::ProportionalToValue),
            },
            spec,
        );
    }

    #[test]
    fn proportional_share_equals_equal_share_for_uniform_sources() {
        // All sources own the same number of objects, so options 1 and 2
        // coincide exactly.
        let a = run_with(0.4, SharePolicy::EqualShare);
        let b = run_with(0.4, SharePolicy::ProportionalToObjects);
        assert_eq!(a.source_refreshes, b.source_refreshes);
        assert_eq!(a.cache_objective, b.cache_objective);
    }
}
