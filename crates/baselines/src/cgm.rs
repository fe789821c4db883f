//! The CGM cache-driven schedulers (paper §6.3).
//!
//! "In their approach ... the cache schedules all refreshes and polls
//! sources for values. The refresh frequency for each object Oᵢ is set
//! independently based on an estimate of its average update rate λᵢ."
//!
//! Three variants, matching Figure 6's curves:
//!
//! * [`CgmVariant::IdealCacheBased`] — no polling cost (each refresh is 1
//!   message) and oracle knowledge of every λᵢ; the freshness-optimal
//!   allocation is computed once and followed forever.
//! * [`CgmVariant::Cgm1`] — refreshes cost a round trip (2 messages), and
//!   rates are estimated from last-modified times reported by sources.
//! * [`CgmVariant::Cgm2`] — as CGM1 but only binary change detection.
//!
//! Practical variants start from a uniform allocation, poll, estimate,
//! and periodically re-solve the allocation with the current estimates.
//! A small exploration floor keeps every object polled occasionally so a
//! pessimistic early estimate cannot starve it forever (the original
//! experiments re-tuned by repeated runs; the floor is our equivalent
//! safeguard, recorded in DESIGN.md).

use std::collections::VecDeque;

use besync::delivery::Loss;
use besync::fault::FaultProfile;
use besync::kernel::{Events, Kernel, Model, Shape};
use besync::report::RunReport;
use besync_data::{Metric, ObjectId, TruthTable};
use besync_net::Link;
use besync_sim::rng::{self, streams};
use besync_sim::stats::RunningStats;
use besync_sim::{SimTime, Wave};
use besync_workloads::WorkloadSpec;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::estimators::{
    BinaryChangeEstimator, ChangeObservation, LastModifiedEstimator, RateEstimate,
};
use crate::freshness::allocate;

/// Which CGM flavour to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CgmVariant {
    /// Free polling + oracle rates ("ideal cache-based").
    IdealCacheBased,
    /// Round-trip polling, last-modified-time estimation.
    Cgm1,
    /// Round-trip polling, binary change detection.
    Cgm2,
}

impl CgmVariant {
    /// Bandwidth units one refresh costs under this variant.
    pub fn cost_per_refresh(self) -> f64 {
        match self {
            CgmVariant::IdealCacheBased => 1.0,
            CgmVariant::Cgm1 | CgmVariant::Cgm2 => 2.0,
        }
    }

    /// Display name matching the paper's figure legends.
    pub fn name(self) -> &'static str {
        match self {
            CgmVariant::IdealCacheBased => "ideal cache-based",
            CgmVariant::Cgm1 => "CGM1",
            CgmVariant::Cgm2 => "CGM2",
        }
    }
}

/// Configuration of a CGM run.
#[derive(Debug, Clone)]
pub struct CgmConfig {
    /// Which variant.
    pub variant: CgmVariant,
    /// Divergence metric accounted (CGM optimizes staleness; other
    /// metrics are measured but not targeted).
    pub metric: Metric,
    /// Average cache-side bandwidth (messages/second). The CGM polling
    /// model assumes no source-side limits (§6.3).
    pub cache_bandwidth_mean: f64,
    /// The paper holds bandwidth constant for this comparison (`m_B = 0`);
    /// nonzero values are supported for extensions.
    pub bandwidth_change_rate: f64,
    /// How often practical variants re-solve the allocation (seconds).
    pub realloc_period: f64,
    /// Fraction of the poll budget reserved as a uniform exploration
    /// floor (practical variants only).
    pub exploration_floor: f64,
    /// Simulation tick.
    pub tick: f64,
    /// Warm-up duration (seconds).
    pub warmup: f64,
    /// Measured duration (seconds).
    pub measure: f64,
    /// Simulation-side seed (phases).
    pub sim_seed: u64,
    /// Simulated-world fault profile. CGM polls over the same unreliable
    /// medium, so of the fault classes only refresh (poll-response) loss
    /// applies; `None` keeps the fault-free path bit-identical.
    pub fault: Option<FaultProfile>,
}

impl Default for CgmConfig {
    fn default() -> Self {
        CgmConfig {
            variant: CgmVariant::IdealCacheBased,
            metric: Metric::Staleness,
            cache_bandwidth_mean: 50.0,
            bandwidth_change_rate: 0.0,
            realloc_period: 50.0,
            exploration_floor: 0.1,
            tick: 1.0,
            warmup: 100.0,
            measure: 500.0,
            sim_seed: 0,
            fault: None,
        }
    }
}

impl CgmConfig {
    /// End of the run.
    pub fn horizon(&self) -> f64 {
        self.warmup + self.measure
    }

    /// The refresh budget in refreshes/second (bandwidth divided by the
    /// per-refresh message cost).
    pub fn refresh_budget(&self) -> f64 {
        self.cache_bandwidth_mean / self.variant.cost_per_refresh()
    }
}

enum Estimator {
    Oracle,
    LastModified(LastModifiedEstimator),
    Binary(BinaryChangeEstimator),
}

/// A running CGM scheduler over a workload.
///
/// Runs on the shared [`Kernel`]. CGM has **two** independent pending
/// events per object: its next update (the object slot) and its next
/// poll (extra slot `i`, guarded by `poll_scheduled`, so each slot holds
/// at most one pending event); extra slot `n` carries the re-allocation
/// timer. `tests/scheduler_equivalence.rs` pins the trajectories.
pub struct CgmSystem {
    kernel: Kernel<Cgm>,
}

/// The CGM poller as a kernel [`Model`].
struct Cgm {
    cfg: CgmConfig,
    truth: TruthTable,
    sched_rng: SmallRng,
    true_rates: Vec<f64>,
    freqs: Vec<f64>,
    estimators: Vec<Estimator>,
    last_update_time: Vec<SimTime>,
    last_poll_time: Vec<SimTime>,
    last_poll_updates: Vec<u64>,
    poll_scheduled: Vec<bool>,
    link: Link<()>,
    pending: VecDeque<u32>,
    /// Largest poll backlog seen.
    max_pending: usize,
    polls: u64,
    /// CGM polls over the same unreliable medium: of the fault classes
    /// only poll-response loss applies.
    loss: Loss,
}

impl CgmSystem {
    /// Builds a CGM run over the workload (sources in the layout are
    /// irrelevant to CGM, which sees a flat set of objects).
    pub fn new(cfg: CgmConfig, spec: WorkloadSpec) -> Self {
        spec.validate().expect("invalid workload spec");
        let total = spec.total_objects();
        let truth = TruthTable::new(cfg.metric, &spec.initial_values, spec.weights.clone());
        let budget = cfg.refresh_budget();

        let freqs = match cfg.variant {
            CgmVariant::IdealCacheBased => allocate(&spec.rates, budget),
            _ => vec![budget / total as f64; total],
        };
        let estimators = (0..total)
            .map(|_| match cfg.variant {
                CgmVariant::IdealCacheBased => Estimator::Oracle,
                CgmVariant::Cgm1 => Estimator::LastModified(LastModifiedEstimator::new()),
                CgmVariant::Cgm2 => Estimator::Binary(BinaryChangeEstimator::new()),
            })
            .collect();

        // Extra slots: one poll per object plus the re-allocation timer;
        // the polls spend the whole refresh budget in steady state.
        let shape = Shape {
            tick: cfg.tick,
            warmup: cfg.warmup,
            horizon: cfg.horizon(),
            update_rate: spec.rates.iter().sum(),
            extra_rate: budget,
            extra_slots: total + 1,
        };
        let rngs = spec.object_rngs();
        let model = Cgm {
            truth,
            sched_rng: rng::stream_rng(cfg.sim_seed, streams::SCHEDULER),
            true_rates: spec.rates,
            freqs,
            estimators,
            last_update_time: vec![SimTime::ZERO; total],
            last_poll_time: vec![SimTime::ZERO; total],
            last_poll_updates: vec![0; total],
            poll_scheduled: vec![false; total],
            link: Link::new(Wave::fluctuating(
                cfg.cache_bandwidth_mean,
                cfg.bandwidth_change_rate,
                0.0,
            )),
            pending: VecDeque::new(),
            max_pending: 0,
            polls: 0,
            loss: Loss::new(cfg.fault.as_ref(), cfg.sim_seed),
            cfg,
        };
        CgmSystem {
            kernel: Kernel::new(model, shape, spec.updaters, rngs),
        }
    }

    /// Runs to the horizon and reports.
    pub fn run(mut self) -> RunReport {
        let horizon = self.kernel.run();
        let m = &self.kernel.model;
        let oracle = matches!(m.cfg.variant, CgmVariant::IdealCacheBased);
        RunReport {
            divergence: m.truth.report(horizon),
            refreshes_sent: m.polls,
            refreshes_delivered: m.polls - m.loss.lost(),
            feedback_messages: 0,
            polls_sent: if oracle { 0 } else { m.polls },
            max_cache_queue: m.max_pending,
            mean_queue_wait: 0.0,
            threshold_stats: RunningStats::new(),
            updates_processed: self.kernel.updates_processed(),
            faults: m.loss.summary(),
        }
    }
}

impl Model for Cgm {
    #[inline]
    fn value(&self, obj: ObjectId) -> f64 {
        self.truth.truth(obj).source_value
    }

    fn on_update(&mut self, now: SimTime, obj: ObjectId, value: f64) {
        self.truth.source_update(now, obj, value);
        self.last_update_time[obj.index()] = now;
    }

    fn on_tick(&mut self, now: SimTime, events: &mut Events) {
        let cost = self.cfg.variant.cost_per_refresh();
        while !self.pending.is_empty() && self.link.try_consume(now, cost) {
            let obj = ObjectId(self.pending.pop_front().expect("checked non-empty"));
            self.do_poll(now, obj);
            self.schedule_next_poll(now, obj, events);
        }
    }

    fn on_warmup(&mut self, now: SimTime) {
        self.truth.begin_measurement(now);
    }

    fn on_extra(&mut self, now: SimTime, k: u32, events: &mut Events) {
        if (k as usize) < self.freqs.len() {
            self.on_poll_due(now, ObjectId(k), events);
        } else {
            self.on_realloc(now, events);
        }
    }

    /// Scheduling order matters: the queue breaks same-instant ties by
    /// schedule order, and this order (warm-up, tick, realloc, then
    /// update/poll per object) is the one the pinned trajectories were
    /// recorded under.
    fn schedule_initial(&mut self, events: &mut Events) {
        let n = self.freqs.len() as u32;
        if !matches!(self.cfg.variant, CgmVariant::IdealCacheBased) {
            events.schedule_extra(n, SimTime::new(self.cfg.realloc_period));
        }
        for i in 0..n {
            events.schedule_first_update(i);
            let f = self.freqs[i as usize];
            if f > 0.0 {
                // Random phase so periodic refreshes don't all collide.
                let phase = self.sched_rng.gen_range(0.0..1.0) / f;
                events.schedule_extra(i, SimTime::new(phase.min(self.cfg.horizon())));
                self.poll_scheduled[i as usize] = true;
            }
        }
    }
}

impl Cgm {
    fn on_poll_due(&mut self, now: SimTime, obj: ObjectId, events: &mut Events) {
        let idx = obj.index();
        self.poll_scheduled[idx] = false;
        let cost = self.cfg.variant.cost_per_refresh();
        if self.link.try_consume(now, cost) {
            self.do_poll(now, obj);
            self.schedule_next_poll(now, obj, events);
        } else {
            // Not enough bandwidth right now: wait in FIFO order for the
            // tick drain (a poll "queued in the network").
            self.pending.push_back(obj.0);
            self.max_pending = self.max_pending.max(self.pending.len());
        }
    }

    fn do_poll(&mut self, now: SimTime, obj: ObjectId) {
        // A lost poll response burns the round trip but teaches the cache
        // nothing: no estimator observation, no refresh, and the poll
        // bookkeeping stays put so the next response covers the gap.
        if self.loss.draw() {
            self.polls += 1;
            return;
        }
        let idx = obj.index();
        let interval = (now - self.last_poll_time[idx]).max(1e-9);
        let changed = self.truth.truth(obj).source_updates > self.last_poll_updates[idx];
        // CGM1 learns the last-modified time; CGM2 only that a change
        // happened, placed mid-interval.
        let age = match self.estimators[idx] {
            Estimator::Binary(_) => interval / 2.0,
            _ => now - self.last_update_time[idx],
        };
        let obs = if changed {
            ChangeObservation::Changed { age }
        } else {
            ChangeObservation::Unchanged
        };
        match &mut self.estimators[idx] {
            Estimator::Oracle => {}
            Estimator::LastModified(e) => e.observe(interval, obs),
            Estimator::Binary(e) => e.observe(interval, obs),
        }
        // The poll response carries the current value: a perfectly fresh
        // refresh (propagation neglected, as in the paper).
        self.truth.apply_fresh_refresh(now, obj);
        self.last_poll_time[idx] = now;
        self.last_poll_updates[idx] = self.truth.truth(obj).source_updates;
        self.polls += 1;
    }

    fn schedule_next_poll(&mut self, now: SimTime, obj: ObjectId, events: &mut Events) {
        let idx = obj.index();
        let f = self.freqs[idx];
        if f > 0.0 && !self.poll_scheduled[idx] {
            events.schedule_extra(obj.0, now + 1.0 / f);
            self.poll_scheduled[idx] = true;
        }
    }

    fn on_realloc(&mut self, now: SimTime, events: &mut Events) {
        let budget = self.cfg.refresh_budget();
        let n = self.freqs.len();
        let fallback = budget / n as f64;
        let rates_hat: Vec<f64> = self
            .estimators
            .iter()
            .enumerate()
            .map(|(i, e)| match e {
                Estimator::Oracle => self.true_rates[i],
                Estimator::LastModified(e) => e.estimate(fallback),
                Estimator::Binary(e) => e.estimate(fallback),
            })
            .collect();
        let mut freqs = allocate(&rates_hat, budget);
        // Exploration floor: keep every object polled occasionally so
        // estimates can recover, then re-normalize to the budget.
        let floor = self.cfg.exploration_floor * budget / n as f64;
        if floor > 0.0 {
            for f in &mut freqs {
                if *f < floor {
                    *f = floor;
                }
            }
            let sum: f64 = freqs.iter().sum();
            if sum > 0.0 {
                let scale = budget / sum;
                for f in &mut freqs {
                    *f *= scale;
                }
            }
        }
        self.freqs = freqs;
        // Revive objects that had zero frequency (no scheduled poll).
        for i in 0..n {
            if self.freqs[i] > 0.0 && !self.poll_scheduled[i] && !self.pending.contains(&(i as u32))
            {
                let phase = self.sched_rng.gen_range(0.0..1.0) / self.freqs[i];
                events.schedule_extra(i as u32, now + phase);
                self.poll_scheduled[i] = true;
            }
        }
        events.schedule_extra(n as u32, now + self.cfg.realloc_period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use besync_workloads::generators::fig6_workload;

    fn cfg(variant: CgmVariant, bandwidth: f64) -> CgmConfig {
        CgmConfig {
            variant,
            cache_bandwidth_mean: bandwidth,
            warmup: 50.0,
            measure: 200.0,
            ..CgmConfig::default()
        }
    }

    #[test]
    fn ideal_runs_and_refreshes() {
        let spec = fig6_workload(5, 10, 1);
        let r = CgmSystem::new(cfg(CgmVariant::IdealCacheBased, 25.0), spec).run();
        assert!(r.refreshes_sent > 0);
        assert!(r.mean_divergence() >= 0.0 && r.mean_divergence() <= 1.0);
        assert_eq!(r.polls_sent, 0);
    }

    #[test]
    fn practical_variants_run() {
        for v in [CgmVariant::Cgm1, CgmVariant::Cgm2] {
            let spec = fig6_workload(5, 10, 2);
            let r = CgmSystem::new(cfg(v, 25.0), spec).run();
            assert!(r.polls_sent > 0, "{}", v.name());
            assert!(r.mean_divergence().is_finite());
        }
    }

    #[test]
    fn round_trip_cost_halves_throughput() {
        let spec_a = fig6_workload(5, 10, 3);
        let spec_b = fig6_workload(5, 10, 3);
        let ideal = CgmSystem::new(cfg(CgmVariant::IdealCacheBased, 20.0), spec_a).run();
        let practical = CgmSystem::new(cfg(CgmVariant::Cgm1, 20.0), spec_b).run();
        // Same bandwidth, but polls cost 2: roughly half the refreshes.
        let ratio = practical.refreshes_sent as f64 / ideal.refreshes_sent as f64;
        assert!(
            (0.3..0.75).contains(&ratio),
            "refresh ratio {ratio} (ideal {}, practical {})",
            ideal.refreshes_sent,
            practical.refreshes_sent
        );
    }

    #[test]
    fn ideal_beats_practical_on_staleness() {
        let ideal = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 30.0),
            fig6_workload(5, 10, 4),
        )
        .run();
        let cgm2 = CgmSystem::new(cfg(CgmVariant::Cgm2, 30.0), fig6_workload(5, 10, 4)).run();
        assert!(
            ideal.mean_divergence() <= cgm2.mean_divergence() + 0.02,
            "ideal {} vs CGM2 {}",
            ideal.mean_divergence(),
            cgm2.mean_divergence()
        );
    }

    #[test]
    fn more_bandwidth_less_staleness() {
        let poor = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 5.0),
            fig6_workload(5, 10, 5),
        )
        .run();
        let rich = CgmSystem::new(
            cfg(CgmVariant::IdealCacheBased, 45.0),
            fig6_workload(5, 10, 5),
        )
        .run();
        assert!(rich.mean_divergence() < poor.mean_divergence());
    }

    #[test]
    fn deterministic() {
        let a = CgmSystem::new(cfg(CgmVariant::Cgm1, 25.0), fig6_workload(5, 10, 6)).run();
        let b = CgmSystem::new(cfg(CgmVariant::Cgm1, 25.0), fig6_workload(5, 10, 6)).run();
        assert_eq!(a.mean_divergence(), b.mean_divergence());
        assert_eq!(a.polls_sent, b.polls_sent);
    }

    #[test]
    fn starved_polls_report_their_peak_backlog() {
        // Polls outrun the bandwidth between ticks, so some wait for the
        // tick drain; the report carries the largest backlog seen, not
        // the backlog left when the run ends.
        let r = CgmSystem::new(cfg(CgmVariant::Cgm2, 2.0), fig6_workload(5, 10, 3)).run();
        assert!(r.max_cache_queue > 0, "peak backlog {}", r.max_cache_queue);
    }

    #[test]
    fn poll_rate_respects_budget() {
        let spec = fig6_workload(5, 10, 7);
        let c = cfg(CgmVariant::Cgm1, 20.0);
        let horizon = c.horizon();
        let r = CgmSystem::new(c, spec).run();
        // 20 units/s ÷ 2 per poll = ≤10 polls/s on average (plus burst).
        let rate = r.polls_sent as f64 / horizon;
        assert!(rate <= 10.5, "poll rate {rate}");
    }
}
