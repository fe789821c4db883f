//! The pragmatic cooperative synchronization system (paper §5).
//!
//! [`CoopSystem`] wires a [`WorkloadSpec`] into the full protocol:
//!
//! * **Sources** watch their objects, keep them "in priority order", and
//!   whenever source-side bandwidth permits, send the highest-priority
//!   object *if* its priority exceeds the local threshold `Tⱼ`; each send
//!   multiplies `Tⱼ` by `α·β` and piggybacks the new threshold.
//! * **The shared cache-side link** carries refresh messages; messages
//!   beyond its fluctuating capacity queue up (the flooding hazard).
//! * **The cache** applies delivered snapshots and, when it sees surplus
//!   bandwidth after serving the queue, spends the surplus on positive
//!   feedback messages to the highest-threshold sources, each dividing
//!   that source's threshold by ω (unless the source is saturated).
//!
//! Ground-truth divergence is accounted exactly by a
//! [`besync_data::TruthTable`]; note the asymmetry the paper exploits:
//! sources reason optimistically from their last *sent* snapshot, while
//! the truth reflects what actually reached the cache and when.

use besync_data::ids::ObjectLayout;
use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_sim::stats::RunningStats;
use besync_sim::SimTime;
use besync_workloads::WorkloadSpec;

use crate::competitive::Competition;
use crate::config::SystemConfig;
use crate::delivery::Delivery;
pub use crate::delivery::RefreshMsg;
use crate::fault::{Episode, EpisodeSchedule, FaultProfile, FaultSummary, RecoveryPolicy};
use crate::kernel::{Events, Kernel, Model, Shape};
use crate::report::RunReport;
use crate::source::SourceRuntime;

/// Runtime state of the outage and crash fault classes. Present only
/// when the config carries a [`FaultProfile`]; with `None` the run takes
/// no extra slots and draws no fault randomness.
struct FaultLayer {
    profile: FaultProfile,
    /// The cache link's outage windows, on extra slot 0.
    outage: Windows,
    /// Source `sid`'s crash windows, on extra slot `1 + sid`.
    crash: Vec<Windows>,
}

/// A lazily generated sequence of fault windows on one extra slot.
struct Windows {
    sched: EpisodeSchedule,
    /// The window in the slot; its start has fired iff `open`.
    episode: Option<Episode>,
    open: bool,
    /// Divergence-integral probe taken when the window opened.
    epoch_start: f64,
}

impl Windows {
    fn new(mut sched: EpisodeSchedule) -> Self {
        Windows {
            episode: sched.next_episode(),
            sched,
            open: false,
            epoch_start: 0.0,
        }
    }

    /// Flips the window at a transition of extra slot `k` and schedules
    /// the next one. Opening returns the window's length within the
    /// horizon; closing adds the epoch's divergence to `epoch_divergence`.
    fn flip(
        &mut self,
        k: u32,
        integral: f64,
        horizon: f64,
        events: &mut Events,
        epoch_divergence: &mut f64,
    ) -> Option<f64> {
        if !self.open {
            let e = self.episode.expect("window opened without an episode");
            self.open = true;
            self.epoch_start = integral;
            events.schedule_extra(k, SimTime::new(e.end));
            return Some(e.end.min(horizon) - e.start);
        }
        self.open = false;
        *epoch_divergence += integral - self.epoch_start;
        self.episode = self.sched.next_episode();
        if let Some(e) = self.episode {
            events.schedule_extra(k, SimTime::new(e.start));
        }
        None
    }
}

/// The cooperative protocol as a kernel [`Model`]. A §7 competitive run
/// is this model plus a [`Competition`].
pub(crate) struct Coop {
    cfg: SystemConfig,
    layout: ObjectLayout,
    /// Ground truth under the cache's weights (the run's objective) and,
    /// in §7 runs, under the sources' weights.
    pub(crate) truths: Vec<TruthTable>,
    sources: Vec<SourceRuntime>,
    pub(crate) delivery: Delivery,
    /// Source owning each object (precomputed: the per-event division in
    /// `ObjectLayout::source_of` is measurable at millions of events/sec).
    obj_source: Vec<u32>,
    /// Reusable feedback target buffer (zero steady-state allocation).
    feedback_targets: Vec<u32>,
    faults: Option<FaultLayer>,
    pub(crate) competition: Option<Competition>,
}

/// The full cooperative system of the paper, ready to run.
///
/// Runs on the shared [`Kernel`]; with a fault profile it adds one extra
/// slot for the link's outage windows and one crash slot per source.
pub struct CoopSystem {
    kernel: Kernel<Coop>,
}

impl CoopSystem {
    /// Builds the system from a configuration and workload.
    ///
    /// # Panics
    ///
    /// Panics if the workload spec is internally inconsistent or if
    /// `bound_rates` is required/mismatched (see
    /// [`crate::priority::PolicyKind::Bound`]).
    pub fn new(cfg: SystemConfig, spec: WorkloadSpec) -> Self {
        CoopSystem {
            kernel: Coop::kernel(cfg, spec, None),
        }
    }

    /// Runs to the configured horizon and reports.
    pub fn run(mut self) -> RunReport {
        self.kernel.run();
        self.into_report()
    }

    /// Processes every event at or before `t`, or at or before the
    /// horizon if `t` lies beyond it (the simulation can then be
    /// inspected mid-run and resumed — used by tests and benchmarks).
    pub fn run_until(&mut self, t: SimTime) {
        self.kernel.run_until(t);
    }

    /// Finishes a stepped run: accounts divergence up to the configured
    /// horizon and reports, exactly as [`CoopSystem::run`] would.
    pub fn into_report(self) -> RunReport {
        self.kernel.report()
    }

    /// The configured end of simulated time.
    pub fn horizon(&self) -> SimTime {
        self.kernel.horizon()
    }

    /// Read access to the per-source runtimes (tests, diagnostics).
    pub fn sources(&self) -> &[SourceRuntime] {
        &self.kernel.model.sources
    }

    /// How objects are laid out over sources.
    pub fn layout(&self) -> ObjectLayout {
        self.kernel.model.layout
    }

    /// The ground truth (for inspection mid-construction or in tests).
    pub fn truth(&self) -> &TruthTable {
        &self.kernel.model.truths[0]
    }
}

impl Kernel<Coop> {
    /// The run's report, with divergence accounted up to the horizon.
    pub(crate) fn report(&self) -> RunReport {
        let (m, mut threshold_stats) = (&self.model, RunningStats::new());
        for s in &m.sources {
            threshold_stats.push(s.threshold.value());
        }
        let link = m.delivery.link.stats();
        RunReport {
            divergence: m.truths[0].report(self.horizon()),
            refreshes_sent: m.sources.iter().map(|s| s.sends).sum(),
            refreshes_delivered: m.delivery.delivered,
            feedback_messages: m.delivery.cache.feedback_sent,
            polls_sent: 0,
            max_cache_queue: link.max_queue,
            mean_queue_wait: link.total_wait / (link.delivered.max(1) as f64),
            threshold_stats,
            updates_processed: self.updates_processed(),
            faults: FaultSummary {
                lost_refreshes: m.delivery.loss.lost(),
                ..m.delivery.faults
            },
        }
    }
}

impl Model for Coop {
    #[inline]
    fn value(&self, obj: ObjectId) -> f64 {
        let source = &self.sources[self.obj_source[obj.index()] as usize];
        source.state(source.local(obj)).value
    }

    #[inline]
    fn on_update(&mut self, now: SimTime, obj: ObjectId, value: f64) {
        let sid = self.obj_source[obj.index()] as usize;
        let local = self.sources[sid].local(obj);
        let weight = self.truths[0].source_update(now, obj, value);
        for truth in &mut self.truths[1..] {
            truth.source_update(now, obj, value);
        }
        if self.source_down(sid) {
            // The data changed, but the sync agent is down: track the
            // state silently, quote nothing, send nothing. Divergence
            // accrues against the live truth.
            self.sources[sid].record_update_unquoted(now, local, value);
            self.delivery.faults.missed_updates += 1;
            return;
        }
        self.sources[sid].record_update_weighted(now, local, value, weight);
        if let Some(c) = &mut self.competition {
            c.quote(now, &self.sources[sid], local);
        }
        // §3.4: "sources have direct knowledge of update times and decide
        // whether to refresh immediately after each update".
        self.attempt_sends(now, sid);
    }

    fn on_tick(&mut self, now: SimTime, _events: &mut Events) {
        // 1) Deliver queued refreshes as capacity allows, then re-offer
        //    lost refreshes whose retransmit deadline has passed.
        self.delivery.service(now, &mut self.truths);
        self.retry(now);

        // 2) Time-dependent policies (Bound) need fresh quotes each tick.
        if !self.cfg.policy.piecewise_constant() {
            for sid in 0..self.sources.len() {
                if !self.source_down(sid) {
                    self.sources[sid].requote_all(now);
                }
            }
        }

        // 3) §7 source allocations come first, then each source ships
        //    what its credit and threshold allow.
        if let Some(c) = &mut self.competition {
            c.allocation_sends(now, &mut self.sources, &mut self.delivery, &mut self.truths);
        }
        for sid in 0..self.sources.len() {
            self.attempt_sends(now, sid);
        }

        // 4) Spend genuine surplus on positive feedback (§5), aimed at
        //    the highest thresholds.
        self.send_feedback(now);
    }

    fn on_warmup(&mut self, now: SimTime) {
        for truth in &mut self.truths {
            truth.begin_measurement(now);
        }
    }

    fn on_extra(&mut self, now: SimTime, k: u32, events: &mut Events) {
        match k {
            0 => self.on_outage_transition(now, events),
            _ => self.on_crash_transition(now, k as usize - 1, events),
        }
    }

    fn schedule_initial(&mut self, events: &mut Events) {
        events.schedule_first_updates();
        let Some(fl) = &self.faults else { return };
        for (k, w) in std::iter::once(&fl.outage).chain(&fl.crash).enumerate() {
            if let Some(e) = w.episode {
                events.schedule_extra(k as u32, SimTime::new(e.start));
            }
        }
    }
}

impl Coop {
    /// Builds a cooperative run's kernel. A §7 run passes its
    /// [`Competition`] and source-weighted truth; it takes no bound rates
    /// and none of the outage, crash or fault-aware machinery.
    pub(crate) fn kernel(
        cfg: SystemConfig,
        mut spec: WorkloadSpec,
        competition: Option<(Competition, TruthTable)>,
    ) -> Kernel<Coop> {
        spec.validate().expect("invalid workload spec");
        let layout = spec.layout;
        let m = layout.sources();
        let truth = TruthTable::new(cfg.metric, &spec.initial_values, spec.weights.clone());
        let mut truths = vec![truth];
        let (competition, bound_rates, fault) = match competition {
            Some((c, source_truth)) => {
                truths.push(source_truth);
                (Some(c), None, None)
            }
            None => (None, cfg.bound_rates.as_deref(), cfg.fault),
        };
        // Summed before the sources consume the rate pool.
        let update_rate = spec.rates.iter().sum::<f64>();

        // The sources take the spec's weight/rate pools rather than
        // copying slices out of them: at 1M objects an extra transient
        // copy of each pool is tens of megabytes of peak RSS. Splitting
        // back-to-front makes each `split_off` O(objects-per-source), and
        // construction observes nothing time-dependent, so the reversed
        // build is bit-identical. `split_off` leaves each pool's full
        // capacity allocated, so both are dropped as soon as the sources
        // are built: otherwise 104 B/object of dead pool would sit under
        // the queue that `Kernel::new` allocates.
        let per_source = layout.objects_per_source();
        let tparams = cfg.threshold_params(m);
        let mut weight_pool = std::mem::take(&mut spec.weights);
        let mut rate_pool = std::mem::take(&mut spec.rates);
        let mut sources = Vec::with_capacity(m as usize);
        for sid in (0..m).rev() {
            let lo = (sid * per_source) as usize;
            let hi = lo + per_source as usize;
            sources.push(SourceRuntime::new(
                SourceId(sid),
                sid * per_source,
                &spec.initial_values[lo..hi],
                weight_pool.split_off(lo),
                rate_pool.split_off(lo),
                Link::new(cfg.source_wave(sid)),
                tparams,
                cfg.metric,
                cfg.policy,
                cfg.estimator,
                bound_rates.map(|all| all[lo..hi].to_vec()),
                SimTime::ZERO,
            ));
        }
        sources.reverse();
        drop((weight_pool, rate_pool));

        let faults = fault.map(|profile| FaultLayer {
            outage: Windows::new(EpisodeSchedule::outages(cfg.sim_seed, &profile)),
            crash: (0..m)
                .map(|sid| Windows::new(EpisodeSchedule::crashes(cfg.sim_seed, sid, &profile)))
                .collect(),
            profile,
        });
        // Fault-aware scheduling: each source prices its quotes by an
        // estimated delivery probability fed by the cache's acks. The
        // estimator starts at 1.0, so priorities are unchanged until the
        // first ack arrives.
        if faults.as_ref().is_some_and(|fl| fl.profile.aware) {
            for s in &mut sources {
                s.enable_delivery_estimator(cfg.sim_seed);
            }
        }
        let shape = Shape {
            extra_slots: faults.as_ref().map_or(0, |_| 1 + m as usize),
            ..Shape::of(&cfg, update_rate)
        };
        let rngs = spec.object_rngs();
        let model = Coop {
            obj_source: layout
                .all_objects()
                .map(|o| layout.source_of(o).0)
                .collect(),
            delivery: Delivery::new(&cfg, m),
            cfg,
            layout,
            truths,
            sources,
            feedback_targets: Vec::new(),
            faults,
            competition,
        };
        Kernel::new(model, shape, spec.updaters, rngs)
    }

    /// Whether source `sid`'s sync agent is currently crashed.
    #[inline]
    fn source_down(&self, sid: usize) -> bool {
        self.faults.as_ref().is_some_and(|fl| fl.crash[sid].open)
    }

    fn aware(&self) -> bool {
        self.faults.as_ref().is_some_and(|fl| fl.profile.aware)
    }

    /// The §5 send rule: while source `sid`'s top candidate exceeds its
    /// local threshold and the uplink has credit, send it. Otherwise
    /// record whether over-threshold work waits on source bandwidth (the
    /// saturation flag of §5 footnote 3).
    fn attempt_sends(&mut self, now: SimTime, sid: usize) {
        if self.source_down(sid) {
            return;
        }
        let source = &mut self.sources[sid];
        while let Some((priority, local)) = source.candidate() {
            if priority <= source.threshold.value() {
                break;
            }
            if !source.uplink.try_consume(now, 1.0) {
                source.saturated = true;
                return;
            }
            let snapshot = source.mark_sent(now, local);
            let msg = RefreshMsg::new(source, local, snapshot);
            self.delivery.offer(now, msg, &mut self.truths);
            if let Some(c) = &mut self.competition {
                c.on_threshold_send(now, local, source, &mut self.delivery, &mut self.truths);
            }
        }
        source.saturated = false;
    }

    fn send_feedback(&mut self, now: SimTime) {
        let aware = self.aware();
        let mut targets = std::mem::take(&mut self.feedback_targets);
        self.delivery.feedback_targets(now, &mut targets);
        for &sid in &targets {
            if !self.delivery.send_feedback(now) {
                break;
            }
            let sid = sid as usize;
            if self.source_down(sid) {
                // The message spent cache credit, but the crashed sync
                // agent never receives it: no threshold effect.
                continue;
            }
            let saturated = self.sources[sid].saturated;
            self.sources[sid].threshold.on_feedback(now, saturated);
            // Fault-aware runs piggyback the cache's cumulative delivery
            // count for this source on the feedback message. Feedback is
            // only sent when the link queue is empty, so the ack reflects
            // a settled window rather than in-flight traffic.
            if aware {
                self.sources[sid].on_delivery_ack(self.delivery.acked[sid]);
            }
            // The lowered threshold may make objects eligible right away.
            self.attempt_sends(now, sid);
        }
        self.feedback_targets = targets;
    }

    /// Re-offers due retries. Fault-aware runs also purge retries whose
    /// source has updated the object since the lost send: the retried
    /// snapshot no longer matches the source, so it buys nothing.
    fn retry(&mut self, now: SimTime) {
        let aware = self.aware();
        let sources = &self.sources;
        self.delivery.retry(now, &mut self.truths, |msg| {
            let source = &sources[msg.src.index()];
            aware && u64::from(source.state(source.local(msg.obj)).updates) > msg.snapshot.updates
        });
    }

    /// Outage start: suspend the link and apply the queue policy. Outage
    /// end: resume and attribute the epoch's divergence.
    fn on_outage_transition(&mut self, now: SimTime, events: &mut Events) {
        let truth = &self.truths[0];
        let integral = truth.divergence_integral_range(now, 0, truth.len());
        let stats = &mut self.delivery.faults;
        let fl = self.faults.as_mut().expect("outage without fault layer");
        let horizon = self.cfg.horizon();
        if let Some(len) = fl
            .outage
            .flip(0, integral, horizon, events, &mut stats.epoch_divergence)
        {
            stats.outages += 1;
            stats.outage_seconds += len;
            self.delivery.suspend(now, fl.profile.outage_drops_queue);
            return;
        }
        self.delivery.link.resume(now);
        if fl.profile.aware {
            // Fault-aware resume: merge due retries into the held
            // backlog, then replay the §8 economics over the whole queue
            // — highest weighted divergence first — instead of
            // FIFO-draining a backlog ordered by pre-outage priorities.
            self.retry(now);
            let (truth, metric) = (&self.truths[0], self.cfg.metric);
            self.delivery.link.reorder_queue_by(|msg: &RefreshMsg| {
                let t = truth.truth(msg.obj);
                let gain = metric.divergence(
                    msg.snapshot.value,
                    msg.snapshot.updates,
                    t.cached_value,
                    t.cached_updates,
                );
                truth.weight_at(msg.obj, now) * gain
            });
        }
    }

    /// Crash start: the sync agent loses its heap and goes silent.
    /// Restart: attribute the epoch's divergence and run the recovery
    /// policy (resync re-quotes everything and bursts catch-up sends).
    fn on_crash_transition(&mut self, now: SimTime, sid: usize, events: &mut Events) {
        let per_source = self.layout.objects_per_source() as usize;
        let (lo, hi) = (sid * per_source, (sid + 1) * per_source);
        let integral = self.truths[0].divergence_integral_range(now, lo, hi);
        let stats = &mut self.delivery.faults;
        let fl = self.faults.as_mut().expect("crash without fault layer");
        let horizon = self.cfg.horizon();
        let window = &mut fl.crash[sid];
        let k = 1 + sid as u32;
        if let Some(len) = window.flip(k, integral, horizon, events, &mut stats.epoch_divergence) {
            stats.crashes += 1;
            stats.down_seconds += len;
            self.sources[sid].saturated = false;
            self.sources[sid].clear_quotes();
        } else if matches!(fl.profile.recovery, RecoveryPolicy::Resync) {
            // Cold-restart bulk resync: re-quote every diverged object
            // and let the catch-up burst compete for bandwidth under the
            // ordinary §8 priority scheme.
            self.sources[sid].requote_all(now);
            stats.resync_quotes += self.sources[sid].heap.raw_len() as u64;
            self.attempt_sends(now, sid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PolicyKind;
    use crate::source::Snapshot;
    use besync_data::Metric;
    use besync_workloads::generators::{random_walk_poisson, PoissonWorkloadOptions};

    fn small_spec(seed: u64) -> WorkloadSpec {
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

    fn quick_cfg() -> SystemConfig {
        SystemConfig {
            metric: Metric::Staleness,
            cache_bandwidth_mean: 10.0,
            source_bandwidth_mean: 5.0,
            warmup: 20.0,
            measure: 100.0,
            ..SystemConfig::default()
        }
    }

    #[test]
    fn runs_and_reports() {
        let report = CoopSystem::new(quick_cfg(), small_spec(1)).run();
        assert!(report.updates_processed > 0);
        assert!(report.refreshes_sent > 0);
        assert!(report.refreshes_delivered <= report.refreshes_sent);
        assert!(report.mean_divergence() >= 0.0);
        assert!(report.mean_divergence() <= 1.0); // staleness is 0/1
    }

    #[test]
    fn deterministic_given_seeds() {
        let a = CoopSystem::new(quick_cfg(), small_spec(7)).run();
        let b = CoopSystem::new(quick_cfg(), small_spec(7)).run();
        assert_eq!(a.mean_divergence(), b.mean_divergence());
        assert_eq!(a.refreshes_sent, b.refreshes_sent);
        assert_eq!(a.feedback_messages, b.feedback_messages);
    }

    #[test]
    fn ample_bandwidth_keeps_divergence_low() {
        let cfg = SystemConfig {
            cache_bandwidth_mean: 1000.0,
            source_bandwidth_mean: 1000.0,
            ..quick_cfg()
        };
        let report = CoopSystem::new(cfg, small_spec(2)).run();
        // With bandwidth far above the update rate and feedback pulling
        // thresholds down, staleness should be small.
        assert!(
            report.mean_divergence() < 0.2,
            "divergence {} too high for ample bandwidth",
            report.mean_divergence()
        );
        assert!(report.feedback_messages > 0);
    }

    #[test]
    fn starved_bandwidth_raises_divergence() {
        let rich = CoopSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 50.0,
                ..quick_cfg()
            },
            small_spec(3),
        )
        .run();
        let poor = CoopSystem::new(
            SystemConfig {
                cache_bandwidth_mean: 0.5,
                ..quick_cfg()
            },
            small_spec(3),
        )
        .run();
        assert!(poor.mean_divergence() > rich.mean_divergence());
    }

    #[test]
    fn no_unbounded_flooding() {
        // Starve the cache massively; the positive-feedback design must
        // keep the queue bounded (thresholds rise in the absence of
        // feedback).
        let cfg = SystemConfig {
            cache_bandwidth_mean: 0.5,
            source_bandwidth_mean: 50.0,
            warmup: 50.0,
            measure: 300.0,
            ..quick_cfg()
        };
        let report = CoopSystem::new(cfg, small_spec(4)).run();
        assert!(
            report.max_cache_queue < 100,
            "cache queue peaked at {}",
            report.max_cache_queue
        );
    }

    #[test]
    fn works_with_all_metrics_and_policies() {
        for metric in Metric::all_three() {
            for policy in [
                PolicyKind::Area,
                PolicyKind::PoissonClosedForm,
                PolicyKind::SimpleWeighted,
            ] {
                let cfg = SystemConfig {
                    metric,
                    policy,
                    warmup: 10.0,
                    measure: 50.0,
                    ..quick_cfg()
                };
                let report = CoopSystem::new(cfg, small_spec(5)).run();
                assert!(report.mean_divergence().is_finite());
            }
        }
    }

    fn faulty_cfg(fault: FaultProfile) -> SystemConfig {
        SystemConfig {
            fault: Some(fault),
            ..quick_cfg()
        }
    }

    #[test]
    fn refresh_loss_raises_divergence_and_is_accounted() {
        let clean = CoopSystem::new(quick_cfg(), small_spec(11)).run();
        let lossy = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.4,
                ..FaultProfile::default()
            }),
            small_spec(11),
        )
        .run();
        assert!(lossy.faults.lost_refreshes > 0);
        // Every sent refresh is delivered, lost, or still queued; under
        // degrade-to-stale nothing is ever re-sent.
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
        // Degrade-to-stale performs no retransmissions.
        assert_eq!(lossy.faults.retransmits, 0);
    }

    #[test]
    fn retransmit_recovers_some_of_what_loss_costs() {
        let base = FaultProfile {
            loss_prob: 0.3,
            ..FaultProfile::default()
        };
        let degrade = CoopSystem::new(faulty_cfg(base), small_spec(12)).run();
        let retrans = CoopSystem::new(
            faulty_cfg(FaultProfile {
                recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
                ..base
            }),
            small_spec(12),
        )
        .run();
        assert!(retrans.faults.retransmits > 0);
        assert!(
            retrans.mean_divergence() <= degrade.mean_divergence() + 1e-9,
            "retransmit {} vs degrade {}",
            retrans.mean_divergence(),
            degrade.mean_divergence()
        );
    }

    #[test]
    fn outages_suspend_the_link_and_attribute_divergence() {
        let report = CoopSystem::new(
            faulty_cfg(FaultProfile {
                outage_rate: 0.05,
                outage_duration: 5.0,
                outage_drops_queue: true,
                ..FaultProfile::default()
            }),
            small_spec(13),
        )
        .run();
        assert!(report.faults.outages > 0);
        assert!(report.faults.outage_seconds > 0.0);
        assert!(report.faults.epoch_divergence >= 0.0);
    }

    #[test]
    fn crashes_miss_updates_and_resync_requotes() {
        let base = FaultProfile {
            crash_rate: 0.05,
            crash_downtime: 8.0,
            ..FaultProfile::default()
        };
        let degrade = CoopSystem::new(faulty_cfg(base), small_spec(14)).run();
        assert!(degrade.faults.crashes > 0);
        assert!(degrade.faults.down_seconds > 0.0);
        assert!(degrade.faults.missed_updates > 0);
        assert_eq!(degrade.faults.resync_quotes, 0);
        let resync = CoopSystem::new(
            faulty_cfg(FaultProfile {
                recovery: RecoveryPolicy::Resync,
                ..base
            }),
            small_spec(14),
        )
        .run();
        // Identical fault schedule (same seed, same lanes) — only the
        // recovery differs, and resync re-quotes diverged objects.
        assert_eq!(degrade.faults.crashes, resync.faults.crashes);
        assert_eq!(
            degrade.faults.down_seconds.to_bits(),
            resync.faults.down_seconds.to_bits()
        );
        assert!(resync.faults.resync_quotes > 0);
    }

    #[test]
    fn fault_runs_are_deterministic() {
        let fault = FaultProfile {
            loss_prob: 0.2,
            outage_rate: 0.03,
            outage_duration: 4.0,
            crash_rate: 0.02,
            crash_downtime: 6.0,
            recovery: RecoveryPolicy::Retransmit { deadline: 1.5 },
            ..FaultProfile::default()
        };
        let a = CoopSystem::new(faulty_cfg(fault), small_spec(15)).run();
        let b = CoopSystem::new(faulty_cfg(fault), small_spec(15)).run();
        assert_eq!(a.mean_divergence().to_bits(), b.mean_divergence().to_bits());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.refreshes_delivered, b.refreshes_delivered);
    }

    #[test]
    fn stale_retransmission_cannot_overwrite_a_newer_refresh() {
        // Surgical delivery-order pin for the recency guard: a fresher
        // refresh lands first, then a retransmitted copy of an older
        // snapshot arrives late and must be discarded.
        let mut sys = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.3,
                recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
                ..FaultProfile::default()
            }),
            small_spec(17),
        );
        let m = &mut sys.kernel.model;
        let obj = ObjectId(0);
        let src = m.layout.source_of(obj);
        let mk = |value: f64, updates: u64| RefreshMsg {
            obj,
            src,
            snapshot: Snapshot { value, updates },
            threshold: 1.0,
        };
        m.delivery
            .admit(SimTime::new(1.0), mk(2.5, 9), &mut m.truths);
        assert_eq!(m.truths[0].truth(obj).cached_updates, 9);
        assert_eq!(m.delivery.faults.stale_drops, 0);
        m.delivery
            .admit(SimTime::new(1.5), mk(-4.0, 6), &mut m.truths);
        let t = m.truths[0].truth(obj);
        assert_eq!(
            t.cached_updates, 9,
            "stale retransmission overwrote the newer refresh"
        );
        assert_eq!(t.cached_value, 2.5);
        assert_eq!(m.delivery.faults.stale_drops, 1);
        // An equal-count duplicate is stale too (<=, not <).
        m.delivery
            .admit(SimTime::new(2.0), mk(2.5, 9), &mut m.truths);
        assert_eq!(m.delivery.faults.stale_drops, 2);
        // Every arrival transited the link: all three count as delivered
        // and feed the per-source ack counter.
        assert_eq!(m.delivery.delivered, 3);
        assert_eq!(m.delivery.acked[src.index()], 3);
    }

    #[test]
    fn retries_hold_during_outages_and_superseded_retries_are_purged() {
        let mut sys = CoopSystem::new(
            faulty_cfg(FaultProfile {
                loss_prob: 0.3,
                recovery: RecoveryPolicy::Retransmit { deadline: 1.0 },
                ..FaultProfile::default()
            }),
            small_spec(18),
        );
        let m = &mut sys.kernel.model;
        let obj = ObjectId(0);
        let src = m.layout.source_of(obj);
        let mk = |value: f64, updates: u64| RefreshMsg {
            obj,
            src,
            snapshot: Snapshot { value, updates },
            threshold: 1.0,
        };
        // Two due retries: one that will be superseded, one still fresh.
        m.delivery
            .retries
            .push_back((SimTime::new(1.0), mk(1.0, 3)));
        m.delivery
            .retries
            .push_back((SimTime::new(1.0), mk(2.0, 8)));
        // While the link is suspended, retries must not burn credit.
        m.delivery.suspend(SimTime::new(2.0), false);
        m.retry(SimTime::new(2.0));
        assert_eq!(m.delivery.retries.len(), 2);
        assert_eq!(m.delivery.faults.retransmits, 0);
        // A newer refresh (updates=5) supersedes the first retry only.
        m.delivery.link.resume(SimTime::new(3.0));
        m.delivery
            .admit(SimTime::new(3.0), mk(5.0, 5), &mut m.truths);
        m.retry(SimTime::new(3.0));
        assert_eq!(m.delivery.faults.superseded_retries, 1);
        assert_eq!(m.delivery.faults.retransmits, 1);
        // The surviving retry was re-offered; the loss lane may lose the
        // retransmission itself, in which case it re-queues with a fresh
        // deadline — either way the original entries are gone.
        assert!(m.delivery.retries.len() <= 1);
        if let Some((due, msg)) = m.delivery.retries.front() {
            assert_eq!(msg.snapshot.updates, 8);
            assert_eq!(*due, SimTime::new(4.0));
            assert_eq!(m.delivery.loss.lost(), 1);
        }
    }

    #[test]
    fn aware_runs_differ_under_loss_but_match_without_faults() {
        let lossy = FaultProfile {
            loss_prob: 0.3,
            recovery: RecoveryPolicy::Retransmit { deadline: 2.0 },
            ..FaultProfile::default()
        };
        let blind = CoopSystem::new(faulty_cfg(lossy), small_spec(19)).run();
        let aware = CoopSystem::new(
            faulty_cfg(FaultProfile {
                aware: true,
                ..lossy
            }),
            small_spec(19),
        )
        .run();
        // Same loss lane, but the estimator reprices every quote — the
        // schedules must actually diverge for the tentpole to mean
        // anything.
        assert_ne!(
            blind.mean_divergence().to_bits(),
            aware.mean_divergence().to_bits()
        );
        assert!(aware.refreshes_sent > 0);
        // A zero-intensity aware profile never sees a lost refresh, so
        // every ack ratio is 1.0 and the estimator multiplies quotes by
        // exactly 1.0: bit-identical to the plain run.
        let plain = CoopSystem::new(quick_cfg(), small_spec(19)).run();
        let idle = CoopSystem::new(
            faulty_cfg(FaultProfile {
                aware: true,
                ..FaultProfile::default()
            }),
            small_spec(19),
        )
        .run();
        assert_eq!(
            plain.mean_divergence().to_bits(),
            idle.mean_divergence().to_bits()
        );
        assert_eq!(plain.refreshes_sent, idle.refreshes_sent);
        assert!(!idle.faults.any());
    }

    #[test]
    fn none_profile_is_bit_identical_to_fault_free() {
        let plain = CoopSystem::new(quick_cfg(), small_spec(16)).run();
        let gated = CoopSystem::new(
            SystemConfig {
                fault: None,
                ..quick_cfg()
            },
            small_spec(16),
        )
        .run();
        assert_eq!(
            plain.mean_divergence().to_bits(),
            gated.mean_divergence().to_bits()
        );
        assert_eq!(plain.refreshes_sent, gated.refreshes_sent);
        assert_eq!(plain.feedback_messages, gated.feedback_messages);
        assert!(!gated.faults.any());
    }
}
