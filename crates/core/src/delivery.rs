//! The cache-side delivery path.
//!
//! A refresh that crosses the shared cache-side link meets the same
//! checks whichever system sent it: the counter-hashed loss draw (a lost
//! message may be queued for retransmission), the per-source ack
//! counter, the recency guard, and finally the ground truth and the
//! cache's threshold view. `Delivery` owns that path once, with the
//! link, the retry queue and the utilisation estimate that sizes §5
//! positive feedback. The cooperative and §7 competitive systems deliver
//! through it; the ideal and CGM schedulers have no message queue and
//! share only its [`Loss`] draw.

use std::collections::VecDeque;

use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_sim::SimTime;

use crate::cache::CacheRuntime;
use crate::config::SystemConfig;
use crate::fault::{FaultProfile, FaultSummary, LossLane, RecoveryPolicy};
use crate::source::{Snapshot, SourceRuntime};

/// A refresh message in flight from a source to the cache.
#[derive(Debug, Clone, Copy)]
pub struct RefreshMsg {
    /// The object being refreshed.
    pub obj: ObjectId,
    /// Originating source.
    pub src: SourceId,
    /// The (send-time) snapshot of the object.
    pub snapshot: Snapshot,
    /// The source's local threshold, piggybacked (§5).
    pub threshold: f64,
}

impl RefreshMsg {
    /// The message carrying `snapshot` of `source`'s object `local`.
    pub(crate) fn new(source: &SourceRuntime, local: u32, snapshot: Snapshot) -> Self {
        RefreshMsg {
            obj: source.global(local),
            src: source.id,
            snapshot,
            threshold: source.threshold.value(),
        }
    }
}

/// The recency guard: whether the cache already holds `msg`'s snapshot
/// or a newer one, so delivering it would overwrite fresher data. A
/// retransmission can arrive after a newer refresh; without
/// retransmission the link is FIFO and snapshots only move forward.
fn outdated(msg: &RefreshMsg, truths: &[TruthTable]) -> bool {
    msg.snapshot.updates <= truths[0].truth(msg.obj).cached_updates
}

/// The refresh-loss draw of a run and its count. The lane exists only
/// for a positive loss probability: the fault-free path draws nothing.
#[derive(Debug, Clone)]
pub struct Loss {
    lane: Option<LossLane>,
    lost: u64,
}

impl Loss {
    /// The loss draw for `fault`.
    ///
    /// # Panics
    ///
    /// Panics if the profile is invalid.
    pub fn new(fault: Option<&FaultProfile>, sim_seed: u64) -> Self {
        let lane = fault.and_then(|profile| {
            profile.validate().expect("invalid fault profile");
            (profile.loss_prob > 0.0).then(|| LossLane::new(sim_seed, 0, profile.loss_prob))
        });
        Loss { lane, lost: 0 }
    }

    /// Whether the next delivery is lost (counted if so).
    #[inline]
    pub fn draw(&mut self) -> bool {
        let lost = self.lane.as_mut().is_some_and(|l| l.draw());
        self.lost += u64::from(lost);
        lost
    }

    /// Deliveries lost so far.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// The fault summary of a run whose only fault class is loss.
    pub fn summary(&self) -> FaultSummary {
        FaultSummary {
            lost_refreshes: self.lost,
            ..FaultSummary::default()
        }
    }
}

/// The shared cache-side link and what happens to a refresh between
/// crossing it and landing in the cache.
pub(crate) struct Delivery {
    pub(crate) link: Link<RefreshMsg>,
    pub(crate) cache: CacheRuntime,
    pub(crate) loss: Loss,
    /// Retransmit deadline when the recovery policy retransmits.
    retry_after: Option<f64>,
    /// Lost refreshes awaiting retransmission; the deadline is constant,
    /// so push order is due order.
    pub(crate) retries: VecDeque<(SimTime, RefreshMsg)>,
    /// Cumulative refreshes delivered per source: the acks fault-aware
    /// runs piggyback on §5 feedback.
    pub(crate) acked: Vec<u64>,
    pub(crate) delivered: u64,
    this_tick: u64,
    /// EWMA of deliveries per tick: the bandwidth refreshes will need,
    /// reserved before spending "excess" on feedback. The paper's cache
    /// "continually monitors cache-side bandwidth utilization" (§5);
    /// without the reserve, feedback sent at the tick boundary starves
    /// refreshes that arrive mid-tick.
    ewma: f64,
    scratch: Vec<RefreshMsg>,
    /// Fault activity; systems record their own fault classes here too.
    pub(crate) faults: FaultSummary,
}

impl Delivery {
    /// The delivery path of a run of `cfg` with `sources` sources.
    pub fn new(cfg: &SystemConfig, sources: u32) -> Self {
        let fault = cfg.fault.as_ref();
        let retry_after = fault.and_then(|p| match p.recovery {
            RecoveryPolicy::Retransmit { deadline } => Some(deadline),
            _ => None,
        });
        Delivery {
            link: Link::new(cfg.cache_wave()),
            cache: CacheRuntime::new(
                sources,
                cfg.initial_threshold,
                cfg.feedback_targeting,
                cfg.sim_seed,
            ),
            loss: Loss::new(fault, cfg.sim_seed),
            retry_after,
            retries: VecDeque::new(),
            acked: vec![0; sources as usize],
            delivered: 0,
            this_tick: 0,
            ewma: 0.0,
            scratch: Vec::new(),
            faults: FaultSummary::default(),
        }
    }

    /// Offers a sent refresh to the link; one that cuts through lands in
    /// `truths` now.
    pub fn offer(&mut self, now: SimTime, msg: RefreshMsg, truths: &mut [TruthTable]) {
        if let Some(msg) = self.link.offer(now, msg) {
            self.transit(now, msg, truths);
        }
    }

    /// Delivers queued refreshes as link capacity allows.
    pub fn service(&mut self, now: SimTime, truths: &mut [TruthTable]) {
        let mut msgs = std::mem::take(&mut self.scratch);
        msgs.clear();
        self.link.service(now, &mut msgs);
        for msg in &msgs {
            self.transit(now, *msg, truths);
        }
        self.scratch = msgs;
    }

    /// The loss draw. The source already spent its credit and reset its
    /// view, so a loss silently leaves the cache stale; under the
    /// retransmit policy the message is queued for a delayed resend.
    fn transit(&mut self, now: SimTime, msg: RefreshMsg, truths: &mut [TruthTable]) {
        if self.loss.draw() {
            if let Some(deadline) = self.retry_after {
                self.retries.push_back((now + deadline, msg));
            }
            return;
        }
        self.admit(now, msg, truths);
    }

    /// Lands an arrived refresh in every truth table; the recency guard
    /// reads the first. The refresh counts as delivered and is acked even
    /// if the guard discards it.
    pub(crate) fn admit(&mut self, now: SimTime, msg: RefreshMsg, truths: &mut [TruthTable]) {
        self.acked[msg.src.index()] += 1;
        self.delivered += 1;
        self.this_tick += 1;
        if outdated(&msg, truths) {
            self.faults.stale_drops += 1;
            return;
        }
        for truth in truths {
            truth.apply_refresh(now, msg.obj, msg.snapshot.value, msg.snapshot.updates);
        }
        self.cache.observe_threshold(msg.src, msg.threshold);
    }

    /// Re-offers every lost refresh whose retransmit deadline has passed;
    /// it pays for link bandwidth and can be lost again. Retries wait out
    /// outages. A retry is purged unsent when the cache already holds a
    /// newer snapshot or when `superseded` says the source moved on.
    pub fn retry(
        &mut self,
        now: SimTime,
        truths: &mut [TruthTable],
        superseded: impl Fn(&RefreshMsg) -> bool,
    ) {
        if self.link.is_suspended() {
            return;
        }
        while let Some(&(due, msg)) = self.retries.front() {
            if due > now {
                return;
            }
            self.retries.pop_front();
            if outdated(&msg, truths) || superseded(&msg) {
                self.faults.superseded_retries += 1;
                continue;
            }
            self.faults.retransmits += 1;
            self.offer(now, msg, truths);
        }
    }

    /// Outage start. Under the drop policy both the link queue and the
    /// retry queue are discarded: retries must not ride out an outage
    /// that drops fresh traffic.
    pub fn suspend(&mut self, now: SimTime, drop_queue: bool) {
        self.link.suspend(now);
        if drop_queue {
            self.faults.dropped_in_outage += self.link.drop_queue() as u64;
            self.faults.dropped_in_outage += self.retries.len() as u64;
            self.retries.clear();
        }
    }

    /// Closes the tick's utilisation window, then picks the targets of §5
    /// positive feedback: none while the link has a backlog, else one per
    /// whole unit of credit beyond the reserve.
    pub fn feedback_targets(&mut self, now: SimTime, out: &mut Vec<u32>) {
        self.ewma = 0.8 * self.ewma + 0.2 * self.this_tick as f64;
        self.this_tick = 0;
        out.clear();
        if self.link.has_backlog() {
            return;
        }
        let surplus = (self.link.credit(now) - self.ewma).floor();
        if surplus >= 1.0 {
            self.cache.select_targets_into(surplus as usize, out);
        }
    }

    /// Spends link credit on one feedback message; `false` once
    /// refreshes triggered by earlier feedback have used the surplus.
    pub fn send_feedback(&mut self, now: SimTime) -> bool {
        let sent = self.link.try_consume(now, 1.0);
        self.cache.feedback_sent += u64::from(sent);
        sent
    }
}
