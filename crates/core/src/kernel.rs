//! The discrete-event kernel every system kind runs on.
//!
//! The §5 cooperative, §3.3 ideal, §7 competitive and §6.3 CGM systems
//! share one event population: one pending update per object, a
//! periodic tick, an end-of-warm-up marker, and whatever extra events
//! the system needs (fault transitions, polls). [`Kernel`] owns that
//! skeleton once — the [`CalendarQueue`], the slot map, each object's
//! updater and RNG stream, and the event loop — and a system plugs in as
//! a [`Model`].
//!
//! Slots are objects `0..n`, the tick `n`, warm-up `n + 1`, then the
//! model's extra slots. The queue breaks same-instant ties by schedule
//! order, so each model schedules its own initial events after the
//! kernel has queued warm-up and the first tick.

use besync_data::ObjectId;
use besync_sim::{CalendarQueue, SimTime};
use besync_workloads::Updater;
use rand::rngs::SmallRng;

use crate::config::SystemConfig;

/// A system kind driven by the [`Kernel`]. Dispatch is static: the
/// kernel is generic over the model, so hooks inline into the loop.
pub trait Model {
    /// Object `obj`'s current source value (the updater's input).
    fn value(&self, obj: ObjectId) -> f64;

    /// Object `obj` updated to `value` at `now`. The kernel schedules
    /// the object's next update after this returns.
    fn on_update(&mut self, now: SimTime, obj: ObjectId, value: f64);

    /// The periodic tick. The kernel schedules the next tick after this
    /// returns.
    fn on_tick(&mut self, now: SimTime, events: &mut Events);

    /// The end of warm-up: measurement begins.
    fn on_warmup(&mut self, now: SimTime);

    /// Extra slot `k` fired. Models without extra slots never see this.
    fn on_extra(&mut self, _now: SimTime, _k: u32, _events: &mut Events) {
        unreachable!("model has no extra slots");
    }

    /// Schedules the model's initial events; warm-up and the first tick
    /// are already queued. The default queues every object's first
    /// update in object order.
    fn schedule_initial(&mut self, events: &mut Events) {
        events.schedule_first_updates();
    }
}

/// How a model's events are laid out in time and slots.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Tick period in seconds.
    pub tick: f64,
    /// End of warm-up in seconds.
    pub warmup: f64,
    /// End of the run in seconds.
    pub horizon: f64,
    /// Summed update rate of all objects (events per second).
    pub update_rate: f64,
    /// Rate of the model's extra-slot events (events per second).
    pub extra_rate: f64,
    /// Slots the model uses after objects, tick and warm-up.
    pub extra_slots: usize,
}

impl Shape {
    /// The shape of a run of `cfg` without extra slots, whose objects
    /// update at `update_rate` events per second in total.
    pub fn of(cfg: &SystemConfig, update_rate: f64) -> Self {
        Shape {
            tick: cfg.tick,
            warmup: cfg.warmup,
            horizon: cfg.horizon(),
            update_rate,
            extra_rate: 0.0,
            extra_slots: 0,
        }
    }
}

/// The event queue and the objects' update processes, as the model's
/// hooks see them.
pub struct Events {
    queue: CalendarQueue,
    updaters: Vec<Updater>,
    /// Each object's RNG stream, indexed like `updaters`.
    rngs: Vec<SmallRng>,
    extra_base: u32,
}

impl Events {
    /// Schedules extra slot `k` at `at`.
    #[inline]
    pub fn schedule_extra(&mut self, k: u32, at: SimTime) {
        self.queue.schedule(self.extra_base + k, at);
    }

    /// Schedules object `obj`'s first update, if its process has one.
    pub fn schedule_first_update(&mut self, obj: u32) {
        let i = obj as usize;
        if let Some(t0) = self.updaters[i].first_time(SimTime::ZERO, &mut self.rngs[i]) {
            self.queue.schedule(obj, t0);
        }
    }

    /// Schedules every object's first update, in object order.
    pub fn schedule_first_updates(&mut self) {
        for obj in 0..self.updaters.len() as u32 {
            self.schedule_first_update(obj);
        }
    }
}

/// One simulation run: a model, its events and the loop that drives them.
pub struct Kernel<M> {
    /// The system kind being simulated.
    pub model: M,
    events: Events,
    tick: f64,
    horizon: SimTime,
    updates_processed: u64,
}

impl<M: Model> Kernel<M> {
    /// Builds the queue for `shape`, schedules warm-up and the first
    /// tick, then lets the model schedule its initial events.
    pub fn new(model: M, shape: Shape, updaters: Vec<Updater>, rngs: Vec<SmallRng>) -> Self {
        let n = updaters.len();
        // Bucket width ≈ the mean gap between consecutive events, the
        // occupancy-one sweet spot for a calendar queue.
        let event_rate = shape.update_rate + shape.extra_rate + 1.0 / shape.tick.max(1e-6);
        let mut queue = CalendarQueue::new(n + 2 + shape.extra_slots, 1.0 / event_rate);
        queue.schedule(n as u32 + 1, SimTime::new(shape.warmup));
        queue.schedule(n as u32, SimTime::new(shape.tick));
        let mut kernel = Kernel {
            model,
            events: Events {
                queue,
                updaters,
                rngs,
                extra_base: n as u32 + 2,
            },
            tick: shape.tick,
            horizon: SimTime::new(shape.horizon),
            updates_processed: 0,
        };
        kernel.model.schedule_initial(&mut kernel.events);
        kernel
    }

    /// Processes every event at or before `t`, clamped to the horizon.
    pub fn run_until(&mut self, t: SimTime) {
        let limit = t.min(self.horizon);
        let tick_slot = self.events.extra_base - 2;
        while let Some((now, slot)) = self.events.queue.pop_at_or_before(limit) {
            if slot < tick_slot {
                // An object update — by far the dominant event.
                self.updates_processed += 1;
                let obj = ObjectId(slot);
                let current = self.model.value(obj);
                let i = slot as usize;
                let (value, next) =
                    self.events.updaters[i].fire(now, current, &mut self.events.rngs[i]);
                self.model.on_update(now, obj, value);
                if let Some(next) = next {
                    self.events.queue.schedule(slot, next);
                }
            } else if slot == tick_slot {
                self.model.on_tick(now, &mut self.events);
                self.events.queue.schedule(tick_slot, now + self.tick);
            } else if slot == tick_slot + 1 {
                self.model.on_warmup(now);
            } else {
                let k = slot - self.events.extra_base;
                self.model.on_extra(now, k, &mut self.events);
            }
        }
    }

    /// Runs to the horizon and returns it.
    pub fn run(&mut self) -> SimTime {
        self.run_until(self.horizon);
        self.horizon
    }

    /// The configured end of simulated time.
    pub fn horizon(&self) -> SimTime {
        self.horizon
    }

    /// Source updates processed so far.
    pub fn updates_processed(&self) -> u64 {
        self.updates_processed
    }
}
