//! Layer replays and memory attribution, measured from outside.
//!
//! Each replay drives one layer's public API with the workload's own
//! operation stream, at the workload's size, and times it. The stream
//! comes from the live structures themselves: the scenario's updaters
//! and per-object RNGs firing through a calendar queue shaped like the
//! system's. Memory attribution takes allocator deltas around
//! standalone constructions of each layer.

use std::hint::black_box;
use std::time::{Duration, Instant};

use besync::cache::CacheRuntime;
use besync::fault::{DeliveryEstimator, LossLane};
use besync::priority::PolicyKind;
use besync::source::{Snapshot, SourceRuntime};
use besync::system::RefreshMsg;
use besync::threshold::ThresholdState;
use besync::RunReport;
use besync_baselines::freshness::allocate;
use besync_data::{ObjectId, SourceId, TruthTable};
use besync_net::Link;
use besync_scenarios::{ScenarioSpec, SystemKind};
use besync_sim::{CalendarQueue, SimTime};
use besync_workloads::WorkloadSpec;

use crate::alloc;
use crate::trace::Tracer;

/// Timed passes per replay; each layer reports the median pass.
const PASSES: usize = 3;
/// Longest operation stream replayed per layer.
const MAX_OPS: usize = 1_500_000;
/// Refreshes applied in the truth-table replay (at most).
const MAX_REFRESHES: usize = 200_000;
/// Messages pushed through the link replay.
const LINK_MSGS: u64 = 500_000;
/// Wall time spent on each call-level micro replay.
const MICRO_BUDGET: Duration = Duration::from_millis(60);
/// Far enough ahead that every pending event is due.
const FAR: f64 = 1e9;

/// One source update as the live loop dispatches it.
#[derive(Clone, Copy)]
struct Op {
    now: f64,
    /// The object's next update time (NaN if none).
    next: f64,
    value: f64,
    weight: f64,
    obj: u32,
}

/// Ticks in the scenario's horizon.
pub fn ticks(spec: &ScenarioSpec) -> f64 {
    let (horizon, tick) = match spec.system {
        SystemKind::Cgm(_) => {
            let cfg = spec.cgm_config();
            (cfg.warmup + cfg.measure, cfg.tick)
        }
        _ => {
            let cfg = spec.system_config();
            (cfg.horizon(), cfg.tick)
        }
    };
    (horizon / tick).floor()
}

/// The calendar queue a system of this kind builds for `wl`.
fn queue_shape(spec: &ScenarioSpec, wl: &WorkloadSpec) -> (usize, f64) {
    let total = wl.total_objects();
    let rates: f64 = wl.rates.iter().sum();
    let (slots, rate) = match spec.system {
        SystemKind::Cgm(_) => {
            let cfg = spec.cgm_config();
            (
                2 * total + 3,
                rates + cfg.refresh_budget() + 1.0 / cfg.tick.max(1e-6),
            )
        }
        SystemKind::Coop if spec.fault.is_some() => {
            let cfg = spec.system_config();
            (
                total + 3 + wl.layout.sources() as usize,
                rates + 1.0 / cfg.tick.max(1e-6),
            )
        }
        _ => (total + 2, rates + 1.0 / spec.system_config().tick.max(1e-6)),
    };
    (slots, 1.0 / rate)
}

/// Each object's first update time, in object order.
fn first_times(wl: &WorkloadSpec) -> Vec<(u32, SimTime)> {
    let mut updaters = wl.updaters.clone();
    let mut rngs = wl.object_rngs();
    updaters
        .iter_mut()
        .zip(rngs.iter_mut())
        .enumerate()
        .filter_map(|(i, (u, rng))| u.first_time(SimTime::ZERO, rng).map(|t| (i as u32, t)))
        .collect()
}

/// The first `n` source updates of the workload, in dispatch order.
fn op_stream(wl: &WorkloadSpec, shape: (usize, f64), n: usize) -> Vec<Op> {
    let mut objects: Vec<_> = wl
        .updaters
        .clone()
        .into_iter()
        .zip(wl.object_rngs())
        .collect();
    let mut values = wl.initial_values.clone();
    let mut queue = CalendarQueue::new(shape.0, shape.1);
    for (obj, (updater, rng)) in objects.iter_mut().enumerate() {
        if let Some(t) = updater.first_time(SimTime::ZERO, rng) {
            queue.schedule(obj as u32, t);
        }
    }
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        let Some((now, slot)) = queue.pop_at_or_before(SimTime::new(FAR)) else {
            break;
        };
        let i = slot as usize;
        let (updater, rng) = &mut objects[i];
        let (value, next) = updater.fire(now, values[i], rng);
        values[i] = value;
        if let Some(t) = next {
            queue.schedule(slot, t);
        }
        ops.push(Op {
            now: now.seconds(),
            next: next.map_or(f64::NAN, SimTime::seconds),
            value,
            weight: wl.weights[i].weight_at(now),
            obj: slot,
        });
    }
    ops
}

fn ns_per(elapsed: Duration, ops: usize) -> f64 {
    elapsed.as_nanos() as f64 / ops.max(1) as f64
}

/// Median ns/op over [`PASSES`] passes of `pass`.
fn median_ns(mut pass: impl FnMut() -> f64) -> f64 {
    let passes: Vec<f64> = (0..PASSES).map(|_| pass()).collect();
    crate::median(&passes)
}

/// Mean ns per call of `f`, called in batches of `batch` until
/// [`MICRO_BUDGET`] has passed.
fn ns_per_call(batch: u64, mut f: impl FnMut(u64)) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    loop {
        for _ in 0..batch {
            f(calls);
            calls += 1;
        }
        if t0.elapsed() >= MICRO_BUDGET {
            return ns_per(t0.elapsed(), calls as usize);
        }
    }
}

/// Per-operation costs of one scenario's layers (ns). `None` where the
/// layer does not run in that scenario.
#[derive(Default)]
pub struct Costs {
    pub calendar: f64,
    pub calendar_resizes: u64,
    pub updater: f64,
    pub truth_update: f64,
    pub truth_refresh: f64,
    pub source: Option<f64>,
    pub link: Option<f64>,
    pub feedback: Option<f64>,
    pub select: Option<f64>,
    pub loss_draw: Option<f64>,
    pub ack: Option<f64>,
    pub allocate: Option<f64>,
    /// Replayed outputs that disagreed with the live structures' stream.
    pub mismatches: u64,
}

/// Replays every layer the scenario runs, each under its own span.
pub fn replay(spec: &ScenarioSpec, report: &RunReport, tracer: &mut Tracer) -> Costs {
    let wl = spec.workload();
    let shape = queue_shape(spec, &wl);
    let ops = tracer.span("replay.stream", || op_stream(&wl, shape, MAX_OPS));
    let mut c = Costs::default();
    c.calendar = tracer.span("replay.calendar", || {
        median_ns(|| replay_calendar(&wl, shape, &ops, &mut c.calendar_resizes, &mut c.mismatches))
    });
    c.updater = tracer.span("replay.updater", || {
        median_ns(|| replay_updater(&wl, &ops, &mut c.mismatches))
    });
    c.truth_update = tracer.span("replay.truth_update", || {
        median_ns(|| replay_truth(spec, &wl, &ops, false))
    });
    c.truth_refresh = tracer.span("replay.truth_refresh", || {
        median_ns(|| replay_truth(spec, &wl, &ops, true))
    });
    if spec.system == SystemKind::Coop {
        let ticks = ticks(spec).max(1.0);
        let m = wl.layout.sources();
        c.source = Some(tracer.span("replay.source", || {
            median_ns(|| replay_source(spec, &wl, &ops))
        }));
        let per_tick = (report.refreshes_sent + report.faults.retransmits) as f64 / ticks;
        c.link = Some(tracer.span("replay.link", || {
            median_ns(|| replay_link(spec, per_tick.ceil() as usize))
        }));
        let cfg = spec.system_config();
        c.feedback = Some(tracer.span("replay.threshold", || {
            median_ns(|| {
                let mut threshold = ThresholdState::new(cfg.threshold_params(m), SimTime::ZERO);
                ns_per_call(1024, |i| {
                    black_box(&mut threshold).on_feedback(SimTime::new(i as f64 * 0.5), false)
                })
            })
        }));
        let k = ((report.feedback_messages as f64 / ticks).ceil() as usize).clamp(1, m as usize);
        c.select = Some(tracer.span("replay.select", || median_ns(|| replay_select(spec, m, k))));
    }
    if let Some(profile) = spec.fault {
        let seed = spec.sim_seed;
        if profile.loss_prob > 0.0 {
            c.loss_draw = Some(tracer.span("replay.loss", || {
                median_ns(|| {
                    let mut lane = LossLane::new(seed, 0, profile.loss_prob);
                    ns_per_call(1024, |_| {
                        black_box(lane.draw());
                    })
                })
            }));
        }
        if profile.aware {
            c.ack = Some(tracer.span("replay.ack", || {
                median_ns(|| {
                    let mut est = DeliveryEstimator::new(seed, 0);
                    ns_per_call(1024, |i| black_box(&mut est).on_ack(2 * i, 3 * i))
                })
            }));
        }
    }
    if let SystemKind::Cgm(_) = spec.system {
        let budget = spec.cgm_config().refresh_budget();
        c.allocate = Some(tracer.span("replay.allocate", || {
            median_ns(|| {
                ns_per_call(1, |_| {
                    black_box(allocate(black_box(&wl.rates), budget));
                })
            })
        }));
    }
    c
}

fn replay_calendar(
    wl: &WorkloadSpec,
    shape: (usize, f64),
    ops: &[Op],
    resizes: &mut u64,
    mismatches: &mut u64,
) -> f64 {
    let mut queue = CalendarQueue::new(shape.0, shape.1);
    for (obj, t) in first_times(wl) {
        queue.schedule(obj, t);
    }
    let t0 = Instant::now();
    for op in ops {
        let Some((_, slot)) = queue.pop_at_or_before(SimTime::new(FAR)) else {
            *mismatches += 1;
            break;
        };
        *mismatches += u64::from(slot != op.obj);
        if op.next.is_finite() {
            queue.schedule(slot, SimTime::new(op.next));
        }
    }
    let ns = ns_per(t0.elapsed(), ops.len());
    *resizes = queue.resizes();
    ns
}

fn replay_updater(wl: &WorkloadSpec, ops: &[Op], mismatches: &mut u64) -> f64 {
    // Laid out as the systems hold them: each updater beside its RNG.
    let mut objects: Vec<_> = wl
        .updaters
        .clone()
        .into_iter()
        .zip(wl.object_rngs())
        .collect();
    let mut values = wl.initial_values.clone();
    for (updater, rng) in objects.iter_mut() {
        black_box(updater.first_time(SimTime::ZERO, rng));
    }
    let t0 = Instant::now();
    for op in ops {
        let i = op.obj as usize;
        let (updater, rng) = &mut objects[i];
        let (value, _) = updater.fire(SimTime::new(op.now), values[i], rng);
        values[i] = value;
        *mismatches += u64::from(value.to_bits() != op.value.to_bits());
    }
    ns_per(t0.elapsed(), ops.len())
}

/// Times `source_update` over the stream, or (with `refreshes`) applies
/// the stream untimed and times `apply_refresh` on a spread of the
/// updated objects with their current state, at the stream's end
/// (refresh time never runs backwards).
fn replay_truth(spec: &ScenarioSpec, wl: &WorkloadSpec, ops: &[Op], refreshes: bool) -> f64 {
    let mut truth = TruthTable::new(spec.metric, &wl.initial_values, wl.weights.clone());
    let t0 = Instant::now();
    for op in ops {
        black_box(truth.source_update(SimTime::new(op.now), ObjectId(op.obj), op.value));
    }
    if !refreshes {
        return ns_per(t0.elapsed(), ops.len());
    }
    let Some(end) = ops.last().map(|op| SimTime::new(op.now)) else {
        return 0.0;
    };
    let targets: Vec<(ObjectId, f64, u64)> = ops
        .iter()
        .step_by((ops.len() / MAX_REFRESHES).max(1))
        .map(|op| {
            let t = truth.truth(ObjectId(op.obj));
            (ObjectId(op.obj), t.source_value, t.source_updates)
        })
        .collect();
    let t0 = Instant::now();
    for &(obj, value, updates) in &targets {
        truth.apply_refresh(end, obj, value, updates);
    }
    ns_per(t0.elapsed(), targets.len())
}

/// The cooperative system's sources, constructed as `CoopSystem::new`
/// constructs them.
fn build_sources(spec: &ScenarioSpec, wl: &WorkloadSpec) -> Vec<SourceRuntime> {
    let cfg = spec.system_config();
    let m = wl.layout.sources();
    let n = wl.layout.objects_per_source();
    let aware = spec.fault.is_some_and(|f| f.aware);
    (0..m)
        .map(|sid| {
            let lo = (sid * n) as usize;
            let hi = lo + n as usize;
            let bound_rates =
                matches!(cfg.policy, PolicyKind::Bound).then(|| wl.rates[lo..hi].to_vec());
            let mut source = SourceRuntime::new(
                SourceId(sid),
                sid * n,
                &wl.initial_values[lo..hi],
                wl.weights[lo..hi].to_vec(),
                wl.rates[lo..hi].to_vec(),
                Link::new(cfg.source_wave(sid)),
                cfg.threshold_params(m),
                cfg.metric,
                cfg.policy,
                cfg.estimator,
                bound_rates,
                SimTime::ZERO,
            );
            if aware {
                source.enable_delivery_estimator(cfg.sim_seed);
            }
            source
        })
        .collect()
}

/// Each update is quoted to the source's heap, then the source sends
/// while a candidate beats its threshold and its uplink has credit — the
/// cooperative loop's per-update source work.
fn replay_source(spec: &ScenarioSpec, wl: &WorkloadSpec, ops: &[Op]) -> f64 {
    let mut sources = build_sources(spec, wl);
    let n = wl.layout.objects_per_source();
    let t0 = Instant::now();
    for op in ops {
        let sid = op.obj / n;
        let source = &mut sources[sid as usize];
        let now = SimTime::new(op.now);
        source.record_update_weighted(now, op.obj - sid * n, op.value, op.weight);
        source.saturated = false;
        while let Some((priority, local)) = source.candidate() {
            if priority <= source.threshold.value() {
                break;
            }
            if !source.uplink.try_consume(now, 1.0) {
                source.saturated = true;
                break;
            }
            black_box(source.mark_sent(now, local));
        }
    }
    ns_per(t0.elapsed(), ops.len())
}

/// Refresh messages offered to the cache-side link at the run's mean
/// send rate, served once per tick.
fn replay_link(spec: &ScenarioSpec, per_tick: usize) -> f64 {
    let mut link: Link<RefreshMsg> = Link::new(spec.system_config().cache_wave());
    let per_tick = per_tick.max(1);
    let ticks = LINK_MSGS.div_ceil(per_tick as u64);
    let mut out = Vec::new();
    let t0 = Instant::now();
    for tick in 0..ticks {
        for j in 0..per_tick {
            let now = SimTime::new(tick as f64 + (j + 1) as f64 / (per_tick + 1) as f64);
            let msg = RefreshMsg {
                obj: ObjectId(j as u32),
                src: SourceId(0),
                snapshot: Snapshot {
                    value: j as f64,
                    updates: tick,
                },
                threshold: 1.0,
            };
            if let Some(m) = link.offer(now, msg) {
                black_box(m);
            }
        }
        link.service(SimTime::new((tick + 1) as f64), &mut out);
        black_box(&out);
        out.clear();
    }
    ns_per(t0.elapsed(), (ticks as usize) * per_tick)
}

/// The cache's feedback-target selection, with thresholds moving
/// between selections as refreshes report them.
fn replay_select(spec: &ScenarioSpec, m: u32, k: usize) -> f64 {
    let cfg = spec.system_config();
    let mut cache = CacheRuntime::new(
        m,
        cfg.initial_threshold,
        cfg.feedback_targeting,
        cfg.sim_seed,
    );
    let mut targets = Vec::new();
    ns_per_call(256, |i| {
        let spread = (i.wrapping_mul(2_654_435_761) % 1000) as f64 / 100.0;
        cache.observe_threshold(SourceId((i % u64::from(m)) as u32), 1.0 + spread);
        cache.select_targets_into(k, &mut targets);
        black_box(&targets);
    })
}

/// Heap bytes per layer for one scenario, from allocator deltas.
pub struct Memory {
    pub objects: usize,
    /// `workload()` + `build_from()`, retained by the built system.
    pub build: usize,
    /// High-water mark during `workload()` + `build_from()`.
    pub build_peak: usize,
    /// `workload()` alone (the updater, weight, rate and value pools).
    pub workload: usize,
    pub updater: usize,
    pub truth: usize,
    pub calendar: usize,
    /// Cooperative sources (zero for the other kinds).
    pub source: usize,
}

impl Memory {
    /// What the per-layer constructions leave unexplained.
    pub fn unattributed(&self) -> f64 {
        self.build as f64 - (self.updater + self.truth + self.calendar + self.source) as f64
    }
}

/// Allocator deltas around standalone constructions at workload size.
pub fn memory(spec: &ScenarioSpec, tracer: &mut Tracer) -> Memory {
    let (build, build_peak) = tracer.span("alloc.build", || {
        alloc::reset_peak();
        let base = alloc::live();
        let (system, build) = alloc::retained(|| spec.build_from(spec.workload()));
        let peak = alloc::peak().saturating_sub(base);
        drop(system);
        (build, peak)
    });
    let (wl, workload) = tracer.span("alloc.workload", || alloc::retained(|| spec.workload()));
    let updater = tracer.span("alloc.updater", || {
        alloc::retained(|| {
            wl.updaters
                .clone()
                .into_iter()
                .zip(wl.object_rngs())
                .collect::<Vec<_>>()
        })
        .1
    });
    let truth = tracer.span("alloc.truth", || {
        alloc::retained(|| TruthTable::new(spec.metric, &wl.initial_values, wl.weights.clone())).1
    });
    let shape = queue_shape(spec, &wl);
    let firsts = first_times(&wl);
    let calendar = tracer.span("alloc.calendar", || {
        alloc::retained(|| {
            let mut queue = CalendarQueue::new(shape.0, shape.1);
            for &(obj, t) in &firsts {
                queue.schedule(obj, t);
            }
            queue
        })
        .1
    });
    let source = if spec.system == SystemKind::Coop {
        tracer.span("alloc.source", || {
            alloc::retained(|| build_sources(spec, &wl)).1
        })
    } else {
        0
    };
    Memory {
        objects: wl.total_objects(),
        build,
        build_peak,
        workload,
        updater,
        truth,
        calendar,
        source,
    }
}
