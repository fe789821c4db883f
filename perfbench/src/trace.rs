//! The traced run: spans recorded from the benchmark's own code around
//! its calls into the simulator, the layer replays and the memory
//! attribution, folded into the per-layer metrics.

use std::fs;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

use besync::RunReport;
use besync_scenarios::{ReadySystem, ScenarioSpec, SystemKind};
use besync_sim::SimTime;

use crate::layers::{self, ticks, Costs, Memory};
use crate::{guarded, median, run_once, Ledger, Outcome};

/// Where each traced run writes its spans (one JSON object per line).
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Objects per one-simulated-second slice at the 2048-object regime;
/// larger workloads slice finer so a slice holds the same expected
/// number of updates.
const SLICE_OBJECTS: f64 = 2048.0;

struct Span {
    name: &'static str,
    scenario: usize,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder; written out once the run ends.
pub struct Tracer {
    origin: Instant,
    scenario: usize,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            scenario: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            scenario: self.scenario,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` and returns its duration in seconds.
    fn end(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        self.open.retain(|&open| open != id);
        let span = &mut self.spans[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 * 1e-9
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name);
        let value = f();
        self.end(id);
        value
    }

    /// Closes spans a panic left open.
    fn unwind(&mut self) {
        while let Some(&id) = self.open.last() {
            self.end(id);
        }
    }

    fn write(&self, path: &Path, specs: &[ScenarioSpec]) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"parent\": {parent}, \"scenario\": \"{}\", \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}}}",
                specs[s.scenario].name, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// What the traced run of one scenario measured.
struct Traced {
    report: RunReport,
    workload_s: f64,
    build_s: f64,
    /// Slices plus `into_report`: comparable with `ReadySystem::run`.
    loop_s: f64,
    slices_s: Vec<f64>,
}

/// Builds under spans, then runs in slices: `run_until` per slice on the
/// cooperative system, one `ReadySystem::run` span on the other kinds.
fn traced_run(spec: &ScenarioSpec, tracer: &mut Tracer) -> Traced {
    let id = tracer.begin("setup.workload");
    let wl = spec.workload();
    let workload_s = tracer.end(id);
    let id = tracer.begin("setup.build");
    let system = spec.build_from(wl);
    let build_s = tracer.end(id);
    let mut slices_s = Vec::new();
    let (report, loop_s) = match system {
        ReadySystem::Coop(mut coop) => {
            let slice = SLICE_OBJECTS / spec.total_objects() as f64;
            let horizon = coop.horizon().seconds();
            for k in 1.. {
                let t = (k as f64 * slice).min(horizon);
                let id = tracer.begin("kernel.slice");
                coop.run_until(SimTime::new(t));
                slices_s.push(tracer.end(id));
                if t >= horizon {
                    break;
                }
            }
            let id = tracer.begin("kernel.into_report");
            let report = coop.into_report();
            let tail = tracer.end(id);
            (report, slices_s.iter().sum::<f64>() + tail)
        }
        other => {
            let id = tracer.begin("kernel.run");
            let report = other.run();
            let run_s = tracer.end(id);
            slices_s.push(run_s);
            (report, run_s)
        }
    };
    Traced {
        report,
        workload_s,
        build_s,
        loop_s,
        slices_s,
    }
}

/// Busy time and operation count of one layer, summed over scenarios.
#[derive(Default, Clone, Copy)]
struct Busy {
    ns: f64,
    ops: f64,
}

impl Busy {
    fn add(&mut self, ns_per_op: Option<f64>, ops: f64) {
        if let Some(ns) = ns_per_op {
            self.ns += ns * ops;
            self.ops += ops;
        }
    }

    fn ns_per_op(self) -> f64 {
        ratio(self.ns, self.ops)
    }
}

/// `num / den`, or 0 when nothing was counted.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Everything the per-layer metrics are folded from.
#[derive(Default)]
struct Totals {
    loop_s: f64,
    traced_loop_s: f64,
    workload_s: f64,
    build_s: f64,
    slices_s: Vec<f64>,
    dispatched: f64,
    updates: f64,
    sent: f64,
    delivered: f64,
    feedback: f64,
    ticks: f64,
    polls: f64,
    lost: f64,
    retransmits: f64,
    superseded: f64,
    max_backlog: f64,
    resizes: f64,
    calendar: Busy,
    updater: Busy,
    truth_update: Busy,
    truth_refresh: Busy,
    source: Busy,
    link: Busy,
    feedback_busy: Busy,
    select: Busy,
    loss_draw: Busy,
    ack: Busy,
    allocate: Busy,
    kind_loop_s: [f64; 3],
    memory_objects: f64,
    build_bytes: f64,
    build_peak_bytes: f64,
    workload_bytes: f64,
    updater_bytes: f64,
    truth_bytes: f64,
    calendar_bytes: f64,
    source_bytes: f64,
    unattributed_bytes: f64,
}

/// Every event the loop dispatches: updates, ticks, the warm-up marker,
/// both edges of every fault episode, and polls.
fn dispatched(r: &RunReport, ticks: f64) -> f64 {
    let f = &r.faults;
    r.updates_processed as f64
        + ticks
        + 1.0
        + 2.0 * (f.outages + f.crashes) as f64
        + r.polls_sent as f64
}

impl Totals {
    fn add_run(&mut self, spec: &ScenarioSpec, r: &RunReport, loop_s: f64) {
        let ticks = ticks(spec);
        let f = &r.faults;
        self.loop_s += loop_s;
        self.updates += r.updates_processed as f64;
        self.ticks += ticks;
        self.dispatched += dispatched(r, ticks);
        self.sent += r.refreshes_sent as f64;
        self.delivered += r.refreshes_delivered as f64;
        self.feedback += r.feedback_messages as f64;
        self.polls += r.polls_sent as f64;
        self.lost += f.lost_refreshes as f64;
        self.retransmits += f.retransmits as f64;
        self.superseded += f.superseded_retries as f64;
        self.max_backlog = self.max_backlog.max(r.max_cache_queue as f64);
        let kind = match spec.system {
            SystemKind::Ideal => Some(0),
            SystemKind::Cgm(_) => Some(1),
            SystemKind::Competitive => Some(2),
            SystemKind::Coop => None,
        };
        if let Some(k) = kind {
            self.kind_loop_s[k] += loop_s;
        }
    }

    /// Turns per-operation replay costs into busy time via this run's
    /// operation counts.
    fn add_costs(&mut self, spec: &ScenarioSpec, r: &RunReport, c: &Costs) {
        let f = &r.faults;
        let ticks = ticks(spec);
        let updates = r.updates_processed as f64;
        self.resizes += c.calendar_resizes as f64;
        self.calendar.add(Some(c.calendar), dispatched(r, ticks));
        self.updater.add(Some(c.updater), updates);
        self.truth_update.add(Some(c.truth_update), updates);
        self.truth_refresh
            .add(Some(c.truth_refresh), r.refreshes_delivered as f64);
        self.source.add(c.source, updates);
        self.link
            .add(c.link, (r.refreshes_sent + f.retransmits) as f64);
        self.feedback_busy
            .add(c.feedback, r.feedback_messages as f64);
        self.select.add(c.select, ticks);
        // Every delivery attempt draws from the loss lane.
        self.loss_draw.add(
            c.loss_draw,
            (r.refreshes_delivered + f.lost_refreshes) as f64,
        );
        // Fault-aware runs piggyback one ack on each feedback message.
        self.ack.add(c.ack, r.feedback_messages as f64);
        if let SystemKind::Cgm(_) = spec.system {
            let cfg = spec.cgm_config();
            self.allocate.add(
                c.allocate,
                ((cfg.warmup + cfg.measure) / cfg.realloc_period).floor(),
            );
        }
    }

    fn add_memory(&mut self, m: &Memory) {
        self.memory_objects += m.objects as f64;
        self.build_bytes += m.build as f64;
        self.build_peak_bytes += m.build_peak as f64;
        self.workload_bytes += m.workload as f64;
        self.updater_bytes += m.updater as f64;
        self.truth_bytes += m.truth as f64;
        self.calendar_bytes += m.calendar as f64;
        self.source_bytes += m.source as f64;
        self.unattributed_bytes += m.unattributed();
    }
}

/// The highest slice percentile with at least ten slices beyond it
/// (nearest rank), and that percentile as a fraction. With fewer than
/// eleven slices no percentile qualifies and the maximum is reported.
fn tail(slices: &[f64]) -> (f64, f64) {
    let mut v = slices.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    if n < 11 {
        return (v[n - 1], 1.0);
    }
    let rank = n - 10; // 1-based nearest rank: ten slices lie above it
    (v[rank - 1], rank as f64 / n as f64)
}

/// The traced run of a workload: per scenario, one untraced run (the
/// loop-time baseline), one traced run, layer replays and memory
/// attribution. Spans go to `TRACE_DIR`; metrics to the returned outcome.
pub fn traced(workload: &str, seed: u64, specs: &[ScenarioSpec]) -> Outcome {
    let mut ledger = Ledger::new(specs.len());
    let mut tracer = Tracer::new();
    let mut t = Totals::default();
    for (i, spec) in specs.iter().enumerate() {
        tracer.scenario = i;
        let untraced = guarded(|| run_once(spec));
        let passed = ledger.record(i, spec, untraced.as_ref().map(|s| &s.report));
        let traced = guarded(|| traced_run(spec, &mut tracer));
        tracer.unwind();
        let traced_passed = ledger.record(i, spec, traced.as_ref().map(|r| &r.report));
        let (Ok(base), Ok(run)) = (untraced, traced) else {
            continue;
        };
        if !(passed && traced_passed) {
            continue;
        }
        t.add_run(spec, &base.report, base.loop_s);
        t.traced_loop_s += run.loop_s;
        t.workload_s += run.workload_s;
        t.build_s += run.build_s;
        t.slices_s.extend(run.slices_s);
        let replays = guarded(|| {
            let costs = layers::replay(spec, &base.report, &mut tracer);
            let memory = layers::memory(spec, &mut tracer);
            (costs, memory)
        });
        tracer.unwind();
        match replays {
            Ok((costs, memory)) if costs.mismatches == 0 => {
                t.add_costs(spec, &base.report, &costs);
                t.add_memory(&memory);
            }
            Ok((costs, _)) => ledger.fail(
                spec,
                &format!(
                    "{} replayed outputs disagree with the live stream",
                    costs.mismatches
                ),
            ),
            Err(panic) => ledger.fail(spec, &format!("layer replay panicked: {panic}")),
        }
    }
    let path = Path::new(TRACE_DIR).join(format!("trace-{workload}-seed{seed}.jsonl"));
    if let Err(e) = tracer.write(&path, specs) {
        eprintln!("besync-perfbench: could not write {}: {e}", path.display());
    }
    metrics(&t, &ledger)
}

fn metrics(t: &Totals, ledger: &Ledger) -> Outcome {
    let loop_ns = t.loop_s * 1e9;
    let share = |ns: f64| ratio(ns, loop_ns);
    let attributed = [
        t.calendar,
        t.updater,
        t.truth_update,
        t.truth_refresh,
        t.source,
        t.link,
        t.feedback_busy,
        t.select,
        t.loss_draw,
        t.ack,
        t.allocate,
    ]
    .iter()
    .map(|b| b.ns)
    .sum::<f64>();
    let (slice_tail, slice_tail_q) = tail(&t.slices_s);
    let per_object = |bytes: f64| ratio(bytes, t.memory_objects);
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            ("scenarios.workload_s", t.workload_s, "s"),
            ("scenarios.build_s", t.build_s, "s"),
            ("kernel.loop_s", t.loop_s, "s"),
            ("kernel.dispatched", t.dispatched, "count"),
            ("kernel.ns_per_dispatch", ratio(loop_ns, t.dispatched), "ns"),
            ("kernel.slices", t.slices_s.len() as f64, "count"),
            ("kernel.slice_ms_p50", median(&t.slices_s) * 1e3, "ms"),
            ("kernel.slice_ms_tail", slice_tail * 1e3, "ms"),
            ("kernel.slice_tail_q", slice_tail_q, "fraction"),
            (
                "kernel.unattributed_share",
                1.0 - ratio(attributed, loop_ns),
                "fraction",
            ),
            ("calendar.ns_per_op", t.calendar.ns_per_op(), "ns"),
            ("calendar.resizes", t.resizes, "count"),
            (
                "calendar.bytes_per_object",
                per_object(t.calendar_bytes),
                "B",
            ),
            ("calendar.share", share(t.calendar.ns), "fraction"),
            ("updater.ns_per_fire", t.updater.ns_per_op(), "ns"),
            ("updater.bytes_per_object", per_object(t.updater_bytes), "B"),
            ("updater.share", share(t.updater.ns), "fraction"),
            ("truth.ns_per_update", t.truth_update.ns_per_op(), "ns"),
            ("truth.ns_per_refresh", t.truth_refresh.ns_per_op(), "ns"),
            ("truth.bytes_per_object", per_object(t.truth_bytes), "B"),
            (
                "truth.share",
                share(t.truth_update.ns + t.truth_refresh.ns),
                "fraction",
            ),
            ("source.ns_per_update", t.source.ns_per_op(), "ns"),
            (
                "source.refreshes_per_update",
                ratio(t.sent, t.updates),
                "ratio",
            ),
            ("source.bytes_per_object", per_object(t.source_bytes), "B"),
            ("source.share", share(t.source.ns), "fraction"),
            ("link.ns_per_msg", t.link.ns_per_op(), "ns"),
            (
                "link.delivered_per_sent",
                ratio(t.delivered, t.sent),
                "ratio",
            ),
            ("link.max_backlog", t.max_backlog, "count"),
            ("link.share", share(t.link.ns), "fraction"),
            (
                "cache.feedback_per_tick",
                ratio(t.feedback, t.ticks),
                "ratio",
            ),
            (
                "threshold.ns_per_feedback",
                t.feedback_busy.ns_per_op(),
                "ns",
            ),
            ("cache.ns_per_select", t.select.ns_per_op(), "ns"),
            (
                "cache.share",
                share(t.feedback_busy.ns + t.select.ns),
                "fraction",
            ),
            ("fault.ns_per_draw", t.loss_draw.ns_per_op(), "ns"),
            ("fault.ns_per_ack", t.ack.ns_per_op(), "ns"),
            ("fault.lost_per_sent", ratio(t.lost, t.sent), "ratio"),
            (
                "fault.superseded_per_retransmit",
                ratio(t.superseded, t.retransmits),
                "ratio",
            ),
            ("fault.share", share(t.loss_draw.ns + t.ack.ns), "fraction"),
            ("baselines.ns_per_allocate", t.allocate.ns_per_op(), "ns"),
            (
                "baselines.polls_per_update",
                ratio(t.polls, t.updates),
                "ratio",
            ),
            ("baselines.share", share(t.allocate.ns), "fraction"),
            ("kinds.ideal_loop_s", t.kind_loop_s[0], "s"),
            ("kinds.cgm2_loop_s", t.kind_loop_s[1], "s"),
            ("kinds.competitive_loop_s", t.kind_loop_s[2], "s"),
            (
                "alloc.build_bytes_per_object",
                per_object(t.build_bytes),
                "B",
            ),
            (
                "alloc.build_peak_bytes_per_object",
                per_object(t.build_peak_bytes),
                "B",
            ),
            (
                "alloc.workload_bytes_per_object",
                per_object(t.workload_bytes),
                "B",
            ),
            (
                "alloc.unattributed_bytes_per_object",
                per_object(t.unattributed_bytes),
                "B",
            ),
            (
                "trace.overhead_share",
                ratio(t.traced_loop_s - t.loop_s, t.loop_s),
                "fraction",
            ),
            ("failed_share", ledger.failed_share(), "fraction"),
        ],
    }
}
