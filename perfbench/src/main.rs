//! `besync-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload coop_2k --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Drives the simulator only through public functions
//! (`ScenarioSpec::{workload, build_from}`, `ReadySystem::run`,
//! `CoopSystem::{run_until, into_report}` and each layer's own API) and
//! checks every run. `--trace 0` repeats the workload until `--seconds`
//! have passed and prints the end-to-end metrics; `--trace 1` makes one
//! untraced and one traced run, replays each layer, and prints the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.
//! `--describe` prints each workload's rationale and what is left out.

mod alloc;
mod checks;
mod layers;
mod trace;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use besync::RunReport;
use besync_scenarios::ScenarioSpec;

use checks::{check_repeat, check_report, Fingerprint};
use workloads::Workload;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

const USAGE: &str = "usage: besync-perfbench --workload NAME --seed N --seconds S --trace 0|1
       besync-perfbench --describe";

/// Repeats per measured run: the repeat check needs two.
const MIN_REPEATS: usize = 2;
/// Set-up samples per measured run, topped up with set-up-only builds.
const MIN_SETUPS: usize = 3;
/// Set-up-only builds stop after this many samples or this much time.
const MAX_SETUPS: usize = 201;
const SETUP_TOPUP_BUDGET: Duration = Duration::from_secs(1);

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--describe" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: `{value}` is not {what}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::by_name(&value).ok_or_else(|| bad("a workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a seed"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a duration"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive duration"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            print!("{}", workloads::describe());
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("besync-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let specs = args.workload.scenarios(args.seed);
    let outcome = if args.trace {
        trace::traced(args.workload.name, args.seed, &specs)
    } else {
        measure(&specs, args.seconds)
    };
    println!("{}", outcome.to_json());
    ExitCode::SUCCESS
}

/// One benchmark result: run counts and named metrics.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                // JSON has no NaN or infinity; a run that produced one has
                // already failed its checks.
                let value = if value.is_finite() {
                    format!("{value}")
                } else {
                    "null".into()
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One untraced build-and-run of a scenario.
pub struct Sample {
    pub setup_s: f64,
    pub loop_s: f64,
    pub peak_bytes: usize,
    pub report: RunReport,
}

/// `workload()` + `build_from()` timed as set-up, `ReadySystem::run` as
/// the loop; the allocation peak spans both.
pub fn run_once(spec: &ScenarioSpec) -> Sample {
    alloc::reset_peak();
    let base = alloc::live();
    let t0 = Instant::now();
    let system = spec.build_from(spec.workload());
    let setup_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let report = system.run();
    let loop_s = t1.elapsed().as_secs_f64();
    Sample {
        setup_s,
        loop_s,
        peak_bytes: alloc::peak().saturating_sub(base),
        report,
    }
}

/// Runs `f`, turning a panic into an error so it fails one run instead
/// of aborting the benchmark.
pub fn guarded<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".into())
    })
}

/// Counts runs and failures, and holds each scenario's first fingerprint
/// for the repeat check.
pub struct Ledger {
    firsts: Vec<Option<Fingerprint>>,
    pub attempted: u64,
    pub failed: u64,
}

impl Ledger {
    pub fn new(scenarios: usize) -> Self {
        Ledger {
            firsts: vec![None; scenarios],
            attempted: 0,
            failed: 0,
        }
    }

    /// Records one run of scenario `i`; returns whether it passed.
    pub fn record(
        &mut self,
        i: usize,
        spec: &ScenarioSpec,
        run: Result<&RunReport, &String>,
    ) -> bool {
        self.attempted += 1;
        let verdict = match run {
            Err(panic) => Err(format!("panicked: {panic}")),
            Ok(report) => check_report(spec, report).and_then(|()| match &self.firsts[i] {
                Some(first) => check_repeat(first, report),
                None => {
                    self.firsts[i] = Some(Fingerprint::of(report));
                    Ok(())
                }
            }),
        };
        match verdict {
            Ok(()) => true,
            Err(e) => {
                eprintln!(
                    "besync-perfbench: {} (seed {}) failed: {e}",
                    spec.name, spec.seed
                );
                self.failed += 1;
                false
            }
        }
    }

    /// Records a failed check that is not a run of its own (a layer
    /// replay in the traced run).
    pub fn fail(&mut self, spec: &ScenarioSpec, why: &str) {
        self.attempted += 1;
        self.failed += 1;
        eprintln!(
            "besync-perfbench: {} (seed {}) failed: {why}",
            spec.name, spec.seed
        );
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Median of a sample (NaN when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The untraced run: repeats the workload until `seconds` have passed
/// (at least [`MIN_REPEATS`] times) and reports the end-to-end metrics.
fn measure(specs: &[ScenarioSpec], seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut ledger = Ledger::new(specs.len());
    let (mut rates, mut setups, mut divergences) = (Vec::new(), Vec::new(), Vec::new());
    let mut peak = 0usize;
    let mut repeats = 0;
    while repeats < MIN_REPEATS || start.elapsed().as_secs_f64() < seconds {
        repeats += 1;
        let (mut updates, mut loop_s, mut setup_s, mut divergence) = (0u64, 0.0, 0.0, 0.0);
        let mut all_passed = true;
        for (i, spec) in specs.iter().enumerate() {
            let run = guarded(|| run_once(spec));
            let passed = ledger.record(i, spec, run.as_ref().map(|s| &s.report));
            match run {
                Ok(s) if passed => {
                    updates += s.report.updates_processed;
                    loop_s += s.loop_s;
                    setup_s += s.setup_s;
                    divergence += s.report.mean_divergence();
                    peak = peak.max(s.peak_bytes);
                }
                _ => all_passed = false,
            }
        }
        if all_passed {
            eprintln!(
                "repeat {repeats}: set-up {setup_s:.4} s, loop {loop_s:.3} s, {:.0} updates/s",
                updates as f64 / loop_s
            );
            rates.push(updates as f64 / loop_s);
            setups.push(setup_s);
            divergences.push(divergence / specs.len() as f64);
        }
    }
    // Set-up is short next to the loop on the small workloads: top the
    // sample up with set-up-only builds so its median is steady.
    let topup = Instant::now();
    while !setups.is_empty()
        && (setups.len() < MIN_SETUPS
            || (setups.len() < MAX_SETUPS && topup.elapsed() < SETUP_TOPUP_BUDGET))
    {
        let mut setup_s = 0.0;
        for spec in specs {
            let t = Instant::now();
            let system = spec.build_from(spec.workload());
            setup_s += t.elapsed().as_secs_f64();
            drop(system);
        }
        setups.push(setup_s);
    }
    Outcome {
        attempted: ledger.attempted,
        failed: ledger.failed,
        metrics: vec![
            ("updates_per_s", median(&rates), "updates/s"),
            ("setup_s", median(&setups), "s"),
            ("alloc_peak_mib", peak as f64 / (1 << 20) as f64, "MiB"),
            ("mean_divergence", median(&divergences), "divergence"),
            ("passed_share", 1.0 - ledger.failed_share(), "fraction"),
        ],
    }
}
