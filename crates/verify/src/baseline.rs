//! The two checked-in baselines, both in the codec's one text format
//! ([`besync_scenarios::codec`]): `STATS_baseline.txt`, the per-scenario
//! metric moments of statistical acceptance, and `BENCH_baseline.txt`,
//! the bench counter baseline that `besync-bench --out` writes and
//! `--compare` checks. Both are diff-friendly `scenario` … `end` blocks:
//!
//! ```text
//! besync-stats v1
//! scenario medium full seeds=32
//! metric mean_divergence 32 <mean> <m2> <min> <max>
//! metric updates_processed 32 <mean> <m2> <min> <max>
//! end
//!
//! besync-bench v6
//! quick false
//! calibration_seconds <s>
//! ...
//! scenario medium
//! seed 202
//! updates <n>
//! ...
//! end
//! ```
//!
//! Floats use [`fmt_f64`], so a decoded baseline reproduces the
//! recorded values bit for bit (including the `±∞` min/max of an empty
//! accumulator, via the `!x` form), and re-encoding it reproduces the
//! file.

use std::path::Path;

use besync_scenarios::codec::{blocks, fmt_f64, parse_f64, read_lines, Line, Record, Writer};
use besync_sim::stats::{RawRunningStats, RunningStats};

const HEADER: &str = "besync-stats v1";

const BENCH_HEADER: &str = "besync-bench v6";

/// Reads and decodes a baseline file, naming the path in any error.
fn load<T>(path: &Path, decode: fn(&str) -> Result<T, String>) -> Result<T, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("could not read {}: {e}", path.display()))?;
    decode(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// One scenario's recorded metric moments at one scale.
///
/// `quick` tags the CI smoke scale ([`ScenarioSpec::quick`]) so a
/// quick-mode collection can never be compared against a full-scale
/// baseline entry: the two are different populations, and the bench
/// `--compare` gate has the same rule for counters.
///
/// [`ScenarioSpec::quick`]: besync_scenarios::ScenarioSpec::quick
#[derive(Debug, Clone)]
pub struct ScenarioStats {
    /// Registry name of the scenario.
    pub scenario: String,
    /// Whether the runs were at quick (CI smoke) scale.
    pub quick: bool,
    /// Welford summary per recorded metric, in recording order.
    pub metrics: Vec<(String, RunningStats)>,
}

impl ScenarioStats {
    fn scale_word(&self) -> &'static str {
        if self.quick {
            "quick"
        } else {
            "full"
        }
    }

    /// Number of seeds recorded (0 if no metrics).
    pub fn seeds(&self) -> u64 {
        self.metrics.first().map_or(0, |(_, s)| s.count())
    }
}

/// A set of [`ScenarioStats`] entries keyed by `(scenario, quick)`.
#[derive(Debug, Clone, Default)]
pub struct StatBaseline {
    /// The recorded entries, in file order.
    pub entries: Vec<ScenarioStats>,
}

impl StatBaseline {
    /// Looks an entry up by scenario name and scale.
    pub fn get(&self, scenario: &str, quick: bool) -> Option<&ScenarioStats> {
        self.entries
            .iter()
            .find(|e| e.scenario == scenario && e.quick == quick)
    }

    /// Inserts or replaces the entry with `stats`' key.
    pub fn upsert(&mut self, stats: ScenarioStats) {
        match self
            .entries
            .iter_mut()
            .find(|e| e.scenario == stats.scenario && e.quick == stats.quick)
        {
            Some(slot) => *slot = stats,
            None => self.entries.push(stats),
        }
    }

    /// Encodes the canonical text form.
    ///
    /// # Panics
    ///
    /// Panics if a scenario or metric name contains whitespace (they are
    /// whitespace-delimited tokens in the format; registry names never
    /// do).
    pub fn encode(&self) -> String {
        let mut w = Writer::new(HEADER);
        for e in &self.entries {
            assert!(
                !e.scenario.contains(char::is_whitespace) && !e.scenario.is_empty(),
                "scenario name {:?} is not a single token",
                e.scenario
            );
            let (scenario, scale, seeds) = (&e.scenario, e.scale_word(), e.seeds());
            w.kv("scenario", format_args!("{scenario} {scale} seeds={seeds}"));
            for (name, stats) in &e.metrics {
                assert!(
                    !name.contains(char::is_whitespace) && !name.is_empty(),
                    "metric name {name:?} is not a single token"
                );
                let raw = stats.to_raw();
                w.kv(
                    "metric",
                    format_args!(
                        "{name} {} {} {} {} {}",
                        raw.count,
                        fmt_f64(raw.mean),
                        fmt_f64(raw.m2),
                        fmt_f64(raw.min),
                        fmt_f64(raw.max)
                    ),
                );
            }
            w.end();
        }
        w.finish()
    }

    /// Decodes [`StatBaseline::encode`]'s output, rejecting anything
    /// malformed with a line-numbered message.
    pub fn decode(text: &str) -> Result<StatBaseline, String> {
        let (top, blocks) = blocks(read_lines(text, HEADER)?, "scenario")?;
        if let Some(line) = top.first() {
            return Err(line.error(format_args!("`{}` outside a scenario block", line.key)));
        }
        let mut baseline = StatBaseline::default();
        for (open, body) in blocks {
            let (name, quick, seeds) = match open.value.split_whitespace().collect::<Vec<_>>()[..] {
                [name, "full", seeds] => (name, false, seeds),
                [name, "quick", seeds] => (name, true, seeds),
                _ => return Err(open.error("expected `scenario NAME full|quick seeds=N`")),
            };
            if baseline.get(name, quick).is_some() {
                return Err(open.error(format_args!("duplicate entry for `{}`", open.value)));
            }
            let mut entry = ScenarioStats {
                scenario: name.to_string(),
                quick,
                metrics: Vec::new(),
            };
            for line in body {
                let tokens: Vec<&str> = line.value.split_whitespace().collect();
                let ("metric", &[metric, count, mean, m2, min, max]) = (line.key, &tokens[..])
                else {
                    return Err(line.error("expected `metric NAME COUNT MEAN M2 MIN MAX`"));
                };
                let num = |t: &str| {
                    parse_f64(t).ok_or_else(|| line.error(format_args!("bad float {t:?}")))
                };
                let raw = RawRunningStats {
                    count: count
                        .parse()
                        .map_err(|_| line.error(format_args!("bad count {count:?}")))?,
                    mean: num(mean)?,
                    m2: num(m2)?,
                    min: num(min)?,
                    max: num(max)?,
                };
                if entry.metrics.iter().any(|(n, _)| n == metric) {
                    return Err(line.error(format_args!("duplicate metric `{metric}`")));
                }
                entry
                    .metrics
                    .push((metric.to_string(), RunningStats::from_raw(raw)));
            }
            // seeds=N repeats the first metric's count for readers of
            // the file; a disagreeing copy is an error, not a comment.
            if seeds.strip_prefix("seeds=") != Some(&entry.seeds().to_string()) {
                return Err(open.error(format_args!(
                    "`{seeds}` disagrees with the metrics' count {}",
                    entry.seeds()
                )));
            }
            baseline.entries.push(entry);
        }
        Ok(baseline)
    }

    /// Reads and decodes a baseline file.
    pub fn load(path: &Path) -> Result<StatBaseline, String> {
        load(path, Self::decode)
    }

    /// Encodes and writes the baseline to a file.
    pub fn save(&self, path: &Path) -> Result<(), String> {
        std::fs::write(path, self.encode())
            .map_err(|e| format!("could not write {}: {e}", path.display()))
    }
}

/// One scenario's row of a `besync-bench` run: the deterministic
/// counters the `--compare` gate pins, plus the timings and allocation
/// peak it reports.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchScenario {
    pub name: String,
    /// Rows of two runs pair only under equal names and seeds.
    pub seed: u64,
    pub system: String,
    pub objects: u32,
    pub metric: String,
    /// Median workload + system construction time, kept out of the
    /// throughput figure.
    pub build_seconds: f64,
    /// Median event-loop wall clock.
    pub wall_seconds: f64,
    /// Updates + refreshes (or CGM polls) sent + feedback messages.
    pub events: u64,
    pub events_per_sec: f64,
    pub updates: u64,
    pub refreshes_sent: u64,
    pub refreshes_delivered: u64,
    pub feedback: u64,
    pub mean_divergence: f64,
    /// Heap high-water mark of one repeat.
    pub alloc_peak_bytes: u64,
}

/// A `besync-bench` run as `--out` writes it and `--compare` reads it.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRun {
    /// Whether the scenarios ran at quick (CI smoke) scale.
    pub quick: bool,
    /// Wall clock of the bench's fixed floating-point workload, so two
    /// recordings' throughputs can be set against machine speed.
    pub calibration_seconds: f64,
    /// Objects in the CGM re-allocation A/B.
    pub cgm_alloc_objects: u32,
    /// The shipped Newton re-allocation's best time.
    pub cgm_alloc_newton_seconds: f64,
    /// The retired double bisection's best time.
    pub cgm_alloc_bisect_seconds: f64,
    /// One row per scenario, in run order.
    pub scenarios: Vec<BenchScenario>,
}

impl BenchRun {
    /// Encodes the canonical text form.
    pub fn encode(&self) -> String {
        let mut w = Writer::new(BENCH_HEADER);
        w.kv("quick", self.quick);
        w.f64("calibration_seconds", self.calibration_seconds);
        w.kv("cgm_alloc_objects", self.cgm_alloc_objects);
        w.f64("cgm_alloc_newton_seconds", self.cgm_alloc_newton_seconds);
        w.f64("cgm_alloc_bisect_seconds", self.cgm_alloc_bisect_seconds);
        for s in &self.scenarios {
            w.kv("scenario", &s.name);
            w.kv("seed", s.seed);
            w.kv("system", &s.system);
            w.kv("objects", s.objects);
            w.kv("metric", &s.metric);
            w.f64("build_seconds", s.build_seconds);
            w.f64("wall_seconds", s.wall_seconds);
            w.kv("events", s.events);
            w.f64("events_per_sec", s.events_per_sec);
            w.kv("updates", s.updates);
            w.kv("refreshes_sent", s.refreshes_sent);
            w.kv("refreshes_delivered", s.refreshes_delivered);
            w.kv("feedback", s.feedback);
            w.f64("mean_divergence", s.mean_divergence);
            w.kv("alloc_peak_bytes", s.alloc_peak_bytes);
            w.end();
        }
        w.finish()
    }

    /// Decodes [`BenchRun::encode`]'s output, rejecting anything
    /// malformed, missing, repeated or unexpected with a line-numbered
    /// message.
    pub fn decode(text: &str) -> Result<BenchRun, String> {
        let (top, blocks) = blocks(read_lines(text, BENCH_HEADER)?, "scenario")?;
        let mut scenarios: Vec<BenchScenario> = Vec::with_capacity(blocks.len());
        for (open, body) in blocks {
            let name = open.value;
            if name.is_empty() || scenarios.iter().any(|s| s.name == name) {
                return Err(open.error(format_args!("missing or duplicate scenario `{name}`")));
            }
            let row = decode_row(name, body)
                .map_err(|e| open.error(format_args!("scenario `{name}`: {e}")))?;
            scenarios.push(row);
        }
        let mut r = Record::new(top)?;
        let run = BenchRun {
            quick: r.bool("quick")?,
            calibration_seconds: r.f64("calibration_seconds")?,
            cgm_alloc_objects: r.int("cgm_alloc_objects")?,
            cgm_alloc_newton_seconds: r.f64("cgm_alloc_newton_seconds")?,
            cgm_alloc_bisect_seconds: r.f64("cgm_alloc_bisect_seconds")?,
            scenarios,
        };
        r.finish()?;
        Ok(run)
    }

    /// Reads and decodes a bench baseline file.
    pub fn load(path: &Path) -> Result<BenchRun, String> {
        load(path, Self::decode)
    }
}

/// Decodes one `scenario` block's body of a bench baseline.
fn decode_row(name: &str, body: Vec<Line<'_>>) -> Result<BenchScenario, String> {
    let mut r = Record::new(body)?;
    let row = BenchScenario {
        name: name.to_string(),
        seed: r.int("seed")?,
        system: r.line("system")?.value.to_string(),
        objects: r.int("objects")?,
        metric: r.line("metric")?.value.to_string(),
        build_seconds: r.f64("build_seconds")?,
        wall_seconds: r.f64("wall_seconds")?,
        events: r.int("events")?,
        events_per_sec: r.f64("events_per_sec")?,
        updates: r.int("updates")?,
        refreshes_sent: r.int("refreshes_sent")?,
        refreshes_delivered: r.int("refreshes_delivered")?,
        feedback: r.int("feedback")?,
        mean_divergence: r.f64("mean_divergence")?,
        alloc_peak_bytes: r.int("alloc_peak_bytes")?,
    };
    r.finish()?;
    Ok(row)
}

/// The `--compare` gate: checks the `current` run against a recorded
/// `baseline`. Scenarios pair by name and seed. A paired scenario whose
/// counters differ, or whose mean divergence moved by 1e-8 or more, means
/// the tree lost determinism. Events/sec and allocation-peak deltas
/// beyond `tolerance` are printed to stderr and never fail: timing noise
/// must not fail a change.
///
/// Returns the number of scenarios compared.
///
/// # Errors
///
/// Returns one message per mismatching scenario, or one message when no
/// scenario was compared at all (a quick/full mismatch, disjoint names or
/// changed seeds): a gate that checked nothing must not pass.
pub fn compare_against_baseline(
    current: &BenchRun,
    baseline: &BenchRun,
    baseline_path: &str,
    tolerance: f64,
) -> Result<usize, Vec<String>> {
    if baseline.quick != current.quick {
        return Err(vec![format!(
            "baseline {baseline_path} was recorded with quick={}, this run uses quick={}; \
             counters are incomparable",
            baseline.quick, current.quick
        )]);
    }
    // Machine-speed ratio between the two recordings: > 1 means this
    // container is slower than the one the baseline was recorded on, and
    // raw events/sec deltas by that factor are container drift, not tree
    // regressions.
    let (cur, base) = (current.calibration_seconds, baseline.calibration_seconds);
    let cal_ratio = (cur > 0.0 && base > 0.0).then(|| cur / base);
    if let Some(ratio) = cal_ratio {
        eprintln!(
            "compare: calibration {cur:.3}s vs {base:.3}s in {baseline_path} — this \
             container runs the fixed FP workload {ratio:.2}x the baseline's wall-clock"
        );
    }
    // Baseline rows with no current counterpart mean coverage shrank
    // (a renamed/removed scenario) — say so instead of silently gating
    // less than the checked-in file records.
    for b in &baseline.scenarios {
        if !current.scenarios.iter().any(|r| r.name == b.name) {
            eprintln!(
                "compare: baseline scenario `{}` not in this run (renamed or filtered?); \
                 its counters were not checked",
                b.name
            );
        }
    }
    let mut compared = 0;
    let mut mismatches = Vec::new();
    for r in &current.scenarios {
        let Some(b) = baseline.scenarios.iter().find(|b| b.name == r.name) else {
            eprintln!("compare: `{}` absent from baseline, skipping", r.name);
            continue;
        };
        if b.seed != r.seed {
            eprintln!(
                "compare: `{}` seed changed ({} -> {}), skipping",
                r.name, b.seed, r.seed
            );
            continue;
        }
        compared += 1;
        let counters_match = b.updates == r.updates
            && b.refreshes_sent == r.refreshes_sent
            && b.refreshes_delivered == r.refreshes_delivered
            && b.feedback == r.feedback
            && (b.mean_divergence - r.mean_divergence).abs() < 1e-8;
        if !counters_match {
            mismatches.push(format!(
                "`{}`: counters diverge from {baseline_path} — baseline \
                 (updates {}, sent {}, delivered {}, feedback {}, div {:.9}) vs current \
                 (updates {}, sent {}, delivered {}, feedback {}, div {:.9})",
                r.name,
                b.updates,
                b.refreshes_sent,
                b.refreshes_delivered,
                b.feedback,
                b.mean_divergence,
                r.updates,
                r.refreshes_sent,
                r.refreshes_delivered,
                r.feedback,
                r.mean_divergence,
            ));
            continue;
        }
        let ratio = r.events_per_sec / b.events_per_sec.max(1e-12);
        // `ratio * cal_ratio` discounts container speed drift; without a
        // calibration point on both sides the raw ratio is all there is.
        let adjusted = cal_ratio.map(|c| ratio * c);
        let adj_note = adjusted.map_or(String::new(), |a| format!(", {a:.2}x adjusted"));
        if adjusted.unwrap_or(ratio) < 1.0 - tolerance {
            eprintln!(
                "compare: PERF REGRESSION (report-only) `{}`: {:.0} events/sec vs baseline \
                 {:.0} ({:.2}x{adj_note}, tolerance {:.0}%)",
                r.name,
                r.events_per_sec,
                b.events_per_sec,
                ratio,
                tolerance * 100.0
            );
        } else {
            eprintln!(
                "compare: `{}` {:.2}x baseline events/sec{adj_note} (ok)",
                r.name, ratio
            );
        }
        // Memory trajectory, report-only like the perf line: allocation
        // peaks are deterministic in principle but allocator-version
        // sensitive, so they inform rather than gate.
        if b.alloc_peak_bytes > 0 {
            let mem_ratio = r.alloc_peak_bytes as f64 / b.alloc_peak_bytes as f64;
            let mb = 1.0 / (1024.0 * 1024.0);
            if mem_ratio > 1.0 + tolerance {
                eprintln!(
                    "compare: MEM REGRESSION (report-only) `{}`: alloc peak {:.1} MiB vs \
                     baseline {:.1} MiB ({:.2}x, tolerance {:.0}%)",
                    r.name,
                    r.alloc_peak_bytes as f64 * mb,
                    b.alloc_peak_bytes as f64 * mb,
                    mem_ratio,
                    tolerance * 100.0
                );
            } else {
                eprintln!(
                    "compare: `{}` alloc peak {:.1} MiB, {:.2}x baseline (ok)",
                    r.name,
                    r.alloc_peak_bytes as f64 * mb,
                    mem_ratio
                );
            }
        }
    }
    if !mismatches.is_empty() {
        Err(mismatches)
    } else if compared == 0 {
        Err(vec![format!(
            "no scenario of this run pairs with one in {baseline_path} by name and seed; \
             nothing was compared"
        )])
    } else {
        Ok(compared)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_stats(xs: &[f64]) -> RunningStats {
        let mut s = RunningStats::new();
        for &x in xs {
            s.push(x);
        }
        s
    }

    fn sample_baseline() -> StatBaseline {
        StatBaseline {
            entries: vec![
                ScenarioStats {
                    scenario: "medium".into(),
                    quick: false,
                    metrics: vec![
                        ("mean_divergence".into(), sample_stats(&[0.31, 0.29, 0.305])),
                        (
                            "updates_processed".into(),
                            sample_stats(&[870123.0, 869001.0, 871455.0]),
                        ),
                    ],
                },
                ScenarioStats {
                    scenario: "medium".into(),
                    quick: true,
                    metrics: vec![("mean_divergence".into(), sample_stats(&[0.4, 0.41]))],
                },
                ScenarioStats {
                    scenario: "empty".into(),
                    quick: false,
                    // Empty accumulator: ±∞ min/max exercise the !x form.
                    metrics: vec![("mean_divergence".into(), RunningStats::new())],
                },
            ],
        }
    }

    #[test]
    fn encode_decode_round_trips_bit_for_bit() {
        let base = sample_baseline();
        let text = base.encode();
        let decoded = StatBaseline::decode(&text).unwrap();
        assert_eq!(decoded.entries.len(), base.entries.len());
        for (a, b) in base.entries.iter().zip(&decoded.entries) {
            assert_eq!(a.scenario, b.scenario);
            assert_eq!(a.quick, b.quick);
            assert_eq!(a.metrics.len(), b.metrics.len());
            for ((na, sa), (nb, sb)) in a.metrics.iter().zip(&b.metrics) {
                assert_eq!(na, nb);
                let (ra, rb) = (sa.to_raw(), sb.to_raw());
                assert_eq!(ra.count, rb.count);
                assert_eq!(ra.mean.to_bits(), rb.mean.to_bits());
                assert_eq!(ra.m2.to_bits(), rb.m2.to_bits());
                assert_eq!(ra.min.to_bits(), rb.min.to_bits());
                assert_eq!(ra.max.to_bits(), rb.max.to_bits());
            }
        }
        // And the round trip is textually a fixed point.
        assert_eq!(decoded.encode(), text);
    }

    #[test]
    fn lookup_distinguishes_scales() {
        let base = sample_baseline();
        assert_eq!(base.get("medium", false).unwrap().seeds(), 3);
        assert_eq!(base.get("medium", true).unwrap().seeds(), 2);
        assert!(base.get("medium_value", false).is_none());
    }

    #[test]
    fn upsert_replaces_matching_scale_only() {
        let mut base = sample_baseline();
        base.upsert(ScenarioStats {
            scenario: "medium".into(),
            quick: true,
            metrics: vec![("mean_divergence".into(), sample_stats(&[9.0, 9.0, 9.0]))],
        });
        assert_eq!(base.get("medium", true).unwrap().seeds(), 3);
        assert_eq!(base.get("medium", false).unwrap().seeds(), 3);
        assert_eq!(base.entries.len(), 3, "upsert must not append a duplicate");
        base.upsert(ScenarioStats {
            scenario: "fresh".into(),
            quick: false,
            metrics: Vec::new(),
        });
        assert_eq!(base.entries.len(), 4);
    }

    #[test]
    fn malformed_inputs_are_rejected_with_line_numbers() {
        let good = sample_baseline().encode();
        for (mutation, why) in [
            (good.replacen(HEADER, "besync-stats v0", 1), "bad header"),
            (good.replacen("scenario", "scenrio", 1), "bad directive"),
            (good.replacen(" full ", " sorta ", 1), "bad scale"),
            (good.replacen("end\n", "", 1), "unterminated block"),
            (
                good.clone() + "metric stray 1 0 0 0 0\n",
                "metric outside block",
            ),
            (
                good.replacen("metric updates_processed", "metric mean_divergence", 1),
                "duplicate metric",
            ),
            (
                good.replacen("seeds=3", "seeds=4", 1),
                "seed count disagreeing",
            ),
        ] {
            let err = StatBaseline::decode(&mutation).expect_err(why);
            assert!(
                why == "bad header" || err.starts_with("line "),
                "{why}: {err}"
            );
        }
        // Duplicate (scenario, scale) entries are rejected too.
        let mut dup = sample_baseline();
        let first = dup.entries[0].clone();
        dup.entries.push(first);
        assert!(StatBaseline::decode(&dup.encode()).is_err());
    }

    fn row(name: &str, updates: u64, mean_divergence: f64) -> BenchScenario {
        BenchScenario {
            name: name.into(),
            seed: 202,
            system: "coop".into(),
            objects: 2048,
            metric: "staleness".into(),
            build_seconds: 0.001,
            wall_seconds: 0.25,
            events: updates + 30,
            events_per_sec: (updates + 30) as f64 / 0.25,
            updates,
            refreshes_sent: 20,
            refreshes_delivered: 19,
            feedback: 10,
            mean_divergence,
            alloc_peak_bytes: 1 << 20,
        }
    }

    fn sample_run() -> BenchRun {
        BenchRun {
            quick: false,
            calibration_seconds: 0.015958,
            cgm_alloc_objects: 2048,
            cgm_alloc_newton_seconds: 0.004703,
            cgm_alloc_bisect_seconds: 0.130652,
            scenarios: vec![row("medium", 870_123, 0.1 + 0.2), row("small", 46_428, 0.7)],
        }
    }

    #[test]
    fn bench_runs_round_trip_bit_for_bit() {
        let run = sample_run();
        let text = run.encode();
        assert_eq!(BenchRun::decode(&text).unwrap(), run);
        // An unexpected, repeated or missing key names itself.
        for (mutation, key) in [
            (text.replacen("feedback", "fedback", 1), "feedback"),
            (
                text.replacen("seed 202\n", "seed 202\nbogus 1\n", 1),
                "bogus",
            ),
            (
                text.replacen("seed 202\n", "seed 202\nseed 202\n", 1),
                "seed",
            ),
            (text.replacen("quick false\n", "", 1), "quick"),
        ] {
            let err = BenchRun::decode(&mutation).unwrap_err();
            assert!(err.contains(key), "{err}");
        }
        let mut dup = sample_run();
        dup.scenarios.push(row("medium", 1, 0.5));
        assert!(BenchRun::decode(&dup.encode()).is_err());
    }

    #[test]
    fn compare_gates_counters_and_fails_when_nothing_was_compared() {
        let base = sample_run();
        assert_eq!(compare_against_baseline(&base, &base, "b", 0.25), Ok(2));
        // Timing is report-only; divergence may move within 1e-8.
        let mut cur = sample_run();
        cur.scenarios[0].events_per_sec /= 10.0;
        cur.scenarios[0].alloc_peak_bytes *= 10;
        cur.scenarios[1].mean_divergence += 5e-9;
        assert_eq!(compare_against_baseline(&cur, &base, "b", 0.25), Ok(2));
        // Any one counter, or divergence beyond 1e-8, hard-fails.
        for edit in [
            |r: &mut BenchScenario| r.updates += 1,
            |r: &mut BenchScenario| r.refreshes_sent += 1,
            |r: &mut BenchScenario| r.refreshes_delivered -= 1,
            |r: &mut BenchScenario| r.feedback += 1,
            |r: &mut BenchScenario| r.mean_divergence += 2e-8,
        ] {
            let mut cur = sample_run();
            edit(&mut cur.scenarios[1]);
            let err = compare_against_baseline(&cur, &base, "b", 0.25).unwrap_err();
            assert!(err.len() == 1 && err[0].contains("small"), "{err:?}");
        }
        // A run filtered to one scenario checks that one.
        let mut one = sample_run();
        one.scenarios.truncate(1);
        assert_eq!(compare_against_baseline(&one, &base, "b", 0.25), Ok(1));
        // A gate that compared nothing fails: quick vs full, no shared
        // name, or only changed seeds.
        let mut quick = sample_run();
        quick.quick = true;
        let mut renamed = sample_run();
        renamed.scenarios.iter_mut().for_each(|r| r.name.push('x'));
        let mut reseeded = sample_run();
        reseeded.scenarios.iter_mut().for_each(|r| r.seed += 1);
        for cur in [quick, renamed, reseeded] {
            assert!(compare_against_baseline(&cur, &base, "b", 0.25).is_err());
        }
    }
}
