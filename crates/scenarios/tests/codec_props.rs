//! Codec hardening properties.
//!
//! The sweep supervisor decodes whatever a worker process writes to its
//! pipe, and a worker decodes whatever the supervisor sends, so both
//! directions of `besync_scenarios::codec` must (a) round-trip every
//! representable value bit for bit and (b) turn arbitrary garbage into a
//! structured `Err` — never a panic that would take down the supervisor.
//! The two checked-in baselines (`StatBaseline`, `BenchRun`) are read by
//! the same reader and held to the same properties.

use besync::cache::partition::SharePolicy;
use besync::fault::{FaultProfile, FaultSummary, RecoveryPolicy};
use besync::priority::{PolicyKind, RateEstimator};
use besync::RunReport;
use besync_data::account::DivergenceReport;
use besync_data::Metric;
use besync_scenarios::codec::{decode, decode_report, encode, encode_report};
use besync_scenarios::{ScenarioSpec, SystemKind, WorkloadKind};
use besync_sim::stats::{RawRunningStats, RunningStats};
use besync_verify::{BenchRun, BenchScenario, ScenarioStats, StatBaseline};
use besync_workloads::buoy::BuoyConfig;
use proptest::prelude::*;

/// ASCII names without newlines (newlines are rejected by `encode` — a
/// separate, deliberate guard with its own unit test).
fn name() -> impl Strategy<Value = String> {
    prop::collection::vec(0u8..26, 1..16)
        .prop_map(|bytes| bytes.into_iter().map(|b| (b'a' + b) as char).collect())
}

/// Floats that stress the shortest-round-trip formatter: magnitudes from
/// subnormal to near-max, negative zero, and awkward decimal sums.
fn finite_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1e6f64..1e6,
        Just(0.0),
        Just(-0.0),
        Just(0.1 + 0.2),
        Just(f64::MIN_POSITIVE / 64.0),
        Just(1.7976931348623157e308),
        Just(-4.9e-324),
        (-300.0f64..300.0).prop_map(|e| e.exp()),
    ]
}

/// Any f64 bit pattern at all, including NaNs with payloads and ±∞.
fn any_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        finite_f64(),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        (0u64..=u64::MAX).prop_map(f64::from_bits),
    ]
}

fn system_kind() -> impl Strategy<Value = SystemKind> {
    use besync_baselines::CgmVariant;
    prop_oneof![
        Just(SystemKind::Coop),
        Just(SystemKind::Ideal),
        Just(SystemKind::Cgm(CgmVariant::IdealCacheBased)),
        Just(SystemKind::Cgm(CgmVariant::Cgm1)),
        Just(SystemKind::Cgm(CgmVariant::Cgm2)),
        Just(SystemKind::Competitive),
    ]
}

fn share_policy() -> impl Strategy<Value = SharePolicy> {
    prop_oneof![
        Just(SharePolicy::EqualShare),
        Just(SharePolicy::ProportionalToObjects),
        Just(SharePolicy::ProportionalToValue),
    ]
}

fn workload_kind() -> impl Strategy<Value = WorkloadKind> {
    prop_oneof![
        (
            1u32..2000,
            1u32..2000,
            finite_f64(),
            finite_f64(),
            prop::bool::ANY
        )
            .prop_map(
                |(sources, objects_per_source, rate, weight, fluctuating_weights)| {
                    WorkloadKind::Poisson {
                        sources,
                        objects_per_source,
                        rate_range: (rate, rate + 1.0),
                        weight_range: (weight, weight + 2.0),
                        fluctuating_weights,
                    }
                }
            ),
        (1u32..200, 1u32..8, finite_f64(), finite_f64()).prop_map(
            |(buoys, components, sample_interval, noise)| WorkloadKind::Buoy {
                config: BuoyConfig {
                    buoys,
                    components,
                    sample_interval,
                    duration: 86_400.0,
                    reversion: 0.05,
                    noise,
                },
            }
        ),
    ]
}

/// Fault profiles within `FaultProfile::validate()`'s envelope (the
/// codec rejects invalid profiles on decode, so only valid ones can
/// round-trip), plus `None` — the fault-free default — often enough that
/// both encoder branches stay covered.
fn fault_profile() -> impl Strategy<Value = Option<FaultProfile>> {
    let recovery = prop_oneof![
        Just(RecoveryPolicy::DegradeStale),
        (0.001f64..100.0).prop_map(|deadline| RecoveryPolicy::Retransmit { deadline }),
        Just(RecoveryPolicy::Resync),
    ];
    prop_oneof![
        Just(None),
        (
            (0.0f64..=1.0, 0.0f64..0.1, 0.01f64..60.0, prop::bool::ANY),
            (0.0f64..0.05, 0.01f64..120.0, recovery, prop::bool::ANY),
        )
            .prop_map(
                |(
                    (loss_prob, outage_rate, outage_duration, outage_drops_queue),
                    (crash_rate, crash_downtime, recovery, aware),
                )| {
                    Some(FaultProfile {
                        loss_prob,
                        outage_rate,
                        outage_duration,
                        outage_drops_queue,
                        crash_rate,
                        crash_downtime,
                        recovery,
                        aware,
                    })
                }
            ),
    ]
}

fn scenario() -> impl Strategy<Value = ScenarioSpec> {
    let policy = prop_oneof![
        Just(PolicyKind::Area),
        Just(PolicyKind::PoissonClosedForm),
        Just(PolicyKind::SimpleWeighted),
        Just(PolicyKind::Bound),
    ];
    let estimator = prop_oneof![
        Just(RateEstimator::Known),
        Just(RateEstimator::LongRun),
        Just(RateEstimator::SinceRefresh),
    ];
    let metric = prop_oneof![
        Just(Metric::Staleness),
        Just(Metric::Lag),
        Just(Metric::abs_deviation()),
    ];
    (
        (name(), name(), 0u64..=u64::MAX, 0u64..=u64::MAX),
        (system_kind(), workload_kind(), policy, estimator, metric),
        (
            finite_f64(),
            finite_f64(),
            finite_f64(),
            finite_f64(),
            finite_f64(),
        ),
        (finite_f64(), finite_f64(), fault_profile()),
        (0.0f64..1.0, share_policy()),
    )
        .prop_map(
            |(
                (name, description, seed, sim_seed),
                (system, workload, policy, estimator, metric),
                (cache_bandwidth_mean, source_bandwidth_mean, bandwidth_change_rate, alpha, omega),
                (warmup, measure, fault),
                (psi, share),
            )| ScenarioSpec {
                name,
                description,
                seed,
                sim_seed,
                system,
                workload,
                policy,
                estimator,
                metric,
                cache_bandwidth_mean,
                source_bandwidth_mean,
                bandwidth_change_rate,
                alpha,
                omega,
                warmup,
                measure,
                fault,
                psi,
                share,
            },
        )
}

fn fault_summary() -> impl Strategy<Value = FaultSummary> {
    (
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            any_f64(),
            0u64..=u64::MAX,
        ),
        (
            0u64..=u64::MAX,
            any_f64(),
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            any_f64(),
        ),
        (0u64..=u64::MAX, 0u64..=u64::MAX),
    )
        .prop_map(
            |(
                (lost_refreshes, retransmits, outages, outage_seconds, dropped_in_outage),
                (crashes, down_seconds, missed_updates, resync_quotes, epoch_divergence),
                (stale_drops, superseded_retries),
            )| FaultSummary {
                lost_refreshes,
                retransmits,
                outages,
                outage_seconds,
                dropped_in_outage,
                crashes,
                down_seconds,
                missed_updates,
                resync_quotes,
                epoch_divergence,
                stale_drops,
                superseded_retries,
            },
        )
}

fn report() -> impl Strategy<Value = RunReport> {
    (
        (
            0usize..1_000_000,
            any_f64(),
            any_f64(),
            any_f64(),
            any_f64(),
        ),
        (any_f64(), 0u64..=u64::MAX, 0u64..=u64::MAX, 0u64..=u64::MAX),
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0usize..=usize::MAX,
            any_f64(),
        ),
        (0u64..1_000_000, any_f64(), any_f64(), any_f64(), any_f64()),
        fault_summary(),
    )
        .prop_map(
            |(
                (objects, total_unweighted, total_weighted, mean_unweighted, mean_weighted),
                (max_unweighted, refreshes_applied, refreshes_sent, refreshes_delivered),
                (feedback_messages, polls_sent, max_cache_queue, mean_queue_wait),
                (count, mean, m2, min, max),
                faults,
            )| RunReport {
                divergence: DivergenceReport {
                    objects,
                    total_unweighted,
                    total_weighted,
                    mean_unweighted,
                    mean_weighted,
                    max_unweighted,
                    refreshes_applied,
                },
                refreshes_sent,
                refreshes_delivered,
                feedback_messages,
                polls_sent,
                max_cache_queue,
                mean_queue_wait,
                threshold_stats: RunningStats::from_raw(RawRunningStats {
                    count,
                    mean,
                    m2,
                    min,
                    max,
                }),
                updates_processed: feedback_messages ^ polls_sent,
                faults,
            },
        )
}

fn running_stats() -> impl Strategy<Value = RunningStats> {
    (0u64..1_000, any_f64(), any_f64(), any_f64(), any_f64()).prop_map(
        |(count, mean, m2, min, max)| {
            RunningStats::from_raw(RawRunningStats {
                count,
                mean,
                m2,
                min,
                max,
            })
        },
    )
}

/// Stats baselines with unique `(scenario, scale)` entries and unique
/// metric names per entry — the only ones `decode` accepts.
fn stat_baseline() -> impl Strategy<Value = StatBaseline> {
    let entry = (
        name(),
        prop::bool::ANY,
        prop::collection::vec((name(), running_stats()), 0..4),
    )
        .prop_map(|(scenario, quick, mut metrics)| {
            let mut seen = Vec::new();
            metrics.retain(|(n, _)| {
                !seen.contains(n) && {
                    seen.push(n.clone());
                    true
                }
            });
            ScenarioStats {
                scenario,
                quick,
                metrics,
            }
        });
    prop::collection::vec(entry, 0..4).prop_map(|entries| {
        let mut baseline = StatBaseline::default();
        entries.into_iter().for_each(|e| baseline.upsert(e));
        baseline
    })
}

fn bench_scenario() -> impl Strategy<Value = BenchScenario> {
    (
        (name(), 0u64..=u64::MAX, name(), 0u32..=u32::MAX, name()),
        (any_f64(), any_f64(), 0u64..=u64::MAX, any_f64()),
        (
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
            0u64..=u64::MAX,
        ),
        (any_f64(), 0u64..=u64::MAX),
    )
        .prop_map(
            |(
                (name, seed, system, objects, metric),
                (build_seconds, wall_seconds, events, events_per_sec),
                (updates, refreshes_sent, refreshes_delivered, feedback),
                (mean_divergence, alloc_peak_bytes),
            )| BenchScenario {
                name,
                seed,
                system,
                objects,
                metric,
                build_seconds,
                wall_seconds,
                events,
                events_per_sec,
                updates,
                refreshes_sent,
                refreshes_delivered,
                feedback,
                mean_divergence,
                alloc_peak_bytes,
            },
        )
}

/// Bench runs with unique scenario names — the only ones `decode`
/// accepts.
fn bench_run() -> impl Strategy<Value = BenchRun> {
    (
        (
            prop::bool::ANY,
            any_f64(),
            0u32..=u32::MAX,
            any_f64(),
            any_f64(),
        ),
        prop::collection::vec(bench_scenario(), 0..4),
    )
        .prop_map(
            |((quick, calibration_seconds, objects, newton, bisect), mut scenarios)| {
                let mut seen = Vec::new();
                scenarios.retain(|s| {
                    !seen.contains(&s.name) && {
                        seen.push(s.name.clone());
                        true
                    }
                });
                BenchRun {
                    quick,
                    calibration_seconds,
                    cgm_alloc_objects: objects,
                    cgm_alloc_newton_seconds: newton,
                    cgm_alloc_bisect_seconds: bisect,
                    scenarios,
                }
            },
        )
}

/// Every key a spec or report can carry. A line with any other key must
/// make decoding fail.
#[rustfmt::skip]
const KNOWN_KEYS: &[&str] = &[
    "name", "description", "seed", "sim_seed", "system", "workload", "sources",
    "objects_per_source", "rate_lo", "rate_hi", "weight_lo", "weight_hi", "fluctuating_weights",
    "buoys", "components", "sample_interval", "duration", "reversion", "noise", "policy",
    "estimator", "metric", "cache_bandwidth_mean", "source_bandwidth_mean",
    "bandwidth_change_rate", "alpha", "omega", "warmup", "measure", "fault",
    "fault_retransmit_deadline", "fault_loss_prob", "fault_outage_rate",
    "fault_outage_duration", "fault_outage_drops_queue", "fault_crash_rate",
    "fault_crash_downtime", "fault_aware", "psi", "share_policy", "objects", "total_unweighted",
    "total_weighted", "mean_unweighted", "mean_weighted", "max_unweighted", "refreshes_applied",
    "refreshes_sent", "refreshes_delivered", "feedback_messages", "polls_sent",
    "max_cache_queue", "mean_queue_wait", "threshold_count", "threshold_mean", "threshold_m2",
    "threshold_min", "threshold_max", "updates_processed", "fault_lost_refreshes",
    "fault_retransmits", "fault_outages", "fault_outage_seconds", "fault_dropped_in_outage",
    "fault_crashes", "fault_down_seconds", "fault_missed_updates", "fault_resync_quotes",
    "fault_epoch_divergence", "fault_stale_drops", "fault_superseded_retries",
];

/// Inserts `line` after the header, at a position drawn from `at`.
fn insert_line(text: &str, at: usize, line: &str) -> String {
    let mut lines: Vec<&str> = text.lines().collect();
    lines.insert(1 + at % lines.len(), line);
    lines.join("\n")
}

/// Mutilates `text` deterministically from `(kind, a, b)` draws.
fn garble(text: &str, kind: u8, a: usize, b: u8) -> String {
    let mut bytes = text.as_bytes().to_vec();
    match kind % 5 {
        // Truncate mid-stream.
        0 => {
            bytes.truncate(a % (bytes.len() + 1));
        }
        // Flip one byte to printable garbage.
        1 => {
            if !bytes.is_empty() {
                let i = a % bytes.len();
                bytes[i] = 32 + (b % 95);
            }
        }
        // Drop one whole line.
        2 => {
            let lines: Vec<&str> = text.lines().collect();
            let keep: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != a % lines.len().max(1))
                .map(|(_, l)| *l)
                .collect();
            bytes = keep.join("\n").into_bytes();
        }
        // Duplicate one line (a repeated key is an error; a repeated
        // block line may still decode; must not panic either way).
        3 => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out: Vec<&str> = Vec::with_capacity(lines.len() + 1);
            for (i, l) in lines.iter().enumerate() {
                out.push(l);
                if i == a % lines.len().max(1) {
                    out.push(l);
                }
            }
            bytes = out.join("\n").into_bytes();
        }
        // Inject a junk line mid-stream.
        _ => {
            let lines: Vec<&str> = text.lines().collect();
            let mut out: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
            out.insert(a % (lines.len() + 1), format!("junk {b}"));
            bytes = out.join("\n").into_bytes();
        }
    }
    // All codec text is ASCII, so any slicing above stays valid UTF-8.
    String::from_utf8(bytes).expect("codec text is ASCII")
}

proptest! {
    /// Random specs round-trip: decode(encode(s)) re-encodes to the
    /// exact same text, i.e. field-level bit-identity.
    #[test]
    fn random_specs_round_trip(spec in scenario()) {
        let text = encode(&spec).expect("generated specs are encodable");
        let back = decode(&text).expect("encoded specs decode");
        prop_assert_eq!(&text, &encode(&back).unwrap());
    }

    /// Garbled spec text never panics the decoder; it either decodes (a
    /// benign mutation, e.g. a dropped duplicate) or errors structurally.
    #[test]
    fn garbled_specs_never_panic(
        spec in scenario(),
        kind in 0u8..=255,
        a in 0usize..10_000,
        b in 0u8..=255,
    ) {
        let text = encode(&spec).unwrap();
        let mangled = garble(&text, kind, a, b);
        let _ = decode(&mangled);
    }

    /// Pure garbage (no structure at all) errors, never panics — with
    /// and without a valid header line in front of it.
    #[test]
    fn arbitrary_bytes_never_panic_spec_decoder(
        bytes in prop::collection::vec(0u8..128, 0..400),
    ) {
        let text: String = bytes.into_iter().map(|b| b as char).collect();
        let _ = decode(&text);
        let _ = decode_report(&text);
        let _ = StatBaseline::decode(&text);
        let _ = BenchRun::decode(&text);
        for header in ["besync-scenario v1", "besync-report v1", "besync-stats v1", "besync-bench v6"] {
            let text = format!("{header}\n{text}");
            let _ = decode(&text);
            let _ = decode_report(&text);
            let _ = StatBaseline::decode(&text);
            let _ = BenchRun::decode(&text);
        }
    }

    /// A line with a key no decoder field takes makes a spec or a
    /// report fail to decode, wherever it is inserted: a misspelled key
    /// is never silently ignored.
    #[test]
    fn unknown_key_lines_are_rejected(
        spec in scenario(),
        r in report(),
        key in name(),
        value in name(),
        at in 0usize..10_000,
    ) {
        if !KNOWN_KEYS.contains(&key.as_str()) {
            let line = format!("{key} {value}");
            let err = decode(&insert_line(&encode(&spec).unwrap(), at, &line)).unwrap_err();
            prop_assert!(err.contains(&key), "{}", err);
            let err = decode_report(&insert_line(&encode_report(&r), at, &line)).unwrap_err();
            prop_assert!(err.contains(&key), "{}", err);
        }
    }

    /// Random stats baselines — every float bit pattern included —
    /// re-encode to the exact text they were decoded from.
    #[test]
    fn random_stat_baselines_round_trip(b in stat_baseline()) {
        let text = b.encode();
        let back = StatBaseline::decode(&text).expect("encoded baselines decode");
        prop_assert_eq!(back.encode(), text);
    }

    /// Random bench runs round-trip field for field (NaN-free fields
    /// compare with `==`; the text fixpoint covers every bit).
    #[test]
    fn random_bench_runs_round_trip(run in bench_run()) {
        let text = run.encode();
        let back = BenchRun::decode(&text).expect("encoded runs decode");
        prop_assert_eq!(back.encode(), text);
        prop_assert_eq!(back.scenarios.len(), run.scenarios.len());
    }

    /// Garbled baselines never panic their decoders.
    #[test]
    fn garbled_baselines_never_panic(
        b in stat_baseline(),
        run in bench_run(),
        kind in 0u8..=255,
        a in 0usize..10_000,
        c in 0u8..=255,
    ) {
        let _ = StatBaseline::decode(&garble(&b.encode(), kind, a, c));
        let _ = BenchRun::decode(&garble(&run.encode(), kind, a, c));
    }

    /// Random reports — every counter and every f64 bit pattern,
    /// including NaN payloads and ±∞ — survive the codec bit for bit.
    #[test]
    fn random_reports_round_trip_bit_exact(r in report()) {
        let text = encode_report(&r);
        let back = decode_report(&text).expect("encoded reports decode");
        prop_assert_eq!(r.divergence.objects, back.divergence.objects);
        prop_assert_eq!(r.divergence.total_unweighted.to_bits(),
                        back.divergence.total_unweighted.to_bits());
        prop_assert_eq!(r.divergence.total_weighted.to_bits(),
                        back.divergence.total_weighted.to_bits());
        prop_assert_eq!(r.divergence.mean_unweighted.to_bits(),
                        back.divergence.mean_unweighted.to_bits());
        prop_assert_eq!(r.divergence.mean_weighted.to_bits(),
                        back.divergence.mean_weighted.to_bits());
        prop_assert_eq!(r.divergence.max_unweighted.to_bits(),
                        back.divergence.max_unweighted.to_bits());
        prop_assert_eq!(r.divergence.refreshes_applied, back.divergence.refreshes_applied);
        prop_assert_eq!(r.refreshes_sent, back.refreshes_sent);
        prop_assert_eq!(r.refreshes_delivered, back.refreshes_delivered);
        prop_assert_eq!(r.feedback_messages, back.feedback_messages);
        prop_assert_eq!(r.polls_sent, back.polls_sent);
        prop_assert_eq!(r.max_cache_queue, back.max_cache_queue);
        prop_assert_eq!(r.mean_queue_wait.to_bits(), back.mean_queue_wait.to_bits());
        prop_assert_eq!(r.updates_processed, back.updates_processed);
        let (a, b) = (r.threshold_stats.to_raw(), back.threshold_stats.to_raw());
        prop_assert_eq!(a.count, b.count);
        prop_assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        prop_assert_eq!(a.m2.to_bits(), b.m2.to_bits());
        prop_assert_eq!(a.min.to_bits(), b.min.to_bits());
        prop_assert_eq!(a.max.to_bits(), b.max.to_bits());
        let (fa, fb) = (&r.faults, &back.faults);
        prop_assert_eq!(fa.lost_refreshes, fb.lost_refreshes);
        prop_assert_eq!(fa.retransmits, fb.retransmits);
        prop_assert_eq!(fa.outages, fb.outages);
        prop_assert_eq!(fa.outage_seconds.to_bits(), fb.outage_seconds.to_bits());
        prop_assert_eq!(fa.dropped_in_outage, fb.dropped_in_outage);
        prop_assert_eq!(fa.crashes, fb.crashes);
        prop_assert_eq!(fa.down_seconds.to_bits(), fb.down_seconds.to_bits());
        prop_assert_eq!(fa.missed_updates, fb.missed_updates);
        prop_assert_eq!(fa.resync_quotes, fb.resync_quotes);
        prop_assert_eq!(fa.epoch_divergence.to_bits(), fb.epoch_divergence.to_bits());
        // And the text itself is a fixpoint.
        prop_assert_eq!(text, encode_report(&back));
    }

    /// Any recovery-kind spelling outside the known set must decode to a
    /// structured error — never panic, never silently pick a regime.
    #[test]
    fn unknown_fault_kinds_are_rejected(spec in scenario(), kind in name()) {
        if !matches!(kind.as_str(), "degrade-stale" | "retransmit" | "resync") {
            let mut spec = spec;
            spec.fault = Some(FaultProfile {
                loss_prob: 0.25,
                ..FaultProfile::default()
            });
            let text = encode(&spec).unwrap();
            let mangled: String = text
                .lines()
                .map(|l| if l.starts_with("fault ") { format!("fault {kind}") } else { l.to_string() })
                .collect::<Vec<_>>()
                .join("\n");
            prop_assert!(decode(&mangled).is_err());
        }
    }

    /// Garbled report text — the hostile-worker-reply case — never
    /// panics the supervisor's decoder.
    #[test]
    fn garbled_reports_never_panic(
        r in report(),
        kind in 0u8..=255,
        a in 0usize..10_000,
        b in 0u8..=255,
    ) {
        let mangled = garble(&encode_report(&r), kind, a, b);
        let _ = decode_report(&mangled);
    }
}
