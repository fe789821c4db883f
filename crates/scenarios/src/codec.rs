//! The repo's one text format, and the scenario and run-report codecs
//! built on it.
//!
//! Every text artifact that must survive a round trip is written by
//! [`Writer`] and read by [`read_lines`]: a [`ScenarioSpec`] or
//! [`RunReport`] crossing a sweep worker's pipe, the statistical
//! baseline `STATS_baseline.txt` and the bench counter baseline
//! `BENCH_baseline.txt`. The workspace vendors no serde, so the format
//! is plain lines:
//!
//! - a header line naming the format and its version;
//! - one `key value` line per field, the value running to the end of the
//!   line; blank lines are skipped;
//! - every `f64` spelled by [`fmt_f64`] and read by [`parse_f64`], so a
//!   decoded value is bit-identical to the encoded one — and therefore,
//!   by the determinism the whole repo is built on, a decoded spec
//!   replays the same trajectory on the far side of a pipe.
//!
//! A flat [`Record`] holds each key at most once, and its decoder must
//! consume every key, so a misspelled or repeated key is an error that
//! names it, never a silently defaulted field. Files of many records
//! group them in `opener name` … `end` [`blocks`]. Errors carry the
//! 1-based line number.
//!
//! Limitations, by design: [`Metric::Deviation`] carries a function
//! pointer and encodes as `deviation`, which decodes to the standard
//! absolute-difference deviation — the only deviation function any
//! registered scenario uses. Encoding a scenario with a custom deviation
//! function is an error.

use std::fmt::{self, Write as _};
use std::str::FromStr;

use besync::cache::partition::SharePolicy;
use besync::fault::{FaultProfile, FaultSummary, RecoveryPolicy};
use besync::priority::{PolicyKind, RateEstimator};
use besync::RunReport;
use besync_data::account::DivergenceReport;
use besync_data::metric::abs_deviation;
use besync_data::Metric;
use besync_sim::stats::{RawRunningStats, RunningStats};
use besync_workloads::buoy::BuoyConfig;

use crate::spec::{ScenarioSpec, SystemKind, WorkloadKind};

/// Format tag, first line of every encoded scenario.
const HEADER: &str = "besync-scenario v1";

/// Format tag, first line of every encoded run report.
const REPORT_HEADER: &str = "besync-report v1";

/// One `key value` line of the text format.
#[derive(Debug, Clone, Copy)]
pub struct Line<'a> {
    /// 1-based line number in the input.
    pub no: usize,
    /// The line's first whitespace-delimited token.
    pub key: &'a str,
    /// The rest of the line, trimmed; empty if there is none.
    pub value: &'a str,
}

impl<'a> Line<'a> {
    /// Prefixes `msg` with this line's number.
    pub fn error(&self, msg: impl fmt::Display) -> String {
        format!("line {}: {msg}", self.no)
    }

    fn bad(&self, what: &str) -> String {
        self.error(format_args!(
            "bad {what} `{}` in `{}`",
            self.value, self.key
        ))
    }

    /// The error for a value outside the key's set of names.
    pub fn unknown(&self) -> String {
        self.error(format_args!("unknown {} `{}`", self.key, self.value))
    }

    /// The value mapped through a name table; `None` is [`Line::unknown`].
    pub fn parse<T>(&self, names: impl FnOnce(&str) -> Option<T>) -> Result<T, String> {
        names(self.value).ok_or_else(|| self.unknown())
    }

    /// The value as an integer; out-of-range values are errors.
    pub fn int<T: FromStr>(&self) -> Result<T, String> {
        self.value.parse().map_err(|_| self.bad("integer"))
    }

    /// The value as an `f64` in its one [`fmt_f64`] spelling.
    pub fn f64(&self) -> Result<f64, String> {
        parse_f64(self.value).ok_or_else(|| self.bad("number"))
    }

    /// The value as `true` or `false`.
    pub fn bool(&self) -> Result<bool, String> {
        match self.value {
            "true" => Ok(true),
            "false" => Ok(false),
            _ => Err(self.bad("boolean")),
        }
    }
}

/// Reads a text form: checks its header line, skips blank lines and
/// splits every other line at its first whitespace into a [`Line`].
pub fn read_lines<'a>(text: &'a str, header: &str) -> Result<Vec<Line<'a>>, String> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some(header) {
        return Err(format!("missing `{header}` header"));
    }
    Ok(lines
        .enumerate()
        .map(|(i, line)| (i + 2, line.trim()))
        .filter(|(_, line)| !line.is_empty())
        .map(|(no, line)| {
            let (key, value) = line.split_once(char::is_whitespace).unwrap_or((line, ""));
            Line {
                no,
                key,
                value: value.trim(),
            }
        })
        .collect())
}

/// A block of a multi-record text form: its opening line and its body.
pub type Block<'a> = (Line<'a>, Vec<Line<'a>>);

/// Splits `lines` into the top-level lines and the `opener name` … `end`
/// blocks, in input order. A block opened inside another, an `end`
/// outside a block or with a value, and an unclosed block are errors.
pub fn blocks<'a>(
    lines: Vec<Line<'a>>,
    opener: &str,
) -> Result<(Vec<Line<'a>>, Vec<Block<'a>>), String> {
    let mut top = Vec::new();
    let mut done = Vec::new();
    let mut open: Option<Block<'a>> = None;
    for line in lines {
        if line.key == opener {
            if open.is_some() {
                return Err(line.error(format_args!("`{opener}` before the previous `end`")));
            }
            open = Some((line, Vec::new()));
        } else if line.key == "end" {
            if !line.value.is_empty() {
                return Err(line.error("text after `end`"));
            }
            done.push(
                open.take()
                    .ok_or_else(|| line.error("`end` outside a block"))?,
            );
        } else {
            match &mut open {
                Some((_, body)) => body.push(line),
                None => top.push(line),
            }
        }
    }
    match open {
        Some((line, _)) => Err(line.error(format_args!("`{opener}` block has no `end`"))),
        None => Ok((top, done)),
    }
}

/// A flat record: lines with each key at most once. A decoder takes
/// every field through an accessor and then calls [`Record::finish`],
/// which rejects any key no field took.
pub struct Record<'a> {
    lines: Vec<Line<'a>>,
    taken: Vec<bool>,
}

impl<'a> Record<'a> {
    /// Collects `lines` into a record; a repeated key is an error.
    pub fn new(lines: Vec<Line<'a>>) -> Result<Self, String> {
        for (i, line) in lines.iter().enumerate() {
            if lines[..i].iter().any(|l| l.key == line.key) {
                return Err(line.error(format_args!("duplicate key `{}`", line.key)));
            }
        }
        Ok(Record {
            taken: vec![false; lines.len()],
            lines,
        })
    }

    /// Takes `key`'s line, if there is one.
    pub fn opt(&mut self, key: &str) -> Option<Line<'a>> {
        let i = self.lines.iter().position(|l| l.key == key)?;
        self.taken[i] = true;
        Some(self.lines[i])
    }

    /// Takes `key`'s line; a missing key is an error.
    pub fn line(&mut self, key: &str) -> Result<Line<'a>, String> {
        self.opt(key)
            .ok_or_else(|| format!("missing field `{key}`"))
    }

    /// Takes `key`'s value as an integer ([`Line::int`]).
    pub fn int<T: FromStr>(&mut self, key: &str) -> Result<T, String> {
        self.line(key)?.int()
    }

    /// Takes `key`'s value as an `f64` ([`Line::f64`]).
    pub fn f64(&mut self, key: &str) -> Result<f64, String> {
        self.line(key)?.f64()
    }

    /// Takes `key`'s value as a boolean ([`Line::bool`]).
    pub fn bool(&mut self, key: &str) -> Result<bool, String> {
        self.line(key)?.bool()
    }

    /// Ends decoding; an error names the first key no accessor took.
    pub fn finish(self) -> Result<(), String> {
        match self
            .lines
            .iter()
            .zip(&self.taken)
            .find(|(_, &taken)| !taken)
        {
            Some((line, _)) => Err(line.error(format_args!("unexpected key `{}`", line.key))),
            None => Ok(()),
        }
    }
}

/// Writes the text form: the header line, then one `key value` line
/// per field.
pub struct Writer(String);

impl Writer {
    /// Starts a text form with its header line.
    pub fn new(header: &str) -> Writer {
        let mut out = String::with_capacity(512);
        out.push_str(header);
        out.push('\n');
        Writer(out)
    }

    /// Writes `key value`. An `f64` goes through [`Writer::f64`] instead.
    pub fn kv(&mut self, key: &str, value: impl fmt::Display) {
        writeln!(self.0, "{key} {value}").expect("formatting into a String cannot fail");
    }

    /// Writes `key` with `x` in its [`fmt_f64`] spelling.
    pub fn f64(&mut self, key: &str, x: f64) {
        self.kv(key, fmt_f64(x));
    }

    /// Closes a block.
    pub fn end(&mut self) {
        self.0.push_str("end\n");
    }

    /// The finished text.
    pub fn finish(self) -> String {
        self.0
    }
}

fn policy_name(p: PolicyKind) -> &'static str {
    match p {
        PolicyKind::Area => "area",
        PolicyKind::PoissonClosedForm => "poisson_closed_form",
        PolicyKind::SimpleWeighted => "simple_weighted",
        PolicyKind::Bound => "bound",
    }
}

fn parse_policy(s: &str) -> Option<PolicyKind> {
    Some(match s {
        "area" => PolicyKind::Area,
        "poisson_closed_form" => PolicyKind::PoissonClosedForm,
        "simple_weighted" => PolicyKind::SimpleWeighted,
        "bound" => PolicyKind::Bound,
        _ => return None,
    })
}

fn estimator_name(e: RateEstimator) -> &'static str {
    match e {
        RateEstimator::Known => "known",
        RateEstimator::LongRun => "long_run",
        RateEstimator::SinceRefresh => "since_refresh",
    }
}

fn parse_estimator(s: &str) -> Option<RateEstimator> {
    Some(match s {
        "known" => RateEstimator::Known,
        "long_run" => RateEstimator::LongRun,
        "since_refresh" => RateEstimator::SinceRefresh,
        _ => return None,
    })
}

fn share_name(s: SharePolicy) -> &'static str {
    match s {
        SharePolicy::EqualShare => "equal_share",
        SharePolicy::ProportionalToObjects => "per_object",
        SharePolicy::ProportionalToValue => "piggyback",
    }
}

fn parse_share(s: &str) -> Option<SharePolicy> {
    Some(match s {
        "equal_share" => SharePolicy::EqualShare,
        "per_object" => SharePolicy::ProportionalToObjects,
        "piggyback" => SharePolicy::ProportionalToValue,
        _ => return None,
    })
}

fn parse_metric(s: &str) -> Option<Metric> {
    Some(match s {
        "staleness" => Metric::Staleness,
        "lag" => Metric::Lag,
        "deviation" => Metric::abs_deviation(),
        _ => return None,
    })
}

/// Encodes a scenario as the line-based text form.
///
/// # Errors
///
/// Returns an error if the scenario uses a deviation function other than
/// the standard absolute difference (function pointers don't serialize).
pub fn encode(spec: &ScenarioSpec) -> Result<String, String> {
    if let Metric::Deviation(f) = spec.metric {
        // Function pointers don't serialize and can't be compared
        // reliably (codegen may merge or duplicate them), so probe the
        // function's behaviour against the standard absolute difference
        // on a few points before claiming `deviation` means abs.
        let probes = [(0.0, 0.0), (5.0, 3.0), (-2.5, 4.0), (1e6, -1e6)];
        if probes.iter().any(|&(a, b)| f(a, b) != abs_deviation(a, b)) {
            return Err(format!(
                "scenario `{}` uses a custom deviation function, which cannot be serialized",
                spec.name
            ));
        }
    }
    for (field, value) in [("name", &spec.name), ("description", &spec.description)] {
        // The reader trims every value, so edge whitespace would not
        // survive the trip either.
        if value.contains(['\n', '\r']) || value.trim() != value {
            return Err(format!(
                "scenario {field} contains a line break or edge whitespace, which the \
                 line-based format cannot carry faithfully"
            ));
        }
    }
    let mut w = Writer::new(HEADER);
    w.kv("name", &spec.name);
    w.kv("description", &spec.description);
    w.kv("seed", spec.seed);
    w.kv("sim_seed", spec.sim_seed);
    w.kv("system", spec.system.name());
    match spec.workload {
        WorkloadKind::Poisson {
            sources,
            objects_per_source,
            rate_range,
            weight_range,
            fluctuating_weights,
        } => {
            w.kv("workload", "poisson");
            w.kv("sources", sources);
            w.kv("objects_per_source", objects_per_source);
            w.f64("rate_lo", rate_range.0);
            w.f64("rate_hi", rate_range.1);
            w.f64("weight_lo", weight_range.0);
            w.f64("weight_hi", weight_range.1);
            w.kv("fluctuating_weights", fluctuating_weights);
        }
        WorkloadKind::Buoy { config } => {
            w.kv("workload", "buoy");
            w.kv("buoys", config.buoys);
            w.kv("components", config.components);
            w.f64("sample_interval", config.sample_interval);
            w.f64("duration", config.duration);
            w.f64("reversion", config.reversion);
            w.f64("noise", config.noise);
        }
    }
    w.kv("policy", policy_name(spec.policy));
    w.kv("estimator", estimator_name(spec.estimator));
    w.kv("metric", spec.metric.name());
    w.f64("cache_bandwidth_mean", spec.cache_bandwidth_mean);
    w.f64("source_bandwidth_mean", spec.source_bandwidth_mean);
    w.f64("bandwidth_change_rate", spec.bandwidth_change_rate);
    w.f64("alpha", spec.alpha);
    w.f64("omega", spec.omega);
    w.f64("warmup", spec.warmup);
    w.f64("measure", spec.measure);
    if let Some(f) = spec.fault {
        // The fault block is emitted only when a profile is set, so
        // fault-free scenarios keep their exact pre-fault text (and old
        // text decodes to `fault: None`).
        w.kv("fault", f.recovery.kind_name());
        if let RecoveryPolicy::Retransmit { deadline } = f.recovery {
            w.f64("fault_retransmit_deadline", deadline);
        }
        w.f64("fault_loss_prob", f.loss_prob);
        w.f64("fault_outage_rate", f.outage_rate);
        w.f64("fault_outage_duration", f.outage_duration);
        w.kv("fault_outage_drops_queue", f.outage_drops_queue);
        w.f64("fault_crash_rate", f.crash_rate);
        w.f64("fault_crash_downtime", f.crash_downtime);
        if f.aware {
            // Emitted only when set, so pre-fault-aware scenario text
            // stays byte-identical (and old text decodes to `false`).
            w.kv("fault_aware", true);
        }
    }
    if matches!(spec.system, SystemKind::Competitive) {
        // The Ψ partition only exists for §7 scenarios; emitting it
        // conditionally keeps every other scenario's text byte-identical
        // to its pre-competitive form.
        w.f64("psi", spec.psi);
        w.kv("share_policy", share_name(spec.share));
    }
    Ok(w.finish())
}

/// Decodes the line-based text form back into a scenario.
///
/// # Errors
///
/// Returns a message naming the first malformed, missing, repeated or
/// unexpected field.
pub fn decode(text: &str) -> Result<ScenarioSpec, String> {
    let mut r = Record::new(read_lines(text, HEADER)?)?;
    let kind = r.line("workload")?;
    let workload = match kind.value {
        "poisson" => WorkloadKind::Poisson {
            sources: r.int("sources")?,
            objects_per_source: r.int("objects_per_source")?,
            rate_range: (r.f64("rate_lo")?, r.f64("rate_hi")?),
            weight_range: (r.f64("weight_lo")?, r.f64("weight_hi")?),
            fluctuating_weights: r.bool("fluctuating_weights")?,
        },
        "buoy" => WorkloadKind::Buoy {
            config: BuoyConfig {
                buoys: r.int("buoys")?,
                components: r.int("components")?,
                sample_interval: r.f64("sample_interval")?,
                duration: r.f64("duration")?,
                reversion: r.f64("reversion")?,
                noise: r.f64("noise")?,
            },
        },
        _ => return Err(kind.unknown()),
    };

    // `fault` is optional — its absence means the fault-free path — but
    // once present, every sub-field is mandatory and the recovery kind
    // must be known: silently decoding an unknown fault regime to
    // something else would change what the far side simulates.
    let fault = match r.opt("fault") {
        None => None,
        Some(kind) => {
            let recovery = match kind.value {
                "degrade-stale" => RecoveryPolicy::DegradeStale,
                "resync" => RecoveryPolicy::Resync,
                "retransmit" => RecoveryPolicy::Retransmit {
                    deadline: r.f64("fault_retransmit_deadline")?,
                },
                _ => return Err(kind.unknown()),
            };
            let profile = FaultProfile {
                loss_prob: r.f64("fault_loss_prob")?,
                outage_rate: r.f64("fault_outage_rate")?,
                outage_duration: r.f64("fault_outage_duration")?,
                outage_drops_queue: r.bool("fault_outage_drops_queue")?,
                crash_rate: r.f64("fault_crash_rate")?,
                crash_downtime: r.f64("fault_crash_downtime")?,
                recovery,
                aware: r.opt("fault_aware").map_or(Ok(false), |l| l.bool())?,
            };
            profile
                .validate()
                .map_err(|e| format!("invalid fault profile: {e}"))?;
            Some(profile)
        }
    };

    let system = r.line("system")?.parse(SystemKind::parse)?;
    // Like the fault block: the Ψ partition is absent from every
    // non-competitive scenario's text, but once the system is §7 both
    // fields are mandatory — defaults here would silently change what
    // the far side simulates.
    let (psi, share) = if matches!(system, SystemKind::Competitive) {
        (r.f64("psi")?, r.line("share_policy")?.parse(parse_share)?)
    } else {
        (0.0, SharePolicy::ProportionalToValue)
    };
    let spec = ScenarioSpec {
        name: r.line("name")?.value.to_string(),
        description: r.line("description")?.value.to_string(),
        seed: r.int("seed")?,
        sim_seed: r.int("sim_seed")?,
        system,
        workload,
        policy: r.line("policy")?.parse(parse_policy)?,
        estimator: r.line("estimator")?.parse(parse_estimator)?,
        metric: r.line("metric")?.parse(parse_metric)?,
        cache_bandwidth_mean: r.f64("cache_bandwidth_mean")?,
        source_bandwidth_mean: r.f64("source_bandwidth_mean")?,
        bandwidth_change_rate: r.f64("bandwidth_change_rate")?,
        alpha: r.f64("alpha")?,
        omega: r.f64("omega")?,
        warmup: r.f64("warmup")?,
        measure: r.f64("measure")?,
        fault,
        psi,
        share,
    };
    r.finish()?;
    Ok(spec)
}

/// Formats an `f64` so decoding reproduces it bit for bit.
///
/// Finite values use Rust's shortest round-trip decimal formatting.
/// Non-finite values — an empty `RunningStats` legitimately carries
/// `±∞`, and a degenerate run can produce `NaN` means — are written as
/// an explicit `!x` bit pattern so even NaN payloads survive.
///
/// Public because every text artifact in the repo that must survive a
/// round trip (worker protocol frames, both checked-in baselines)
/// shares this one canonical spelling.
pub fn fmt_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        format!("!x{:016x}", x.to_bits())
    }
}

/// Inverse of [`fmt_f64`], accepting only canonical spellings — one
/// legal text per value. The `!x` form must be exactly 16 hex digits
/// (no sign, no short forms) and must denote a *non-finite* value;
/// decimal text that parses to a non-finite value (an overflowing
/// `1e999`, or a literal `NaN`/`inf` smuggled outside the `!x` form) is
/// rejected symmetrically.
pub fn parse_f64(s: &str) -> Option<f64> {
    if let Some(hex) = s.strip_prefix("!x") {
        if hex.len() != 16 || !hex.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let v = f64::from_bits(u64::from_str_radix(hex, 16).ok()?);
        return (!v.is_finite()).then_some(v);
    }
    let v: f64 = s.parse().ok()?;
    v.is_finite().then_some(v)
}

/// Encodes a [`RunReport`] as the line-based text form — the reply unit
/// of the sweep-shard worker protocol. Every counter and every `f64`
/// (including the raw threshold-summary accumulator state) survives the
/// trip bit for bit, so a report collected from a worker process is
/// indistinguishable from one produced in-process.
pub fn encode_report(report: &RunReport) -> String {
    let mut w = Writer::new(REPORT_HEADER);
    let d = &report.divergence;
    w.kv("objects", d.objects);
    w.f64("total_unweighted", d.total_unweighted);
    w.f64("total_weighted", d.total_weighted);
    w.f64("mean_unweighted", d.mean_unweighted);
    w.f64("mean_weighted", d.mean_weighted);
    w.f64("max_unweighted", d.max_unweighted);
    w.kv("refreshes_applied", d.refreshes_applied);
    w.kv("refreshes_sent", report.refreshes_sent);
    w.kv("refreshes_delivered", report.refreshes_delivered);
    w.kv("feedback_messages", report.feedback_messages);
    w.kv("polls_sent", report.polls_sent);
    w.kv("max_cache_queue", report.max_cache_queue);
    w.f64("mean_queue_wait", report.mean_queue_wait);
    let t = report.threshold_stats.to_raw();
    w.kv("threshold_count", t.count);
    w.f64("threshold_mean", t.mean);
    w.f64("threshold_m2", t.m2);
    w.f64("threshold_min", t.min);
    w.f64("threshold_max", t.max);
    w.kv("updates_processed", report.updates_processed);
    let f = &report.faults;
    w.kv("fault_lost_refreshes", f.lost_refreshes);
    w.kv("fault_retransmits", f.retransmits);
    w.kv("fault_outages", f.outages);
    w.f64("fault_outage_seconds", f.outage_seconds);
    w.kv("fault_dropped_in_outage", f.dropped_in_outage);
    w.kv("fault_crashes", f.crashes);
    w.f64("fault_down_seconds", f.down_seconds);
    w.kv("fault_missed_updates", f.missed_updates);
    w.kv("fault_resync_quotes", f.resync_quotes);
    w.f64("fault_epoch_divergence", f.epoch_divergence);
    w.kv("fault_stale_drops", f.stale_drops);
    w.kv("fault_superseded_retries", f.superseded_retries);
    w.finish()
}

/// Decodes the line-based text form back into a [`RunReport`].
///
/// # Errors
///
/// Returns a message naming the first malformed, missing, repeated or
/// unexpected field. Never panics: a hostile or truncated worker reply
/// must surface as a structured error the sweep supervisor can act on,
/// not take it down.
pub fn decode_report(text: &str) -> Result<RunReport, String> {
    let mut r = Record::new(read_lines(text, REPORT_HEADER)?)?;
    let report = RunReport {
        divergence: DivergenceReport {
            objects: r.int("objects")?,
            total_unweighted: r.f64("total_unweighted")?,
            total_weighted: r.f64("total_weighted")?,
            mean_unweighted: r.f64("mean_unweighted")?,
            mean_weighted: r.f64("mean_weighted")?,
            max_unweighted: r.f64("max_unweighted")?,
            refreshes_applied: r.int("refreshes_applied")?,
        },
        refreshes_sent: r.int("refreshes_sent")?,
        refreshes_delivered: r.int("refreshes_delivered")?,
        feedback_messages: r.int("feedback_messages")?,
        polls_sent: r.int("polls_sent")?,
        max_cache_queue: r.int("max_cache_queue")?,
        mean_queue_wait: r.f64("mean_queue_wait")?,
        threshold_stats: RunningStats::from_raw(RawRunningStats {
            count: r.int("threshold_count")?,
            mean: r.f64("threshold_mean")?,
            m2: r.f64("threshold_m2")?,
            min: r.f64("threshold_min")?,
            max: r.f64("threshold_max")?,
        }),
        updates_processed: r.int("updates_processed")?,
        faults: FaultSummary {
            lost_refreshes: r.int("fault_lost_refreshes")?,
            retransmits: r.int("fault_retransmits")?,
            outages: r.int("fault_outages")?,
            outage_seconds: r.f64("fault_outage_seconds")?,
            dropped_in_outage: r.int("fault_dropped_in_outage")?,
            crashes: r.int("fault_crashes")?,
            down_seconds: r.f64("fault_down_seconds")?,
            missed_updates: r.int("fault_missed_updates")?,
            resync_quotes: r.int("fault_resync_quotes")?,
            epoch_divergence: r.f64("fault_epoch_divergence")?,
            stale_drops: r.int("fault_stale_drops")?,
            superseded_retries: r.int("fault_superseded_retries")?,
        },
    };
    r.finish()?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{all, by_name};

    #[test]
    fn every_registered_scenario_round_trips() {
        for spec in all() {
            let text = encode(&spec).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let back = decode(&text).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            // Re-encoding the decoded spec must reproduce the exact text:
            // field-by-field bit-identity without needing PartialEq on
            // function pointers.
            assert_eq!(text, encode(&back).unwrap(), "{} round trip", spec.name);
        }
    }

    #[test]
    fn decoded_scenario_replays_the_same_trajectory() {
        // The sharding contract: a spec shipped through the codec runs
        // the identical simulation on the far side.
        let spec = by_name("small").unwrap().quick();
        let shipped = decode(&encode(&spec).unwrap()).unwrap();
        let here = spec.run();
        let there = shipped.run();
        assert_eq!(here.updates_processed, there.updates_processed);
        assert_eq!(here.refreshes_sent, there.refreshes_sent);
        assert_eq!(here.feedback_messages, there.feedback_messages);
        assert_eq!(here.mean_divergence(), there.mean_divergence());
    }

    #[test]
    fn buoy_workloads_round_trip() {
        use crate::spec::ScenarioSpec;
        let spec = ScenarioSpec {
            name: "buoy_test".into(),
            description: "fig5-style scenario".into(),
            workload: WorkloadKind::Buoy {
                config: BuoyConfig::quick(),
            },
            metric: Metric::abs_deviation(),
            ..ScenarioSpec::default()
        };
        let text = encode(&spec).unwrap();
        let back = decode(&text).unwrap();
        assert_eq!(text, encode(&back).unwrap());
        match back.workload {
            WorkloadKind::Buoy { config } => assert_eq!(config.buoys, 8),
            _ => panic!("lost the buoy workload"),
        }
    }

    #[test]
    fn custom_deviation_functions_refuse_to_encode() {
        use besync_data::metric::squared_deviation;
        let spec = ScenarioSpec {
            metric: Metric::Deviation(squared_deviation),
            ..by_name("small").unwrap()
        };
        assert!(encode(&spec).is_err());
    }

    #[test]
    fn decode_reports_missing_and_malformed_fields() {
        assert!(decode("not a scenario").is_err());
        let text = encode(&by_name("small").unwrap()).unwrap();
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("measure"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = decode(&truncated).unwrap_err();
        assert!(err.contains("measure"), "{err}");
        let mangled = text.replace("cache_bandwidth_mean ", "cache_bandwidth_mean x");
        assert!(decode(&mangled).is_err());
        // Booleans are as strict as numbers: a corrupted flag must fail,
        // not silently decode to false.
        let bad_bool = text.replace("fluctuating_weights false", "fluctuating_weights fals");
        let err = decode(&bad_bool).unwrap_err();
        assert!(err.contains("fluctuating_weights"), "{err}");
    }

    fn exotic_report() -> RunReport {
        // Worst-case float inventory: negative zero, subnormals, huge and
        // tiny magnitudes, NaN with a non-default payload, both
        // infinities (an empty RunningStats carries ±∞ legitimately).
        RunReport {
            divergence: DivergenceReport {
                objects: 12_345,
                total_unweighted: -0.0,
                total_weighted: f64::MIN_POSITIVE / 8.0, // subnormal
                mean_unweighted: 0.1 + 0.2,              // classic non-representable sum
                mean_weighted: f64::from_bits(0x7ff8_0000_0000_beef), // NaN, payload bits
                max_unweighted: 1.797e308,
                refreshes_applied: u64::MAX,
            },
            refreshes_sent: 0,
            refreshes_delivered: u64::MAX - 1,
            feedback_messages: 7,
            polls_sent: 3,
            max_cache_queue: usize::MAX,
            mean_queue_wait: f64::NEG_INFINITY,
            threshold_stats: RunningStats::new(), // min = +∞, max = −∞
            updates_processed: 1,
            faults: FaultSummary {
                lost_refreshes: u64::MAX,
                retransmits: 0,
                outages: 3,
                outage_seconds: f64::INFINITY,
                dropped_in_outage: 9,
                crashes: u64::MAX - 2,
                down_seconds: -0.0,
                missed_updates: 11,
                resync_quotes: 13,
                epoch_divergence: f64::from_bits(0x7ff8_0000_0000_dead), // NaN payload
                stale_drops: u64::MAX - 3,
                superseded_retries: 17,
            },
        }
    }

    fn assert_reports_bit_identical(a: &RunReport, b: &RunReport) {
        assert_eq!(a.divergence.objects, b.divergence.objects);
        for (x, y) in [
            (a.divergence.total_unweighted, b.divergence.total_unweighted),
            (a.divergence.total_weighted, b.divergence.total_weighted),
            (a.divergence.mean_unweighted, b.divergence.mean_unweighted),
            (a.divergence.mean_weighted, b.divergence.mean_weighted),
            (a.divergence.max_unweighted, b.divergence.max_unweighted),
            (a.mean_queue_wait, b.mean_queue_wait),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "{x} vs {y}");
        }
        assert_eq!(
            a.divergence.refreshes_applied,
            b.divergence.refreshes_applied
        );
        assert_eq!(a.refreshes_sent, b.refreshes_sent);
        assert_eq!(a.refreshes_delivered, b.refreshes_delivered);
        assert_eq!(a.feedback_messages, b.feedback_messages);
        assert_eq!(a.polls_sent, b.polls_sent);
        assert_eq!(a.max_cache_queue, b.max_cache_queue);
        assert_eq!(a.updates_processed, b.updates_processed);
        let (ta, tb) = (a.threshold_stats.to_raw(), b.threshold_stats.to_raw());
        assert_eq!(ta.count, tb.count);
        for (x, y) in [
            (ta.mean, tb.mean),
            (ta.m2, tb.m2),
            (ta.min, tb.min),
            (ta.max, tb.max),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "threshold stats {x} vs {y}");
        }
        let (fa, fb) = (&a.faults, &b.faults);
        assert_eq!(fa.lost_refreshes, fb.lost_refreshes);
        assert_eq!(fa.retransmits, fb.retransmits);
        assert_eq!(fa.outages, fb.outages);
        assert_eq!(fa.dropped_in_outage, fb.dropped_in_outage);
        assert_eq!(fa.crashes, fb.crashes);
        assert_eq!(fa.missed_updates, fb.missed_updates);
        assert_eq!(fa.resync_quotes, fb.resync_quotes);
        assert_eq!(fa.stale_drops, fb.stale_drops);
        assert_eq!(fa.superseded_retries, fb.superseded_retries);
        for (x, y) in [
            (fa.outage_seconds, fb.outage_seconds),
            (fa.down_seconds, fb.down_seconds),
            (fa.epoch_divergence, fb.epoch_divergence),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "fault summary {x} vs {y}");
        }
    }

    #[test]
    fn run_report_round_trips_bit_exact() {
        // A real report from an actual run...
        let real = by_name("small").unwrap().quick().run();
        assert_reports_bit_identical(&real, &decode_report(&encode_report(&real)).unwrap());
        // ...and a synthetic one stuffed with every float pathology.
        let exotic = exotic_report();
        let back = decode_report(&encode_report(&exotic)).unwrap();
        assert_reports_bit_identical(&exotic, &back);
        // Idempotence: re-encoding the decoded report reproduces the text.
        assert_eq!(encode_report(&exotic), encode_report(&back));
    }

    #[test]
    fn non_finite_floats_only_decode_through_the_bit_form() {
        let text = encode_report(&by_name("small").unwrap().quick().run());
        let spec_text = encode(&by_name("small").unwrap()).unwrap();
        // Textual NaN / inf / overflowing decimals must be rejected: the
        // only legal spelling of a non-finite value is the explicit `!x`
        // bit pattern, so a sloppy producer can't silently smuggle one in.
        // Specs and reports share the one spelling.
        for bad in ["NaN", "inf", "-inf", "infinity", "1e999"] {
            let mangled = replace_field_value(&text, "mean_queue_wait", bad);
            let err = decode_report(&mangled).unwrap_err();
            assert!(err.contains("mean_queue_wait"), "{bad}: {err}");
            let mangled = replace_field_value(&spec_text, "measure", bad);
            let err = decode(&mangled).unwrap_err();
            assert!(err.contains("measure"), "{bad}: {err}");
        }
        // A non-finite spec value round-trips through the bit form.
        let endless = ScenarioSpec {
            measure: f64::INFINITY,
            ..by_name("small").unwrap()
        };
        let endless_text = encode(&endless).unwrap();
        assert!(endless_text.contains("measure !x7ff0000000000000"));
        assert_eq!(decode(&endless_text).unwrap().measure, f64::INFINITY);
        // The bit form itself round-trips a quiet NaN.
        let nan_text = replace_field_value(&text, "mean_queue_wait", "!x7ff8000000000000");
        assert!(decode_report(&nan_text).unwrap().mean_queue_wait.is_nan());
        // …but only in canonical form: exactly 16 hex digits, no sign,
        // and never denoting a finite value (finite values have exactly
        // one legal spelling — the decimal one).
        for bad in [
            "!x0",                 // short
            "!x+7ff8000000000000", // sign smuggled past from_str_radix
            "!x3ff0000000000000",  // finite 1.0 through the bit form
            "!x7ff80000000000000", // too long
            "!xgff8000000000000g", // non-hex
        ] {
            let mangled = replace_field_value(&text, "mean_queue_wait", bad);
            assert!(decode_report(&mangled).is_err(), "accepted `{bad}`");
        }
    }

    #[test]
    fn report_decode_reports_missing_and_malformed_fields() {
        assert!(decode_report("not a report").is_err());
        let text = encode_report(&by_name("small").unwrap().quick().run());
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("updates_processed"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = decode_report(&truncated).unwrap_err();
        assert!(err.contains("updates_processed"), "{err}");
        let mangled = replace_field_value(&text, "refreshes_sent", "twelve");
        assert!(decode_report(&mangled).is_err());
    }

    #[test]
    fn misspelled_repeated_and_extra_keys_are_rejected() {
        // A misspelled optional key must not decode to its default: the
        // far side would simulate a fault-blind regime.
        let text = encode(&by_name("lossy_aware_medium").unwrap()).unwrap();
        assert!(text.contains("fault_aware true"), "{text}");
        let err = decode(&text.replace("fault_aware true", "fault_awre true")).unwrap_err();
        assert!(err.contains("fault_awre"), "{err}");
        // A repeated key is an error, not "the first one wins".
        let seed_line = text.lines().find(|l| l.starts_with("seed ")).unwrap();
        let twice = text.replacen(seed_line, &format!("{seed_line}\nseed 999"), 1);
        let err = decode(&twice).unwrap_err();
        assert!(err.contains("duplicate key `seed`"), "{err}");
        // A key the spec's kind does not use is unexpected.
        let err = decode(&format!("{text}psi 0.5\n")).unwrap_err();
        assert!(err.contains("psi"), "{err}");
        // Reports: the same for an extra and a repeated key.
        let report = encode_report(&by_name("small").unwrap().quick().run());
        let err = decode_report(&format!("{report}bogus 1\n")).unwrap_err();
        assert!(err.contains("unexpected key `bogus`"), "{err}");
        let err = decode_report(&format!("{report}polls_sent 0\n")).unwrap_err();
        assert!(err.contains("duplicate key `polls_sent`"), "{err}");
    }

    /// Replaces `key`'s value in an encoded key-value text.
    fn replace_field_value(text: &str, key: &str, value: &str) -> String {
        text.lines()
            .map(|l| {
                if l.starts_with(&format!("{key} ")) {
                    format!("{key} {value}")
                } else {
                    l.to_string()
                }
            })
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn fault_profiles_round_trip_for_every_recovery_kind() {
        for recovery in [
            RecoveryPolicy::DegradeStale,
            RecoveryPolicy::Retransmit { deadline: 2.5 },
            RecoveryPolicy::Resync,
        ] {
            let spec = ScenarioSpec {
                fault: Some(FaultProfile {
                    loss_prob: 0.125,
                    outage_rate: 0.01,
                    outage_duration: 7.5,
                    outage_drops_queue: true,
                    crash_rate: 0.002,
                    crash_downtime: 30.0,
                    recovery,
                    aware: false,
                }),
                ..by_name("small").unwrap()
            };
            let text = encode(&spec).unwrap();
            let back = decode(&text).unwrap();
            assert_eq!(text, encode(&back).unwrap(), "{}", recovery.kind_name());
            assert_eq!(back.fault, Some(spec.fault.unwrap()));
            // `aware: false` is the implicit default: no line emitted, so
            // pre-fault-aware text is reproduced exactly.
            assert!(!text.contains("fault_aware"), "{text}");
        }
        // The aware flag round-trips when set.
        let aware_spec = ScenarioSpec {
            fault: Some(FaultProfile {
                loss_prob: 0.25,
                recovery: RecoveryPolicy::Retransmit { deadline: 4.0 },
                aware: true,
                ..FaultProfile::default()
            }),
            ..by_name("small").unwrap()
        };
        let text = encode(&aware_spec).unwrap();
        assert!(text.contains("fault_aware true"), "{text}");
        let back = decode(&text).unwrap();
        assert_eq!(back.fault, aware_spec.fault);
        assert_eq!(text, encode(&back).unwrap());
        // A corrupted aware flag fails loudly, like every other boolean.
        let bad = replace_field_value(&text, "fault_aware", "maybe");
        let err = decode(&bad).unwrap_err();
        assert!(err.contains("fault_aware"), "{err}");
        // Fault-free specs emit no fault block at all, so pre-fault text
        // is reproduced exactly and decodes back to None.
        let plain = by_name("small").unwrap();
        let text = encode(&plain).unwrap();
        assert!(!text.contains("fault"), "{text}");
        assert_eq!(decode(&text).unwrap().fault, None);
    }

    #[test]
    fn unknown_or_invalid_fault_blocks_are_rejected() {
        let spec = ScenarioSpec {
            fault: Some(FaultProfile {
                loss_prob: 0.1,
                ..FaultProfile::default()
            }),
            ..by_name("small").unwrap()
        };
        let text = encode(&spec).unwrap();
        // An unknown recovery kind must fail loudly, not decode to some
        // other regime.
        let mangled = replace_field_value(&text, "fault", "carrier-pigeon");
        let err = decode(&mangled).unwrap_err();
        assert!(err.contains("carrier-pigeon"), "{err}");
        // Out-of-range probabilities are caught by profile validation.
        let bad = replace_field_value(&text, "fault_loss_prob", "1.5");
        assert!(decode(&bad).is_err());
        // A fault block missing a sub-field is incomplete, not defaulted.
        let truncated: String = text
            .lines()
            .filter(|l| !l.starts_with("fault_crash_rate"))
            .collect::<Vec<_>>()
            .join("\n");
        let err = decode(&truncated).unwrap_err();
        assert!(err.contains("fault_crash_rate"), "{err}");
    }

    #[test]
    fn line_breaks_in_string_fields_refuse_to_encode() {
        // A newline in a free-text field would inject spurious key-value
        // lines (e.g. a second `seed`) into the line-based format.
        let spec = ScenarioSpec {
            name: "evil\nseed 999".into(),
            ..by_name("small").unwrap()
        };
        assert!(encode(&spec).is_err());
        let spec = ScenarioSpec {
            description: "two\nlines".into(),
            ..by_name("small").unwrap()
        };
        assert!(encode(&spec).is_err());
        // Edge whitespace would come back trimmed.
        for description in [" lead", "trail ", "tab\t"] {
            let spec = ScenarioSpec {
                description: description.into(),
                ..by_name("small").unwrap()
            };
            assert!(encode(&spec).is_err(), "{description:?}");
        }
    }
}
