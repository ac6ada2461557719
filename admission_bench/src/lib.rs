//! Deterministic single-caller benchmark of the §4.3 setup/release
//! decision (see `README.md` beside this crate for the workloads, the
//! metrics and what each layer metric should move).
//!
//! Each workload is one caller in a closed loop replaying a
//! seed-determined operation sequence at a held population, so every
//! run of a seed makes the same decisions at the same occupancy and
//! only the clock varies. End-to-end metrics come from an untraced
//! pass; `--trace 1` adds a traced pass over the same operations and
//! per-layer replays timed from this crate around public calls.

pub mod churn;
mod inproc;
pub mod layers;
pub mod measure;
pub mod mix;
pub mod stats;
mod wire;

use churn::{Caller, Churn, Pass};
use layers::{bitstream_replay, cac_replay};
use measure::{codec_ns_per_frame, EngineLayer, RestoreStep};
use mix::SetupOp;
pub use mix::Workload;
use rtcac_engine::AdmissionEngine;
use rtcac_serve::{Request, Response};
use stats::{median, quantile, us};

/// How one invocation runs.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The seed every input is drawn from.
    pub seed: u64,
    /// Operations (setups plus releases) in each measured pass.
    pub ops: usize,
    /// The population held during the measured passes.
    pub population: usize,
    /// Whether to add the traced pass and the per-layer replays.
    pub trace: bool,
    /// Untimed churn operations between set-up and each measured pass,
    /// so the first timed window does not pay for cold caches.
    pub warmup: usize,
}

/// Setups of the sequence replayed in the per-layer replays.
const REPLAY_SETUPS: usize = 64;

impl RunConfig {
    /// The configuration for `--seconds` of measurement. A traced run
    /// splits the measured operations between its untraced and traced
    /// passes, so it measures for about as long as an untraced run.
    pub fn for_seconds(workload: Workload, seed: u64, seconds: u64, trace: bool) -> RunConfig {
        let ops = workload.ops_per_second() * seconds as usize;
        RunConfig {
            workload,
            seed,
            ops: if trace { ops / 2 } else { ops },
            population: workload.population(),
            trace,
            warmup: workload.ops_per_second(),
        }
    }
}

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// The metric's name in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one invocation measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations attempted plus correctness checks made.
    pub attempted: u64,
    /// Failed operations and failed checks, described.
    pub failures: Vec<String>,
    /// Digest of every decision from set-up to the end of the untraced
    /// pass.
    pub digest: u64,
    /// The end-to-end metrics (untraced pass).
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Human-readable report lines.
    pub report: Vec<String>,
}

impl Outcome {
    /// The value of the metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Records one correctness check.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Folds a measured pass's operations and failures in.
    fn count_pass(&mut self, pass: &Pass) {
        self.attempted += pass.ops() as u64;
        self.failures.extend(pass.failures.iter().cloned());
    }

    fn line(&mut self, line: String) {
        self.report.push(line);
    }
}

/// Windows of the measured pass. Set-up and warm-restart repetitions
/// run between them, so every end-to-end figure samples the same
/// stretch of host time: a shared host's speed drifts by tens of
/// percent over seconds, and a figure measured in one burst would
/// catch only one moment of that drift.
const ROUNDS: usize = 10;

/// Time spent on warm-restart repetitions before each window.
const RESTORE_BUDGET: std::time::Duration = std::time::Duration::from_millis(100);

/// Runs the measured pass as `ROUNDS` windows of churn, calling
/// `between(out)` before each window (outside its timing).
fn measured<C: Caller>(
    cfg: &RunConfig,
    churn: &mut Churn,
    caller: &mut C,
    out: &mut Outcome,
    mut between: impl FnMut(&mut Outcome) -> Result<(), String>,
) -> Result<Pass, String> {
    let mut pass = Pass::default();
    for _ in 0..ROUNDS {
        between(out)?;
        pass.append(churn.pass(caller, cfg.ops / ROUNDS));
    }
    out.count_pass(&pass);
    Ok(pass)
}

/// Runs one configuration.
pub fn run(cfg: &RunConfig) -> Outcome {
    let mut out = Outcome::default();
    out.line(format!(
        "workload {} seed {} ops/pass {} population {} hardware_threads {}",
        cfg.workload.name(),
        cfg.seed,
        cfg.ops,
        cfg.population,
        std::thread::available_parallelism().map_or(0, usize::from)
    ));
    let result = match cfg.workload {
        Workload::WireP1 => wire::run(cfg, &mut out),
        Workload::OccupiedChurn | Workload::DeepRelease => inproc::run(cfg, &mut out),
    };
    if let Err(e) = result {
        out.attempted += 1;
        out.failures.push(e);
    }
    out
}

/// End-of-run audits: no guarantee violations, no orphaned
/// reservations.
fn audit(engine: &rtcac_engine::AdmissionEngine, out: &mut Outcome) -> Result<(), String> {
    let violations = engine
        .verify_guarantees()
        .map_err(|e| format!("verify_guarantees: {e}"))?;
    out.check(violations.is_empty(), || {
        format!("{} guarantee violations", violations.len())
    });
    let orphans = engine.orphaned_reservations();
    out.check(orphans.is_empty(), || {
        format!("{} orphaned reservations", orphans.len())
    });
    Ok(())
}

/// The end-to-end metrics of an untraced pass plus the set-up and
/// warm-restart steps.
fn end_to_end(
    out: &mut Outcome,
    pass: &Pass,
    setup_s: &[f64],
    restore: &RestoreStep,
    resident_bytes: usize,
    live: usize,
) {
    let m = |name, value, unit| Metric { name, value, unit };
    // Timings are medians over the pass's windows (see `Pass`).
    out.end_to_end = vec![
        m("setup_p50_us", pass.setup_quantile(0.5) / 1e3, "us"),
        m("setup_p90_us", pass.setup_quantile(0.9) / 1e3, "us"),
        m("release_p50_us", pass.release_quantile(0.5) / 1e3, "us"),
        m("release_p90_us", pass.release_quantile(0.9) / 1e3, "us"),
        m("ops_per_s", pass.median_ops_per_s(), "1/s"),
        m("admit_ratio", pass.admit_ratio(), "ratio"),
        m("setup_s", median(setup_s), "s"),
        m("restore_s", restore.downtime_s(), "s"),
        m(
            "resident_bytes_per_conn",
            resident_bytes as f64 / live.max(1) as f64,
            "B",
        ),
    ];
    out.line(format!(
        "samples: {} setups, {} releases in {} windows; whole pass: setup p50/p90/p99 \
         {:.1}/{:.1}/{:.1} us, release p50/p90/p99 {:.1}/{:.1}/{:.1} us, {:.0} ops/s \
         (p99 is information only)",
        pass.setup_ns.len(),
        pass.release_ns.len(),
        pass.windows.len(),
        us(quantile(&pass.setup_ns, 0.5)),
        us(quantile(&pass.setup_ns, 0.9)),
        us(quantile(&pass.setup_ns, 0.99)),
        us(quantile(&pass.release_ns, 0.5)),
        us(quantile(&pass.release_ns, 0.9)),
        us(quantile(&pass.release_ns, 0.99)),
        pass.ops_per_s(),
    ));
    let windows: Vec<String> = pass
        .windows
        .iter()
        .map(|w| format!("{:.0}", w.ops_per_s))
        .collect();
    out.line(format!("window ops/s: {}", windows.join(" ")));
    out.line(format!(
        "population band {}..={} throughout; set-up reps {}; restore reps {}, {} bytes",
        pass.band.0,
        pass.band.1,
        setup_s.len(),
        restore.encode_s.len(),
        restore.bytes
    ));
    for metric in &out.end_to_end.clone() {
        out.line(format!(
            "{} = {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
}

/// What the per-layer metrics are computed from.
struct LayerInputs<'a> {
    untraced: &'a Pass,
    traced: &'a Pass,
    /// Round trips (wire) or in-process calls of a QUERY for an
    /// unknown id, in nanoseconds.
    query_ns: &'a [u64],
    /// The traced pass's request and reply frames (over the wire), or
    /// the frames its calls would have exchanged (in process).
    requests: &'a [Request],
    responses: &'a [Response],
    /// The engine's registry over the traced pass.
    registry: EngineLayer,
    restore: &'a RestoreStep,
    /// Whether the serve layers carry the traffic (wire workload).
    over_wire: bool,
}

/// Replays the next setups of `churn`'s sequence on replicas of
/// `engine`'s steady state, and records every per-layer metric.
fn per_layer(
    out: &mut Outcome,
    engine: &AdmissionEngine,
    churn: &mut Churn,
    x: LayerInputs<'_>,
) -> Result<(), String> {
    let codec_ns_per_frame = codec_ns_per_frame(x.requests, x.responses)?;
    let upcoming: Vec<SetupOp> = (0..REPLAY_SETUPS).map(|_| churn.mix.next_setup()).collect();
    let steady = engine.export_state();
    let cac = cac_replay(&steady, engine.topology(), &upcoming, &mut churn.mix)?;
    let streams = bitstream_replay(&steady, &cac.requests)?;
    let reg = &x.registry;
    let p50 = |v: &[u64]| us(quantile(v, 0.5));
    let hist_us = |h: &rtcac_obs::HistogramSnapshot, q: f64| h.quantile(q) as f64 / 1e3;
    let setup_p50 = p50(&x.traced.setup_ns);
    let query_p50 = p50(x.query_ns);
    let lock_hold_p50 = hist_us(&reg.lock_hold, 0.5);
    // The setup's time inside the engine's locked phases. The lock-hold
    // histogram also holds every release, so its median is not a
    // setup figure.
    let engine_setup_p50 = hist_us(&reg.reserve, 0.5) + hist_us(&reg.commit, 0.5);
    let mean_hops = cac.hops.iter().sum::<usize>() as f64 / cac.hops.len().max(1) as f64;
    let stage_sum = p50(&cac.price_ns) + mean_hops * p50(&cac.admit_ns) + hist_us(&reg.commit, 0.5);
    let e2e_setup_p50 = x.untraced.setup_quantile(0.5) / 1e3;
    let lookups = reg.cache_hits + reg.cache_misses;
    let m = |name, value, unit| Metric { name, value, unit };
    let sum = |ns: &[u64]| ns.iter().sum::<u64>() as f64;
    out.per_layer = vec![
        m("serve.query_rtt_p50_us", query_p50, "us"),
        m("serve.codec_ns_per_frame", codec_ns_per_frame, "ns"),
        m(
            "serve.unattributed_p50_us",
            setup_p50 - query_p50 - engine_setup_p50,
            "us",
        ),
        m("engine.reserve_p50_us", hist_us(&reg.reserve, 0.5), "us"),
        m("engine.commit_p50_us", hist_us(&reg.commit, 0.5), "us"),
        m("engine.lock_hold_p50_us", lock_hold_p50, "us"),
        m(
            "engine.lock_hold_p90_us",
            hist_us(&reg.lock_hold, 0.9),
            "us",
        ),
        m(
            "engine.lock_wait_p50_us",
            hist_us(&reg.lock_wait, 0.5),
            "us",
        ),
        m(
            "engine.rollbacks_per_setup",
            reg.rollback.count as f64 / reg.submitted.max(1) as f64,
            "ratio",
        ),
        m(
            "engine.sof_cache_hit_ratio",
            reg.cache_hits as f64 / lookups.max(1) as f64,
            "ratio",
        ),
        m(
            "engine.unattributed_pct",
            100.0 * (e2e_setup_p50 - stage_sum) / e2e_setup_p50,
            "%",
        ),
        m("cac.price_us", p50(&cac.price_ns), "us"),
        m("cac.check_us", p50(&cac.check_ns), "us"),
        m("cac.admit_us", p50(&cac.admit_ns), "us"),
        m("cac.release_us", p50(&cac.release_ns), "us"),
        m("cac.legs_per_switch", cac.legs_per_switch, "count"),
        m("cac.interned_classes", cac.interned_classes, "count"),
        m("bitstream.filter_us", p50(&streams.filter_ns), "us"),
        m(
            "bitstream.delay_bound_us",
            p50(&streams.delay_bound_ns),
            "us",
        ),
        m("bitstream.delay_us", p50(&streams.delay_ns), "us"),
        m("bitstream.multiplex_us", p50(&streams.multiplex_ns), "us"),
        m(
            "bitstream.demultiplex_us",
            p50(&streams.demultiplex_ns),
            "us",
        ),
        m("bitstream.aggregate_segments", streams.segments, "count"),
        m("snap.encode_ms", 1e3 * median(&x.restore.encode_s), "ms"),
        m("snap.decode_ms", 1e3 * median(&x.restore.decode_s), "ms"),
        m("snap.restore_ms", 1e3 * median(&x.restore.restore_s), "ms"),
        m(
            "snap.bytes_per_conn",
            x.restore.bytes as f64 / x.restore.connections.max(1) as f64,
            "B",
        ),
        m(
            "obs.trace_overhead_pct",
            100.0 * (x.untraced.ops_per_s() - x.traced.ops_per_s()) / x.untraced.ops_per_s(),
            "%",
        ),
    ];
    // Shares of the traced pass's caller time: where it went, by layer.
    let total = sum(&x.traced.setup_ns) + sum(&x.traced.release_ns);
    let serve_share = if x.over_wire {
        (total - reg.lock_hold.sum as f64) / total
    } else {
        0.0
    };
    out.line(format!(
        "layer shares of caller time: serve {:.3} (outside engine lock holds), \
         cac reserve+rollback {:.3}, release {:.3}",
        serve_share,
        (reg.reserve.sum + reg.rollback.sum) as f64 / total,
        sum(&x.traced.release_ns) / total,
    ));
    out.line(format!(
        "stage reconciliation: cac.price_us {:.2} + {:.2} hops x cac.admit_us {:.2} + \
         engine.commit_p50_us {:.2} = {:.2} us against setup_p50_us {:.2} (gap {:.1}%)",
        p50(&cac.price_ns),
        mean_hops,
        p50(&cac.admit_ns),
        hist_us(&reg.commit, 0.5),
        stage_sum,
        e2e_setup_p50,
        100.0 * (e2e_setup_p50 - stage_sum) / e2e_setup_p50
    ));
    out.line(format!(
        "traced pass: {} ops at {:.0} ops/s (untraced {:.0}); replay {} setups, {} hops",
        x.traced.ops(),
        x.traced.ops_per_s(),
        x.untraced.ops_per_s(),
        cac.hops.len(),
        cac.check_ns.len()
    ));
    for metric in &out.per_layer.clone() {
        out.line(format!(
            "{} = {} {}",
            metric.name, metric.value, metric.unit
        ));
    }
    Ok(())
}

/// Renders the result line: `correct`, `attempted`, `failed` and the
/// requested metric set.
pub fn result_json(out: &Outcome, traced: bool) -> String {
    let metrics = if traced {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failures.is_empty(),
        out.attempted.max(1),
        out.failures.len(),
        body.join(", ")
    )
}
