//! Measurements shared by both callers: the warm-restart step, the
//! engine's own registry histograms, and the wire codec.

use std::hint::black_box;
use std::time::{Duration, Instant};

use rtcac_engine::AdmissionEngine;
use rtcac_obs::{HistogramSnapshot, Snapshot};
use rtcac_serve::{Request, Response};

use crate::stats::median;

/// Repeats `f` at least `min` times and until `budget` is spent (at
/// most `max` times), returning each repetition's result.
pub fn repeat<T>(min: usize, max: usize, budget: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || (out.len() < max && start.elapsed() < budget) {
        out.push(f());
    }
    out
}

/// The warm-restart step of a steady-state engine, repeated.
#[derive(Debug, Clone, Default)]
pub struct RestoreStep {
    /// Encode time per repetition, in seconds.
    pub encode_s: Vec<f64>,
    /// Decode time per repetition, in seconds.
    pub decode_s: Vec<f64>,
    /// `restore_engine` time per repetition, in seconds.
    pub restore_s: Vec<f64>,
    /// Snapshot size in bytes.
    pub bytes: usize,
    /// Live connections in the snapshot.
    pub connections: usize,
    /// Whether every snapshot→restore→snapshot was byte-identical.
    pub identical: bool,
}

impl RestoreStep {
    /// Folds in later repetitions.
    pub fn append(&mut self, later: RestoreStep) {
        let identical = self.encode_s.is_empty() || self.identical;
        self.encode_s.extend(later.encode_s);
        self.decode_s.extend(later.decode_s);
        self.restore_s.extend(later.restore_s);
        self.bytes = later.bytes;
        self.connections = later.connections;
        self.identical = identical && later.identical;
    }

    /// Median downtime of a warm restart: encode, decode and restore.
    pub fn downtime_s(&self) -> f64 {
        let totals: Vec<f64> = (0..self.encode_s.len())
            .map(|i| self.encode_s[i] + self.decode_s[i] + self.restore_s[i])
            .collect();
        median(&totals)
    }
}

/// Snapshots `engine`, then times `snap` encode, decode and
/// `restore_engine` at least `min_reps` times, checking each time that
/// snapshot→restore→snapshot is byte-identical.
///
/// # Errors
///
/// A decode or restore failure.
pub fn restore_step(
    engine: &AdmissionEngine,
    min_reps: usize,
    budget: Duration,
) -> Result<RestoreStep, String> {
    let doc = rtcac_snap::snapshot_engine(engine, "admission-bench");
    let mut step = RestoreStep {
        connections: engine.connection_count(),
        identical: true,
        ..RestoreStep::default()
    };
    let mut previous = None;
    let results = repeat(min_reps, 10_000, budget, || -> Result<(), String> {
        let t = Instant::now();
        let bytes = rtcac_snap::encode(&doc);
        step.encode_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let decoded = rtcac_snap::decode(&bytes).map_err(|e| format!("snapshot decode: {e}"))?;
        step.decode_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let restored =
            rtcac_snap::restore_engine(&decoded).map_err(|e| format!("snapshot restore: {e}"))?;
        step.restore_s.push(t.elapsed().as_secs_f64());
        let again = rtcac_snap::encode(&rtcac_snap::snapshot_engine(&restored, "admission-bench"));
        step.identical &= again == bytes;
        step.bytes = bytes.len();
        // Freed only after the next restore has allocated, so no
        // repetition starts on memory the allocator just gave back to
        // the kernel (which made the figure bimodal between runs).
        previous = Some(restored);
        Ok(())
    });
    drop(previous);
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(step)
}

/// The engine's registry histograms and counters over one pass.
#[derive(Debug, Clone)]
pub struct EngineLayer {
    /// Reserve phase (locks taken, per-hop check and admit).
    pub reserve: HistogramSnapshot,
    /// Commit phase (registry insert).
    pub commit: HistogramSnapshot,
    /// Rollback of reserved hops after a refusal.
    pub rollback: HistogramSnapshot,
    /// Full shard-lock hold of each setup and release.
    pub lock_hold: HistogramSnapshot,
    /// Shard-lock waits, every shard merged.
    pub lock_wait: HistogramSnapshot,
    /// Setups submitted.
    pub submitted: u64,
    /// Sof cache hits.
    pub cache_hits: u64,
    /// Sof cache misses.
    pub cache_misses: u64,
}

impl EngineLayer {
    /// What the registry recorded between `before` and `after`.
    pub fn between(before: &Snapshot, after: &Snapshot) -> EngineLayer {
        let hist = |name: &str| {
            let empty = HistogramSnapshot::default();
            let then = before.histogram(name).unwrap_or(&empty);
            after.histogram(name).unwrap_or(&empty).delta(then)
        };
        let merged = |snap: &Snapshot| {
            let mut all = HistogramSnapshot::default();
            for (_, h) in snap.histograms_named("engine_shard_lock_wait_ns") {
                all.merge(h);
            }
            all
        };
        let counter =
            |name: &str| after.counter(name).unwrap_or(0) - before.counter(name).unwrap_or(0);
        EngineLayer {
            reserve: hist("engine_reserve_ns"),
            commit: hist("engine_commit_ns"),
            rollback: hist("engine_rollback_ns"),
            lock_hold: hist("engine_lock_hold_ns"),
            lock_wait: merged(after).delta(&merged(before)),
            submitted: counter("engine_setups_submitted_total"),
            cache_hits: counter("engine_sof_cache_hits_total"),
            cache_misses: counter("engine_sof_cache_misses_total"),
        }
    }
}

/// Mean `encode` + `decode` time per frame over a run's request and
/// reply frames, in nanoseconds.
///
/// # Errors
///
/// A frame that does not decode back to itself.
pub fn codec_ns_per_frame(requests: &[Request], responses: &[Response]) -> Result<f64, String> {
    for r in requests {
        if !matches!(Request::decode(&r.encode()), Ok(ref d) if d == r) {
            return Err(format!("request frame does not round-trip: {r:?}"));
        }
    }
    for r in responses {
        if !matches!(Response::decode(&r.encode()), Ok(ref d) if d == r) {
            return Err(format!("reply frame does not round-trip: {r:?}"));
        }
    }
    let frames = (requests.len() + responses.len()).max(1);
    let rounds = repeat(3, 1000, Duration::from_millis(200), || {
        let t = Instant::now();
        for r in requests {
            black_box(Request::decode(&black_box(r.encode())).ok());
        }
        for r in responses {
            black_box(Response::decode(&black_box(r.encode())).ok());
        }
        t.elapsed().as_nanos() as f64 / frames as f64
    });
    Ok(median(&rounds))
}
