//! The single closed-loop caller: prefill to a target population, then
//! hold it with release-one/admit-one churn while timing every call.

use std::ops::Range;
use std::time::{Duration, Instant};

use rtcac_bitstream::Time;

use crate::mix::{Mix, SetupOp, Workload};
use crate::stats::{median, quantile, Digest};

/// Seed of the sequence every run's steady population is built from.
const PREFILL_SEED: u64 = 0x5eed;

/// What a setup call returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Committed under this id with this guaranteed delay.
    Admitted {
        /// The connection id.
        id: u64,
        /// The guaranteed end-to-end queueing delay.
        delay: Time,
    },
    /// Refused by admission control.
    Rejected,
}

/// The interface the caller drives: the engine in process, or a client
/// connection over the wire. An `Err` is a failed operation (an engine
/// error or a reply of the wrong shape), never a refusal.
pub trait Caller {
    /// Requests one setup.
    fn setup(&mut self, op: &SetupOp) -> Result<Verdict, String>;
    /// Releases one established connection.
    fn release(&mut self, id: u64) -> Result<(), String>;
    /// Runs after each timed setup, outside its timing.
    fn after_setup(&mut self) {}
}

/// Timed churn: per-call latencies and counts, in windows (one per
/// [`Churn::pass`] call, concatenated with [`Pass::append`]).
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Latency of every setup call, in nanoseconds.
    pub setup_ns: Vec<u64>,
    /// Latency of every release call, in nanoseconds.
    pub release_ns: Vec<u64>,
    /// Setups admitted.
    pub admitted: u64,
    /// Wall time of the pass, in seconds.
    pub elapsed_s: f64,
    /// Consecutive windows, in order.
    pub windows: Vec<Window>,
    /// Smallest and largest live population seen during the pass.
    pub band: (usize, usize),
    /// Failed operations and steady-band breaches, described.
    pub failures: Vec<String>,
}

/// One window of a pass: its throughput and its calls.
#[derive(Debug, Clone)]
pub struct Window {
    /// Completed operations per second.
    pub ops_per_s: f64,
    /// Its setups, as a range of [`Pass::setup_ns`].
    pub setups: Range<usize>,
    /// Its releases, as a range of [`Pass::release_ns`].
    pub releases: Range<usize>,
}

impl Pass {
    /// Appends a later pass as further windows.
    pub fn append(&mut self, later: Pass) {
        let (s, r) = (self.setup_ns.len(), self.release_ns.len());
        self.band = if self.windows.is_empty() {
            later.band
        } else {
            (self.band.0.min(later.band.0), self.band.1.max(later.band.1))
        };
        self.windows
            .extend(later.windows.into_iter().map(|w| Window {
                ops_per_s: w.ops_per_s,
                setups: w.setups.start + s..w.setups.end + s,
                releases: w.releases.start + r..w.releases.end + r,
            }));
        self.setup_ns.extend(later.setup_ns);
        self.release_ns.extend(later.release_ns);
        self.admitted += later.admitted;
        self.elapsed_s += later.elapsed_s;
        self.failures.extend(later.failures);
    }

    /// The median over windows of each window's setup `q`-quantile, in
    /// nanoseconds. A host stall spoils a window or two, not the
    /// median.
    pub fn setup_quantile(&self, q: f64) -> f64 {
        self.window_median(|w| quantile(&self.setup_ns[w.setups.clone()], q) as f64)
    }

    /// As [`Pass::setup_quantile`], for releases.
    pub fn release_quantile(&self, q: f64) -> f64 {
        self.window_median(|w| quantile(&self.release_ns[w.releases.clone()], q) as f64)
    }

    /// The median window throughput.
    pub fn median_ops_per_s(&self) -> f64 {
        self.window_median(|w| w.ops_per_s)
    }

    fn window_median(&self, f: impl Fn(&Window) -> f64) -> f64 {
        median(&self.windows.iter().map(f).collect::<Vec<f64>>())
    }

    /// Setups plus releases completed.
    pub fn ops(&self) -> usize {
        self.setup_ns.len() + self.release_ns.len()
    }

    /// Completed operations per second over the whole pass.
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.elapsed_s
    }

    /// Admitted over attempted setups.
    pub fn admit_ratio(&self) -> f64 {
        self.admitted as f64 / self.setup_ns.len().max(1) as f64
    }
}

/// The caller's state: the operation source, the live connections, the
/// population it holds and the digest of every decision so far.
#[derive(Debug, Clone)]
pub struct Churn {
    /// The operation source: the fixed prefill sequence until
    /// [`Churn::prefill`] returns, the seeded churn sequence after.
    pub mix: Mix,
    /// Live connection ids, in admission order (releases swap-remove).
    pub live: Vec<u64>,
    /// The held population.
    pub target: usize,
    /// The source the churn switches to once the population is built.
    churn_mix: Mix,
    digest: Digest,
}

impl Churn {
    /// A caller that will hold `target` connections of `workload`. The
    /// population is built from one fixed sequence, so set-up does the
    /// same work under every seed; `seed` drives the churn after it.
    pub fn new(workload: Workload, seed: u64, target: usize) -> Churn {
        Churn {
            mix: Mix::new(workload, PREFILL_SEED),
            live: Vec::with_capacity(target),
            target,
            churn_mix: Mix::new(workload, seed),
            digest: Digest::default(),
        }
    }

    /// The digest of every decision so far: each setup's verdict and
    /// guarantee, and each release's choice, in order.
    pub fn digest(&self) -> u64 {
        self.digest.value()
    }

    /// Admits setups from the prefill sequence until `target` are live.
    ///
    /// # Errors
    ///
    /// A failed setup call, or a target the workload cannot reach
    /// within twenty attempts per connection.
    pub fn prefill<C: Caller>(&mut self, caller: &mut C) -> Result<(), String> {
        let mut attempts = 0;
        while self.live.len() < self.target {
            attempts += 1;
            if attempts > 20 * self.target {
                return Err(format!(
                    "prefill reached {} of {} live connections",
                    self.live.len(),
                    self.target
                ));
            }
            let op = self.mix.next_setup();
            match caller.setup(&op)? {
                Verdict::Admitted { id, delay } => {
                    self.digest.admitted(delay);
                    self.live.push(id);
                }
                Verdict::Rejected => self.digest.rejected(),
            }
        }
        self.mix = self.churn_mix.clone();
        Ok(())
    }

    /// Runs `ops` operations of steady churn as one window: a release of
    /// a random live connection whenever the population is at target,
    /// then a setup. The population therefore stays within `target - 1
    /// ..= target` (a refused setup leaves it one short, and the next
    /// step only admits); leaving that band is a failure.
    pub fn pass<C: Caller>(&mut self, caller: &mut C, ops: usize) -> Pass {
        let mut pass = Pass {
            band: (self.live.len(), self.live.len()),
            ..Pass::default()
        };
        let start = Instant::now();
        let mut done = 0;
        // Time spent in `after_setup`, excluded from the pass.
        let mut aside = Duration::ZERO;
        while done < ops {
            if self.live.len() >= self.target {
                let index = self.mix.pick(self.live.len());
                let id = self.live.swap_remove(index);
                self.digest.released(index);
                let t = Instant::now();
                let result = caller.release(id);
                pass.release_ns.push(t.elapsed().as_nanos() as u64);
                if let Err(e) = result {
                    pass.failures.push(format!("release {id}: {e}"));
                }
                done += 1;
            }
            if done < ops {
                let op = self.mix.next_setup();
                let t = Instant::now();
                let result = caller.setup(&op);
                pass.setup_ns.push(t.elapsed().as_nanos() as u64);
                match result {
                    Ok(Verdict::Admitted { id, delay }) => {
                        self.digest.admitted(delay);
                        pass.admitted += 1;
                        self.live.push(id);
                    }
                    Ok(Verdict::Rejected) => self.digest.rejected(),
                    Err(e) => pass.failures.push(format!("setup: {e}")),
                }
                let t = Instant::now();
                caller.after_setup();
                aside += t.elapsed();
                done += 1;
            }
            let n = self.live.len();
            pass.band = (pass.band.0.min(n), pass.band.1.max(n));
            if n + 1 < self.target || n > self.target {
                pass.failures.push(format!(
                    "population {n} left the band around {}",
                    self.target
                ));
            }
        }
        pass.elapsed_s = (start.elapsed() - aside).as_secs_f64();
        pass.windows.push(Window {
            ops_per_s: ops as f64 / pass.elapsed_s,
            setups: 0..pass.setup_ns.len(),
            releases: 0..pass.release_ns.len(),
        });
        pass
    }
}
