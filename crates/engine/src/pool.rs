//! A fixed worker pool pulling setups from a submission queue.

use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;

use rtcac_cac::ConnectionId;
use rtcac_net::Route;
use rtcac_obs::{SpanId, TraceCtx};
use rtcac_signaling::SetupRequest;

use crate::{AdmissionEngine, EngineError, EngineOutcome};

struct Job {
    ticket: u64,
    id: ConnectionId,
    route: Route,
    request: SetupRequest,
    // The admission trace opens at submission so the span tree also
    // covers the queue wait; the worker closes `queue_span` when it
    // picks the job up.
    ctx: TraceCtx,
    queue_span: SpanId,
}

/// The completed result of one submitted setup.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// Submission ticket, in submission order starting at 0.
    pub ticket: u64,
    /// The setup's outcome (or an API-misuse error).
    pub outcome: Result<EngineOutcome, EngineError>,
}

/// A fixed pool of `std::thread` workers serving one
/// [`AdmissionEngine`]: jobs go into an `mpsc` submission queue, idle
/// workers pull from it, and results come back over a result channel.
///
/// ```
/// use std::sync::Arc;
/// use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
/// use rtcac_cac::{Priority, SwitchConfig};
/// use rtcac_engine::{AdmissionEngine, EnginePool};
/// use rtcac_net::builders;
/// use rtcac_rational::ratio;
/// use rtcac_signaling::{CdvPolicy, SetupRequest};
///
/// let sr = builders::star_ring(4, 1)?;
/// let config = SwitchConfig::uniform(1, Time::from_integer(48))?;
/// let engine = Arc::new(AdmissionEngine::new(
///     sr.topology().clone(),
///     config,
///     CdvPolicy::Hard,
/// ));
///
/// let mut pool = EnginePool::new(Arc::clone(&engine), 2);
/// let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 16)))?);
/// for k in 0..3 {
///     let route = sr.ring_route_from_terminal(k, 0, 1)?;
///     pool.submit(route, SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(500)));
/// }
/// let results = pool.finish()?;
/// assert_eq!(results.len(), 3);
/// assert!(results.iter().all(|r| r.outcome.as_ref().unwrap().is_admitted()));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct EnginePool {
    engine: Arc<AdmissionEngine>,
    job_tx: Option<mpsc::Sender<Job>>,
    // Kept so submissions cannot fail even if every worker has died;
    // the shortfall is then reported by `finish` instead of a panic at
    // the submission site.
    _job_rx: Arc<Mutex<mpsc::Receiver<Job>>>,
    result_rx: mpsc::Receiver<JobResult>,
    handles: Vec<thread::JoinHandle<()>>,
    submitted: u64,
}

impl EnginePool {
    /// Spawns `workers` threads (at least one) serving `engine`.
    pub fn new(engine: Arc<AdmissionEngine>, workers: usize) -> EnginePool {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let (result_tx, result_rx) = mpsc::channel::<JobResult>();
        let handles = (0..workers.max(1))
            .map(|_| {
                let engine = Arc::clone(&engine);
                let job_rx = Arc::clone(&job_rx);
                let result_tx = result_tx.clone();
                thread::spawn(move || loop {
                    // Hold the receiver lock only for the pull, not for
                    // the admission work.
                    let job = {
                        let rx = job_rx.lock().expect("job queue poisoned");
                        rx.recv()
                    };
                    let Ok(mut job) = job else {
                        break; // queue closed: pool is finishing
                    };
                    job.ctx.end(job.queue_span);
                    let outcome =
                        engine.admit_with_ctx(job.id, &job.route, job.request, &mut job.ctx);
                    job.ctx.finish(AdmissionEngine::outcome_rejects(&outcome));
                    if result_tx
                        .send(JobResult {
                            ticket: job.ticket,
                            outcome,
                        })
                        .is_err()
                    {
                        break; // pool dropped without finish()
                    }
                })
            })
            .collect();
        EnginePool {
            engine,
            job_tx: Some(job_tx),
            _job_rx: job_rx,
            result_rx,
            handles,
            submitted: 0,
        }
    }

    /// The engine this pool serves.
    pub fn engine(&self) -> &Arc<AdmissionEngine> {
        &self.engine
    }

    /// Enqueues a setup; an idle worker will pick it up. Returns the
    /// submission ticket identifying the matching [`JobResult`].
    pub fn submit(&mut self, route: Route, request: SetupRequest) -> u64 {
        let ticket = self.submitted;
        self.submitted += 1;
        let id = self.engine.allocate_id();
        let mut ctx = self.engine.start_trace("engine.admit", id);
        let queue_span = ctx.begin("pool.queue");
        self.job_tx
            .as_ref()
            .expect("pool not finished")
            .send(Job {
                ticket,
                id,
                route,
                request,
                ctx,
                queue_span,
            })
            .expect("a worker is alive");
        ticket
    }

    /// Waits for every submitted job, shuts the workers down, and
    /// returns all results sorted by ticket.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::WorkerPanicked`] if any worker thread
    /// panicked mid-batch — some submitted jobs then never produced a
    /// result, and reporting the shortfall loudly beats returning a
    /// silently short vector.
    pub fn finish(mut self) -> Result<Vec<JobResult>, EngineError> {
        // Close the submission queue first: once the remaining jobs are
        // drained every worker's recv fails and its loop ends, which
        // also guarantees the drain below cannot block forever if a
        // worker has died (the surviving workers eventually drop their
        // result senders).
        self.job_tx = None;
        let mut results: Vec<JobResult> = Vec::with_capacity(self.submitted as usize);
        for _ in 0..self.submitted {
            match self.result_rx.recv() {
                Ok(result) => results.push(result),
                Err(_) => break, // every worker has exited or died
            }
        }
        let mut panicked = 0usize;
        for handle in self.handles.drain(..) {
            if handle.join().is_err() {
                panicked += 1;
            }
        }
        let missing = self.submitted - results.len() as u64;
        if panicked > 0 || missing > 0 {
            return Err(EngineError::WorkerPanicked {
                workers: panicked,
                missing,
            });
        }
        results.sort_by_key(|r| r.ticket);
        Ok(results)
    }
}

/// Convenience: runs a whole batch through a fresh [`EnginePool`] and
/// returns the outcomes in submission order.
///
/// # Errors
///
/// Returns [`EngineError::WorkerPanicked`] if a worker died mid-batch
/// (see [`EnginePool::finish`]).
pub fn run_batch(
    engine: &Arc<AdmissionEngine>,
    jobs: impl IntoIterator<Item = (Route, SetupRequest)>,
    workers: usize,
) -> Result<Vec<Result<EngineOutcome, EngineError>>, EngineError> {
    let mut pool = EnginePool::new(Arc::clone(engine), workers);
    for (route, request) in jobs {
        pool.submit(route, request);
    }
    Ok(pool.finish()?.into_iter().map(|r| r.outcome).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
    use rtcac_cac::{Priority, SwitchConfig};
    use rtcac_net::builders;
    use rtcac_rational::ratio;
    use rtcac_signaling::CdvPolicy;

    fn cbr(num: i128, den: i128) -> TrafficContract {
        TrafficContract::cbr(CbrParams::new(Rate::new(ratio(num, den))).unwrap())
    }

    #[test]
    fn concurrent_batch_matches_serial_counts() {
        // Terminal-to-terminal routes within one ring node touch only
        // that node's shard, so 8 ring nodes give 8 disjoint shards
        // that 4 workers can hit truly in parallel.
        let sr = builders::star_ring(8, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let jobs: Vec<(Route, SetupRequest)> = (0..8)
            .map(|i| {
                (
                    sr.terminal_route((i, 0), (i, 1)).unwrap(),
                    SetupRequest::new(cbr(1, 4), Priority::HIGHEST, Time::from_integer(500)),
                )
            })
            .collect();
        let outcomes = run_batch(&engine, jobs, 4).unwrap();
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes {
            assert!(outcome.as_ref().unwrap().is_admitted());
        }
        assert_eq!(engine.connection_count(), 8);
        assert_eq!(engine.stats().admitted, 8);
    }

    #[test]
    fn contended_shard_admits_serializably() {
        // All jobs share one ring node: the shard lock serializes them
        // and capacity limits how many fit; admitted + rejected must
        // still account for every job.
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(1, Time::from_integer(8)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let jobs: Vec<(Route, SetupRequest)> = (0..6)
            .map(|_| {
                (
                    sr.terminal_route((0, 0), (0, 1)).unwrap(),
                    SetupRequest::new(cbr(1, 3), Priority::HIGHEST, Time::from_integer(500)),
                )
            })
            .collect();
        let outcomes = run_batch(&engine, jobs, 4).unwrap();
        let admitted = outcomes
            .iter()
            .filter(|o| o.as_ref().unwrap().is_admitted())
            .count();
        let stats = engine.stats();
        assert_eq!(stats.completed(), 6);
        assert_eq!(stats.admitted as usize, admitted);
        assert_eq!(engine.connection_count(), admitted);
        assert!(
            admitted < 6,
            "an 8-cell queue cannot hold six 1/3-rate streams"
        );
        assert!(admitted > 0, "at least one stream must fit");
    }

    #[test]
    fn worker_panic_surfaces_as_an_error_not_an_undercount() {
        let sr = builders::star_ring(4, 2).unwrap();
        let config = SwitchConfig::uniform(4, Time::from_integer(64)).unwrap();
        let engine = Arc::new(AdmissionEngine::new(
            sr.topology().clone(),
            config,
            CdvPolicy::Hard,
        ));
        let route = sr.terminal_route((0, 0), (0, 1)).unwrap();
        let node = route.queueing_points(engine.topology()).unwrap()[0].0;
        // A poisoned shard mutex panics any worker that locks it.
        engine.poison_shard(node);

        let mut pool = EnginePool::new(Arc::clone(&engine), 2);
        for _ in 0..3 {
            pool.submit(
                route.clone(),
                SetupRequest::new(cbr(1, 8), Priority::HIGHEST, Time::from_integer(500)),
            );
        }
        match pool.finish() {
            Err(EngineError::WorkerPanicked { workers, missing }) => {
                assert!(workers >= 1, "at least one worker must have died");
                assert!(missing >= 1, "the dead workers' jobs must be reported");
            }
            other => panic!("expected WorkerPanicked, got {other:?}"),
        }
    }
}
