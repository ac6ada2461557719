//! The in-process workloads: one caller driving an
//! [`AdmissionEngine`] directly.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use rtcac_cac::ConnectionId;
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_obs::Registry;
use rtcac_serve::proto::rejection_class;
use rtcac_serve::{Request, Response};
use rtcac_signaling::CdvPolicy;

use crate::churn::{Caller, Churn, Verdict};
use crate::measure::{restore_step, EngineLayer, RestoreStep};
use crate::mix::SetupOp;
use crate::{
    audit, end_to_end, measured, per_layer, LayerInputs, Outcome, RunConfig, RESTORE_BUDGET,
};

/// Drives the engine; optionally keeps the wire frames the same calls
/// would have exchanged, for the codec measurement.
struct EngineCaller<'a> {
    engine: &'a AdmissionEngine,
    frames: Option<(Vec<Request>, Vec<Response>)>,
}

impl EngineCaller<'_> {
    fn keep(&mut self, request: impl FnOnce() -> Request, response: impl FnOnce() -> Response) {
        if let Some((requests, responses)) = &mut self.frames {
            requests.push(request());
            responses.push(response());
        }
    }
}

impl Caller for EngineCaller<'_> {
    fn setup(&mut self, op: &SetupOp) -> Result<Verdict, String> {
        let outcome = self
            .engine
            .admit(&op.route, op.request)
            .map_err(|e| e.to_string())?;
        let (verdict, response) = match outcome {
            EngineOutcome::Admitted {
                id,
                guaranteed_delay,
            } => (
                Verdict::Admitted {
                    id: id.raw(),
                    delay: guaranteed_delay,
                },
                Response::Admitted {
                    id: id.raw(),
                    guaranteed_delay,
                    attempts: 0,
                },
            ),
            EngineOutcome::Rejected { id, rejection } => (
                Verdict::Rejected,
                Response::Rejected {
                    id: id.raw(),
                    code: rejection_class(&rejection),
                    detail: rejection.to_string(),
                },
            ),
            other => return Err(format!("unexpected outcome {other:?}")),
        };
        self.keep(
            || Request::Setup {
                links: op.links.clone(),
                request: op.request,
            },
            || response,
        );
        Ok(verdict)
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        self.engine
            .release(ConnectionId::new(id))
            .map_err(|e| e.to_string())?;
        self.keep(|| Request::Release { id }, || Response::Released { id });
        Ok(())
    }
}

/// Set-up: from an empty engine to the steady population. Returns its
/// time, the engine and the caller state.
fn build(cfg: &RunConfig) -> Result<(f64, AdmissionEngine, Churn), String> {
    let mut churn = Churn::new(cfg.workload, cfg.seed, cfg.population);
    let t = Instant::now();
    let engine = AdmissionEngine::new(
        churn.mix.topology().clone(),
        cfg.workload.switch_config(),
        CdvPolicy::Hard,
    );
    churn.prefill(&mut EngineCaller {
        engine: &engine,
        frames: None,
    })?;
    Ok((t.elapsed().as_secs_f64(), engine, churn))
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let (first_s, built, mut churn) = build(cfg)?;
    let mut setup_s = vec![first_s];
    let prefill_digest = churn.digest();
    // Both passes run on engines rebuilt from the same exported state,
    // so the untraced and traced passes start from identical engines.
    let state = built.export_state();
    drop(built);
    let topology = churn.mix.topology().clone();
    let engine = AdmissionEngine::from_state(topology.clone(), &state)
        .map_err(|e| format!("engine from state: {e}"))?;
    let start_state = cfg.trace.then(|| (state, churn.clone()));

    let mut caller = EngineCaller {
        engine: &engine,
        frames: None,
    };
    let warm = churn.pass(&mut caller, cfg.warmup);
    out.count_pass(&warm);
    let mut restore = RestoreStep::default();
    let pass = measured(cfg, &mut churn, &mut caller, out, |out| {
        // Every set-up repetition must make the same decisions.
        let (elapsed, _, again) = build(cfg)?;
        out.check(again.digest() == prefill_digest, || {
            "set-up repetitions made different decisions".into()
        });
        setup_s.push(elapsed);
        restore.append(restore_step(&engine, 1, RESTORE_BUDGET)?);
        Ok(())
    })?;
    out.digest = churn.digest();
    audit(&engine, out)?;
    out.check(restore.identical, || {
        "snapshot→restore→snapshot is not byte-identical".into()
    });
    end_to_end(
        out,
        &pass,
        &setup_s,
        &restore,
        engine.resident_bytes(),
        engine.connection_count(),
    );
    out.line(format!("decision digest {:016x}", out.digest));
    drop(engine);

    let Some((state, mut traced_churn)) = start_state else {
        return Ok(());
    };
    // Traced pass: the same operations from the same state, on an
    // engine recording into a registry.
    let registry = Arc::new(Registry::new());
    let engine = AdmissionEngine::from_state_with_registry(topology, &state, Arc::clone(&registry))
        .map_err(|e| format!("traced engine from state: {e}"))?;
    drop(state);
    let mut caller = EngineCaller {
        engine: &engine,
        frames: None,
    };
    let traced_warm = traced_churn.pass(&mut caller, cfg.warmup);
    out.count_pass(&traced_warm);
    caller.frames = Some((Vec::new(), Vec::new()));
    let before = registry.snapshot();
    let traced = measured(cfg, &mut traced_churn, &mut caller, out, |_| Ok(()))?;
    let after = registry.snapshot();
    out.check(traced_churn.digest() == out.digest, || {
        "traced pass made different decisions from the untraced pass".into()
    });
    let (requests, responses) = caller.frames.take().expect("frames kept");
    // The in-process QUERY is the session's lookup without the wire.
    let unknown = ConnectionId::new(u64::MAX);
    let query_ns: Vec<u64> = (0..64)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..100 {
                black_box(engine.guaranteed_delay(black_box(unknown)));
            }
            (t.elapsed().as_nanos() / 100) as u64
        })
        .collect();
    audit(&engine, out)?;
    per_layer(
        out,
        &engine,
        &mut traced_churn,
        LayerInputs {
            untraced: &pass,
            traced: &traced,
            query_ns: &query_ns,
            requests: &requests,
            responses: &responses,
            registry: EngineLayer::between(&before, &after),
            restore: &restore,
            over_wire: false,
        },
    )
}
