//! `wire-p1`: one client connection and one caller thread against a
//! default-config [`Server`] on loopback, one request in flight.

use std::time::Instant;

use rtcac_serve::{Client, Request, Response, ServeConfig, Server};

use crate::churn::{Caller, Churn, Verdict};
use crate::measure::{restore_step, EngineLayer, RestoreStep};
use crate::mix::SetupOp;
use crate::{
    audit, end_to_end, measured, per_layer, LayerInputs, Outcome, RunConfig, RESTORE_BUDGET,
};

/// An id no session ever owns: a QUERY for it touches only the wire
/// and the session (no pool, no switch).
const UNKNOWN_ID: u64 = u64::MAX;

struct WireCaller {
    client: Client,
    /// Traced passes keep every frame and time a QUERY after each
    /// setup.
    traced: Option<Traced>,
}

#[derive(Default)]
struct Traced {
    requests: Vec<Request>,
    responses: Vec<Response>,
    query_ns: Vec<u64>,
    failures: Vec<String>,
}

impl WireCaller {
    fn call(&mut self, request: Request) -> Result<Response, String> {
        let reply = self
            .client
            .call(&request)
            .map_err(|e| format!("wire: {e}"))?;
        if let Some(traced) = &mut self.traced {
            traced.requests.push(request);
            traced.responses.push(reply.clone());
        }
        Ok(reply)
    }

    fn query(&mut self) {
        let t = Instant::now();
        let reply = self.call(Request::Query { id: UNKNOWN_ID });
        let elapsed = t.elapsed().as_nanos() as u64;
        let traced = self.traced.as_mut().expect("queries run in traced passes");
        traced.query_ns.push(elapsed);
        match reply {
            Ok(Response::QueryResult { found: false, .. }) => {}
            other => traced
                .failures
                .push(format!("query of an unknown id answered {other:?}")),
        }
    }
}

impl Caller for WireCaller {
    fn setup(&mut self, op: &SetupOp) -> Result<Verdict, String> {
        let reply = self.call(Request::Setup {
            links: op.links.clone(),
            request: op.request,
        })?;
        let verdict = match reply {
            Response::Admitted {
                id,
                guaranteed_delay,
                attempts: 0,
            } => Verdict::Admitted {
                id,
                delay: guaranteed_delay,
            },
            Response::Rejected { .. } => Verdict::Rejected,
            other => return Err(format!("setup answered {other:?}")),
        };
        Ok(verdict)
    }

    fn release(&mut self, id: u64) -> Result<(), String> {
        match self.call(Request::Release { id })? {
            Response::Released { id: released } if released == id => Ok(()),
            other => Err(format!("release of {id} answered {other:?}")),
        }
    }

    fn after_setup(&mut self) {
        if self.traced.is_some() {
            self.query();
        }
    }
}

/// The service exactly as `rtcac serve` starts it, on an ephemeral
/// loopback port.
fn config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".into(),
        ..ServeConfig::default()
    }
}

/// Set-up: starts a server, connects, and prefills the held population.
/// Returns its time, the server and the caller state.
///
/// The time is server start plus prefill. It leaves out the wait for
/// the accept loop to pick the connection up: the loop polls every
/// 25 ms, and whether its first poll comes before or after the connect
/// is a race that would make the figure bimodal.
fn bring_up(cfg: &RunConfig) -> Result<(f64, Server, WireCaller, Churn), String> {
    let t = Instant::now();
    let server = Server::start(&config()).map_err(|e| format!("server start: {e}"))?;
    let started = t.elapsed();
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    match client.hello().map_err(|e| format!("hello: {e}"))? {
        Response::ServerInfo { .. } => {}
        other => return Err(format!("hello answered {other:?}")),
    }
    let mut caller = WireCaller {
        client,
        traced: None,
    };
    let mut churn = Churn::new(cfg.workload, cfg.seed, cfg.population);
    let t = Instant::now();
    churn.prefill(&mut caller)?;
    let elapsed = started + t.elapsed();
    Ok((elapsed.as_secs_f64(), server, caller, churn))
}

/// Closes the client and drains the server, checking that the drain
/// audit is clean (session cleanup released every held connection).
fn shut_down(server: Server, caller: WireCaller, out: &mut Outcome) {
    drop(caller);
    server.request_drain();
    let summary = server.join();
    out.check(summary.is_clean(), || format!("unclean drain: {summary:?}"));
}

pub fn run(cfg: &RunConfig, out: &mut Outcome) -> Result<(), String> {
    let (first_s, server, mut caller, mut churn) = bring_up(cfg)?;
    let mut setup_s = vec![first_s];
    let prefill_digest = churn.digest();
    let engine = server.engine();

    let warm = churn.pass(&mut caller, cfg.warmup);
    out.count_pass(&warm);
    let mut restore = RestoreStep::default();
    let pass = measured(cfg, &mut churn, &mut caller, out, |out| {
        // Every set-up repetition must make the same decisions.
        let (elapsed, other, other_caller, again) = bring_up(cfg)?;
        shut_down(other, other_caller, out);
        out.check(again.digest() == prefill_digest, || {
            "set-up repetitions made different decisions".into()
        });
        setup_s.push(elapsed);
        restore.append(restore_step(engine, 1, RESTORE_BUDGET)?);
        Ok(())
    })?;
    out.digest = churn.digest();
    audit(engine, out)?;
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
    out.line("transport: loopback TCP on one host, not a real link".into());

    if cfg.trace {
        // The traced pass continues the sequence on the same server at
        // the same held population.
        caller.traced = Some(Traced::default());
        let before = server.registry().snapshot();
        let traced = measured(cfg, &mut churn, &mut caller, out, |_| Ok(()))?;
        let after = server.registry().snapshot();
        let frames = caller.traced.take().expect("traced pass state");
        out.attempted += frames.query_ns.len() as u64;
        out.failures.extend(frames.failures);
        audit(engine, out)?;
        per_layer(
            out,
            engine,
            &mut churn,
            LayerInputs {
                untraced: &pass,
                traced: &traced,
                query_ns: &frames.query_ns,
                requests: &frames.requests,
                responses: &frames.responses,
                registry: EngineLayer::between(&before, &after),
                restore: &restore,
                over_wire: true,
            },
        )?;
    }
    shut_down(server, caller, out);
    Ok(())
}
