//! Per-layer replays at steady state, timed from the benchmark around
//! calls into each crate's public functions (nothing is traced inside
//! the program).
//!
//! * `cac`: every switch is rebuilt with [`Switch::restore`] from the
//!   engine's exported legs, and the next setups of the same sequence
//!   are priced, checked and admitted hop by hop against those
//!   replicas; each admitted leg is released again untimed, and the
//!   timed release of a resident connection runs on a clone, so every
//!   request meets the same steady state.
//! * `bitstream`: the port aggregates are rebuilt from the exported
//!   legs (`arrival_stream` plus `multiplex_all`, coarsened on the
//!   switch's grid as admission does) and the §3 primitives are timed
//!   on them.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use rtcac_bitstream::{BitStream, Time, TrafficContract};
use rtcac_cac::{
    CacError, ConnectionId, ConnectionRequest, Priority, ReservationPlan, RoutePlan, Switch,
};
use rtcac_engine::EngineState;
use rtcac_net::{LinkId, NodeId, Topology};

use crate::mix::{Mix, SetupOp};

/// Aggregates per switch whose primitives are timed (bounds the replay
/// on switches with many ports).
const KEYS_PER_SWITCH: usize = 16;

/// `cac` timings over the replayed setups.
#[derive(Debug, Clone, Default)]
pub struct CacReplay {
    /// `RoutePlan::from_route` + `ReservationPlan::price`, per setup.
    pub price_ns: Vec<u64>,
    /// `Switch::check`, per hop.
    pub check_ns: Vec<u64>,
    /// `Switch::admit`, per hop.
    pub admit_ns: Vec<u64>,
    /// `Switch::release` of a resident connection on a clone, per hop.
    pub release_ns: Vec<u64>,
    /// Hops per replayed setup.
    pub hops: Vec<usize>,
    /// Mean resident legs per switch.
    pub legs_per_switch: f64,
    /// Mean interned contract classes per switch.
    pub interned_classes: f64,
    /// Every hop's admission request, for the bitstream replay.
    pub requests: Vec<ConnectionRequest>,
}

/// Rebuilds every switch of `state` and replays `upcoming` on the
/// replicas.
///
/// # Errors
///
/// A switch that does not restore, or a check/admit/release error.
pub fn cac_replay(
    state: &EngineState,
    topology: &Topology,
    upcoming: &[SetupOp],
    mix: &mut Mix,
) -> Result<CacReplay, String> {
    let err = |e: CacError| e.to_string();
    let mut switches = BTreeMap::new();
    for s in &state.switches {
        let sw = Switch::restore(s.config.clone(), s.epoch, s.legs.iter().cloned()).map_err(err)?;
        switches.insert(s.node, sw);
    }
    // Counts are per switch that carries traffic.
    let loaded: Vec<&Switch> = switches
        .values()
        .filter(|s| s.connection_count() > 0)
        .collect();
    let per_loaded = |f: fn(&Switch) -> usize| {
        loaded.iter().map(|&s| f(s) as f64).sum::<f64>() / loaded.len().max(1) as f64
    };
    let mut replay = CacReplay {
        legs_per_switch: per_loaded(Switch::connection_count),
        interned_classes: per_loaded(Switch::interned_contracts),
        ..CacReplay::default()
    };
    let fresh = ConnectionId::new(u64::MAX);
    for op in upcoming {
        let t = Instant::now();
        let plan = RoutePlan::from_route(topology, &op.route).map_err(|e| e.to_string())?;
        let priced = ReservationPlan::price::<CacError>(
            &plan,
            state.policy,
            op.request.contract(),
            op.request.priority(),
            |node: NodeId| switches[&node].advertised_bound(op.request.priority()),
        )
        .map_err(err)?;
        replay.price_ns.push(t.elapsed().as_nanos() as u64);
        replay.hops.push(priced.hops().len());
        for (index, hop) in priced.hops().iter().enumerate() {
            let request = priced.request_for(index);
            let sw = switches
                .get_mut(&hop.node)
                .expect("route switches are managed");
            let t = Instant::now();
            black_box(sw.check(&request).map_err(err)?);
            replay.check_ns.push(t.elapsed().as_nanos() as u64);
            // Admit on the replica itself (a fresh clone's vectors are
            // full to capacity, so its first insert would reallocate),
            // then release the leg again, untimed, to restore the state.
            let t = Instant::now();
            let decision = sw.admit(fresh, request).map_err(err)?;
            replay.admit_ns.push(t.elapsed().as_nanos() as u64);
            if decision.is_admitted() {
                sw.release(fresh).map_err(err)?;
            }
            if sw.connection_count() > 0 {
                let mut copy = sw.clone();
                let victim = sw
                    .connections()
                    .nth(mix.pick(sw.connection_count()))
                    .map(|(id, _)| id)
                    .expect("index below the leg count");
                let t = Instant::now();
                black_box(copy.release(victim).map_err(err)?);
                replay.release_ns.push(t.elapsed().as_nanos() as u64);
            }
            replay.requests.push(request);
        }
    }
    Ok(replay)
}

/// `bitstream` timings over the rebuilt port aggregates.
#[derive(Debug, Clone, Default)]
pub struct StreamReplay {
    /// `filter` of an `Sia(i,j,p)` aggregate.
    pub filter_ns: Vec<u64>,
    /// `delay` of a replayed request's source stream by its CDV.
    pub delay_ns: Vec<u64>,
    /// `delay_bound` of `Soa(j,p)` against `Sof(j)(p)`.
    pub delay_bound_ns: Vec<u64>,
    /// `multiplex_all` of one aggregate's legs (release's rebuild).
    pub multiplex_ns: Vec<u64>,
    /// `demultiplex` of one leg out of its aggregate.
    pub demultiplex_ns: Vec<u64>,
    /// Mean segments per aggregate.
    pub segments: f64,
}

/// An aggregate's key: (incoming link, outgoing link, priority).
type Key = (LinkId, LinkId, Priority);

/// What an arrival envelope is a function of: contract, CDV and the
/// switch's quantization grid.
type Class = (TrafficContract, Time, Option<i128>);

/// Rebuilds the aggregates of `state` and times the primitives on
/// them; `requests` are the replayed hop requests for `delay`.
///
/// # Errors
///
/// A quantization or delay-bound error from the stream algebra.
pub fn bitstream_replay(
    state: &EngineState,
    requests: &[ConnectionRequest],
) -> Result<StreamReplay, String> {
    let mut replay = StreamReplay::default();
    let mut aggregates = 0usize;
    let mut segments = 0usize;
    // Arrival envelopes are pure functions of (contract, CDV, grid):
    // derive each class once.
    let mut classes: Vec<(Class, BitStream)> = Vec::new();
    for s in &state.switches {
        let grid = s.config.quantization();
        let mut keyed: BTreeMap<Key, Vec<usize>> = BTreeMap::new();
        for (_, leg) in &s.legs {
            let class = (leg.contract(), leg.cdv(), grid);
            let index = match classes.iter().position(|(c, _)| *c == class) {
                Some(i) => i,
                None => {
                    let stream = leg.arrival_stream();
                    let stream = match grid {
                        Some(g) => stream.coarsen(g).map_err(|e| e.to_string())?,
                        None => stream,
                    };
                    classes.push((class, stream));
                    classes.len() - 1
                }
            };
            keyed
                .entry((leg.in_link(), leg.out_link(), leg.priority()))
                .or_default()
                .push(index);
        }
        let mut sia: BTreeMap<Key, BitStream> = BTreeMap::new();
        for (n, (&key, members)) in keyed.iter().enumerate() {
            let streams = || members.iter().map(|&i| &classes[i].1);
            let timed = n < KEYS_PER_SWITCH;
            let t = Instant::now();
            let aggregate = BitStream::multiplex_all(streams());
            if timed {
                replay.multiplex_ns.push(t.elapsed().as_nanos() as u64);
                let t = Instant::now();
                black_box(aggregate.demultiplex(&classes[members[0]].1).ok());
                replay.demultiplex_ns.push(t.elapsed().as_nanos() as u64);
                let t = Instant::now();
                black_box(aggregate.filter());
                replay.filter_ns.push(t.elapsed().as_nanos() as u64);
            }
            aggregates += 1;
            segments += aggregate.segment_count();
            sia.insert(key, aggregate);
        }
        // Soa(j,p) = Σᵢ filter(Sia(i,j,p)); Sof(j)(p) = filter(Σᵢ
        // filter(Σ_{p'≻p} Sia(i,j,p'))) — the §4.3 derived streams.
        let ports: std::collections::BTreeSet<(LinkId, Priority)> =
            sia.keys().map(|&(_, j, p)| (j, p)).collect();
        for (n, &(j, p)) in ports.iter().enumerate() {
            if n >= KEYS_PER_SWITCH {
                break;
            }
            let in_links: std::collections::BTreeSet<LinkId> = sia
                .keys()
                .filter(|&&(_, jj, _)| jj == j)
                .map(|&(i, _, _)| i)
                .collect();
            let mut soa = Vec::new();
            let mut higher = Vec::new();
            for &i in &in_links {
                if let Some(s) = sia.get(&(i, j, p)) {
                    soa.push(s.filter());
                }
                let above = BitStream::multiplex_all(
                    sia.iter()
                        .filter(|(&(ii, jj, pp), _)| ii == i && jj == j && pp.outranks(p))
                        .map(|(_, s)| s),
                );
                higher.push(above.filter());
            }
            let soa = BitStream::multiplex_all(soa.iter());
            let sof = BitStream::multiplex_all(higher.iter()).filter();
            let t = Instant::now();
            black_box(soa.delay_bound(&sof).map_err(|e| e.to_string())?);
            replay.delay_bound_ns.push(t.elapsed().as_nanos() as u64);
        }
    }
    for request in requests {
        let source = request.contract().worst_case_stream();
        let t = Instant::now();
        black_box(source.delay(request.cdv()));
        replay.delay_ns.push(t.elapsed().as_nanos() as u64);
    }
    replay.segments = segments as f64 / aggregates.max(1) as f64;
    Ok(replay)
}
