//! The three workloads: topology, switch configuration, and the seeded
//! operation source each single caller replays.
//!
//! Every workload runs on the paper's 16-node star-ring with four
//! terminals per ring node (the admission service's default shape), so
//! route link indices mean the same thing in process and over the
//! wire.

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac_cac::{Priority, SwitchConfig};
use rtcac_net::builders::{self, StarRing};
use rtcac_net::{Route, Topology};
use rtcac_rational::ratio;
use rtcac_signaling::SetupRequest;
use rtcac_sim::SimRng;

/// Ring switches of the star-ring (the paper's RTnet size).
pub const RING_NODES: usize = 16;
/// Terminals per ring switch (the service's default).
pub const TERMINALS: usize = 4;

/// Requested end-to-end bound: far above any route's achievable bound,
/// so every refusal is a switch check, never a QoS gate.
const LOOSE_DELAY: i128 = 1 << 40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One client against a default-config server on loopback,
    /// pipeline 1, single-switch CBR routes: the serve layers dominate.
    WireP1,
    /// In-process engine held at a population where setups are priced
    /// against loaded aggregates and a share of them is refused.
    OccupiedChurn,
    /// In-process engine with thousands of legs per switch from a few
    /// contract classes: release's whole-switch rebuild dominates.
    DeepRelease,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 3] = [
        Workload::WireP1,
        Workload::OccupiedChurn,
        Workload::DeepRelease,
    ];

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WireP1 => "wire-p1",
            Workload::OccupiedChurn => "occupied-churn",
            Workload::DeepRelease => "deep-release",
        }
    }

    /// The steady population the caller prefills and then holds.
    pub fn population(self) -> usize {
        match self {
            Workload::WireP1 => 16,
            // Sized so that about a fifth of setups are refused.
            Workload::OccupiedChurn => 160,
            // 10⁴ legs on the loaded switch.
            Workload::DeepRelease => 10_000,
        }
    }

    /// Measured operations per `--seconds` second. The measured phase
    /// is a fixed operation count, not a deadline, so every run of a
    /// seed makes the same decisions at the same occupancy and only the
    /// clock varies; these rates size it to roughly `--seconds` on a
    /// 2-thread x86-64 host.
    pub fn ops_per_second(self) -> usize {
        match self {
            Workload::WireP1 => 20_000,
            Workload::OccupiedChurn => 3_500,
            Workload::DeepRelease => 3_000,
        }
    }

    /// The per-switch configuration of the in-process workloads (the
    /// wire workload's server builds its own default one).
    pub fn switch_config(self) -> SwitchConfig {
        let config = match self {
            Workload::WireP1 => SwitchConfig::uniform(1, Time::from_integer(64)),
            Workload::OccupiedChurn => {
                SwitchConfig::with_bounds([Time::from_integer(32), Time::from_integer(128)])
                    .and_then(|c| c.with_quantization(256))
            }
            // Power-of-two contract rates and bounds keep the exact
            // rationals small without quantization.
            Workload::DeepRelease => SwitchConfig::uniform(1, Time::from_integer(4096)),
        };
        config.expect("benchmark switch configuration is valid")
    }
}

/// One setup of the sequence: the route both as a [`Route`] (in
/// process) and as wire link indices, plus the §4.1 parameters.
#[derive(Debug, Clone)]
pub struct SetupOp {
    /// The route on the workload's topology.
    pub route: Route,
    /// The same route as link indices (the wire form).
    pub links: Vec<u32>,
    /// Contract, priority and requested bound.
    pub request: SetupRequest,
}

/// The seeded operation source of one workload: the same seed yields
/// the same setups and the same release choices.
#[derive(Debug, Clone)]
pub struct Mix {
    workload: Workload,
    star: StarRing,
    rng: SimRng,
}

impl Mix {
    /// The source for `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Mix {
        // Mix the workload into the stream so two workloads under one
        // seed do not share draws.
        let salt = match workload {
            Workload::WireP1 => 0x5749_5245,
            Workload::OccupiedChurn => 0x4f43_4355,
            Workload::DeepRelease => 0x4445_4550,
        };
        Mix {
            workload,
            star: builders::star_ring(RING_NODES, TERMINALS).expect("star-ring topology"),
            rng: SimRng::seed_from_u64(seed ^ (salt << 32)),
        }
    }

    /// The workload's topology.
    pub fn topology(&self) -> &Topology {
        self.star.topology()
    }

    /// A uniform draw from `0..len` (the release choice).
    pub fn pick(&mut self, len: usize) -> usize {
        self.rng.gen_below(len as u64) as usize
    }

    fn draw(&mut self, lo: i128, hi: i128) -> i128 {
        lo + self.rng.gen_below((hi - lo + 1) as u64) as i128
    }

    /// A terminal on the same ring switch as `src`: one queueing point.
    fn neighbour(&mut self, src: (usize, usize)) -> (usize, usize) {
        (src.0, (src.1 + 1 + self.pick(TERMINALS - 1)) % TERMINALS)
    }

    /// The next setup of the sequence.
    pub fn next_setup(&mut self) -> SetupOp {
        let n = RING_NODES;
        let (src, dst, contract, priority) = match self.workload {
            Workload::WireP1 => {
                let src = (self.pick(n), self.pick(TERMINALS));
                let pcr = 256 * self.draw(1, 4);
                (src, self.neighbour(src), cbr(pcr), Priority::HIGHEST)
            }
            Workload::OccupiedChurn => {
                // Up to eight queueing points: a terminal at most seven
                // ring hops downstream, other than the source itself.
                let src = (self.pick(n), self.pick(TERMINALS));
                let dst = loop {
                    let dst = ((src.0 + self.pick(8)) % n, self.pick(TERMINALS));
                    if dst != src {
                        break dst;
                    }
                };
                let contract = if self.pick(2) == 0 {
                    cbr(self.draw(32, 256))
                } else {
                    let pcr = self.draw(8, 32);
                    let scr = self.draw(128, 1024);
                    let mbs = self.draw(2, 16);
                    vbr(pcr, scr, mbs as u64)
                };
                (src, dst, contract, Priority::new(self.pick(2) as u8))
            }
            Workload::DeepRelease => {
                // One ring switch carries the whole population, between
                // its own terminals.
                let src = (0, self.pick(TERMINALS));
                let contract = match self.pick(4) {
                    0 => cbr(16_384),
                    1 => cbr(32_768),
                    2 => vbr(4096, 65_536, 4),
                    _ => vbr(8192, 131_072, 8),
                };
                (src, self.neighbour(src), contract, Priority::HIGHEST)
            }
        };
        let route = self
            .star
            .terminal_route(src, dst)
            .expect("benchmark routes are valid");
        let links = route.links().iter().map(|l| l.index() as u32).collect();
        SetupOp {
            route,
            links,
            request: SetupRequest::new(contract, priority, Time::from_integer(LOOSE_DELAY)),
        }
    }
}

fn cbr(pcr_den: i128) -> TrafficContract {
    TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, pcr_den))).expect("valid CBR"))
}

fn vbr(pcr_den: i128, scr_den: i128, mbs: u64) -> TrafficContract {
    TrafficContract::vbr(
        VbrParams::new(
            Rate::new(ratio(1, pcr_den)),
            Rate::new(ratio(1, scr_den)),
            mbs,
        )
        .expect("valid VBR"),
    )
}
