//! End-to-end service behavior over loopback: ownership enforcement,
//! typed protocol errors, multicast setups, live stats, concurrent
//! sessions, wire-vs-engine parity, and a DRAIN arriving in the middle
//! of an active setup burst.

use std::collections::HashSet;
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::{ConnectionId, Priority, SwitchConfig};
use rtcac_engine::{AdmissionEngine, EngineOutcome};
use rtcac_net::{builders, Route};
use rtcac_rational::ratio;
use rtcac_serve::proto::{frame_type, reject_code};
use rtcac_serve::wire::write_frame;
use rtcac_serve::{Client, ErrorCode, Request, Response, ServeConfig, Server};
use rtcac_signaling::{CdvPolicy, SetupRequest};
use rtcac_sim::SimRng;

fn small_server(nodes: usize, terminals: usize) -> (Server, builders::StarRing) {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes,
        terminals,
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(nodes, terminals).unwrap();
    (server, sr)
}

fn links_of(sr: &builders::StarRing, src: (usize, usize), dst: (usize, usize)) -> Vec<u32> {
    let route = sr.terminal_route(src, dst).unwrap();
    route.links().iter().map(|l| l.index() as u32).collect()
}

fn setup_request() -> SetupRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 128))).unwrap());
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

#[test]
fn sessions_only_release_what_they_own() {
    let (server, sr) = small_server(4, 2);
    let links = links_of(&sr, (0, 0), (0, 1));

    let mut alice = Client::connect(server.addr()).unwrap();
    let mut bob = Client::connect(server.addr()).unwrap();
    let Response::Admitted { id, .. } = alice.setup(&links, setup_request()).unwrap() else {
        panic!("alice's setup should be admitted");
    };
    // Bob cannot release Alice's connection…
    assert!(matches!(
        bob.release(id).unwrap(),
        Response::Error {
            code: ErrorCode::NotOwner,
            ..
        }
    ));
    // …but Alice can, and Bob can see it disappear.
    assert!(matches!(
        alice.release(id).unwrap(),
        Response::Released { .. }
    ));
    assert!(matches!(
        bob.query(id).unwrap(),
        Response::QueryResult { found: false, .. }
    ));
    alice.drain().unwrap();
    drop((alice, bob));
    assert!(server.join().is_clean());
}

#[test]
fn hello_stats_and_multicast_over_the_wire() {
    let (server, sr) = small_server(4, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    let Response::ServerInfo {
        nodes, terminals, ..
    } = client.hello().unwrap()
    else {
        panic!("HELLO must be answered by SERVER-INFO");
    };
    assert_eq!((nodes, terminals), (4, 2));

    // A broadcast tree admitted over the wire takes the engine's
    // multicast path.
    let tree = sr.broadcast_tree(1, 0).unwrap();
    let links: Vec<u32> = tree.links().iter().map(|l| l.index() as u32).collect();
    let Response::Admitted { id, .. } = client.setup_mcast(&links, setup_request()).unwrap() else {
        panic!("broadcast setup should be admitted on an empty ring");
    };

    let Response::StatsReply {
        active,
        admitted,
        draining,
        ..
    } = client.stats().unwrap()
    else {
        panic!("STATS must be answered by STATS-REPLY");
    };
    assert_eq!((active, admitted, draining), (1, 1, false));

    client.release(id).unwrap();
    client.drain().unwrap();
    drop(client);
    assert!(server.join().is_clean());
}

#[test]
fn protocol_errors_are_typed_and_survivable() {
    let (server, sr) = small_server(4, 2);
    let mut client = Client::connect(server.addr()).unwrap();

    // An unknown-version frame: typed error, session survives.
    let mut stream = TcpStream::connect(server.addr()).unwrap();
    write_frame(&mut stream, &[9, frame_type::HELLO]).unwrap();
    stream.flush().unwrap();
    let mut raw = Client::from_stream(stream.try_clone().unwrap()).unwrap();
    assert!(matches!(
        raw.recv().unwrap(),
        Response::Error {
            code: ErrorCode::UnsupportedVersion,
            ..
        }
    ));
    // The same session still answers a well-formed request afterwards.
    write_frame(&mut stream, &Request::Hello.encode()).unwrap();
    stream.flush().unwrap();
    assert!(matches!(raw.recv().unwrap(), Response::ServerInfo { .. }));

    // A route over links that do not exist: BadRoute, not a panic.
    assert!(matches!(
        client.setup(&[40_000, 40_001], setup_request()).unwrap(),
        Response::Error {
            code: ErrorCode::BadRoute,
            ..
        }
    ));
    // A priority the one-level switches do not serve is the client's
    // mistake, on both setup paths.
    let links = links_of(&sr, (0, 0), (0, 1));
    let unserved = SetupRequest::new(
        setup_request().contract(),
        Priority::new(3),
        Time::from_integer(1_000_000),
    );
    let tree = sr.broadcast_tree(1, 0).unwrap();
    let tree_links: Vec<u32> = tree.links().iter().map(|l| l.index() as u32).collect();
    for reply in [
        client.setup(&links, unserved).unwrap(),
        client.setup_mcast(&tree_links, unserved).unwrap(),
    ] {
        assert!(
            matches!(
                reply,
                Response::Error {
                    code: ErrorCode::BadPayload,
                    ..
                }
            ),
            "{reply:?}"
        );
    }
    // Releasing a connection nobody admitted: NotOwner.
    assert!(matches!(
        client.release(424_242).unwrap(),
        Response::Error {
            code: ErrorCode::NotOwner,
            ..
        }
    ));

    // The session survived every error above.
    assert!(matches!(
        client.setup(&links, setup_request()).unwrap(),
        Response::Admitted { .. }
    ));
    client.drain().unwrap();
    drop((client, raw, stream));
    assert!(server.join().is_clean());
}

#[test]
fn drain_mid_burst_keeps_invariants_and_refuses_new_setups() {
    let (server, sr) = small_server(8, 2);
    let addr = server.addr();

    // A burst thread churns setup+release until the drain cuts it off.
    let churn_links = links_of(&sr, (2, 0), (2, 1));
    let churner = std::thread::spawn(move || {
        let mut client = Client::connect(addr).unwrap();
        let mut drained_rejections = 0u32;
        for _ in 0..10_000 {
            match client.setup(&churn_links, setup_request()) {
                Ok(Response::Admitted { id, .. }) => {
                    // Deliberately leak some admissions (no release) so
                    // drain-time cleanup has real work to do.
                    if id % 3 != 0 {
                        let _ = client.release(id);
                    }
                }
                Ok(Response::Rejected { code, .. }) => {
                    if code == reject_code::DRAINING {
                        drained_rejections += 1;
                        if drained_rejections >= 3 {
                            break; // the drain is in force; stop churning
                        }
                    }
                }
                Ok(_) => {}
                Err(_) => break, // server closed the session mid-burst
            }
        }
        drained_rejections
    });

    // Let the burst get going, then drain mid-flight.
    std::thread::sleep(Duration::from_millis(150));
    let mut admin = Client::connect(addr).unwrap();
    let reply = admin.drain().unwrap();
    assert!(matches!(reply, Response::Draining { .. }));
    // Post-drain setups are refused with the typed Draining rejection.
    let links = links_of(&sr, (1, 0), (1, 1));
    match admin.setup(&links, setup_request()).unwrap() {
        Response::Rejected { code, .. } => assert_eq!(code, reject_code::DRAINING),
        other => panic!("post-drain setup should be rejected: {other:?}"),
    }
    let drained_rejections = churner.join().unwrap();
    drop(admin);

    // The mid-load shutdown must still audit clean: every leaked
    // admission released by session cleanup, no orphans, bounds intact.
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
    assert_eq!(summary.active, 0, "cleanup must release leaked admissions");
    assert!(
        drained_rejections > 0 || summary.sessions >= 2,
        "the churner should have seen the drain take effect"
    );
}

/// Star-ring size and per-hop bound of the churn tests. The bound is
/// tight enough that a few dozen live connections overload the shared
/// ring ports, so some setups are refused.
const CHURN_NODES: usize = 4;
const CHURN_TERMINALS: usize = 2;
const CHURN_BOUND: i128 = 8;

fn churn_server() -> (Server, builders::StarRing) {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: CHURN_NODES,
        terminals: CHURN_TERMINALS,
        bound: Time::from_integer(CHURN_BOUND),
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(CHURN_NODES, CHURN_TERMINALS).unwrap();
    (server, sr)
}

/// Every terminal's one-, two- and three-hop ring route: routes from
/// different terminals share ring ports.
fn ring_routes(sr: &builders::StarRing) -> Vec<Route> {
    let mut routes = Vec::new();
    for i in 0..sr.ring_len() {
        for j in 0..sr.terminals_per_node() {
            for hops in 1..sr.ring_len() {
                routes.push(sr.ring_route_from_terminal(i, j, hops).unwrap());
            }
        }
    }
    routes
}

fn wire_links(route: &Route) -> Vec<u32> {
    route.links().iter().map(|l| l.index() as u32).collect()
}

/// One step of a seeded churn.
enum Step {
    /// Set up on the route at this index.
    Setup(usize, SetupRequest),
    /// Release the live connection at this index.
    Release(usize),
}

/// Draws the next step: a release (one time in three, when anything
/// is live) or a CBR setup of rate 1/4 to 1/11 on a random route.
fn next_step(rng: &mut SimRng, routes: usize, live: usize) -> Step {
    if live > 0 && rng.gen_below(3) == 0 {
        return Step::Release(rng.gen_below(live as u64) as usize);
    }
    let route = rng.gen_below(routes as u64) as usize;
    let den = 4 + i128::from(rng.gen_below(8));
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, den))).unwrap());
    let request = SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000));
    Step::Setup(route, request)
}

#[test]
fn concurrent_sessions_churn_without_sharing_ids() {
    const SESSIONS: u64 = 4;
    const STEPS: usize = 120;
    let (server, sr) = churn_server();
    let routes: Vec<Vec<u32>> = ring_routes(&sr).iter().map(wire_links).collect();
    let addr = server.addr();

    // Each session returns (setups sent, rejections seen, ids admitted).
    let sessions: Vec<_> = (0..SESSIONS)
        .map(|seed| {
            let routes = routes.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                let mut rng = SimRng::seed_from_u64(0xC0DE + seed);
                let (mut sent, mut rejected) = (0u64, 0u64);
                let mut admitted: Vec<u64> = Vec::new();
                let mut live: Vec<u64> = Vec::new();
                for _ in 0..STEPS {
                    match next_step(&mut rng, routes.len(), live.len()) {
                        Step::Release(k) => {
                            let id = live.swap_remove(k);
                            assert_eq!(client.release(id).unwrap(), Response::Released { id });
                        }
                        Step::Setup(route, request) => {
                            sent += 1;
                            match client.setup(&routes[route], request).unwrap() {
                                Response::Admitted { id, .. } => {
                                    admitted.push(id);
                                    live.push(id);
                                }
                                Response::Rejected { .. } => rejected += 1,
                                other => panic!("setup must be decided: {other:?}"),
                            }
                        }
                    }
                }
                // The survivors are left to session cleanup.
                (sent, rejected, admitted)
            })
        })
        .collect();

    let (mut sent, mut rejected) = (0u64, 0u64);
    let mut ids: HashSet<u64> = HashSet::new();
    let mut admitted_total = 0u64;
    for handle in sessions {
        let (s, r, admitted) = handle.join().unwrap();
        sent += s;
        rejected += r;
        admitted_total += admitted.len() as u64;
        for id in admitted {
            assert!(ids.insert(id), "connection id {id} handed to two sessions");
        }
    }
    assert!(rejected > 0, "the bound must refuse some setups");
    assert!(admitted_total > 0, "the ring must admit some setups");

    let mut admin = Client::connect(addr).unwrap();
    let Response::StatsReply {
        admitted,
        rejected: stats_rejected,
        ..
    } = admin.stats().unwrap()
    else {
        panic!("STATS must be answered by STATS-REPLY");
    };
    assert_eq!(admitted + stats_rejected, sent);
    assert_eq!((admitted, stats_rejected), (admitted_total, rejected));

    admin.drain().unwrap();
    drop(admin);
    let summary = server.join();
    assert_eq!((summary.orphans, summary.violations), (0, 0), "{summary:?}");
    assert_eq!(summary.active, 0, "session cleanup must release survivors");
}

#[test]
fn one_session_matches_a_fresh_in_process_engine() {
    const STEPS: usize = 200;
    let (server, sr) = churn_server();
    let routes = ring_routes(&sr);
    let config = SwitchConfig::uniform(1, Time::from_integer(CHURN_BOUND)).unwrap();
    let engine = AdmissionEngine::new(sr.topology().clone(), config, CdvPolicy::Hard);

    let mut client = Client::connect(server.addr()).unwrap();
    let mut rng = SimRng::seed_from_u64(0x5EED);
    let mut live: Vec<u64> = Vec::new();
    let mut refused = 0;
    for step in 0..STEPS {
        match next_step(&mut rng, routes.len(), live.len()) {
            Step::Release(k) => {
                let id = live.swap_remove(k);
                assert_eq!(client.release(id).unwrap(), Response::Released { id });
                engine.release(ConnectionId::new(id)).unwrap();
            }
            Step::Setup(route, request) => {
                let wire = client.setup(&wire_links(&routes[route]), request).unwrap();
                let local = engine.admit(&routes[route], request).unwrap();
                match (wire, local) {
                    (
                        Response::Admitted {
                            id,
                            guaranteed_delay,
                            ..
                        },
                        EngineOutcome::Admitted {
                            id: local_id,
                            guaranteed_delay: local_delay,
                        },
                    ) => {
                        assert_eq!(id, local_id.raw(), "step {step}");
                        assert_eq!(guaranteed_delay, local_delay, "step {step}");
                        live.push(id);
                    }
                    (
                        Response::Rejected { id, .. },
                        EngineOutcome::Rejected { id: local_id, .. },
                    ) => {
                        assert_eq!(id, local_id.raw(), "step {step}");
                        refused += 1;
                    }
                    (wire, local) => panic!("step {step}: wire {wire:?}, engine {local:?}"),
                }
            }
        }
    }
    assert!(refused > 0, "the bound must refuse some setups");
    assert!(!live.is_empty());

    client.drain().unwrap();
    drop(client);
    assert!(server.join().is_clean());
}
