//! Full-stack connection lifecycle tests: distributed setup over
//! multi-switch topologies, rollback hygiene, capacity reuse, the
//! resident wire service, and policy comparisons.

use rtcac::bitstream::{CbrParams, Rate, Time, TrafficContract, VbrParams};
use rtcac::cac::{ConnectionId, Priority, SwitchConfig};
use rtcac::engine::AdmissionEngine;
use rtcac::net::{builders, Route};
use rtcac::rational::ratio;
use rtcac::serve::{Client, Response, ServeConfig, Server};
use rtcac::signaling::{CdvPolicy, Network, SetupOutcome, SetupRequest, SignalEvent};

fn cbr(n: i128, d: i128) -> TrafficContract {
    TrafficContract::cbr(CbrParams::new(Rate::new(ratio(n, d))).unwrap())
}

fn vbr(pn: i128, pd: i128, sn: i128, sd: i128, mbs: u64) -> TrafficContract {
    TrafficContract::vbr(
        VbrParams::new(Rate::new(ratio(pn, pd)), Rate::new(ratio(sn, sd)), mbs).unwrap(),
    )
}

fn line(n: usize, bound: i128, policy: CdvPolicy) -> (Network, Route) {
    let (topology, src, switches, dst) = builders::line(n).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(bound)).unwrap();
    let route = Route::from_nodes(
        &topology,
        std::iter::once(src)
            .chain(switches.iter().copied())
            .chain(std::iter::once(dst)),
    )
    .unwrap();
    (Network::new(topology, config, policy), route)
}

#[test]
fn fill_release_refill_reaches_same_capacity() {
    let (mut network, route) = line(3, 16, CdvPolicy::Hard);
    let request = SetupRequest::new(cbr(1, 12), Priority::HIGHEST, Time::from_integer(48));
    let mut first_round = Vec::new();
    while let SetupOutcome::Connected(info) = network.setup(&route, request).unwrap() {
        first_round.push(info.id());
        assert!(first_round.len() < 100, "capacity should be finite");
    }
    let capacity = first_round.len();
    assert!(capacity > 0);
    for id in first_round {
        network.teardown(id).unwrap();
    }
    // Exact arithmetic: the second fill reaches the same count.
    let mut second = 0;
    while network.setup(&route, request).unwrap().is_connected() {
        second += 1;
    }
    assert_eq!(second, capacity);
}

#[test]
fn no_orphan_reservations_after_many_mixed_operations() {
    let (mut network, route) = line(4, 64, CdvPolicy::Hard);
    let mut live: Vec<ConnectionId> = Vec::new();
    for round in 0..40u64 {
        if round % 3 == 2 && !live.is_empty() {
            let id = live.remove((round as usize * 7) % live.len());
            network.teardown(id).unwrap();
        } else {
            let contract = if round % 2 == 0 {
                cbr(1, 20)
            } else {
                vbr(1, 6, 1, 40, 5)
            };
            let req = SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000));
            if let SetupOutcome::Connected(info) = network.setup(&route, req).unwrap() {
                live.push(info.id());
            }
        }
        // Invariant: every switch holds exactly the live set.
        for (node, _) in route.queueing_points(network.topology()).unwrap() {
            let sw = network.switch(node).unwrap();
            assert_eq!(sw.connection_count(), live.len(), "round {round}");
            for id in &live {
                assert!(sw.has_connection(*id));
            }
        }
    }
}

#[test]
fn soft_policy_admits_at_least_as_many_connections() {
    let count = |policy| {
        let (mut network, route) = line(6, 24, policy);
        let request = SetupRequest::new(
            vbr(1, 5, 1, 35, 6),
            Priority::HIGHEST,
            Time::from_integer(144),
        );
        let mut n = 0;
        while network.setup(&route, request).unwrap().is_connected() {
            n += 1;
            if n > 200 {
                break;
            }
        }
        n
    };
    let hard = count(CdvPolicy::Hard);
    let soft = count(CdvPolicy::SoftSqrt);
    assert!(soft >= hard, "soft {soft} < hard {hard}");
    assert!(hard > 0);
}

#[test]
fn rejection_reports_the_failing_switch_and_cleans_up() {
    let (mut network, route) = line(3, 4, CdvPolicy::Hard);
    // Very tight bound: saturate quickly with jitter-heavy connections.
    let request = SetupRequest::new(cbr(1, 6), Priority::HIGHEST, Time::from_integer(12));
    let mut outcome = network.setup(&route, request).unwrap();
    while outcome.is_connected() {
        outcome = network.setup(&route, request).unwrap();
    }
    let SetupOutcome::Rejected(rejection) = outcome else {
        panic!("expected rejection");
    };
    // The rejection names a switch on the route, and the event trace
    // holds matching REJECT bookkeeping.
    let reject_events = network
        .events()
        .iter()
        .filter(|e| matches!(e, SignalEvent::Rejected { .. }))
        .count();
    assert!(reject_events >= 1, "{rejection:?}");
    // Counts stay equal at all switches (no partial reservations).
    let counts: Vec<usize> = route
        .queueing_points(network.topology())
        .unwrap()
        .iter()
        .map(|&(node, _)| network.switch(node).unwrap().connection_count())
        .collect();
    assert!(counts.windows(2).all(|w| w[0] == w[1]), "{counts:?}");
}

#[test]
fn wire_service_matches_in_process_engine() {
    // The service is a thin façade: the same request sequence sent over
    // the wire must produce the same admissions as an in-process engine
    // on an identical star-ring.
    let config = ServeConfig {
        addr: "127.0.0.1:0".into(),
        metrics_addr: None,
        nodes: 4,
        terminals: 2,
        bound: Time::from_integer(64),
        ..ServeConfig::default()
    };
    let server = Server::start(&config).unwrap();
    let sr = builders::star_ring(4, 2).unwrap();
    let switch_config = SwitchConfig::uniform(1, Time::from_integer(64)).unwrap();
    let engine = AdmissionEngine::new(sr.topology().clone(), switch_config, CdvPolicy::Hard);
    let route = sr.terminal_route((0, 0), (2, 1)).unwrap();
    let links: Vec<u32> = route.links().iter().map(|l| l.index() as u32).collect();
    let request = SetupRequest::new(cbr(1, 9), Priority::HIGHEST, Time::from_integer(1_000));

    let mut client = Client::connect(server.addr()).unwrap();
    for _ in 0..12 {
        let local = engine.admit(&route, request).unwrap().is_established();
        let remote = matches!(
            client.setup(&links, request).unwrap(),
            Response::Admitted { .. }
        );
        assert_eq!(local, remote);
    }
    // Shutdown is a checked property: drain, close, and the final audit
    // must find no orphans and no guarantee violations.
    client.drain().unwrap();
    drop(client);
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
}

#[test]
fn branching_traffic_only_affects_shared_ports() {
    // Y topology: two sources share switch s1; one exits to d1, the
    // other crosses s2 to d2. Admissions on the s2 branch must not
    // consume capacity on the d1 branch.
    let mut t = rtcac::net::Topology::new();
    let a = t.add_end_system("a");
    let b = t.add_end_system("b");
    let s1 = t.add_switch("s1");
    let s2 = t.add_switch("s2");
    let d1 = t.add_end_system("d1");
    let d2 = t.add_end_system("d2");
    t.add_link(a, s1).unwrap();
    t.add_link(b, s1).unwrap();
    t.add_link(s1, d1).unwrap();
    t.add_link(s1, s2).unwrap();
    t.add_link(s2, d2).unwrap();
    let config = SwitchConfig::uniform(1, Time::from_integer(32)).unwrap();
    let mut network = Network::new(t, config, CdvPolicy::Hard);
    let r1 = Route::from_nodes(network.topology(), [a, s1, d1]).unwrap();
    let r2 = Route::from_nodes(network.topology(), [b, s1, s2, d2]).unwrap();

    // Saturate the s2 branch.
    let big = SetupRequest::new(cbr(2, 5), Priority::HIGHEST, Time::from_integer(1_000));
    let mut n2 = 0;
    while network.setup(&r2, big).unwrap().is_connected() {
        n2 += 1;
    }
    assert!(n2 >= 2);
    // The d1 branch is still wide open.
    let small = SetupRequest::new(cbr(1, 3), Priority::HIGHEST, Time::from_integer(1_000));
    assert!(network.setup(&r1, small).unwrap().is_connected());
}
