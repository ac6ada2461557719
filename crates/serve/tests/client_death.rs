//! Client-death recovery: a client that vanishes mid-SETUP burst must
//! leave the engine exactly as if it had released everything — zero
//! orphaned reservations, no guarantee violations, zero established
//! connections — purely through session cleanup.

use std::time::{Duration, Instant};

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::builders;
use rtcac_rational::ratio;
use rtcac_serve::{Client, Request, Response, ServeConfig, Server};
use rtcac_signaling::SetupRequest;

fn setup_request() -> SetupRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 256))).unwrap());
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

fn wait_until(deadline: Duration, mut done: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if done() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    done()
}

#[test]
fn killed_client_leaves_no_orphans_and_intact_guarantees() {
    let server = Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: 8,
        terminals: 2,
        ..ServeConfig::default()
    })
    .unwrap();
    let sr = builders::star_ring(8, 2).unwrap();

    // A well-behaved bystander whose guarantee must survive the chaos.
    let mut bystander = Client::connect(server.addr()).unwrap();
    let route = sr.terminal_route((6, 0), (6, 1)).unwrap();
    let links: Vec<u32> = route.links().iter().map(|l| l.index() as u32).collect();
    let Response::Admitted { id: kept_id, .. } = bystander.setup(&links, setup_request()).unwrap()
    else {
        panic!("bystander setup should be admitted");
    };

    // The victim: pipeline a burst of SETUPs over several routes and
    // hang up without reading a single reply.
    let mut victim = Client::connect(server.addr()).unwrap();
    for i in 0..40u64 {
        let node = (i % 4) as usize;
        let route = sr.terminal_route((node, 0), (node, 1)).unwrap();
        let links: Vec<u32> = route.links().iter().map(|l| l.index() as u32).collect();
        victim
            .send(&Request::Setup {
                links,
                request: setup_request(),
            })
            .unwrap();
    }
    victim.flush().unwrap();
    drop(victim); // mid-burst death: replies were never read

    // Session cleanup must tear the victim's admissions down; only the
    // bystander's connection survives.
    let engine = server.engine().clone();
    assert!(
        wait_until(Duration::from_secs(10), || engine.connection_count() == 1),
        "victim's connections were not cleaned up; {} still established",
        engine.connection_count()
    );
    assert_eq!(engine.orphaned_reservations().len(), 0);
    assert!(engine.verify_guarantees().unwrap().is_empty());

    // The bystander never noticed: its connection still answers QUERY.
    assert!(matches!(
        bystander.query(kept_id).unwrap(),
        Response::QueryResult { found: true, .. }
    ));

    // Drain: the shutdown audit re-proves cleanliness and counts the
    // victim's cleanup releases.
    bystander.drain().unwrap();
    drop(bystander);
    let summary = server.join();
    assert!(summary.is_clean(), "{summary:?}");
    assert!(
        summary.cleanup_released >= 1,
        "the victim's admissions must have been released by cleanup: {summary:?}"
    );
}
