//! The flight recorder, end to end over loopback: a threshold-0 lock
//! watchdog produces exactly ONE black box (the per-reason once-latch),
//! the DUMP wire op forces more on demand, the dump decodes and renders
//! a timeline, and a clean server writes nothing at all.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rtcac_bitstream::{CbrParams, Rate, Time, TrafficContract};
use rtcac_cac::Priority;
use rtcac_net::builders;
use rtcac_obs::FlightDump;
use rtcac_rational::ratio;
use rtcac_serve::{Client, Response, ServeConfig, Server};
use rtcac_signaling::SetupRequest;

fn flight_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rtcac-flight-{}-{name}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn flight_server(dir: &Path, watchdog_ns: Option<u64>) -> Server {
    Server::start(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        nodes: 4,
        terminals: 2,
        flight_dir: Some(dir.display().to_string()),
        flight_tick_ms: 20,
        lock_hold_threshold_ns: watchdog_ns,
        ..ServeConfig::default()
    })
    .unwrap()
}

fn setup_request() -> SetupRequest {
    let contract = TrafficContract::cbr(CbrParams::new(Rate::new(ratio(1, 128))).unwrap());
    SetupRequest::new(contract, Priority::HIGHEST, Time::from_integer(1_000_000))
}

fn links_of(sr: &builders::StarRing, src: (usize, usize), dst: (usize, usize)) -> Vec<u32> {
    let route = sr.terminal_route(src, dst).unwrap();
    route.links().iter().map(|l| l.index() as u32).collect()
}

#[test]
fn watchdog_anomaly_dumps_exactly_once_and_wire_dump_bypasses_the_latch() {
    let dir = flight_dir("watchdog");
    // Threshold 0: every setup's shard-lock hold exceeds it, so the
    // first setup trips the watchdog anomaly.
    let server = flight_server(&dir, Some(0));
    let sr = builders::star_ring(4, 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let links = links_of(&sr, (0, 0), (0, 1));
    let mut ids = Vec::new();
    for _ in 0..8 {
        if let Response::Admitted { id, .. } = client.setup(&links, setup_request()).unwrap() {
            ids.push(id);
        }
        if let Some(&id) = ids.last() {
            client.release(id).unwrap();
            ids.pop();
        }
    }
    let recorder = server.flight_recorder().expect("flight recorder armed");
    let deadline = Instant::now() + Duration::from_secs(5);
    while recorder.dumps_written() == 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    // Eight watchdog-tripping setups, exactly ONE automatic dump: the
    // per-reason once-latch holds.
    assert_eq!(
        recorder.dumps_written(),
        1,
        "persistent anomaly must produce exactly one black box"
    );
    let auto_path = recorder.last_dump_path().expect("dump path");
    let dump = FlightDump::decode(&fs::read(&auto_path).unwrap()).expect("dump decodes");
    assert_eq!(dump.reason, "lock_hold");
    assert!(!dump.forced);
    let timeline = dump.render_timeline();
    assert!(
        timeline.contains("lock_hold"),
        "timeline names the trigger:\n{timeline}"
    );

    // The DUMP wire op forces another black box despite the latch.
    let Response::Dumped { path, dumps } = client.dump().unwrap() else {
        panic!("DUMP must be answered by DUMPED");
    };
    assert_eq!(dumps, 2);
    let forced = FlightDump::decode(&fs::read(&path).unwrap()).expect("forced dump decodes");
    assert!(forced.forced);
    assert_eq!(forced.reason, "wire");

    client.drain().unwrap();
    drop(client);
    server.join();
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn clean_run_writes_no_dumps() {
    let dir = flight_dir("clean");
    // Default watchdog threshold: ordinary loopback setups never come
    // close to it.
    let server = flight_server(&dir, None);
    let sr = builders::star_ring(4, 2).unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let links = links_of(&sr, (0, 0), (0, 1));
    for _ in 0..20 {
        if let Response::Admitted { id, .. } = client.setup(&links, setup_request()).unwrap() {
            client.release(id).unwrap();
        }
    }
    // Let a few sampler ticks elapse so the tick triggers get their
    // chance to misfire.
    std::thread::sleep(Duration::from_millis(100));
    let recorder = server.flight_recorder().expect("flight recorder armed");
    assert_eq!(recorder.dumps_written(), 0, "clean run must stay silent");
    assert!(
        !dir.exists() || fs::read_dir(&dir).unwrap().next().is_none(),
        "no dump files on disk"
    );
    client.drain().unwrap();
    drop(client);
    assert!(server.join().is_clean());
    let _ = fs::remove_dir_all(&dir);
}
