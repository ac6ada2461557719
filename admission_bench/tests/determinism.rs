//! Every run of one seed must make the same decisions at the same
//! occupancy, and another seed must reach the inputs.

use rtcac_admission_bench::{run, Outcome, RunConfig, Workload};

/// A small run: short passes and, for deep-release, a tenth of the
/// population.
fn small(workload: Workload, seed: u64) -> Outcome {
    let mut cfg = RunConfig::for_seconds(workload, seed, 1, false);
    cfg.ops = 600;
    cfg.warmup = 100;
    if workload == Workload::DeepRelease {
        cfg.population /= 10;
    }
    let outcome = run(&cfg);
    assert!(
        outcome.failures.is_empty(),
        "{}: {:?}",
        workload.name(),
        outcome.failures
    );
    outcome
}

fn assert_repeats(workload: Workload) {
    let a = small(workload, 7);
    let b = small(workload, 7);
    assert_eq!(a.digest, b.digest, "{}: decision digest", workload.name());
    for metric in ["admit_ratio", "resident_bytes_per_conn"] {
        let (x, y) = (a.metric(metric), b.metric(metric));
        assert!(x.is_some(), "{}: {metric} reported", workload.name());
        assert_eq!(x, y, "{}: {metric}", workload.name());
    }
    let other = small(workload, 8);
    assert_ne!(
        a.digest,
        other.digest,
        "{}: the seed must reach the inputs",
        workload.name()
    );
}

#[test]
fn wire_p1_repeats_per_seed() {
    assert_repeats(Workload::WireP1);
}

#[test]
fn occupied_churn_repeats_per_seed() {
    assert_repeats(Workload::OccupiedChurn);
}

#[test]
fn deep_release_repeats_per_seed() {
    assert_repeats(Workload::DeepRelease);
}
