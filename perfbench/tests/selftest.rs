//! Tiny-scale self-tests of the benchmark. They assert on simulated
//! outputs, digests and metric names only, never on host time, so a
//! slower machine cannot fail them.

use perfbench::sim::Instance;
use perfbench::{Episode, Options, Report, Workload};
use simcore::Nanos;

/// A short episode per workload, enough for every client class to
/// complete requests.
fn tiny(w: Workload) -> Episode {
    let ms = match w {
        Workload::HttpBaseline => 2000,
        Workload::ConnContainers | Workload::TenantsSmpIo => 300,
        Workload::ClusterSparse => 1500,
    };
    Episode {
        length: Nanos::from_millis(ms),
        slices: 10,
    }
}

fn run(w: Workload, seed: u64, trace: bool) -> Report {
    perfbench::run(&Options {
        workload: w,
        seed,
        seconds: 0.0,
        trace,
        episode: tiny(w),
    })
}

/// `(name, unit)` of every metric listed under `section` in the
/// repository's `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn printed(r: &Report) -> Vec<(String, String)> {
    r.metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

fn assert_sound(w: Workload, r: &Report) {
    assert!(r.correct, "{}: {:?}", w.name(), r.errors);
    assert!(r.errors.is_empty());
    assert!(r.attempted > 0, "{}: no request attempted", w.name());
    assert_eq!(r.failed, 0, "{}: requests abandoned", w.name());
    for m in &r.metrics {
        assert!(
            m.value.is_finite(),
            "{}: {} = {}",
            w.name(),
            m.name,
            m.value
        );
    }
}

#[test]
fn every_workload_prints_every_end_to_end_metric() {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(
        names,
        [
            "http_baseline",
            "conn_containers",
            "tenants_smp_io",
            "cluster_sparse"
        ]
    );
    for w in Workload::ALL {
        let r = run(w, 1, false);
        assert_sound(w, &r);
        assert_eq!(printed(&r), declared("end_to_end"), "{}", w.name());
        for m in &r.metrics {
            assert!(m.value > 0.0, "{}: {} is zero", w.name(), m.name);
        }
    }
}

#[test]
fn every_workload_prints_every_per_layer_metric_and_passes_digest_checks() {
    for w in Workload::ALL {
        let r = run(w, 1, true);
        assert_sound(w, &r);
        assert_eq!(printed(&r), declared("per_layer"), "{}", w.name());
        assert_eq!(r.metric("rctrace.dropped"), Some(0.0), "{}", w.name());
        assert!(r.metric("simcore.events").unwrap() > 0.0);
        assert_eq!(r.slices.len(), tiny(w).slices as usize);
        let cluster = r.metric("simcluster.lane_pkts").unwrap() > 0.0;
        assert_eq!(cluster, w == Workload::ClusterSparse, "{}", w.name());
    }
}

#[test]
fn failed_frac_is_abandoned_over_attempted() {
    for w in Workload::ALL {
        let ep = tiny(w);
        let (mut attempted, mut abandoned) = (0, 0);
        for seed in perfbench::sub_seeds(5) {
            let mut inst = Instance::setup(w, seed, ep.length, None);
            for s in 1..=ep.slices {
                inst.step(Nanos::from_nanos(
                    ep.length.as_nanos() * s as u64 / ep.slices as u64,
                ));
            }
            let q = inst.requests();
            attempted += q.attempted;
            abandoned += q.abandoned;
        }
        let r = run(w, 5, true);
        assert_eq!((r.attempted, r.failed), (attempted, abandoned));
        let expect = abandoned as f64 / attempted as f64;
        assert_eq!(r.metric("failed_frac"), Some(expect), "{}", w.name());
    }
}

#[test]
fn same_seed_same_digest_other_seed_other_digest() {
    for w in Workload::ALL {
        let a = run(w, 7, false);
        let b = run(w, 7, false);
        let c = run(w, 8, false);
        assert_eq!(a.digest, b.digest, "{}: same seed", w.name());
        assert_ne!(a.digest, c.digest, "{}: other seed", w.name());
        assert_eq!(printed(&a), printed(&c));
        assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
    }
}

#[test]
fn result_line_is_one_json_object() {
    let r = run(Workload::HttpBaseline, 1, false);
    let line = r.json();
    assert!(line.starts_with("{\"correct\": true, \"attempted\": "));
    assert!(line.ends_with("}}"));
    assert!(!line.contains('\n'));
    for m in &r.metrics {
        assert!(line.contains(&format!("\"{}\": {{\"value\": ", m.name)));
    }
}
