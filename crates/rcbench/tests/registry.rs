//! Every scenario entry, run reduced twice in one process: the two
//! artifact sets must be byte-identical, every self-check must pass, and
//! no reduced artifact may share a path with a full-size run.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use rcbench::cli::driver::build;
use rcbench::cli::registry::{table, ScenarioArgs, ScenarioSpec};

/// The reduced argument sets each entry runs under: the defaults, plus a
/// uniprocessor `smp` run, whose checks differ (no migrations at all).
fn arg_sets(spec: &ScenarioSpec) -> Vec<ScenarioArgs> {
    let reduced = ScenarioArgs {
        reduced: true,
        ..ScenarioArgs::default()
    };
    let mut sets = vec![reduced.clone()];
    if spec.name == "smp" {
        sets.push(ScenarioArgs {
            ncpus: Some(1),
            ..reduced
        });
    }
    sets
}

fn check_run(spec: &ScenarioSpec, args: &ScenarioArgs) -> Result<(), String> {
    // Both runs name their artifacts by the same declared paths.
    let first = build(spec, args)?;
    let second = build(spec, args)?;
    for ((path, a), (_, b)) in first.artifacts.iter().zip(&second.artifacts) {
        if a != b {
            return Err(format!("{path} differs between two identical runs"));
        }
    }
    if let Some(c) = first.checks.iter().find(|c| !c.ok) {
        return Err(format!("{} check failed: {}", c.label, c.detail));
    }
    let full = spec.paths(&ScenarioArgs {
        reduced: false,
        ..args.clone()
    });
    if let Some((p, _)) = first.artifacts.iter().find(|(p, _)| full.contains(p)) {
        return Err(format!(
            "reduced run writes {p}, which a full run also writes"
        ));
    }
    Ok(())
}

#[test]
fn every_entry_is_deterministic_and_passes_its_checks_reduced() {
    let specs = table();
    let runs: Vec<(&ScenarioSpec, ScenarioArgs)> = specs
        .iter()
        .flat_map(|spec| arg_sets(spec).into_iter().map(move |args| (spec, args)))
        .collect();
    // rctrace sessions are thread-local, so runs can go side by side; one
    // worker per core bounds the artifacts held in memory at once.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get());
    let next = AtomicUsize::new(0);
    let failures = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..workers.min(runs.len()) {
            s.spawn(|| {
                while let Some((spec, args)) = runs.get(next.fetch_add(1, Ordering::Relaxed)) {
                    if let Err(e) = check_run(spec, args) {
                        failures
                            .lock()
                            .unwrap()
                            .push(format!("{} {args:?}: {e}", spec.name));
                    }
                }
            });
        }
    });
    let failures = failures.into_inner().unwrap();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
