//! The generic driver behind every scenario entry: parse the flags the
//! entry reads, run it, build its validated artifact set, write it, and
//! enforce `--check`.
//!
//! Artifacts follow one convention ([`ScenarioSpec::paths`]): each text
//! report is `results/<report>.txt`; a traced entry adds the Chrome trace
//! `results/<base>.json` and either the metrics dump
//! `results/<base>_metrics.json` or, for the cluster, the deterministic
//! state dump `results/<base>_dump.txt` plus the structured result
//! `results/<base>_result.json`. Every JSON artifact is round-tripped
//! through the crate's parser and checked for the entry's marker
//! substrings before anything touches disk.

use std::str::FromStr;

use rctrace::json::{f64_string, quote};
use workload::scenarios::cluster_tenants::MAX_CLIENTS_PER_TENANT;
use workload::scenarios::ClusterTenantsResult;

use super::registry::{Check, Outcome, ScenarioArgs, ScenarioSpec, Trace, TraceKind};
use crate::json;

/// A parsed command line for one entry.
#[derive(Debug, Default)]
struct Invocation {
    /// Arguments for the entry's runner.
    args: ScenarioArgs,
    /// Enforce the entry's self-checks.
    check: bool,
}

/// One run's validated artifacts, not yet written, plus its self-checks.
pub struct Run {
    /// `(path, contents)` pairs, in write order.
    pub artifacts: Vec<(String, String)>,
    /// The entry's self-checks.
    pub checks: Vec<Check>,
    /// Message printed when every check passes under `--check`.
    pub check_ok: &'static str,
}

impl Run {
    /// `Ok` if every self-check passed; otherwise an error that lists
    /// every failed check's label and detail.
    pub fn verdict(&self) -> Result<(), String> {
        let failed: Vec<String> = self
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| format!("\n  {}: {}", c.label, c.detail))
            .collect();
        if failed.is_empty() {
            return Ok(());
        }
        Err(format!(
            "{} of {} checks failed:{}",
            failed.len(),
            self.checks.len(),
            failed.concat()
        ))
    }
}

pub(crate) fn run(spec: &ScenarioSpec, argv: &[String]) -> Result<(), String> {
    let inv = parse(spec, argv)?;
    let run = build(spec, &inv.args)?;
    write(&run)?;
    if inv.check {
        run.verdict()?;
        println!("check ok: {}", run.check_ok);
    }
    Ok(())
}

/// Parses `argv` against the flags `spec` reads. Any other flag, any
/// zero count, and more clients than a tenant has unique addresses for
/// are errors that name the flag.
fn parse(spec: &ScenarioSpec, argv: &[String]) -> Result<Invocation, String> {
    let mut inv = Invocation::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        if flag != "--reduced" && !spec.flags.contains(&flag.as_str()) {
            return Err(format!("`{}` does not take {flag}", spec.name));
        }
        match flag.as_str() {
            "--reduced" => inv.args.reduced = true,
            "--check" => inv.check = true,
            "--seed" => inv.args.seed = Some(number(&mut it, flag)?),
            "--ncpus" => inv.args.ncpus = Some(count(&mut it, flag)?),
            "--clients" => {
                let n = count(&mut it, flag)?;
                if n > MAX_CLIENTS_PER_TENANT {
                    return Err(format!("{flag} must be at most {MAX_CLIENTS_PER_TENANT}"));
                }
                inv.args.clients = Some(n);
            }
            "--nodes" => inv.args.nodes = Some(count(&mut it, flag)?),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(inv)
}

fn number<'a, T: FromStr>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    it.next()
        .ok_or_else(|| format!("{flag} requires a value"))?
        .parse()
        .map_err(|_| format!("{flag} requires a number"))
}

/// A number that must be at least 1.
fn count<'a, T: FromStr + Default + PartialEq>(
    it: &mut impl Iterator<Item = &'a String>,
    flag: &str,
) -> Result<T, String> {
    let n: T = number(it, flag)?;
    if n == T::default() {
        return Err(format!("{flag} must be at least 1"));
    }
    Ok(n)
}

/// Runs `spec` and builds its validated artifact set, named by
/// [`ScenarioSpec::paths`]. Prints the headline and reports; writes
/// nothing.
pub fn build(spec: &ScenarioSpec, args: &ScenarioArgs) -> Result<Run, String> {
    let outcome = (spec.run)(args)?;
    for line in &outcome.headline {
        println!("{line}");
    }
    let mut contents: Vec<String> = outcome.reports.iter().map(|r| r.render()).collect();
    for text in &contents {
        println!("{text}");
    }
    if let Some(trace) = &spec.trace {
        contents.extend(trace_artifacts(trace, &outcome)?);
    }
    let paths = spec.paths(args);
    if paths.len() != contents.len() {
        return Err(format!(
            "{} artifacts produced but {} declared",
            contents.len(),
            paths.len()
        ));
    }
    Ok(Run {
        artifacts: paths.into_iter().zip(contents).collect(),
        checks: outcome.checks,
        check_ok: outcome.check_ok,
    })
}

/// Renders and validates the trace artifacts, in [`ScenarioSpec::paths`]
/// order.
fn trace_artifacts(trace: &Trace, outcome: &Outcome) -> Result<Vec<String>, String> {
    match trace.kind {
        TraceKind::Metrics(markers) => {
            let session = outcome
                .session
                .as_ref()
                .ok_or("no trace session captured")?;
            let chrome = rctrace::chrome_trace_json(session);
            let metrics = rctrace::metrics_json(session);
            let n_events = validate_chrome(&chrome, trace.chrome)?;
            validate_metrics(&metrics, markers)?;
            println!(
                "chrome trace: {n_events} events ({} emitted, {} dropped)",
                session.trace.emitted, session.trace.dropped
            );
            Ok(vec![chrome, metrics])
        }
        TraceKind::Cluster => {
            let cluster = outcome.cluster.as_ref().ok_or("no cluster result")?;
            let chrome = rctrace::cluster_chrome_trace_json(&outcome.cluster_sessions);
            let n_events = validate_chrome(&chrome, trace.chrome)?;
            let result = cluster_result_json(cluster);
            json::parse(&result).map_err(|e| format!("cluster result not valid JSON: {e}"))?;
            println!(
                "chrome trace: {n_events} events across {} node tracks",
                outcome.cluster_sessions.len()
            );
            Ok(vec![chrome, cluster.dump.clone(), result])
        }
    }
}

/// A cluster run's structured result as one JSON object: the fields in
/// declaration order, each `(tenant, node)` pair as a two-element array
/// and the state dump as a string.
fn cluster_result_json(r: &ClusterTenantsResult) -> String {
    fn list<T>(xs: &[T], item: impl Fn(&T) -> String) -> String {
        format!("[{}]", xs.iter().map(item).collect::<Vec<_>>().join(","))
    }
    let floats = |xs: &Vec<f64>| list(xs, |&x| f64_string(x));
    let pairs = |ps: &Vec<(usize, u32)>| list(ps, |(t, n)| format!("[{t},{n}]"));
    format!(
        "{{\"nodes\":{},\"clients\":{},\"configured\":{},\"measured\":{},\
         \"epoch_split\":{},\"placements\":{},\"drains\":{},\"replicas\":{},\
         \"throughputs\":{},\"total_throughput\":{},\"lane_busy_ns\":{},\
         \"tx_wire_ns\":{},\"conserved\":{},\"forwarded\":{},\"assigned\":{},\
         \"unroutable\":{},\"sim_events\":{},\"dump\":{}}}",
        r.nodes,
        r.clients,
        floats(&r.configured),
        floats(&r.measured),
        list(&r.epoch_split, floats),
        pairs(&r.placements),
        pairs(&r.drains),
        list(&r.replicas, usize::to_string),
        floats(&r.throughputs),
        f64_string(r.total_throughput),
        r.lane_busy_ns,
        r.tx_wire_ns,
        r.conserved,
        r.forwarded,
        r.assigned,
        r.unroutable,
        r.sim_events,
        quote(&r.dump),
    )
}

/// Writes every artifact of `run`.
fn write(run: &Run) -> Result<(), String> {
    std::fs::create_dir_all("results").map_err(|e| format!("results/: {e}"))?;
    for (path, contents) in &run.artifacts {
        std::fs::write(path, contents).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(())
}

/// Round-trips a Chrome trace through the JSON parser, requires a
/// non-empty `traceEvents` array, and checks the marker substrings.
/// Returns the event count.
fn validate_chrome(chrome: &str, markers: &[&str]) -> Result<usize, String> {
    let parsed = json::parse(chrome).map_err(|e| format!("chrome trace not valid JSON: {e}"))?;
    let n_events = parsed
        .get("traceEvents")
        .and_then(|v| v.as_array())
        .map(|a| a.len())
        .ok_or("chrome trace missing traceEvents array")?;
    if n_events == 0 {
        return Err("chrome trace is empty".into());
    }
    for m in markers {
        if !chrome.contains(m) {
            return Err(format!("chrome trace missing expected marker {m:?}"));
        }
    }
    Ok(n_events)
}

/// Round-trips a metrics dump through the JSON parser and checks the
/// marker substrings.
fn validate_metrics(metrics: &str, markers: &[&str]) -> Result<(), String> {
    json::parse(metrics).map_err(|e| format!("metrics dump not valid JSON: {e}"))?;
    for m in markers {
        if !metrics.contains(m) {
            return Err(format!("metrics dump missing expected marker {m:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::registry::lookup;
    use super::*;

    fn parse_args(entry: &str, argv: &[&str]) -> Result<Invocation, String> {
        let spec = lookup(entry).expect("registered entry");
        let argv: Vec<String> = argv.iter().map(|a| a.to_string()).collect();
        parse(&spec, &argv)
    }

    #[test]
    fn flags_an_entry_does_not_read_are_rejected_by_name() {
        let err = parse_args("disk", &["--nodes", "3", "--seed", "9"]).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        let err = parse_args("disk", &["--seed", "9"]).unwrap_err();
        assert!(err.contains("--seed"), "{err}");
        let err = parse_args("fig12_13", &["--check"]).unwrap_err();
        assert!(err.contains("--check"), "{err}");
        assert!(parse_args("fault", &["--seed", "9", "--reduced"]).is_ok());
    }

    #[test]
    fn zero_counts_are_rejected_by_name() {
        let err = parse_args("smp", &["--ncpus", "0"]).unwrap_err();
        assert!(err.contains("--ncpus"), "{err}");
        let err = parse_args("cluster", &["--clients", "0"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        // Past 2^24 a tenant's client addresses would repeat.
        let err = parse_args("cluster", &["--clients", "16777217"]).unwrap_err();
        assert!(err.contains("--clients"), "{err}");
        let inv = parse_args("cluster", &["--clients", "16777216"]).unwrap();
        assert_eq!(inv.args.clients, Some(1 << 24));
        let err = parse_args("cluster", &["--nodes", "0"]).unwrap_err();
        assert!(err.contains("--nodes"), "{err}");
        let inv = parse_args("smp", &["--ncpus", "2", "--check"]).unwrap();
        assert_eq!(inv.args.ncpus, Some(2));
        assert!(inv.check);
        // A seed is not a count.
        assert_eq!(
            parse_args("fault", &["--seed", "0"]).unwrap().args.seed,
            Some(0)
        );
    }

    #[test]
    fn chrome_trace_missing_a_marker_fails() {
        let chrome = r#"{"traceEvents":[{"name":"cpu","ph":"X"}]}"#;
        assert_eq!(validate_chrome(chrome, &["cpu"]), Ok(1));
        let err = validate_chrome(chrome, &["\"link\""]).unwrap_err();
        assert!(err.contains("marker"), "{err}");
        assert!(validate_chrome(r#"{"traceEvents":[]}"#, &[]).is_err());
    }

    #[test]
    fn a_failed_check_run_names_every_failed_check() {
        let run = Run {
            artifacts: Vec::new(),
            checks: vec![
                Check::new("share", false, "configured 70% but measured 61.0%".into()),
                Check::new("routable", true, "0 packets had no route".into()),
                Check::new("migrations", false, "balancer never migrated".into()),
            ],
            check_ok: "",
        };
        let err = run.verdict().unwrap_err();
        assert!(err.starts_with("2 of 3 checks failed"), "{err}");
        assert!(
            err.contains("share: configured 70% but measured 61.0%"),
            "{err}"
        );
        assert!(err.contains("migrations: balancer never migrated"), "{err}");
        assert!(!err.contains("routable"), "{err}");
        let passed = Run {
            checks: vec![run.checks[1].clone()],
            ..run
        };
        assert_eq!(passed.verdict(), Ok(()));
    }

    #[test]
    fn cluster_result_json_keeps_its_bytes() {
        let r = ClusterTenantsResult {
            nodes: 3,
            clients: 192,
            configured: vec![0.7, 0.3],
            measured: vec![0.6981234567890123, f64::NAN],
            epoch_split: vec![vec![0.5, 0.5], vec![], vec![1e-7, 12345678901234.5]],
            placements: vec![(1, 2), (0, 0)],
            drains: vec![],
            replicas: vec![2, 1],
            throughputs: vec![1234.5, -0.0],
            total_throughput: f64::INFINITY,
            lane_busy_ns: 1_000_000_007,
            tx_wire_ns: u64::MAX,
            conserved: true,
            forwarded: 42,
            assigned: 0,
            unroutable: 7,
            sim_events: 123_456,
            dump: "cluster clock=1\n\"q\"\t\\ \u{1}\r é".into(),
        };
        assert_eq!(
            cluster_result_json(&r),
            r#"{"nodes":3,"clients":192,"configured":[0.7,0.3],"measured":[0.6981234567890123,null],"epoch_split":[[0.5,0.5],[],[0.0000001,12345678901234.5]],"placements":[[1,2],[0,0]],"drains":[],"replicas":[2,1],"throughputs":[1234.5,-0],"total_throughput":null,"lane_busy_ns":1000000007,"tx_wire_ns":18446744073709551615,"conserved":true,"forwarded":42,"assigned":0,"unroutable":7,"sim_events":123456,"dump":"cluster clock=1\n\"q\"\t\\ \u0001\r é"}"#
        );
    }

    #[test]
    fn metrics_dump_that_is_not_json_fails() {
        assert!(validate_metrics(r#"{"mem":{}}"#, &["\"mem\""]).is_ok());
        let err = validate_metrics(r#"{"mem":"#, &[]).unwrap_err();
        assert!(err.contains("not valid JSON"), "{err}");
    }
}
