//! The `rcbench` command-line interface.
//!
//! One binary whose subcommands are the entries of one scenario table
//! ([`registry::table`]) — the paper's Table 1 and figures and the
//! subsystem scenarios alike — all run by one generic driver
//! ([`driver`]) with per-entry flags, artifact validation and `--check`.
//! The only bespoke subcommand is `ab`, the same-seed policy A/B
//! harness.

mod ab;
pub mod driver;
mod figures;
pub mod registry;
mod span;
mod table1;

use std::process::ExitCode;

/// Runs one subcommand with already-split arguments.
pub fn dispatch(cmd: &str, args: &[String]) -> Result<(), String> {
    match cmd {
        "ab" => ab::run(args),
        "help" | "--help" | "-h" => {
            print_help();
            Ok(())
        }
        other => match registry::lookup(other) {
            Some(spec) => driver::run(&spec, args),
            None => Err(format!(
                "unknown subcommand '{other}' (run `rcbench help` for the list)"
            )),
        },
    }
}

/// Entry point of the `rcbench` binary: the first argument selects the
/// subcommand.
pub fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let Some(cmd) = args.next() else {
        print_help();
        return ExitCode::FAILURE;
    };
    match dispatch(&cmd, &args.collect::<Vec<_>>()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{cmd} run failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn print_help() {
    println!("rcbench <subcommand> [flags]\n");
    println!("scenarios (all take --reduced, an abbreviated run whose artifact");
    println!("names end in _reduced; other flags as listed):");
    for spec in registry::table() {
        println!("  {:<16} {}", spec.name, spec.about);
        if !spec.flags.is_empty() {
            println!("  {:<16}   {}", "", spec.flags.join(" "));
        }
    }
    println!("\n  {:<16} same-seed policy A/B diff", "ab");
    println!("                     --scenario span|qos --arms A,B --reduced --check");
    println!("                     --expect-identical");
}
