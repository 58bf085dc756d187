//! `munin-campaign` — run seed-replayable fault campaigns.
//!
//! ```text
//! munin-campaign --seed 42                 # one campaign on the simulator
//! munin-campaign --batch 150 --seed-base 0 # a CI batch
//! munin-campaign --seed 42 --gen-only      # print the plan TOML, don't run
//! munin-campaign --plan failure.toml       # replay a saved plan
//! munin-campaign --scenario tcp-kill       # a curated scenario
//! munin-campaign --list-scenarios
//! munin-campaign --list-targets            # every backend a campaign runs on
//! munin-campaign explore --budget 64       # coverage-guided exploration
//! ```
//!
//! `explore` runs the coverage-guided corpus loop: plans that fire
//! protocol-state transitions the run has not seen join the corpus and
//! are mutated. It prints the coverage report (write it to a file with
//! `--out`) and exits nonzero when a must-reach manifest goal stays
//! unreached or any explored plan fails its campaign checks.
//!
//! A failing campaign auto-shrinks to a locally minimal plan that still
//! fails, writes it to `--out` (if given), and prints the one-line repro.
//! Exit code: 0 all passed, 1 campaign failure, 2 usage error.

use munin_api::Backend;
use munin_campaign::exec::{
    campaign_backends, execute, parse_backend, supported, CampaignOutcome, ExecOptions,
};
use munin_campaign::explore::{explore, ExploreConfig};
use munin_campaign::gen::{generate_with, GenConfig};
use munin_campaign::plan::InteractionPlan;
use munin_campaign::scenario;
use munin_campaign::shrink::shrink_failing;
use munin_types::MuninConfig;
use std::process::ExitCode;

struct Args {
    explore: bool,
    budget: usize,
    seed: Option<u64>,
    batch: Option<u64>,
    seed_base: u64,
    backend: Backend,
    out: Option<String>,
    plan_file: Option<String>,
    scenario: Option<String>,
    list_scenarios: bool,
    list_targets: bool,
    export_scenario: Option<String>,
    gen_only: bool,
    allow_kill: bool,
    async_heavy: bool,
    shrink_budget: usize,
}

fn usage() -> &'static str {
    "usage: munin-campaign (--seed N | --batch K [--seed-base B] | --plan FILE | \
     --scenario NAME | --list-scenarios | --list-targets | --export-scenario NAME)\n\
     \x20       [--backend BACKEND] [--out FILE] [--gen-only]\n\
     \x20       [--allow-kill] [--async-heavy] [--shrink-budget K]\n\
     \x20  or:  munin-campaign explore [--budget N] [--seed N] [--backend BACKEND] [--out FILE]\n\
     \x20       BACKEND is a protocol on the simulator or TCP (e.g. tardis-tcp); see --list-targets"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        explore: false,
        budget: 64,
        seed: None,
        batch: None,
        seed_base: 0,
        backend: Backend::sim(MuninConfig::default()),
        out: None,
        plan_file: None,
        scenario: None,
        list_scenarios: false,
        list_targets: false,
        export_scenario: None,
        gen_only: false,
        allow_kill: false,
        async_heavy: false,
        shrink_budget: 400,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut val =
            |what: &str| it.next().ok_or_else(|| format!("{arg} needs a {what} argument"));
        match arg.as_str() {
            "explore" => args.explore = true,
            "--budget" => {
                args.budget = val("count")?.parse().map_err(|e| format!("--budget: {e}"))?
            }
            "--seed" => args.seed = Some(val("seed")?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--batch" => {
                args.batch = Some(val("count")?.parse().map_err(|e| format!("--batch: {e}"))?)
            }
            "--seed-base" => {
                args.seed_base = val("seed")?.parse().map_err(|e| format!("--seed-base: {e}"))?
            }
            "--backend" => args.backend = parse_backend(&val("backend")?)?,
            "--out" => args.out = Some(val("path")?),
            "--plan" => args.plan_file = Some(val("path")?),
            "--scenario" => args.scenario = Some(val("name")?),
            "--list-scenarios" => args.list_scenarios = true,
            "--list-targets" => args.list_targets = true,
            "--export-scenario" => args.export_scenario = Some(val("name")?),
            "--gen-only" => args.gen_only = true,
            "--allow-kill" => args.allow_kill = true,
            "--async-heavy" => args.async_heavy = true,
            "--shrink-budget" => {
                args.shrink_budget =
                    val("count")?.parse().map_err(|e| format!("--shrink-budget: {e}"))?
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    let modes = [
        // `explore` consumes --seed itself; --batch stays a separate mode.
        !args.explore && (args.seed.is_some() || args.batch.is_some()),
        args.explore,
        args.plan_file.is_some(),
        args.scenario.is_some(),
        args.list_scenarios,
        args.list_targets,
        args.export_scenario.is_some(),
    ];
    if modes.iter().filter(|m| **m).count() != 1 {
        return Err(format!("pick exactly one mode\n{}", usage()));
    }
    if args.explore && args.batch.is_some() {
        return Err(format!("explore and --batch are mutually exclusive\n{}", usage()));
    }
    Ok(args)
}

/// Shrink a failing plan, report the minimum, persist it if asked.
fn report_failure(args: &Args, plan: &InteractionPlan, out: &CampaignOutcome) {
    eprintln!("{}", out.verdict_line());
    for r in &out.reasons {
        eprintln!("  reason: {r}");
    }
    eprintln!("shrinking (budget {} executions)...", args.shrink_budget);
    let (min, spent) =
        shrink_failing(plan, &args.backend, &ExecOptions::default(), args.shrink_budget);
    eprintln!(
        "minimized after {spent} executions: {} round(s), {} fault(s), {} thread(s) on {} node(s)",
        min.rounds.len(),
        min.faults.len(),
        min.n_threads,
        min.n_nodes
    );
    let toml = min.to_toml();
    match &args.out {
        Some(path) => {
            match std::fs::write(path, &toml) {
                Ok(()) => eprintln!("minimized plan written to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
            if let Some(m) = &out.metrics {
                let mpath = format!("{path}.metrics.txt");
                match std::fs::write(&mpath, metrics_artifact(m)) {
                    Ok(()) => eprintln!("failing run's telemetry written to {mpath}"),
                    Err(e) => eprintln!("could not write {mpath}: {e}"),
                }
            }
        }
        None => eprint!("--- minimized plan ---\n{toml}--- end plan ---\n"),
    }
    eprintln!("repro: {}", plan.repro_line());
}

/// Telemetry artifact written next to a failing minimized plan: the metrics
/// exposition from the *original* failing run, followed by its remote-op
/// span tail — the causal timeline of the last ops each thread got through
/// before things went wrong.
fn metrics_artifact(m: &munin_api::MetricsSnapshot) -> String {
    use std::fmt::Write as _;
    let mut out = m.render_text();
    out.push_str("\n# span tail (oldest first; segments in us)\n");
    if m.spans_dropped > 0 {
        let _ = writeln!(out, "# {} older span halves overwritten", m.spans_dropped);
    }
    for s in &m.spans {
        let _ = write!(
            out,
            "t{} seq={} {}{} total={}us:",
            s.thread.0,
            s.seq,
            s.class.label(),
            if s.pipelined { " (pipelined)" } else { "" },
            s.total_us()
        );
        for (label, a, b) in s.segments() {
            let _ = write!(out, " {label}+{}", b.saturating_sub(a));
        }
        out.push('\n');
    }
    out
}

fn run_plan(args: &Args, plan: &InteractionPlan) -> Result<bool, String> {
    let out = execute(plan, &args.backend, &ExecOptions::default())?;
    if out.passed() {
        println!("{}", out.verdict_line());
        Ok(true)
    } else {
        report_failure(args, plan, &out);
        Ok(false)
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &Args) -> Result<bool, String> {
    if args.list_scenarios {
        for s in scenario::all() {
            println!("{:-16} [{}] {}", s.name, s.backend.cli_name(), s.about);
        }
        return Ok(true);
    }
    if args.list_targets {
        for b in campaign_backends() {
            let here = match supported(&b) {
                Ok(()) => "",
                Err(_) => " (unsupported here)",
            };
            println!("{:-12} {}{}", b.cli_name(), b.name(), here);
        }
        return Ok(true);
    }
    if let Some(name) = &args.export_scenario {
        let s = scenario::find(name).ok_or_else(|| format!("no scenario named `{name}`"))?;
        print!("{}", s.toml());
        return Ok(true);
    }
    if let Some(name) = &args.scenario {
        let s = scenario::find(name).ok_or_else(|| format!("no scenario named `{name}`"))?;
        supported(&s.backend)?;
        let out = scenario::run(&s, &ExecOptions::default())?;
        println!("scenario {name}: expectations met ({})", out.verdict_line());
        return Ok(true);
    }
    supported(&args.backend)?;
    let gen_cfg = GenConfig {
        allow_permanent: args.allow_kill,
        async_heavy: args.async_heavy,
        ..GenConfig::default()
    };
    if args.explore {
        let cfg = ExploreConfig {
            backend: args.backend.clone(),
            budget: args.budget,
            gen: gen_cfg,
            opts: ExecOptions::default(),
        };
        let report = explore(args.seed.unwrap_or(0), &cfg)?;
        let text = report.to_text();
        print!("{text}");
        if let Some(path) = &args.out {
            std::fs::write(path, &text).map_err(|e| format!("could not write {path}: {e}"))?;
            eprintln!("coverage report written to {path}");
        }
        if !report.all_goals_reached() {
            eprintln!("explore: must-reach goals unreached — failing");
        }
        for (plan, _) in &report.failures {
            eprintln!("failing plan TOML:\n{}", plan.to_toml());
        }
        return Ok(report.passed());
    }
    if let Some(path) = &args.plan_file {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
        let plan = InteractionPlan::from_toml(&text)?;
        return run_plan(args, &plan);
    }
    if let Some(batch) = args.batch {
        let (mut failures, mut pipelined_faults) = (0u64, 0u64);
        for seed in args.seed_base..args.seed_base + batch {
            let plan = generate_with(seed, &gen_cfg);
            let out = execute(&plan, &args.backend, &ExecOptions::default())?;
            pipelined_faults += out.pipelined_faults;
            if out.passed() {
                println!("{}", out.verdict_line());
            } else {
                failures += 1;
                report_failure(args, &plan, &out);
            }
        }
        println!(
            "batch done: {}/{batch} passed on {}; {pipelined_faults} injected fault(s) landed \
             while a thread had 2+ ops in flight",
            batch - failures,
            args.backend.cli_name()
        );
        return Ok(failures == 0);
    }
    let seed = args.seed.expect("mode check guarantees a seed");
    let plan = generate_with(seed, &gen_cfg);
    if args.gen_only {
        print!("{}", plan.to_toml());
        return Ok(true);
    }
    run_plan(args, &plan)
}
