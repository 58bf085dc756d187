//! The DSM benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark run --workload W --seed N --seconds S --trace 0|1   one run, result line last
//! benchmark all [--seed N] [--seconds S] [--runs N] [--quick]   every workload, both passes
//! benchmark compare A.json B.json                               two result files against the bounds
//! benchmark spread [--runs N] [--seconds S] [--workload W]      run-to-run spread over N seeds
//! ```

mod apps;
mod bulk;
mod counter;
mod harness;
mod host;
mod json;
mod pipeline;
mod probes;
mod report;
mod spans;
mod spec;
mod stats;

use harness::{Opts, RunOut};
use spec::Spec;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// No single run of one workload may take this long, set-up included.
const WORKLOAD_WALL_CAP_S: f64 = 30.0;

/// Run one workload once. In a traced run the layer probes ride along and
/// every per-layer metric the workload has no such quantity for reads 0.
pub fn run_workload(spec: &Spec, name: &str, opts: &Opts) -> Result<RunOut, String> {
    let began = Instant::now();
    let mut out = match name {
        "counter_rt" => counter::run("munin-rt", opts),
        "counter_tcp" => counter::run("munin-tcp", opts),
        "pipeline_tcp" => pipeline::run(opts),
        "bulk_tcp" => bulk::run(opts),
        "apps_tcp" => apps::run(apps::Fabric::Tcp, opts),
        "apps_sim" => apps::run(apps::Fabric::Sim, opts),
        other => return Err(format!("unknown workload `{other}`")),
    };
    if opts.trace {
        let probe_spans = probes::run(&mut out);
        write_trace(opts, &format!("{name}-probes"), &probe_spans);
    }
    let wall = began.elapsed().as_secs_f64();
    let cap = WORKLOAD_WALL_CAP_S.max(3.0 * opts.seconds);
    out.check(wall < cap, || format!("{name} took {wall:.1} s, the cap is {cap:.0} s"));
    spec.complete(&mut out, opts.trace)?;
    Ok(out)
}

/// Write a traced pass's spans to `<out>/trace-<name>.jsonl`.
pub fn write_trace(opts: &Opts, name: &str, spans: &[spans::Span]) {
    let path = opts.out_dir.join(format!("trace-{name}.jsonl"));
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| spans::write_jsonl(&path, spans))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
}

/// The environment the numbers need: loopback sockets and the `munin-node`
/// binary. Anything missing is a hard error, not a silent "nothing to
/// measure". Then confine the process, and everything it will start, to one
/// CPU (see [`host::confine_to_one_cpu`] for why).
fn preflight() -> Result<(), String> {
    munin_api::tcp_support()?;
    host::confine_to_one_cpu();
    Ok(())
}

struct Args(Vec<String>);

impl Args {
    fn flag(&mut self, name: &str) -> bool {
        let before = self.0.len();
        self.0.retain(|a| a != name);
        self.0.len() != before
    }

    fn value(&mut self, name: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == name) else { return Ok(None) };
        if i + 1 >= self.0.len() {
            return Err(format!("{name} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn number<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.value(name)? {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{name}: `{v}` is not a number")),
        }
    }

    fn done(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option `{unknown}`")),
            None => Ok(self.0),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let mut args = Args(std::env::args().skip(1).collect());
    if args.0.is_empty() {
        return Err("usage: benchmark run|all|compare|spread ... (see benchmark/README.md)".into());
    }
    let command = args.0.remove(0);
    let spec = Spec::load()?;
    let out_dir = PathBuf::from(
        args.value("--out")?
            .unwrap_or_else(|| format!("{}/out", spec.paths[0].trim_end_matches('/'))),
    );
    let seed = args.number("--seed", 1u64)?;
    match command.as_str() {
        "run" => {
            let workload = args.value("--workload")?.ok_or("run needs --workload")?;
            let seconds = args.number("--seconds", spec.run_seconds)?;
            let trace = args.number("--trace", 0u8)? != 0;
            let quick = args.flag("--quick");
            args.done()?;
            preflight()?;
            let opts = Opts { seed, seconds, trace, quick, out_dir };
            let out = run_workload(&spec, &workload, &opts)?;
            report::print_metrics(&spec, &workload, &out);
            // Exit 0 whenever there is a result line: a failed operation is
            // reported in it (`correct`, `failed`), not by the exit code.
            println!("{}", report::result_line(&spec, &out));
            Ok(true)
        }
        "all" => {
            let quick = args.flag("--quick");
            let seconds = args.number("--seconds", if quick { 1.0 } else { spec.run_seconds })?;
            let runs = args.number("--runs", 1usize)?.max(1);
            args.done()?;
            report::run_all(&spec, &Opts { seed, seconds, trace: false, quick, out_dir }, runs)
        }
        "compare" => {
            let files = args.done()?;
            let [a, b] = files.as_slice() else { return Err("compare needs two files".into()) };
            report::compare(&spec, a, b)
        }
        "spread" => {
            let runs = args.number("--runs", 10usize)?;
            let seconds = args.number("--seconds", spec.run_seconds)?;
            let only = args.value("--workload")?;
            args.done()?;
            let opts = Opts { seed, seconds, trace: false, quick: false, out_dir };
            report::spread(&spec, runs, &opts, only.as_deref())
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
