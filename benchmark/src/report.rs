//! Printing, result files, and the two judgements the benchmark makes about
//! its own numbers: `compare` (one set against another, under the bounds)
//! and `spread` (run-to-run spread over seeds, the way the driver takes it).

use crate::harness::{Opts, RunOut};
use crate::json::Json;
use crate::spec::{Metric, Spec};
use crate::stats;
use std::time::Instant;

fn unit<'a>(spec: &'a Spec, name: &str) -> &'a str {
    spec.end_to_end
        .iter()
        .chain(&spec.per_layer)
        .find(|m| m.name == name)
        .map_or("", |m| m.unit.as_str())
}

/// One line per metric: `workload name value unit`, then quartiles and
/// sample count where the value summarises several samples.
pub fn print_metrics(spec: &Spec, workload: &str, out: &RunOut) {
    for (name, st) in &out.metrics {
        let detail = if st.n > 1 {
            format!("   (q1 {:.6}, q3 {:.6}, n {})", st.q1, st.q3, st.n)
        } else {
            String::new()
        };
        println!("{workload} {name} {:.6} {}{detail}", st.value, unit(spec, name));
    }
    println!("{workload} failed {} of {} checked operations", out.failed, out.attempted);
    for note in &out.notes {
        eprintln!("{workload}: FAILED: {note}");
    }
}

/// The driver's result line.
pub fn result_line(spec: &Spec, out: &RunOut) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.failed == 0)),
        ("attempted", Json::Num(out.attempted as f64)),
        ("failed", Json::Num(out.failed as f64)),
        (
            "metrics",
            Json::obj(out.metrics.iter().map(|(name, st)| {
                let body = [("value", Json::Num(st.value)), ("unit", Json::str(unit(spec, name)))];
                (name.as_str(), Json::obj(body))
            })),
        ),
    ])
}

/// One run of one workload in a process of its own, as the driver runs it
/// (so peak memory and the heap start fresh). The child's metric lines are
/// passed through when `echo` is set; its result line comes back parsed.
fn child_run(workload: &str, trace: bool, opts: &Opts, echo: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = std::process::Command::new(&exe);
    command
        .args(["run", "--workload", workload, "--trace", if trace { "1" } else { "0" }])
        .args(["--seed", &opts.seed.to_string(), "--seconds", &opts.seconds.to_string()])
        .arg("--out")
        .arg(&opts.out_dir);
    if opts.quick {
        command.arg("--quick");
    }
    // stderr is inherited: what failed, and why, reaches the operator.
    let child = command
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&child.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines.pop().unwrap_or_default();
    if echo {
        lines.iter().for_each(|l| println!("{l}"));
    }
    Json::parse(last).map_err(|e| format!("{workload} seed {}: no result line ({e})", opts.seed))
}

fn metric_value(result: &Json, name: &str) -> Option<f64> {
    result.get("metrics")?.get(name)?.get("value")?.as_f64()
}

fn count(result: &Json, key: &str) -> f64 {
    result.get(key).and_then(Json::as_f64).unwrap_or(0.0)
}

/// Every workload, `runs` untraced runs (seeds `seed`, `seed + 1`, ...) and
/// one traced run, each in a process of its own; prints every metric, writes
/// `<out>/result.json` (an end-to-end value is the median over the runs) and
/// the trace files. `false` if anything failed or a wall-time guard tripped.
pub fn run_all(spec: &Spec, opts: &Opts, runs: usize) -> Result<bool, String> {
    let began = Instant::now();
    println!(
        "# closed loop, 2 nodes, 1 application thread per node, all from one coordinator process \
         confined to one CPU; TCP is loopback on one host, not a real link"
    );
    let mut ok = true;
    let mut workloads = Vec::new();
    for (name, _) in &spec.workloads {
        let (mut attempted, mut failed) = (0.0, 0.0);
        let mut tally = |result: &Json| {
            attempted += count(result, "attempted");
            failed += count(result, "failed");
        };
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        for run in 0..runs as u64 {
            let run_opts = Opts { seed: opts.seed + run, trace: false, ..opts.clone() };
            let result = child_run(name, false, &run_opts, true)?;
            tally(&result);
            for (slot, m) in values.iter_mut().zip(&spec.end_to_end) {
                slot.push(metric_value(&result, &m.name).ok_or(format!("{name}: no {}", m.name))?);
            }
        }
        let traced = child_run(name, true, opts, true)?;
        tally(&traced);
        ok &= failed == 0.0;
        let end_to_end = spec.end_to_end.iter().zip(&values).map(|(m, v)| {
            let body = [
                ("value", Json::Num(stats::median(v))),
                ("unit", Json::str(m.unit.as_str())),
                ("runs", Json::Arr(v.iter().map(|x| Json::Num(*x)).collect())),
            ];
            (m.name.as_str(), Json::obj(body))
        });
        workloads.push((
            name.as_str(),
            Json::obj([
                ("attempted", Json::Num(attempted)),
                ("failed", Json::Num(failed)),
                ("end_to_end", Json::obj(end_to_end)),
                ("per_layer", traced.get("metrics").cloned().unwrap_or(Json::Null)),
            ]),
        ));
    }
    let wall = began.elapsed().as_secs_f64();
    // Per workload `runs` + 1 passes, each with set-up, probes and teardown.
    let budget = spec.workloads.len() as f64 * (runs + 1) as f64 * (opts.seconds + 8.0);
    println!("# whole run {wall:.1} s (budget {budget:.0} s)");
    if wall > budget {
        eprintln!("benchmark: the whole run took {wall:.1} s, over its budget of {budget:.0} s");
        ok = false;
    }
    let result = Json::obj([
        ("host", crate::host::fingerprint()),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("runs", Json::Num(runs as f64)),
        ("quick", Json::Bool(opts.quick)),
        ("sizes", sizes()),
        ("wall_s", Json::Num(wall)),
        ("workloads", Json::obj(workloads)),
    ]);
    let path = opts.out_dir.join("result.json");
    std::fs::create_dir_all(&opts.out_dir)
        .and_then(|()| std::fs::write(&path, result.pretty()))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("# wrote {}", path.display());
    Ok(ok)
}

/// The fixed work behind the numbers.
fn sizes() -> Json {
    use crate::{apps, bulk, counter, pipeline};
    let n = |x: u64| Json::Num(x as f64);
    Json::obj([
        ("nodes", n(crate::harness::NODES as u64)),
        ("counter_rt.ops_per_worker_per_segment", n(counter::OPS_PER_SEGMENT_RT)),
        ("counter_tcp.ops_per_worker_per_segment", n(counter::OPS_PER_SEGMENT_TCP)),
        ("counter.warmup_ops", n(counter::WARMUP_OPS)),
        ("pipeline_tcp.rounds_per_segment", n(pipeline::ROUNDS_PER_SEGMENT)),
        ("pipeline_tcp.stores_per_round", n(pipeline::STORES_PER_ROUND as u64)),
        ("pipeline_tcp.fetch_adds_per_round", n(pipeline::FETCH_ADDS_PER_ROUND)),
        ("bulk_tcp.rounds_per_segment", n(bulk::ROUNDS_PER_SEGMENT)),
        ("bulk_tcp.bytes_per_worker_per_round", n(bulk::HALF_BYTES)),
        ("apps", apps::sizes()),
    ])
}

/// Is `b` worse than `a` by more than `bound`, in the metric's direction?
pub fn worse_by(m: &Metric, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return 0.0;
    }
    let change = (b - a) / a.abs();
    if m.higher_is_better {
        -change
    } else {
        change
    }
}

/// Per workload and end-to-end metric: both medians, the relative change and
/// the bound. `false` past a bound or on more failures.
pub fn compare(spec: &Spec, a_path: &str, b_path: &str) -> Result<bool, String> {
    let load = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut ok = true;
    println!(
        "{:<14} {:<18} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (workload, _) in &spec.workloads {
        let side = |root: &Json| root.get("workloads").and_then(|w| w.get(workload)).cloned();
        let (Some(wa), Some(wb)) = (side(&a), side(&b)) else {
            println!("{workload:<14} missing from one side");
            ok = false;
            continue;
        };
        let failed = |w: &Json| w.get("failed").and_then(Json::as_f64).unwrap_or(f64::MAX);
        if failed(&wb) > failed(&wa) {
            println!("{workload:<14} failed operations rose: {} -> {}", failed(&wa), failed(&wb));
            ok = false;
        }
        for m in &spec.end_to_end {
            let value =
                |w: &Json| w.get("end_to_end")?.get(&m.name)?.get("value").and_then(Json::as_f64);
            let (Some(va), Some(vb)) = (value(&wa), value(&wb)) else {
                println!("{workload:<14} {:<14} missing from one side", m.name);
                ok = false;
                continue;
            };
            let worse = worse_by(m, va, vb);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = if worse > bound { "  WORSE" } else { "" };
            ok &= worse <= bound;
            println!(
                "{workload:<14} {:<14} {va:>16.6} {vb:>16.6} {:>+8.2}% {:>6.0}%{verdict}",
                m.name,
                (vb - va) / va.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
            );
        }
    }
    Ok(ok)
}

/// Run each workload `runs` times untraced, each in a process of its own
/// and with another seed (as the driver does), and print for each end-to-end
/// metric the median and the interquartile spread as a share of it, next to
/// the bound. `false` if a spread (other than `setup_s`'s) exceeds its bound.
pub fn spread(spec: &Spec, runs: usize, opts: &Opts, only: Option<&str>) -> Result<bool, String> {
    let mut ok = true;
    println!("{:<14} {:<14} {:>16} {:>8} {:>7}", "workload", "metric", "median", "spread", "bound");
    for (workload, _) in spec.workloads.iter().filter(|(w, _)| only.is_none_or(|o| o == w)) {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); spec.end_to_end.len()];
        for seed in 1..=runs as u64 {
            let result = child_run(workload, false, &Opts { seed, ..opts.clone() }, false)?;
            ok &= result.get("correct") == Some(&Json::Bool(true));
            for (slot, m) in values.iter_mut().zip(&spec.end_to_end) {
                slot.push(
                    metric_value(&result, &m.name).ok_or(format!("{workload}: no {}", m.name))?,
                );
            }
        }
        for (m, v) in spec.end_to_end.iter().zip(&values) {
            let spread = stats::spread(v);
            let bound = m.bound.unwrap_or(0.0);
            let verdict = match () {
                _ if m.name == "setup_s" => "",
                _ if spread > bound => "  OVER BOUND",
                _ if spread > bound / 3.0 => "  over a third of the bound",
                _ => "",
            };
            ok &= m.name == "setup_s" || spread <= bound;
            println!(
                "{workload:<14} {:<14} {:>16.6} {:>7.2}% {:>6.0}%{verdict}",
                m.name,
                stats::median(v),
                spread * 100.0,
                bound * 100.0
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(higher: bool) -> Metric {
        Metric { name: "m".into(), unit: "u".into(), higher_is_better: higher, bound: Some(0.1) }
    }

    #[test]
    fn worse_by_follows_the_direction() {
        assert!((worse_by(&metric(true), 100.0, 80.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&metric(true), 100.0, 120.0) + 0.2).abs() < 1e-12);
        assert!((worse_by(&metric(false), 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worse_by(&metric(false), 10.0, 9.0) + 0.1).abs() < 1e-12);
        assert_eq!(worse_by(&metric(false), 0.0, 5.0), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = Spec::parse(
            r#"{"paths": ["benchmark"], "run_seconds": 1, "workloads": [],
                "end_to_end": [{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
                "per_layer": []}"#,
        )
        .unwrap();
        let mut out = RunOut { attempted: 7, ..RunOut::default() };
        out.num("setup_s", 0.0625);
        let line = result_line(&spec, &out).to_string();
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 7, "failed": 0, "metrics": {"setup_s": {"value": 0.0625, "unit": "s"}}}"#
        );
    }
}
