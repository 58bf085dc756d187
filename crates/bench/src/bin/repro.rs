//! Regenerate every table/figure of the Munin paper's evaluation content.
//!
//! ```text
//! repro all            # everything
//! repro e1 e5 e13      # selected experiments
//! repro --quick all    # reduced scales (tests/golden/repro_quick.txt)
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let selected: Vec<String> =
        args.iter().filter(|a| !a.starts_with("--")).map(|a| a.to_lowercase()).collect();
    let want = |id: &str| selected.is_empty() || selected.iter().any(|s| s == "all" || s == id);

    let tables = munin_bench::run_experiments(quick, want);
    for t in &tables {
        println!("{t}");
    }
    eprintln!("done: {} experiment(s).", tables.len());
}
