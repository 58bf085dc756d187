//! The paper's evaluation as one exact ledger: `repro --quick all` (E1-E15
//! at quick scale) asserted byte for byte against
//! `tests/golden/repro_quick.txt`.
//!
//! Every experiment runs on the deterministic simulator, so a changed
//! number is a change in protocol behaviour or in the cost model, never
//! noise. The shape tests next to each experiment say *why* a row matters;
//! this one says that it did not move. A change that means to move the
//! numbers regenerates the file with
//! `MUNIN_BLESS=1 cargo test -p munin-bench --test repro_golden` and the
//! diff shows the cost.

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/golden/repro_quick.txt");

#[test]
fn repro_quick_all_matches_golden_file() {
    // What `repro --quick all` prints on stdout: each table, then a newline.
    let got: String =
        munin_bench::run_experiments(true, |_| true).iter().map(|t| format!("{t}\n")).collect();
    if std::env::var_os("MUNIN_BLESS").is_some() {
        std::fs::write(GOLDEN, &got).expect("write golden repro output");
        return;
    }
    let want = std::fs::read_to_string(GOLDEN).expect("read golden repro output");
    if want != got {
        let diff: Vec<String> = want
            .lines()
            .zip(got.lines())
            .filter(|(w, g)| w != g)
            .map(|(w, g)| format!("  want {w}\n  got  {g}"))
            .collect();
        panic!(
            "the paper's tables moved ({} line(s) differ, {} vs {} lines); rerun with \
             MUNIN_BLESS=1 if the change is intended:\n{}",
            diff.len(),
            want.lines().count(),
            got.lines().count(),
            diff.join("\n")
        );
    }
}
