//! # munin-apps
//!
//! The six shared-memory parallel programs from the Munin paper's sharing
//! study (§2): *"Matrix multiply, Gaussian elimination, Fast Fourier
//! Transform, Quicksort, Traveling salesman, and Life"* — written once
//! against the portable [`munin_api::Par`] interface, with the
//! object annotations a Munin programmer would supply, and runnable
//! unchanged on Munin, Ivy, or native threads.
//!
//! Each module exposes a config struct, a `build` function producing a
//! [`munin_api::ProgramBuilder`] plus an output cell for verification, and a
//! sequential reference implementation.
//!
//! The annotations per program (the study's findings in code form):
//!
//! | program | objects |
//! |---|---|
//! | matmul | A, B write-once; C result |
//! | gauss | one row per pivot step: producer-consumer |
//! | fft | data vector: write-many (disjoint butterflies per stage) |
//! | qsort | array: write-many; task stack: migratory + lock |
//! | tsp | distances: write-once; queue: migratory; best bound: read-mostly; best tour: result |
//! | life | interior blocks: private; boundary rows: producer-consumer (eager) |

pub mod fft;
pub mod gauss;
pub mod life;
pub mod matmul;
pub mod qsort;
pub mod tsp;

use munin_api::ProgramBuilder;
use std::sync::{Arc, Mutex};

/// Shared output cell filled by a program's collector thread.
pub type OutputCell<T> = Arc<Mutex<Option<T>>>;

pub fn output_cell<T>() -> OutputCell<T> {
    Arc::new(Mutex::new(None))
}

/// The six study applications, as a uniform enumeration for sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum App {
    Matmul,
    Gauss,
    Fft,
    Qsort,
    Tsp,
    Life,
}

impl App {
    pub const ALL: [App; 6] = [App::Matmul, App::Gauss, App::Fft, App::Qsort, App::Tsp, App::Life];

    pub fn name(self) -> &'static str {
        match self {
            App::Matmul => "matmul",
            App::Gauss => "gauss",
            App::Fft => "fft",
            App::Qsort => "qsort",
            App::Tsp => "tsp",
            App::Life => "life",
        }
    }

    /// Build the app at a default evaluation scale on `nodes` nodes (one
    /// worker thread per node). The returned closure verifies the output
    /// and panics on mismatch (call it after a clean run).
    pub fn build_default(self, nodes: usize) -> (ProgramBuilder, Box<dyn FnOnce() + Send>) {
        match self {
            App::Matmul => {
                let cfg = matmul::MatmulCfg { n: 32, nodes, seed: 11 };
                let (p, out) = matmul::build(&cfg);
                let want = matmul::reference(&cfg);
                (p, Box::new(move || matmul::check(&out, &want)))
            }
            App::Gauss => {
                let cfg = gauss::GaussCfg { n: 24, nodes, seed: 5 };
                let (p, out) = gauss::build(&cfg);
                let want = gauss::reference(&cfg);
                (p, Box::new(move || gauss::check(&out, &want)))
            }
            App::Fft => {
                let cfg = fft::FftCfg { n: 256, nodes, seed: 3 };
                let (p, out) = fft::build(&cfg);
                let want = fft::reference(&cfg);
                (p, Box::new(move || fft::check(&out, &want)))
            }
            App::Qsort => {
                let cfg = qsort::QsortCfg { n: 256, nodes, seed: 7, cutoff: 16 };
                let (p, out) = qsort::build(&cfg);
                let want = qsort::reference(&cfg);
                (p, Box::new(move || qsort::check(&out, &want)))
            }
            App::Tsp => {
                let cfg = tsp::TspCfg { cities: 8, nodes, seed: 13 };
                let (p, out) = tsp::build(&cfg);
                let want = tsp::reference(&cfg);
                (p, Box::new(move || tsp::check(&out, want)))
            }
            App::Life => {
                // Every thread's block needs two rows (its top and bottom
                // boundary), so the grid grows past 24 nodes.
                let height = 48.max(2 * nodes as u32);
                let cfg = life::LifeCfg { width: 48, height, generations: 6, nodes, seed: 17 };
                let (p, out) = life::build(&cfg);
                let want = life::reference(&cfg);
                (p, Box::new(move || life::check(&out, &want)))
            }
        }
    }
}
