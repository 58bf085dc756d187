//! Run study applications on a chosen backend — the harness entry for
//! eyeballing one backend quickly and for CI's distributed smoke run.
//!
//! ```text
//! study --backend munin-tcp                       # matmul, life, tsp on 4 nodes
//! study --backend munin-tcp --apps life --nodes 2 # CI's 2-process smoke
//! study --backend ivy-rt --apps all
//! study --backend tardis-tcp --apps all           # any matrix backend works
//! ```
//!
//! Every app is verified against its sequential reference (bit for bit) and
//! the line per app reports wall clock, DSM ops and protocol messages. For
//! the TCP backends each run spawns `nodes - 1` real `munin-node` processes.
//! `--dump-after-ms N` additionally raises SIGUSR1 once, N ms after start,
//! to demonstrate the on-demand state dump of whichever rt or TCP run is
//! then in progress (or send it yourself: `kill -USR1 <pid>`).

use munin_api::Backend;
use munin_apps::App;

/// Every matrix backend's CLI spelling plus `native`, for the usage line.
fn backend_names() -> String {
    let mut names: Vec<String> = Backend::matrix().iter().map(Backend::cli_name).collect();
    names.push(Backend::Native.cli_name());
    names.join("|")
}

fn parse_apps(list: &str) -> Option<Vec<App>> {
    if list == "all" {
        return Some(App::ALL.to_vec());
    }
    list.split(',').map(|name| App::ALL.into_iter().find(|a| a.name() == name)).collect()
}

fn main() {
    let mut backend_name = "munin".to_string();
    let mut apps = "matmul,life,tsp".to_string();
    let mut nodes = 4usize;
    let mut dump_timer = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--backend" => backend_name = args.next().unwrap_or_default(),
            "--apps" => apps = args.next().unwrap_or_default(),
            "--nodes" => {
                nodes = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("study: --nodes wants a number");
                    std::process::exit(2);
                })
            }
            "--dump-after-ms" => {
                let ms: u64 = args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("study: --dump-after-ms wants a number");
                    std::process::exit(2);
                });
                // The handler first: SIGUSR1's default action ends the
                // process.
                munin_api::sig::install();
                dump_timer = Some(std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(ms));
                    munin_api::sig::raise_dump_signal();
                }));
            }
            other => {
                eprintln!(
                    "study: unknown argument `{other}`\nusage: study [--backend {}] \
                     [--apps a,b,c|all] [--nodes N] [--dump-after-ms N]",
                    backend_names()
                );
                std::process::exit(2);
            }
        }
    }
    let Some(backend) = Backend::parse(&backend_name) else {
        eprintln!("study: unknown backend `{backend_name}` (expected one of {})", backend_names());
        std::process::exit(2);
    };
    let Some(apps) = parse_apps(&apps) else {
        eprintln!(
            "study: unknown app in `{apps}` (have: all, matmul, gauss, fft, qsort, tsp, life)"
        );
        std::process::exit(2);
    };
    if backend.is_distributed() {
        if let Err(notice) = munin_api::tcp_support() {
            eprintln!("study: the {} backend is unavailable here: {notice}", backend.name());
            std::process::exit(3);
        }
        eprintln!(
            "study: {} will run each app across {nodes} OS processes (this one + {} munin-node \
             children), pid {}",
            backend.name(),
            nodes - 1,
            std::process::id()
        );
    }
    for app in apps {
        let (p, verify) = app.build_default(nodes);
        let outcome = p.run(backend.clone());
        outcome.assert_clean();
        verify();
        let (ops, msgs) = outcome.try_report().map(|r| (r.ops, r.stats.messages)).unwrap_or((0, 0));
        println!(
            "ok {:>6} x{nodes} on {:<9} {:>8.1} ms  {ops:>7} ops  {msgs:>7} msgs",
            app.name(),
            backend.name(),
            outcome.wall.as_secs_f64() * 1e3,
        );
    }
    if let Some(timer) = dump_timer {
        timer.join().expect("the dump timer only sleeps and raises");
    }
}
