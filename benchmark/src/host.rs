//! What the benchmark asks the operating system: CPU time and peak memory
//! (`getrusage`), and the fingerprint of the host the numbers came from.

use crate::json::Json;
use std::process::Command;

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s of
/// which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

fn rusage(who: i32) -> RUsage {
    let mut ru = RUsage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // 64-bit Linux ABI defines (144 bytes); the call writes only into it.
    let rc = unsafe { getrusage(who, &mut ru) };
    assert_eq!(rc, 0, "getrusage({who}) failed");
    ru
}

/// User + system CPU seconds of this process and of the children it has
/// reaped so far. A `munin-node` child is counted once its world is torn
/// down, so take the difference around a whole `ProgramBuilder::run`.
pub fn cpu_seconds() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(rusage)
        .map(|ru| {
            (ru.utime[0] + ru.stime[0]) as f64 + (ru.utime[1] + ru.stime[1]) as f64 / 1_000_000.0
        })
        .sum()
}

/// Peak resident set of this (the coordinator) process, MiB.
pub fn peak_rss_mib() -> f64 {
    rusage(RUSAGE_SELF).maxrss as f64 / 1024.0
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Where a set of numbers came from. The git sha is "unknown" in the
/// driver's checkout, which is not a repository.
pub fn fingerprint() -> Json {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    Json::obj([
        ("git_sha", Json::str(command_line("git", &["rev-parse", "HEAD"]))),
        ("nproc", Json::str(command_line("nproc", &[]))),
        ("available_parallelism", Json::Num(parallelism as f64)),
        ("confinement", Json::str("every run confines itself and its children to one CPU")),
        ("cpu_model", Json::str(cpu_model)),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
        ("network", Json::str("loopback TCP on one host, not a real link")),
    ])
}

/// `cpu_set_t`: 1024 CPUs, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    fn sched_getcpu() -> i32;
}

/// Confine the calling thread, and every thread and process started from it
/// afterwards, to the CPU it is running on; returns that CPU.
///
/// Why the benchmark does this: on the 2-vCPU virtual machines these numbers
/// come from, waking a thread on the *other* vCPU costs tens of microseconds
/// (an inter-processor interrupt through the hypervisor, often to a halted
/// vCPU), and the kernel's choice of vCPU for each wake-up drifts. Left
/// alone, `counter_tcp` wanders between 6k and 17k ops/s within one run and
/// the simulator between 17k and 160k; on one CPU the same programs run
/// 38-45k and 150-190k ops/s and repeat. A remote operation here is a chain
/// of thread hand-offs, never parallel work, so one CPU loses nothing the
/// workloads could use. See README.md, "One CPU".
pub fn confine_to_one_cpu() -> usize {
    // SAFETY: `sched_getcpu` takes no arguments; `sched_setaffinity` reads
    // `size` bytes from a live `cpu_set_t`-sized array, and pid 0 is the
    // calling thread.
    unsafe {
        let cpu = sched_getcpu().max(0) as usize;
        let mut one: CpuSet = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        let rc = sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &one);
        assert_eq!(rc, 0, "sched_setaffinity to cpu {cpu} failed");
        cpu
    }
}

/// The reference load: what the host can do *right now* at the work a DSM
/// operation is mostly made of. A 32-byte frame goes over a loopback TCP
/// connection to a thread of this process and comes back, [`ROUND_TRIPS`]
/// times: four system calls, two trips through the loopback device and two
/// thread hand-offs per round trip, all on the one CPU the benchmark is
/// confined to. No code of the program under test runs in it.
///
/// Why: the shared host changes speed under the benchmark, in steps that last
/// seconds (`counter_tcp` sits at 33k, 44k or 57k ops/s, within one run), and
/// the reference load follows the same steps (correlation 0.9 with the
/// segment times of `counter_tcp`). Every timed sample is bracketed by two
/// measurements of the reference and reported as what it would have been on
/// a host whose reference round trip takes [`NOMINAL_RTT_NS`]
/// ([`Reference::to_nominal`]). See README.md, "Reference load".
pub struct Reference {
    near: std::net::TcpStream,
    echo: Option<std::thread::JoinHandle<()>>,
}

pub const ROUND_TRIPS: u32 = 400;
/// The reference round trip of the nominal host: the level this benchmark's
/// first host reaches when it is left alone.
pub const NOMINAL_RTT_NS: f64 = 5_000.0;

impl Reference {
    pub fn new() -> Reference {
        use std::io::{Read, Write};
        let connect = || -> std::io::Result<_> {
            let listener = std::net::TcpListener::bind("127.0.0.1:0")?;
            let near = std::net::TcpStream::connect(listener.local_addr()?)?;
            let (far, _) = listener.accept()?;
            near.set_nodelay(true)?;
            far.set_nodelay(true)?;
            Ok((near, far))
        };
        let (near, mut far) = connect().expect("loopback TCP for the reference load");
        let echo = std::thread::spawn(move || {
            let mut frame = [0u8; 32];
            // Ends when the near side shuts the connection down.
            while far.read_exact(&mut frame).is_ok() && far.write_all(&frame).is_ok() {}
        });
        let mut reference = Reference { near, echo: Some(echo) };
        reference.rtt_ns(); // first use: buffers, page faults
        reference
    }

    /// Nanoseconds per round trip, now.
    pub fn rtt_ns(&mut self) -> f64 {
        use std::io::{Read, Write};
        let mut frame = [0x5au8; 32];
        let began = std::time::Instant::now();
        for _ in 0..ROUND_TRIPS {
            let io = self.near.write_all(&frame).and_then(|()| self.near.read_exact(&mut frame));
            io.expect("the reference load's echo thread is gone");
        }
        began.elapsed().as_nanos() as f64 / ROUND_TRIPS as f64
    }

    /// A time measured while the reference round trip took `rtt_ns`, as it
    /// would have been on the nominal host. `sensitivity` is the workload's
    /// own constant: how much of its time follows the host's speed at the
    /// reference load (1: all of it; 0: none, the time is reported as
    /// measured). Rates divide by this factor.
    pub fn to_nominal(rtt_ns: f64, sensitivity: f64) -> f64 {
        (NOMINAL_RTT_NS / rtt_ns).powf(sensitivity)
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        let _ = self.near.shutdown(std::net::Shutdown::Both);
        if let Some(echo) = self.echo.take() {
            let _ = echo.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_nominal_scales_by_the_sensitive_share_only() {
        // A host twice as slow as nominal: a fully sensitive time halves, an
        // insensitive one stays, one of sensitivity 0.5 shrinks by sqrt(2).
        let slow = 2.0 * NOMINAL_RTT_NS;
        assert!((Reference::to_nominal(slow, 1.0) - 0.5).abs() < 1e-12);
        assert_eq!(Reference::to_nominal(slow, 0.0), 1.0);
        assert!((Reference::to_nominal(slow, 0.5) - 0.5f64.sqrt()).abs() < 1e-12);
        // The nominal host reports times as measured, whatever the workload.
        assert_eq!(Reference::to_nominal(NOMINAL_RTT_NS, 0.75), 1.0);
        // A faster host's times grow.
        assert!(Reference::to_nominal(NOMINAL_RTT_NS / 2.0, 1.0) > 1.99);
    }

    #[test]
    fn the_reference_load_runs_and_stops() {
        let mut reference = Reference::new();
        let rtt = reference.rtt_ns();
        assert!(rtt > 100.0 && rtt < 1e8, "{rtt} ns per loopback round trip");
        drop(reference); // joins the echo thread
    }
}
