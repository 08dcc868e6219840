//! storebench — one measured benchmark for the disaggregated object store.
//!
//! ```text
//! cargo run --release --manifest-path storebench/Cargo.toml -- \
//!     --workload <read_skewed|put_churn|shuffle> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the full stack (client → ipc → plasma server → disagg routing →
//! rpclite → peer plasma/memalloc → tfsim mapped fabric) of a
//! `ClusterConfig::paper_testbed` cluster from one thread with one op
//! outstanding, the whole process pinned to one CPU. Prints a
//! human-readable report, then as its last line one JSON object:
//! end-to-end metrics with `--trace 0`, per-layer metrics with
//! `--trace 1`. See RATIONALE.md for the workloads and metrics.

mod attrib;
mod inputs;
mod metrics;
mod probe;
mod run;
mod trace;

use std::time::{Duration, Instant};

use attrib::per;
use inputs::{Inputs, Workload};
use metrics::{Det, Report};
use run::{Harness, Rec};
use trace::Tracer;

/// Clusters launched per run; `setup_s` is their median set-up time. The
/// first and the last run the deterministic window, which must agree
/// exactly; the last one then runs the timed phase.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// Steps (see `Harness::step`) of warm-up, of the deterministic window,
/// per timed block (the unit the traced run alternates on), and blocks
/// per timed window (the unit the wall metrics take medians over).
fn plan(w: Workload) -> (usize, usize, usize, u64) {
    match w {
        Workload::ReadSkewed => (1_000, 4_000, 200, 10),
        Workload::PutChurn => (500, 2_000, 100, 10),
        Workload::Shuffle => (4, 100, 4, 10),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("storebench: {e}");
            eprintln!(
                "usage: storebench --workload <read_skewed|put_churn|shuffle> --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let cpu = match pin_to_one_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("storebench: pinning to one CPU: {e}");
            std::process::exit(1);
        }
    };
    if let Err(e) = run(&args, cpu) {
        eprintln!("storebench: {e}");
        std::process::exit(1);
    }
}

/// Restricts this process, and every thread it starts later, to the
/// lowest-numbered CPU it may run on; returns that CPU.
///
/// With one op outstanding the request path is a chain of thread
/// hand-offs (driver → ipc server → rpclite → peer). Spread over two
/// vCPUs of a shared host, each hand-off wakes an idle vCPU, and the
/// host's delay in scheduling it (CPU steal) then dominates and varies
/// the measured latency. On one CPU a hand-off is a context switch, so
/// the latencies measure the program's own work.
fn pin_to_one_cpu() -> std::io::Result<usize> {
    // `cpu_set_t` of glibc: a bitmask of 1024 CPUs.
    type CpuSet = [u64; 16];
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
    }
    let size = std::mem::size_of::<CpuSet>();
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer.
    if unsafe { sched_getaffinity(0, size, &mut allowed) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    let cpu = (0..size * 8)
        .find(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .ok_or_else(|| std::io::Error::other("no CPU in the affinity mask"))?;
    let mut one: CpuSet = [0; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable `cpu_set_t`-sized buffer.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(cpu)
}

fn run(args: &Args, cpu: usize) -> Result<(), plasma::PlasmaError> {
    let t = Instant::now();
    let inputs = Inputs::generate(args.workload, args.seed, args.seconds);
    println!(
        "storebench workload={} seed={} seconds={} trace={} cpu={cpu} schedule_digest={:016x} inputs_s={:.3}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        inputs.digest,
        t.elapsed().as_secs_f64()
    );
    let (warm, det_steps, block, window_blocks) = plan(args.workload);
    let mut report = Report::new(&inputs);

    let mut last = None;
    let mut alloc_trace = Vec::new();
    for rep in 0..SETUP_REPS {
        let final_rep = rep + 1 == SETUP_REPS;
        let mut setup = Rec {
            alloc_trace: (final_rep && args.trace).then(Vec::new),
            ..Rec::default()
        };
        let t0 = Instant::now();
        let mut h = Harness::launch(&inputs, &mut setup)?;
        let mut tr = Tracer::new(h.clock().clone());
        h.steps(warm, &mut tr, &mut setup);
        report.setup_s.push(t0.elapsed().as_secs_f64());
        report.absorb_failures(&setup);
        if rep > 0 && !final_rep {
            report.quiesce.extend(h.quiesce_check());
            continue;
        }

        // Deterministic window: a fixed number of steps whose virtual
        // latencies and layer counts must repeat exactly for this seed.
        let mut det = Rec {
            count_rpcs: true,
            alloc_trace: setup.alloc_trace.take(),
            ..Rec::default()
        };
        let counts0 = h.counts();
        let fabric0 = h.probes.fabric();
        h.steps(det_steps, &mut tr, &mut det);
        report.dets.push(Det::new(&h, &det, &counts0, &fabric0));
        report.absorb_failures(&det);
        if final_rep {
            alloc_trace = det.alloc_trace.take().unwrap_or_default();
            last = Some((h, tr));
        } else {
            report.quiesce.extend(h.quiesce_check());
        }
    }
    let (mut h, mut tr) = last.expect("at least one rep");

    // Timed phase: wall clock, for `--seconds`. The traced run alternates
    // untraced and traced blocks so both see the same load and host.
    let lt0 = h.probes.layer_totals();
    let counts0 = h.counts();
    let cpu0 = metrics::proc_cpu();
    let steal0 = metrics::host_steal();
    let mut timed = Rec::default();
    let t0 = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut blocks = 0u64;
    let mut wsteal = steal0;
    while t0.elapsed() < budget && h.remaining() > 0 {
        tr.on = args.trace && blocks % 2 == 1;
        h.steps(block, &mut tr, &mut timed);
        blocks += 1;
        if blocks.is_multiple_of(4) {
            report.threads_peak = report.threads_peak.max(metrics::proc_threads());
        }
        if blocks.is_multiple_of(window_blocks) {
            let s = metrics::host_steal();
            report
                .window_steal
                .push(per(s.0 - wsteal.0, s.1 - wsteal.1));
            wsteal = s;
            timed.window += 1;
        }
    }
    tr.on = false;
    report.timed_s = t0.elapsed().as_secs_f64();
    report.cpu = metrics::proc_cpu().since(&cpu0);
    let steal1 = metrics::host_steal();
    report.host_steal_share = per(steal1.0 - steal0.0, steal1.1 - steal0.1);
    report.threads_peak = report.threads_peak.max(metrics::proc_threads());
    report.layer_totals = h.probes.layer_totals().delta(&lt0);
    report.timed_counts = h.counts().since(&counts0);
    if h.remaining() == 0 {
        eprintln!("storebench: schedule exhausted before --seconds elapsed");
    }
    report.absorb_failures(&timed);
    report.timed = timed;
    report.quiesce.extend(h.quiesce_check());
    report.peak_rss_mib = metrics::proc_peak_rss_mib();

    if args.trace {
        let dir = std::path::Path::new("storebench/out");
        let path = dir.join(format!("spans-{}-{}.tsv", args.workload.name(), args.seed));
        match tr.write(&path) {
            Ok(()) => println!("spans: {} written to {}", tr.spans.len(), path.display()),
            Err(e) => eprintln!("storebench: writing spans: {e}"),
        }
        report.attribution = Some(attrib::Attribution::from_spans(&tr.spans));
        report.alloc_replay = Some(metrics::replay_allocations(
            &alloc_trace,
            run::cluster_config(args.seed).allocator,
        ));
    }
    drop(tr);
    drop(h);
    report.print(args.trace);
    Ok(())
}
