//! One run of one workload: set-up, measured blocks, metrics.

use std::time::{Duration, Instant};

use crate::drills;
use crate::host::{
    peak_rss_mb, pin_to_last_core, probe_ns, reset_peak_rss, AllocSnapshot, PROBE_REF_NS,
};
use crate::measure::{normalised_step, summarise, Block, Summary};
use crate::report::{Metrics, RunResult};
use crate::spans::{self, Scope, Tracer};
use crate::stats::median;
use crate::workloads::{self, Headline, Workload, FINE_TASKS, NAMES, WARMUP_BLOCKS};

/// Command-line arguments of a run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Probe calibration at process start: fixed wall time, so that set-up
/// always begins on a core that has been busy for the same while.
const CALIBRATION: Duration = Duration::from_millis(200);
/// Set-up is repeated this many times and the median reported, so that one
/// steal inside a 100 ms set-up does not decide `setup_s`.
const SETUP_REPEATS: usize = 5;
/// Verification failures echoed to stderr.
const MAX_COMPLAINTS: usize = 5;

/// Spin probes for [`CALIBRATION`]; returns the median probe duration.
fn calibrate() -> f64 {
    let t = Instant::now();
    let mut probes = Vec::new();
    while t.elapsed() < CALIBRATION {
        probes.push(probe_ns());
    }
    median(&probes)
}

/// Blocks of one measured phase plus what their verification said.
#[derive(Default)]
struct Phase {
    blocks: Vec<Block>,
    attempted: u64,
    failed: u64,
    complaints: Vec<String>,
}

impl Phase {
    /// Run blocks until `seconds` of wall time have passed (at least two).
    /// `scope_of(i)` says where block `i` records its spans.
    fn measure<'a>(
        &mut self,
        w: &mut dyn Workload,
        seconds: f64,
        mut scope_of: impl FnMut(usize) -> Scope<'a>,
    ) {
        let t = Instant::now();
        let mut i = 0;
        while i < 2 || t.elapsed().as_secs_f64() < seconds {
            let out = scope_of(i).span("block", |s| w.block(s));
            self.attempted += out.ops;
            self.failed += out.failed;
            if let Some(c) = out.complaint {
                if self.complaints.len() < MAX_COMPLAINTS {
                    self.complaints.push(c);
                }
            }
            self.blocks.push(out.block);
            i += 1;
        }
    }
}

/// One set-up: inputs and oracle from the seed, then the warm-up jobs.
/// Returns the workload and the set-up's normalised duration in ns.
fn set_up(name: &str, seed: u64) -> Result<(Box<dyn Workload>, f64), String> {
    let (w, mut ns) = normalised_step(|| workloads::setup(name, seed));
    let mut w = w.ok_or_else(|| format!("unknown workload {name:?}; one of {NAMES:?}"))?;
    for _ in 0..WARMUP_BLOCKS {
        let b = w.block(Scope::off()).block;
        ns += b.wall_ns * if w.saturated() { b.factor() } else { 1.0 };
    }
    Ok((w, ns))
}

/// The `--trace 0` run: the six end-to-end metrics of one workload.
pub fn end_to_end(args: &Args) -> Result<RunResult, String> {
    pin_to_last_core();
    calibrate();
    let mut setups_ns = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        let (w, ns) = set_up(&args.workload, args.seed)?;
        setups_ns.push(ns);
        workload = Some(w);
    }
    let mut w = workload.expect("SETUP_REPEATS > 0");

    reset_peak_rss();
    let mut phase = Phase::default();
    phase.measure(&mut *w, args.seconds, |_| Scope::off());
    let s = summarise(&phase.blocks);
    let h = w.headline(&s, false);

    let mut m = Metrics::default();
    m.put("throughput_tps", h.throughput_tps);
    m.put("op_p50_us", h.op_p50_us);
    m.put("op_p90_us", h.op_p90_us);
    m.put("cpu_us_per_task", h.cpu_us_per_task);
    m.put("peak_rss_mb", peak_rss_mb());
    m.put(
        "setup_s",
        CALIBRATION.as_secs_f64() + median(&setups_ns) / 1e9,
    );
    eprintln!(
        "{}: {} blocks, {:.1} % dropped, {:.1} % quiet, host factor {:.3}",
        args.workload,
        s.blocks,
        s.dropped_pct(),
        s.quiet_pct(),
        s.factor_p50
    );
    Ok(RunResult {
        attempted: phase.attempted,
        failed: phase.failed,
        complaints: phase.complaints,
        metrics: m,
    })
}

/// Share of `--seconds` a traced run gives the workload under test; the
/// other four split the rest, so that every layer metric comes from blocks
/// of the workload that exercises it, whichever workload was asked for.
const TRACED_SHARE: f64 = 0.5;

/// The `--trace 1` run: every per-layer metric, and the span file.
pub fn traced(args: &Args) -> Result<RunResult, String> {
    if !NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; one of {NAMES:?}",
            args.workload
        ));
    }
    let pinned = pin_to_last_core();
    let probe_p50 = calibrate();
    let tracer = Tracer::new();
    let mut m = Metrics::default();
    let mut totals = Phase::default();
    let mut next_block = 0u32;
    let mut fine_job_ns = 0.0;
    // What the workload under test leaves behind for the `bench.*` rows.
    let mut tested: Option<Tested> = None;

    for name in NAMES {
        let is_tested = name == args.workload;
        let (mut w, _) = set_up(name, args.seed)?;
        let seconds = args.seconds
            * if is_tested {
                TRACED_SHARE
            } else {
                (1.0 - TRACED_SHARE) / (NAMES.len() - 1) as f64
            };
        let alloc0 = AllocSnapshot::now();
        let mut phase = Phase::default();
        // The workload under test records spans on every other block only:
        // the untraced half prices the tracing itself.
        phase.measure(&mut *w, seconds, |i| {
            if is_tested && i % 2 == 1 {
                Scope::off()
            } else {
                next_block += 1;
                tracer.block(next_block - 1)
            }
        });
        let allocs = AllocSnapshot::now().since(alloc0);
        let s = summarise(&phase.blocks);
        w.layers(&s, &mut m);
        if name == "native_fine" {
            fine_job_ns = s.capacity_wall_ns;
        }
        if is_tested {
            let half = |parity: usize| -> Summary {
                let blocks: Vec<Block> = phase
                    .blocks
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % 2 == parity)
                    .map(|(_, b)| *b)
                    .collect();
                summarise(&blocks)
            };
            let tasks: u64 = phase.blocks.iter().map(|b| b.tasks).sum();
            tested = Some(Tested {
                headline: w.headline(&s, false),
                headline_raw: w.headline(&s, true),
                // Alternating blocks share the host's regimes, so the two
                // halves compare raw, over all their kept blocks.
                trace_overhead_pct: 100.0
                    * (half(0).raw_cpu_per_task_ns / half(1).raw_cpu_per_task_ns.max(1e-9) - 1.0),
                allocs_per_task: allocs.calls as f64 / tasks.max(1) as f64,
                alloc_bytes_per_task: allocs.bytes as f64 / tasks.max(1) as f64,
                summary: s,
                workload: w,
            });
        }
        totals.attempted += phase.attempted;
        totals.failed += phase.failed;
        totals.complaints.extend(phase.complaints);
    }

    drills::run_all(tracer.block(next_block), args.seed, &mut m);

    let body = m.get("local.body_ns").expect("drilled");
    m.put(
        "local.overhead_ns_per_task",
        fine_job_ns / FINE_TASKS as f64 - body,
    );
    let t = tested.expect("the workload under test is one of NAMES");
    m.put("obs.trace_overhead_pct", t.trace_overhead_pct);
    m.put("bench.pinned", f64::from(u8::from(pinned)));
    m.put("bench.host_factor_p50", t.summary.factor_p50);
    m.put("bench.host_factor_iqr_pct", t.summary.factor_iqr_pct);
    m.put("bench.blocks", t.summary.blocks as f64);
    m.put("bench.blocks_dropped_pct", t.summary.dropped_pct());
    m.put("bench.blocks_quiet_pct", t.summary.quiet_pct());
    m.put("bench.raw_throughput_tps", t.headline_raw.throughput_tps);
    m.put("bench.raw_op_p50_us", t.headline_raw.op_p50_us);
    m.put("bench.raw_cpu_us_per_task", t.headline_raw.cpu_us_per_task);
    m.put("bench.allocs_per_task", t.allocs_per_task);
    m.put("bench.alloc_bytes_per_task", t.alloc_bytes_per_task);
    m.put("bench.probe_ns", probe_p50);
    m.put(
        "bench.budget_closure_pct",
        100.0 * t.workload.explained_ns_per_task(&m) / (1e3 * t.headline.cpu_us_per_task).max(1e-9),
    );

    let all = tracer.snapshot();
    spans::check(&all)?;
    eprint!("{}", self_time_table(&all));
    write_trace(&args.workload, &all)?;
    eprintln!(
        "{}: host factor {:.3} (probe {:.0} ns vs reference {:.0} ns), {} spans",
        args.workload,
        t.summary.factor_p50,
        probe_p50,
        PROBE_REF_NS,
        all.len()
    );
    totals.complaints.truncate(MAX_COMPLAINTS);
    Ok(RunResult {
        attempted: totals.attempted,
        failed: totals.failed,
        complaints: totals.complaints,
        metrics: m,
    })
}

struct Tested {
    workload: Box<dyn Workload>,
    summary: Summary,
    /// What an untraced run would report; its CPU per task is the budget's
    /// denominator.
    headline: Headline,
    headline_raw: Headline,
    trace_overhead_pct: f64,
    allocs_per_task: f64,
    alloc_bytes_per_task: f64,
}

/// Where the traced time went: total self time per span name, largest first.
fn self_time_table(all: &[spans::Span]) -> String {
    let mut by_name: Vec<(&str, u64, usize)> = Vec::new();
    for (span, own) in all.iter().zip(spans::self_times_ns(all)) {
        match by_name.iter_mut().find(|(name, ..)| *name == span.name) {
            Some(row) => {
                row.1 += own;
                row.2 += 1;
            }
            None => by_name.push((span.name, own, 1)),
        }
    }
    by_name.sort_by_key(|&(_, own, _)| std::cmp::Reverse(own));
    let mut out = String::from("self time by span (ms, spans):\n");
    for (name, own, count) in by_name {
        out.push_str(&format!(
            "  {name:<28} {:>10.2} {count:>7}\n",
            own as f64 / 1e6
        ));
    }
    out
}

/// Write every span of the run (each workload's slice and the drills; the
/// block id tells them apart) to `benchmark/out/<workload>.trace.json`.
fn write_trace(workload: &str, all: &[spans::Span]) -> Result<(), String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(format!("{workload}.trace.json"));
    std::fs::write(&path, spans::to_chrome_json(all))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("spans written to {}", path.display());
    Ok(())
}
