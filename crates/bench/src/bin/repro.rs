//! `repro` — regenerate every table and figure of the paper's evaluation.
//!
//! Usage:
//! ```text
//! repro <experiment> [--quick] [--trace <path>]
//! repro all [--quick]
//! ```
//! where `<experiment>` is one of the paper artifacts — `table1`, `fig6`,
//! `fig7`, `table2`, `table3`, `fig8`, `table4`, `fig9`, `fig10`,
//! `table6`, `fig11`, `fig12`, `fig13`, `fig14` — or one of the
//! extensions/ablations: `sweep-k`, `sweep-models`, `mixed-gpus`,
//! `concurrent-kernels`, `fusion`, `slow-node`, `policies`.
//!
//! `--quick` shrinks workloads (~10×) for fast sanity runs; without it the
//! paper's exact workload sizes are used. Run with `--release`.
//!
//! `--trace <path>` (honored by `fig12`) dumps the run's structured event
//! trace: a `.jsonl` path gets the line-oriented dump, anything else the
//! Chrome `trace_event` JSON loadable in Perfetto / `chrome://tracing`,
//! e.g. `repro fig12 --quick --trace trace.json`.

use anthill::obs::{chrome, jsonl, Recorder};
use anthill_bench::experiments::{cluster, estimator, transfer};
use anthill_bench::policies;
use anthill_bench::viz::{render, ChartSpec, Series};

struct Scale {
    base_tiles: u64,
    scaling_tiles: u64,
    vi_len: u64,
    fig6_tiles: usize,
}

impl Scale {
    fn paper() -> Scale {
        Scale {
            base_tiles: 26_742,
            scaling_tiles: 267_420,
            vi_len: 360_000_000,
            fig6_tiles: 2_000,
        }
    }
    fn quick() -> Scale {
        Scale {
            base_tiles: 4_000,
            scaling_tiles: 40_000,
            vi_len: 36_000_000,
            fig6_tiles: 300,
        }
    }
}

const RATES: [f64; 6] = [0.0, 0.04, 0.08, 0.12, 0.16, 0.20];
const SEED: u64 = 42;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let known = [
        "table1",
        "sweep-k",
        "sweep-models",
        "fig6",
        "fig7",
        "table2",
        "table3",
        "fig8",
        "table4",
        "fig9",
        "fig10",
        "table6",
        "fig11",
        "fig12",
        "fig13",
        "fig14",
        "mixed-gpus",
        "concurrent-kernels",
        "fusion",
        "slow-node",
        "policies",
        "all",
    ];
    let mut quick = false;
    let mut trace_path: Option<String> = None;
    let mut selected: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => quick = true,
            "--trace" => {
                i += 1;
                match args.get(i) {
                    Some(p) => trace_path = Some(p.clone()),
                    None => {
                        eprintln!("--trace requires a file path");
                        std::process::exit(2);
                    }
                }
            }
            a if a.starts_with("--") => {
                eprintln!("unknown flag '{a}'");
                std::process::exit(2);
            }
            a => {
                if let Some(first) = &selected {
                    eprintln!(
                        "one experiment per run: got '{first}' and '{a}'; known: {}",
                        known.join(", ")
                    );
                    std::process::exit(2);
                }
                selected = Some(a.to_string());
            }
        }
        i += 1;
    }
    let scale = if quick {
        Scale::quick()
    } else {
        Scale::paper()
    };
    let what = selected.as_deref().unwrap_or("all");
    if !known.contains(&what) {
        eprintln!("unknown experiment '{what}'; known: {}", known.join(", "));
        std::process::exit(2);
    }

    let run = |name: &str| what == "all" || what == name;

    if run("table1") {
        table1();
    }
    if run("sweep-k") {
        sweep_k();
    }
    if run("sweep-models") {
        sweep_models();
    }
    if run("fig6") {
        fig6(&scale);
    }
    if run("fig7") {
        fig7(&scale);
    }
    if run("table2") {
        table2(&scale);
    }
    if run("table3") {
        table3(&scale);
    }
    if run("fig8") {
        fig8(&scale);
    }
    if run("table4") {
        table4(&scale);
    }
    if run("fig9") {
        fig9(&scale);
    }
    if run("fig10") {
        fig10(&scale);
    }
    if run("table6") {
        table6(&scale);
    }
    if run("fig11") {
        fig11(&scale);
    }
    if trace_path.is_some() && !run("fig12") {
        eprintln!("note: --trace is honored by fig12 only; ignoring it");
    }
    if run("fig12") {
        fig12(&scale, trace_path.as_deref());
    }
    if run("fig13") {
        fig13(&scale);
    }
    if run("fig14") {
        fig14(&scale);
    }
    if run("mixed-gpus") {
        mixed_gpus(&scale);
    }
    if run("concurrent-kernels") {
        concurrent_kernels(&scale);
    }
    if run("fusion") {
        fusion(&scale);
    }
    if run("slow-node") {
        slow_node(&scale);
    }
    if run("policies") {
        learned_policies(quick);
    }
}

fn header(title: &str, paper: &str) {
    println!();
    println!("== {title} ==");
    println!("   paper reference: {paper}");
}

fn table1() {
    header(
        "Table 1: performance estimator errors (10-fold CV, k=2, 30 jobs)",
        "speedup err: BS 2.5 / N-body 7.3 / Heart 13.8 / kNN 8.8 / Eclat 11.3 / NBIA 7.4 (mean 8.52); CPU-time err 70.5 / 11.6 / 42.0 / 21.2 / 102.6 / 30.4",
    );
    let rows = estimator::table1(SEED);
    println!(
        "{:<18} {:>14} {:>16}",
        "Benchmark", "Speedup err %", "CPU time err %"
    );
    for r in &rows {
        println!(
            "{:<18} {:>14.2} {:>16.2}",
            r.app, r.speedup_err, r.cpu_time_err
        );
    }
    println!(
        "{:<18} {:>14.2}",
        "mean",
        estimator::table1_mean_speedup_error(&rows)
    );
}

fn sweep_k() {
    header(
        "Ablation: estimator k sweep (paper: k=2 near-best)",
        "k = 2 'achieved near-best estimations for all configurations'",
    );
    println!("{:<6} {:>20}", "k", "mean speedup err %");
    for (k, e) in estimator::table1_sweep_k(SEED, &[1, 2, 3, 4, 6, 8]) {
        println!("{k:<6} {e:>20.2}");
    }
}

fn sweep_models() {
    header(
        "Ablation: model-learning algorithms (paper future work)",
        "the paper uses plain kNN; fixed-speedup assumptions (Mars) are its critique target",
    );
    println!(
        "{:<20} {:>18} {:>18}",
        "model", "speedup err %", "CPU time err %"
    );
    for r in estimator::sweep_models(SEED) {
        println!(
            "{:<20} {:>18.2} {:>18.2}",
            r.model, r.speedup_err, r.cpu_time_err
        );
    }
}

fn fig6(s: &Scale) {
    header(
        "Fig. 6: NBIA GPU speedup vs tile size, sync vs async copy",
        "sync: ~1x @32², ~33x @512²; async removes ≤83% of transfer overhead (~20% app gain @512²)",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>22}",
        "tile", "sync x", "async x", "xfer overhead cut %"
    );
    for r in transfer::fig6(&[32, 64, 128, 256, 512], s.fig6_tiles) {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>22.1}",
            format!("{0}x{0}", r.side),
            r.sync_speedup,
            r.async_speedup,
            r.transfer_reduction_pct
        );
    }
}

fn fig7(s: &Scale) {
    header(
        "Fig. 7: VI exec time vs #streams per chunk size",
        "time falls with stream count to a chunk-size-dependent optimum, then degrades",
    );
    let streams = transfer::STREAM_SWEEP;
    let rows = transfer::fig7(&[100_000, 500_000, 1_000_000], &streams, s.vi_len);
    print!("{:<10}", "streams");
    for c in [100_000u64, 500_000, 1_000_000] {
        print!(" {:>11}", format!("{}K", c / 1000));
    }
    println!();
    for &st in &streams {
        print!("{st:<10}");
        for c in [100_000u64, 500_000, 1_000_000] {
            let t = rows
                .iter()
                .find(|r| r.chunk == c && r.streams == st)
                .map(|r| r.exec_secs)
                .unwrap_or(f64::NAN);
            print!(" {t:>10.2}s");
        }
        println!();
    }
    let series: Vec<Series> = [100_000u64, 500_000, 1_000_000]
        .iter()
        .map(|&c| {
            Series::new(
                format!("{}K", c / 1000),
                rows.iter()
                    .filter(|r| r.chunk == c)
                    .map(|r| ((r.streams as f64).log2(), r.exec_secs))
                    .collect(),
            )
        })
        .collect();
    println!("(x axis: log2 streams)");
    print!(
        "{}",
        render(
            &series,
            ChartSpec {
                zero_y: false,
                ..ChartSpec::default()
            }
        )
    );
}

fn table2(s: &Scale) {
    header(
        "Table 2: VI best static stream count vs dynamic algorithm",
        "best static 16.50/16.16/16.15 s; dynamic 16.53/16.23/16.16 s (within ~1%)",
    );
    println!(
        "{:<10} {:>16} {:>14} {:>14} {:>8}",
        "chunk", "best static (s)", "@streams", "dynamic (s)", "ratio"
    );
    for r in transfer::table2(
        &[100_000, 500_000, 1_000_000],
        &transfer::STREAM_SWEEP,
        s.vi_len,
    ) {
        println!(
            "{:<10} {:>16.2} {:>14} {:>14.2} {:>8.3}",
            format!("{}K", r.chunk / 1000),
            r.best_static_secs,
            r.best_static_streams,
            r.dynamic_secs,
            r.dynamic_secs / r.best_static_secs
        );
    }
}

fn table3(s: &Scale) {
    header(
        "Table 3: CPU-only NBIA time vs recalculation rate",
        "0% 30s / 4% 350s / 8% 665s / 12% 974s / 16% 1287s / 20% 1532s",
    );
    println!("{:<8} {:>12}", "rate %", "time (s)");
    for (rate, t) in cluster::table3(&RATES, s.base_tiles) {
        println!("{:<8.0} {:>12.1}", rate * 100.0, t);
    }
}

fn fig8(s: &Scale) {
    header(
        "Fig. 8: intra-filter policies, 1 CPU+GPU node (sync copies)",
        "at 16%: GPU-only 16.06x, DDFCFS 16.78x, DDWRR 29.79x (DDWRR ~2x GPU-only)",
    );
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "rate %", "GPU-only", "DDFCFS", "DDWRR"
    );
    for r in cluster::fig8(&RATES, s.base_tiles) {
        println!(
            "{:<8.0} {:>10.2} {:>10.2} {:>10.2}",
            r.rate * 100.0,
            r.gpu_only,
            r.ddfcfs,
            r.ddwrr
        );
    }
}

fn table4(s: &Scale) {
    header(
        "Table 4: % of tiles processed by the CPU at 16% recalc",
        "DDFCFS: 1.52% low / 14.70% high; DDWRR: 84.63% low / 0.16% high",
    );
    println!("{:<10} {:>12} {:>12}", "policy", "32x32 %", "512x512 %");
    for (name, low, high) in cluster::table4(s.base_tiles) {
        println!("{name:<10} {low:>12.2} {high:>12.2}");
    }
}

fn fig9(s: &Scale) {
    header(
        "Fig. 9: homogeneous base case (1 CPU+GPU node), async copies",
        "ODDS ≥ DDWRR even on one node (~23% at 20% recalc incl. async gains)",
    );
    stream_rows(cluster::fig9(&RATES, s.base_tiles));
}

fn fig10(s: &Scale) {
    header(
        "Fig. 10: heterogeneous base case (+1 dual-core CPU node)",
        "at 8%: DDWRR ~25x vs ODDS ~44x (ODDS exploits the CPU-only node)",
    );
    stream_rows(cluster::fig10(&RATES, s.base_tiles));
}

fn stream_rows(rows: Vec<cluster::StreamPolicyRow>) {
    println!(
        "{:<8} {:>10} {:>10} {:>10}",
        "rate %", "DDFCFS", "DDWRR", "ODDS"
    );
    for r in &rows {
        println!(
            "{:<8.0} {:>10.2} {:>10.2} {:>10.2}",
            r.rate * 100.0,
            r.ddfcfs,
            r.ddwrr,
            r.odds
        );
    }
    let series = vec![
        Series::new(
            "DDFCFS",
            rows.iter().map(|r| (r.rate * 100.0, r.ddfcfs)).collect(),
        ),
        Series::new(
            "DDWRR",
            rows.iter().map(|r| (r.rate * 100.0, r.ddwrr)).collect(),
        ),
        Series::new(
            "ODDS",
            rows.iter().map(|r| (r.rate * 100.0, r.odds)).collect(),
        ),
    ];
    print!("{}", render(&series, ChartSpec::default()));
}

fn table6(s: &Scale) {
    header(
        "Table 6: % of tiles processed by the GPU per resolution (8% recalc)",
        "homog: low 98.2/17.1/7.0, high 92.4/96.3/97.9; heter: low 84.9/16.7/0, high 85.7/92.9/97.6 (DDFCFS/DDWRR/ODDS)",
    );
    println!(
        "{:<15} {:<10} {:>12} {:>12}",
        "config", "policy", "low res %", "high res %"
    );
    for (c, p, low, high) in cluster::table6(s.base_tiles) {
        println!("{c:<15} {p:<10} {low:>12.2} {high:>12.2}");
    }
}

fn fig11(s: &Scale) {
    header(
        "Fig. 11: best static streamRequestSize (exhaustive) vs ODDS dynamic",
        "DDWRR prefers large windows, DDFCFS small ones; ODDS adapts at run time",
    );
    let windows = [1, 2, 4, 8, 16, 30, 50, 80];
    println!(
        "{:<8} {:>14} {:>14} {:>18}",
        "rate %", "best DDFCFS", "best DDWRR", "ODDS mean window"
    );
    for (rate, f, w, o) in cluster::fig11(&RATES[1..], &windows, s.base_tiles) {
        println!("{:<8.0} {f:>14} {w:>14} {o:>18.1}", rate * 100.0);
    }
}

fn fig12(s: &Scale, trace: Option<&str>) {
    header(
        "Fig. 12: ODDS dynamics on the heterogeneous base case (10% recalc)",
        "(a) near-full CPU utilization; (b) windows shrink at the high-res tail",
    );
    let recorder = if trace.is_some() {
        Recorder::enabled()
    } else {
        Recorder::disabled()
    };
    let r = cluster::fig12_traced(s.base_tiles, 20, recorder.clone());
    if let Some(path) = trace {
        let events = recorder.events();
        let text = if path.ends_with(".jsonl") {
            jsonl::to_jsonl(&events)
        } else {
            chrome::to_chrome_trace(&events)
        };
        match std::fs::write(path, text) {
            Ok(()) => println!("wrote {} trace events to {path}", events.len()),
            Err(e) => {
                eprintln!("failed to write trace to {path}: {e}");
                std::process::exit(1);
            }
        }
    }
    println!("(a) utilization trace (fraction busy per 5% bucket):");
    for (dev, trace) in &r.util_traces {
        let cells: Vec<String> = trace
            .iter()
            .map(|&(_, u)| format!("{:3.0}", u * 100.0))
            .collect();
        println!("  {:<10} {}", dev.to_string(), cells.join(" "));
    }
    println!("(b) request-window trace (sampled):");
    for (dev, trace) in &r.request_traces {
        if trace.is_empty() {
            continue;
        }
        let n = trace.len();
        let step = (n / 20).max(1);
        let cells: Vec<String> = trace
            .iter()
            .step_by(step)
            .take(20)
            .map(|&(_, v)| format!("{v:3}"))
            .collect();
        println!("  {:<10} {}", dev.to_string(), cells.join(" "));
    }
    println!("request latency (p50/p95 across threads):");
    for kind in [
        anthill_hetsim::DeviceKind::Cpu,
        anthill_hetsim::DeviceKind::Gpu,
    ] {
        println!(
            "  {kind}: {} / {}",
            r.latency_quantile(kind, 0.5),
            r.latency_quantile(kind, 0.95)
        );
    }
    println!("speedup {:.2}", r.speedup());
}

fn fig13(s: &Scale) {
    header(
        "Fig. 13: scaling the homogeneous cluster (8% recalc, 267,420 tiles)",
        "DDWRR ~2x GPU-only; ODDS +15% over DDWRR; near-linear scaling",
    );
    scaling_rows(cluster::fig13(&[1, 2, 4, 7, 10, 14], s.scaling_tiles));
}

fn fig14(s: &Scale) {
    header(
        "Fig. 14: scaling the heterogeneous cluster (50% GPU-less nodes)",
        "ODDS ~2x DDWRR; 14 heterogeneous nodes far exceed 7 GPU-only machines",
    );
    scaling_rows(cluster::fig14(&[2, 4, 8, 10, 14], s.scaling_tiles));
}

fn mixed_gpus(s: &Scale) {
    header(
        "Extension: mixed GPU types (Section 6.2's remark)",
        "'on an environment with mixed GPU types, an optimal single value might not exist'",
    );
    println!(
        "{:<10} {:>14} {:>14} {:>12}",
        "streams", "8800GT (s)", "GTX280 (s)", "makespan"
    );
    for r in transfer::mixed_gpus(200_000, s.vi_len / 2, &[1, 4, 8, 16, 32, 64, 128]) {
        let label = if r.streams == 0 {
            "adaptive".to_string()
        } else {
            r.streams.to_string()
        };
        println!(
            "{label:<10} {:>14.2} {:>14.2} {:>12.2}",
            r.old_gpu_secs, r.new_gpu_secs, r.makespan_secs
        );
    }
}

fn concurrent_kernels(s: &Scale) {
    header(
        "Extension: concurrent kernels on one GPU (paper future work)",
        "'we intend to consider the concurrent execution of multiple tasks on the same GPU'",
    );
    println!("{:<8} {:>12}", "slots", "exec (s)");
    for r in transfer::concurrent_kernels(s.base_tiles as usize, &[1, 2, 4, 8, 16, 32]) {
        println!("{:<8} {:>12.2}", r.slots, r.exec_secs);
    }
}

fn fusion(s: &Scale) {
    header(
        "Ablation: fused vs unfused NBIA GPU filters",
        "'we also fused the GPU NBIA filters to avoid extra overhead due to unnecessary GPU/CPU data transfers'",
    );
    println!(
        "{:<8} {:>12} {:>12} {:>10}",
        "tile", "fused (s)", "unfused (s)", "overhead"
    );
    for r in transfer::ablate_fusion(&[32, 128, 512], s.fig6_tiles) {
        println!(
            "{:<8} {:>12.2} {:>12.2} {:>9.1}%",
            format!("{0}x{0}", r.side),
            r.fused_secs,
            r.unfused_secs,
            100.0 * (r.unfused_secs / r.fused_secs - 1.0)
        );
    }
}

fn slow_node(s: &Scale) {
    header(
        "Extension: perturbed (slowed) CPU-only node, heterogeneous base case",
        "adaptivity claim beyond the paper: DQAA rebalances around a degraded machine",
    );
    println!("{:<10} {:>10} {:>10}", "speed", "DDWRR", "ODDS");
    for r in cluster::perturb_slow_node(&[1.0, 0.75, 0.5, 0.25], s.base_tiles) {
        println!("{:<10.2} {:>10.2} {:>10.2}", r.speed, r.ddwrr, r.odds);
    }
}

fn learned_policies(quick: bool) {
    header(
        "Extension: learned scheduling (online estimator, affinity, bandit) vs DDWRR",
        "Table 5 extension; online profile recovery of a stale phase-one benchmark",
    );
    println!(
        "{:<14} {:<9} {:>12} {:>8} {:>8} {:>8} {:>9} {:>10}",
        "scenario", "policy", "makespan(ms)", "cpu", "gpu", "decide", "profile", "vs ddwrr"
    );
    for r in policies::head_to_head(quick) {
        println!(
            "{:<14} {:<9} {:>12.1} {:>8} {:>8} {:>8} {:>9} {:>+9.2}%",
            r.scenario,
            r.policy,
            r.makespan_ms,
            r.tasks_cpu,
            r.tasks_gpu,
            r.decisions,
            r.profile_updates,
            r.vs_ddwrr_pct
        );
    }
}

fn scaling_rows(rows: Vec<cluster::ScalingRow>) {
    println!(
        "{:<8} {:>10} {:>10} {:>10} {:>10}",
        "nodes", "GPU-only", "DDFCFS", "DDWRR", "ODDS"
    );
    for r in &rows {
        println!(
            "{:<8} {:>10.2} {:>10.2} {:>10.2} {:>10.2}",
            r.nodes, r.gpu_only, r.ddfcfs, r.ddwrr, r.odds
        );
    }
    let xs = |f: &dyn Fn(&cluster::ScalingRow) -> f64| {
        rows.iter()
            .map(|r| (r.nodes as f64, f(r)))
            .collect::<Vec<_>>()
    };
    let series = vec![
        Series::new("GPU-only", xs(&|r| r.gpu_only)),
        Series::new("DDFCFS", xs(&|r| r.ddfcfs)),
        Series::new("DDWRR", xs(&|r| r.ddwrr)),
        Series::new("ODDS", xs(&|r| r.odds)),
    ];
    print!("{}", render(&series, ChartSpec::default()));
}
