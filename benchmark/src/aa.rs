//! `bench aa` — the A/A study: two alternated sets of runs of the same
//! binary on every workload, compared the way a later change will be
//! compared with its parent. The bounds in `BENCHMARK.json` were set from
//! its output, and it is the check that the benchmark repeats within them.

use std::process::Command;

use anthill::obs::json;

use crate::report::{EndToEnd, END_TO_END};
use crate::stats::{median, sort};
use crate::workloads::NAMES;

/// A metric repeats well enough when its spread is under this share of its
/// bound: a real regression of one bound then stands clear of the noise.
const COMFORT: f64 = 1.0 / 3.0;

struct Options {
    runs: usize,
    seconds: f64,
    first_seed: u64,
}

fn parse(argv: &[String]) -> Result<Options, String> {
    let mut o = Options {
        runs: 5,
        seconds: 12.0,
        first_seed: 1,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--runs" => o.runs = value.parse().ok().filter(|&n| n >= 2).ok_or_else(bad)?,
            "--seconds" => o.seconds = value.parse().ok().filter(|&s| s > 0.0).ok_or_else(bad)?,
            "--seed" => o.first_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

/// One untraced run of this binary in a child process; returns the six
/// end-to-end values in [`END_TO_END`] order.
fn child_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("spawning a run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .last()
        .filter(|_| out.status.success())
        .ok_or_else(|| {
            format!(
                "{workload} seed {seed} failed: {}",
                String::from_utf8_lossy(&out.stderr)
            )
        })?;
    let doc = json::parse(line)?;
    if doc.get("correct").and_then(|v| v.as_bool()) != Some(true) {
        return Err(format!(
            "{workload} seed {seed}: outputs failed verification"
        ));
    }
    END_TO_END
        .iter()
        .map(|m| {
            doc.get("metrics")
                .and_then(|ms| ms.get(m.name))
                .and_then(|v| v.get("value"))
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("{workload}: no {} in the result line", m.name))
        })
        .collect()
}

/// Interquartile range over the median, with the quartiles of Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), which is
/// what the driver computes.
fn spread(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let quartile = |j: usize| -> f64 {
        // 1-based position j(n+1)/4, clamped to the sample.
        let idx = (j * (n + 1) / 4).clamp(1, n - 1);
        let frac = (j * (n + 1) % 4) as f64 / 4.0;
        v[idx - 1] + (v[idx] - v[idx - 1]) * frac
    };
    (quartile(3) - quartile(1)) / median(values)
}

/// By what share of `a` the median `b` is worse (negative: better).
fn worse_by(gate: &EndToEnd, a: f64, b: f64) -> f64 {
    if gate.lower_is_better {
        (b - a) / a
    } else {
        (a - b) / a
    }
}

pub fn main(argv: &[String]) -> Result<(), String> {
    let o = parse(argv)?;
    println!(
        "A/A: 2 sets x {} runs x {} workloads, {} s each, seeds from {}",
        o.runs,
        NAMES.len(),
        o.seconds,
        o.first_seed
    );
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>7} {:>8} {:>8} {:>8} {:>8}  verdict",
        "workload",
        "metric",
        "median A",
        "median B",
        "B-A %",
        "iqr A %",
        "iqr B %",
        "max/min",
        "bound %"
    );
    let mut failures = 0;
    let mut tight = 0;
    for workload in NAMES {
        // sets[set][metric] -> values; runs alternate A, B, A, B, ...
        let mut sets = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for run in 0..2 * o.runs {
            let values = child_run(workload, o.first_seed + run as u64, o.seconds)?;
            for (column, v) in sets[run % 2].iter_mut().zip(values) {
                column.push(v);
            }
        }
        for (i, gate) in END_TO_END.iter().enumerate() {
            let (a, b) = (&sets[0][i], &sets[1][i]);
            let (ma, mb) = (median(a), median(b));
            let (sa, sb) = (spread(a), spread(b));
            let ratio = |v: &[f64]| {
                v.iter().copied().fold(f64::MIN, f64::max)
                    / v.iter().copied().fold(f64::MAX, f64::min)
            };
            let max_min = ratio(a).max(ratio(b));
            let drift = worse_by(gate, ma, mb).max(worse_by(gate, mb, ma));
            // `setup_s` is exempt from the spread check, as in the driver.
            let spread_ok = gate.name == "setup_s" || sa.max(sb) <= gate.bound;
            let ok = spread_ok && drift <= gate.bound;
            let comfortable = sa.max(sb) <= COMFORT * gate.bound;
            failures += usize::from(!ok);
            tight += usize::from(ok && !comfortable);
            println!(
                "{:<12} {:<16} {:>12.4} {:>12.4} {:>7.2} {:>8.2} {:>8.2} {:>8.3} {:>8.1}  {}",
                workload,
                gate.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * sa,
                100.0 * sb,
                max_min,
                100.0 * gate.bound,
                match (ok, comfortable) {
                    (false, _) => "FAIL",
                    (true, false) => "pass (spread over a third of the bound)",
                    (true, true) => "pass",
                }
            );
        }
    }
    println!(
        "{failures} of {} pairs fail, {tight} pass with little room",
        NAMES.len() * END_TO_END.len()
    );
    if failures == 0 {
        Ok(())
    } else {
        Err(format!(
            "{failures} (metric, workload) pairs do not repeat within their bounds"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worse_follows_the_metrics_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[0];
        assert!(lower.lower_is_better && !higher.lower_is_better);
        assert!((worse_by(lower, 100.0, 108.0) - 0.08).abs() < 1e-12);
        assert!(worse_by(lower, 100.0, 90.0) < 0.0);
        assert!((worse_by(higher, 100.0, 95.0) - 0.05).abs() < 1e-12);
        assert!(worse_by(higher, 100.0, 110.0) < 0.0);
    }

    #[test]
    fn spread_is_the_interquartile_range_over_the_median() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((spread(&[1.0, 2.0, 4.0, 8.0, 16.0]) - 10.5 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn options_parse_and_reject() {
        let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        let o = parse(&argv("--runs 7 --seconds 3")).unwrap();
        assert_eq!((o.runs, o.seconds, o.first_seed), (7, 3.0, 1));
        assert!(parse(&argv("--runs 1")).is_err());
        assert!(parse(&argv("--seconds -1")).is_err());
        assert!(parse(&argv("--runs")).is_err());
    }
}
