//! `BENCH_net.json`: the coordinator's fan-in scale report schema
//! (DESIGN.md §15).
//!
//! The `repro netbench` gate runs one event-loop coordinator over 1000
//! in-process loopback workers and records the absolute outcome: every
//! task completed, zero deaths, frames/sec, and the write path's
//! pool-miss rate (`alloc_per_frame` — the zero-copy claim in one
//! number). `--quick` keeps the 1000 workers and shrinks the task count.
//!
//! [`validate_netbench_report`] is the schema gate CI runs against the
//! written file: structural presence, nothing lost, nobody killed, an
//! amortized allocation rate of at most one buffer per hundred frames
//! (a pool that retains fewer buffers than the fan-in holds between two
//! flushes reads 0.1–0.4 here), and full-size scale evidence on
//! non-`--quick` documents.

use anthill::obs::json;

/// The fan-in run: one coordinator, `workers` loopback connections.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Loopback workers connected to the one coordinator.
    pub workers: u64,
    /// Source buffers offered.
    pub tasks: u64,
    /// Buffers completed (must equal `tasks`).
    pub completed: u64,
    /// Worker deaths (must be zero).
    pub deaths: u64,
    /// Wall-clock duration, milliseconds.
    pub wall_ms: f64,
    /// Wire frames per second over the whole run.
    pub frames_per_sec: f64,
    /// Write-path buffer allocations per transmitted frame.
    pub alloc_per_frame: f64,
}

/// Render the scale row as the `BENCH_net.json` document. The output
/// satisfies [`validate_netbench_report`] whenever the row records a
/// passing run.
pub fn render_netbench_report(scale: &ScaleRow, quick: bool, seed: u64) -> String {
    format!(
        concat!(
            "{{\n",
            "  \"seed\": {seed},\n",
            "  \"quick\": {quick},\n",
            "  \"scale\": {{\n",
            "    \"workers\": {sw}, \"tasks\": {st}, \"completed\": {sc}, ",
            "\"deaths\": {sd},\n",
            "    \"wall_ms\": {swall:.2}, \"frames_per_sec\": {sf:.1}, ",
            "\"alloc_per_frame\": {sapf:.6}\n",
            "  }}\n",
            "}}\n"
        ),
        seed = seed,
        quick = quick,
        sw = scale.workers,
        st = scale.tasks,
        sc = scale.completed,
        sd = scale.deaths,
        swall = scale.wall_ms,
        sf = scale.frames_per_sec,
        sapf = scale.alloc_per_frame,
    )
}

fn require_u64(obj: &json::Value, key: &str) -> Result<u64, String> {
    obj.get(key)
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("missing numeric '{key}'"))
}

fn require_f64(obj: &json::Value, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(|v| v.as_f64())
        .filter(|x| x.is_finite())
        .ok_or_else(|| format!("missing finite numeric '{key}'"))
}

/// Full-size scale bar: the acceptance run must prove the 1000-worker
/// loopback fan-in.
pub const SCALE_WORKERS_FULL: u64 = 1000;

/// Schema-validate a `BENCH_net.json` document. Beyond structural
/// presence this enforces the gate's meaning: the scale run lost nothing
/// and killed nobody, the write path amortizes to at most one allocation
/// per hundred frames, and a non-`--quick` document proves the full
/// 1000-worker fan-in.
pub fn validate_netbench_report(text: &str) -> Result<(), String> {
    let v = json::parse(text).map_err(|e| format!("not valid JSON: {e}"))?;
    v.get("seed")
        .and_then(|s| s.as_u64())
        .ok_or("missing numeric 'seed'")?;
    let quick = v
        .get("quick")
        .and_then(|q| q.as_bool())
        .ok_or("missing boolean 'quick'")?;

    let scale = v.get("scale").ok_or("missing 'scale' object")?;
    let ctx = |e: String| format!("scale: {e}");
    let s_workers = require_u64(scale, "workers").map_err(ctx)?;
    let s_tasks = require_u64(scale, "tasks").map_err(ctx)?;
    let s_completed = require_u64(scale, "completed").map_err(ctx)?;
    let s_deaths = require_u64(scale, "deaths").map_err(ctx)?;
    require_f64(scale, "wall_ms").map_err(ctx)?;
    require_f64(scale, "frames_per_sec").map_err(ctx)?;
    let s_apf = require_f64(scale, "alloc_per_frame").map_err(ctx)?;
    if s_completed != s_tasks {
        return Err(format!(
            "scale: lost work ({s_completed} of {s_tasks} done)"
        ));
    }
    if s_deaths != 0 {
        return Err(format!("scale: {s_deaths} worker death(s)"));
    }
    if !(0.0..=0.01).contains(&s_apf) {
        return Err(format!("scale: alloc_per_frame {s_apf} outside [0, 0.01]"));
    }
    if !quick && s_workers < SCALE_WORKERS_FULL {
        return Err(format!(
            "scale: full run proves only {s_workers} workers (need {SCALE_WORKERS_FULL})"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row() -> ScaleRow {
        ScaleRow {
            workers: 1000,
            tasks: 3_000,
            completed: 3_000,
            deaths: 0,
            wall_ms: 2_500.0,
            frames_per_sec: 40_000.0,
            alloc_per_frame: 0.01,
        }
    }

    #[test]
    fn report_renders_and_validates() {
        let text = render_netbench_report(&row(), false, 42);
        validate_netbench_report(&text).expect("schema-valid report");
    }

    #[test]
    fn validation_rejects_regressions_and_missing_evidence() {
        let good = render_netbench_report(&row(), false, 42);

        let leaky = good.replace(
            "\"alloc_per_frame\": 0.010000",
            "\"alloc_per_frame\": 0.050000",
        );
        assert!(validate_netbench_report(&leaky).is_err(), "alloc gate");

        let lost = good.replace("\"completed\": 3000", "\"completed\": 2999");
        assert!(validate_netbench_report(&lost).is_err(), "loss gate");

        let died = good.replace("\"deaths\": 0", "\"deaths\": 1");
        assert!(validate_netbench_report(&died).is_err(), "death gate");

        let small = good.replace("\"workers\": 1000", "\"workers\": 500");
        assert!(
            validate_netbench_report(&small).is_err(),
            "full runs must prove 1000 workers"
        );

        let rowless = good.replace("\"scale\"", "\"scales\"");
        assert!(
            validate_netbench_report(&rowless).is_err(),
            "the scale row is the report"
        );
    }

    #[test]
    fn quick_documents_may_shrink_the_scale_run() {
        let scale = ScaleRow {
            workers: 128,
            tasks: 512,
            completed: 512,
            ..row()
        };
        let text = render_netbench_report(&scale, true, 42);
        validate_netbench_report(&text).expect("quick scale shrink is legal");
    }
}
