//! Chrome `trace_event` export (the JSON Array/Object format understood by
//! `chrome://tracing` and Perfetto).
//!
//! Mapping:
//!
//! | trace event | Chrome phase |
//! |---|---|
//! | `Start`..`Finish` per (device, buffer) | `X` complete slice |
//! | `Transfer` | `X` complete slice (`H2D`/`D2H`) |
//! | `DqaaWindow`, `Streams` | `C` counter |
//! | every other kind | `i` instant, labelled and scoped by its row of the event table |
//! | process/thread names | `M` metadata |
//!
//! `pid` is the node (sim) or stage (local); `tid` is derived from the
//! device class and index. Timestamps are microseconds with exact
//! nanosecond sub-decimal (`ns/1000 + "." + ns%1000`) — integer math only,
//! so same-seed runs export byte-identical files.

use std::collections::{BTreeSet, HashMap};
use std::fmt::Write as _;

use anthill_hetsim::{CopyDir, DeviceKind};

use super::event::{DeviceRef, EventKind, TraceEvent};

/// Deterministic thread id for an origin: node scope gets 0, CPUs
/// 1..=100, GPUs 101.. (well past any realistic per-node device count).
fn tid(origin: &DeviceRef) -> u32 {
    match origin.kind {
        None => 0,
        Some(DeviceKind::Cpu) => 1 + origin.index,
        Some(DeviceKind::Gpu) => 101 + origin.index,
    }
}

/// Microseconds with exact nanosecond fraction, e.g. `1234.567`.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// The body of a record's `args` object: the kind's payload fields in
/// table order, minus `level`.
fn args(kind: &EventKind) -> String {
    let mut out = String::new();
    kind.for_each_field(|name, value| {
        if name != "level" {
            if !out.is_empty() {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":");
            value.write_chrome(&mut out);
        }
    });
    out
}

/// Serialize events into one Chrome/Perfetto trace document.
pub fn to_chrome_trace(events: &[TraceEvent]) -> String {
    let mut out: Vec<String> = Vec::with_capacity(events.len() + 16);

    // Metadata: name each process (node) and thread (device) that appears.
    let origins: BTreeSet<DeviceRef> = events.iter().map(|e| e.origin).collect();
    let nodes: BTreeSet<u32> = origins.iter().map(|o| o.node).collect();
    for &node in &nodes {
        out.push(format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":{node},\"tid\":0,\
             \"args\":{{\"name\":\"node{node}\"}}}}"
        ));
    }
    for origin in &origins {
        let label = match origin.kind {
            Some(k) => format!("{}{}", k, origin.index),
            None => "queue".to_string(),
        };
        out.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"ts\":0.000,\"pid\":{},\"tid\":{},\
             \"args\":{{\"name\":\"{label}\"}}}}",
            origin.node,
            tid(origin),
        ));
    }

    // Open Start slices waiting for their Finish, per (origin, buffer).
    let mut open: HashMap<(DeviceRef, u64), u64> = HashMap::new();
    for ev in events {
        if let EventKind::Start { buffer, .. } = ev.kind {
            open.insert((ev.origin, buffer), ev.ts_ns);
            continue;
        }
        let args = args(&ev.kind);
        let (name, ph, ts_ns, extra) = match ev.kind {
            EventKind::Finish {
                buffer,
                level,
                proc_ns,
            } => {
                // Slice from the matching Start; a Finish with no recorded
                // Start (partial trace) falls back to its processing time.
                let begin = open
                    .remove(&(ev.origin, buffer))
                    .unwrap_or_else(|| ev.ts_ns.saturating_sub(proc_ns));
                let dur = us(ev.ts_ns.saturating_sub(begin));
                (
                    format!("task L{level}"),
                    'X',
                    begin,
                    format!(",\"dur\":{dur},\"cat\":\"task\",\"args\":{{{args}}}"),
                )
            }
            EventKind::Transfer { dir, bytes, end_ns } => {
                let name = match dir {
                    CopyDir::H2D => "H2D",
                    CopyDir::D2H => "D2H",
                };
                let dur = us(end_ns.saturating_sub(ev.ts_ns));
                (
                    name.to_string(),
                    'X',
                    ev.ts_ns,
                    format!(",\"dur\":{dur},\"cat\":\"transfer\",\"args\":{{\"bytes\":{bytes}}}"),
                )
            }
            EventKind::DqaaWindow { .. } => (
                format!("window {}", ev.origin),
                'C',
                ev.ts_ns,
                format!(",\"args\":{{{args}}}"),
            ),
            EventKind::Streams { .. } => (
                format!("streams {}", ev.origin),
                'C',
                ev.ts_ns,
                format!(",\"args\":{{{args}}}"),
            ),
            kind => {
                let (label, scope) = kind
                    .chrome_instant()
                    .expect("slices and counters are drawn above");
                (
                    label.to_string(),
                    'i',
                    ev.ts_ns,
                    format!(",\"s\":\"{scope}\",\"args\":{{{args}}}"),
                )
            }
        };
        out.push(format!(
            "{{\"name\":\"{name}\",\"ph\":\"{ph}\",\"ts\":{},\"pid\":{},\"tid\":{}{extra}}}",
            us(ts_ns),
            ev.origin.node,
            tid(&ev.origin),
        ));
    }

    format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}\n",
        out.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::super::event::sample_events;
    use super::super::json::{self, Value};
    use super::*;

    fn parse_trace(text: &str) -> Vec<Value> {
        let doc = json::parse(text.trim_end()).expect("valid JSON document");
        doc.get("traceEvents")
            .and_then(Value::as_arr)
            .expect("traceEvents array")
            .to_vec()
    }

    #[test]
    fn every_event_has_required_fields() {
        let events = sample_events();
        let evs = parse_trace(&to_chrome_trace(&events));
        let mut drawn = 0;
        for e in &evs {
            let ph = e.get("ph").and_then(Value::as_str).expect("ph field");
            assert!(["X", "C", "i", "M"].contains(&ph), "phase {ph}");
            assert!(e.get("ts").and_then(Value::as_f64).is_some(), "ts field");
            assert!(e.get("pid").and_then(Value::as_u64).is_some(), "pid field");
            assert!(e.get("tid").and_then(Value::as_u64).is_some(), "tid field");
            assert!(e.get("name").and_then(Value::as_str).is_some(), "name");
            assert!(e.get("args").is_some(), "args");
            if ph == "X" {
                assert!(e.get("dur").and_then(Value::as_f64).is_some(), "dur on X");
            }
            drawn += usize::from(ph != "M");
        }
        // Every kind draws one record, except `Start` (it only opens a slice).
        assert_eq!(drawn, events.len() - 1);
    }

    #[test]
    fn start_finish_pairs_become_complete_slices() {
        let cpu = DeviceRef::worker(0, DeviceKind::Cpu, 0);
        let (buffer, level) = (1, 0);
        let pair = [
            TraceEvent {
                ts_ns: 1_000,
                origin: cpu,
                kind: EventKind::Start { buffer, level },
            },
            TraceEvent {
                ts_ns: 5_500,
                origin: cpu,
                kind: EventKind::Finish {
                    buffer,
                    level,
                    proc_ns: 4_000,
                },
            },
        ];
        let evs = parse_trace(&to_chrome_trace(&pair));
        let slice = evs
            .iter()
            .find(|e| e.get("name").and_then(Value::as_str) == Some("task L0"))
            .expect("task slice");
        // Start at 1000 ns = 1.000 µs; dur 4500 ns from the pair, not `proc_ns`.
        assert_eq!(slice.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(slice.get("dur").unwrap().as_f64(), Some(4.5));
        assert_eq!(
            slice.get("args").unwrap().get("buffer").unwrap().as_u64(),
            Some(1)
        );
    }

    #[test]
    fn empty_trace_is_still_valid_json() {
        let text = to_chrome_trace(&[]);
        let doc = json::parse(text.trim_end()).expect("valid");
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 0);
    }
}
