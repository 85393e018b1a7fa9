//! JSONL trace export: one event per line, integers only, fixed key order.
//!
//! The serialization is intentionally rigid — field order is fixed and
//! every value is an integer or a short lowercase token — so that two
//! deterministic simulation runs with the same seed produce *byte
//! identical* dumps. [`parse_jsonl`] reads a dump back into events for
//! offline analysis and round-trip tests.

use std::fmt::Write as _;

use super::event::{
    device_token, parse_device_token, read_int, read_str, DeviceRef, EventKind, TraceEvent,
};
use super::json::{self, Value};

/// Serialize events, one JSON object per line.
///
/// Line shape: `{"ts":N,"node":N,"dev":"cpu0"|null,"kind":"...",...}` with
/// the kind's payload fields after `kind`, in the order the event table
/// declares them.
pub fn to_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 64);
    for ev in events {
        write_event(&mut out, ev);
        out.push('\n');
    }
    out
}

fn write_event(out: &mut String, ev: &TraceEvent) {
    let _ = write!(out, "{{\"ts\":{},\"node\":{}", ev.ts_ns, ev.origin.node);
    let _ = match ev.origin.kind {
        Some(k) => write!(out, ",\"dev\":\"{}{}\"", device_token(k), ev.origin.index),
        None => write!(out, ",\"dev\":null"),
    };
    let _ = write!(out, ",\"kind\":\"{}\"", ev.kind.name());
    ev.kind.for_each_field(|name, value| {
        let _ = write!(out, ",\"{name}\":");
        value.write_jsonl(out);
    });
    out.push('}');
}

/// Parse a JSONL dump produced by [`to_jsonl`] back into events.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        events.push(parse_event(&v).map_err(|e| format!("line {}: {e}", i + 1))?);
    }
    Ok(events)
}

fn parse_event(v: &Value) -> Result<TraceEvent, String> {
    let ts_ns = read_int(v, "ts")?;
    let node = read_int(v, "node")?;
    let origin = match v.get("dev") {
        Some(Value::Null) | None => DeviceRef {
            node,
            kind: None,
            index: 0,
        },
        Some(Value::Str(dev)) => {
            let split = dev
                .find(|c: char| c.is_ascii_digit())
                .ok_or_else(|| format!("device '{dev}' has no index"))?;
            DeviceRef {
                node,
                kind: Some(parse_device_token(&dev[..split])?),
                index: dev[split..]
                    .parse::<u32>()
                    .map_err(|e| format!("device '{dev}': {e}"))?,
            }
        }
        Some(other) => return Err(format!("bad 'dev' field: {other}")),
    };
    Ok(TraceEvent {
        ts_ns,
        origin,
        kind: EventKind::parse(read_str(v, "kind")?, v)?,
    })
}

#[cfg(test)]
mod tests {
    use super::super::event::sample_events;
    use super::*;
    use anthill_hetsim::DeviceKind;

    #[test]
    fn round_trips_every_event_kind() {
        let events = sample_events();
        let text = to_jsonl(&events);
        let back = parse_jsonl(&text).expect("parse back");
        assert_eq!(back, events);
    }

    #[test]
    fn every_line_is_valid_json_with_required_fields() {
        let text = to_jsonl(&sample_events());
        assert_eq!(text.lines().count(), 22);
        for line in text.lines() {
            let v = json::parse(line).expect("valid JSON line");
            assert!(v.get("ts").and_then(Value::as_u64).is_some(), "{line}");
            assert!(v.get("node").and_then(Value::as_u64).is_some(), "{line}");
            assert!(v.get("kind").and_then(Value::as_str).is_some(), "{line}");
            assert!(v.get("dev").is_some(), "{line}");
        }
    }

    #[test]
    fn serialization_is_stable() {
        let ev = TraceEvent {
            ts_ns: 5,
            origin: DeviceRef::worker(1, DeviceKind::Gpu, 0),
            kind: EventKind::Finish {
                buffer: 3,
                level: 1,
                proc_ns: 42,
            },
        };
        assert_eq!(
            to_jsonl(&[ev]),
            "{\"ts\":5,\"node\":1,\"dev\":\"gpu0\",\"kind\":\"finish\",\"buffer\":3,\"level\":1,\"proc_ns\":42}\n"
        );
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse_jsonl("{\"ts\":1}").is_err()); // missing node/kind
        assert!(parse_jsonl("not json").is_err());
        assert!(parse_jsonl("{\"ts\":1,\"node\":0,\"dev\":null,\"kind\":\"bogus\"}").is_err());
        // A value too wide for its field is an error naming the field, not
        // a silent wrap-around (`"level":256` used to read back as level 0).
        let wide = u64::from(u32::MAX) + 1;
        let head = r#"{"ts":1,"node":0,"dev":null,"kind""#;
        let mut bad = vec![
            (
                format!(r#"{head}:"enqueue","buffer":1,"level":256}}"#),
                "level",
            ),
            (
                format!(r#"{head}:"task_retried","buffer":1,"level":0,"attempt":{wide}}}"#),
                "attempt",
            ),
            (
                format!(r#"{head}:"edge_enqueued","edge":{wide},"buffer":1,"level":0}}"#),
                "edge",
            ),
            (
                format!(
                    r#"{head}:"policy_decision","buffer":1,"arm":"cpu","explore":256,"cpu_ppm":1,"gpu_ppm":1}}"#
                ),
                "explore",
            ),
            (
                format!(r#"{{"ts":1,"node":{wide},"dev":null,"kind":"worker_left"}}"#),
                "node",
            ),
            (
                format!(r#"{{"ts":1,"node":0,"dev":"cpu{wide}","kind":"worker_left"}}"#),
                "device",
            ),
        ];
        for (kind, field) in [
            ("streams", "count"),
            ("dqaa_window", "target"),
            ("worker_died", "inflight"),
            ("worker_joined", "window"),
            ("worker_draining", "outstanding"),
        ] {
            bad.push((format!(r#"{head}:"{kind}","{field}":{wide}}}"#), field));
        }
        for (line, field) in bad {
            let err = parse_jsonl(&line).expect_err(&line);
            assert!(err.contains(field), "{line}: {err}");
        }
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = format!("\n{}\n", to_jsonl(&sample_events()));
        assert_eq!(parse_jsonl(&text).unwrap().len(), 22);
    }
}
