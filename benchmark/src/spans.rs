//! Benchmark-side spans: one record around every call into a layer, kept in
//! memory and written as a Chrome `trace_event` file when the run ends.
//! The library is not instrumented; spans inside it are a later change.

use std::sync::Mutex;
use std::time::Instant;

/// One closed (or still open) interval around a call into a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    /// 0 while the span is open.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// The measured block the span belongs to; spans of one block share it.
    pub block: u32,
    /// 0 for the benchmark's main thread, 1.. for threads it spawned.
    pub lane: u32,
}

/// The in-memory span store of a traced run.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Where a piece of benchmark code records its spans: nowhere (untraced
/// blocks), or into a tracer under a given block and parent.
#[derive(Clone, Copy)]
pub struct Scope<'a> {
    tracer: Option<&'a Tracer>,
    block: u32,
    parent: Option<u32>,
    lane: u32,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// The root scope of measured block `block`.
    pub fn block(&self, block: u32) -> Scope<'_> {
        Scope {
            tracer: Some(self),
            block,
            parent: None,
            lane: 0,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("a thread panicked while recording a span")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

impl<'a> Scope<'a> {
    /// The scope of untraced code: spans cost one branch and record nothing.
    pub fn off() -> Scope<'static> {
        Scope {
            tracer: None,
            block: 0,
            parent: None,
            lane: 0,
        }
    }

    /// The same scope as seen from spawned thread number `lane` (1..).
    pub fn on_lane(self, lane: u32) -> Scope<'a> {
        Scope { lane, ..self }
    }

    /// Run `body` inside a span named `name`; `body` receives the scope its
    /// own child spans belong to.
    pub fn span<T>(self, name: &'static str, body: impl FnOnce(Scope<'a>) -> T) -> T {
        let Some(tracer) = self.tracer else {
            return body(self);
        };
        let id = {
            let start_ns = tracer.now_ns();
            let mut spans = tracer.lock();
            spans.push(Span {
                name,
                start_ns,
                end_ns: 0,
                parent: self.parent,
                block: self.block,
                lane: self.lane,
            });
            (spans.len() - 1) as u32
        };
        let out = body(Scope {
            parent: Some(id),
            ..self
        });
        let end_ns = tracer.now_ns();
        tracer.lock()[id as usize].end_ns = end_ns;
        out
    }
}

/// Structural check of a span set: every span is closed, its parent exists
/// and was opened before it, and it lies inside its parent.
pub fn check(spans: &[Span]) -> Result<(), String> {
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) never closed", s.name));
        }
        let Some(p) = s.parent else { continue };
        let Some(parent) = spans.get(p as usize).filter(|_| (p as usize) < i) else {
            return Err(format!("span {i} ({}) names missing parent {p}", s.name));
        };
        if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
            return Err(format!(
                "span {i} ({}) leaves its parent {p} ({})",
                s.name, parent.name
            ));
        }
        if s.block != parent.block {
            return Err(format!("span {i} ({}) changes block under {p}", s.name));
        }
    }
    Ok(())
}

/// Self time of every span: its duration minus what its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Render spans as a Chrome `trace_event` document (complete events, `ts`
/// and `dur` in microseconds; block id, span id and parent in `args`).
pub fn to_chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent},\"block\":{}}}}}",
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            s.block,
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use anthill::obs::json;

    fn sample() -> Vec<Span> {
        let tracer = Tracer::new();
        for block in 0..3 {
            tracer.block(block).span("block", |s| {
                s.span("layer.call", |s| {
                    std::thread::scope(|threads| {
                        threads.spawn(move || s.on_lane(1).span("layer.thread", |_| ()));
                    });
                });
                s.span("verify", |_| ());
            });
        }
        tracer.snapshot()
    }

    #[test]
    fn every_parent_exists_and_contains_its_children() {
        let spans = sample();
        assert_eq!(spans.len(), 12);
        check(&spans).expect("recorded spans are well formed");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[2].lane, 1);
        assert_eq!(spans[5].block, 1);
    }

    #[test]
    fn the_check_rejects_orphans_and_escapes() {
        let mut orphan = sample();
        orphan[1].parent = Some(99);
        assert!(check(&orphan).is_err());
        let mut escape = sample();
        escape[1].end_ns = escape[0].end_ns + 1;
        assert!(check(&escape).is_err());
        let mut open = sample();
        open[3].end_ns = 0;
        assert!(check(&open).is_err());
    }

    #[test]
    fn self_time_excludes_children() {
        let spans = sample();
        let own = self_times_ns(&spans);
        let dur = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(own[0], dur(0) - dur(1) - dur(3));
        assert_eq!(own[2], dur(2));
    }

    #[test]
    fn chrome_export_parses_and_carries_block_and_parent() {
        let spans = sample();
        let doc = json::parse(&to_chrome_json(&spans)).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|v| v.as_arr()).unwrap();
        assert_eq!(events.len(), spans.len());
        let args = events[2].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(|v| v.as_u64()), Some(1));
        assert_eq!(args.get("block").and_then(|v| v.as_u64()), Some(0));
        assert_eq!(events[0].get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(
            events[0].get("args").unwrap().get("parent"),
            Some(&json::Value::Null)
        );
    }

    #[test]
    fn an_off_scope_records_nothing() {
        assert_eq!(Scope::off().span("x", |s| s.span("y", |_| 7)), 7);
    }
}
