//! Spans recorded by the benchmark around its calls into the crates.
//!
//! Spans live in memory while a repetition runs and are written out when
//! the process ends. A layer's self time is its span's duration minus the
//! part its direct children cover.

use std::collections::BTreeMap;
use std::time::Instant;

use fp_stats::json::{self, JsonObject};

/// `parent` / `req` value for "none".
pub const NONE: u64 = u64::MAX;

/// One closed interval on the host clock.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NONE`].
    pub parent: u64,
    /// Request the span belongs to (engine request id), or [`NONE`] for
    /// work not tied to one request (an ORAM access serves the pipeline,
    /// not a single request).
    pub req: u64,
}

/// Self time and call count of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct SelfTime {
    pub self_ns: u64,
    pub count: u64,
}

/// An in-memory span recorder. A disabled log records nothing, so the
/// same driver code serves traced and untraced repetitions.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested inside the innermost open one.
    pub fn enter(&mut self, name: &'static str, req: u64) {
        if !self.enabled {
            return;
        }
        let parent = self.open.last().map_or(NONE, |&i| i as u64);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end_ns = end_ns;
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            e.count += 1;
        }
        out
    }

    /// The raw spans as a JSON array of `{name, start_ns, end_ns, parent,
    /// req}` (`null` for no parent / no request).
    pub fn to_json(&self) -> String {
        let opt = |v: u64| {
            if v == NONE {
                "null".to_string()
            } else {
                v.to_string()
            }
        };
        json::array(self.spans.iter().map(|s| {
            JsonObject::new()
                .field_str("name", s.name)
                .field_u64("start_ns", s.start_ns)
                .field_u64("end_ns", s.end_ns)
                .field_raw("parent", &opt(s.parent))
                .field_raw("req", &opt(s.req))
                .finish()
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut log = SpanLog::new(true);
        log.enter("outer", NONE);
        log.enter("inner", 3);
        log.exit();
        log.exit();
        // Pin the clock readings so the arithmetic is checkable.
        log.spans[0].start_ns = 0;
        log.spans[0].end_ns = 100;
        log.spans[1].start_ns = 10;
        log.spans[1].end_ns = 40;
        let t = log.self_times();
        assert_eq!((t["outer"].self_ns, t["outer"].count), (70, 1));
        assert_eq!((t["inner"].self_ns, t["inner"].count), (30, 1));
        assert_eq!(log.spans[1].parent, 0);
        assert!(fp_stats::json::validate(&log.to_json()).is_ok());
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = SpanLog::new(false);
        log.enter("x", NONE);
        log.exit();
        assert_eq!(log.len(), 0);
    }
}
