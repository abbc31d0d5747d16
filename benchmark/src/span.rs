//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own files only (tracing
//! inside the program is a later change), kept in memory, and written
//! out when the run ends. A disabled tracer records nothing, so the
//! end-to-end run pays one branch per call site.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Shared by every span of one iteration or request batch.
    pub group: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: Option<SpanId>,
}

impl SpanGuard<'_> {
    /// This span's id, to parent children under (`None` when disabled).
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            let now = self.tracer.now_ns();
            // A poisoned lock means another thread panicked mid-push;
            // the run is failing anyway and Drop must not panic.
            if let Ok(mut spans) = self.tracer.spans.lock() {
                spans[id].end_ns = now;
            }
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it closes when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<SpanId>, group: u64) -> SpanGuard<'_> {
        if !self.enabled {
            return SpanGuard {
                tracer: self,
                id: None,
            };
        }
        let start_ns = self.now_ns();
        let mut spans = self
            .spans
            .lock()
            .expect("no thread panics while holding the span lock");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        SpanGuard {
            tracer: self,
            id: Some(spans.len() - 1),
        }
    }

    /// Records an already finished span that ended now and lasted
    /// `duration_ns` — for work the benchmark only hears about when it
    /// completes (a grid cell reported by the executor's callback).
    pub fn span_ended_now(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        group: u64,
        duration_ns: u64,
    ) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("no thread panics while holding the span lock")
            .push(Span {
                name,
                start_ns: end_ns.saturating_sub(duration_ns),
                end_ns,
                parent,
                group,
            });
    }

    /// Every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span lock")
            .clone()
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (overlapping children — parallel cells —
/// are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

/// Per span name: `(count, total ns, self ns)`, in first-seen order.
pub fn totals_by_name(spans: &[Span]) -> Vec<(&'static str, u64, u64, u64)> {
    let selfs = self_times_ns(spans);
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (span, self_ns) in spans.iter().zip(selfs) {
        let total = span.end_ns - span.start_ns;
        match out.iter_mut().find(|row| row.0 == span.name) {
            Some(row) => {
                row.1 += 1;
                row.2 += total;
                row.3 += self_ns;
            }
            None => out.push((span.name, 1, total, self_ns)),
        }
    }
    out
}

/// The span file: one JSON object with every span and its self time.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let selfs = self_times_ns(spans);
    let mut out = format!("{{\"workload\":\"{workload}\",\"spans\":[");
    for (i, (span, self_ns)) in spans.iter().zip(selfs).enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = span
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        write!(
            out,
            "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
             \"parent\":{parent},\"group\":{},\"self_ns\":{self_ns}}}",
            span.name, span.start_ns, span.end_ns, span.group
        )
        .expect("writing to a String cannot fail");
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, 100, None),     // 0: root
            span(10, 40, Some(0)),  // 1
            span(30, 60, Some(0)),  // 2: overlaps 1 (parallel cells)
            span(80, 90, Some(0)),  // 3
            span(12, 20, Some(1)),  // 4: grandchild, only counts against 1
            span(95, 120, Some(0)), // 5: runs past its parent, clamped
        ];
        let selfs = self_times_ns(&spans);
        // Root: 100 - (10..60 = 50) - (80..90 = 10) - (95..100 = 5) = 35.
        assert_eq!(selfs[0], 35);
        assert_eq!(selfs[1], 30 - 8);
        assert_eq!(selfs[2], 30);
        assert_eq!(selfs[4], 8);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        let guard = tracer.span("a", None, 1);
        assert_eq!(guard.id(), None);
        drop(guard);
        assert!(tracer.snapshot().is_empty());
    }

    #[test]
    fn guards_nest_and_close() {
        let tracer = Tracer::new(true);
        {
            let outer = tracer.span("outer", None, 7);
            let inner = tracer.span("inner", outer.id(), 7);
            drop(inner);
        }
        let spans = tracer.snapshot();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans[1].end_ns >= spans[1].start_ns);
        let rows = totals_by_name(&spans);
        assert_eq!(rows[0].0, "outer");
        assert_eq!(rows[0].1, 1);
        assert!(to_json("w", &spans).contains("\"name\":\"inner\""));
    }
}
