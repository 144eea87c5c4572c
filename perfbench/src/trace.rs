//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions. Nothing inside the program is
//! instrumented: a span's duration is what the caller waited for.
//!
//! A span carries its name, start and end (ns since the tracer was
//! created), the span that caused it, and a per-request id shared by
//! every span of one request. Spans stay in memory until [`Tracer::write`]
//! dumps them at the end of the run. A disabled tracer records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// An open span; closed (and recorded) when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    request: u64,
    name: &'a str,
    start_ns: u64,
}

impl SpanGuard<'_> {
    /// This span's id, to pass as the parent of the spans it causes.
    pub fn id(&self) -> Option<u64> {
        self.tracer.enabled.then_some(self.id)
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        let span = Span {
            id: self.id,
            parent: self.parent,
            request: self.request,
            name: self.name.to_string(),
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// A fresh request id (ids also number spans; both only need to be
    /// unique within the run).
    pub fn request(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Opens a span named `name`, caused by `parent`, for `request`.
    pub fn span<'a>(&'a self, name: &'a str, parent: Option<u64>, request: u64) -> SpanGuard<'a> {
        let (id, start_ns) = if self.enabled {
            (self.next_id.fetch_add(1, Ordering::Relaxed), self.now_ns())
        } else {
            (0, 0)
        };
        SpanGuard {
            tracer: self,
            id,
            parent,
            request,
            name,
            start_ns,
        }
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Writes every span as one JSON object per line, then a summary line
    /// per span name with its count, total and self time.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, t) in summarize(&spans) {
            writeln!(
                out,
                "{{\"summary\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{}}}",
                t.count, t.total_ns, t.self_ns
            )?;
        }
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// A span's self time: its duration minus the part of its interval
/// covered by its children (overlapping children count once; child time
/// outside the parent's interval is ignored).
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut iv: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    iv.sort_unstable();
    let mut covered = 0u64;
    let mut cur: Option<(u64, u64)> = None;
    for (s, e) in iv {
        match cur {
            Some((cs, ce)) if s <= ce => cur = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                cur = Some((s, e));
            }
            None => cur = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    span.duration_ns() - covered
}

/// Count, total and self time per span name.
pub fn summarize(spans: &[Span]) -> BTreeMap<String, NameTotals> {
    let mut children: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
    for s in spans {
        let kids = children.get(&s.id).map(Vec::as_slice).unwrap_or(&[]);
        let t = out.entry(s.name.clone()).or_default();
        t.count += 1;
        t.total_ns += s.duration_ns();
        t.self_ns += self_time_ns(s, kids);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name: format!("s{id}"),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_child_coverage_once() {
        let parent = span(1, None, 0, 100);
        let a = span(2, Some(1), 10, 40);
        // Overlaps `a` by 10 ns: the union covers 10..60.
        let b = span(3, Some(1), 30, 60);
        // Sticks out past the parent's end: only 90..100 counts.
        let c = span(4, Some(1), 90, 130);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        assert_eq!(self_time_ns(&parent, &[&a]), 70);
        assert_eq!(self_time_ns(&parent, &[&a, &b]), 50);
        assert_eq!(self_time_ns(&parent, &[&c, &b, &a]), 40);
    }

    #[test]
    fn summary_charges_self_time_per_name() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 0, 30),
            span(3, Some(2), 0, 10),
        ];
        let t = summarize(&spans);
        assert_eq!(t["s1"].self_ns, 70);
        assert_eq!(t["s2"].self_ns, 20);
        assert_eq!(t["s3"].self_ns, 10);
        let total_self: u64 = t.values().map(|x| x.self_ns).sum();
        assert_eq!(total_self, 100, "self times tile the root span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tr = Tracer::new(false);
        {
            let g = tr.span("x", None, tr.request());
            assert_eq!(g.id(), None);
        }
        assert!(tr.spans().is_empty());
        let on = Tracer::new(true);
        let req = on.request();
        {
            let outer = on.span("outer", None, req);
            let _inner = on.span("inner", outer.id(), req);
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.request == req));
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
    }
}
