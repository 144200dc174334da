//! In-memory spans around calls into the program's layers.
//!
//! A span is `(name, start, end, parent)`; the layer is the name up to
//! its first `.`. Spans are only recorded when tracing is on, kept in
//! memory, and written out once at the end of the run. A layer's self
//! time is the time its spans cover minus the time their child spans
//! cover.
//!
//! [`Traced`] puts spans around the program's own `ExecBackend` and
//! `ReportCache` calls, so a traced campaign runs the same
//! `Campaign::run_cached` as an untraced one. Every span of a run is
//! opened on the benchmark's own thread (the campaign calls its cache
//! and backend there), so one stack of open spans gives every parent.

use hyperroute_core::scenario::Report;
use hyperroute_grid::{
    CacheKey, CacheStats, ExecBackend, GridError, GridSlice, ReportCache, SliceResult,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One finished span; times are seconds since the tracer started.
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    state: Mutex<State>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            state: Mutex::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect("tracer lock")
    }

    /// Run `f` inside a span called `name` (a plain call when tracing is
    /// off).
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce(&Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = {
            let mut s = self.state();
            let id = s.spans.len();
            let parent = s.open.last().copied();
            s.spans.push(Span {
                name,
                start: self.origin.elapsed().as_secs_f64(),
                end: f64::NAN,
                parent,
            });
            s.open.push(id);
            id
        };
        let out = f(self);
        let end = self.origin.elapsed().as_secs_f64();
        let mut s = self.state();
        s.open.pop();
        s.spans[id].end = end;
        out
    }

    /// Total duration of the spans called `name`.
    pub fn total(&self, name: &str) -> f64 {
        self.state()
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .sum()
    }

    pub fn count(&self, name: &str) -> usize {
        self.state().spans.iter().filter(|s| s.name == name).count()
    }

    /// Self time per layer of the spans outside any `probe` span (the
    /// measured pass): each span's duration minus its children's.
    pub fn pass_self_times(&self) -> BTreeMap<&'static str, f64> {
        let s = self.state();
        let mut in_probe = vec![false; s.spans.len()];
        let mut child_time = vec![0.0; s.spans.len()];
        for (id, span) in s.spans.iter().enumerate() {
            in_probe[id] = span.name == "probe" || span.parent.is_some_and(|p| in_probe[p]);
            if let Some(p) = span.parent {
                child_time[p] += span.end - span.start;
            }
        }
        let mut out = BTreeMap::new();
        for ((span, children), probe) in s.spans.iter().zip(child_time).zip(in_probe) {
            if !probe {
                let layer = span.name.split('.').next().unwrap_or(span.name);
                *out.entry(layer).or_insert(0.0) += (span.end - span.start) - children;
            }
        }
        out
    }

    /// Every span as one NDJSON line.
    pub fn to_ndjson(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.state().spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_s\":{},\"end_s\":{},\"parent\":{parent}}}",
                s.name, s.start, s.end
            );
        }
        out
    }
}

/// The program's backend or cache `inner`, with a span around each call
/// into it: `backend.threads` around `execute`, `cache.get` and
/// `cache.insert` around `get` and `put`.
pub struct Traced<'a, T: ?Sized> {
    pub t: &'a Tracer,
    pub inner: &'a T,
}

impl<T: ExecBackend + ?Sized> ExecBackend for Traced<'_, T> {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        self.t
            .span("backend.threads", |_| self.inner.execute(jobs, on_result))
    }
}

impl<T: ReportCache + ?Sized> ReportCache for Traced<'_, T> {
    fn get(&self, key: &CacheKey) -> Option<Report> {
        self.t.span("cache.get", |_| self.inner.get(key))
    }

    fn put(&self, key: &CacheKey, report: &Report) {
        self.t.span("cache.insert", |_| self.inner.put(key, report))
    }

    fn stats(&self) -> CacheStats {
        self.inner.stats()
    }
}
