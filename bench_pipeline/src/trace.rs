//! Harness-side spans: one per call into a layer, kept in memory and written
//! as Chrome `trace_events` JSON when the run ends. They are recorded from
//! outside, around the public functions; the program's own tracer is on only
//! for the requests that measure what it costs.

use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    /// Index of the span this one ran inside; `None` for a request root.
    pub parent: Option<usize>,
    /// The request the span belongs to.
    pub request: usize,
    pub name: &'static str,
    pub start_s: f64,
    pub end_s: f64,
}

impl Span {
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    request: usize,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder { origin: Instant::now(), spans: Vec::new(), open: Vec::new(), request: 0 }
    }

    /// Opens the root span of request `request`; close it with [`end`].
    ///
    /// [`end`]: Recorder::end
    pub fn begin_request(&mut self, request: usize, name: &'static str) -> usize {
        self.request = request;
        self.begin(name)
    }

    pub fn begin(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            request: self.request,
            name,
            start_s: now,
            end_s: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (and anything still open inside it); returns its
    /// duration in seconds.
    pub fn end(&mut self, id: usize) -> f64 {
        let now = self.origin.elapsed().as_secs_f64();
        while let Some(open) = self.open.pop() {
            self.spans[open].end_s = now;
            if open == id {
                break;
            }
        }
        self.spans[id].duration_s()
    }

    /// Runs `work` inside a span named `name`; returns its result and the
    /// span's duration in seconds.
    pub fn span<T>(&mut self, name: &'static str, work: impl FnOnce() -> T) -> (T, f64) {
        let id = self.begin(name);
        let out = work();
        (out, self.end(id))
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_time_s(&self, id: usize) -> f64 {
        let children: f64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(Span::duration_s).sum();
        (self.spans[id].duration_s() - children).max(0.0)
    }

    /// Over the spans from id `since` on: Σ self time of every non-root span
    /// over Σ root duration — the share of the traced requests' wall-clock
    /// that sits inside a layer call.
    pub fn layer_coverage(&self, since: usize) -> f64 {
        let spans = &self.spans[since.min(self.spans.len())..];
        let roots: f64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::duration_s).sum();
        let layers: f64 =
            spans.iter().filter(|s| s.parent.is_some()).map(|s| self.self_time_s(s.id)).sum();
        if roots > 0.0 {
            layers / roots
        } else {
            0.0
        }
    }

    /// Chrome `trace_events` JSON: complete (`"ph":"X"`) events, one track
    /// per request, with the parent span and self time in `args`.
    pub fn chrome_json(&self, process: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"ph\":\"M\",\"pid\":1,\"name\":\"process_name\",\"args\":{{\"name\":\"{process}\"}}}}"
        ));
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                ",\n{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"self_us\":{:.3}}}}}",
                span.request,
                span.name,
                span.start_s * 1e6,
                span.duration_s() * 1e6,
                span.id,
                parent,
                span.request,
                self.self_time_s(span.id) * 1e6,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_counts_layers_only() {
        let mut rec = Recorder::new();
        let root = rec.begin_request(7, "request");
        let outer = rec.begin("outer");
        rec.span("inner", || std::thread::sleep(std::time::Duration::from_millis(5)));
        rec.end(outer);
        rec.end(root);

        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(root));
        assert_eq!(spans[2].parent, Some(outer));
        assert!(spans.iter().all(|s| s.request == 7));
        // outer's self time is what inner does not cover
        let outer_self = rec.self_time_s(outer);
        assert!(outer_self <= spans[1].duration_s() - spans[2].duration_s() + 1e-12);
        assert!(rec.layer_coverage(0) > 0.9 && rec.layer_coverage(0) <= 1.0 + 1e-9);
    }

    #[test]
    fn ending_a_span_closes_what_is_still_open_inside_it() {
        let mut rec = Recorder::new();
        let root = rec.begin_request(0, "request");
        rec.begin("left_open");
        rec.end(root);
        assert!(rec.spans().iter().all(|s| s.end_s >= s.start_s));
        let json = rec.chrome_json("w");
        assert!(json.contains("\"name\":\"left_open\"") && json.contains("\"parent\":null"));
    }
}
