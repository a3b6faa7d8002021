//! The span recorder of the traced run. Spans are taken around calls
//! from the benchmark's own files, kept in memory, and written out when
//! the run ends. It knows nothing about the layers it times.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<u32>,
    /// Spans of one request (an ask, an update, an ingested page) share it.
    pub request_id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, request_id: u64) -> u32 {
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request_id,
        });
        self.open.push(id);
        id
    }

    /// Close the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Time one call as a span.
    pub fn time<T>(&mut self, name: &'static str, request_id: u64, call: impl FnOnce() -> T) -> T {
        let id = self.enter(name, request_id);
        let value = call();
        self.exit(id);
        value
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in microseconds, grouped by name: the
    /// span's duration minus the part its child spans cover.
    pub fn self_times_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent as usize] += span.duration_ns();
            }
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (span, covered) in self.spans.iter().zip(covered) {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_ns().saturating_sub(covered) as f64 / 1e3);
        }
        by_name
    }

    /// Total duration of every span in microseconds, grouped by name.
    pub fn durations_us(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for span in &self.spans {
            by_name
                .entry(span.name)
                .or_default()
                .push(span.duration_ns() as f64 / 1e3);
        }
        by_name
    }

    /// Write the spans as one JSON array, one span a line.
    pub fn write_json(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "[")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let comma = if i + 1 < self.spans.len() { "," } else { "" };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request_id\":{}}}{comma}",
                span.name, span.start_ns, span.end_ns, span.request_id
            )?;
        }
        writeln!(out, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request_id: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let recorder = Recorder {
            origin: Instant::now(),
            spans: vec![
                span("root", 0, 10_000, None),
                span("child", 1_000, 4_000, Some(0)),
                span("grandchild", 2_000, 3_000, Some(1)),
                span("child", 5_000, 9_000, Some(0)),
                span("probe", 10_000, 12_000, None),
            ],
            open: Vec::new(),
        };
        let own = recorder.self_times_us();
        assert_eq!(own["root"], vec![3.0]); // 10 - (3 + 4)
        assert_eq!(own["child"], vec![2.0, 4.0]); // 3 - 1, and 4
        assert_eq!(own["grandchild"], vec![1.0]);
        assert_eq!(own["probe"], vec![2.0]);
        assert_eq!(recorder.durations_us()["child"], vec![3.0, 4.0]);
    }

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut recorder = Recorder::default();
        let root = recorder.enter("root", 7);
        let inner = recorder.time("inner", 7, recorder_free_work);
        recorder.exit(root);
        recorder.time("sibling", 8, || ());
        assert_eq!(inner, 3);
        let spans = recorder.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut json = Vec::new();
        recorder.write_json(&mut json).unwrap();
        let text = String::from_utf8(json).unwrap();
        assert!(text.contains("\"name\":\"inner\"") && text.contains("\"parent\":0"));
        assert!(text.contains("\"request_id\":8"));
    }

    fn recorder_free_work() -> u32 {
        3
    }
}
