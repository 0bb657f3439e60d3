//! In-memory spans for the traced run: name, start, end and parent,
//! recorded by the benchmark around its calls into the program and
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            // Room for every tick of the largest workload, so recording
            // a tick span does not reallocate inside the tick loop.
            spans: Vec::with_capacity(1 << 16),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Spans::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let now = self.now();
        self.push(name, now, now, parent)
    }

    pub fn close(&mut self, id: usize) {
        let now = self.now();
        self.spans[id].end_ns = now;
    }

    /// Records a finished span.
    pub fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
        self.spans.len() - 1
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        let s = &self.spans[id];
        (s.end_ns - s.start_ns) as f64 / 1e9
    }

    /// Self time per span name, in nanoseconds, with the span count:
    /// each span's duration minus the time its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_insert((0u64, 0u64));
            e.0 += (s.end_ns - s.start_ns).saturating_sub(c);
            e.1 += 1;
        }
        out
    }

    /// Writes `header`, one line per span, then one line of self time
    /// per span name.
    pub fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\":{id},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        for (name, (ns, count)) in self.self_times() {
            writeln!(
                out,
                "{{\"self_time\":\"{name}\",\"spans\":{count},\"s\":{}}}",
                ns as f64 / 1e9
            )?;
        }
        out.flush()
    }
}
