//! The traced run's span recorder. Spans are recorded only in the
//! benchmark's own code, around each call it makes into the program; they
//! are kept in memory and written out once, when the run ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent` is the id of the enclosing span (0 for
/// none), `op` the op the span belongs to, and `tag` the answer path the
/// reply reported.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op: u64,
    pub tag: &'static str,
}

impl Span {
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store; ids are 1-based positions in `spans`.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Tracer {
        Tracer { origin, spans: Vec::with_capacity(1 << 16) }
    }

    /// Records a span and returns its id.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        op: u64,
        tag: &'static str,
    ) -> u32 {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span { name, start_ns: ns(start), end_ns: ns(end), parent, op, tag });
        self.spans.len() as u32
    }

    /// Sum of the durations of the spans named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.us()).sum::<f64>() / 1e6
    }

    /// Writes every span as one CSV row.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,name,tag,start_ns,end_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.op,
                s.name,
                s.tag,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
