//! Benchmark-side spans: name, start, end, parent and operation id,
//! recorded around each call into a layer and kept in memory until the
//! run ends.

use crate::{lattices, Opts, Outcome};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub op: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Operations whose spans are written to the trace file; every span
/// still feeds the per-layer metrics.
const FILE_OPS: u64 = 10_000;

pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the recorder started.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Records a closed span; returns its index (a parent handle).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<u32>,
        op: u64,
    ) -> u32 {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`, in record order.
    pub fn nanos_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64)
            .collect()
    }

    /// Writes the spans of the first operations as JSON lines.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.iter().filter(|s| s.op < FILE_OPS) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.op
            )?;
        }
        out.flush()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

/// Writes a traced run's spans to `trace-<workload>-<seed>.jsonl` in the
/// cache directory next to the executable, and notes where.
pub fn write_for(rec: &Recorder, opts: &Opts, out: &mut Outcome) -> Result<(), String> {
    let root = match &opts.lattice_root {
        Some(r) => r.clone(),
        None => lattices::default_root()?,
    };
    std::fs::create_dir_all(&root).map_err(|e| format!("{}: {e}", root.display()))?;
    let path = root.join(format!("trace-{}-{}.jsonl", opts.workload, opts.seed));
    rec.write(&path)
        .map_err(|e| format!("{}: {e}", path.display()))?;
    out.fact(format!(
        "trace: {} spans, first {FILE_OPS} operations written to {}",
        rec.spans().len(),
        path.display()
    ));
    Ok(())
}
