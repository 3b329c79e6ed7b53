//! Spans recorded by the traced run, and the run context printed with
//! every result.
//!
//! Spans are taken from outside the program: the benchmark reads the clock
//! around its calls into a layer's public functions and records the
//! interval afterwards. They stay in memory and are written out once, as
//! JSON lines, when the run ends. Simulated (virtual-clock) outputs go
//! only into that file, labelled `virtual`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval around a call into a layer.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// In-memory span and virtual-output log of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    workload: &'static str,
    spans: Vec<Span>,
    virtuals: Vec<(String, String)>,
}

impl Tracer {
    /// An empty log whose timestamps count from now.
    pub fn new(workload: &'static str) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            workload,
            spans: Vec::new(),
            virtuals: Vec::new(),
        }
    }

    /// Records the span `[start, end]` under `parent`; returns its id.
    pub fn record(
        &mut self,
        name: impl Into<String>,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name: name.into(),
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len() - 1
    }

    /// Sets the end of span `id`, for a parent recorded before its
    /// children.
    pub fn close(&mut self, id: usize, end: Instant) {
        self.spans[id].end_ns = end.saturating_duration_since(self.epoch).as_nanos() as u64;
    }

    /// Records a simulated output. It is a model result, not a
    /// measurement, and appears only in the span file.
    pub fn virtual_output(&mut self, name: impl Into<String>, value: impl ToString) {
        self.virtuals.push((name.into(), value.to_string()));
    }

    /// Writes the context, every span and every virtual output to `path`.
    pub fn write(&self, path: &Path, context: &Context) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        let _ = writeln!(out, "{}", context.to_json());
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"workload\":\"{}\",\"id\":{id},\"name\":{},\
                 \"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                self.workload,
                json_str(&s.name),
                s.start_ns,
                s.end_ns
            );
        }
        for (name, value) in &self.virtuals {
            let _ = writeln!(
                out,
                "{{\"kind\":\"virtual\",\"workload\":\"{}\",\"name\":{},\"value\":{}}}",
                self.workload,
                json_str(name),
                json_str(value)
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Where the benchmark keeps what a run leaves behind: span files and the
/// pipeline's shared ring files.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The conditions a result was measured under.
#[derive(Debug, Clone)]
pub struct Context {
    /// Workload name.
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Intra-op threads the executor resolves to (`None`: no tensor work).
    pub intra_op_threads: Option<usize>,
}

impl Context {
    /// The context as one JSON object, with commit, host parallelism and
    /// kernel tier filled in.
    pub fn to_json(&self) -> String {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let tier = edgebench_tensor::simd::resolve(edgebench_tensor::KernelKind::Auto).name();
        let threads = self
            .intra_op_threads
            .map_or("null".to_string(), |t| t.to_string());
        format!(
            "{{\"kind\":\"context\",\"workload\":\"{}\",\"commit\":{},\"nproc\":{nproc},\
             \"kernel_tier\":\"{tier}\",\"intra_op_threads\":{threads},\"seed\":{},\
             \"seconds\":{},\"trace\":{}}}",
            self.workload,
            json_str(&commit()),
            self.seed,
            self.seconds,
            self.trace
        )
    }
}

/// The checked-out commit, read from the repository's `.git` directory;
/// `unknown` when the sources are not a git checkout.
fn commit() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let read = |p: PathBuf| std::fs::read_to_string(p).ok();
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(id) = read(git.join(reference)) {
        return id.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split(' ').next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
