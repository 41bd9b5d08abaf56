//! In-memory spans around calls into the measured layers, and the order
//! statistics the metrics are computed from.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval: a round, a phase of one, a call into a layer, or a
/// serve request. Times are nanoseconds since the recorder's origin.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    /// Id of the enclosing span; 0 for a root.
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Edges or queries the call covered (1 for a single operation).
    pub items: u32,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Spans in recording order; a span's id is its index plus one.
pub struct Spans {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Spans {
    pub fn new(origin: Instant) -> Self {
        Spans {
            origin,
            spans: Vec::new(),
        }
    }

    /// An empty recorder with this one's origin, for another thread.
    pub fn child(&self) -> Spans {
        Spans::new(self.origin)
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Start a span that encloses later ones; finish it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        let now = self.ns_at(Instant::now());
        self.spans.push(Span {
            name,
            parent,
            start_ns: now,
            end_ns: now,
            items: 0,
        });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32, items: u32) {
        let now = self.ns_at(Instant::now());
        let span = &mut self.spans[id as usize - 1];
        span.end_ns = now;
        span.items = items;
    }

    /// Time `op` as a span named `name` under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        items: usize,
        op: impl FnOnce() -> T,
    ) -> T {
        let start = Instant::now();
        let out = op();
        let end = Instant::now();
        self.push(name, parent, start, end, items);
        out
    }

    pub fn push(
        &mut self,
        name: &'static str,
        parent: u32,
        start: Instant,
        end: Instant,
        items: usize,
    ) {
        let span = Span {
            name,
            parent,
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            items: items as u32,
        };
        self.spans.push(span);
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Append every span of `other`, which must share this recorder's
    /// origin, renumbering its parents.
    pub fn append(&mut self, other: Spans) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// Write the spans as CSV (`id,parent,name,start_ns,end_ns,items`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,start_ns,end_ns,items")?;
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{},{},{},{},{},{}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.items
            )?;
        }
        out.flush()
    }
}

/// Hypervisor steal on all CPUs so far, in `/proc/stat` ticks
/// (USER_HZ, 1/100 s); 0 where unavailable.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let cpu = stat.lines().next().unwrap_or_default();
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The timed phase of a run cut into slices of at least `SLICE`, with
/// the hypervisor steal seen in each. On a shared 2-vCPU VM steal comes in
/// bursts and storms of seconds to minutes, and throughput falls with it
/// (serve-wal lost about 3% per steal tick in a quarter second), so each
/// end-to-end figure is fitted against the steal rate of the slices it
/// was measured in and read at zero steal ([`at_zero_steal`]).
pub struct Slices {
    /// `(start, steal ticks so far)` of every slice, and of the end.
    marks: Vec<(Instant, u64)>,
}

/// Shortest slice; steal is counted in 1/100 s ticks summed over CPUs.
pub const SLICE: Duration = Duration::from_millis(250);

impl Slices {
    pub fn start() -> Slices {
        Slices {
            marks: vec![(Instant::now(), steal_ticks())],
        }
    }

    /// Index of the slice in progress.
    pub fn current(&self) -> usize {
        self.marks.len() - 1
    }

    /// Close the slice in progress once it is `SLICE` long.
    pub fn tick(&mut self) {
        if self.marks[self.current()].0.elapsed() >= SLICE {
            self.close();
        }
    }

    /// Close the slice in progress.
    pub fn close(&mut self) {
        self.marks.push((Instant::now(), steal_ticks()));
    }

    /// Slice boundaries in ns since `origin`: slice `i` is
    /// `[bounds[i], bounds[i + 1])`.
    pub fn bounds(&self, origin: Instant) -> Vec<u64> {
        self.marks
            .iter()
            .map(|(t, _)| t.saturating_duration_since(origin).as_nanos() as u64)
            .collect()
    }

    /// Steal ticks per second in each closed slice.
    pub fn steal_rates(&self) -> Vec<f64> {
        self.marks
            .windows(2)
            .map(|w| (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0).as_secs_f64())
            .collect()
    }
}

/// `ys` fitted against the steal rates `xs` they were measured under, read
/// at zero steal: a Theil–Sen line (the median of the pairwise slopes,
/// then the median of `y - slope * x`), which a few outliers do not move.
/// Without steal in the run this is the median of `ys`. A run-long storm
/// moves a median of the least-stolen slices with it; the fitted line
/// does not, since it uses how much the figure changes with steal.
pub fn at_zero_steal(xs: &[f64], ys: &[f64]) -> f64 {
    let mut slopes = Vec::new();
    for i in 0..xs.len() {
        for j in i + 1..xs.len() {
            if xs[j] != xs[i] {
                slopes.push((ys[j] - ys[i]) / (xs[j] - xs[i]));
            }
        }
    }
    let slope = if slopes.is_empty() {
        0.0
    } else {
        median(&slopes)
    };
    let at_zero: Vec<f64> = xs.iter().zip(ys).map(|(x, y)| y - slope * x).collect();
    median(&at_zero)
}

/// Median of `xs` (mean of the middle two for an even count); NaN when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by linear interpolation between order
/// statistics; NaN when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
