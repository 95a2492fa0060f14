//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of the
//! call: name, start, end, the span that caused it, and the pass it belongs
//! to. Spans nest on the calling thread only, so a parent's children never
//! overlap each other, and a tree's self times add up to its root's wall
//! time. The recorder is switched off for the untraced passes, where a span
//! costs one branch.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Root span name of a measured pass.
pub const PASS: &str = "bench";
/// Root span name of one set-up repetition.
pub const SETUP: &str = "setup";
/// Root span name of the probe phase, which re-calls the public functions
/// a pass reaches only inside another call, one layer at a time.
pub const PROBE: &str = "probe";

/// One recorded span. Times are seconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `files` or `cache.lookup`.
    pub name: &'static str,
    /// Start time (s).
    pub start: f64,
    /// End time (s).
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
    /// Sequence number of the root this span belongs to.
    pub pass: u32,
}

impl Span {
    /// Wall time of the span (s).
    pub fn wall(&self) -> f64 {
        self.end - self.start
    }
}

/// Records spans while enabled; a no-op while disabled.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    pass: u32,
}

impl Tracer {
    /// A tracer that starts enabled or disabled.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            pass: 0,
        }
    }

    /// Switch recording on or off (only between roots).
    pub fn set_enabled(&mut self, enabled: bool) {
        assert!(self.stack.is_empty(), "tracer toggled inside a span");
        self.enabled = enabled;
    }

    /// True while spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name`. A span opened with no span
    /// around it is a root and starts a new pass number.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.pass += 1;
        }
        let index = self.spans.len();
        let start = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            pass: self.pass,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end = self.epoch.elapsed().as_secs_f64();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as JSON lines to `path`, creating its directory.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{parent},\"pass\":{}}}",
                s.name, s.start, s.end, s.pass
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its wall time minus the part of its interval
/// its children cover.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let mut intervals: Vec<(f64, f64)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(s.start), spans[k].end.min(s.end)))
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (lo, hi) in intervals {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.wall() - covered
        })
        .collect()
}

/// Check that spans are well formed: each child lies inside its parent,
/// every self time is non-negative, and the self times of each root's tree
/// add up to the root's wall time. Returns the first violation found.
pub fn check_well_formed(spans: &[Span]) -> Result<(), String> {
    const EPS: f64 = 1e-9;
    let selfs = self_times(spans);
    let mut tree_self: BTreeMap<usize, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end < s.start {
            return Err(format!("span {i} `{}` ends before it starts", s.name));
        }
        if let Some(p) = s.parent {
            let parent = &spans[p];
            if p >= i || s.start < parent.start || s.end > parent.end || s.pass != parent.pass {
                return Err(format!(
                    "span {i} `{}` is not inside its parent {p} `{}`",
                    s.name, parent.name
                ));
            }
        }
        if selfs[i] < -EPS {
            return Err(format!("span {i} `{}` has negative self time", s.name));
        }
        *tree_self.entry(root_of(spans, i)).or_default() += selfs[i];
    }
    for (root, sum) in tree_self {
        let wall = spans[root].wall();
        if (sum - wall).abs() > EPS * (1.0 + wall) * spans.len() as f64 {
            return Err(format!(
                "self times of root {root} `{}` sum to {sum} s, its wall is {wall} s",
                spans[root].name
            ));
        }
    }
    Ok(())
}

/// Index of the root above span `i`.
fn root_of(spans: &[Span], mut i: usize) -> usize {
    while let Some(p) = spans[i].parent {
        i = p;
    }
    i
}

/// Per-layer totals over the spans under roots named `root`.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans of the layer.
    pub calls: f64,
    /// Summed wall time of the layer's spans (s).
    pub busy_s: f64,
    /// Summed self time of the layer's spans (s).
    pub self_s: f64,
}

/// Layer totals over the trees whose root is named `root`, keyed by layer
/// name, plus the number of such roots and their summed wall time.
pub fn layer_totals(
    spans: &[Span],
    root: &str,
) -> (BTreeMap<&'static str, LayerTotals>, usize, f64) {
    let selfs = self_times(spans);
    let mut layers: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    let mut roots = 0;
    let mut root_wall = 0.0;
    for (i, s) in spans.iter().enumerate() {
        if spans[root_of(spans, i)].name != root {
            continue;
        }
        if s.parent.is_none() {
            roots += 1;
            root_wall += s.wall();
        }
        let t = layers.entry(s.name).or_default();
        t.calls += 1.0;
        t.busy_s += s.wall();
        t.self_s += selfs[i];
    }
    (layers, roots, root_wall)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_are_well_formed_and_self_times_sum_to_the_root() {
        let mut t = Tracer::new(true);
        t.span(PASS, |t| {
            t.span("a", |t| {
                t.span("b", |_| std::hint::black_box((0..1000).sum::<u64>()));
            });
            t.span("c", |_| ());
        });
        t.set_enabled(false);
        t.span(PASS, |t| t.span("ignored", |_| ()));
        assert_eq!(t.spans().len(), 4);
        check_well_formed(t.spans()).unwrap();
        let (layers, roots, wall) = layer_totals(t.spans(), PASS);
        assert_eq!(roots, 1);
        let sum: f64 = layers.values().map(|l| l.self_s).sum();
        assert!((sum - wall).abs() < 1e-12);
        assert_eq!(layers["a"].calls, 1.0);
    }

    #[test]
    fn a_child_outside_its_parent_is_rejected() {
        let spans = vec![
            Span {
                name: PASS,
                start: 0.0,
                end: 1.0,
                parent: None,
                pass: 1,
            },
            Span {
                name: "late",
                start: 0.5,
                end: 1.5,
                parent: Some(0),
                pass: 1,
            },
        ];
        assert!(check_well_formed(&spans).is_err());
    }
}
