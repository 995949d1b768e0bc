//! Host-time spans recorded by the benchmark around each call into a
//! layer's public functions, their self times, the per-layer rows they
//! sum to, and their export as Chrome trace events.
//!
//! Spans live in memory and are written once, at the end of the run.
//! A disabled [`Tracer`] costs one branch per call.

use std::collections::BTreeMap;
use std::time::Instant;

use gpsim::json::Json;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name (see [`row_of`]).
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Operation the span belongs to (sweep cell, offload run, pass).
    pub op: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Tracer {
    /// A tracer timing against `epoch`; records nothing when `on` is
    /// false.
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    /// Tag subsequent spans with operation id `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.op,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    /// Graft spans recorded by another tracer (a sweep worker) under
    /// the span currently open here.
    pub fn absorb(&mut self, spans: Vec<Span>) {
        let root = self.open.last().copied();
        append(&mut self.spans, spans, root);
    }

    /// The recorded spans.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Append `spans` (indexed from 0) to `all`, re-basing their parent
/// links; their roots become children of `root`.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>, root: Option<usize>) {
    let base = all.len();
    all.extend(spans.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base).or(root);
        s
    }));
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Overlapping children count once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| s.dur_ns() - covered(s.start_ns, s.end_ns, &mut kids))
        .collect()
}

/// Length of the union of `ivals` clipped to `[lo, hi)`.
fn covered(lo: u64, hi: u64, ivals: &mut [(u64, u64)]) -> u64 {
    ivals.sort_unstable();
    let (mut total, mut cursor) = (0, lo);
    for &(a, b) in ivals.iter() {
        let (a, b) = (a.max(cursor), b.min(hi));
        if b > a {
            total += b - a;
            cursor = b;
        }
    }
    total
}

/// The per-layer row a span's self time is charged to. Spans the
/// benchmark opens around its own code (`bench.*`) and anything
/// unnamed are the `unattributed` row.
pub fn row_of(span: &str) -> &'static str {
    match span {
        "directive" => "directive.busy_s",
        "plan" => "plan.busy_s",
        "costmodel" => "costmodel.busy_s",
        "exec.naive" => "exec.naive.busy_s",
        "exec.pipelined" => "exec.pipelined.busy_s",
        "exec.buffer" => "exec.buffer.busy_s",
        "apps" => "apps.busy_s",
        "verify" => "verify.busy_s",
        "serve" => "serve.busy_s",
        "fleet.build" => "fleet.build_s",
        "fleet.calibrate" => "fleet.calibrate_s",
        "workload.generate" => "workload.generate_s",
        _ => UNATTRIBUTED,
    }
}

/// Row name of the benchmark's own time between layer calls.
pub const UNATTRIBUTED: &str = "bench.unattributed_s";

/// Every row [`row_of`] can produce, in report order.
pub const ROWS: [&str; 13] = [
    "directive.busy_s",
    "plan.busy_s",
    "costmodel.busy_s",
    "exec.naive.busy_s",
    "exec.pipelined.busy_s",
    "exec.buffer.busy_s",
    "apps.busy_s",
    "verify.busy_s",
    "serve.busy_s",
    "fleet.build_s",
    "fleet.calibrate_s",
    "workload.generate_s",
    UNATTRIBUTED,
];

/// Self time per row, in ns. The rows sum to the total duration of the
/// root spans.
pub fn layer_rows(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut rows: BTreeMap<&'static str, u64> = ROWS.iter().map(|&r| (r, 0)).collect();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *rows.entry(row_of(s.name)).or_default() += t;
    }
    rows
}

/// Total duration of the root spans, in ns.
pub fn root_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::dur_ns)
        .sum()
}

/// Self time summed over spans named `name`, in ns.
pub fn self_ns_of(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .zip(self_times(spans))
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| t)
        .sum()
}

/// Number of spans named `name`.
pub fn count_of(spans: &[Span], name: &str) -> u64 {
    spans.iter().filter(|s| s.name == name).count() as u64
}

/// The spans of the first root and its descendants (the first traced
/// pass): what the trace file keeps, so it stays small enough to open.
pub fn first_root(spans: &[Span]) -> &[Span] {
    let end = spans
        .iter()
        .skip(1)
        .position(|s| s.parent.is_none())
        .map_or(spans.len(), |i| i + 1);
    &spans[..end]
}

/// Chrome trace-event document (`ph: "X"` complete events, microsecond
/// timestamps), loadable in Perfetto next to the simulator's traces.
pub fn to_chrome(spans: &[Span]) -> Json {
    let num = |v: f64| Json::Num(v);
    let events = spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let layer = row_of(s.name)
                .trim_end_matches("_s")
                .trim_end_matches(".busy");
            Json::Obj(vec![
                ("name".into(), Json::Str(s.name.into())),
                ("cat".into(), Json::Str(layer.into())),
                ("ph".into(), Json::Str("X".into())),
                ("ts".into(), num(s.start_ns as f64 / 1e3)),
                ("dur".into(), num(s.dur_ns() as f64 / 1e3)),
                // Spans are recorded on the benchmark's one thread.
                ("pid".into(), num(1.0)),
                ("tid".into(), num(1.0)),
                (
                    "args".into(),
                    Json::Obj(vec![
                        ("id".into(), num(i as f64)),
                        (
                            "parent".into(),
                            s.parent.map_or(Json::Null, |p| num(p as f64)),
                        ),
                        ("op".into(), num(s.op as f64)),
                    ]),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("displayTimeUnit".into(), Json::Str("ns".into())),
        ("traceEvents".into(), Json::Arr(events)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            // Two children overlapping on [30, 40), one clipped at the
            // parent's end, one grandchild that must not reach the root.
            span("plan", 10, 40, Some(0)),
            span("costmodel", 30, 50, Some(0)),
            span("exec.naive", 90, 120, Some(0)),
            span("exec.buffer", 12, 20, Some(1)),
        ];
        let t = self_times(&spans);
        // Root: 100 − |[10,50) ∪ [90,100)| = 100 − 50.
        assert_eq!(t[0], 50);
        assert_eq!(t[1], 30 - 8);
        assert_eq!(t[2], 20);
        assert_eq!(t[4], 8);
    }

    #[test]
    fn serial_rows_sum_to_root_time() {
        let spans = vec![
            span("bench.pass", 0, 100, None),
            span("plan", 10, 40, Some(0)),
            span("exec.buffer", 12, 20, Some(1)),
            span("bench.cell", 40, 90, Some(0)),
            span("exec.naive", 50, 80, Some(3)),
            span("bench.pass", 200, 210, None),
        ];
        let rows = layer_rows(&spans);
        assert_eq!(rows.values().sum::<u64>(), root_ns(&spans));
        assert_eq!(root_ns(&spans), 110);
        assert_eq!(rows["plan.busy_s"], 22);
        assert_eq!(rows["exec.buffer.busy_s"], 8);
        assert_eq!(rows["exec.naive.busy_s"], 30);
        assert_eq!(rows[UNATTRIBUTED], 20 + 20 + 10);
        assert_eq!(self_ns_of(&spans, "bench.pass"), 30);
        assert_eq!(count_of(&spans, "bench.pass"), 2);
        assert_eq!(first_root(&spans), &spans[..5]);
        assert_eq!(first_root(&spans[5..]), &spans[5..]);
    }

    #[test]
    fn tracer_nests_and_absorbs() {
        let epoch = Instant::now();
        let mut tr = Tracer::new(true, epoch);
        tr.span("bench.pass", |tr| {
            tr.span("plan", |_| ());
            let mut worker = Tracer::new(true, epoch);
            worker.span("bench.cell", |w| w.span("exec.naive", |_| ()));
            tr.absorb(worker.into_spans());
        });
        let spans = tr.into_spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            [
                ("bench.pass", None),
                ("plan", Some(0)),
                ("bench.cell", Some(0)),
                ("exec.naive", Some(2)),
            ]
        );
        let rows = layer_rows(&spans);
        assert_eq!(rows.values().sum::<u64>(), root_ns(&spans));

        let mut off = Tracer::new(false, epoch);
        assert_eq!(off.span("plan", |_| 7), 7);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn chrome_export_round_trips() {
        let spans = vec![
            span("bench.pass", 0, 2000, None),
            span("serve", 500, 1500, Some(0)),
        ];
        let doc = to_chrome(&spans);
        let back = gpsim::json::parse(&doc.dump()).expect("trace parses");
        assert_eq!(back, doc);
        let ev = &back.get("traceEvents").unwrap().as_arr().unwrap()[1];
        assert_eq!(ev.get("ts").and_then(Json::as_f64), Some(0.5));
        assert_eq!(ev.get("cat").and_then(Json::as_str), Some("serve"));
    }
}
