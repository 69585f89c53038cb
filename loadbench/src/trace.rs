//! Spans for the traced run: the benchmark's own spans around each call it
//! makes into a layer, the daemon's `ptm-obs` spans captured through an
//! in-memory trace writer, and the fold of both into count, total and
//! self time per span name.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Common time origin for every span the benchmark records.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    origin().elapsed().as_nanos() as u64
}

/// One completed span. `parent` 0 marks a root; `request` ties the spans
/// of one benchmark call together.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans recorded by one benchmark thread, kept in memory. Ids carry the
/// thread's index in their top bits so logs from several threads merge
/// without collisions.
#[derive(Debug, Default)]
pub struct SpanLog {
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

/// An open span: close it with [`SpanLog::end`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    pub id: u64,
    name: &'static str,
    parent: u64,
    request: u64,
    start_ns: u64,
}

impl SpanLog {
    /// A log for thread `index`; a disabled log records nothing.
    pub fn new(enabled: bool, index: u64) -> Self {
        Self {
            enabled,
            next_id: (index + 1) << 48,
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: u64, request: u64) -> Open {
        self.next_id += 1;
        Open {
            id: if self.enabled { self.next_id } else { 0 },
            name,
            parent,
            request,
            start_ns: if self.enabled { now_ns() } else { 0 },
        }
    }

    pub fn end(&mut self, open: Open) {
        if self.enabled {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                request: open.request,
                start_ns: open.start_ns,
                end_ns: now_ns(),
            });
        }
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let open = self.begin(name, parent, request);
        let out = f();
        self.end(open);
        out
    }

    pub fn absorb(&mut self, other: SpanLog) {
        self.spans.extend(other.spans);
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// A daemon span as captured from the `ptm-obs` trace writer.
#[derive(Debug, Clone, Copy)]
struct ObsSpan {
    name: usize,
    span: u64,
    parent: u64,
    start_ns: u64,
    dur_ns: u64,
}

#[derive(Debug, Default)]
struct ObsSpans {
    names: Vec<String>,
    index: HashMap<String, usize>,
    spans: Vec<ObsSpan>,
}

/// An in-memory `ptm-obs` trace writer: it only appends each JSONL line
/// to a buffer, and the lines are parsed when the run is folded, so the
/// traced path pays for formatting and a copy, never for the disk. Past
/// `SINK_CAP` bytes further lines are counted and dropped, which bounds
/// the memory of a long traced run.
#[derive(Clone, Default)]
pub struct ObsSink(Arc<Mutex<(Vec<u8>, u64)>>);

const SINK_CAP: usize = 48 << 20;

fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(key)? + key.len();
    let rest = &line[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim_matches('"'))
}

fn parse_line(line: &str, into: &mut ObsSpans) -> Option<()> {
    let hex = |v: &str| u64::from_str_radix(v, 16).ok();
    let span = hex(field(line, "\"span\":")?)?;
    let parent = match field(line, "\"parent\":")? {
        "null" => 0,
        v => hex(v)?,
    };
    let name = field(line, "\"name\":")?;
    let start_ns = field(line, "\"start_ns\":")?.parse().ok()?;
    let dur_ns = field(line, "\"dur_ns\":")?.parse().ok()?;
    let name = match into.index.get(name) {
        Some(&i) => i,
        None => {
            into.names.push(name.to_string());
            into.index.insert(name.to_string(), into.names.len() - 1);
            into.names.len() - 1
        }
    };
    into.spans.push(ObsSpan {
        name,
        span,
        parent,
        start_ns,
        dur_ns,
    });
    Some(())
}

impl Write for ObsSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let mut sink = self.0.lock().expect("span sink lock poisoned");
        if sink.0.len() < SINK_CAP {
            sink.0.extend_from_slice(buf);
        } else {
            sink.1 += 1;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Per-name totals after folding a span tree.
#[derive(Debug, Clone, Default)]
pub struct Folded {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Folded {
    pub fn mean_us(&self) -> f64 {
        crate::stats::ratio(self.total_ns as f64, self.count as f64) / 1e3
    }

    pub fn quantile_us(&self, q: f64) -> f64 {
        let d: Vec<f64> = self.durations_ns.iter().map(|&n| n as f64 / 1e3).collect();
        crate::stats::quantile(&d, q)
    }
}

/// Folds spans given as `(name, id, parent, start, end)` into per-name
/// count, total and self time. Self time is a span's duration minus the
/// part of its interval that its children cover.
fn fold<'a>(
    spans: impl Iterator<Item = (&'a str, u64, u64, u64, u64)> + Clone,
) -> BTreeMap<String, Folded> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for (_, _, parent, start, end) in spans.clone() {
        if parent != 0 {
            children.entry(parent).or_default().push((start, end));
        }
    }
    let mut out: BTreeMap<String, Folded> = BTreeMap::new();
    for (name, id, _, start, end) in spans {
        let dur = end.saturating_sub(start);
        let covered = children.get_mut(&id).map_or(0, |kids| {
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, start);
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(reach), e.min(end));
                if e > s {
                    covered += e - s;
                    reach = e;
                }
            }
            covered
        });
        let entry = out.entry(name.to_string()).or_default();
        entry.count += 1;
        entry.total_ns += dur;
        entry.self_ns += dur.saturating_sub(covered);
        entry.durations_ns.push(dur);
    }
    out
}

impl ObsSink {
    /// Folds every captured daemon span; also returns the lines that
    /// failed to parse.
    pub fn fold(&self) -> (BTreeMap<String, Folded>, u64, u64) {
        let (bytes, dropped) =
            std::mem::take(&mut *self.0.lock().expect("span sink lock poisoned"));
        let mut spans = ObsSpans::default();
        let mut unparsed = 0;
        for line in bytes.split(|&b| b == b'\n').filter(|l| !l.is_empty()) {
            let parsed = std::str::from_utf8(line)
                .ok()
                .and_then(|l| parse_line(l, &mut spans));
            if parsed.is_none() {
                unparsed += 1;
            }
        }
        drop(bytes);
        let names = &spans.names;
        let folded = fold(spans.spans.iter().map(|s| {
            (
                names[s.name].as_str(),
                s.span,
                s.parent,
                s.start_ns,
                s.start_ns + s.dur_ns,
            )
        }));
        (folded, unparsed, dropped)
    }
}

/// Folds the benchmark's own spans.
pub fn fold_own(log: &SpanLog) -> BTreeMap<String, Folded> {
    fold(
        log.spans
            .iter()
            .map(|s| (s.name, s.id, s.parent, s.start_ns, s.end_ns)),
    )
}
