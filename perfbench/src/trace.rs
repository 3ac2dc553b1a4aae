//! Spans for the traced replay: recorded in memory around each call into
//! a layer's public function, written to a TSV file when the run ends,
//! and read back from that file to derive every per-layer metric.

use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// One open span; returned by [`Tracer::begin`], consumed by
/// [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

struct Span {
    parent: u32,
    query: u32,
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    attrs: Vec<(&'static str, f64)>,
}

/// Records spans when on; every call is a no-op when off, so the
/// untraced replay runs the same code.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    query: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            query: 0,
        }
    }

    /// Tags the spans that follow with a query id (the e2e frame id).
    pub fn query(&mut self, id: u32) {
        self.query = id;
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().copied().unwrap_or(0);
        self.spans.push(Span {
            parent,
            query: self.query,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            attrs: Vec::new(),
        });
        let id = self.spans.len() as u32; // ids start at 1; 0 is "no parent"
        self.stack.push(id);
        Open(Some(id as usize - 1))
    }

    pub fn end(&mut self, open: Open, attrs: &[(&'static str, f64)]) {
        let Some(idx) = open.0 else {
            return;
        };
        let end = self.now_ns();
        let span = &mut self.spans[idx];
        span.end_ns = end;
        span.attrs.extend_from_slice(attrs);
        self.stack.pop();
    }

    /// Records an aggregate child span of the innermost open span:
    /// `busy_ns` of work done in many short slices (e.g. the arrival
    /// iterator's `next` calls), laid out from `start`.
    pub fn aggregate(
        &mut self,
        name: &'static str,
        start: Instant,
        busy_ns: u64,
        attrs: &[(&'static str, f64)],
    ) {
        if !self.on {
            return;
        }
        let start_ns = start.duration_since(self.t0).as_nanos() as u64;
        self.spans.push(Span {
            parent: self.stack.last().copied().unwrap_or(0),
            query: self.query,
            name,
            start_ns,
            end_ns: start_ns + busy_ns,
            attrs: attrs.to_vec(),
        });
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Writes the spans as TSV: id, parent, query, name, start_ns,
    /// end_ns, attrs (`key=value` pairs joined by `;`).
    pub fn write(&self, path: &Path) -> Result<(), String> {
        let mut out = String::from("id\tparent\tquery\tname\tstart_ns\tend_ns\tattrs\n");
        for (i, s) in self.spans.iter().enumerate() {
            let attrs: Vec<String> = s.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                i + 1,
                s.parent,
                s.query,
                s.name,
                s.start_ns,
                s.end_ns,
                attrs.join(";")
            ));
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

/// A span read back from the file.
#[derive(Debug, Clone)]
pub struct Rec {
    pub id: u32,
    pub parent: u32,
    pub query: u32,
    pub name: String,
    pub dur_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

impl Rec {
    pub fn attr(&self, key: &str) -> f64 {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v)
    }
}

pub fn read(path: &Path) -> Result<Vec<Rec>, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let bad = |line: &str| format!("bad span line {line:?}");
    let mut recs = Vec::new();
    for line in text.lines().skip(1) {
        let f: Vec<&str> = line.split('\t').collect();
        if f.len() != 7 {
            return Err(bad(line));
        }
        let num = |s: &str| s.parse::<u64>().map_err(|_| bad(line));
        let (start, end) = (num(f[4])?, num(f[5])?);
        let mut attrs = Vec::new();
        for kv in f[6].split(';').filter(|kv| !kv.is_empty()) {
            let (k, v) = kv.split_once('=').ok_or_else(|| bad(line))?;
            attrs.push((k.to_string(), v.parse().map_err(|_| bad(line))?));
        }
        recs.push(Rec {
            id: num(f[0])? as u32,
            parent: num(f[1])? as u32,
            query: num(f[2])? as u32,
            name: f[3].to_string(),
            dur_ns: end.saturating_sub(start),
            attrs,
        });
    }
    Ok(recs)
}

/// Span durations grouped by name, plus each span's self time (its
/// duration minus its direct children's).
pub struct Index<'a> {
    pub recs: &'a [Rec],
    children_ns: HashMap<u32, u64>,
}

impl<'a> Index<'a> {
    pub fn new(recs: &'a [Rec]) -> Index<'a> {
        let mut children_ns: HashMap<u32, u64> = HashMap::new();
        for r in recs.iter().filter(|r| r.parent != 0) {
            *children_ns.entry(r.parent).or_default() += r.dur_ns;
        }
        Index { recs, children_ns }
    }

    pub fn named(&self, name: &'a str) -> impl Iterator<Item = &'a Rec> + 'a {
        self.recs.iter().filter(move |r| r.name == name)
    }

    pub fn children_ns(&self, id: u32) -> u64 {
        self.children_ns.get(&id).copied().unwrap_or(0)
    }

    pub fn self_ns(&self, r: &Rec) -> u64 {
        r.dur_ns.saturating_sub(self.children_ns(r.id))
    }
}
