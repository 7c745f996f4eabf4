//! Spans recorded by the benchmark itself, around its calls into each layer.
//!
//! A span is `(id, parent, session, layer, name, start, end)`. Spans live in a
//! thread-local recorder while a traced block runs, are collected when it ends
//! and written out once per workload. A layer's **self time** is a span's
//! duration minus the part its child spans cover — on one thread children
//! never overlap, so that is duration minus the sum of child durations.
//!
//! When no recorder is installed (`span` called from an untraced run) the
//! closure simply runs; the end-to-end pass never records anything.

use crate::json::Value;
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Identifier shared by every span of one session.
    pub session: u32,
    pub layer: &'static str,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

struct Recorder {
    epoch: Instant,
    session: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Start recording on this thread. `epoch` is shared by all threads of a run
/// so their timestamps are comparable.
pub fn start(epoch: Instant) {
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder { epoch, session: 0, spans: Vec::new(), open: Vec::new() })
    });
}

/// Stop recording on this thread and hand back its spans. Ids are local to the
/// recording (`0..len`); [`append`] makes them unique across recordings.
pub fn finish() -> Vec<Span> {
    RECORDER.with(|r| r.borrow_mut().take()).map_or_else(Vec::new, |rec| rec.spans)
}

/// Move one recording's spans onto the end of `all`, shifting ids and parent
/// links past the ids already there.
pub fn append(all: &mut Vec<Span>, spans: Vec<Span>) {
    let base = all.len() as u32;
    all.extend(spans.into_iter().map(|mut s| {
        s.id += base;
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Tag the spans that follow with `session`.
pub fn set_session(session: u32) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.session = session;
        }
    });
}

/// Run `f` inside a span. The recorder is not borrowed while `f` runs, so
/// spans nest freely.
pub fn span<T>(layer: &'static str, name: &'static str, f: impl FnOnce() -> T) -> T {
    let opened = RECORDER.with(|r| {
        let mut guard = r.borrow_mut();
        let rec = guard.as_mut()?;
        let index = rec.spans.len();
        let parent = rec.open.last().map(|&p| rec.spans[p].id);
        let now = rec.epoch.elapsed().as_nanos() as u64;
        rec.spans.push(Span {
            id: index as u32,
            parent,
            session: rec.session,
            layer,
            name,
            start_ns: now,
            end_ns: now,
        });
        rec.open.push(index);
        Some(index)
    });
    let out = f();
    if let Some(index) = opened {
        RECORDER.with(|r| {
            if let Some(rec) = r.borrow_mut().as_mut() {
                rec.spans[index].end_ns = rec.epoch.elapsed().as_nanos() as u64;
                rec.open.pop();
            }
        });
    }
    out
}

/// Self time of every span, in the order of `spans`: duration minus the
/// durations of its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index_of: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut out: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent.and_then(|p| index_of.get(&p)) {
            out[*parent] = out[*parent].saturating_sub(span.duration_ns());
        }
    }
    out
}

/// Self time per layer over `spans`, sorted by layer name.
pub fn layer_self_ns(spans: &[Span]) -> Vec<(&'static str, u64)> {
    let mut by_layer: std::collections::BTreeMap<&'static str, u64> = Default::default();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_default() += self_ns;
    }
    by_layer.into_iter().collect()
}

pub fn to_json(spans: &[Span]) -> Value {
    Value::Arr(
        spans
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("id".into(), Value::Num(s.id as f64)),
                    ("parent".into(), s.parent.map_or(Value::Null, |p| Value::Num(p as f64))),
                    ("session".into(), Value::Num(s.session as f64)),
                    ("layer".into(), Value::Str(s.layer.into())),
                    ("name".into(), Value::Str(s.name.into())),
                    ("start_ns".into(), Value::Num(s.start_ns as f64)),
                    ("end_ns".into(), Value::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk(id: u32, parent: Option<u32>, layer: &'static str, start: u64, end: u64) -> Span {
        Span { id, parent, session: 1, layer, name: "x", start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        // session [0,100] ⊃ run [10,90] ⊃ {digest [10,40], diff [50,80]}.
        let spans = vec![
            mk(7, None, "harness", 0, 100),
            mk(8, Some(7), "protocol", 10, 90),
            mk(9, Some(8), "set", 10, 40),
            mk(10, Some(8), "set", 50, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 30, 30]);
        assert_eq!(layer_self_ns(&spans), vec![("harness", 20), ("protocol", 20), ("set", 60)]);
        // Self times partition the root: nothing is counted twice.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), spans[0].duration_ns());
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        assert_eq!(span("set", "untraced", || 5), 5);
        assert!(finish().is_empty());

        start(Instant::now());
        set_session(3);
        span("harness", "session", || {
            span("set", "digest", || std::hint::black_box(1 + 1));
            span("set", "diff", || ());
        });
        let mut spans = vec![mk(0, None, "harness", 0, 1)];
        append(&mut spans, finish());
        let spans = &spans[1..];
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].id, spans[0].parent), (1, None));
        assert_eq!(spans[1].parent, Some(1));
        assert_eq!((spans[2].id, spans[2].parent), (3, Some(1)));
        assert!(spans.iter().all(|s| s.session == 3 && s.end_ns >= s.start_ns));
        assert!(spans[1].end_ns <= spans[2].start_ns && spans[2].end_ns <= spans[0].end_ns);
    }
}
