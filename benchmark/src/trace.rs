//! Spans recorded around the calls into each layer.
//!
//! Every span is taken from the benchmark's side of a public function;
//! spans inside the program are a later change (ROADMAP item 5). Spans
//! stay in memory while a world runs and are written out when it ends.

use std::collections::BTreeMap;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

use crate::json::Json;

/// Id of the `workload` span, which the launcher records and every
/// rank's top-level spans name as their parent.
pub const ROOT_SPAN: u64 = 1;

/// The launcher hands every process of a world the same origin, so
/// spans from different rank processes share one time axis.
pub const ORIGIN_ENV: &str = "HACC_BENCH_T0_NS";

pub fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .expect("system clock before 1970")
        .as_nanos()
}

/// Nanoseconds since the world was launched. Anchored to the wall clock
/// once (the only clock two processes can compare) and advanced by the
/// monotonic clock from then on.
#[derive(Clone, Copy)]
pub struct Clock {
    base: Instant,
    offset_ns: u64,
}

impl Clock {
    /// A clock whose zero is `origin_unix_ns`.
    pub fn since(origin_unix_ns: u128) -> Self {
        Clock {
            base: Instant::now(),
            offset_ns: unix_ns().saturating_sub(origin_unix_ns) as u64,
        }
    }

    pub fn from_env() -> Self {
        let origin = std::env::var(ORIGIN_ENV)
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(unix_ns);
        Clock::since(origin)
    }

    pub fn now_ns(&self) -> u64 {
        self.offset_ns + self.base.elapsed().as_nanos() as u64
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 for the root.
    pub parent: u64,
    pub name: String,
    pub rank: usize,
    /// Step index within the world; -1 outside any step.
    pub step: i64,
    pub start_ns: u64,
    pub end_ns: u64,
    pub attrs: Vec<(String, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e9
    }

    /// One whitespace-separated record of the world's report stream.
    pub fn to_line(&self) -> String {
        let mut line = format!(
            "@s {} {} {} {} {} {} {}",
            self.id, self.parent, self.rank, self.step, self.start_ns, self.end_ns, self.name
        );
        for (k, v) in &self.attrs {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }

    pub fn from_line(line: &str) -> Option<Span> {
        let mut it = line.split_whitespace();
        if it.next()? != "@s" {
            return None;
        }
        Some(Span {
            id: it.next()?.parse().ok()?,
            parent: it.next()?.parse().ok()?,
            rank: it.next()?.parse().ok()?,
            step: it.next()?.parse().ok()?,
            start_ns: it.next()?.parse().ok()?,
            end_ns: it.next()?.parse().ok()?,
            name: it.next()?.to_string(),
            attrs: it
                .map(|kv| {
                    let (k, v) = kv.split_once('=')?;
                    Some((k.to_string(), v.parse().ok()?))
                })
                .collect::<Option<_>>()?,
        })
    }

    /// One line of `trace.jsonl`. `trace` is the identifier all spans of
    /// one workload run share.
    pub fn to_json(&self, trace: &str) -> Json {
        Json::obj([
            ("trace", Json::str(trace)),
            ("id", Json::Num(self.id as f64)),
            (
                "parent",
                if self.parent == 0 {
                    Json::Null
                } else {
                    Json::Num(self.parent as f64)
                },
            ),
            ("name", Json::str(&self.name)),
            ("rank", Json::Num(self.rank as f64)),
            ("step", Json::Num(self.step as f64)),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
            (
                "attrs",
                Json::obj(self.attrs.iter().map(|(k, v)| (k.as_str(), Json::Num(*v)))),
            ),
        ])
    }
}

/// One rank's span recorder. With tracing off every call returns at
/// once and nothing is allocated, so the untraced pass pays nothing.
pub struct Tracer {
    on: bool,
    rank: usize,
    next: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool, rank: usize) -> Self {
        Tracer {
            on,
            rank,
            // Ids are unique across ranks; 1 is the launcher's root.
            next: ((rank as u64 + 1) << 32) | 1,
            spans: Vec::new(),
        }
    }

    /// Record a finished span and return its id (0 when tracing is off).
    pub fn record(
        &mut self,
        name: &str,
        parent: u64,
        step: i64,
        start_ns: u64,
        end_ns: u64,
        attrs: &[(&str, f64)],
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, parent, step, start_ns, end_ns);
        if let Some(span) = self.spans.last_mut().filter(|_| self.on) {
            span.attrs = attrs.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        }
        id
    }

    /// Reserve an id for a span whose children are recorded before it
    /// ends; close it with [`Tracer::record_as`].
    pub fn reserve(&mut self) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        self.next - 1
    }

    pub fn record_as(
        &mut self,
        id: u64,
        name: &str,
        parent: u64,
        step: i64,
        start_ns: u64,
        end_ns: u64,
    ) {
        if self.on {
            self.spans.push(Span {
                id,
                parent,
                name: name.to_string(),
                rank: self.rank,
                step,
                start_ns,
                end_ns,
                attrs: Vec::new(),
            });
        }
    }
}

/// Self time of every span: its duration minus the part of that
/// interval its children cover. Overlapping children are counted once,
/// and a child is clipped to its parent's interval.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            (
                s.id,
                s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            rank: 0,
            step: -1,
            start_ns,
            end_ns,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            // Overlaps span 2: only 40..60 is new cover.
            span(3, 1, 30, 60),
            // Runs past its parent: clipped at 100.
            span(4, 1, 90, 120),
            span(5, 2, 10, 20),
        ];
        let t = self_times(&spans);
        assert_eq!(t[&1], 100 - (30 + 20 + 10));
        assert_eq!(t[&2], 30 - 10);
        assert_eq!(t[&3], 30);
        assert_eq!(t[&4], 30);
        assert_eq!(t[&5], 10);
    }

    #[test]
    fn span_lines_round_trip() {
        let s = Span {
            attrs: vec![("kernel_s".into(), 0.123_456_789), ("n".into(), 5.0)],
            ..span((3 << 32) | 7, ROOT_SPAN, 5, 9)
        };
        assert_eq!(Span::from_line(&s.to_line()), Some(s));
        assert_eq!(Span::from_line("@m 0 step_s 1.0"), None);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let mut t = Tracer::new(false, 0);
        assert_eq!(t.record("x", ROOT_SPAN, 0, 1, 2, &[("a", 1.0)]), 0);
        assert_eq!(t.reserve(), 0);
        t.record_as(0, "y", ROOT_SPAN, 0, 1, 2);
        assert!(t.spans.is_empty());

        let mut t = Tracer::new(true, 1);
        let outer = t.reserve();
        let inner = t.record("x", outer, 0, 1, 2, &[]);
        t.record_as(outer, "y", ROOT_SPAN, 0, 0, 3);
        assert_ne!(outer, inner);
        assert_eq!(t.spans.len(), 2);
        assert!(t.spans.iter().all(|s| s.rank == 1 && s.id >> 32 == 2));
    }
}
