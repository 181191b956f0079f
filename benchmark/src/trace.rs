//! Spans around the calls into each layer, recorded from the benchmark's own
//! code.  A sampled operation is five clock reads, which delimit a root `op`
//! span and its four children:
//!
//! ```text
//! t0 ─ bench.keygen ─ t1 ─ scot.pin ─ t2 ─ scot.<class> ─ t3 ─ scot.unpin ─ t4
//! ```
//!
//! Samples sit in a preallocated per-thread ring and are turned into spans
//! only after the workers have joined.

use crate::keys::OpClass;
use crate::stats::percentile;
use std::fmt::Write as _;

/// Every n-th operation of a traced worker is wrapped in spans.
pub const SPAN_EVERY: u64 = 16;

/// Samples a thread keeps per slice (the most recent ones).
pub const RING_SAMPLES: usize = 1 << 16;

/// Sampled operations per thread and scheme written to the trace file in full;
/// the percentiles next to them are over every sample kept.
pub const FILE_OPS_PER_THREAD: usize = 128;

#[derive(Clone, Copy, Debug, Default)]
pub struct Sample {
    /// Index of the operation in its thread's stream.
    pub op: u64,
    pub thread: u8,
    pub class: OpClass,
    /// Nanoseconds since the run's time origin, ascending.
    pub t: [u64; 5],
}

pub struct Ring {
    buf: Vec<Sample>,
    pushed: usize,
}

impl Ring {
    pub fn new() -> Self {
        // `vec!` of a non-zero-able value writes every slot, so the pages are
        // touched here and not during measurement.
        let filler = Sample {
            op: u64::MAX,
            ..Sample::default()
        };
        Ring {
            buf: vec![filler; RING_SAMPLES],
            pushed: 0,
        }
    }

    #[inline(always)]
    pub fn push(&mut self, s: Sample) {
        let at = self.pushed % RING_SAMPLES;
        self.buf[at] = s;
        self.pushed += 1;
    }

    /// Moves the kept samples out, oldest first, and empties the ring.
    pub fn drain_into(&mut self, out: &mut Vec<Sample>) {
        let kept = self.pushed.min(RING_SAMPLES);
        let first = self.pushed - kept;
        out.extend((first..self.pushed).map(|i| self.buf[i % RING_SAMPLES]));
        self.pushed = 0;
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

fn class_span(class: OpClass) -> &'static str {
    match class {
        OpClass::Get => "scot.get",
        OpClass::Insert => "scot.insert",
        OpClass::Remove => "scot.remove",
    }
}

impl Sample {
    /// The root span takes `first_id`, its children the four ids after it.
    pub fn spans(&self, first_id: u64) -> [Span; 5] {
        let t = self.t;
        let child = |i: u64, name, start_ns, end_ns| Span {
            id: first_id + i,
            parent: Some(first_id),
            name,
            start_ns,
            end_ns,
        };
        [
            Span {
                id: first_id,
                parent: None,
                name: "op",
                start_ns: t[0],
                end_ns: t[4],
            },
            child(1, "bench.keygen", t[0], t[1]),
            child(2, "scot.pin", t[1], t[2]),
            child(3, class_span(self.class), t[2], t[3]),
            child(4, "scot.unpin", t[3], t[4]),
        ]
    }

    /// Timestamps ascend, which is what makes the children fit in the parent.
    pub fn is_ordered(&self) -> bool {
        self.t.windows(2).all(|w| w[0] <= w[1])
    }
}

/// A span's duration minus the part of it that its direct children cover.
/// Children may nest further spans, abut, overlap each other or stick out of
/// the parent; only the covered part inside the parent is subtracted.
pub fn self_time(span: &Span, all: &[Span]) -> u64 {
    let mut covered: Vec<(u64, u64)> = all
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(s, e)| s < e)
        .collect();
    covered.sort_unstable();
    let mut total = 0;
    let mut reach = span.start_ns;
    for (s, e) in covered {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    span.duration() - total
}

/// Distribution of one span name over the samples kept for a scheme.
#[derive(Clone, Copy, Debug, Default)]
pub struct Dist {
    pub n: usize,
    pub p25: u64,
    pub p50: u64,
    pub p75: u64,
    pub p99: u64,
}

fn dist(mut v: Vec<u64>) -> Dist {
    v.sort_unstable();
    Dist {
        n: v.len(),
        p25: percentile(&v, 25.0),
        p50: percentile(&v, 50.0),
        p75: percentile(&v, 75.0),
        p99: percentile(&v, 99.0),
    }
}

/// Span durations of one scheme's traced slices, net of one clock read each.
#[derive(Clone, Copy, Debug, Default)]
pub struct SpanSummary {
    pub op: Dist,
    pub keygen: Dist,
    pub pin_unpin: Dist,
    pub get: Dist,
    pub insert: Dist,
    pub remove: Dist,
}

pub fn summarize(samples: &[Sample], timer_ns: u64) -> SpanSummary {
    let net = |a: u64, b: u64| (b - a).saturating_sub(timer_ns);
    let of_class = |class: OpClass| {
        dist(
            samples
                .iter()
                .filter(|s| s.class == class)
                .map(|s| net(s.t[2], s.t[3]))
                .collect(),
        )
    };
    SpanSummary {
        op: dist(samples.iter().map(|s| s.t[4] - s.t[0]).collect()),
        keygen: dist(samples.iter().map(|s| net(s.t[0], s.t[1])).collect()),
        pin_unpin: dist(
            samples
                .iter()
                .map(|s| net(s.t[1], s.t[2]) + net(s.t[3], s.t[4]))
                .collect(),
        ),
        get: of_class(OpClass::Get),
        insert: of_class(OpClass::Insert),
        remove: of_class(OpClass::Remove),
    }
}

fn dist_json(d: &Dist) -> String {
    format!(
        "{{\"n\": {}, \"p25_ns\": {}, \"p50_ns\": {}, \"p75_ns\": {}, \"p99_ns\": {}}}",
        d.n, d.p25, d.p50, d.p75, d.p99
    )
}

/// One scheme's section of the trace file.
pub fn scheme_json(
    scheme: &str,
    samples: &[Sample],
    summary: &SpanSummary,
    next_id: &mut u64,
) -> String {
    let mut out = String::new();
    let _ = write!(out, "    \"{scheme}\": {{\n      \"net_of_timer\": {{");
    let parts = [
        ("op_gross", &summary.op),
        ("bench.keygen", &summary.keygen),
        ("scot.pin_unpin", &summary.pin_unpin),
        ("scot.get", &summary.get),
        ("scot.insert", &summary.insert),
        ("scot.remove", &summary.remove),
    ];
    for (i, (name, d)) in parts.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(out, "{sep}\"{name}\": {}", dist_json(d));
    }
    let _ = write!(out, "}},\n      \"spans\": [");
    let mut written = [0usize; 256];
    let mut first = true;
    for s in samples {
        let seen = &mut written[s.thread as usize];
        if *seen >= FILE_OPS_PER_THREAD {
            continue;
        }
        *seen += 1;
        let spans = s.spans(*next_id);
        for span in &spans {
            let sep = if first { "" } else { "," };
            first = false;
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n        {{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}, \"thread\": {}, \"op\": {}, \"class\": \"{}\"}}",
                span.id,
                span.name,
                span.start_ns,
                span.end_ns,
                self_time(span, &spans),
                s.thread,
                s.op,
                s.class.name()
            );
        }
        *next_id += 5;
    }
    out.push_str("\n      ]\n    }");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_abutting_children() {
        let all = [
            span(1, None, 100, 200),
            span(2, Some(1), 100, 130),
            span(3, Some(1), 130, 180),
        ];
        assert_eq!(self_time(&all[0], &all), 20);
        assert_eq!(self_time(&all[1], &all), 30);
    }

    #[test]
    fn self_time_counts_only_direct_children() {
        let all = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(2), 20, 50), // grandchild: inside 2, not subtracted twice
            span(4, Some(1), 70, 90),
        ];
        assert_eq!(self_time(&all[0], &all), 100 - 50 - 20);
        assert_eq!(self_time(&all[1], &all), 50 - 30);
        assert_eq!(self_time(&all[2], &all), 30);
    }

    #[test]
    fn self_time_with_overlapping_and_protruding_children() {
        let all = [
            span(1, None, 100, 200),
            span(2, Some(1), 90, 150),  // starts before the parent
            span(3, Some(1), 140, 160), // overlaps 2
            span(4, Some(1), 190, 250), // ends after the parent
        ];
        // covered: [100,160) and [190,200)
        assert_eq!(self_time(&all[0], &all), 100 - 60 - 10);
    }

    #[test]
    fn sample_spans_tile_the_root() {
        let s = Sample {
            op: 32,
            thread: 1,
            class: OpClass::Remove,
            t: [1000, 1010, 1040, 1500, 1520],
        };
        assert!(s.is_ordered());
        let spans = s.spans(50);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[3].name, "scot.remove");
        assert!(spans[1..].iter().all(|c| c.parent == Some(50)));
        let children: u64 = spans[1..].iter().map(Span::duration).sum();
        assert_eq!(children, spans[0].duration());
        assert_eq!(self_time(&spans[0], &spans), 0);
    }

    #[test]
    fn ring_keeps_the_most_recent_samples() {
        let mut ring = Ring::new();
        for op in 0..(RING_SAMPLES as u64 + 10) {
            ring.push(Sample {
                op,
                ..Sample::default()
            });
        }
        let mut out = Vec::new();
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_SAMPLES);
        assert_eq!(out[0].op, 10);
        assert_eq!(out.last().unwrap().op, RING_SAMPLES as u64 + 9);
        ring.drain_into(&mut out);
        assert_eq!(out.len(), RING_SAMPLES);
    }

    #[test]
    fn summary_is_net_of_the_timer() {
        let samples = [Sample {
            op: 0,
            thread: 0,
            class: OpClass::Get,
            t: [0, 25, 60, 560, 590],
        }];
        let s = summarize(&samples, 20);
        assert_eq!(s.keygen.p50, 5);
        assert_eq!(s.pin_unpin.p50, 15 + 10);
        assert_eq!(s.get.p50, 480);
        assert_eq!(s.insert.n, 0);
        assert_eq!(s.op.p50, 590);
    }
}
