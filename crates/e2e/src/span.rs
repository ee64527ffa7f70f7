//! In-memory spans around calls into each layer, written out as
//! `spans.jsonl` when the traced run ends.
//!
//! The workload loops are generic over [`Tracer`]; the untraced run
//! monomorphises them over [`NoTrace`], whose methods are empty, so the
//! end-to-end numbers never pay for tracing.

use std::io::Write;
use std::time::Instant;

/// Handle of an open span.
pub type SpanId = u32;

/// "No parent" marker.
pub const ROOT: SpanId = u32::MAX;

/// Something that can record spans.
pub trait Tracer {
    /// Opens a span under `parent` for request `request`.
    fn enter(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId;
    /// Closes a span.
    fn exit(&mut self, id: SpanId);
    /// A tracer for another thread of the same run.
    fn fork(&self) -> Self
    where
        Self: Sized;
    /// Takes over what a [`Tracer::fork`]ed tracer recorded.
    fn absorb(&mut self, other: Self)
    where
        Self: Sized;
}

/// The tracer of untraced runs: records nothing, costs nothing.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoTrace;

impl Tracer for NoTrace {
    #[inline(always)]
    fn enter(&mut self, _: &'static str, _: SpanId, _: u64) -> SpanId {
        ROOT
    }
    #[inline(always)]
    fn exit(&mut self, _: SpanId) {}
    fn fork(&self) -> NoTrace {
        NoTrace
    }
    fn absorb(&mut self, _: NoTrace) {}
}

/// One recorded span; times are nanoseconds since the log's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer call the span wraps, e.g. `serve.codec.encode_request`.
    pub name: &'static str,
    /// Start, ns since the log was created.
    pub start_ns: u64,
    /// End, ns since the log was created (0 while open).
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`ROOT`].
    pub parent: SpanId,
    /// Request the span belongs to (spans of one request share it).
    pub request: u64,
}

/// A growable in-memory span log.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// An empty log whose clock starts at `epoch`. Logs filled on
    /// different threads share one epoch so they can be absorbed into one.
    pub fn new(epoch: Instant) -> SpanLog {
        SpanLog {
            epoch,
            spans: Vec::new(),
        }
    }

    /// All spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span called `name`, ascending.
    pub fn durations_sorted(&self, name: &str) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect();
        out.sort_unstable();
        out
    }

    /// Self time of every span: its duration minus the part of it its
    /// direct children cover. Index-aligned with [`SpanLog::spans`].
    pub fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if s.parent != ROOT {
                let p = s.parent as usize;
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// Writes one JSON object per span:
    /// `{"id":…,"name":…,"start_ns":…,"end_ns":…,"self_ns":…,"parent":…,"request":…}`.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let own = self.self_times();
        for (id, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

impl Tracer for SpanLog {
    fn enter(&mut self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent,
            request,
        });
        // Read the clock last so the push is outside the span.
        self.spans[id as usize].start_ns = self.epoch.elapsed().as_nanos() as u64;
        id
    }

    fn exit(&mut self, id: SpanId) {
        self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn fork(&self) -> SpanLog {
        SpanLog::new(self.epoch)
    }

    /// Appends the other thread's spans, re-basing their parent links.
    fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len() as SpanId;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != ROOT {
                s.parent += base;
            }
            s
        }));
    }
}
