//! `QPPWIRE-v2`: the versioned, length-prefixed binary wire protocol of
//! the networked front door.
//!
//! Every frame is `magic(4) | kind(1) | len(4, LE) | payload(len)`; the
//! magic `b"QPW2"` bakes the protocol version into the first four bytes,
//! so a peer of another version (a v1 peer still sends per-node truth
//! costs, which v2 derives from the plan) is rejected at the header, not
//! somewhere inside a payload. Three frame kinds exist: a prediction
//! [`Request`] (tenant, method, deadline, and a whole [`ExecutedQuery`]:
//! template, plan, truth and trace), a successful [`Response`] (the
//! prediction with the tier that produced it), and a typed [`ErrorFrame`]
//! carrying the [`QppError::wire_code`] of every error variant plus its
//! variant-specific fields — the wire mirror of the in-process `Result`.
//!
//! A request's plan travels in pre-order, each node as its operator, its
//! six estimates, its truth (rows, pages, selectivity), its detail and
//! its child count: the order a plan is stored in, so encode writes the
//! nodes as they stand, and decode pushes them, with their truths, in
//! the order it reads them. The trace follows the plan.
//!
//! Two properties the seeded cases of `tests/codec_props.rs` pin down:
//!
//! - **Round-trip identity.** `decode(encode(f)) == f` for every frame,
//!   bit-exact on floats (values travel as IEEE-754 bits, so NaN-carrying
//!   corrupted plans survive the wire unchanged — the reason this codec
//!   is hand-rolled rather than JSON).
//! - **Decode never panics.** Every read is bounds-checked, every length
//!   is validated against the bytes actually present, and tree depth is
//!   capped, so arbitrary bytes produce `Err(DecodeError)`, never a
//!   panic or an unbounded allocation. The per-node vectors of a
//!   request's trace must hold one entry per plan node, so a decoded
//!   query never panics the code that indexes them by pre-order position.
//!
//! A column travels by *name*, and decode resolves it to its position in
//! the owning table's schema with [`ColRef::lookup`]; an unknown name is a
//! malformed frame. The `&'static str` messages of `QppError::Internal`
//! and `MlError::InvalidParameter` cannot be materialized from wire bytes;
//! decode *interns* them against the known message tables and falls back
//! to a fixed static when a peer sends an unknown message (the code, which
//! is what callers should dispatch on, is always preserved).

use engine::faults::ExecError;
use engine::plan::{children, NodeTruth, PlanBuilder, MAX_CHILDREN};
use engine::{NodeEst, OpDetail, PlanNode, Planned, Trace, ALL_OP_TYPES};
use ml::bytes::{put_f64, put_str, Malformed, Reader};
use ml::MlError;
use qpp::{tier_rank, ExecutedQuery, Method, PlanOrdering, Prediction, QppError, ALL_TIERS};
use tpch::schema::{ColRef, TableId, ALL_TABLES};
use tpch::spec::{JoinKind, Predicate};
use tpch::types::{CmpOp, Scalar};

use engine::sim::NodeTiming;
use std::cell::RefCell;

/// Protocol magic: `b"QPW2"` — protocol name and version in one.
pub(crate) const MAGIC: [u8; 4] = *b"QPW2";

/// Bytes in the frame envelope before the payload: magic, kind, length.
pub(crate) const HEADER_LEN: usize = 4 + 1 + 4;

/// Default upper bound on one frame's payload length. Generous for any
/// TPC-H plan this repo produces (the deepest template encodes well under
/// 64 KiB) while bounding what a hostile peer can make the server buffer.
pub const DEFAULT_MAX_FRAME: usize = 1 << 20;

/// Plan trees deeper than this are rejected at decode: no legitimate
/// template comes close, and the cap keeps recursive decode of
/// adversarial bytes off the stack limit.
pub(crate) const MAX_PLAN_DEPTH: usize = 64;

const KIND_REQUEST: u8 = 1;
const KIND_RESPONSE: u8 = 2;
const KIND_ERROR: u8 = 3;

/// The `QppError::Internal` messages the product raises, for interning on
/// decode (`scripts/ci.sh`'s message gate holds the list to the raise
/// sites).
const INTERNAL_MESSAGES: [&str; 6] = [
    "serving worker dropped the reply",
    "tenant server is shutting down",
    "unknown tenant",
    "sub-plan structure not in the training index",
    "malformed request frame",
    "request aborted at shutdown",
];

/// Fallback when a peer sends an `Internal` message we do not know.
pub(crate) const UNKNOWN_INTERNAL: &str = "unrecognized internal error from peer";

/// The `MlError::InvalidParameter` messages the product raises, for
/// interning on decode (held to the raise sites like the list above).
const INVALID_PARAM_MESSAGES: [&str; 1] = ["ridge must be non-negative"];

/// Fallback when a peer sends an `InvalidParameter` message we do not
/// know.
pub(crate) const UNKNOWN_INVALID_PARAM: &str = "unrecognized parameter error from peer";

/// Why a buffer failed to decode as a `QPPWIRE-v2` frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends before the structure it announces; `needed` is a
    /// lower bound on the total bytes required (stream readers keep
    /// reading, parsers of complete frames treat it as malformed).
    Truncated {
        /// Minimum total length the buffer must reach.
        needed: usize,
    },
    /// The first four bytes are not `MAGIC`: not this protocol (or a
    /// corrupted / desynchronized stream).
    BadMagic,
    /// The frame kind byte is none of request/response/error.
    UnknownKind(u8),
    /// The announced payload length exceeds the receiver's frame cap.
    Oversized {
        /// Announced payload length.
        len: usize,
        /// The receiver's cap.
        max: usize,
    },
    /// The payload is structurally invalid; the message names the gate
    /// that rejected it.
    Malformed(&'static str),
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { needed } => {
                write!(f, "frame truncated (needs at least {needed} bytes)")
            }
            DecodeError::BadMagic => write!(f, "bad magic: not a QPPWIRE-v2 frame"),
            DecodeError::UnknownKind(k) => write!(f, "unknown frame kind {k}"),
            DecodeError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            DecodeError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A refused read of the shared byte layer is a malformed payload here.
impl From<Malformed> for DecodeError {
    fn from(e: Malformed) -> DecodeError {
        DecodeError::Malformed(e.0)
    }
}

/// A prediction request as it travels the wire.
///
/// No `PartialEq`: `ExecutedQuery` does not compare, and the codec's
/// identity contract is *canonical bytes* anyway — decode then re-encode
/// is byte-identical, which is what the round-trip tests pin.
#[derive(Debug, Clone)]
pub struct Request {
    /// Client-chosen request id, echoed verbatim in the reply frame.
    pub id: u64,
    /// Tenant the request is submitted under.
    pub tenant: String,
    /// Requested prediction method.
    pub method: Method,
    /// Deadline budget in microseconds; `None` = no deadline.
    pub deadline_micros: Option<u64>,
    /// The query to predict for, as it was logged: plan, truth and
    /// trace all travel.
    pub query: ExecutedQuery,
}

/// A successful prediction reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// The prediction (value travels as IEEE-754 bits: bit-exact).
    pub prediction: Prediction,
}

/// A typed error reply: the wire mirror of `Err(QppError)`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorFrame {
    /// The request id this answers (0 when the request id could not be
    /// parsed out of a malformed frame).
    pub id: u64,
    /// The error, reconstructed variant-exactly from its wire code.
    pub error: QppError,
}

/// One decoded `QPPWIRE-v2` frame.
// `Request` dwarfs the other variants (it embeds a whole plan), but a
// `Frame` is per-connection scratch that lives only between decode and
// dispatch — boxing would buy nothing except an extra allocation on
// every request the front door decodes.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum Frame {
    /// A prediction request.
    Request(Request),
    /// A successful reply.
    Response(Response),
    /// A typed error reply.
    Error(ErrorFrame),
}

impl Frame {
    /// Encodes the frame — envelope and payload — into fresh bytes.
    ///
    /// # Panics
    /// Panics if a request's query holds fewer truths than its plan has
    /// nodes.
    pub fn encode(&self) -> Vec<u8> {
        let (kind, payload) = match self {
            Frame::Request(r) => (KIND_REQUEST, encode_request(r)),
            Frame::Response(r) => (KIND_RESPONSE, encode_response(r)),
            Frame::Error(e) => (KIND_ERROR, encode_error(e)),
        };
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
        out.extend_from_slice(&MAGIC);
        out.push(kind);
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&payload);
        out
    }

    /// Decodes exactly one frame from `bytes`, which must contain the
    /// whole frame and nothing else. Never panics; arbitrary bytes yield
    /// a [`DecodeError`].
    pub fn decode(bytes: &[u8], max_frame: usize) -> Result<Frame, DecodeError> {
        let (kind, len) = decode_header(bytes, max_frame)?;
        let total = HEADER_LEN + len;
        if bytes.len() < total {
            return Err(DecodeError::Truncated { needed: total });
        }
        if bytes.len() > total {
            return Err(DecodeError::Malformed("trailing bytes after frame"));
        }
        let mut r = Reader::new(&bytes[HEADER_LEN..total]);
        let frame = match kind {
            KIND_REQUEST => Frame::Request(decode_request(&mut r)?),
            KIND_RESPONSE => Frame::Response(decode_response(&mut r)?),
            KIND_ERROR => Frame::Error(decode_error(&mut r)?),
            _ => unreachable!("decode_header validated the kind"),
        };
        if !r.is_empty() {
            return Err(DecodeError::Malformed("trailing bytes in payload"));
        }
        Ok(frame)
    }
}

/// Validates a frame envelope and returns `(kind, payload_len)`.
///
/// `bytes` must hold at least [`HEADER_LEN`] bytes — stream readers call
/// this after reading the fixed-size header, then read exactly
/// `payload_len` more. Magic, kind, and the frame cap are all enforced
/// here, so a hostile header never causes a payload allocation.
pub(crate) fn decode_header(bytes: &[u8], max_frame: usize) -> Result<(u8, usize), DecodeError> {
    if bytes.len() < HEADER_LEN {
        return Err(DecodeError::Truncated { needed: HEADER_LEN });
    }
    if bytes[..4] != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let kind = bytes[4];
    if !(KIND_REQUEST..=KIND_ERROR).contains(&kind) {
        return Err(DecodeError::UnknownKind(kind));
    }
    let len = u32::from_le_bytes([bytes[5], bytes[6], bytes[7], bytes[8]]) as usize;
    if len > max_frame {
        return Err(DecodeError::Oversized { len, max: max_frame });
    }
    Ok((kind, len))
}

// ---------------------------------------------------------------------
// Method / tier.
// ---------------------------------------------------------------------

fn method_code(m: Method) -> u8 {
    match m {
        Method::PlanLevel => 0,
        Method::OperatorLevel => 1,
        Method::Hybrid(PlanOrdering::SizeBased) => 2,
        Method::Hybrid(PlanOrdering::FrequencyBased) => 3,
        Method::Hybrid(PlanOrdering::ErrorBased) => 4,
    }
}

fn method_from(code: u8) -> Result<Method, DecodeError> {
    Ok(match code {
        0 => Method::PlanLevel,
        1 => Method::OperatorLevel,
        2 => Method::Hybrid(PlanOrdering::SizeBased),
        3 => Method::Hybrid(PlanOrdering::FrequencyBased),
        4 => Method::Hybrid(PlanOrdering::ErrorBased),
        _ => return Err(DecodeError::Malformed("unknown method code")),
    })
}

// ---------------------------------------------------------------------
// Request payload.
// ---------------------------------------------------------------------

fn encode_request(r: &Request) -> Vec<u8> {
    let mut out = Vec::with_capacity(256);
    out.extend_from_slice(&r.id.to_le_bytes());
    put_str(&mut out, &r.tenant);
    out.push(method_code(r.method));
    out.extend_from_slice(&r.deadline_micros.unwrap_or(u64::MAX).to_le_bytes());
    out.push(r.query.template);
    encode_plan(&mut out, &r.query.plan, &r.query.truth);
    out.extend_from_slice(&(r.query.trace.timings.len() as u32).to_le_bytes());
    for t in &r.query.trace.timings {
        put_f64(&mut out, t.start);
        put_f64(&mut out, t.run);
    }
    put_f64(&mut out, r.query.trace.total_secs);
    out.extend_from_slice(&(r.query.trace.io_pages.len() as u32).to_le_bytes());
    for &p in &r.query.trace.io_pages {
        put_f64(&mut out, p);
    }
    out
}

fn decode_request(r: &mut Reader) -> Result<Request, DecodeError> {
    let id = r.u64()?;
    let tenant = r.str()?.to_string();
    let method = method_from(r.u8()?)?;
    let deadline = r.u64()?;
    let template = r.u8()?;
    // The nodes and truths gather in the thread's scratch builder, and the
    // query gets one allocation of exactly their length for each: vectors
    // grown node by node and shrunk to fit on every request a server
    // decodes fragment its heap (DESIGN.md §7, "Memory: what a logged
    // query costs").
    thread_local! {
        static PLAN: RefCell<PlanBuilder> = const { RefCell::new(PlanBuilder::new()) };
    }
    let Planned { plan, truth } = PLAN.with_borrow_mut(|scratch| {
        scratch.clear();
        decode_node(r, 0, scratch)?;
        Ok::<_, DecodeError>(scratch.finish())
    })?;
    let nodes = plan.len();
    let n = r.count(16)?;
    if n != nodes {
        return Err(DecodeError::Malformed(
            "timing count differs from the plan's nodes",
        ));
    }
    let mut timings = Vec::with_capacity(n);
    for _ in 0..n {
        timings.push(NodeTiming {
            start: r.f64()?,
            run: r.f64()?,
        });
    }
    let total_secs = r.f64()?;
    let n = r.count(8)?;
    if n != nodes {
        return Err(DecodeError::Malformed(
            "I/O page count differs from the plan's nodes",
        ));
    }
    let mut io_pages = Vec::with_capacity(n);
    for _ in 0..n {
        io_pages.push(r.f64()?);
    }
    Ok(Request {
        id,
        tenant,
        method,
        deadline_micros: (deadline != u64::MAX).then_some(deadline),
        query: ExecutedQuery {
            template,
            plan,
            truth,
            trace: Trace {
                timings: timings.into_boxed_slice(),
                total_secs,
                io_pages: io_pages.into_boxed_slice(),
            },
        },
    })
}

// ---------------------------------------------------------------------
// Plan tree.
// ---------------------------------------------------------------------

/// Writes the plan's nodes as they stand, in pre-order, each node's truth
/// right after its estimates and its child count last.
///
/// # Panics
/// Panics if the query holds fewer truths than its plan has nodes.
fn encode_plan(out: &mut Vec<u8>, plan: &[PlanNode], truth: &[NodeTruth]) {
    for (i, node) in plan.iter().enumerate() {
        out.push(node.op.index() as u8);
        put_f64(out, node.est.startup_cost);
        put_f64(out, node.est.total_cost);
        put_f64(out, node.est.rows);
        put_f64(out, node.est.width);
        put_f64(out, node.est.pages);
        put_f64(out, node.est.selectivity);
        let t = truth[i];
        put_f64(out, t.rows);
        put_f64(out, t.pages);
        put_f64(out, t.selectivity);
        encode_detail(out, &node.detail);
        out.push(children(plan, i).count() as u8);
    }
}

/// Reads a subtree, pushing its nodes and their truths onto `plan` in the
/// order they arrive.
fn decode_node(r: &mut Reader, depth: usize, plan: &mut PlanBuilder) -> Result<(), DecodeError> {
    if depth > MAX_PLAN_DEPTH {
        return Err(DecodeError::Malformed("plan tree too deep"));
    }
    let op_idx = r.u8()? as usize;
    let op = *ALL_OP_TYPES
        .get(op_idx)
        .ok_or(DecodeError::Malformed("unknown operator code"))?;
    let est = NodeEst {
        startup_cost: r.f64()?,
        total_cost: r.f64()?,
        rows: r.f64()?,
        width: r.f64()?,
        pages: r.f64()?,
        selectivity: r.f64()?,
    };
    let truth = NodeTruth {
        rows: r.f64()?,
        pages: r.f64()?,
        selectivity: r.f64()?,
    };
    let detail = decode_detail(r)?;
    let n_children = r.u8()? as usize;
    if n_children > MAX_CHILDREN {
        return Err(DecodeError::Malformed("too many children"));
    }
    let at = plan.push(op, est, truth, detail);
    for _ in 0..n_children {
        decode_node(r, depth + 1, plan)?;
    }
    plan.close(at);
    Ok(())
}

fn encode_detail(out: &mut Vec<u8>, detail: &OpDetail) {
    match detail {
        OpDetail::Scan { table, filters } => {
            out.push(0);
            out.push(table_code(*table));
            out.extend_from_slice(&(filters.len() as u16).to_le_bytes());
            for p in filters {
                encode_predicate(out, p);
            }
        }
        OpDetail::Join { kind, on } => {
            out.push(1);
            out.push(match kind {
                JoinKind::Inner => 0,
                JoinKind::LeftOuter => 1,
                JoinKind::Semi => 2,
                JoinKind::Anti => 3,
            });
            encode_colref(out, on.0);
            encode_colref(out, on.1);
        }
        OpDetail::Agg {
            n_aggs,
            numeric_ops,
            n_group_cols,
        } => {
            out.push(2);
            out.extend_from_slice(&n_aggs.to_le_bytes());
            out.extend_from_slice(&numeric_ops.to_le_bytes());
            out.extend_from_slice(&n_group_cols.to_le_bytes());
        }
        OpDetail::Sort { keys } => {
            out.push(3);
            out.extend_from_slice(&keys.to_le_bytes());
        }
        OpDetail::Materialize { rescans } => {
            out.push(4);
            put_f64(out, *rescans);
        }
        OpDetail::Limit { count } => {
            out.push(5);
            out.extend_from_slice(&count.to_le_bytes());
        }
        OpDetail::Subquery {
            correlated,
            executions,
        } => {
            out.push(6);
            out.push(*correlated as u8);
            put_f64(out, *executions);
        }
        OpDetail::None => out.push(7),
    }
}

fn decode_detail(r: &mut Reader) -> Result<OpDetail, DecodeError> {
    Ok(match r.u8()? {
        0 => {
            let table = table_from(r.u8()?)?;
            let n = r.u16()? as usize;
            if n.saturating_mul(4) > r.remaining() {
                return Err(DecodeError::Malformed("filter count exceeds payload"));
            }
            let mut filters = Vec::with_capacity(n);
            for _ in 0..n {
                filters.push(decode_predicate(r)?);
            }
            OpDetail::Scan {
                table,
                filters: filters.into_boxed_slice(),
            }
        }
        1 => OpDetail::Join {
            kind: match r.u8()? {
                0 => JoinKind::Inner,
                1 => JoinKind::LeftOuter,
                2 => JoinKind::Semi,
                3 => JoinKind::Anti,
                _ => return Err(DecodeError::Malformed("unknown join kind")),
            },
            on: (decode_colref(r)?, decode_colref(r)?),
        },
        2 => OpDetail::Agg {
            n_aggs: r.u32()?,
            numeric_ops: r.u32()?,
            n_group_cols: r.u32()?,
        },
        3 => OpDetail::Sort { keys: r.u32()? },
        4 => OpDetail::Materialize { rescans: r.f64()? },
        5 => OpDetail::Limit { count: r.u64()? },
        6 => OpDetail::Subquery {
            correlated: match r.u8()? {
                0 => false,
                1 => true,
                _ => return Err(DecodeError::Malformed("bad bool")),
            },
            executions: r.f64()?,
        },
        7 => OpDetail::None,
        _ => return Err(DecodeError::Malformed("unknown detail tag")),
    })
}

fn table_code(t: TableId) -> u8 {
    ALL_TABLES
        .iter()
        .position(|&x| x == t)
        .expect("all tables enumerated") as u8
}

fn table_from(code: u8) -> Result<TableId, DecodeError> {
    ALL_TABLES
        .get(code as usize)
        .copied()
        .ok_or(DecodeError::Malformed("unknown table code"))
}

fn encode_colref(out: &mut Vec<u8>, c: ColRef) {
    out.push(table_code(c.table));
    put_str(out, c.name());
}

/// The wire carries the column's name; decode resolves it against the
/// owning table's schema. An unknown column is a malformed frame, not a
/// panic.
fn decode_colref(r: &mut Reader) -> Result<ColRef, DecodeError> {
    let table = table_from(r.u8()?)?;
    ColRef::lookup(table, r.str()?).ok_or(DecodeError::Malformed("unknown column for table"))
}

fn encode_predicate(out: &mut Vec<u8>, p: &Predicate) {
    match p {
        Predicate::Cmp { col, op, value } => {
            out.push(0);
            encode_colref(out, *col);
            out.push(cmp_code(*op));
            encode_scalar(out, *value);
        }
        Predicate::Between { col, lo, hi } => {
            out.push(1);
            encode_colref(out, *col);
            encode_scalar(out, *lo);
            encode_scalar(out, *hi);
        }
        Predicate::InSet { col, values } => {
            out.push(2);
            encode_colref(out, *col);
            out.extend_from_slice(&(values.len() as u16).to_le_bytes());
            for &v in values {
                encode_scalar(out, v);
            }
        }
        Predicate::ColCmp { left, op, right } => {
            out.push(3);
            encode_colref(out, *left);
            out.push(cmp_code(*op));
            encode_colref(out, *right);
        }
        Predicate::NameLike { col, color } => {
            out.push(4);
            encode_colref(out, *col);
            out.extend_from_slice(&color.to_le_bytes());
        }
        Predicate::TextNotLike { col, truth } => {
            out.push(5);
            encode_colref(out, *col);
            put_f64(out, *truth);
        }
    }
}

fn decode_predicate(r: &mut Reader) -> Result<Predicate, DecodeError> {
    Ok(match r.u8()? {
        0 => Predicate::Cmp {
            col: decode_colref(r)?,
            op: cmp_from(r.u8()?)?,
            value: decode_scalar(r)?,
        },
        1 => Predicate::Between {
            col: decode_colref(r)?,
            lo: decode_scalar(r)?,
            hi: decode_scalar(r)?,
        },
        2 => {
            let col = decode_colref(r)?;
            let n = r.u16()? as usize;
            if n.saturating_mul(5) > r.remaining() {
                return Err(DecodeError::Malformed("set size exceeds payload"));
            }
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(decode_scalar(r)?);
            }
            Predicate::InSet { col, values }
        }
        3 => Predicate::ColCmp {
            left: decode_colref(r)?,
            op: cmp_from(r.u8()?)?,
            right: decode_colref(r)?,
        },
        4 => Predicate::NameLike {
            col: decode_colref(r)?,
            color: r.u32()?,
        },
        5 => Predicate::TextNotLike {
            col: decode_colref(r)?,
            truth: r.f64()?,
        },
        _ => return Err(DecodeError::Malformed("unknown predicate tag")),
    })
}

fn cmp_code(op: CmpOp) -> u8 {
    match op {
        CmpOp::Eq => 0,
        CmpOp::Lt => 1,
        CmpOp::Le => 2,
        CmpOp::Gt => 3,
        CmpOp::Ge => 4,
        CmpOp::Ne => 5,
    }
}

fn cmp_from(code: u8) -> Result<CmpOp, DecodeError> {
    Ok(match code {
        0 => CmpOp::Eq,
        1 => CmpOp::Lt,
        2 => CmpOp::Le,
        3 => CmpOp::Gt,
        4 => CmpOp::Ge,
        5 => CmpOp::Ne,
        _ => return Err(DecodeError::Malformed("unknown comparison code")),
    })
}

fn encode_scalar(out: &mut Vec<u8>, s: Scalar) {
    match s {
        Scalar::Int(v) => {
            out.push(0);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Scalar::Float(v) => {
            out.push(1);
            put_f64(out, v);
        }
        Scalar::Date(v) => {
            out.push(2);
            out.extend_from_slice(&v.to_le_bytes());
        }
        Scalar::Cat(v) => {
            out.push(3);
            out.extend_from_slice(&v.to_le_bytes());
        }
    }
}

fn decode_scalar(r: &mut Reader) -> Result<Scalar, DecodeError> {
    Ok(match r.u8()? {
        0 => Scalar::Int(r.i64()?),
        1 => Scalar::Float(r.f64()?),
        2 => Scalar::Date(r.i32()?),
        3 => Scalar::Cat(r.u32()?),
        _ => return Err(DecodeError::Malformed("unknown scalar tag")),
    })
}

// ---------------------------------------------------------------------
// Response payload.
// ---------------------------------------------------------------------

fn encode_response(r: &Response) -> Vec<u8> {
    let mut out = Vec::with_capacity(18);
    out.extend_from_slice(&r.id.to_le_bytes());
    put_f64(&mut out, r.prediction.value);
    out.push(tier_rank(r.prediction.method_used) as u8);
    out.push(r.prediction.degraded as u8);
    out
}

fn decode_response(r: &mut Reader) -> Result<Response, DecodeError> {
    let id = r.u64()?;
    let value = r.f64()?;
    let tier = *ALL_TIERS
        .get(r.u8()? as usize)
        .ok_or(DecodeError::Malformed("unknown tier code"))?;
    let degraded = match r.u8()? {
        0 => false,
        1 => true,
        _ => return Err(DecodeError::Malformed("bad bool")),
    };
    Ok(Response {
        id,
        prediction: Prediction {
            value,
            method_used: tier,
            degraded,
        },
    })
}

// ---------------------------------------------------------------------
// Error payload.
// ---------------------------------------------------------------------

fn encode_error(e: &ErrorFrame) -> Vec<u8> {
    let mut out = Vec::with_capacity(32);
    out.extend_from_slice(&e.id.to_le_bytes());
    out.extend_from_slice(&e.error.wire_code().to_le_bytes());
    match &e.error {
        QppError::Ml(MlError::ShapeMismatch { expected, got }) => {
            out.extend_from_slice(&(*expected as u64).to_le_bytes());
            out.extend_from_slice(&(*got as u64).to_le_bytes());
        }
        QppError::Ml(MlError::EmptyDataset)
        | QppError::Ml(MlError::NotPositiveDefinite)
        | QppError::Ml(MlError::NonFiniteData)
        | QppError::NoTrainingData => {}
        QppError::Ml(MlError::InvalidParameter(msg)) => put_str(&mut out, msg),
        QppError::Ml(MlError::DidNotConverge { iterations }) => {
            out.extend_from_slice(&(*iterations as u64).to_le_bytes());
        }
        QppError::Exec(ExecError::Aborted { progress }) => put_f64(&mut out, *progress),
        QppError::Exec(ExecError::Timeout {
            budget_secs,
            needed_secs,
        }) => {
            put_f64(&mut out, *budget_secs);
            put_f64(&mut out, *needed_secs);
        }
        QppError::InvalidSnapshot(msg) => put_str(&mut out, msg),
        QppError::Io(msg) => put_str(&mut out, msg),
        QppError::Internal(msg) => put_str(&mut out, msg),
        QppError::Overloaded { queue_depth } => {
            out.extend_from_slice(&(*queue_depth as u64).to_le_bytes());
        }
        QppError::TenantOverloaded { tenant } => put_str(&mut out, tenant),
        QppError::DeadlineExceeded { budget_secs } => put_f64(&mut out, *budget_secs),
        // `QppError` is non_exhaustive from this crate's viewpoint: a
        // variant added without a wire mapping encodes as its code with
        // an empty body, which decodes to `Internal` below — visible,
        // not silent, in cross-version tests.
        _ => {}
    }
    out
}

fn decode_qpp_error(r: &mut Reader) -> Result<QppError, DecodeError> {
    let code = r.u16()?;
    Ok(match code {
        0x0101 => QppError::Ml(MlError::ShapeMismatch {
            expected: r.u64()? as usize,
            got: r.u64()? as usize,
        }),
        0x0102 => QppError::Ml(MlError::EmptyDataset),
        0x0103 => QppError::Ml(MlError::NotPositiveDefinite),
        0x0104 => {
            let msg = r.str()?;
            QppError::Ml(MlError::InvalidParameter(
                intern(&INVALID_PARAM_MESSAGES, msg).unwrap_or(UNKNOWN_INVALID_PARAM),
            ))
        }
        0x0105 => QppError::Ml(MlError::NonFiniteData),
        0x0106 => QppError::Ml(MlError::DidNotConverge {
            iterations: r.u64()? as usize,
        }),
        0x0201 => QppError::Exec(ExecError::Aborted {
            progress: r.f64()?,
        }),
        0x0202 => QppError::Exec(ExecError::Timeout {
            budget_secs: r.f64()?,
            needed_secs: r.f64()?,
        }),
        0x0301 => QppError::NoTrainingData,
        0x0302 => QppError::InvalidSnapshot(r.str()?.to_string()),
        0x0303 => QppError::Io(r.str()?.to_string()),
        0x0304 => {
            let msg = r.str()?;
            QppError::Internal(intern(&INTERNAL_MESSAGES, msg).unwrap_or(UNKNOWN_INTERNAL))
        }
        0x0401 => QppError::Overloaded {
            queue_depth: r.u64()? as usize,
        },
        0x0402 => QppError::TenantOverloaded {
            tenant: r.str()?.to_string(),
        },
        0x0403 => QppError::DeadlineExceeded {
            budget_secs: r.f64()?,
        },
        _ => return Err(DecodeError::Malformed("unknown error code")),
    })
}

fn decode_error(r: &mut Reader) -> Result<ErrorFrame, DecodeError> {
    let id = r.u64()?;
    let error = decode_qpp_error(r)?;
    Ok(ErrorFrame { id, error })
}

fn intern(table: &[&'static str], msg: &str) -> Option<&'static str> {
    table.iter().find(|&&m| m == msg).copied()
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::catalog::Catalog;
    use engine::planner::Planner;
    use engine::sim::Simulator;
    use rng::StdRng;
    use tpch::templates;

    fn sample_query(template: u8, seed: u64) -> ExecutedQuery {
        let catalog = Catalog::new(0.1, 1);
        let planner = Planner::new(&catalog);
        let mut rng = StdRng::seed_from_u64(seed);
        let planned = planner.plan(&templates::instantiate(template, 0.1, &mut rng));
        let trace = Simulator::new().execute(&planned, 0.1, seed);
        ExecutedQuery {
            template,
            plan: planned.plan,
            truth: planned.truth,
            trace,
        }
    }

    fn all_errors() -> Vec<QppError> {
        vec![
            QppError::Ml(MlError::ShapeMismatch {
                expected: 12,
                got: 7,
            }),
            QppError::Ml(MlError::EmptyDataset),
            QppError::Ml(MlError::NotPositiveDefinite),
            QppError::Ml(MlError::InvalidParameter("ridge must be non-negative")),
            QppError::Ml(MlError::NonFiniteData),
            QppError::Ml(MlError::DidNotConverge { iterations: 500 }),
            QppError::Exec(ExecError::Aborted { progress: 0.25 }),
            QppError::Exec(ExecError::Timeout {
                budget_secs: 1.5,
                needed_secs: 9.0,
            }),
            QppError::NoTrainingData,
            QppError::InvalidSnapshot("checksum mismatch".to_string()),
            QppError::Io("permission denied".to_string()),
            QppError::Internal("unknown tenant"),
            QppError::Overloaded { queue_depth: 512 },
            QppError::TenantOverloaded {
                tenant: "analytics".to_string(),
            },
            QppError::DeadlineExceeded { budget_secs: 0.125 },
        ]
    }

    #[test]
    fn request_frames_round_trip_for_every_template() {
        for template in templates::ALL_TEMPLATES {
            let req = Request {
                id: 7_000 + template as u64,
                tenant: format!("tenant-{template}"),
                method: Method::Hybrid(PlanOrdering::ErrorBased),
                deadline_micros: Some(250_000),
                query: sample_query(template, 11),
            };
            let bytes = Frame::Request(req.clone()).encode();
            let back = Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode");
            assert!(matches!(back, Frame::Request(_)), "template {template}");
            // Re-encoding the decoded frame is byte-identical: the codec
            // has one canonical form, so this pins full field identity.
            assert_eq!(back.encode(), bytes);
        }
    }

    #[test]
    fn nan_estimates_survive_the_wire_bit_exactly() {
        let mut q = sample_query(6, 3);
        q.plan[0].est.rows = f64::NAN;
        q.plan[0].est.total_cost = f64::NEG_INFINITY;
        q.trace.total_secs = f64::INFINITY;
        let req = Request {
            id: 1,
            tenant: "t".into(),
            method: Method::PlanLevel,
            deadline_micros: None,
            query: q,
        };
        let bytes = Frame::Request(req.clone()).encode();
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode") {
            Frame::Request(back) => {
                assert_eq!(
                    back.query.plan[0].est.rows.to_bits(),
                    req.query.plan[0].est.rows.to_bits()
                );
                assert_eq!(back.query.trace.total_secs, f64::INFINITY);
                assert_eq!(back.query.plan[0].est.total_cost, f64::NEG_INFINITY);
            }
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn an_unknown_column_name_is_a_malformed_frame() {
        let req = Request {
            id: 1,
            tenant: "t".into(),
            method: Method::PlanLevel,
            deadline_micros: None,
            query: sample_query(6, 3),
        };
        let mut bytes = Frame::Request(req).encode();
        // Rename the first lineitem column on the wire, keeping its length.
        let at = bytes
            .windows(10)
            .position(|w| w == b"l_shipdate")
            .expect("template 6 filters on l_shipdate");
        bytes[at..at + 10].copy_from_slice(b"l_shipdatX");
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME).err(),
            Some(DecodeError::Malformed("unknown column for table"))
        );
    }

    #[test]
    fn a_node_with_three_children_is_a_malformed_frame() {
        // The planner emits at most two children and the operator-level
        // features read two: a third would be dropped from composition.
        let mut query = sample_query(6, 3);
        // The root, then its child subtree three times.
        fn copy(b: &mut PlanBuilder, q: &ExecutedQuery, at: usize) {
            let n = &q.plan[at];
            let pushed = b.push(n.op, n.est, q.truth[at], n.detail.clone());
            for c in children(&q.plan, at) {
                copy(b, q, c);
            }
            b.close(pushed);
        }
        let mut b = PlanBuilder::new();
        let root = &query.plan[0];
        b.push(root.op, root.est, query.truth[0], root.detail.clone());
        for _ in 0..3 {
            copy(&mut b, &query, 1);
        }
        b.close(0);
        let Planned { plan, truth } = b.finish();
        (query.plan, query.truth) = (plan, truth);
        let req = Request {
            id: 1,
            tenant: "t".into(),
            method: Method::OperatorLevel,
            deadline_micros: None,
            query,
        };
        let bytes = Frame::Request(req).encode();
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME).err(),
            Some(DecodeError::Malformed("too many children"))
        );
    }

    #[test]
    fn per_node_vectors_that_miss_a_node_are_malformed_frames() {
        // Training indexes a trace by pre-order position: a query handed
        // back for retraining must hold one timing and one page count per
        // plan node.
        let request = |query| Request {
            id: 1,
            tenant: "t".into(),
            method: Method::OperatorLevel,
            deadline_micros: None,
            query,
        };
        let mut short_timings = sample_query(3, 5);
        let n = short_timings.trace.timings.len();
        short_timings.trace.timings = short_timings.trace.timings[..n - 1].into();
        assert_eq!(
            Frame::decode(
                &Frame::Request(request(short_timings)).encode(),
                DEFAULT_MAX_FRAME
            )
            .err(),
            Some(DecodeError::Malformed(
                "timing count differs from the plan's nodes"
            ))
        );
        let mut long_pages = sample_query(3, 5);
        long_pages.trace.io_pages = [&long_pages.trace.io_pages[..], &[1.0]].concat().into();
        assert_eq!(
            Frame::decode(
                &Frame::Request(request(long_pages)).encode(),
                DEFAULT_MAX_FRAME
            )
            .err(),
            Some(DecodeError::Malformed(
                "I/O page count differs from the plan's nodes"
            ))
        );
    }

    #[test]
    fn a_v1_frame_is_refused_at_the_header() {
        // Version 1 carried per-node truth costs after the plan; its magic
        // is the only byte sequence a v2 decoder needs to refuse it.
        let req = Request {
            id: 1,
            tenant: "t".into(),
            method: Method::PlanLevel,
            deadline_micros: None,
            query: sample_query(6, 3),
        };
        let mut bytes = Frame::Request(req).encode();
        bytes[..4].copy_from_slice(b"QPW1");
        assert_eq!(
            decode_header(&bytes, DEFAULT_MAX_FRAME),
            Err(DecodeError::BadMagic)
        );
        assert_eq!(
            Frame::decode(&bytes, DEFAULT_MAX_FRAME).err(),
            Some(DecodeError::BadMagic)
        );
    }

    #[test]
    fn response_frames_round_trip_for_every_tier_and_method() {
        for (i, &tier) in ALL_TIERS.iter().enumerate() {
            let resp = Response {
                id: 42 + i as u64,
                prediction: Prediction {
                    value: 0.001 * (i + 1) as f64,
                    method_used: tier,
                    degraded: i % 2 == 0,
                },
            };
            let bytes = Frame::Response(resp).encode();
            match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode") {
                Frame::Response(back) => assert_eq!(back, resp),
                other => panic!("wrong frame {other:?}"),
            }
        }
        for code in 0..5u8 {
            let m = method_from(code).unwrap();
            assert_eq!(method_code(m), code);
        }
    }

    #[test]
    fn every_error_variant_round_trips_with_its_wire_code() {
        for err in all_errors() {
            let frame = Frame::Error(ErrorFrame {
                id: 9,
                error: err.clone(),
            });
            let bytes = frame.encode();
            let back = Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode");
            match &back {
                Frame::Error(e) => {
                    assert_eq!(e.error, err, "variant must reconstruct exactly");
                    assert_eq!(e.error.wire_code(), err.wire_code());
                    assert_eq!(e.id, 9);
                }
                other => panic!("wrong frame {other:?}"),
            }
            assert_eq!(back.encode(), bytes);
        }
        // All wire codes are distinct.
        let codes: std::collections::HashSet<u16> =
            all_errors().iter().map(|e| e.wire_code()).collect();
        assert_eq!(codes.len(), all_errors().len());
    }

    #[test]
    fn every_known_message_interns_to_its_own_static() {
        // Decode can only produce a `&'static str` by interning, and an
        // unknown message comes back as the fallback: equality is identity.
        let internal = INTERNAL_MESSAGES.map(QppError::Internal);
        let invalid = INVALID_PARAM_MESSAGES.map(|m| QppError::Ml(MlError::InvalidParameter(m)));
        for error in internal.into_iter().chain(invalid) {
            let bytes = Frame::Error(ErrorFrame {
                id: 1,
                error: error.clone(),
            })
            .encode();
            match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode") {
                Frame::Error(e) => assert_eq!(e.error, error),
                other => panic!("wrong frame {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_static_messages_intern_to_the_fallback() {
        // Hand-craft an Internal error frame with a message outside the
        // intern table: the code survives, the message degrades politely.
        let mut payload = Vec::new();
        payload.extend_from_slice(&1u64.to_le_bytes());
        payload.extend_from_slice(&0x0304u16.to_le_bytes());
        put_str(&mut payload, "some future message");
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        bytes.push(KIND_ERROR);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match Frame::decode(&bytes, DEFAULT_MAX_FRAME).expect("decode") {
            Frame::Error(e) => assert_eq!(e.error, QppError::Internal(UNKNOWN_INTERNAL)),
            other => panic!("wrong frame {other:?}"),
        }
    }

    #[test]
    fn headers_reject_bad_magic_kind_and_oversize() {
        let req = Frame::Error(ErrorFrame {
            id: 0,
            error: QppError::NoTrainingData,
        });
        let good = req.encode();
        assert!(decode_header(&good, DEFAULT_MAX_FRAME).is_ok());
        let mut bad = good.clone();
        bad[0] ^= 0xFF;
        assert_eq!(
            decode_header(&bad, DEFAULT_MAX_FRAME),
            Err(DecodeError::BadMagic)
        );
        let mut bad = good.clone();
        bad[4] = 99;
        assert_eq!(
            decode_header(&bad, DEFAULT_MAX_FRAME),
            Err(DecodeError::UnknownKind(99))
        );
        let mut bad = good.clone();
        bad[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_header(&bad, DEFAULT_MAX_FRAME),
            Err(DecodeError::Oversized { .. })
        ));
        assert_eq!(
            decode_header(&good[..4], DEFAULT_MAX_FRAME),
            Err(DecodeError::Truncated { needed: HEADER_LEN })
        );
        // A frame cap below the announced length rejects before any
        // payload is consumed.
        assert!(matches!(
            decode_header(&good, 4),
            Err(DecodeError::Oversized { .. })
        ));
    }

    #[test]
    fn truncation_and_trailing_bytes_are_malformed_not_panics() {
        let req = Request {
            id: 3,
            tenant: "t".into(),
            method: Method::OperatorLevel,
            deadline_micros: None,
            query: sample_query(3, 5),
        };
        let bytes = Frame::Request(req).encode();
        // Every strict prefix fails cleanly.
        for cut in (0..bytes.len()).step_by(7) {
            assert!(Frame::decode(&bytes[..cut], DEFAULT_MAX_FRAME).is_err());
        }
        // Trailing garbage is rejected, not silently ignored.
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(Frame::decode(&extended, DEFAULT_MAX_FRAME).is_err());
    }

    #[test]
    fn decode_errors_display() {
        for e in [
            DecodeError::Truncated { needed: 9 },
            DecodeError::BadMagic,
            DecodeError::UnknownKind(9),
            DecodeError::Oversized { len: 10, max: 5 },
            DecodeError::Malformed("x"),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
