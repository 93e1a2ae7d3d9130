#![forbid(unsafe_code)]
//! The shard protocol's wire format: the function-shipped payloads a
//! range's front ends, replicas and re-sync drivers exchange. This is
//! the only file that names an opcode or a reply tag — requests decode
//! into a borrowed `ShardOp`, each reply form and the PULL page have
//! one writer and one reader. Keys and values stay where they arrived:
//! a decoded field is a view of the received chain, an encoded value is
//! linked by descriptor.

use ebbrt_core::ebb::{EbbId, HashRing};
use ebbrt_core::iobuf::wire::{Field, WireReader, WireWriter};
use ebbrt_core::iobuf::{Chain, IoBuf};

/// `[op | key:tail]` → `[HIT | value:tail]` or `[MISS]`.
const SHARD_OP_GET: u8 = 1;
/// `[op | key:bytes16 | value:tail]` → `[HIT | version:u64]`.
const SHARD_OP_SET: u8 = 2;
/// Replication fan-out from an acting primary to a peer replica:
/// `[op | version:u64 | key:bytes16 | value:tail]` → `[HIT | version:u64]`.
const SHARD_OP_REPL: u8 = 3;
/// Re-sync probe: `[op]` → `[HIT | applied:u64 | state:u8]`. A
/// restored replica asks every peer where the range stands to pick its
/// catch-up source and target.
const SHARD_OP_STATUS: u8 = 4;
/// One page of the catch-up stream: `[op | have:u64 | skip:u64 |
/// limit:u32 | nranges:u32 | vnodes:u32 | range:u32]` → a chained
/// `[HIT | src_applied:u64 | mode:u8 | done:u8 | cover:u64 | n:u32]`
/// followed by `n` entries `[version:u64 | key:bytes16 |
/// value:bytes32]`. The source answers from its delta log when it still
/// covers `have` (mode 1) and falls back to a snapshot page of its store
/// filtered to the `(nranges, vnodes)` ring's `range` otherwise (mode 0,
/// paged by `skip`), with the stored values riding the response as
/// zero-copy descriptor clones.
const SHARD_OP_PULL: u8 = 5;
/// `[op | ep:u32]` → `[HIT | applied:u64]`: the caught-up replica at
/// endpoint `ep` rejoins the fan-out — clears its presumed-dead mark
/// and is a fan-out target again from this write on. The returned
/// `applied` is the rejoin barrier: writes acknowledged before this
/// response are covered by pulling up to it.
const SHARD_OP_REJOIN: u8 = 6;
/// `[op | ep:u32]` → `[HIT | applied:u64]`: adds a fan-out peer (a
/// rebalance target starts dual-apply *before* its snapshot pull, so
/// no concurrent write can be lost between page and cutover).
const SHARD_OP_ADD_PEER: u8 = 7;
/// `[op | nranges:u32 | vnodes:u32 | range:u32 | n:u32 | n × ep:u32]`
/// → `[HIT]`: writes applied at this root whose key maps to `range`
/// under the `(nranges, vnodes)` ring also fan to the listed endpoints
/// — the dual-apply rule for keys migrating to a *new* range during a
/// rebalance.
const SHARD_OP_SET_FORWARD: u8 = 8;
/// `[op]` → `[HIT]`: drops the forward rule after cutover.
const SHARD_OP_CLEAR_FORWARD: u8 = 9;

const SHARD_RESP_MISS: u8 = 0;
const SHARD_RESP_HIT: u8 = 1;
const SHARD_RESP_ERR: u8 = 2;

/// The most ring points a shape read off the wire may ask for (the
/// clusters here build 16 vnodes × at most 256 machines).
const RING_POINTS_MAX: u64 = 1 << 16;

/// Reads a ring's `(nranges, vnodes)`. [`HashRing::new`] panics on a
/// zero and allocates a point per vnode, so a shape with either, or
/// with more than [`RING_POINTS_MAX`] points, is refused.
#[inline]
fn ring_shape(r: &mut WireReader<'_>) -> Option<(u32, u32)> {
    let (nranges, vnodes) = (r.u32()?, r.u32()?);
    (1..=RING_POINTS_MAX)
        .contains(&(nranges as u64 * vnodes as u64))
        .then_some((nranges, vnodes))
}

/// The body of a PULL request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct PullReq {
    /// Every source version up to here is already covered.
    pub have: u64,
    /// Snapshot entries already walked.
    pub skip: u64,
    /// Entries per page.
    pub limit: u32,
    /// The page holds the keys the `(nranges, vnodes)` ring places in
    /// `range`.
    pub ring: (u32, u32),
    pub range: u32,
}

/// One decoded request; keys and values are views of the payload it was
/// decoded from.
pub(super) enum ShardOp<'a> {
    /// `(key)`
    Get(Field<'a>),
    /// `(key, value)`
    Set(Field<'a>, Field<'a>),
    /// `(version, key, value)`
    Repl(u64, Field<'a>, Field<'a>),
    Status,
    Pull(PullReq),
    Rejoin(EbbId),
    AddPeer(EbbId),
    /// `(ring, range, endpoints)`
    SetForward(HashRing, u32, Vec<EbbId>),
    ClearForward,
}

impl<'a> ShardOp<'a> {
    /// `None` for anything but a well-formed request.
    #[inline]
    pub(super) fn decode(payload: &'a Chain<IoBuf>) -> Option<Self> {
        let mut r = WireReader::new(payload);
        Some(match r.u8()? {
            SHARD_OP_GET => ShardOp::Get(r.tail()),
            SHARD_OP_SET => ShardOp::Set(r.bytes16()?, r.tail()),
            SHARD_OP_REPL => ShardOp::Repl(r.u64()?, r.bytes16()?, r.tail()),
            SHARD_OP_STATUS => ShardOp::Status,
            SHARD_OP_PULL => ShardOp::Pull(PullReq {
                have: r.u64()?,
                skip: r.u64()?,
                limit: r.u32()?,
                ring: ring_shape(&mut r)?,
                range: r.u32()?,
            }),
            SHARD_OP_REJOIN => ShardOp::Rejoin(EbbId(r.u32()?)),
            SHARD_OP_ADD_PEER => ShardOp::AddPeer(EbbId(r.u32()?)),
            SHARD_OP_SET_FORWARD => {
                let ((nranges, vnodes), range, n) = (ring_shape(&mut r)?, r.u32()?, r.u32()?);
                // The list is sized by the bytes that back it, not by `n`.
                if n as usize > r.remaining() / 4 {
                    return None;
                }
                let eps = (0..n).map(|_| r.u32().map(EbbId)).collect::<Option<_>>()?;
                ShardOp::SetForward(HashRing::new(nranges, vnodes), range, eps)
            }
            SHARD_OP_CLEAR_FORWARD => ShardOp::ClearForward,
            _ => return None,
        })
    }
}

#[inline]
pub(super) fn encode_get(key: &[u8]) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_OP_GET);
    w.tail(key);
    w.finish()
}

#[inline]
pub(super) fn encode_set(key: &[u8], value: &Chain<IoBuf>) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_OP_SET);
    w.bytes16(key).tail_chain(value);
    w.finish()
}

#[inline]
pub(super) fn encode_repl(version: u64, key: &[u8], value: &Chain<IoBuf>) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_OP_REPL);
    w.u64(version).bytes16(key).tail_chain(value);
    w.finish()
}

pub(super) fn encode_status() -> Chain<IoBuf> {
    WireWriter::op(SHARD_OP_STATUS).finish()
}

pub(super) fn encode_pull(req: &PullReq) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_OP_PULL);
    w.u64(req.have).u64(req.skip).u32(req.limit);
    w.u32(req.ring.0).u32(req.ring.1).u32(req.range);
    w.finish()
}

fn op_with_ep(op: u8, ep: EbbId) -> Chain<IoBuf> {
    let mut w = WireWriter::op(op);
    w.u32(ep.0);
    w.finish()
}

pub(super) fn encode_rejoin(ep: EbbId) -> Chain<IoBuf> {
    op_with_ep(SHARD_OP_REJOIN, ep)
}

/// ADD_PEER control frame: the receiving root adds `ep` to its
/// fan-out peer set (a rebalance gain joining an existing range's
/// replica group — installed *before* the transfer pulls, so every
/// write acknowledged from then on reaches the joiner).
pub fn encode_add_peer(ep: EbbId) -> Chain<IoBuf> {
    op_with_ep(SHARD_OP_ADD_PEER, ep)
}

/// SET_FORWARD control frame: the receiving root dual-applies every
/// write whose key `ring`-maps to `range` to `eps` (the migrating
/// keys' future replica group) and holds its acks for those fan-outs.
pub fn encode_set_forward(ring: &HashRing, range: u32, eps: &[EbbId]) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_OP_SET_FORWARD);
    w.u32(ring.nranges()).u32(ring.vnodes()).u32(range);
    w.u32(eps.len() as u32);
    for ep in eps {
        w.u32(ep.0);
    }
    w.finish()
}

/// CLEAR_FORWARD control frame: drops the dual-apply rule (the
/// transfer is cut over; the new replica group owns its keys).
pub fn encode_clear_forward() -> Chain<IoBuf> {
    WireWriter::op(SHARD_OP_CLEAR_FORWARD).finish()
}

/// A GET's answer: `[HIT | value:tail]` — a status byte, then the
/// store's own descriptors — or `[MISS]`.
#[inline]
pub(super) fn reply_value(value: Option<&Chain<IoBuf>>) -> Chain<IoBuf> {
    let Some(value) = value else {
        return WireWriter::op(SHARD_RESP_MISS).finish();
    };
    let mut w = WireWriter::op(SHARD_RESP_HIT);
    w.tail_chain(value);
    w.finish()
}

/// `[HIT | v:u64]`: the acknowledgement of a write (its version) or of
/// a membership change (the root's `applied`).
#[inline]
pub(super) fn reply_ack(v: u64) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_RESP_HIT);
    w.u64(v);
    w.finish()
}

/// STATUS's answer: `[HIT | applied:u64 | state:u8]`.
pub(super) fn reply_status(applied: u64, state: u8) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_RESP_HIT);
    w.u64(applied).u8(state);
    w.finish()
}

/// `[HIT]`: a forward rule was set or cleared.
pub(super) fn reply_ok() -> Chain<IoBuf> {
    WireWriter::op(SHARD_RESP_HIT).finish()
}

/// `[ERR]`: the request was malformed, or this rep serves nothing.
pub(super) fn reply_err() -> Chain<IoBuf> {
    WireWriter::op(SHARD_RESP_ERR).finish()
}

/// A byte that is 0 or 1.
#[inline]
fn flag(r: &mut WireReader<'_>) -> Option<bool> {
    let b = r.u8()?;
    (b <= 1).then_some(b == 1)
}

/// A reader just past `resp`'s tag, if the tag is HIT.
#[inline]
fn hit(resp: &Chain<IoBuf>) -> Option<WireReader<'_>> {
    let mut r = WireReader::new(resp);
    (r.u8()? == SHARD_RESP_HIT).then_some(r)
}

/// Reads [`reply_value`]'s forms — the value a view of `resp`; `None`
/// for anything else (the owner could not serve).
#[inline]
pub(super) fn decode_value(resp: &Chain<IoBuf>) -> Option<Option<Chain<IoBuf>>> {
    let mut r = WireReader::new(resp);
    match r.u8()? {
        SHARD_RESP_HIT => Some(Some(r.tail().into_chain())),
        SHARD_RESP_MISS => Some(None),
        _ => None,
    }
}

/// Reads [`reply_ack`]'s form.
#[inline]
pub(super) fn decode_ack(resp: &Chain<IoBuf>) -> Option<u64> {
    hit(resp)?.u64()
}

/// Reads [`reply_status`]'s form: `(applied, state)`.
pub(super) fn decode_status(resp: &Chain<IoBuf>) -> Option<(u64, u8)> {
    let mut r = hit(resp)?;
    Some((r.u64()?, r.u8()?))
}

/// What precedes a PULL page's entries.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(super) struct PageHeader {
    /// The source's `applied` when it cut the page.
    pub applied: u64,
    /// Cut from the delta log (the missed writes, in order) rather than
    /// from a `skip`-paged walk of the store.
    pub delta: bool,
    /// Nothing further follows this page in its mode.
    pub done: bool,
    /// Delta pages: contiguous coverage now reaches this version.
    pub cover: u64,
}

/// Writes one PULL page: `(version, key, value)` per entry, small
/// values copied into the page's buffer, larger ones linked.
pub(super) fn encode_page<'e>(
    h: PageHeader,
    entries: impl ExactSizeIterator<Item = (u64, &'e [u8], &'e Chain<IoBuf>)>,
) -> Chain<IoBuf> {
    let mut w = WireWriter::op(SHARD_RESP_HIT);
    w.u64(h.applied).u8(h.delta as u8).u8(h.done as u8);
    w.u64(h.cover).u32(entries.len() as u32);
    for (version, key, value) in entries {
        w.u64(version).bytes16(key).bytes32_chain(value);
    }
    w.finish()
}

/// Reads one PULL page, handing `each` the entries — views of `resp` —
/// in order: the header and the entry count, or `None` where `resp` is
/// not a page or stops short of the count it announces (`each` has seen
/// the entries before the gap).
pub(super) fn decode_page<'a>(
    resp: &'a Chain<IoBuf>,
    mut each: impl FnMut(u64, Field<'a>, Field<'a>),
) -> Option<(PageHeader, u32)> {
    let mut r = hit(resp)?;
    let header = PageHeader {
        applied: r.u64()?,
        delta: flag(&mut r)?,
        done: flag(&mut r)?,
        cover: r.u64()?,
    };
    let n = r.u32()?;
    for _ in 0..n {
        each(r.u64()?, r.bytes16()?, r.bytes32()?);
    }
    Some((header, n))
}

#[cfg(test)]
mod tests;
