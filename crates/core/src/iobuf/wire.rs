#![forbid(unsafe_code)]
//! Typed marshalling for messenger / function-shipping payloads: a
//! writer that marshals into pooled buffers and links large payloads by
//! descriptor, and a reader that hands fields back as views of the
//! received chain — shared by every service on the wire so framing
//! mistakes are structural, not per-call-site, and so a payload's bytes
//! stay where they are from the sender's store to the receiver's.

use super::{pool, stats, Buf, Chain, Cursor, IoBuf, MutIoBuf};
use std::borrow::Cow;

/// Bytes a [`WireWriter`] leaves free in front of what it writes,
/// for the transport's frame header (the messenger's is 17 bytes):
/// framing a finished payload is then a
/// [`Chain::prepend_in_place`] into the same buffer.
pub const HEADROOM: usize = 32;

/// The largest chain [`WireWriter::bytes32_chain`] copies into its
/// buffer; anything longer is linked by descriptor. Linking a
/// field that others follow cuts the buffer in two around it and
/// puts two more segments in every chain the payload then rides
/// (a batch of ten linked sub-calls is a twenty-segment frame, far
/// past [`super::INLINE_SEGS`]); copying costs the bytes. Picked by
/// measurement on `perf_ledger`'s `shard_remote` (128-byte values,
/// see `docs/ARCHITECTURE.md`), then fixed: it decides where a
/// message's segment boundaries fall, never its bytes.
pub const INLINE_PAYLOAD_MAX: usize = 256;

/// Builds one request/response payload: scalars and small fields
/// go into a pooled buffer (with [`HEADROOM`] in front of the first
/// byte); a chain is linked by descriptor when it is the payload's
/// tail or longer than [`INLINE_PAYLOAD_MAX`], between slices of
/// that buffer.
///
/// Field writes (op codes, versions, keys, paths) are marshalling —
/// header construction, like a protocol header pushed into
/// headroom — and are not counted by [`stats::Snapshot::bytes_copied`]; a
/// *chain* that is copied rather than linked is.
pub struct WireWriter {
    /// Finished parts, in order: full buffers, slices of the open
    /// one, linked descriptors.
    done: Chain<IoBuf>,
    /// The open buffer.
    buf: MutIoBuf,
}

impl Default for WireWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl WireWriter {
    /// An empty payload.
    pub fn new() -> Self {
        WireWriter {
            done: Chain::new(),
            buf: MutIoBuf::with_headroom(pool::SMALL_CAPACITY - HEADROOM, HEADROOM),
        }
    }

    /// A payload beginning with an operation byte.
    pub fn op(op: u8) -> Self {
        let mut w = Self::new();
        w.u8(op);
        w
    }

    /// Closes the open buffer and opens one with room for at least
    /// `n` more bytes.
    #[cold]
    fn next_buf(&mut self, n: usize) {
        let next = MutIoBuf::with_capacity(n.max(pool::SMALL_CAPACITY));
        let full = std::mem::replace(&mut self.buf, next);
        if !full.is_empty() {
            self.done.push_back(full.freeze());
        }
    }

    /// `N` contiguous bytes to fill.
    #[inline]
    fn fixed<const N: usize>(&mut self, v: [u8; N]) -> &mut Self {
        if self.buf.tailroom() < N {
            self.next_buf(N);
        }
        self.buf.append(N).copy_from_slice(&v);
        self
    }

    /// Copies `v` in, across as many buffers as it takes.
    fn raw(&mut self, mut v: &[u8]) {
        loop {
            let take = v.len().min(self.buf.tailroom());
            self.buf.append(take).copy_from_slice(&v[..take]);
            v = &v[take..];
            if v.is_empty() {
                return;
            }
            self.next_buf(v.len().min(pool::LARGE_CAPACITY));
        }
    }

    /// Appends a byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.fixed([v])
    }

    /// Appends a big-endian u16.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.fixed(v.to_be_bytes())
    }

    /// Appends a big-endian u32.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.fixed(v.to_be_bytes())
    }

    /// Appends a big-endian u64.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.fixed(v.to_be_bytes())
    }

    /// Appends a u16-length-prefixed byte string (keys, paths).
    pub fn bytes16(&mut self, v: &[u8]) -> &mut Self {
        debug_assert!(v.len() <= u16::MAX as usize);
        self.u16(v.len() as u16);
        self.raw(v);
        self
    }

    /// Appends a u32-length-prefixed byte string.
    pub fn bytes32(&mut self, v: &[u8]) -> &mut Self {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.u32(v.len() as u32);
        self.raw(v);
        self
    }

    /// Appends raw trailing bytes (the unframed tail of a payload).
    pub fn tail(&mut self, v: &[u8]) -> &mut Self {
        self.raw(v);
        self
    }

    /// Links `v`'s descriptors in: what was written before them
    /// becomes a slice of the open buffer, and writing continues
    /// behind that slice.
    fn link(&mut self, v: &Chain<IoBuf>) {
        let written = self.buf.split_frozen();
        if !written.is_empty() {
            self.done.push_back(written);
        }
        self.done.append_chain(v.clone());
    }

    /// Appends a chain as the unframed tail of the payload — always
    /// by descriptor, whatever its size: nothing is written behind
    /// a tail, so linking it cuts no buffer and costs the payload
    /// exactly one more segment per segment of `v`. This is how a
    /// value leaves a store for the wire without a byte of it
    /// moving.
    pub fn tail_chain(&mut self, v: &Chain<IoBuf>) -> &mut Self {
        if !v.is_empty() {
            self.link(v);
        }
        self
    }

    /// Appends a u32-length-prefixed chain that more fields may
    /// follow (a sub-call of a batch, an entry of a snapshot page):
    /// copied into the buffer (counted by [`stats::Snapshot::bytes_copied`])
    /// when at most [`INLINE_PAYLOAD_MAX`] long, linked by
    /// descriptor otherwise.
    pub fn bytes32_chain(&mut self, v: &Chain<IoBuf>) -> &mut Self {
        debug_assert!(v.len() <= u32::MAX as usize);
        self.u32(v.len() as u32);
        if v.len() <= INLINE_PAYLOAD_MAX {
            stats::record_copy(v.len());
            for seg in v {
                self.raw(seg.bytes());
            }
        } else {
            self.link(v);
        }
        self
    }

    /// The finished payload.
    pub fn finish(self) -> Chain<IoBuf> {
        let WireWriter { mut done, buf } = self;
        if !buf.is_empty() {
            done.push_back(buf.freeze());
        }
        done
    }
}

/// One length-delimited field of a received payload, still in the
/// buffers it arrived in: a borrowed slice when it sits in one
/// segment (keys, paths — look at them in place), a zero-copy
/// sub-chain either way (values — pass them on).
pub struct Field<'a>(Repr<'a>);

enum Repr<'a> {
    /// `len` bytes at `at` of one segment.
    One {
        seg: &'a IoBuf,
        at: usize,
        len: usize,
    },
    /// Carved out across segments (or empty).
    Many(Chain<IoBuf>),
}

impl Field<'_> {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::One { len, .. } => *len,
            Repr::Many(c) => c.len(),
        }
    }

    /// Whether the field holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bytes in place, when they sit in one segment.
    pub fn as_slice(&self) -> Option<&[u8]> {
        match &self.0 {
            Repr::One { seg, at, len } => Some(&seg.bytes()[*at..*at + *len]),
            Repr::Many(c) => match c.segment_count() {
                0 => Some(&[]),
                1 => Some(c.seg(0).bytes()),
                _ => None,
            },
        }
    }

    /// The bytes as one slice: in place when the field sits in one
    /// segment, gathered (a counted copy) when it straddles.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        match (self.as_slice(), &self.0) {
            (Some(s), _) => Cow::Borrowed(s),
            (None, Repr::Many(c)) => Cow::Owned(c.copy_to_vec()),
            (None, Repr::One { .. }) => unreachable!("one segment is always a slice"),
        }
    }

    /// A descriptor chain over the field, sharing the received
    /// buffers (no copy).
    pub fn into_chain(self) -> Chain<IoBuf> {
        match self.0 {
            Repr::One { seg, at, len } => Chain::single(seg.slice(at, len)),
            Repr::Many(c) => c,
        }
    }
}

/// Reads one request/response payload from a received chain.
pub struct WireReader<'a> {
    cur: Cursor<'a, IoBuf>,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the front of `chain`.
    pub fn new(chain: &'a Chain<IoBuf>) -> Self {
        WireReader {
            cur: chain.cursor(),
        }
    }

    /// Unread bytes.
    pub fn remaining(&self) -> usize {
        self.cur.remaining()
    }

    /// Reads a byte.
    pub fn u8(&mut self) -> Option<u8> {
        self.cur.read_u8()
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Option<u16> {
        self.cur.read_u16_be()
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Option<u32> {
        self.cur.read_u32_be()
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Option<u64> {
        self.cur.read_u64_be()
    }

    /// The next `n` bytes as a view; `None` (consuming nothing)
    /// when fewer remain.
    fn field(&mut self, n: usize) -> Option<Field<'a>> {
        if let Some((seg, at)) = self.cur.read_in_segment(n) {
            return Some(Field(Repr::One { seg, at, len: n }));
        }
        self.cur
            .read_exact_zero_copy(n)
            .map(|c| Field(Repr::Many(c)))
    }

    /// Reads a u16-length-prefixed field.
    pub fn bytes16(&mut self) -> Option<Field<'a>> {
        let n = self.u16()? as usize;
        self.field(n)
    }

    /// Reads a u32-length-prefixed field.
    pub fn bytes32(&mut self) -> Option<Field<'a>> {
        let n = self.u32()? as usize;
        self.field(n)
    }

    /// Reads every remaining byte (the unframed tail).
    pub fn tail(&mut self) -> Field<'a> {
        let n = self.remaining();
        self.field(n).expect("the remaining bytes remain")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bytes_of(c: &Chain<IoBuf>) -> Vec<u8> {
        c.iter().flat_map(|s| s.bytes().to_vec()).collect()
    }

    #[test]
    fn writer_reader_roundtrip() {
        let mut w = WireWriter::op(7);
        w.u16(0xBEEF)
            .u32(42)
            .u64(1 << 40)
            .bytes16(b"key")
            .bytes32(b"a-value-wider-than-a-key")
            .tail(b"value");
        let chain = w.finish();
        assert_eq!(chain.segment_count(), 1, "small payloads are one buffer");
        let mut r = WireReader::new(&chain);
        assert_eq!(r.u8(), Some(7));
        assert_eq!(r.u16(), Some(0xBEEF));
        assert_eq!(r.u32(), Some(42));
        assert_eq!(r.u64(), Some(1 << 40));
        assert_eq!(r.bytes16().unwrap().as_slice(), Some(b"key".as_slice()));
        assert_eq!(
            &*r.bytes32().unwrap().contiguous(),
            b"a-value-wider-than-a-key".as_slice()
        );
        assert_eq!(bytes_of(&r.tail().into_chain()), b"value");
        assert_eq!(r.remaining(), 0);
        assert_eq!(r.u8(), None, "reads past the end fail, not wrap");
        assert!(r.tail().is_empty());
    }

    #[test]
    fn small_fields_are_copied_large_ones_and_tails_linked() {
        let small = IoBuf::copy_from(&[0x11; INLINE_PAYLOAD_MAX]);
        let large = IoBuf::copy_from(&[0x22; INLINE_PAYLOAD_MAX + 1]);
        let before = stats::snapshot();
        let mut w = WireWriter::op(1);
        w.bytes32_chain(&Chain::single(small.clone()))
            .u8(2)
            .bytes32_chain(&Chain::single(large.clone()))
            .u8(3)
            .tail_chain(&Chain::single(small.clone()))
            .tail_chain(&Chain::new());
        let out = w.finish();
        let delta = stats::snapshot().since(&before);
        assert_eq!(delta.bytes_copied, INLINE_PAYLOAD_MAX as u64);
        assert_eq!(delta.bufs_allocated, 0, "marshalling buffers are pooled");
        assert_eq!(
            small.ref_count(),
            2,
            "copied as a field, linked as the tail"
        );
        assert_eq!(large.ref_count(), 2, "linked by descriptor");
        // [op|len|small|2|len] [large] [3] [small]: the buffer's two
        // slices around the link share one region.
        assert_eq!(out.segment_count(), 4);
        assert_eq!(out.seg(0).ref_count(), 2);
        let mut expect = vec![1];
        expect.extend((INLINE_PAYLOAD_MAX as u32).to_be_bytes());
        expect.extend([0x11; INLINE_PAYLOAD_MAX]);
        expect.push(2);
        expect.extend((INLINE_PAYLOAD_MAX as u32 + 1).to_be_bytes());
        expect.extend([0x22; INLINE_PAYLOAD_MAX + 1]);
        expect.push(3);
        expect.extend([0x11; INLINE_PAYLOAD_MAX]);
        assert_eq!(bytes_of(&out), expect);
    }

    #[test]
    fn finished_payload_takes_a_frame_header_in_place() {
        let mut w = WireWriter::op(9);
        w.u32(77);
        let mut chain = w.finish();
        let region = chain.seg(0).bytes().as_ptr();
        chain
            .prepend_in_place(17)
            .expect("sole descriptor, headroom reserved")
            .fill(0xEE);
        assert_eq!(chain.len(), 22);
        assert_eq!(chain.segment_count(), 1);
        assert_eq!(chain.seg(0).bytes()[17..].as_ptr(), region);
        assert_eq!(&chain.seg(0).bytes()[..17], &[0xEE; 17]);
        // A second descriptor (a retry's retained clone) forbids it…
        let keep = chain.clone();
        assert!(chain.prepend_in_place(1).is_none());
        drop(keep);
        // …and so does running out of room.
        assert!(chain.prepend_in_place(HEADROOM).is_none());
        assert!(Chain::<IoBuf>::new().prepend_in_place(1).is_none());
    }

    #[test]
    fn slices_larger_than_a_buffer_span_buffers() {
        let big: Vec<u8> = (0..5000u32).map(|i| i as u8).collect();
        let mut w = WireWriter::op(4);
        w.bytes32(&big).u8(5);
        let out = w.finish();
        assert!(out.segment_count() >= 2);
        let mut r = WireReader::new(&out);
        assert_eq!(r.u8(), Some(4));
        let f = r.bytes32().unwrap();
        assert!(f.as_slice().is_none(), "straddles buffers");
        assert_eq!(&*f.contiguous(), big.as_slice());
        assert_eq!(bytes_of(&f.into_chain()), big);
        assert_eq!(r.u8(), Some(5));
    }

    #[test]
    fn truncated_fields_read_as_none() {
        let mut w = WireWriter::new();
        w.u16(10).tail(b"short");
        let chain = w.finish();
        let mut r = WireReader::new(&chain);
        assert!(r.bytes16().is_none(), "length beyond the payload");
        let chain = Chain::single(IoBuf::copy_from(&[0, 0, 0]));
        assert!(WireReader::new(&chain).bytes32().is_none());
    }
}
