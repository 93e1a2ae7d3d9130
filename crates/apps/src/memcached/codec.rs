//! The memcached binary protocol's wire format, in one place: the
//! 24-byte [`Header`], the request encoders, the one framing loop both
//! directions of a connection run ([`drain_frames`] — the server frames
//! requests with it, [`Client`](super::Client) frames replies), the
//! reply builders, and key extraction.
//!
//! Nothing here copies a payload byte: frames are carved out of the
//! receive chain as descriptor sub-views, and replies chain a pooled
//! header segment in front of whatever descriptors the caller hands in.

use ebbrt_core::iobuf::{Chain, IoBuf, MutIoBuf};
use ebbrt_core::qos;

/// The memcached service port.
pub const MEMCACHED_PORT: u16 = 11211;

/// Binary protocol magic bytes.
pub const MAGIC_REQUEST: u8 = 0x80;
/// Response magic.
pub const MAGIC_RESPONSE: u8 = 0x81;

/// Opcodes (subset used by the ETC workload).
pub const OP_GET: u8 = 0x00;
/// SET opcode.
pub const OP_SET: u8 = 0x01;

/// Response status codes.
pub const STATUS_OK: u16 = 0x0000;
/// Key not found.
pub const STATUS_KEY_NOT_FOUND: u16 = 0x0001;
/// A well-framed request whose opcode this server does not implement.
/// Answered, never swallowed: a pipelining client counts replies.
pub const STATUS_UNKNOWN_COMMAND: u16 = 0x0081;
/// Internal error: the key's shard could not be reached (the
/// function-shipped call failed — owner unresolved, unreachable, or
/// timed out). Remote failure surfaces as a response, never a hang.
pub const STATUS_REMOTE_ERROR: u16 = 0x0084;
/// Overload: the request sat queued past its class's service deadline
/// and was shed — answered with this status (echoing the opaque)
/// instead of served. Never silent: the client learns immediately and
/// can retry elsewhere or back off.
pub const STATUS_SERVER_BUSY: u16 = 0x0085;

/// The protocol's maximum key length; keys up to this size are read
/// into stack scratch on the parse path (no heap traffic). Longer keys
/// are a protocol violation but are still served (via a heap read) so
/// no request ever goes silently unanswered.
pub const MAX_KEY_LEN: usize = 250;

/// The largest body a frame may claim: memcached's 1 MiB item limit
/// plus the longest key and extras field. A header claiming more is a
/// framing error ([`BadFrame`]) — the claim is rejected when the
/// header lands, so a connection never parks more than
/// `Header::SIZE + MAX_BODY_LEN` bytes waiting for a body.
pub const MAX_BODY_LEN: usize = (1 << 20) + MAX_KEY_LEN + u8::MAX as usize;

/// A stored value at most this fraction of its pinned backing-region
/// bytes is compacted into an exact-size buffer on SET: a tiny value
/// held as a zero-copy sub-view would otherwise pin whole (possibly
/// pooled) receive regions for the life of the key, starving the
/// buffer pool. Larger values stay zero-copy. The same factor gates
/// compaction of a fragmented per-connection backlog.
pub const SET_COMPACT_FACTOR: usize = 4;

/// Backlog segment count past which fragmentation is checked: a peer
/// trickling a large request a few bytes per packet would otherwise
/// pin one receive region per packet until the request completes.
/// Well-formed pipelined traffic (MSS-sized segments) stays far below
/// this.
pub const PENDING_COMPACT_SEGS: usize = 64;

/// Counter-registry name of the framing errors a machine has seen
/// (either direction); each one aborted its connection.
pub const BAD_FRAME_COUNTER: &str = "memcached.drop.bad_frame";

/// Binary protocol header (24 bytes).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Header {
    /// Request or response magic.
    pub magic: u8,
    /// Operation.
    pub opcode: u8,
    /// Key length.
    pub key_len: u16,
    /// Extras length.
    pub extras_len: u8,
    /// Status (responses) / vbucket (requests).
    pub status: u16,
    /// Total body length (extras + key + value).
    pub total_body: u32,
    /// Client-chosen correlation value, echoed in responses.
    pub opaque: u32,
}

impl Header {
    /// Header size on the wire.
    pub const SIZE: usize = 24;

    /// Extras bytes of a SET request (flags + expiry).
    pub const SET_EXTRAS: usize = 8;
    /// Extras bytes of a GET hit (flags).
    pub const HIT_EXTRAS: usize = 4;

    /// The header of a GET request for a `key_len`-byte key.
    pub fn get(key_len: usize, opaque: u32) -> Header {
        Header {
            magic: MAGIC_REQUEST,
            opcode: OP_GET,
            key_len: key_len as u16,
            extras_len: 0,
            status: 0,
            total_body: key_len as u32,
            opaque,
        }
    }

    /// The header of a SET request.
    pub fn set(key_len: usize, value_len: usize, opaque: u32) -> Header {
        Header {
            magic: MAGIC_REQUEST,
            opcode: OP_SET,
            key_len: key_len as u16,
            extras_len: Header::SET_EXTRAS as u8,
            status: 0,
            total_body: (Header::SET_EXTRAS + key_len + value_len) as u32,
            opaque,
        }
    }

    /// The header of a key-less reply carrying `body_len` bytes, the
    /// first `extras_len` of them extras.
    fn reply(opcode: u8, status: u16, extras_len: usize, body_len: usize, opaque: u32) -> Header {
        Header {
            magic: MAGIC_RESPONSE,
            opcode,
            key_len: 0,
            extras_len: extras_len as u8,
            status,
            total_body: body_len as u32,
            opaque,
        }
    }

    /// Serializes into a caller-provided 24-byte destination (the
    /// allocation-free form used on the response path).
    ///
    /// # Panics
    ///
    /// Panics if `out` is shorter than [`Header::SIZE`].
    pub fn encode_into(&self, out: &mut [u8]) {
        out[0] = self.magic;
        out[1] = self.opcode;
        out[2..4].copy_from_slice(&self.key_len.to_be_bytes());
        out[4] = self.extras_len;
        out[5] = 0; // data type
        out[6..8].copy_from_slice(&self.status.to_be_bytes());
        out[8..12].copy_from_slice(&self.total_body.to_be_bytes());
        out[12..16].copy_from_slice(&self.opaque.to_be_bytes());
        out[16..24].fill(0); // cas left zero
    }

    /// Serializes into 24 bytes.
    pub fn encode(&self) -> [u8; Header::SIZE] {
        let mut b = [0u8; Header::SIZE];
        self.encode_into(&mut b);
        b
    }

    /// Parses from 24 bytes.
    pub fn decode(b: &[u8; Header::SIZE]) -> Header {
        Header {
            magic: b[0],
            opcode: b[1],
            key_len: u16::from_be_bytes([b[2], b[3]]),
            extras_len: b[4],
            status: u16::from_be_bytes([b[6], b[7]]),
            total_body: u32::from_be_bytes([b[8], b[9], b[10], b[11]]),
            opaque: u32::from_be_bytes([b[12], b[13], b[14], b[15]]),
        }
    }

    /// Bytes of the body in front of the value (extras, then key).
    pub fn value_offset(&self) -> usize {
        self.extras_len as usize + self.key_len as usize
    }

    /// Reads the header at the front of `stream`, if 24 bytes are
    /// there.
    fn peek(stream: &Chain<IoBuf>) -> Option<Header> {
        let mut b = [0u8; Header::SIZE];
        stream.cursor().read_exact(&mut b)?;
        Some(Header::decode(&b))
    }
}

/// Builds a GET request frame in one pre-sized allocation.
pub fn encode_get(key: &[u8], opaque: u32) -> Vec<u8> {
    let mut out = vec![0u8; Header::SIZE + key.len()];
    Header::get(key.len(), opaque).encode_into(&mut out[..Header::SIZE]);
    out[Header::SIZE..].copy_from_slice(key);
    out
}

/// Builds a SET request frame (8 extras bytes: flags + expiry, zeroed)
/// in one pre-sized allocation.
pub fn encode_set(key: &[u8], value: &[u8], opaque: u32) -> Vec<u8> {
    let key_at = Header::SIZE + Header::SET_EXTRAS;
    let mut out = vec![0u8; key_at + key.len() + value.len()];
    Header::set(key.len(), value.len(), opaque).encode_into(&mut out[..Header::SIZE]);
    out[key_at..key_at + key.len()].copy_from_slice(key);
    out[key_at + key.len()..].copy_from_slice(value);
    out
}

/// A byte stream that stopped being memcached frames: wrong magic for
/// its direction, a body over [`MAX_BODY_LEN`], or extras + key longer
/// than the body. Counted ([`BAD_FRAME_COUNTER`]) where it is
/// detected; the connection's owner aborts the connection — there is
/// no way to find the next frame boundary in such a stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BadFrame;

impl BadFrame {
    /// Counts one framing error on the calling machine.
    pub(super) fn counted() -> BadFrame {
        qos::bump(qos::register(BAD_FRAME_COUNTER));
        BadFrame
    }
}

/// Appends `data` to a connection's unframed backlog and drains every
/// complete frame in it, handing `(header, body)` to `each` (the body
/// carved zero-copy out of the receive chain). `magic` is the one this
/// direction carries: [`MAGIC_REQUEST`] on a server connection,
/// [`MAGIC_RESPONSE`] on a client's. The one framing state machine
/// behind the plain server, the sharded server and the client.
///
/// A header that fails validation is a [`BadFrame`]: the backlog is
/// dropped, the error counted, and nothing further is framed.
pub fn drain_frames(
    pending: &mut Chain<IoBuf>,
    data: Chain<IoBuf>,
    magic: u8,
    mut each: impl FnMut(&Header, Chain<IoBuf>),
) -> Result<(), BadFrame> {
    pending.append_chain(data);
    pending.compact_if_amplified(PENDING_COMPACT_SEGS, SET_COMPACT_FACTOR);
    while let Some(h) = Header::peek(pending) {
        let body_len = h.total_body as usize;
        if h.magic != magic || body_len > MAX_BODY_LEN || h.value_offset() > body_len {
            *pending = Chain::new();
            return Err(BadFrame::counted());
        }
        if pending.len() < Header::SIZE + body_len {
            break;
        }
        pending.advance(Header::SIZE);
        each(&h, pending.split_to(body_len));
    }
    Ok(())
}

/// Follows frame boundaries through a stream handed over in arbitrary
/// pieces — how [`Client`](super::Client) learns the opaque of every
/// request it puts on the wire. Workloads send frames frozen long
/// before (several to a buffer, or one cut to the window), so the
/// bytes are the only record of what is in a send; this reads the 24
/// header bytes per frame and skips the rest. It validates nothing —
/// [`drain_frames`] stays the one loop that decides what a frame is.
/// `Copy`, so a refused send can be rolled back.
#[derive(Clone, Copy, Default)]
pub struct FrameScan {
    /// Body bytes of the last frame still to come.
    body_left: usize,
    /// A header cut by the end of a piece.
    partial: [u8; Header::SIZE],
    have: usize,
}

impl FrameScan {
    /// Advances over `piece`, calling `each` with every header it
    /// completes.
    pub fn feed(&mut self, piece: &Chain<IoBuf>, mut each: impl FnMut(&Header)) {
        let mut cur = piece.cursor();
        loop {
            let skip = self.body_left.min(cur.remaining());
            cur.skip(skip).expect("bounded by remaining");
            self.body_left -= skip;
            let take = (Header::SIZE - self.have).min(cur.remaining());
            if take == 0 {
                return;
            }
            cur.read_exact(&mut self.partial[self.have..self.have + take])
                .expect("bounded by remaining");
            self.have += take;
            if self.have == Header::SIZE {
                let h = Header::decode(&self.partial);
                (self.have, self.body_left) = (0, h.total_body as usize);
                each(&h);
            }
        }
    }
}

/// Appends a reply header, plus `extras_len` zeroed extras bytes (the
/// GET-hit flags field), to `out` as one pooled segment.
fn push_header(out: &mut Chain<IoBuf>, h: &Header) {
    let extras = h.extras_len as usize;
    let mut rbuf = MutIoBuf::with_capacity(Header::SIZE + extras);
    h.encode_into(rbuf.append(Header::SIZE));
    if extras > 0 {
        rbuf.append(extras).fill(0);
    }
    out.push_back(rbuf.freeze());
}

/// Appends a body-less reply with `status` (the shape every non-hit
/// reply shares).
pub fn push_status(out: &mut Chain<IoBuf>, opcode: u8, status: u16, opaque: u32) {
    push_header(out, &Header::reply(opcode, status, 0, 0, opaque));
}

/// Appends a GET hit: a pooled header segment (with its 4 flags
/// bytes), then `value`'s descriptors — value bytes never move.
pub fn push_hit(out: &mut Chain<IoBuf>, opaque: u32, value: Chain<IoBuf>) {
    let body_len = Header::HIT_EXTRAS + value.len();
    push_header(
        out,
        &Header::reply(OP_GET, STATUS_OK, Header::HIT_EXTRAS, body_len, opaque),
    );
    out.append_chain(value);
}

/// Scratch a request's key is read into for hashing — parsing, not
/// payload movement. Protocol-sized keys land on the stack; oversized
/// ones (a protocol violation that is still served) fall back to the
/// heap.
pub struct KeyBuf {
    stack: [u8; MAX_KEY_LEN],
    heap: Vec<u8>,
}

impl Default for KeyBuf {
    /// Empty scratch (allocates nothing).
    fn default() -> KeyBuf {
        KeyBuf {
            stack: [0u8; MAX_KEY_LEN],
            heap: Vec::new(),
        }
    }
}

impl KeyBuf {
    /// The key of the framed request `(h, body)`.
    pub fn read(&mut self, h: &Header, body: &Chain<IoBuf>) -> &[u8] {
        let key_len = h.key_len as usize;
        let mut cur = body.cursor();
        cur.skip(h.extras_len as usize).expect("framed");
        if key_len <= MAX_KEY_LEN {
            cur.read_exact(&mut self.stack[..key_len]).expect("framed");
            &self.stack[..key_len]
        } else {
            self.heap = cur.read_vec(key_len).expect("framed");
            &self.heap
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = Header {
            magic: MAGIC_REQUEST,
            opcode: OP_SET,
            key_len: 42,
            extras_len: 8,
            status: 0,
            total_body: 1000,
            opaque: 0xdeadbeef,
        };
        assert_eq!(Header::decode(&h.encode()), h);
    }

    #[test]
    fn encode_helpers_build_exact_frames() {
        let get = encode_get(b"key", 7);
        assert_eq!(get.len(), Header::SIZE + 3);
        let mut hdr = [0u8; Header::SIZE];
        hdr.copy_from_slice(&get[..Header::SIZE]);
        let h = Header::decode(&hdr);
        assert_eq!(h.opcode, OP_GET);
        assert_eq!(h.key_len, 3);
        assert_eq!(h.total_body, 3);
        assert_eq!(&get[Header::SIZE..], b"key");

        let set = encode_set(b"key", b"value", 9);
        assert_eq!(set.len(), Header::SIZE + 8 + 3 + 5);
        hdr.copy_from_slice(&set[..Header::SIZE]);
        let h = Header::decode(&hdr);
        assert_eq!(h.opcode, OP_SET);
        assert_eq!(h.extras_len, 8);
        assert_eq!(h.total_body, 16);
        assert_eq!(&set[Header::SIZE + 8..Header::SIZE + 11], b"key");
        assert_eq!(&set[Header::SIZE + 11..], b"value");
    }
}
