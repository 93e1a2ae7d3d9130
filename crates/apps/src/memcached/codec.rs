//! The memcached binary protocol's wire format, in one place: the
//! 24-byte [`Header`], the request encoders, the one framing loop both
//! directions of a connection run ([`drain_frames`] — the server frames
//! requests with it, [`Client`](super::Client) frames replies), the
//! reply builders, and key extraction.
//!
//! Nothing here copies a payload byte: frames are carved out of the
//! receive chain as descriptor sub-views, and replies chain a pooled
//! header segment in front of whatever descriptors the caller hands in.

use ebbrt_core::iobuf::{Chain, FramePeek, IoBuf, MutIoBuf};
use ebbrt_core::qos::Counter;

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

    /// Reads the header at the front of `stream` once 24 bytes are
    /// there, for [`Chain::next_frame`]: a [`BadFrame`] unless it
    /// carries `magic`, claims at most [`MAX_BODY_LEN`] body bytes and
    /// fits its extras and key in them.
    fn peek(stream: &Chain<IoBuf>, magic: u8) -> FramePeek<Header, BadFrame> {
        let mut b = [0u8; Header::SIZE];
        if stream.cursor().read_exact(&mut b).is_none() {
            return Ok(None);
        }
        let h = Header::decode(&b);
        let body_len = h.total_body as usize;
        if h.magic != magic || body_len > MAX_BODY_LEN || h.value_offset() > body_len {
            return Err(BadFrame::counted());
        }
        Ok(Some((h, Header::SIZE, body_len)))
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
        Counter::on_current(BAD_FRAME_COUNTER).bump();
        BadFrame
    }
}

/// Appends `data` to a connection's unframed backlog and drains every
/// complete frame in it ([`Chain::next_frame`]), handing `(header,
/// body)` to `each` (the body carved zero-copy out of the receive
/// chain). `magic` is the one this direction carries: [`MAGIC_REQUEST`]
/// on a server connection, [`MAGIC_RESPONSE`] on a client's. The one
/// framing loop behind the plain server, the sharded server and the
/// client.
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
    while let Some((h, body)) = pending.next_frame(|p| Header::peek(p, magic))? {
        each(&h, body);
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
    use std::sync::Arc;

    use ebbrt_core::clock::ManualClock;
    use ebbrt_core::cpu::CoreId;
    use ebbrt_core::runtime::{self, Runtime};
    use proptest::prelude::*;

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

    /// `bytes` cut at `raw_cuts` (each taken modulo the length): one to
    /// five pieces, some possibly empty.
    fn pieces(bytes: &[u8], raw_cuts: &[u32]) -> Vec<Chain<IoBuf>> {
        let mut cuts: Vec<usize> = raw_cuts
            .iter()
            .map(|&c| c as usize % (bytes.len() + 1))
            .collect();
        cuts.sort_unstable();
        let mut from = 0;
        let mut out = Vec::new();
        for to in cuts.into_iter().chain([bytes.len()]) {
            out.push(match &bytes[from..to] {
                [] => Chain::new(),
                piece => Chain::single(IoBuf::copy_from(piece)),
            });
            from = to;
        }
        out
    }

    /// What a server connection's framing makes of `pieces`: the result
    /// of the last drain (none follows an error), each delivered frame
    /// with its body bytes and whether the body was `total_body` long,
    /// and the bytes left pending.
    type Framed = (Result<(), BadFrame>, Vec<(Header, Vec<u8>, bool)>, usize);

    fn frame(pieces: Vec<Chain<IoBuf>>) -> Framed {
        let mut pending = Chain::new();
        let mut frames = Vec::new();
        let mut keys = KeyBuf::default();
        let mut result = Ok(());
        for piece in pieces {
            result = drain_frames(&mut pending, piece, MAGIC_REQUEST, |h, body| {
                keys.read(h, &body);
                let whole = body.len() == h.total_body as usize;
                frames.push((*h, body.copy_to_vec(), whole));
            });
            if result.is_err() {
                break;
            }
        }
        (result, frames, pending.len())
    }

    /// Runs `f` on a private one-core runtime: a framing error bumps a
    /// registry counter on the current machine.
    fn in_runtime<R>(f: impl FnOnce() -> R) -> R {
        let rt = Runtime::new(1, Arc::new(ManualClock::new()));
        let _entered = runtime::enter(rt, CoreId(0));
        f()
    }

    proptest! {
        /// Hostile bytes, half of them behind a well-formed header of
        /// either magic, framed whole and cut into up to five pieces:
        /// no cut panics or changes what is framed, and every delivered
        /// body is exactly `total_body` long with a readable key.
        #[test]
        fn hostile_bytes_frame_the_same_for_every_cut(
            bytes in prop::collection::vec(any::<u8>(), 0..400),
            header in (any::<bool>(), any::<bool>(), 0usize..400, 0u8..=8, 0u16..=300),
            raw_cuts in prop::collection::vec(any::<u32>(), 0..5),
        ) {
            let (framed, request, body_len, extras, key_len) = header;
            let mut stream = Vec::new();
            if framed {
                let body_len = body_len.min(bytes.len());
                let extras = extras.min(body_len as u8);
                let key_len = key_len.min((body_len - extras as usize) as u16);
                let h = Header {
                    magic: if request { MAGIC_REQUEST } else { MAGIC_RESPONSE },
                    opcode: OP_SET,
                    key_len,
                    extras_len: extras,
                    status: 0,
                    total_body: body_len as u32,
                    opaque: 7,
                };
                stream.extend_from_slice(&h.encode());
            }
            stream.extend_from_slice(&bytes);
            let (whole, cut) = in_runtime(|| {
                (frame(pieces(&stream, &[])), frame(pieces(&stream, &raw_cuts)))
            });
            prop_assert!(whole.1.iter().all(|(_, _, exact)| *exact), "a body of the wrong length");
            prop_assert_eq!(cut, whole);
        }

        /// On a stream of encoded GETs and SETs, the scan that follows a
        /// client's sends reports exactly the headers framing delivers.
        #[test]
        fn frame_scan_sees_the_frames_drain_delivers(
            ops in prop::collection::vec((any::<bool>(), 0usize..20, 0usize..100), 1..8),
            raw_cuts in prop::collection::vec(any::<u32>(), 0..5),
        ) {
            let mut stream = Vec::new();
            for (i, &(set, key_len, value_len)) in ops.iter().enumerate() {
                let key = vec![b'k'; key_len];
                stream.extend(match set {
                    true => encode_set(&key, &vec![b'v'; value_len], i as u32),
                    false => encode_get(&key, i as u32),
                });
            }
            let mut scan = FrameScan::default();
            let mut scanned = Vec::new();
            for piece in pieces(&stream, &raw_cuts) {
                scan.feed(&piece, |h| scanned.push(*h));
            }
            let (result, frames, left) = in_runtime(|| frame(pieces(&stream, &raw_cuts)));
            prop_assert_eq!(result, Ok(()));
            prop_assert_eq!(left, 0);
            let framed: Vec<Header> = frames.iter().map(|(h, _, _)| *h).collect();
            prop_assert_eq!(framed.len(), ops.len());
            prop_assert_eq!(scanned, framed);
        }
    }
}
