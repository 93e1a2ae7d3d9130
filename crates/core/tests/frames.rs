//! [`Chain::next_frame`] over hostile bytes: a stream of one-byte
//! length headers (a length over [`MAX_BODY`] is a bad stream) framed
//! whole, and cut into up to five pieces, each piece arriving as one
//! segment or trickled a byte per segment (which pushes the backlog
//! past the anti-amplification gate's threshold). No cut panics or
//! changes what is framed, and an error leaves the backlog empty.

use ebbrt_core::iobuf::{Chain, FramePeek, IoBuf, MutIoBuf};
use proptest::prelude::*;

/// The largest body a header may declare.
const MAX_BODY: usize = 200;

/// The 1-byte body length at the front; `Err` past [`MAX_BODY`].
fn peek(c: &Chain<IoBuf>) -> FramePeek<usize, usize> {
    match c.cursor().read_u8().map(usize::from) {
        None => Ok(None),
        Some(len) if len > MAX_BODY => Err(len),
        Some(len) => Ok(Some((len, 1, len))),
    }
}

/// `bytes` cut at `raw_cuts` (each taken modulo the length): one to
/// five pieces, some possibly empty. A trickled piece is one segment
/// per byte, each a view of a receive buffer of its own.
fn pieces(bytes: &[u8], raw_cuts: &[u32], trickle: bool) -> Vec<Chain<IoBuf>> {
    let mut cuts: Vec<usize> = raw_cuts
        .iter()
        .map(|&c| c as usize % (bytes.len() + 1))
        .collect();
    cuts.sort_unstable();
    let mut from = 0;
    let mut out = Vec::new();
    for to in cuts.into_iter().chain([bytes.len()]) {
        let piece = &bytes[from..to];
        let segs: Vec<&[u8]> = match trickle {
            true => piece.chunks(1).collect(),
            false => vec![piece],
        };
        let mut chain = Chain::new();
        for seg in segs.into_iter().filter(|s| !s.is_empty()) {
            let mut b = MutIoBuf::with_capacity(seg.len());
            b.append_slice(seg);
            chain.push_back(b.freeze());
        }
        out.push(chain);
        from = to;
    }
    out
}

/// The frames taken from `pieces` as `(length, body)`, then the error
/// that ended the stream, if one did, and the bytes left unframed.
type Framed = (Vec<(usize, Vec<u8>)>, Option<usize>, usize);

fn frame(pieces: Vec<Chain<IoBuf>>) -> Framed {
    let mut backlog = Chain::new();
    let mut frames = Vec::new();
    for piece in pieces {
        backlog.append_chain(piece);
        loop {
            match backlog.next_frame(peek) {
                Ok(Some((len, body))) => frames.push((len, body.copy_to_vec())),
                Ok(None) => break,
                Err(bad) => {
                    assert_eq!(backlog.segment_count(), 0, "an error empties the backlog");
                    return (frames, Some(bad), 0);
                }
            }
        }
    }
    (frames, None, backlog.len())
}

proptest! {
    /// Well-formed frames, then hostile bytes: every cut frames alike.
    #[test]
    fn hostile_bytes_frame_the_same_for_every_cut(
        bodies in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..40), 0..6),
        tail in prop::collection::vec(any::<u8>(), 0..300),
        raw_cuts in prop::collection::vec(any::<u32>(), 0..5),
        trickle in any::<bool>(),
    ) {
        let mut stream = Vec::new();
        for body in &bodies {
            stream.push(body.len() as u8);
            stream.extend_from_slice(body);
        }
        stream.extend_from_slice(&tail);
        let whole = frame(pieces(&stream, &[], false));
        let cut = frame(pieces(&stream, &raw_cuts, trickle));
        prop_assert!(whole.0.len() >= bodies.len(), "the well-formed frames are framed");
        for ((len, body), want) in whole.0.iter().zip(&bodies) {
            prop_assert_eq!((*len, body), (want.len(), want));
        }
        prop_assert_eq!(cut, whole);
    }
}
