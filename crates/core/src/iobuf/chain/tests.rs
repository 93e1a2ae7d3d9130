//! [`Chain::next_frame`]'s contract, on frames of a 2-byte length and
//! a body: a frame comes out whole however it was cut, a backlog is
//! gated only once framing has taken what it can, and an error leaves
//! nothing behind. Sized for Miri.

use super::super::pool::SMALL_CAPACITY;
use super::super::{stats, MutIoBuf};
use super::*;

/// A frame's declared body length past which `peek` calls the stream
/// bad.
const MAX_BODY: usize = 1000;

#[derive(Debug, PartialEq)]
struct Bad;

/// Reads the 2-byte big-endian body length at the front.
fn peek(c: &Chain<IoBuf>) -> FramePeek<usize, Bad> {
    let Some(len) = c.cursor().read_u16_be() else {
        return Ok(None);
    };
    match len as usize {
        len if len > MAX_BODY => Err(Bad),
        len => Ok(Some((len, 2, len))),
    }
}

/// `body` behind its length.
fn frame(body: &[u8]) -> Vec<u8> {
    let mut out = (body.len() as u16).to_be_bytes().to_vec();
    out.extend_from_slice(body);
    out
}

/// `bytes` as a view of a region of its own: a 2 KiB receive buffer.
fn received(bytes: &[u8]) -> IoBuf {
    let mut b = MutIoBuf::with_capacity(bytes.len());
    b.append_slice(bytes);
    let b = b.freeze();
    assert_eq!(b.region_len(), SMALL_CAPACITY);
    b
}

/// Every frame `next_frame` takes off `backlog`, as `(length, body)`.
fn drain(backlog: &mut Chain<IoBuf>) -> Vec<(usize, Vec<u8>)> {
    let mut out = Vec::new();
    while let Some((len, body)) = backlog.next_frame(peek).expect("well-formed") {
        out.push((len, body.copy_to_vec()));
    }
    out
}

#[test]
fn a_frame_trickled_a_byte_per_segment_comes_out_whole_and_pins_at_most_the_factor() {
    let body: Vec<u8> = (0..150u8).collect();
    let mut backlog = Chain::new();
    let mut got = Vec::new();
    for &b in &frame(&body) {
        backlog.push_back(received(&[b]));
        got.extend(drain(&mut backlog));
        assert!(
            backlog.segment_count() < 64
                || backlog.pinned_bytes() <= AMPLIFICATION_FACTOR * backlog.len(),
            "{} bytes in {} segments pin {}",
            backlog.len(),
            backlog.segment_count(),
            backlog.pinned_bytes()
        );
    }
    assert_eq!(got, [(body.len(), body)]);
    assert!(backlog.is_empty());
}

#[test]
fn complete_frames_in_many_segments_frame_without_a_copy() {
    let frames: Vec<Vec<u8>> = (0..80u8).map(|i| vec![i; 1 + i as usize % 7]).collect();
    let mut backlog = Chain::new();
    for body in &frames {
        backlog.push_back(received(&frame(body)));
    }
    assert_eq!(backlog.segment_count(), 80);
    let before = stats::snapshot().bytes_copied;
    let mut got = Vec::new();
    while let Some((_, body)) = backlog.next_frame(peek).expect("well-formed") {
        got.push(body);
    }
    assert_eq!(
        stats::snapshot().bytes_copied,
        before,
        "bytes copied while framing"
    );
    let got: Vec<Vec<u8>> = got.iter().map(Chain::copy_to_vec).collect();
    assert_eq!(got, frames);
}

#[test]
fn a_bad_header_leaves_the_backlog_empty() {
    let mut backlog = Chain::new();
    backlog.push_back(received(&frame(b"fine")));
    for _ in 0..70 {
        backlog.push_back(received(&[0xff]));
    }
    assert_eq!(
        drain_until_bad(&mut backlog),
        (vec![(4, b"fine".to_vec())], Bad)
    );
    assert!(backlog.is_empty());
    assert_eq!(backlog.segment_count(), 0);
}

/// The frames before the first error, and the error.
fn drain_until_bad(backlog: &mut Chain<IoBuf>) -> (Vec<(usize, Vec<u8>)>, Bad) {
    let mut out = Vec::new();
    loop {
        match backlog.next_frame(peek) {
            Ok(Some((len, body))) => out.push((len, body.copy_to_vec())),
            Ok(None) => panic!("the stream ended without an error"),
            Err(bad) => return (out, bad),
        }
    }
}
