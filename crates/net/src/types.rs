//! Address types and the Internet checksum.

use std::fmt;

pub use crate::nic::Mac;

/// The Ethernet broadcast address.
pub const MAC_BROADCAST: Mac = [0xff; 6];

/// An IPv4 address.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Ipv4Addr(pub [u8; 4]);

impl Ipv4Addr {
    /// The unspecified address `0.0.0.0`.
    pub const UNSPECIFIED: Ipv4Addr = Ipv4Addr([0; 4]);
    /// The limited broadcast address `255.255.255.255`.
    pub const BROADCAST: Ipv4Addr = Ipv4Addr([255; 4]);

    /// Constructs from octets.
    pub const fn new(a: u8, b: u8, c: u8, d: u8) -> Self {
        Ipv4Addr([a, b, c, d])
    }

    /// As a big-endian u32.
    pub fn to_u32(self) -> u32 {
        u32::from_be_bytes(self.0)
    }

    /// From a big-endian u32.
    pub fn from_u32(v: u32) -> Self {
        Ipv4Addr(v.to_be_bytes())
    }

    /// Whether this is the unspecified address.
    pub fn is_unspecified(self) -> bool {
        self == Self::UNSPECIFIED
    }

    /// Whether this is the limited broadcast address.
    pub fn is_broadcast(self) -> bool {
        self == Self::BROADCAST
    }

    /// Whether `self` and `other` share a subnet under `mask`.
    pub fn same_subnet(self, other: Ipv4Addr, mask: Ipv4Addr) -> bool {
        (self.to_u32() & mask.to_u32()) == (other.to_u32() & mask.to_u32())
    }
}

impl fmt::Display for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}.{}.{}", self.0[0], self.0[1], self.0[2], self.0[3])
    }
}

impl fmt::Debug for Ipv4Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// Incremental Internet checksum (RFC 1071) accumulator.
///
/// Works on 64-bit words in the machine's own byte order and converts
/// once, in [`finish`](Self::finish): the one's-complement sum does not
/// depend on byte order (RFC 1071 §2(B) — swapping the bytes of every
/// 16-bit word swaps the bytes of the sum), and a 64-bit
/// one's-complement sum folds to the 16-bit one because 2⁶⁴ − 1 is a
/// multiple of 2¹⁶ − 1.
#[derive(Default)]
pub struct Checksum {
    /// One's-complement sum so far, over native-order words.
    sum: u64,
    /// An odd number of bytes has been fed: the next slice starts in
    /// the second byte of a 16-bit word.
    odd: bool,
}

/// One's-complement (end-around carry) addition.
#[inline]
fn add1c(a: u64, b: u64) -> u64 {
    let (s, carry) = a.overflowing_add(b);
    s + carry as u64
}

/// Folds a 64-bit one's-complement sum to 16 bits.
#[inline]
fn fold16(mut s: u64) -> u16 {
    while s > 0xffff {
        s = (s & 0xffff) + (s >> 16);
    }
    s as u16
}

/// One's-complement sum of `data` as native-order words, the slice
/// taken to start on a word boundary and zero-padded at the end.
#[inline]
fn sum_words(data: &[u8]) -> u64 {
    let mut words = data.chunks_exact(8);
    let mut sum = 0;
    for w in &mut words {
        sum = add1c(sum, u64::from_ne_bytes(w.try_into().expect("8-byte chunk")));
    }
    let rest = words.remainder();
    let mut last = [0u8; 8];
    last[..rest.len()].copy_from_slice(rest);
    add1c(sum, u64::from_ne_bytes(last))
}

impl Checksum {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a partial sum computed as if from a word boundary.
    #[inline]
    fn add_sum(&mut self, s: u64) {
        // In the second byte of a word every byte of the slice weighs
        // what its neighbour would have: the sum with its bytes swapped.
        let s = if self.odd {
            fold16(s).swap_bytes() as u64
        } else {
            s
        };
        self.sum = add1c(self.sum, s);
    }

    /// Feeds bytes into the sum.
    #[inline]
    pub fn add(&mut self, data: &[u8]) {
        self.add_sum(sum_words(data));
        self.odd ^= data.len() % 2 == 1;
    }

    /// Feeds a big-endian u16.
    #[inline]
    pub fn add_u16(&mut self, v: u16) {
        self.add_sum(u16::from_ne_bytes(v.to_be_bytes()) as u64);
    }

    /// Feeds a big-endian u32.
    #[inline]
    pub fn add_u32(&mut self, v: u32) {
        self.add_sum(u32::from_ne_bytes(v.to_be_bytes()) as u64);
    }

    /// Finalizes: folds carries, converts to network order and
    /// complements.
    #[inline]
    pub fn finish(self) -> u16 {
        !u16::from_be(fold16(self.sum))
    }
}

/// One-shot checksum of a byte slice.
pub fn checksum(data: &[u8]) -> u16 {
    let mut c = Checksum::new();
    c.add(data);
    c.finish()
}

/// The byte-pair accumulator [`Checksum`] replaced, kept as the
/// reference the word-wise one is tested against.
#[cfg(test)]
mod reference {
    /// Sums big-endian 16-bit words one at a time.
    #[derive(Default)]
    pub struct Checksum {
        sum: u32,
        /// Carry byte when fed an odd-length slice.
        odd: Option<u8>,
    }

    impl Checksum {
        pub fn add(&mut self, mut data: &[u8]) {
            if let Some(hi) = self.odd.take() {
                if let Some((&lo, rest)) = data.split_first() {
                    self.sum += u32::from_be_bytes([0, 0, hi, lo]);
                    data = rest;
                } else {
                    self.odd = Some(hi);
                    return;
                }
            }
            let mut chunks = data.chunks_exact(2);
            for c in &mut chunks {
                self.sum += u16::from_be_bytes([c[0], c[1]]) as u32;
            }
            if let [last] = chunks.remainder() {
                self.odd = Some(*last);
            }
        }

        pub fn finish(mut self) -> u16 {
            if let Some(hi) = self.odd.take() {
                self.sum += (hi as u32) << 8;
            }
            let mut s = self.sum;
            while s > 0xffff {
                s = (s & 0xffff) + (s >> 16);
            }
            !(s as u16)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Feeds `data` to both accumulators in the pieces `cuts` (sorted
    /// offsets) delimit.
    fn both(data: &[u8], cuts: &[usize]) -> (u16, u16) {
        let (mut fast, mut slow) = (Checksum::new(), reference::Checksum::default());
        let mut from = 0;
        for &to in cuts.iter().chain([&data.len()]) {
            fast.add(&data[from..to]);
            slow.add(&data[from..to]);
            from = to;
        }
        (fast.finish(), slow.finish())
    }

    proptest! {
        /// Any bytes, cut anywhere (odd offsets included) into 1–5
        /// pieces: the word-wise sum equals the byte-pair reference, a
        /// buffer carrying its own checksum verifies, and the same
        /// buffer with one bit flipped does not.
        #[test]
        fn wordwise_checksum_matches_reference(
            len in 0usize..9001,
            seed in any::<u64>(),
            raw_cuts in prop::collection::vec(any::<u32>(), 0..5),
            flip in any::<u32>(),
        ) {
            let mut x = seed | 1;
            let mut data: Vec<u8> = (0..len)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let mut cuts: Vec<usize> = raw_cuts.iter().map(|c| *c as usize % (len + 1)).collect();
            cuts.sort_unstable();
            let (fast, slow) = both(&data, &cuts);
            prop_assert_eq!(fast, slow);
            prop_assert_eq!(fast, checksum(&data), "splitting must not matter");
            if len >= 2 {
                // Store the checksum in the first word, as a header does.
                data[..2].fill(0);
                let ck = checksum(&data);
                data[..2].copy_from_slice(&ck.to_be_bytes());
                prop_assert_eq!(both(&data, &cuts), (0, 0), "embedded checksum verifies");
                let bit = flip as usize % (len * 8);
                data[bit / 8] ^= 1 << (bit % 8);
                let (fast, slow) = both(&data, &cuts);
                prop_assert_eq!(fast, slow);
                prop_assert!(fast != 0, "a flipped bit must fail verification");
            }
        }
    }

    #[test]
    fn add_u16_and_u32_match_their_bytes() {
        for odd_prefix in [&[][..], &[0xabu8][..]] {
            let mut a = Checksum::new();
            a.add(odd_prefix);
            a.add_u16(0x1234);
            a.add_u32(0xdead_beef);
            let mut b = Checksum::new();
            b.add(odd_prefix);
            b.add(&[0x12, 0x34, 0xde, 0xad, 0xbe, 0xef]);
            assert_eq!(a.finish(), b.finish());
        }
    }

    #[test]
    fn ipv4_display_and_u32() {
        let a = Ipv4Addr::new(10, 0, 0, 42);
        assert_eq!(a.to_string(), "10.0.0.42");
        assert_eq!(Ipv4Addr::from_u32(a.to_u32()), a);
    }

    #[test]
    fn subnet_matching() {
        let mask = Ipv4Addr::new(255, 255, 255, 0);
        let a = Ipv4Addr::new(10, 0, 1, 5);
        assert!(a.same_subnet(Ipv4Addr::new(10, 0, 1, 200), mask));
        assert!(!a.same_subnet(Ipv4Addr::new(10, 0, 2, 5), mask));
    }

    #[test]
    fn checksum_rfc1071_example() {
        // Classic example: 0x0001 0xf203 0xf4f5 0xf6f7 → sum 0xddf2,
        // checksum 0x220d.
        let data = [0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7];
        assert_eq!(checksum(&data), 0x220d);
    }

    #[test]
    fn checksum_odd_length_and_split_feeds() {
        let data = [0x12, 0x34, 0x56, 0x78, 0x9a];
        let whole = checksum(&data);
        let mut c = Checksum::new();
        c.add(&data[..1]);
        c.add(&data[1..4]);
        c.add(&data[4..]);
        assert_eq!(c.finish(), whole);
    }

    #[test]
    fn checksum_verification_is_zero() {
        // A buffer with its own checksum embedded sums to zero.
        let mut data = vec![
            0x45u8, 0x00, 0x00, 0x1c, 0xab, 0xcd, 0x00, 0x00, 0x40, 0x06, 0, 0, 10, 0, 0, 1, 10, 0,
            0, 2,
        ];
        let ck = checksum(&data);
        data[10..12].copy_from_slice(&ck.to_be_bytes());
        let mut c = Checksum::new();
        c.add(&data);
        assert_eq!(c.finish(), 0);
    }
}
