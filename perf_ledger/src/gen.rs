//! Seeded input generation: the PRNG, the key set, and the value
//! function. A value is a pure function of (seed, key, write version),
//! so the client can check every GET against the last acknowledged
//! write without remembering any bytes.

/// splitmix64 (Steele, Lea, Flood 2014): tiny, seedable, and good
/// enough for workload shaping. `rand` is not a dependency here.
#[derive(Clone)]
pub struct SplitMix64(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential with the given mean (Poisson inter-arrival gap).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -(1.0 - self.next_f64()).ln() * mean
    }
}

/// How long a key's value is at a given write version.
#[derive(Clone, Copy)]
pub enum ValueLen {
    /// Every value has this length.
    Fixed(usize),
    /// Each key has its own fixed length in `lo..=hi`, drawn from the
    /// seed: equal-shaped requests would make virtual time identical
    /// for every seed.
    PerKey(usize, usize),
    /// Facebook ETC: log-uniform over 1 B..1 KiB, redrawn per write.
    Etc,
}

/// How long keys are.
#[derive(Clone, Copy)]
pub enum KeyLen {
    Fixed(usize),
    /// Uniform in `lo..=hi` (ETC: 20..=70).
    Range(usize, usize),
}

pub const ETC_MAX_VALUE: usize = 1024;

/// The value function of one run.
#[derive(Clone, Copy)]
pub struct Values {
    pub seed: u64,
    pub len: ValueLen,
}

impl Values {
    fn base(&self, key: u32, ver: u32) -> u64 {
        mix64(self.seed ^ ((key as u64) << 32 | ver as u64).wrapping_mul(GOLDEN))
    }

    pub fn len_of(&self, key: u32, ver: u32) -> usize {
        match self.len {
            ValueLen::Fixed(n) => n,
            ValueLen::PerKey(lo, hi) => {
                lo + (mix64(self.seed ^ 0x5EED ^ key as u64) % (hi - lo + 1) as u64) as usize
            }
            ValueLen::Etc => {
                let u = (self.base(key, ver) >> 11) as f64 / (1u64 << 53) as f64;
                (2.0f64.powf(u * 10.0) as usize).clamp(1, ETC_MAX_VALUE)
            }
        }
    }

    /// Writes bytes `offset..offset + out.len()` of the value of
    /// (key, ver) into `out`.
    pub fn fill_at(&self, key: u32, ver: u32, offset: usize, out: &mut [u8]) {
        let base = self.base(key, ver) ^ 0xF111;
        // Up to the next word boundary, then whole words, then the tail.
        let lead = ((8 - offset % 8) % 8).min(out.len());
        let (head, rest) = out.split_at_mut(lead);
        head.copy_from_slice(&word(base, (offset / 8) as u64).to_le_bytes()[offset % 8..][..lead]);
        let mut j = ((offset + lead) / 8) as u64;
        let mut chunks = rest.chunks_exact_mut(8);
        for c in &mut chunks {
            c.copy_from_slice(&word(base, j).to_le_bytes());
            j += 1;
        }
        let tail = chunks.into_remainder();
        tail.copy_from_slice(&word(base, j).to_le_bytes()[..tail.len()]);
    }

    /// Whether `got` is exactly the value of (key, ver).
    pub fn check(&self, key: u32, ver: u32, got: &[u8]) -> bool {
        if got.len() != self.len_of(key, ver) {
            return false;
        }
        let base = self.base(key, ver) ^ 0xF111;
        let mut chunks = got.chunks_exact(8);
        let mut j = 0u64;
        for c in &mut chunks {
            if c != word(base, j).to_le_bytes() {
                return false;
            }
            j += 1;
        }
        let tail = chunks.remainder();
        tail == &word(base, j).to_le_bytes()[..tail.len()]
    }
}

fn word(base: u64, j: u64) -> u64 {
    base.wrapping_add(j.wrapping_mul(GOLDEN))
}

/// The key set of a run: `n` distinct keys of the requested lengths.
pub fn make_keys(seed: u64, n: usize, len: KeyLen) -> Vec<Vec<u8>> {
    let mut rng = SplitMix64::new(seed ^ 0x4B45_5953);
    (0..n)
        .map(|i| {
            let l = match len {
                KeyLen::Fixed(l) => l,
                KeyLen::Range(lo, hi) => lo + rng.below((hi - lo + 1) as u64) as usize,
            };
            // A unique printable prefix, then seed-dependent filler so
            // the hash placement of keys differs between seeds.
            let mut k = format!("k{i:07}-").into_bytes();
            let mut fill = rng.next_u64();
            while k.len() < l {
                k.push(b'a' + (fill % 26) as u8);
                fill = fill / 26 + (k.len() as u64).wrapping_mul(GOLDEN);
            }
            k.truncate(l.max(9));
            k
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_differ_by_version() {
        for len in [ValueLen::Fixed(64), ValueLen::PerKey(48, 80), ValueLen::Etc] {
            let v = Values { seed: 7, len };
            for key in 0..50u32 {
                for ver in 0..3u32 {
                    let mut buf = vec![0u8; v.len_of(key, ver)];
                    // Written in two pieces, as a multi-segment frame is.
                    let cut = buf.len() / 3;
                    v.fill_at(key, ver, 0, &mut buf[..cut]);
                    v.fill_at(key, ver, cut, &mut buf[cut..]);
                    assert!(v.check(key, ver, &buf));
                    if buf.len() >= 8 {
                        assert!(!v.check(key, ver + 1, &buf));
                        buf[0] ^= 1;
                        assert!(!v.check(key, ver, &buf));
                    }
                }
            }
        }
    }

    #[test]
    fn keys_are_distinct_and_sized() {
        let keys = make_keys(3, 2000, KeyLen::Range(20, 70));
        let set: std::collections::BTreeSet<_> = keys.iter().collect();
        assert_eq!(set.len(), keys.len());
        assert!(keys.iter().all(|k| (20..=70).contains(&k.len())));
        assert_ne!(keys, make_keys(4, 2000, KeyLen::Range(20, 70)));
    }
}
