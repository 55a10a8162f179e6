//! The workspace's one FNV-1a hash.
//!
//! [`Fingerprint`] keys the measurement memo by *everything that
//! influenced a measurement* (model configuration, render settings), so
//! two configurations collide only if every folded value is
//! bit-identical — precisely the condition under which a measurement is
//! reusable. The same fold digests artifacts ([`crate::artifact::digest`])
//! and, over raw bytes, keys the serve layer's tenant lanes and
//! consistent-hash ring.

/// FNV-1a 64-bit offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a hasher over typed values.
///
/// # Examples
///
/// ```
/// use vardelay_obs::Fingerprint;
///
/// let mut a = Fingerprint::new();
/// a.push_f64(1.5).push_u64(4);
/// let mut b = Fingerprint::new();
/// b.push_f64(1.5).push_u64(4);
/// assert_eq!(a.finish(), b.finish());
/// b.push_f64(0.0);
/// assert_ne!(a.finish(), b.finish());
/// ```
#[derive(Debug, Clone)]
pub struct Fingerprint {
    state: u64,
}

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    /// Folds raw bytes with no length prefix: plain FNV-1a over
    /// `bytes`, so `Fingerprint::new().push_bytes(b).finish()` is the
    /// published FNV-1a-64 of `b`.
    #[inline]
    pub fn push_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= u64::from(b);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Folds a raw 64-bit value.
    #[inline]
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        self.push_bytes(&v.to_le_bytes())
    }

    /// Folds a float by its exact bit pattern (so `-0.0 != 0.0` and NaN
    /// payloads are distinguished — the memo must never alias "almost
    /// equal" configurations).
    #[inline]
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Folds a length/count.
    #[inline]
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Folds a string (length-prefixed, so concatenations cannot alias).
    #[inline]
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_usize(s.len()).push_bytes(s.as_bytes())
    }

    /// Folds a slice of floats (length-prefixed).
    #[inline]
    pub fn push_f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        self.push_usize(vs.len());
        for &v in vs {
            self.push_f64(v);
        }
        self
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_bytes_match_the_published_fnv1a_64_vectors() {
        for (input, expected) in [
            ("", 0xcbf2_9ce4_8422_2325),
            ("a", 0xaf63_dc4c_8601_ec8c),
            ("foobar", 0x8594_4171_f739_67e8),
        ] {
            let hash = Fingerprint::new().push_bytes(input.as_bytes()).finish();
            assert_eq!(hash, expected, "{input:?}");
        }
    }

    #[test]
    fn order_matters() {
        let mut a = Fingerprint::new();
        a.push_f64(1.0).push_f64(2.0);
        let mut b = Fingerprint::new();
        b.push_f64(2.0).push_f64(1.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn length_prefix_prevents_concatenation_aliasing() {
        let mut a = Fingerprint::new();
        a.push_f64_slice(&[1.0]).push_f64_slice(&[2.0, 3.0]);
        let mut b = Fingerprint::new();
        b.push_f64_slice(&[1.0, 2.0]).push_f64_slice(&[3.0]);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn negative_zero_is_distinct() {
        let mut a = Fingerprint::new();
        a.push_f64(0.0);
        let mut b = Fingerprint::new();
        b.push_f64(-0.0);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn strings_fold_with_length() {
        let mut a = Fingerprint::new();
        a.push_str("ab").push_str("c");
        let mut b = Fingerprint::new();
        b.push_str("a").push_str("bc");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn digest_still_matches_the_analog_fingerprint_fold() {
        // `repro` checkpoints record CSV digests that were once computed
        // through `Fingerprint::push_str`; `artifact::digest` must stay
        // byte-compatible or every existing checkpoint silently stops
        // matching on `--resume`.
        for contents in ["", "x,y\n1,2\n", "fig07_delay_vs_vctrl", "\u{00b5}s"] {
            let mut f = Fingerprint::new();
            f.push_str(contents);
            assert_eq!(
                crate::artifact::digest(contents),
                f.finish(),
                "contents {contents:?}"
            );
        }
    }
}
