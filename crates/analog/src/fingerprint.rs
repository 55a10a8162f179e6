//! Stable structural fingerprints for memo keys.
//!
//! The measurement memo (see [`crate::memo`]) must key a measured delay
//! by *everything that influenced the measurement*, the model
//! configuration and render settings among it. [`Fingerprint`] folds
//! those into a 64-bit FNV-1a hash of the exact bit patterns — two
//! configurations collide only if every folded value is bit-identical,
//! which is precisely the condition under which a measurement is
//! reusable.

/// An incremental FNV-1a hasher over typed values.
///
/// # Examples
///
/// ```
/// use vardelay_analog::Fingerprint;
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

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

impl Fingerprint {
    /// A fresh hasher at the FNV offset basis.
    pub fn new() -> Self {
        Fingerprint { state: FNV_OFFSET }
    }

    fn push_byte(&mut self, b: u8) {
        self.state ^= b as u64;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Folds a raw 64-bit value.
    pub fn push_u64(&mut self, v: u64) -> &mut Self {
        for b in v.to_le_bytes() {
            self.push_byte(b);
        }
        self
    }

    /// Folds a float by its exact bit pattern (so `-0.0 != 0.0` and NaN
    /// payloads are distinguished — the memo must never alias "almost
    /// equal" configurations).
    pub fn push_f64(&mut self, v: f64) -> &mut Self {
        self.push_u64(v.to_bits())
    }

    /// Folds a length/count.
    pub fn push_usize(&mut self, v: usize) -> &mut Self {
        self.push_u64(v as u64)
    }

    /// Folds a string (length-prefixed, so concatenations cannot alias).
    pub fn push_str(&mut self, s: &str) -> &mut Self {
        self.push_usize(s.len());
        for b in s.bytes() {
            self.push_byte(b);
        }
        self
    }

    /// Folds a slice of floats (length-prefixed).
    pub fn push_f64_slice(&mut self, vs: &[f64]) -> &mut Self {
        self.push_usize(vs.len());
        for &v in vs {
            self.push_f64(v);
        }
        self
    }

    /// The current hash value.
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
        // through `Fingerprint::push_str`; `vardelay_obs::artifact::digest`
        // must stay byte-compatible or every existing checkpoint silently
        // stops matching on `--resume`.
        for contents in ["", "x,y\n1,2\n", "fig07_delay_vs_vctrl", "\u{00b5}s"] {
            let mut f = Fingerprint::new();
            f.push_str(contents);
            assert_eq!(
                vardelay_obs::artifact::digest(contents),
                f.finish(),
                "contents {contents:?}"
            );
        }
    }
}
