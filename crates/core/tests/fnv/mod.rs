//! FNV-1a, 64 bit, for the tests that pin output to constants.

pub struct Fnv1a(pub u64);

impl Fnv1a {
    pub fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Length-prefixed, so `("ab", "c")` and `("a", "bc")` hash apart.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}
