//! Bit-flip records for incremental summary updates (Sections V-D, VI-A).
//!
//! Between directory updates a proxy remembers which filter bits changed
//! (the counting filter's `*_key_into` methods emit them; the proxy's
//! router keeps the log and ships the net change per peer). Each change
//! is an *absolute* assignment — "bit 17 is now 1" — encoded on the
//! wire as a 32-bit word whose most significant bit is the new value
//! and whose low 31 bits are the index. Absolute (rather than
//! toggle) semantics is the paper's defence against lost update messages:
//! a later record simply overwrites the effect of a lost earlier one, so
//! updates may travel over unreliable transport.

/// Largest representable bit index: the wire word keeps 31 bits for the
/// index ("the design limits the hash table size to be less than
/// 2 billion, which for the time being is large enough").
pub const MAX_FLIP_INDEX: u32 = (1 << 31) - 1;

/// One absolute bit assignment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Flip(u32);

impl Flip {
    /// "Set bit `index` to 1."
    ///
    /// # Panics
    /// If `index` exceeds [`MAX_FLIP_INDEX`].
    pub fn set(index: u32) -> Self {
        assert!(index <= MAX_FLIP_INDEX, "flip index {index} needs 32 bits");
        Flip(index | 1 << 31)
    }

    /// "Set bit `index` to 0."
    pub fn clear(index: u32) -> Self {
        assert!(index <= MAX_FLIP_INDEX, "flip index {index} needs 32 bits");
        Flip(index)
    }

    /// The addressed bit.
    pub fn index(self) -> u32 {
        self.0 & MAX_FLIP_INDEX
    }

    /// The new bit value.
    pub fn set_bit(self) -> bool {
        self.0 >> 31 == 1
    }

    /// The 32-bit wire word (MSB = value, low 31 bits = index).
    pub fn to_wire(self) -> u32 {
        self.0
    }

    /// Decode a wire word.
    pub fn from_wire(word: u32) -> Self {
        Flip(word)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sc_util::prop::check;

    #[test]
    fn wire_roundtrip() {
        for f in [Flip::set(0), Flip::clear(0), Flip::set(MAX_FLIP_INDEX), Flip::clear(12345)] {
            let w = f.to_wire();
            assert_eq!(Flip::from_wire(w), f);
            assert_eq!(Flip::from_wire(w).index(), f.index());
            assert_eq!(Flip::from_wire(w).set_bit(), f.set_bit());
        }
    }

    #[test]
    fn msb_encodes_value() {
        assert_eq!(Flip::set(5).to_wire(), 0x8000_0005);
        assert_eq!(Flip::clear(5).to_wire(), 0x0000_0005);
    }

    #[test]
    #[should_panic(expected = "needs 32 bits")]
    fn rejects_oversized_index() {
        Flip::set(1 << 31);
    }

    #[test]
    fn prop_flip_wire_roundtrip() {
        check("delta_flip_wire_roundtrip", 512, |rng| {
            let word = rng.next_u32();
            let f = Flip::from_wire(word);
            assert_eq!(f.to_wire(), word);
        });
    }
}
