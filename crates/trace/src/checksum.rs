//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over chunk payloads.
//!
//! Every `.cvtc` directory entry stores the checksum of its chunk's
//! encoded column bytes; the decoder recomputes it before trusting any
//! decoded value, so a flipped bit fails loudly as
//! [`TraceError::Format`](crate::error::TraceError::Format) naming the
//! chunk instead of surfacing as a silently wrong simulation input.

/// Reflected CRC-32 lookup table for polynomial `0xEDB88320`.
const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// An incremental CRC-32 hasher, for writers that stream a chunk's
/// columns straight to the output without holding them in one buffer.
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Crc32 {
    /// Starts a fresh checksum.
    pub fn new() -> Self {
        Crc32 { state: !0 }
    }

    /// Feeds `bytes` into the checksum.
    pub fn update(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            let idx = (self.state ^ u32::from(byte)) & 0xFF;
            self.state = (self.state >> 8) ^ TABLE[idx as usize];
        }
    }

    /// Finishes and returns the checksum value.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = Crc32::new();
    crc.update(bytes);
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // The classic check value for this polynomial.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    #[test]
    fn incremental_matches_one_shot() {
        let data = b"neighborhood-major chunk payload";
        let mut crc = Crc32::new();
        crc.update(&data[..7]);
        crc.update(&data[7..]);
        assert_eq!(crc.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = vec![0xA5u8; 64];
        let clean = crc32(&data);
        data[40] ^= 0x10;
        assert_ne!(crc32(&data), clean);
    }
}
