//! CRC-32 (IEEE 802.3, the zlib/gzip polynomial) over chunk payloads.
//!
//! Every `.cvtc` directory entry stores the checksum of its chunk's
//! encoded column bytes; the decoder recomputes it before trusting any
//! decoded value, so a flipped bit fails loudly as
//! [`TraceError::Format`](crate::error::TraceError::Format) naming the
//! chunk instead of surfacing as a silently wrong simulation input.
//!
//! # The kernel: slicing-by-16
//!
//! The checksum is the reflected CRC with polynomial `0xEDB88320`,
//! computed **sixteen bytes a step**. `TABLES[0]` is the classic bytewise
//! table (the CRC of each byte value); `TABLES[k][b]` is the CRC of byte
//! `b` followed by `k` zero bytes, so the sixteen bytes of a step — the
//! first four XORed with the running state — are folded by sixteen
//! independent lookups XORed together, one table per byte position, with
//! no dependency between them. All sixteen tables (16 KiB) are built by a
//! `const fn` at compile time. Only the first word's four lookups depend
//! on the running state, so the step's XORs are written as a tree that
//! lets the other twelve overlap the previous step. Input shorter than a
//! step, and the tail after the last whole step, go through `TABLES[0]` a
//! byte at a time. The output is bit-identical to the bytewise loop (a
//! differential proptest below holds it to one) at any length, alignment
//! and split into incremental [`Crc32::update`] calls.
//!
//! Measured on this repo's 2-vCPU, 2.1 GHz host: about 2.5 bytes a
//! nanosecond (0.39–0.41 ns a byte: criterion `checksum/crc32_1mib`
//! medians of 406–426 µs for 1 MiB; 0.26–0.44 ns a byte across probe
//! runs), against 0.37 bytes a nanosecond (2.7 ns a byte) for the bytewise
//! loop it replaced — about 7x; a chunk of 64 Ki time-major records
//! (1.5 MiB) verifies in about 0.6 ms. The speed needs long slices: a
//! four-byte `update` never reaches the wide loop, which is why the
//! columnar writer hands it whole runs of a column at a time (see
//! [`crate::columnar`]).
//!
//! There is no SIMD and no `unsafe`. The workspace denies `unsafe_code`,
//! and both faster routes need it: carry-less-multiply folding
//! (`PCLMULQDQ` / `PMULL`) is reachable only through `std::arch`
//! intrinsics behind runtime feature detection, and the x86 `crc32`
//! instruction computes the Castagnoli polynomial, not this one, so it
//! would change every stored checksum. Slicing-by-16 is portable safe
//! Rust whose table lookups the compiler proves in bounds.

/// Bytes folded per step of the wide loop.
const STEP: usize = 16;

/// The slicing-by-16 tables for the reflected polynomial `0xEDB88320`:
/// `tables[0]` is the bytewise table, `tables[k][b]` advances
/// `tables[k - 1][b]` by one zero byte.
const fn build_tables() -> [[u32; 256]; STEP] {
    let mut tables = [[0u32; 256]; STEP];
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
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < STEP {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; STEP] = build_tables();

/// An incremental CRC-32 hasher, for checksums fed in pieces — the
/// columnar writer feeds one chunk's columns a run at a time. Split
/// points do not change the result.
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
        let t = &TABLES;
        let mut crc = self.state;
        let (steps, tail) = bytes.as_chunks::<STEP>();
        for step in steps {
            let word = |at: usize| {
                u32::from_le_bytes([step[at], step[at + 1], step[at + 2], step[at + 3]])
            };
            // Four lookups per word, the words' folds XORed as a tree: only
            // the first word depends on the running state, so the other
            // twelve lookups overlap the previous step's.
            let fold = |w: u32, k: usize| {
                (t[k + 3][(w & 0xFF) as usize] ^ t[k + 2][((w >> 8) & 0xFF) as usize])
                    ^ (t[k + 1][((w >> 16) & 0xFF) as usize] ^ t[k][(w >> 24) as usize])
            };
            let ahead = (fold(word(4), 8) ^ fold(word(8), 4)) ^ fold(word(12), 0);
            crc = ahead ^ fold(word(0) ^ crc, 12);
        }
        for &byte in tail {
            crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
        }
        self.state = crc;
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
    use proptest::prelude::*;

    /// The reference oracle: the textbook bytewise loop over `TABLES[0]`,
    /// the kernel this module shipped before slicing-by-16.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut state = !0u32;
        for &byte in bytes {
            state = (state >> 8) ^ TABLES[0][((state ^ u32::from(byte)) & 0xFF) as usize];
        }
        !state
    }

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

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        /// Slicing-by-16 equals the bytewise oracle on payloads of 0–4 KiB.
        #[test]
        fn kernel_matches_bytewise_reference(
            payload in prop::collection::vec(0u8..=255, 0..4_097),
        ) {
            prop_assert_eq!(crc32(&payload), crc32_bytewise(&payload));
        }

        /// At every start offset 0–15 inside a larger buffer, so every
        /// alignment of the wide loop's sixteen-byte steps is covered.
        #[test]
        fn kernel_matches_reference_at_every_offset(
            buffer in prop::collection::vec(0u8..=255, 64..600),
            len in 0usize..48,
        ) {
            for start in 0..16 {
                let end = (start + len).min(buffer.len());
                let slice = &buffer[start..end];
                prop_assert_eq!(crc32(slice), crc32_bytewise(slice), "start {}", start);
                let tail = &buffer[start..];
                prop_assert_eq!(crc32(tail), crc32_bytewise(tail), "tail from {}", start);
            }
        }

        /// Incremental `update`s at random split points, with empty
        /// updates between them, equal the one-shot reference.
        #[test]
        fn split_updates_match_reference(
            payload in prop::collection::vec(0u8..=255, 0..2_049),
            cuts in prop::collection::vec(0usize..2_049, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(payload.len())).collect();
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            let mut from = 0;
            for cut in cuts {
                crc.update(&payload[from..cut]);
                crc.update(&[]);
                from = cut;
            }
            crc.update(&payload[from..]);
            prop_assert_eq!(crc.finish(), crc32_bytewise(&payload));
        }
    }
}
