//! Program segmentation (§IV-B.1).
//!
//! Programs are divided into fixed-length segments (5 minutes in the paper)
//! which are the unit of placement and transmission. [`Segmenter`] converts
//! between program lengths, segment counts and segment sizes at a given
//! stream rate.

use serde::{Deserialize, Serialize};

use crate::ids::{ProgramId, SegmentId};
use crate::units::{BitRate, DataSize, SimDuration};

/// Converts program lengths into segment counts and sizes.
///
/// A `Segmenter` is parameterized by the segment length (the paper uses
/// 5 minutes) and the stream encoding rate (8.06 Mb/s). The final segment of
/// a program may be shorter than the nominal length; its size is pro-rated.
///
/// # Examples
///
/// ```
/// use cablevod_hfc::segment::Segmenter;
/// use cablevod_hfc::units::SimDuration;
///
/// let seg = Segmenter::paper_default();
/// // A 100-minute movie becomes 20 five-minute segments.
/// assert_eq!(seg.segment_count(SimDuration::from_minutes(100)), 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segmenter {
    segment_len: SimDuration,
    stream_rate: BitRate,
}

impl Segmenter {
    /// Creates a segmenter with explicit segment length and stream rate.
    ///
    /// # Panics
    ///
    /// Panics if `segment_len` is zero.
    pub fn new(segment_len: SimDuration, stream_rate: BitRate) -> Self {
        assert!(segment_len.as_secs() > 0, "segment length must be positive");
        Segmenter {
            segment_len,
            stream_rate,
        }
    }

    /// The paper's configuration: 5-minute segments at 8.06 Mb/s.
    pub fn paper_default() -> Self {
        Segmenter::new(SimDuration::from_minutes(5), BitRate::STREAM_MPEG2_SD)
    }

    /// The nominal segment length.
    pub fn segment_len(&self) -> SimDuration {
        self.segment_len
    }

    /// The stream encoding rate.
    pub fn stream_rate(&self) -> BitRate {
        self.stream_rate
    }

    /// Number of segments a program of length `len` is divided into.
    /// A zero-length program has zero segments. Never truncated: a count
    /// past `u32::MAX` reads as `u32::MAX`, which is still more than any
    /// index counts (segment indexes are `u16`), so a caller that checks
    /// the count against that bound refuses it.
    pub fn segment_count(&self, len: SimDuration) -> u32 {
        let count = len.as_secs().div_ceil(self.segment_len.as_secs());
        u32::try_from(count).unwrap_or(u32::MAX)
    }

    /// Play length of segment `index` of a program of length `len` — the
    /// nominal segment length except for a shorter final segment.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range for `len`.
    pub fn segment_play_len(&self, len: SimDuration, index: u16) -> SimDuration {
        let count = self.segment_count(len);
        assert!(
            u32::from(index) < count,
            "segment index {index} out of range (program has {count})"
        );
        let start = self.segment_len.as_secs() * u64::from(index);
        SimDuration::from_secs((len.as_secs() - start).min(self.segment_len.as_secs()))
    }

    /// Storage size of segment `index` of a program of length `len`.
    pub fn segment_size(&self, len: SimDuration, index: u16) -> DataSize {
        self.stream_rate * self.segment_play_len(len, index)
    }

    /// Total storage size of a program of length `len`.
    pub fn program_size(&self, len: SimDuration) -> DataSize {
        self.stream_rate * len
    }

    /// The segment playing at offset `offset` into the program, or `None`
    /// past the end — or past the segments a `u16` index names.
    pub fn segment_at(&self, len: SimDuration, offset: SimDuration) -> Option<u16> {
        if offset >= len {
            return None;
        }
        u16::try_from(offset.as_secs() / self.segment_len.as_secs()).ok()
    }

    /// Iterator over the segment ids of `program` with length `len`, up
    /// to the last a `u16` index names.
    pub fn segments_of(
        &self,
        program: ProgramId,
        len: SimDuration,
    ) -> impl Iterator<Item = SegmentId> + use<> {
        (0..self.segment_count(len))
            .map_while(|i| u16::try_from(i).ok())
            .map(move |i| SegmentId::new(program, i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiple_has_no_runt_segment() {
        let s = Segmenter::paper_default();
        let len = SimDuration::from_minutes(100);
        assert_eq!(s.segment_count(len), 20);
        for i in 0..20 {
            assert_eq!(s.segment_play_len(len, i), SimDuration::from_minutes(5));
        }
    }

    #[test]
    fn final_segment_is_pro_rated() {
        let s = Segmenter::paper_default();
        let len = SimDuration::from_minutes(47); // 9 full + one 2-minute runt
        assert_eq!(s.segment_count(len), 10);
        assert_eq!(s.segment_play_len(len, 9), SimDuration::from_minutes(2));
        assert_eq!(
            s.segment_size(len, 9),
            BitRate::STREAM_MPEG2_SD * SimDuration::from_minutes(2)
        );
    }

    #[test]
    fn segment_sizes_sum_to_program_size() {
        let s = Segmenter::paper_default();
        for minutes in [1, 22, 45, 47, 100, 118] {
            let len = SimDuration::from_minutes(minutes);
            let total: DataSize = (0..s.segment_count(len) as u16)
                .map(|i| s.segment_size(len, i))
                .sum();
            assert_eq!(total, s.program_size(len), "length {minutes} min");
        }
    }

    #[test]
    fn segment_at_offset() {
        let s = Segmenter::paper_default();
        let len = SimDuration::from_minutes(30);
        assert_eq!(s.segment_at(len, SimDuration::ZERO), Some(0));
        assert_eq!(s.segment_at(len, SimDuration::from_secs(299)), Some(0));
        assert_eq!(s.segment_at(len, SimDuration::from_secs(300)), Some(1));
        assert_eq!(s.segment_at(len, SimDuration::from_minutes(30)), None);
    }

    #[test]
    fn segments_of_enumerates_ids() {
        let s = Segmenter::paper_default();
        let ids: Vec<_> = s
            .segments_of(ProgramId::new(4), SimDuration::from_minutes(12))
            .collect();
        assert_eq!(ids.len(), 3);
        assert_eq!(ids[2], SegmentId::new(ProgramId::new(4), 2));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_segment_panics() {
        let s = Segmenter::paper_default();
        let _ = s.segment_play_len(SimDuration::from_minutes(10), 2);
    }

    /// One-second segments of a 20-hour program: 72 000 of them, more
    /// than a `u16` counts. The count says so instead of wrapping to
    /// 6 464, and no segment past the last a `u16` names is handed out.
    #[test]
    fn counts_past_a_u16_are_not_truncated() {
        let s = Segmenter::new(SimDuration::from_secs(1), BitRate::STREAM_MPEG2_SD);
        let len = SimDuration::from_hours(20);
        assert_eq!(s.segment_count(len), 72_000);
        assert_eq!(
            s.segment_at(len, SimDuration::from_secs(65_535)),
            Some(65_535)
        );
        assert_eq!(s.segment_at(len, SimDuration::from_secs(65_536)), None);
        assert_eq!(s.segments_of(ProgramId::new(0), len).count(), 65_536);
        let forever = SimDuration::from_secs(u64::MAX);
        assert_eq!(s.segment_count(forever), u32::MAX);
    }

    #[test]
    fn zero_length_program_has_no_segments() {
        let s = Segmenter::paper_default();
        assert_eq!(s.segment_count(SimDuration::ZERO), 0);
    }
}
