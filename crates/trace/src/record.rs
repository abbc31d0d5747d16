//! Session records and the trace container.
//!
//! The PowerInfo schema (§V-A): every record "identifies the user, the
//! program, and the length of the session". [`SessionRecord`] carries
//! exactly that plus the start instant; [`Trace`] bundles the records with
//! the [`ProgramCatalog`] they reference.

use serde::{Deserialize, Serialize};

use cablevod_hfc::ids::{ProgramId, UserId};
use cablevod_hfc::units::{SimDuration, SimTime};

use crate::catalog::ProgramCatalog;
use crate::error::TraceError;

/// One viewing session: `user` watched `program` from `start` for
/// `duration` (wall-clock; streaming happens at the playback rate).
///
/// `offset` supports the paper's fast-forward design (§IV-B.1: jumps to
/// "predetermined points" — segment boundaries — via a segment index sent
/// to subscribers): a session may begin `offset` into the program instead
/// of at position zero. PowerInfo records have no offsets; it defaults to
/// zero everywhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SessionRecord {
    /// The subscriber that initiated the session.
    pub user: UserId,
    /// The program watched.
    pub program: ProgramId,
    /// Session start.
    pub start: SimTime,
    /// How long the session lasted.
    pub duration: SimDuration,
    /// Playback position the session begins at (0 = the program start).
    #[serde(default)]
    pub offset: SimDuration,
}

impl SessionRecord {
    /// Creates a record starting at the program beginning (the PowerInfo
    /// schema).
    pub fn new(user: UserId, program: ProgramId, start: SimTime, duration: SimDuration) -> Self {
        SessionRecord {
            user,
            program,
            start,
            duration,
            offset: SimDuration::ZERO,
        }
    }

    /// The key a trace's records are stably sorted by.
    pub(crate) fn order_key(&self) -> (SimTime, UserId, ProgramId) {
        (self.start, self.user, self.program)
    }

    /// The instant the session ends.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// The playback position the session stops at.
    pub fn end_position(&self) -> SimDuration {
        self.offset + self.duration
    }

    /// The seconds actually streamed for a program of `program_len`:
    /// the recorded duration clamped to what remains after the seek
    /// offset. The single source of truth for byte accounting.
    pub fn watched(&self, program_len: SimDuration) -> SimDuration {
        let offset = self.offset.min(program_len);
        self.duration.min(SimDuration::from_secs(
            program_len.as_secs() - offset.as_secs(),
        ))
    }
}

/// Fails on the first record, in the given order, that points outside the
/// catalog or the user range.
fn check_references(
    records: &[SessionRecord],
    catalog: &ProgramCatalog,
    user_count: u32,
) -> Result<(), TraceError> {
    for r in records {
        if r.program.index() >= catalog.len() {
            return Err(TraceError::DanglingProgram { program: r.program });
        }
        if r.user.value() >= user_count {
            return Err(TraceError::DanglingUser { user: r.user });
        }
    }
    Ok(())
}

/// A complete workload: time-ordered session records plus the catalog.
///
/// # Examples
///
/// ```
/// use cablevod_trace::synth::{SynthConfig, generate};
///
/// let trace = generate(&SynthConfig::smoke_test());
/// assert!(trace.len() > 0);
/// assert!(trace.is_sorted());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<SessionRecord>,
    catalog: ProgramCatalog,
    user_count: u32,
    days: u64,
}

impl Trace {
    /// Assembles a trace, validating that every record references a catalog
    /// program and a user below `user_count`, and sorting by start time.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError::DanglingProgram`] or
    /// [`TraceError::DanglingUser`] when a record points outside the
    /// catalog or user range.
    pub fn new(
        mut records: Vec<SessionRecord>,
        catalog: ProgramCatalog,
        user_count: u32,
        days: u64,
    ) -> Result<Self, TraceError> {
        check_references(&records, &catalog, user_count)?;
        records.sort_by_key(SessionRecord::order_key);
        Ok(Trace {
            records,
            catalog,
            user_count,
            days,
        })
    }

    /// [`Trace::new`] for records already in `(start, user, program)`
    /// order, as the generator emits them: the references are checked,
    /// the order only in debug builds.
    pub(crate) fn from_sorted(
        records: Vec<SessionRecord>,
        catalog: ProgramCatalog,
        user_count: u32,
        days: u64,
    ) -> Result<Self, TraceError> {
        check_references(&records, &catalog, user_count)?;
        debug_assert!(records.is_sorted_by_key(SessionRecord::order_key));
        Ok(Trace {
            records,
            catalog,
            user_count,
            days,
        })
    }

    /// The time-ordered session records.
    pub fn records(&self) -> &[SessionRecord] {
        &self.records
    }

    /// The catalog the records reference.
    pub fn catalog(&self) -> &ProgramCatalog {
        &self.catalog
    }

    /// Number of distinct user ids provisioned (dense range `0..count`).
    pub fn user_count(&self) -> u32 {
        self.user_count
    }

    /// Nominal trace length in days.
    pub fn days(&self) -> u64 {
        self.days
    }

    /// Number of session records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether records are sorted by start time (always true after
    /// construction; exposed for tests and invariant checks).
    pub fn is_sorted(&self) -> bool {
        self.records.windows(2).all(|w| w[0].start <= w[1].start)
    }

    /// Iterates records in time order.
    pub fn iter(&self) -> std::slice::Iter<'_, SessionRecord> {
        self.records.iter()
    }

    /// Decomposes the trace into its parts (records keep their ordering).
    pub fn into_parts(self) -> (Vec<SessionRecord>, ProgramCatalog, u32, u64) {
        (self.records, self.catalog, self.user_count, self.days)
    }

    /// A sub-trace containing only records starting in `[from_day, to_day)`,
    /// sharing the same catalog and user range. Useful for warm-up windows
    /// and the 7-day views of Fig 2.
    #[must_use]
    pub fn slice_days(&self, from_day: u64, to_day: u64) -> Trace {
        let records: Vec<SessionRecord> = self
            .records
            .iter()
            .filter(|r| r.start.day() >= from_day && r.start.day() < to_day)
            .copied()
            .collect();
        Trace {
            records,
            catalog: self.catalog.clone(),
            user_count: self.user_count,
            days: to_day.saturating_sub(from_day),
        }
    }

    /// Total viewing seconds across all sessions.
    pub fn total_viewing_secs(&self) -> u64 {
        self.records.iter().map(|r| r.duration.as_secs()).sum()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a SessionRecord;
    type IntoIter = std::slice::Iter<'a, SessionRecord>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::ProgramInfo;

    fn catalog(n: u32) -> ProgramCatalog {
        (0..n)
            .map(|_| ProgramInfo {
                length: SimDuration::from_minutes(60),
                introduced_day: 0,
            })
            .collect()
    }

    fn rec(user: u32, program: u32, start: u64, dur: u64) -> SessionRecord {
        SessionRecord::new(
            UserId::new(user),
            ProgramId::new(program),
            SimTime::from_secs(start),
            SimDuration::from_secs(dur),
        )
    }

    #[test]
    fn construction_sorts_records() {
        let t = Trace::new(
            vec![rec(0, 0, 500, 10), rec(1, 1, 100, 10)],
            catalog(2),
            2,
            1,
        )
        .expect("valid");
        assert!(t.is_sorted());
        assert_eq!(t.records()[0].user, UserId::new(1));
        assert_eq!(t.total_viewing_secs(), 20);
    }

    #[test]
    fn dangling_references_are_rejected() {
        let err = Trace::new(vec![rec(0, 5, 0, 1)], catalog(2), 1, 1).unwrap_err();
        assert!(matches!(err, TraceError::DanglingProgram { .. }));
        let err = Trace::new(vec![rec(7, 0, 0, 1)], catalog(2), 1, 1).unwrap_err();
        assert!(matches!(err, TraceError::DanglingUser { .. }));
    }

    #[test]
    fn slice_days_filters_by_start() {
        let t = Trace::new(
            vec![
                rec(0, 0, 0, 10),
                rec(0, 0, 86_400, 10),
                rec(0, 0, 200_000, 10),
            ],
            catalog(1),
            1,
            3,
        )
        .expect("valid");
        let mid = t.slice_days(1, 2);
        assert_eq!(mid.len(), 1);
        assert_eq!(mid.days(), 1);
        assert_eq!(mid.records()[0].start.day(), 1);
    }

    #[test]
    fn record_end_adds_duration() {
        let r = rec(0, 0, 100, 50);
        assert_eq!(r.end(), SimTime::from_secs(150));
    }
}
