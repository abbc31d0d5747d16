//! Per-program state kept by live program: a slot map in front of dense
//! records.
//!
//! Program ids are dense catalog indices, and an index server lives for
//! the whole run — every neighborhood's at once on a blocked replay. A
//! table indexed by program id costs the whole record for every id up to
//! the highest one seen, whether or not the neighborhood still holds
//! anything about the program. [`ProgramSlots`] instead keeps:
//!
//! * a *slot map*, one `u32` per program id up to the highest seen, naming
//!   the position of the program's record, or none ([`VACANT`]);
//! * the *records*, one per live program — what "live" means is the
//!   owner's: a program the windowed LFU counts or considers, a program
//!   the index server has admitted. A record whose program dies is
//!   recycled for the next program that comes alive, so the records never
//!   outnumber the most programs ever live at once.
//!
//! A lookup is two array loads, the slot and then the record; a vacant
//! slot is `u32::MAX`, which is past every record, so it needs no test of
//! its own. The slot map grows to exactly the highest id seen plus one.
//! The records grow like a `Vec`, to at most twice the most ever live.

use cablevod_hfc::ids::ProgramId;

/// The slot of a program that has no record.
const VACANT: u32 = u32::MAX;

/// Records of type `R` for the live programs of one index (see the module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct ProgramSlots<R> {
    /// Position in `records` by `ProgramId::index()`; [`VACANT`] for none.
    slots: Vec<u32>,
    /// Live programs' records, and recycled ones at their default.
    records: Vec<R>,
    /// Positions in `records` whose program died, reused first.
    free: Vec<u32>,
}

impl<R: Default> ProgramSlots<R> {
    /// The record position of `program`, `VACANT` when it has none.
    #[inline]
    fn slot(&self, program: ProgramId) -> usize {
        self.slots.get(program.index()).map_or(VACANT, |&s| s) as usize
    }

    /// `program`'s record, if it is live.
    #[inline]
    pub(crate) fn get(&self, program: ProgramId) -> Option<&R> {
        self.records.get(self.slot(program))
    }

    /// `program`'s record, if it is live.
    #[inline]
    pub(crate) fn get_mut(&mut self, program: ProgramId) -> Option<&mut R> {
        let slot = self.slot(program);
        self.records.get_mut(slot)
    }

    /// `program`'s record, bringing it to life at `R::default()` if it
    /// has none.
    pub(crate) fn get_or_insert(&mut self, program: ProgramId) -> &mut R {
        let mut slot = self.slot(program);
        if slot >= self.records.len() {
            slot = self.insert(program, R::default());
        }
        &mut self.records[slot]
    }

    /// Brings `program`, which has no record, to life with `record`, and
    /// returns the record's position.
    pub(crate) fn insert(&mut self, program: ProgramId, record: R) -> usize {
        let idx = program.index();
        if idx >= self.slots.len() {
            // Exactly to the highest id seen: ids mostly arrive in no
            // order, so this reallocates a few times, not once an id.
            self.slots.reserve_exact(idx + 1 - self.slots.len());
            self.slots.resize(idx + 1, VACANT);
        }
        debug_assert_eq!(self.slots[idx], VACANT, "{program} is already live");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.records[slot as usize] = record;
                slot
            }
            None => {
                let slot = u32::try_from(self.records.len())
                    .ok()
                    .filter(|&slot| slot != VACANT)
                    .expect("fewer live programs than a slot can name");
                self.records.push(record);
                slot
            }
        };
        self.slots[idx] = slot;
        slot as usize
    }

    /// Retires `program`'s record, handing it back; `None` when it had
    /// none.
    pub(crate) fn remove(&mut self, program: ProgramId) -> Option<R> {
        let slot = self.slot(program);
        let record = std::mem::take(self.records.get_mut(slot)?);
        self.slots[program.index()] = VACANT;
        self.free.push(slot as u32);
        Some(record)
    }

    /// Every record, live or recycled (a recycled one at its default).
    pub(crate) fn records_mut(&mut self) -> &mut [R] {
        &mut self.records
    }

    /// Every record, live or recycled (a recycled one at its default).
    #[cfg(test)]
    pub(crate) fn records(&self) -> &[R] {
        &self.records
    }

    /// Heap bytes held, from capacities: the slot map, the records and
    /// the free list (not what a record itself points to).
    #[cfg(test)]
    pub(crate) fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        (self.slots.capacity() + self.free.capacity()) * size_of::<u32>()
            + self.records.capacity() * size_of::<R>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: u32) -> ProgramId {
        ProgramId::new(i)
    }

    #[test]
    fn records_are_recycled_and_the_map_is_sized_to_the_highest_id() {
        let mut slots: ProgramSlots<u64> = ProgramSlots::default();
        assert_eq!(slots.get(p(7)), None);
        *slots.get_or_insert(p(9)) = 90;
        *slots.get_or_insert(p(3)) = 30;
        assert_eq!(slots.slots.capacity(), 10, "sized exactly");
        assert_eq!((slots.get(p(9)), slots.get(p(3))), (Some(&90), Some(&30)));
        assert_eq!(slots.get(p(4)), None);
        assert_eq!(slots.get(p(1_000)), None, "past the map");
        assert_eq!(slots.remove(p(9)), Some(90));
        assert_eq!(slots.remove(p(9)), None);
        assert_eq!(slots.get(p(9)), None);
        // The next program to come alive takes the dead one's record, at
        // its default.
        assert_eq!(*slots.get_or_insert(p(5)), 0);
        assert_eq!(slots.records().len(), 2);
        *slots.get_mut(p(5)).expect("live") = 50;
        assert_eq!(slots.records(), &[50, 30]);
    }
}
