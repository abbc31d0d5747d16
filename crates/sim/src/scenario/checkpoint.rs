//! The crash-safety checkpoint journal behind resumable scenario runs.
//!
//! A journal is a plain-text JSONL file: one CRC-framed record per line.
//! Line 1 is the **header** (scenario name, spec fingerprint, grid cell
//! count); every following line is one completed **cell** — the
//! point-major `(point, series)` identity, its axis labels, the resolved
//! strategy name and worker count, and the full integer-exact
//! [`SimReport`]. Failed or skipped cells are never journaled, so a
//! resumed run retries exactly the work that did not finish.
//!
//! # Record framing and CRC coverage
//!
//! ```text
//! CVJ1 <crc32, 8 lowercase hex digits> <compact JSON body>\n
//! ```
//!
//! The CRC-32 (the same IEEE polynomial as the columnar trace format,
//! [`cablevod_trace::checksum`]) covers exactly the JSON body bytes; the
//! magic and the checksum field protect themselves by failing the frame
//! parse. A record is *valid* only when the magic, the checksum and the
//! JSON all check out — any bit flip inside a line is detected, because
//! CRC-32 catches all single-bit (and burst ≤ 32-bit) errors.
//!
//! # The torn-tail rule
//!
//! Writers go through write-temp-then-rename ([`CheckpointJournal`]
//! rewrites the whole file per append — journals are a few KB), so on a
//! POSIX filesystem the journal is always either absent or entirely
//! valid. Readers still tolerate a *torn tail* for belt-and-braces crash
//! safety: if every line after the last valid record fails to parse, the
//! tail is **dropped, never trusted**, and the journal resumes from the
//! last valid record. A corrupt line *followed by a valid record* is not
//! a tail — that is mid-journal corruption, and [`CheckpointJournal::
//! load`] refuses the whole file rather than silently skipping a cell.
//!
//! # Why a hand-written codec
//!
//! The vendored `serde` is a marker-only stand-in (no wire format), and
//! the report must replay **byte-identically**, so the codec here is a
//! ~150-line integer-exact JSON round-trip: every [`SimReport`] field is
//! an unsigned integer (bit rates in bps, sizes in bits), floats never
//! enter the journal, and `encode(decode(x)) == x` exactly.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use cablevod_cache::IndexStats;
use cablevod_hfc::meter::RateStats;
use cablevod_hfc::units::{BitRate, DataSize};
use cablevod_trace::checksum::crc32;

use crate::error::SimError;
use crate::report::{DegradationReport, NeighborhoodDegradation, SimReport};

/// The stable identity of one grid cell: indices into the scenario's
/// point-major cross product (see the module docs' cell-identity
/// contract). Implicit axes count as one entry at index 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellKey {
    /// Index on the point (x) axis.
    pub point: u32,
    /// Index on the series axis.
    pub series: u32,
}

impl std::fmt::Display for CellKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "point {} / series {}", self.point, self.series)
    }
}

/// The journal's first record: which scenario wrote it, and how big the
/// grid is. Resume refuses a journal whose header does not match the
/// scenario being resumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalHeader {
    /// The scenario name.
    pub scenario: String,
    /// [`Scenario::fingerprint`](super::Scenario::fingerprint) of the
    /// scenario that wrote the journal.
    pub fingerprint: u32,
    /// Total cells in the grid (`points × series`, implicit axes = 1).
    pub cells: u32,
}

/// One completed cell: identity, labels, resolved run parameters, and
/// the full report.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRecord {
    /// Point-major grid identity.
    pub key: CellKey,
    /// Series-axis label (checked against the scenario on resume).
    pub series: String,
    /// Point-axis label (checked against the scenario on resume).
    pub point: String,
    /// Resolved strategy name (per
    /// [`StrategyFactory::name`](cablevod_cache::StrategyFactory::name)
    /// at run time).
    pub strategy: String,
    /// Resolved engine worker count of the original run.
    pub threads: u64,
    /// The cell's measured report, integer-exact.
    pub report: SimReport,
}

/// An append-only journal of completed cells (see the module docs).
#[derive(Debug)]
pub struct CheckpointJournal {
    path: PathBuf,
    header: JournalHeader,
    cells: Vec<CellRecord>,
}

impl CheckpointJournal {
    /// Starts a fresh journal at `path`, writing the header through the
    /// temp-then-rename discipline. An existing file is replaced.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures as [`SimError::Config`].
    pub fn create(path: impl Into<PathBuf>, header: JournalHeader) -> Result<Self, SimError> {
        let journal = CheckpointJournal {
            path: path.into(),
            header,
            cells: Vec::new(),
        };
        journal.persist()?;
        Ok(journal)
    }

    /// Loads a journal, applying the torn-tail rule (module docs).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for I/O failures, a missing or
    /// corrupt header, mid-journal corruption (an invalid line followed
    /// by a valid record), or duplicate cell records.
    pub fn load(path: impl Into<PathBuf>) -> Result<Self, SimError> {
        let path = path.into();
        let err = |reason: String| SimError::Config {
            reason: format!("checkpoint journal {}: {reason}", path.display()),
        };
        let bytes = std::fs::read(&path).map_err(|e| err(format!("cannot read: {e}")))?;
        let lines: Vec<&[u8]> = bytes
            .split(|&b| b == b'\n')
            .filter(|line| !line.iter().all(u8::is_ascii_whitespace))
            .collect();
        let mut records = Vec::with_capacity(lines.len());
        let mut torn_at = None;
        for (i, line) in lines.iter().enumerate() {
            match unframe(line).and_then(|json| parse_json(json).ok()) {
                Some(value) => {
                    if torn_at.is_some() {
                        return Err(err(format!(
                            "record {} is corrupt but later records are valid — \
                             mid-journal corruption, refusing to skip cells",
                            torn_at.unwrap_or(0) + 1
                        )));
                    }
                    records.push(value);
                }
                // Candidate torn tail: tolerated only if nothing valid
                // follows.
                None => torn_at = torn_at.or(Some(i)),
            }
        }
        let mut records = records.into_iter();
        let header = match records.next() {
            Some(value) => {
                JournalHeader::from_json(&value).map_err(|e| err(format!("bad header: {e}")))?
            }
            None => {
                return Err(err(
                    "no valid header record (the file is corrupt — it was not \
                     written by the temp-then-rename journal writer)"
                        .into(),
                ))
            }
        };
        let mut cells = Vec::new();
        let mut seen = BTreeSet::new();
        for (i, value) in records.enumerate() {
            let record = CellRecord::from_json(&value)
                .map_err(|e| err(format!("bad cell record {}: {e}", i + 1)))?;
            if !seen.insert(record.key) {
                return Err(err(format!("duplicate record for cell ({})", record.key)));
            }
            cells.push(record);
        }
        Ok(CheckpointJournal {
            path,
            header,
            cells,
        })
    }

    /// The journal's header.
    pub fn header(&self) -> &JournalHeader {
        &self.header
    }

    /// Completed cells, in append order.
    pub fn cells(&self) -> &[CellRecord] {
        &self.cells
    }

    /// The record for `key`, if that cell completed.
    pub fn cell(&self, key: CellKey) -> Option<&CellRecord> {
        self.cells.iter().find(|record| record.key == key)
    }

    /// Appends one completed cell and persists the journal (whole-file
    /// rewrite through temp-then-rename, so the on-disk journal is
    /// always either the pre- or the post-append state).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Config`] for a duplicate cell or an I/O
    /// failure.
    pub fn append(&mut self, record: CellRecord) -> Result<(), SimError> {
        if self.cell(record.key).is_some() {
            return Err(SimError::Config {
                reason: format!(
                    "checkpoint journal {}: cell ({}) journaled twice",
                    self.path.display(),
                    record.key
                ),
            });
        }
        self.cells.push(record);
        self.persist()
    }

    /// Serializes every record and atomically replaces the file.
    fn persist(&self) -> Result<(), SimError> {
        let err = |reason: String| SimError::Config {
            reason: format!("checkpoint journal {}: {reason}", self.path.display()),
        };
        let mut text = frame(&write_json(&self.header.to_json()));
        for record in &self.cells {
            text.push_str(&frame(&write_json(&record.to_json())));
        }
        let mut tmp = self.path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        write_sync(&tmp, text.as_bytes()).map_err(|e| err(format!("cannot write: {e}")))?;
        std::fs::rename(&tmp, &self.path).map_err(|e| {
            std::fs::remove_file(&tmp).ok();
            err(format!("cannot rename {} into place: {e}", tmp.display()))
        })
    }
}

/// Writes `bytes` and flushes them to disk before returning, so the
/// subsequent rename publishes a fully durable file.
fn write_sync(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut file = std::fs::File::create(path)?;
    file.write_all(bytes)?;
    file.sync_all()
}

/// Frames one record body as a journal line (module docs).
fn frame(json: &str) -> String {
    format!("CVJ1 {:08x} {json}\n", crc32(json.as_bytes()))
}

/// Validates one line's frame, returning the JSON body when the magic
/// and checksum hold.
fn unframe(line: &[u8]) -> Option<&[u8]> {
    let rest = line.strip_prefix(b"CVJ1 ")?;
    if rest.len() < 10 {
        return None;
    }
    let (crc_hex, body) = rest.split_at(8);
    let body = body.strip_prefix(b" ")?;
    let crc_hex = std::str::from_utf8(crc_hex).ok()?;
    let expected = u32::from_str_radix(crc_hex, 16).ok()?;
    (crc32(body) == expected).then_some(body)
}

// ---------------------------------------------------------------------
// Integer-exact JSON codec (see the module docs for why it exists)
// ---------------------------------------------------------------------

/// The value model: unsigned integers only — a journal never contains a
/// float, a negative number, or a boolean, so the codec round-trips
/// every report field exactly.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Num(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

fn write_json(value: &Json) -> String {
    let mut out = String::new();
    write_value(value, &mut out);
    out
}

fn write_value(value: &Json, out: &mut String) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Num(n) => {
            let mut buf = [0u8; 20];
            let mut n = *n;
            let mut i = buf.len();
            loop {
                i -= 1;
                buf[i] = b'0' + (n % 10) as u8;
                n /= 10;
                if n == 0 {
                    break;
                }
            }
            out.push_str(std::str::from_utf8(&buf[i..]).expect("digits are ASCII"));
        }
        Json::Str(text) => write_string(text, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(item, out);
            }
            out.push(']');
        }
        Json::Obj(fields) => {
            out.push('{');
            for (i, (key, item)) in fields.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_string(key, out);
                out.push(':');
                write_value(item, out);
            }
            out.push('}');
        }
    }
}

/// Writes `text` as a quoted JSON string — the one escaper every JSON line
/// this workspace prints goes through.
fn write_string(text: &str, out: &mut String) {
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A recursive-descent parser over raw bytes (corrupt input may not be
/// UTF-8; nothing here panics on arbitrary bytes).
struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

type ParseResult<T> = Result<T, String>;

fn parse_json(bytes: &[u8]) -> ParseResult<Json> {
    let mut parser = Parser { bytes, pos: 0 };
    let value = parser.value()?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    Ok(value)
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> ParseResult<()> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn value(&mut self) -> ParseResult<Json> {
        self.skip_ws();
        match self.peek() {
            Some(b'n') => {
                if self.bytes[self.pos..].starts_with(b"null") {
                    self.pos += 4;
                    Ok(Json::Null)
                } else {
                    Err(format!("bad literal at offset {}", self.pos))
                }
            }
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("bad array at offset {}", self.pos)),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.skip_ws();
                    let key = self.string()?;
                    self.skip_ws();
                    self.expect(b':')?;
                    fields.push((key, self.value()?));
                    self.skip_ws();
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("bad object at offset {}", self.pos)),
                    }
                }
            }
            Some(b'0'..=b'9') => {
                let start = self.pos;
                let mut n: u64 = 0;
                while let Some(digit @ b'0'..=b'9') = self.peek() {
                    n = n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(digit - b'0')))
                        .ok_or_else(|| format!("number overflows u64 at offset {start}"))?;
                    self.pos += 1;
                }
                // Unsigned integers only — `.`/`e`/`-` never appear in a
                // valid journal, so a fraction is corruption, not data.
                if matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
                    return Err(format!("non-integer number at offset {start}"));
                }
                Ok(Json::Num(n))
            }
            _ => Err(format!("bad value at offset {}", self.pos)),
        }
    }

    fn string(&mut self) -> ParseResult<String> {
        self.expect(b'"')?;
        let mut out = Vec::new();
        loop {
            let byte = self
                .peek()
                .ok_or_else(|| "unterminated string".to_string())?;
            self.pos += 1;
            match byte {
                b'"' => break,
                b'\\' => {
                    let escape = self
                        .peek()
                        .ok_or_else(|| "unterminated escape".to_string())?;
                    self.pos += 1;
                    match escape {
                        b'"' => out.push(b'"'),
                        b'\\' => out.push(b'\\'),
                        b'/' => out.push(b'/'),
                        b'n' => out.push(b'\n'),
                        b'r' => out.push(b'\r'),
                        b't' => out.push(b'\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at {}", self.pos))?;
                            self.pos += 4;
                            let c = char::from_u32(hex)
                                .ok_or_else(|| format!("bad codepoint {hex:#x}"))?;
                            let mut buf = [0u8; 4];
                            out.extend_from_slice(c.encode_utf8(&mut buf).as_bytes());
                        }
                        other => return Err(format!("bad escape {:?}", other as char)),
                    }
                }
                other => out.push(other),
            }
        }
        String::from_utf8(out).map_err(|_| "string is not UTF-8".to_string())
    }
}

// ---------------------------------------------------------------------
// Record <-> Json conversions
// ---------------------------------------------------------------------

fn get<'a>(fields: &'a [(String, Json)], key: &str) -> ParseResult<&'a Json> {
    fields
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field {key:?}"))
}

fn as_obj(value: &Json) -> ParseResult<&[(String, Json)]> {
    match value {
        Json::Obj(fields) => Ok(fields),
        _ => Err("expected an object".into()),
    }
}

fn as_arr(value: &Json) -> ParseResult<&[Json]> {
    match value {
        Json::Arr(items) => Ok(items),
        _ => Err("expected an array".into()),
    }
}

fn as_num(value: &Json) -> ParseResult<u64> {
    match value {
        Json::Num(n) => Ok(*n),
        _ => Err("expected an unsigned integer".into()),
    }
}

fn as_str(value: &Json) -> ParseResult<&str> {
    match value {
        Json::Str(text) => Ok(text),
        _ => Err("expected a string".into()),
    }
}

/// A journaled value: its one encoding, written and read back. Records
/// are declared once, through `wire_object!` / `wire_tuple!` below, so
/// the writer and the reader cannot disagree on a field list.
trait Wire: Sized {
    fn to_json(&self) -> Json;
    fn from_json(value: &Json) -> ParseResult<Self>;
}

impl Wire for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self)
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        as_num(value)
    }
}

/// Narrower integers travel as `u64` and are range-checked on the way in.
macro_rules! wire_narrow {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::Num(*self as u64)
            }
            fn from_json(value: &Json) -> ParseResult<Self> {
                <$ty>::try_from(as_num(value)?)
                    .map_err(|_| concat!("number overflows ", stringify!($ty)).to_string())
            }
        }
    )*};
}
wire_narrow!(u32, usize);

impl Wire for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        as_str(value).map(str::to_string)
    }
}

/// Bit rates are journaled in bps.
impl Wire for BitRate {
    fn to_json(&self) -> Json {
        Json::Num(self.as_bps())
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        as_num(value).map(BitRate::from_bps)
    }
}

/// Sizes are journaled in bits.
impl Wire for DataSize {
    fn to_json(&self) -> Json {
        Json::Num(self.as_bits())
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        as_num(value).map(DataSize::from_bits)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        as_arr(value)?.iter().map(Wire::from_json).collect()
    }
}

impl<T: Wire, const N: usize> Wire for [T; N] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(Wire::to_json).collect())
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        Vec::from_json(value)?
            .try_into()
            .map_err(|_| format!("expected {N} entries"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn to_json(&self) -> Json {
        self.as_ref().map_or(Json::Null, Wire::to_json)
    }
    fn from_json(value: &Json) -> ParseResult<Self> {
        match value {
            Json::Null => Ok(None),
            value => T::from_json(value).map(Some),
        }
    }
}

/// A struct journaled as an object: each field under its key, in the
/// order listed (the order is part of the byte-exact encoding).
macro_rules! wire_object {
    ($ty:ident { $($key:literal: $field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::Obj(vec![$(($key.into(), self.$field.to_json())),*])
            }
            fn from_json(value: &Json) -> ParseResult<Self> {
                let fields = as_obj(value)?;
                Ok($ty { $($field: Wire::from_json(get(fields, $key)?)?),* })
            }
        }
    };
}

/// A struct journaled as a fixed-length array of its fields, in the order
/// listed.
macro_rules! wire_tuple {
    ($ty:ident [ $($field:ident),* $(,)? ]) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                Json::Arr(vec![$(self.$field.to_json()),*])
            }
            fn from_json(value: &Json) -> ParseResult<Self> {
                let [$($field),*] = as_arr(value)? else {
                    return Err(concat!(stringify!($ty), ": wrong number of entries").into());
                };
                Ok($ty { $($field: Wire::from_json($field)?),* })
            }
        }
    };
}

wire_object!(JournalHeader {
    "scenario": scenario,
    "fingerprint": fingerprint,
    "cells": cells,
});
wire_tuple!(CellKey [point, series]);
wire_object!(CellRecord {
    "cell": key,
    "series": series,
    "point": point,
    "strategy": strategy,
    "threads": threads,
    "report": report,
});
wire_tuple!(RateStats [mean, q05, q95, max, samples]);
wire_tuple!(NeighborhoodDegradation [
    blocked_sessions, interrupted_sessions, retries, outage_secs,
    recoveries_measured, recovery_lag_total_secs, recovery_lag_max_secs,
]);
wire_object!(DegradationReport {
    "blocked": blocked_sessions,
    "interrupted": interrupted_sessions,
    "retries": retries,
    "retry_histogram": retry_histogram,
    "per_neighborhood": per_neighborhood,
});
wire_tuple!(IndexStats [
    hits, miss_uncached, miss_not_materialized, miss_peer_busy, admissions,
    evictions, capture_fills, delayed_hits, inflight_misses,
]);
wire_object!(SimReport {
    "server_peak": server_peak,
    "server_total_bits": server_total,
    "server_hourly_bps": server_hourly,
    "coax_peak": coax_peak,
    "coax_per_neighborhood_bps": coax_per_neighborhood,
    "cache": cache,
    "sessions": sessions,
    "segment_requests": segment_requests,
    "viewer_overcommits": viewer_overcommits,
    "degradation": degradation,
    "measured_from_day": measured_from_day,
    "measured_to_day": measured_to_day,
});

/// Serializes a report to one canonical JSON line — the same encoding the
/// checkpoint journal writes, so online (serve) and offline (journal)
/// accounting can be compared byte-for-byte.
#[must_use]
pub fn report_to_json_string(report: &SimReport) -> String {
    write_json(&report.to_json())
}

/// Renders `text` as a JSON string literal, quotes included: `"`, `\` and
/// every control character escaped per RFC 8259 — the journal's own string
/// encoding, for callers that format a JSON line by hand.
#[must_use]
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    write_string(text, &mut out);
    out
}

/// Parses a report back from [`report_to_json_string`]'s encoding.
///
/// # Errors
///
/// Returns [`SimError::Config`] when the text is not valid JSON or does
/// not have the report's shape.
pub fn report_from_json_str(text: &str) -> Result<SimReport, SimError> {
    let value = parse_json(text.as_bytes()).map_err(|reason| SimError::Config { reason })?;
    SimReport::from_json(&value).map_err(|reason| SimError::Config { reason })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report(salt: u64) -> SimReport {
        let rate = |n: u64| BitRate::from_bps(n.wrapping_mul(salt + 1));
        let stats = |base: u64| RateStats {
            mean: rate(base),
            q05: rate(base / 2),
            q95: rate(base * 2),
            max: rate(base * 3),
            samples: (base % 97) as usize,
        };
        let mut server_hourly = [BitRate::ZERO; 24];
        for (hour, slot) in server_hourly.iter_mut().enumerate() {
            *slot = rate(hour as u64 * 1000 + 1);
        }
        SimReport {
            server_peak: stats(1_000_000),
            server_total: DataSize::from_bits(salt * 12_345 + 8),
            server_hourly,
            coax_peak: stats(500_000),
            coax_per_neighborhood: (0..5).map(|n| rate(n * 77 + 3)).collect(),
            cache: IndexStats {
                hits: salt,
                miss_uncached: salt + 1,
                miss_not_materialized: salt + 2,
                miss_peer_busy: salt + 3,
                admissions: salt + 4,
                evictions: salt + 5,
                capture_fills: salt + 6,
                delayed_hits: salt + 7,
                inflight_misses: salt + 8,
            },
            sessions: salt * 100 + 7,
            segment_requests: salt * 1000 + 11,
            viewer_overcommits: salt % 13,
            degradation: salt.is_multiple_of(2).then(|| DegradationReport {
                blocked_sessions: salt,
                interrupted_sessions: salt + 1,
                retries: salt * 3,
                retry_histogram: vec![salt, salt / 2, 0, 1],
                per_neighborhood: (0..3)
                    .map(|n| NeighborhoodDegradation {
                        blocked_sessions: n + salt,
                        interrupted_sessions: n,
                        retries: n * 2,
                        outage_secs: n * 3600,
                        recoveries_measured: n % 2,
                        recovery_lag_total_secs: n * 5,
                        recovery_lag_max_secs: n * 4,
                    })
                    .collect(),
            }),
            measured_from_day: 14,
            measured_to_day: 28,
        }
    }

    fn record(point: u32, series: u32, salt: u64) -> CellRecord {
        CellRecord {
            key: CellKey { point, series },
            series: format!("series-{series}"),
            point: format!("point-{point}"),
            strategy: "LFU".into(),
            threads: 1,
            report: sample_report(salt),
        }
    }

    fn temp_journal(tag: &str) -> PathBuf {
        static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        std::env::temp_dir().join(format!("cvj_{tag}_{}_{n}.cvj", std::process::id()))
    }

    #[test]
    fn report_codec_round_trips_exactly() {
        for salt in [0, 1, 2, 7, u64::from(u32::MAX)] {
            let report = sample_report(salt);
            let decoded = SimReport::from_json(&report.to_json()).expect("decodes");
            assert_eq!(decoded, report, "salt {salt}");
        }
    }

    #[test]
    fn string_escapes_round_trip() {
        let nasty = "a\"b\\c\nd\te\u{1}f\rg émoji \u{1F600}";
        let value = Json::Str(nasty.into());
        let text = write_json(&value);
        assert_eq!(parse_json(text.as_bytes()).expect("parses"), value);
        // The public escaper is the same encoding: a cell error with a
        // tab, a CR or any other control character stays one valid line.
        assert_eq!(json_string(nasty), text);
        assert!(text.chars().all(|c| c >= ' '), "raw control character");
    }

    #[test]
    fn parser_rejects_floats_and_negatives() {
        assert!(parse_json(b"1.5").is_err());
        assert!(parse_json(b"-3").is_err());
        assert!(parse_json(b"1e9").is_err());
        assert!(parse_json(b"18446744073709551616").is_err(), "u64 overflow");
        assert_eq!(
            parse_json(b"18446744073709551615").expect("u64::MAX parses"),
            Json::Num(u64::MAX)
        );
    }

    #[test]
    fn journal_appends_and_loads_back() {
        let path = temp_journal("roundtrip");
        let header = JournalHeader {
            scenario: "grid".into(),
            fingerprint: 0xDEAD_BEEF,
            cells: 4,
        };
        let mut journal = CheckpointJournal::create(&path, header.clone()).expect("creates");
        for (point, series, salt) in [(0, 0, 1), (0, 1, 2), (1, 0, 3)] {
            journal
                .append(record(point, series, salt))
                .expect("appends");
        }
        let loaded = CheckpointJournal::load(&path).expect("loads");
        assert_eq!(loaded.header(), &header);
        assert_eq!(loaded.cells(), journal.cells());
        assert_eq!(
            loaded
                .cell(CellKey {
                    point: 1,
                    series: 0
                })
                .map(|r| r.report.sessions),
            Some(sample_report(3).sessions)
        );
        assert!(loaded
            .cell(CellKey {
                point: 1,
                series: 1
            })
            .is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_cells_are_refused() {
        let path = temp_journal("dup");
        let header = JournalHeader {
            scenario: "grid".into(),
            fingerprint: 1,
            cells: 2,
        };
        let mut journal = CheckpointJournal::create(&path, header).expect("creates");
        journal.append(record(0, 0, 1)).expect("first append");
        assert!(journal.append(record(0, 0, 2)).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_dropped_mid_journal_corruption_is_refused() {
        let path = temp_journal("tail");
        let header = JournalHeader {
            scenario: "grid".into(),
            fingerprint: 9,
            cells: 3,
        };
        let mut journal = CheckpointJournal::create(&path, header).expect("creates");
        journal.append(record(0, 0, 1)).expect("append");
        journal.append(record(0, 1, 2)).expect("append");
        let pristine = std::fs::read(&path).expect("read back");

        // Truncate inside the final record: the tail drops, the rest
        // survives.
        std::fs::write(&path, &pristine[..pristine.len() - 40]).expect("truncate");
        let loaded = CheckpointJournal::load(&path).expect("torn tail tolerated");
        assert_eq!(loaded.cells().len(), 1);
        assert_eq!(
            loaded.cells()[0].key,
            CellKey {
                point: 0,
                series: 0
            }
        );

        // Flip one bit inside the *first* cell record (a non-final line):
        // valid records follow, so the journal is refused outright.
        let header_len = pristine.iter().position(|&b| b == b'\n').expect("header") + 1;
        let mut flipped = pristine.clone();
        flipped[header_len + 20] ^= 0x04;
        std::fs::write(&path, &flipped).expect("write flipped");
        let err = CheckpointJournal::load(&path).expect_err("mid-journal corruption");
        assert!(err.to_string().contains("mid-journal"), "{err}");

        std::fs::remove_file(&path).ok();
    }
}
