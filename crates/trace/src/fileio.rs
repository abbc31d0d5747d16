//! Format errors, little-endian header reads and positioned chunk reads
//! and writes — the file plumbing under the on-disk format
//! ([`columnar`](crate::columnar)) and the re-chunker's spill file
//! ([`rechunk`](crate::rechunk)).

use std::fs::File;
use std::io::Read;

use crate::error::TraceError;

/// A [`TraceError::Format`] with `reason`.
pub(crate) fn format_err(reason: impl Into<String>) -> TraceError {
    TraceError::Format {
        reason: reason.into(),
    }
}

pub(crate) fn read_array<const N: usize>(r: &mut impl Read) -> Result<[u8; N], TraceError> {
    let mut buf = [0u8; N];
    r.read_exact(&mut buf)?;
    Ok(buf)
}

pub(crate) fn read_u32(r: &mut impl Read) -> Result<u32, TraceError> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

pub(crate) fn read_u64(r: &mut impl Read) -> Result<u64, TraceError> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

/// A file many threads read (or write) at explicit offsets through a
/// shared reference: `pread`/`pwrite` on Unix, seek-then-read (or write)
/// under a lock elsewhere.
#[derive(Debug)]
pub(crate) struct PositionedFile {
    file: File,
    #[cfg(not(unix))]
    seek_lock: std::sync::Mutex<()>,
}

impl PositionedFile {
    pub(crate) fn new(file: File) -> Self {
        PositionedFile {
            file,
            #[cfg(not(unix))]
            seek_lock: std::sync::Mutex::new(()),
        }
    }

    /// Fills `buf` from `offset`.
    pub(crate) fn read_at(&self, buf: &mut [u8], offset: u64) -> Result<(), TraceError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom};
            let _guard = self.seek_lock.lock().expect("file lock poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(buf)?;
        }
        Ok(())
    }

    /// Writes all of `buf` at `offset`.
    pub(crate) fn write_at(&self, buf: &[u8], offset: u64) -> Result<(), TraceError> {
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.write_all_at(buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Seek, SeekFrom, Write};
            let _guard = self.seek_lock.lock().expect("file lock poisoned");
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.write_all(buf)?;
        }
        Ok(())
    }
}
