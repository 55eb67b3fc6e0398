//! Packed embedding-table persistence.
//!
//! Building realistic embedding tables dominates cold-start time: a
//! GoodReads-scale table set is hundreds of megabytes of RNG output.
//! This module persists built tables in a page-aligned binary format
//! (`updlrm pack`), and [`load_packed`] reads them straight back into
//! owned [`EmbeddingTable`]s in one pass over the file.
//!
//! ## On-disk layout (version 1, little-endian)
//!
//! ```text
//! 0..4     magic "UPTB"
//! 4..8     format version (u32, = 1)
//! 8..12    table count (u32)
//! 12..16   reserved (zero)
//! 16..24   FNV-1a 64 checksum over all table data sections, file order
//! 24..     directory: per table { rows u64, dim u64, offset u64, bytes u64 }
//! ```
//!
//! The header region is zero-padded to [`PAGE`] bytes, every table's
//! f32 data section starts on a [`PAGE`]-aligned offset, and the
//! sections follow one another in directory order.
//!
//! Corrupt or foreign files are rejected with a typed [`PackError`]
//! (bad magic, unsupported version, checksum mismatch, truncation, a
//! directory entry that overflows or does not fit the file); the CLI
//! maps these to exit code 2 like every other argument error. A
//! directory is checked against the file's length before any table is
//! allocated.

use dlrm_model::EmbeddingTable;
use std::fmt;
use std::fs::File;
use std::io::{BufReader, Read, Write};
use std::path::Path;

/// Alignment of the header region and every data section.
pub const PAGE: usize = 4096;

/// File magic: "UPTB" (UpDLRM packed tables).
pub const MAGIC: [u8; 4] = *b"UPTB";

/// Current format version.
pub const FORMAT_VERSION: u32 = 1;

const HEADER_FIXED: usize = 24;
const DIR_ENTRY: usize = 32;

/// Errors writing or loading a packed table file.
#[derive(Debug)]
pub enum PackError {
    /// Underlying filesystem error.
    Io(std::io::Error),
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The file's format version is not [`FORMAT_VERSION`].
    UnsupportedVersion(u32),
    /// The data sections do not hash to the header checksum.
    ChecksumMismatch {
        /// Checksum recorded in the header.
        expected: u64,
        /// Checksum computed over the file's data sections.
        actual: u64,
    },
    /// Structurally invalid (truncated, overlapping or misaligned
    /// sections, zero dimensions, sizes that overflow).
    Malformed(String),
}

impl fmt::Display for PackError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PackError::Io(e) => write!(f, "packed tables: {e}"),
            PackError::BadMagic => write!(f, "packed tables: bad magic (not a UPTB file)"),
            PackError::UnsupportedVersion(v) => {
                write!(
                    f,
                    "packed tables: unsupported format version {v} (expected {FORMAT_VERSION})"
                )
            }
            PackError::ChecksumMismatch { expected, actual } => write!(
                f,
                "packed tables: checksum mismatch (header {expected:#018x}, data {actual:#018x})"
            ),
            PackError::Malformed(m) => write!(f, "packed tables: malformed file: {m}"),
        }
    }
}

impl std::error::Error for PackError {}

impl From<std::io::Error> for PackError {
    fn from(e: std::io::Error) -> Self {
        PackError::Io(e)
    }
}

/// FNV-1a 64-bit over `bytes`, seeded by `state` (chain across
/// sections by threading the return value back in).
fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= b as u64;
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// FNV-1a offset basis.
const FNV_SEED: u64 = 0xCBF2_9CE4_8422_2325;

fn align_up(v: usize, a: usize) -> usize {
    v.div_ceil(a) * a
}

#[derive(Debug, Clone, Copy)]
struct DirEntry {
    rows: usize,
    dim: usize,
    offset: usize,
    bytes: usize,
}

/// Serializes `tables` into the version-1 packed format.
///
/// # Errors
///
/// Propagates writer errors; rejects empty tables (which the format
/// cannot represent).
pub fn write_packed<W: Write>(tables: &[EmbeddingTable], w: &mut W) -> Result<(), PackError> {
    let mut dir = Vec::with_capacity(tables.len());
    let mut offset = align_up(HEADER_FIXED + tables.len() * DIR_ENTRY, PAGE);
    for t in tables {
        if t.rows() == 0 || t.dim() == 0 {
            return Err(PackError::Malformed("empty table".into()));
        }
        let bytes = t.rows() * t.dim() * 4;
        dir.push(DirEntry {
            rows: t.rows(),
            dim: t.dim(),
            offset,
            bytes,
        });
        offset = align_up(offset + bytes, PAGE);
    }
    let mut checksum = FNV_SEED;
    let mut le_sections = Vec::with_capacity(tables.len());
    for t in tables {
        let le = t.to_le_bytes();
        checksum = fnv1a(checksum, &le);
        le_sections.push(le);
    }

    let header_len = align_up(HEADER_FIXED + tables.len() * DIR_ENTRY, PAGE);
    let mut header = Vec::with_capacity(header_len);
    header.extend_from_slice(&MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    header.extend_from_slice(&0u32.to_le_bytes());
    header.extend_from_slice(&checksum.to_le_bytes());
    for e in &dir {
        header.extend_from_slice(&(e.rows as u64).to_le_bytes());
        header.extend_from_slice(&(e.dim as u64).to_le_bytes());
        header.extend_from_slice(&(e.offset as u64).to_le_bytes());
        header.extend_from_slice(&(e.bytes as u64).to_le_bytes());
    }
    header.resize(header_len, 0);
    w.write_all(&header)?;

    let mut pos = header_len;
    for (e, le) in dir.iter().zip(&le_sections) {
        if pos < e.offset {
            w.write_all(&vec![0u8; e.offset - pos])?;
        }
        w.write_all(le)?;
        pos = e.offset + e.bytes;
    }
    Ok(())
}

/// Writes `tables` to `path` in the packed format (see [`write_packed`]).
///
/// # Errors
///
/// Propagates filesystem and serialization errors.
pub fn save_packed<P: AsRef<Path>>(tables: &[EmbeddingTable], path: P) -> Result<(), PackError> {
    let mut f = File::create(path)?;
    write_packed(tables, &mut f)?;
    Ok(())
}

/// Bytes decoded per read while loading a section.
const CHUNK: usize = 64 * 1024;

/// Reads the packed file at `path` back into owned tables, in file
/// order (the inverse of [`save_packed`]).
///
/// # Errors
///
/// [`PackError::BadMagic`], [`PackError::UnsupportedVersion`],
/// [`PackError::ChecksumMismatch`] or [`PackError::Malformed`] for
/// invalid files; [`PackError::Io`] for filesystem failures.
pub fn load_packed<P: AsRef<Path>>(path: P) -> Result<Vec<EmbeddingTable>, PackError> {
    let file = File::open(path)?;
    let len = file.metadata()?.len();
    read_packed(BufReader::new(file), len)
}

/// [`load_packed`] over a reader holding a `len`-byte packed file.
///
/// The header and the whole directory are checked against `len`
/// before any table is allocated; each section is then read straight
/// into its table, decoding little-endian f32 and folding the
/// checksum as it goes.
fn read_packed<R: Read>(mut r: R, len: u64) -> Result<Vec<EmbeddingTable>, PackError> {
    let malformed = |m: String| Err(PackError::Malformed(m));
    let u64_at = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes"));
    if len < HEADER_FIXED as u64 {
        return malformed("shorter than the fixed header".into());
    }
    let mut fixed = [0u8; HEADER_FIXED];
    r.read_exact(&mut fixed)?;
    if fixed[0..4] != MAGIC {
        return Err(PackError::BadMagic);
    }
    let version = u32::from_le_bytes(fixed[4..8].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(PackError::UnsupportedVersion(version));
    }
    let n_tables = u32::from_le_bytes(fixed[8..12].try_into().expect("4 bytes"));
    let expected = u64_at(&fixed, 16);
    let dir_end = HEADER_FIXED as u64 + u64::from(n_tables) * DIR_ENTRY as u64;
    if len < dir_end {
        return malformed("truncated directory".into());
    }
    // Sections follow the directory and one another in file order, so
    // the reader never seeks back.
    let mut dir = Vec::with_capacity(n_tables as usize);
    let mut free = dir_end;
    let mut entry = [0u8; DIR_ENTRY];
    for t in 0..n_tables {
        r.read_exact(&mut entry)?;
        let [rows, dim, offset, bytes] = [0, 8, 16, 24].map(|i| u64_at(&entry, i));
        if rows == 0 || dim == 0 {
            return malformed(format!("table {t}: empty dimensions"));
        }
        if rows.checked_mul(dim).and_then(|n| n.checked_mul(4)) != Some(bytes) {
            return malformed(format!(
                "table {t}: section is {bytes} bytes for {rows}x{dim}"
            ));
        }
        if !offset.is_multiple_of(PAGE as u64) {
            return malformed(format!(
                "table {t}: section offset {offset} not page-aligned"
            ));
        }
        match offset.checked_add(bytes) {
            Some(end) if offset >= free && end <= len => free = end,
            _ => {
                return malformed(format!(
                    "table {t}: {bytes}-byte section at {offset} overlaps the directory or \
                     a previous section, or ends past the file of {len} bytes"
                ))
            }
        }
        dir.push(DirEntry {
            rows: rows as usize,
            dim: dim as usize,
            offset: offset as usize,
            bytes: bytes as usize,
        });
    }
    let mut at = dir_end as usize;
    let mut checksum = FNV_SEED;
    let mut raw = vec![0u8; CHUNK];
    let mut tables = Vec::with_capacity(dir.len());
    for e in &dir {
        let pad = (e.offset - at) as u64;
        if std::io::copy(&mut r.by_ref().take(pad), &mut std::io::sink())? != pad {
            return Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into());
        }
        let mut table = EmbeddingTable::zeros(e.rows, e.dim)
            .map_err(|err| PackError::Malformed(err.to_string()))?;
        for values in table.as_mut_slice().chunks_mut(CHUNK / 4) {
            let raw = &mut raw[..values.len() * 4];
            r.read_exact(raw)?;
            checksum = fnv1a(checksum, raw);
            for (v, b) in values.iter_mut().zip(raw.chunks_exact(4)) {
                *v = f32::from_le_bytes(b.try_into().expect("4 bytes"));
            }
        }
        at = e.offset + e.bytes;
        tables.push(table);
    }
    if checksum != expected {
        return Err(PackError::ChecksumMismatch {
            expected,
            actual: checksum,
        });
    }
    Ok(tables)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Seek, SeekFrom};

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("updlrm-pack-test-{}-{name}", std::process::id()));
        p
    }

    fn sample_tables() -> Vec<EmbeddingTable> {
        vec![
            EmbeddingTable::random(37, 8, 1.5, 1).unwrap(),
            EmbeddingTable::random_integer_valued(64, 16, 3, 2).unwrap(),
            EmbeddingTable::random(5, 4, 0.25, 3).unwrap(),
        ]
    }

    /// [`read_packed`] over an in-memory file.
    fn read(bytes: &[u8]) -> Result<Vec<EmbeddingTable>, PackError> {
        read_packed(bytes, bytes.len() as u64)
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let tables = sample_tables();
        let path = tmp("roundtrip");
        save_packed(&tables, &path).unwrap();
        let loaded = load_packed(&path).unwrap();
        assert_eq!(loaded.len(), tables.len());
        for (t, (a, b)) in tables.iter().zip(&loaded).enumerate() {
            assert_eq!((a.rows(), a.dim()), (b.rows(), b.dim()), "table {t}");
            let a: Vec<u32> = a.as_slice().iter().map(|x| x.to_bits()).collect();
            let b: Vec<u32> = b.as_slice().iter().map(|x| x.to_bits()).collect();
            assert_eq!(a, b, "table {t}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_section_larger_than_a_chunk_round_trips() {
        let tables = vec![EmbeddingTable::random(CHUNK / 64 + 3, 32, 1.0, 4).unwrap()];
        let mut buf = Vec::new();
        write_packed(&tables, &mut buf).unwrap();
        assert_eq!(read(&buf).unwrap(), tables);
    }

    #[test]
    fn two_writes_are_byte_identical() {
        let tables = sample_tables();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_packed(&tables, &mut a).unwrap();
        write_packed(&tables, &mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sections_are_page_aligned() {
        let tables = sample_tables();
        let mut buf = Vec::new();
        write_packed(&tables, &mut buf).unwrap();
        let n = u32::from_le_bytes(buf[8..12].try_into().unwrap()) as usize;
        assert_eq!(n, 3);
        for t in 0..n {
            let base = HEADER_FIXED + t * DIR_ENTRY;
            let off = u64::from_le_bytes(buf[base + 16..base + 24].try_into().unwrap()) as usize;
            assert_eq!(off % PAGE, 0, "table {t} offset {off}");
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let path = tmp("magic");
        std::fs::write(&path, b"NOPE000000000000000000000000").unwrap();
        assert!(matches!(load_packed(&path), Err(PackError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn future_version_is_rejected() {
        let tables = sample_tables();
        let path = tmp("version");
        save_packed(&tables, &path).unwrap();
        let mut f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.seek(SeekFrom::Start(4)).unwrap();
        f.write_all(&99u32.to_le_bytes()).unwrap();
        drop(f);
        assert!(matches!(
            load_packed(&path),
            Err(PackError::UnsupportedVersion(99))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_data_bit_fails_checksum() {
        let tables = sample_tables();
        let path = tmp("checksum");
        save_packed(&tables, &path).unwrap();
        // Flip one byte inside the first data section.
        let mut bytes = std::fs::read(&path).unwrap();
        let off = u64::from_le_bytes(
            bytes[HEADER_FIXED + 16..HEADER_FIXED + 24]
                .try_into()
                .unwrap(),
        ) as usize;
        bytes[off + 5] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            load_packed(&path),
            Err(PackError::ChecksumMismatch { .. })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let tables = sample_tables();
        let path = tmp("truncated");
        save_packed(&tables, &path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 64]).unwrap();
        assert!(matches!(load_packed(&path), Err(PackError::Malformed(_))));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rejects_every_strict_prefix() {
        let mut buf = Vec::new();
        write_packed(&sample_tables(), &mut buf).unwrap();
        assert!(read(&buf).is_ok());
        for len in 0..buf.len() {
            assert!(
                matches!(read(&buf[..len]), Err(PackError::Malformed(_))),
                "a {len}-byte prefix of a {}-byte file loaded",
                buf.len()
            );
        }
    }

    /// A one-page file of one table whose directory entry is
    /// `{rows, dim, offset, bytes}`, checksummed as if it had no data.
    fn one_entry(fields: [u64; 4]) -> Vec<u8> {
        let mut buf = MAGIC.to_vec();
        for word in [FORMAT_VERSION, 1, 0] {
            buf.extend(word.to_le_bytes());
        }
        buf.extend(FNV_SEED.to_le_bytes());
        for f in fields {
            buf.extend(f.to_le_bytes());
        }
        buf.resize(PAGE, 0);
        buf
    }

    #[test]
    fn directory_arithmetic_that_overflows_is_malformed() {
        // Regression: unchecked, the first wrapped `offset + bytes` past
        // the bounds check and then panicked slicing the file; the
        // second wrapped `rows * dim * 4` to 0 and opened a 2^62-row
        // table. A debug build panicked on both.
        for fields in [[1, 1024, u64::MAX - 4095, 4096], [1 << 62, 4, 4096, 0]] {
            let err = read(&one_entry(fields)).unwrap_err();
            assert!(matches!(err, PackError::Malformed(_)), "{fields:?}: {err}");
        }
    }

    #[test]
    fn sections_that_overlap_are_malformed() {
        let mut buf = Vec::new();
        write_packed(&sample_tables(), &mut buf).unwrap();
        let offset_of = |t: usize| HEADER_FIXED + t * DIR_ENTRY + 16;
        let first = buf[offset_of(0)..offset_of(0) + 8].to_vec();
        // Table 1 over table 0's section, then table 0 over the header.
        for (t, offset) in [(1, first), (0, 0u64.to_le_bytes().to_vec())] {
            let mut doctored = buf.clone();
            doctored[offset_of(t)..offset_of(t) + 8].copy_from_slice(&offset);
            let err = read(&doctored).unwrap_err();
            assert!(matches!(err, PackError::Malformed(_)), "table {t}: {err}");
        }
    }

    #[test]
    fn lying_directory_fields_fail_before_they_allocate() {
        let mut buf = Vec::new();
        write_packed(&sample_tables(), &mut buf).unwrap();
        // The table count, then every field of every directory entry.
        let mut fields = vec![(8, 4)];
        fields.extend((0..3 * 4).map(|f| (HEADER_FIXED + 8 * f, 8)));
        for (p, width) in fields {
            let v = if width == 4 {
                u32::from_le_bytes(buf[p..p + 4].try_into().unwrap()).into()
            } else {
                u64::from_le_bytes(buf[p..p + 8].try_into().unwrap())
            };
            for lie in [1u64 << 60, v + 1] {
                let mut doctored = buf.clone();
                if width == 4 {
                    let lie = u32::try_from(lie).unwrap_or(u32::MAX);
                    doctored[p..p + 4].copy_from_slice(&lie.to_le_bytes());
                } else {
                    doctored[p..p + 8].copy_from_slice(&lie.to_le_bytes());
                }
                let err = read(&doctored).expect_err("a field that lies about the file");
                assert!(
                    matches!(err, PackError::Malformed(_)),
                    "field at byte {p} set to {lie}: {err}"
                );
            }
        }
    }
}
