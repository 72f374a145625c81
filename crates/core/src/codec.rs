//! Binary codec primitives for the on-disk index format.
//!
//! [`persist`](crate::persist) encodes every PPV block (partial vectors,
//! leaf PPVs, skeleton columns) as **delta-varint node ids** followed by
//! **raw-bit `f64` magnitudes**: sparse supports cluster inside subgraphs
//! (that is the whole point of hub partitioning, §3.2), so consecutive-id
//! gaps are tiny and LEB128 shrinks them to one or two bytes, while the
//! untouched `f64` bit patterns keep round-trips bit-identical — the
//! exactness gate holds on a loaded index exactly as it does on a built
//! one.
//!
//! Everything here is defensive by construction:
//!
//! * [`Cursor`] reads are bounds-checked — truncated input yields
//!   [`CodecError`], never a panic;
//! * length prefixes are validated against the bytes actually remaining
//!   (`n` claimed elements need at least `n` encoded bytes), so a lying
//!   length field cannot trigger a huge allocation;
//! * delta decoding rejects non-monotone id sequences and ids past the
//!   declared node bound, so a decoded [`SparseVector`] always satisfies
//!   the sorted-distinct invariant the query kernels rely on;
//! * every on-disk section carries a [`crc32`] checksum (CRC-32/IEEE),
//!   verified before any decoding starts.
//!
//! ## Bulk loops, same checks
//!
//! These functions sit under every socket round (worker reply encode,
//! coordinator decode) and every snapshot save and cold start, so they
//! run in bulk loops that keep every check above:
//!
//! * **CRC:** [`crc32`] and [`crc32_tagged`] share one slicing-by-16
//!   table CRC — sixteen table lookups fold in a 16-byte block, and the
//!   tail goes byte at a time. Same CRC-32/IEEE values as the classic
//!   byte-at-a-time loop (kept in the tests as the reference), safe Rust,
//!   16 KiB of compile-time tables.
//! * **Varints:** [`write_varint`] and [`Cursor::varint`] take a
//!   one-byte fast path for values below 128 — most id gaps — and fall
//!   back to the full LEB128 loop, overflow checks included, otherwise.
//! * **PPV blocks:** a [`SparseVector`] stores its ids and values as two
//!   arrays, and the codec uses them as they are. [`write_ppv`] streams
//!   the id array straight into the gap encoder and writes the value
//!   array in one pass; [`read_ppv`] decodes the ids with the checked
//!   [`read_ids_delta`] (no zero gap, no overflow, every id below the
//!   bound), reads the value block in one `chunks_exact(8)` pass straight
//!   into the value array, and keeps the ids in read order — already
//!   strictly increasing, so there is no re-sort. The length is still
//!   validated with [`Cursor::checked_len`] before anything is
//!   allocated. The tests pin both functions against per-entry
//!   `(id, value)` reference implementations, on valid and on corrupted
//!   input.

use crate::SparseVector;
use ppr_graph::NodeId;
use std::fmt;

/// A malformed or truncated byte stream.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodecError {
    message: String,
}

impl CodecError {
    /// A new error with the given description.
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CodecError {}

impl From<CodecError> for std::io::Error {
    fn from(e: CodecError) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e.message)
    }
}

/// Codec result.
pub type Result<T> = std::result::Result<T, CodecError>;

fn err<T>(message: impl Into<String>) -> Result<T> {
    Err(CodecError::new(message))
}

// ------------------------------------------------------------------ CRC32

/// Slicing-by-16 CRC-32/IEEE tables (polynomial 0xEDB88320, reflected).
/// `CRC_TABLES[0]` is the classic byte-at-a-time table; `CRC_TABLES[k][b]`
/// is the CRC register after byte `b` is followed by `k` zero bytes, so
/// one 16-byte block folds in with sixteen independent lookups. 16 KiB,
/// built at compile time.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
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

/// Advance the (pre-inverted) CRC register `c` over `bytes`: sixteen
/// bytes per step through the slicing tables, then byte at a time for
/// the tail. Same register values as the byte-at-a-time loop.
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let [c0, c1, c2, c3] = c.to_le_bytes();
        c = t[15][usize::from(c0 ^ b[0])]
            ^ t[14][usize::from(c1 ^ b[1])]
            ^ t[13][usize::from(c2 ^ b[2])]
            ^ t[12][usize::from(c3 ^ b[3])]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][usize::from(c.to_le_bytes()[0] ^ b)] ^ (c >> 8);
    }
    c
}

/// CRC-32/IEEE of `bytes` (the zlib/`cksum -o3` polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(!0, bytes)
}

/// CRC-32/IEEE of the virtual message `tag || bytes`, without
/// concatenating buffers. The wire protocol seals each frame's type byte
/// together with its payload this way, so a corrupted type byte is a CRC
/// mismatch — not a reinterpretation of the payload under another frame
/// type.
pub fn crc32_tagged(tag: u8, bytes: &[u8]) -> u32 {
    !crc_update(crc_update(!0, &[tag]), bytes)
}

// ----------------------------------------------------------------- varint

/// Append `x` as LEB128 (7 bits per byte, high bit = continuation).
#[inline]
pub fn write_varint(buf: &mut Vec<u8>, mut x: u64) {
    if x < 0x80 {
        buf.push(x as u8);
        return;
    }
    loop {
        // audit:allow(lossy-id-cast): masked to the low 7 bits, fits u8
        let byte = (x & 0x7F) as u8;
        x >>= 7;
        if x == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

/// Map a signed value to an unsigned one with small absolute values
/// staying small (zigzag): 0, -1, 1, -2, ... → 0, 1, 2, 3, ...
pub fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(x: u64) -> i64 {
    ((x >> 1) as i64) ^ -((x & 1) as i64)
}

// ----------------------------------------------------------------- cursor

/// Bounds-checked reader over a byte slice. Every read either yields a
/// value or a [`CodecError`]; nothing panics and nothing reads past the
/// end.
#[derive(Clone, Copy, Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Absolute position from the start of the slice.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// True when every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.remaining() {
            return err(format!(
                "truncated input: need {n} bytes, {} remain",
                self.remaining()
            ));
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consume a raw-bit little-endian `f64`. The bit pattern is
    /// preserved exactly (including negative zero and NaN payloads), so
    /// save→load round-trips are bit-identical.
    pub fn f64_bits(&mut self) -> Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Consume a LEB128 varint (at most 10 bytes; the final byte of a
    /// maximal encoding may only contribute the low bit). A value below
    /// 128 — most delta gaps — takes the one-byte fast path.
    #[inline]
    pub fn varint(&mut self) -> Result<u64> {
        match self.bytes.get(self.pos) {
            Some(&b) if b < 0x80 => {
                self.pos += 1;
                Ok(u64::from(b))
            }
            _ => self.varint_multibyte(),
        }
    }

    fn varint_multibyte(&mut self) -> Result<u64> {
        let mut x = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift == 63 && byte > 1 {
                return err("varint overflows u64");
            }
            x |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(x);
            }
            shift += 7;
            if shift > 63 {
                return err("varint longer than 10 bytes");
            }
        }
    }

    /// Consume a varint and validate it as an element count: each of the
    /// `n` claimed elements occupies at least `min_element_bytes` of the
    /// remaining input, so a lying length field is rejected *before* any
    /// allocation happens — this is the anti-OOM gate every decoded
    /// collection goes through.
    pub fn checked_len(&mut self, min_element_bytes: usize) -> Result<usize> {
        let n = self.varint()?;
        let budget = (self.remaining() / min_element_bytes.max(1)) as u64;
        if n > budget {
            return err(format!(
                "length field claims {n} elements but only {} bytes remain",
                self.remaining()
            ));
        }
        Ok(n as usize)
    }
}

// ------------------------------------------------------------- id blocks

/// Append a strictly increasing id sequence as first-id + varint gaps.
/// Rejects unsorted or duplicated ids — the caller's sorted-distinct
/// invariant is enforced at the encoding boundary, not assumed.
pub fn write_ids_delta(buf: &mut Vec<u8>, ids: impl IntoIterator<Item = NodeId>) -> Result<()> {
    let mut prev: Option<NodeId> = None;
    for id in ids {
        let gap = match prev {
            None => id,
            Some(p) if id > p => id - p,
            Some(p) => return err(format!("non-monotone id sequence: {id} follows {p}")),
        };
        write_varint(buf, u64::from(gap));
        prev = Some(id);
    }
    Ok(())
}

/// Decode `count` delta-varint ids — the first id raw, each later one as
/// a non-zero gap from its predecessor — rejecting a duplicate, an
/// overflow, or an id at or past `bound`. Inverse of [`write_ids_delta`].
pub fn read_ids_delta(cur: &mut Cursor<'_>, count: usize, bound: u64) -> Result<Vec<NodeId>> {
    let mut ids = Vec::with_capacity(count);
    let mut prev: Option<NodeId> = None;
    for _ in 0..count {
        let v = cur.varint()?;
        let id = match prev {
            None => v,
            Some(_) if v == 0 => return err("zero delta in id sequence (duplicate id)"),
            Some(p) => match u64::from(p).checked_add(v) {
                Some(id) => id,
                None => return err("id delta overflows u64"),
            },
        };
        if id >= bound {
            return err(format!("id {id} out of bounds (node count {bound})"));
        }
        let id = NodeId::try_from(id)
            .map_err(|_| CodecError::new(format!("id {id} exceeds NodeId range")))?;
        ids.push(id);
        prev = Some(id);
    }
    Ok(ids)
}

// ------------------------------------------------------------- PPV blocks

/// Append a sparse vector: varint nnz, delta-varint ids, then raw `f64`
/// bits per entry. Ids must be strictly increasing (the
/// [`SparseVector`] invariant); violations are reported, not trusted.
pub fn write_ppv(buf: &mut Vec<u8>, v: &SparseVector) -> Result<()> {
    let nnz = v.nnz();
    write_varint(buf, nnz as u64);
    // One id byte and eight value bytes per entry at least.
    buf.reserve(9 * nnz);
    write_ids_delta(buf, v.ids().iter().copied())?;
    let values_at = buf.len();
    buf.resize(values_at + 8 * nnz, 0);
    for (out, x) in buf[values_at..].chunks_exact_mut(8).zip(v.vals()) {
        out.copy_from_slice(&x.to_bits().to_le_bytes());
    }
    Ok(())
}

/// Decode a PPV block written by [`write_ppv`]. Entries come back with
/// the exact bit patterns that went in; `bound` caps the id space.
///
/// The id chain is checked as it is read by [`read_ids_delta`] (no zero
/// gap, no overflow, every id below `bound`), so the ids are already
/// strictly increasing and are kept in read order without a re-sort; the
/// value block is read in one pass straight into the value array.
pub fn read_ppv(cur: &mut Cursor<'_>, bound: u64) -> Result<SparseVector> {
    // Each entry costs >= 1 id byte + 8 magnitude bytes.
    let nnz = cur.checked_len(9)?;
    let ids = read_ids_delta(cur, nnz, bound)?;
    // `nnz <= remaining / 9`, so the product cannot overflow.
    let vals = cur
        .take(8 * nnz)?
        .chunks_exact(8)
        .map(|b| {
            f64::from_bits(u64::from_le_bytes([
                b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
            ]))
        })
        .collect();
    Ok(SparseVector::from_sorted_parts(ids, vals))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip_varint(x: u64) -> u64 {
        let mut buf = Vec::new();
        write_varint(&mut buf, x);
        let mut cur = Cursor::new(&buf);
        let got = cur.varint().unwrap();
        assert!(cur.is_empty(), "trailing bytes after varint {x}");
        got
    }

    #[test]
    fn varint_boundary_values() {
        for x in [
            0u64,
            1,
            127,
            128,
            129,
            16_383,
            16_384,
            u64::from(u32::MAX) - 1,
            u64::from(u32::MAX),
            u64::from(u32::MAX) + 1,
            u64::MAX - 1,
            u64::MAX,
        ] {
            assert_eq!(roundtrip_varint(x), x);
        }
    }

    #[test]
    fn varint_rejects_overflow_and_truncation() {
        // 11 continuation bytes: longer than any valid u64 encoding.
        let long = [0x80u8; 11];
        assert!(Cursor::new(&long).varint().is_err());
        // 10 bytes whose final byte carries bits beyond the 64th.
        let mut over = [0x80u8; 10];
        over[9] = 0x02;
        assert!(Cursor::new(&over).varint().is_err());
        // Truncated mid-continuation.
        assert!(Cursor::new(&[0x80u8]).varint().is_err());
        assert!(Cursor::new(&[]).varint().is_err());
    }

    #[test]
    fn zigzag_boundary_values() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
        assert_eq!(zigzag(i64::MAX), u64::MAX - 1);
        assert_eq!(zigzag(i64::MIN), u64::MAX);
        for x in [0i64, 1, -1, 42, -42, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(x)), x);
        }
    }

    #[test]
    fn delta_empty_and_single() {
        for ids in [vec![], vec![0u32], vec![u32::MAX - 1]] {
            let mut buf = Vec::new();
            write_ids_delta(&mut buf, ids.iter().copied()).unwrap();
            let mut cur = Cursor::new(&buf);
            let got = read_ids_delta(&mut cur, ids.len(), u64::from(u32::MAX)).unwrap();
            assert_eq!(got, ids);
        }
    }

    #[test]
    fn delta_rejects_non_monotone_on_encode() {
        let mut buf = Vec::new();
        assert!(write_ids_delta(&mut buf, [3, 3]).is_err(), "duplicate");
        let mut buf = Vec::new();
        assert!(write_ids_delta(&mut buf, [5, 2]).is_err(), "descending");
    }

    #[test]
    fn delta_rejects_zero_gap_and_out_of_bounds_on_decode() {
        // Hand-built stream: first id 4, then gap 0 (a duplicate).
        let mut buf = Vec::new();
        write_varint(&mut buf, 4);
        write_varint(&mut buf, 0);
        assert!(read_ids_delta(&mut Cursor::new(&buf), 2, 100).is_err());
        // First id beyond the bound.
        let mut buf = Vec::new();
        write_varint(&mut buf, 100);
        assert!(read_ids_delta(&mut Cursor::new(&buf), 1, 100).is_err());
        // Accumulated id overflowing u64.
        let mut buf = Vec::new();
        write_varint(&mut buf, u64::MAX);
        write_varint(&mut buf, u64::MAX);
        assert!(read_ids_delta(&mut Cursor::new(&buf), 2, u64::MAX).is_err());
    }

    #[test]
    fn ppv_empty_block() {
        let mut buf = Vec::new();
        write_ppv(&mut buf, &SparseVector::new()).unwrap();
        assert_eq!(buf, vec![0u8]);
        let got = read_ppv(&mut Cursor::new(&buf), 10).unwrap();
        assert!(got.is_empty());
    }

    #[test]
    fn ppv_preserves_exotic_float_bits() {
        let v = SparseVector::from_entries(vec![
            (0u32, -0.0),
            (1, f64::MIN_POSITIVE / 4.0), // subnormal
            (7, 1.0e-300),
            (8, f64::MAX),
        ]);
        let mut buf = Vec::new();
        write_ppv(&mut buf, &v).unwrap();
        let got = read_ppv(&mut Cursor::new(&buf), 10).unwrap();
        let a: Vec<(u32, u64)> = v.iter().map(|(i, x)| (i, x.to_bits())).collect();
        let b: Vec<(u32, u64)> = got.iter().map(|(i, x)| (i, x.to_bits())).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn lying_length_field_is_rejected_before_allocating() {
        // A block claiming 2^60 entries backed by 3 bytes: checked_len
        // must fail from the byte budget without touching an allocator.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1u64 << 60);
        buf.extend_from_slice(&[1, 2, 3]);
        assert!(read_ppv(&mut Cursor::new(&buf), u64::MAX).is_err());
    }

    /// Byte-at-a-time CRC-32/IEEE: the reference [`crc32`] and
    /// [`crc32_tagged`] are pinned against.
    fn reference_crc32(bytes: &[u8]) -> u32 {
        const TABLE: [u32; 256] = {
            let mut table = [0u32; 256];
            let mut i = 0;
            while i < 256 {
                let mut c = i as u32;
                let mut bit = 0;
                while bit < 8 {
                    c = if c & 1 == 1 {
                        0xEDB8_8320 ^ (c >> 1)
                    } else {
                        c >> 1
                    };
                    bit += 1;
                }
                table[i] = c;
                i += 1;
            }
            table
        };
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    /// Per-entry PPV block encoder over `(id, value)` pairs, the
    /// reference for [`write_ppv`]: a temporary id `Vec`, a gap loop, and
    /// one append per value.
    fn reference_write_ppv(buf: &mut Vec<u8>, entries: &[(NodeId, f64)]) -> Result<()> {
        write_varint(buf, entries.len() as u64);
        let ids: Vec<NodeId> = entries.iter().map(|&(id, _)| id).collect();
        let mut prev: Option<NodeId> = None;
        for &id in &ids {
            match prev {
                None => write_varint(buf, u64::from(id)),
                Some(p) => {
                    if id <= p {
                        return err(format!("non-monotone id sequence: {id} follows {p}"));
                    }
                    write_varint(buf, u64::from(id - p));
                }
            }
            prev = Some(id);
        }
        for &(_, x) in entries {
            buf.extend_from_slice(&x.to_bits().to_le_bytes());
        }
        Ok(())
    }

    /// Per-entry PPV block decoder into `(id, value)` pairs, the
    /// reference for [`read_ppv`]: ids into a temporary `Vec`, one
    /// bounds-checked read per value, then a sort.
    fn reference_read_ppv(cur: &mut Cursor<'_>, bound: u64) -> Result<Vec<(NodeId, f64)>> {
        let nnz = cur.checked_len(9)?;
        let mut ids = Vec::with_capacity(nnz);
        let mut acc = 0u64;
        for i in 0..nnz {
            let v = cur.varint()?;
            if i == 0 {
                acc = v;
            } else {
                if v == 0 {
                    return err("zero delta in id sequence (duplicate id)");
                }
                acc = match acc.checked_add(v) {
                    Some(a) => a,
                    None => return err("id delta overflows u64"),
                };
            }
            if acc >= bound {
                return err(format!("id {acc} out of bounds (node count {bound})"));
            }
            match NodeId::try_from(acc) {
                Ok(id) => ids.push(id),
                Err(_) => return err(format!("id {acc} exceeds NodeId range")),
            }
        }
        let mut entries = Vec::with_capacity(nnz);
        for id in ids {
            entries.push((id, cur.f64_bits()?));
        }
        entries.sort_unstable_by_key(|e| e.0);
        Ok(entries)
    }

    fn bits(v: &SparseVector) -> Vec<(u32, u64)> {
        v.iter().map(|(i, x)| (i, x.to_bits())).collect()
    }

    fn entry_bits(entries: &[(NodeId, f64)]) -> Vec<(u32, u64)> {
        entries.iter().map(|&(i, x)| (i, x.to_bits())).collect()
    }

    /// SplitMix64: the corruption tests derive their flips from one seed.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A valid block mixing one-byte gaps (a dense cluster) with
    /// multi-byte gaps (ids spread over the whole `u32` range), as
    /// `(id, value)` pairs. Every other value slot is drawn from `-0.0`,
    /// `+0.0` and a NaN with payload, besides arbitrary bit patterns.
    fn mixed_block(dense_ids: Vec<u32>, far_ids: Vec<u32>, values: Vec<u64>) -> Vec<(NodeId, f64)> {
        let mut ids: Vec<u32> = dense_ids.into_iter().chain(far_ids).collect();
        ids.sort_unstable();
        ids.dedup();
        let special = |bits: u64| match bits % 6 {
            0 => -0.0,
            1 => 0.0,
            2 => f64::from_bits(0x7FF8_0000_0000_0000 | (bits >> 20)),
            _ => f64::from_bits(bits),
        };
        ids.into_iter()
            .zip(values.into_iter().cycle())
            .enumerate()
            .map(|(i, (id, bits))| {
                (
                    id,
                    if i % 2 == 0 {
                        special(bits)
                    } else {
                        f64::from_bits(bits)
                    },
                )
            })
            .collect()
    }

    /// Decode `bytes` with both decoders: they must agree on `Err`, and
    /// on the entry bits and the bytes consumed otherwise.
    fn decoders_agree(bytes: &[u8], bound: u64) -> std::result::Result<(), String> {
        let (mut a, mut b) = (Cursor::new(bytes), Cursor::new(bytes));
        match (reference_read_ppv(&mut a, bound), read_ppv(&mut b, bound)) {
            (Ok(x), Ok(y)) => {
                if entry_bits(&x) != bits(&y) || a.position() != b.position() {
                    return Err(format!("decoders disagree on {bytes:?}"));
                }
            }
            (Err(_), Err(_)) => {}
            (x, y) => {
                return Err(format!(
                    "reference {:?} vs bulk {:?} on {bytes:?} (bound {bound})",
                    x.is_ok(),
                    y.is_ok()
                ))
            }
        }
        Ok(())
    }

    #[test]
    fn bulk_decoder_keeps_every_check() {
        let block = |items: &[u64]| {
            let mut buf = Vec::new();
            for &x in items {
                write_varint(&mut buf, x);
            }
            buf
        };
        let values = [0u8; 16];
        let cases: Vec<(Vec<u8>, u64)> = vec![
            // zero gap (duplicate id)
            ([block(&[2, 4, 0]), values.to_vec()].concat(), 100),
            // id at the bound
            ([block(&[1, 100]), values[..8].to_vec()].concat(), 100),
            // accumulated id past the NodeId range
            ([block(&[2, u64::from(u32::MAX), 1]), values.to_vec()].concat(), u64::MAX),
            // delta chain overflowing u64
            ([block(&[2, u64::MAX, u64::MAX]), values.to_vec()].concat(), u64::MAX),
            // values truncated by one byte
            ([block(&[2, 1, 1]), values[..15].to_vec()].concat(), 100),
        ];
        for (bytes, bound) in cases {
            assert!(read_ppv(&mut Cursor::new(&bytes), bound).is_err(), "{bytes:?}");
            decoders_agree(&bytes, bound).unwrap();
        }
    }

    #[test]
    fn crc32_known_vectors() {
        // Standard CRC-32/IEEE check values.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    proptest! {
        #[test]
        fn varint_roundtrips(x in 0u64..=u64::MAX) {
            prop_assert_eq!(roundtrip_varint(x), x);
        }

        #[test]
        fn zigzag_roundtrips(x in i64::MIN..=i64::MAX) {
            prop_assert_eq!(unzigzag(zigzag(x)), x);
            // Small magnitudes stay small (the property delta coding uses).
            if x.abs() < (1 << 20) {
                prop_assert!(zigzag(x) < (1 << 21));
            }
        }

        #[test]
        fn id_blocks_roundtrip(raw_ids in proptest::collection::vec(0u32..1_000_000, 0..200)) {
            let mut ids = raw_ids;
            ids.sort_unstable();
            ids.dedup();
            let mut buf = Vec::new();
            write_ids_delta(&mut buf, ids.iter().copied()).unwrap();
            let mut cur = Cursor::new(&buf);
            let got = read_ids_delta(&mut cur, ids.len(), 1_000_000).unwrap();
            prop_assert_eq!(got, ids);
            prop_assert!(cur.is_empty());
        }

        #[test]
        fn crc32_equals_byte_at_a_time_reference(
            buf in proptest::collection::vec(0u8..=255, 16..4_112),
            len in 0usize..4_096,
            tag in 0u8..=255,
        ) {
            // Every start offset 0..16, so the 16-byte blocks fall at every
            // alignment and every tail length is exercised.
            let len = len.min(buf.len() - 16);
            for offset in 0..16 {
                let bytes = &buf[offset..offset + len];
                prop_assert_eq!(crc32(bytes), reference_crc32(bytes));
                let tagged: Vec<u8> = std::iter::once(tag).chain(bytes.iter().copied()).collect();
                prop_assert_eq!(crc32_tagged(tag, bytes), crc32(&tagged));
            }
        }

        #[test]
        fn bulk_ppv_codec_matches_reference(
            dense_ids in proptest::collection::vec(0u32..400, 0..150),
            far_ids in proptest::collection::vec(0u32..=u32::MAX, 0..20),
            values in proptest::collection::vec(0u64..=u64::MAX, 1..8),
            seed in 0u64..=u64::MAX,
        ) {
            let entries = mixed_block(dense_ids, far_ids, values);
            let v = SparseVector::from_entries(entries.clone());
            // Both encoders append to a non-empty buffer identically.
            let (mut want, mut got) = (vec![0xAB], vec![0xAB]);
            reference_write_ppv(&mut want, &entries).unwrap();
            write_ppv(&mut got, &v).unwrap();
            prop_assert_eq!(&want, &got);
            let bytes = &got[1..];
            let max_id = entries.last().map_or(0, |&(id, _)| u64::from(id));
            // A valid block, under a roomy bound and under one the last id
            // reaches.
            decoders_agree(bytes, u64::MAX)?;
            decoders_agree(bytes, max_id + 1)?;
            decoders_agree(bytes, max_id)?;
            let mut rng = seed;
            for _ in 0..24 {
                let mut bad = bytes.to_vec();
                match splitmix(&mut rng) % 5 {
                    // Random byte flips.
                    0 => {
                        for _ in 0..=splitmix(&mut rng) % 3 {
                            let at = (splitmix(&mut rng) % bad.len() as u64) as usize;
                            bad[at] ^= (splitmix(&mut rng) % 255 + 1) as u8;
                        }
                    }
                    // One byte set to a varint edge: a zero gap, a one-byte
                    // maximum, or a continuation that swallows what follows.
                    1 => {
                        let at = (splitmix(&mut rng) % bad.len() as u64) as usize;
                        let edges = [0x00, 0x01, 0x7F, 0x80, 0xFF];
                        bad[at] = edges[(splitmix(&mut rng) % 5) as usize];
                    }
                    // Truncation.
                    2 => bad.truncate((splitmix(&mut rng) % bad.len() as u64) as usize),
                    // A lying nnz, just off the truth or far past it.
                    _ => {
                        let nnz = v.nnz() as u64;
                        let lie = match splitmix(&mut rng) % 3 {
                            0 => nnz.saturating_sub(1 + splitmix(&mut rng) % 3),
                            1 => nnz + 1 + splitmix(&mut rng) % 3,
                            _ => splitmix(&mut rng) >> (splitmix(&mut rng) % 64),
                        };
                        let mut head = Cursor::new(&bad);
                        head.varint().unwrap();
                        let mut lied = Vec::new();
                        write_varint(&mut lied, lie);
                        lied.extend_from_slice(&bad[head.position()..]);
                        bad = lied;
                    }
                }
                decoders_agree(&bad, u64::MAX)?;
                decoders_agree(&bad, max_id + 1)?;
            }
        }

        #[test]
        fn ppv_blocks_roundtrip(
            entries in proptest::collection::btree_map(
                0u32..10_000,
                // Arbitrary bit patterns: magnitudes round-trip raw, so
                // exotic floats (subnormals, huge exponents) must survive.
                (0u64..=u64::MAX).prop_map(f64::from_bits),
                0..100,
            )
        ) {
            let v = SparseVector::from_entries(
                entries.into_iter().filter(|&(_, x)| x != 0.0).collect(),
            );
            let mut buf = Vec::new();
            write_ppv(&mut buf, &v).unwrap();
            let mut cur = Cursor::new(&buf);
            let got = read_ppv(&mut cur, 10_000).unwrap();
            prop_assert!(cur.is_empty());
            let a: Vec<(u32, u64)> = v.iter().map(|(i, x)| (i, x.to_bits())).collect();
            let b: Vec<(u32, u64)> = got.iter().map(|(i, x)| (i, x.to_bits())).collect();
            prop_assert_eq!(a, b);
        }
    }
}
