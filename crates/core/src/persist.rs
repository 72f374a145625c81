//! The on-disk index format: versioned, checksummed, compressed.
//!
//! The paper's §5 precomputation runs for hours (Figures 12/16); nobody
//! recomputes it per process. This module makes built indexes durable
//! artifacts: an [`HgpaIndex`] — a GPA index included, since GPA is the
//! one-level HGPA ([`crate::gpa`]) — saves to (and loads from) a
//! self-contained binary format with no external serialization crates,
//! so a serving process can **cold-start from disk** and answer
//! bit-identical queries without touching the builder.
//!
//! ## Layout (version 2)
//!
//! ```text
//! offset 0   magic            b"PPRX"                      4 bytes
//! offset 4   version          u32 LE  (= 2)                4 bytes
//! offset 8   kind             u32 LE  (= 2)                4 bytes
//! offset 12  section count    u32 LE                       4 bytes
//! offset 16  section table    count x { tag [u8;4], len u64 LE, crc32 u32 LE }
//! then       header crc32     u32 LE over bytes [0, 16 + 16*count)
//! then       section payloads, concatenated in table order
//! ```
//!
//! Sections are tagged byte blobs; each carries its own CRC-32 in the
//! table and the table itself is covered by the header CRC, so **every
//! byte of the file is checksummed** — any truncation, bit flip, or
//! zero-fill is detected before a single field is decoded. PPV blocks
//! (partial vectors, leaf PPVs, skeleton columns) are compressed as
//! delta-varint node ids plus raw-bit `f64` magnitudes
//! ([`codec::write_ppv`]): supports cluster inside subgraphs, so gaps
//! are small, while the untouched float bits make save→load round-trips
//! **bit-identical** — the exactness gate holds on a loaded index.
//!
//! Loading defends in depth: length fields are validated against the
//! bytes actually present before any allocation
//! ([`codec::Cursor::checked_len`]), ids are bounds-checked and must be
//! strictly monotone, machine assignments must be in range, and the
//! hierarchy's parent pointers must be topologically ordered (so query
//! walks terminate). Every failure is an [`io::Error`] — the loader
//! never panics, which keeps `ppr-serve` cold-start panic-free.
//!
//! Version-1 files (the pre-codec, uncompressed, HGPA-only layout) are
//! no longer readable; the loader identifies them by their version field
//! and reports a rebuild-and-re-save error. Likewise kind 1, the retired
//! flat-partition layout (a `PART` section instead of `HIER`): GPA
//! indexes are now saved as one-level HGPA files, and a kind-1 file gets
//! a rebuild-and-re-save error.

use crate::codec::{self, crc32, write_varint, Cursor};
use crate::hgpa::{HgpaBuildStats, HgpaIndex};
use crate::{PprConfig, SparseVector};
use ppr_graph::NodeId;
use ppr_partition::{Hierarchy, SubgraphNode};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"PPRX";
/// The format version this build writes and reads.
pub const FORMAT_VERSION: u32 = 2;
/// Sanity cap on the section count (the format defines fewer than ten).
const MAX_SECTIONS: u32 = 32;
/// Sanity cap on the persisted machine count (guards the per-machine
/// vectors allocated by storage accounting).
const MAX_MACHINES: u64 = 1 << 20;

/// Kind word of the retired flat-partition (GPA) layout.
const KIND_GPA: u32 = 1;
/// Kind word of every file this build writes and reads.
const KIND_HGPA: u32 = 2;

// Section tags.
const TAG_CFG: [u8; 4] = *b"CFG\0";
const TAG_HIER: [u8; 4] = *b"HIER";
const TAG_PLAC: [u8; 4] = *b"PLAC";
const TAG_BASE: [u8; 4] = *b"BASE";
const TAG_SKEL: [u8; 4] = *b"SKEL";
const TAG_STAT: [u8; 4] = *b"STAT";

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

// -------------------------------------------------------------- container

/// One section's location inside a persisted file, as listed by
/// [`sections`] (tooling / test introspection).
#[derive(Clone, Copy, Debug)]
pub struct SectionInfo {
    /// Four-byte section tag (e.g. `BASE`).
    pub tag: [u8; 4],
    /// Byte offset of the payload from the start of the file.
    pub offset: usize,
    /// Payload length in bytes.
    pub len: usize,
    /// CRC-32 of the payload, as recorded in the section table.
    pub crc: u32,
}

/// A writer-side section: tag plus accumulated payload.
struct SectionBuf {
    tag: [u8; 4],
    payload: Vec<u8>,
}

/// Assemble and emit a complete file from its sections.
fn write_container<W: Write>(mut w: W, sections: &[SectionBuf]) -> io::Result<()> {
    if sections.len() > MAX_SECTIONS as usize {
        return Err(bad("too many sections to write"));
    }
    let mut header = Vec::with_capacity(16 + 16 * sections.len());
    header.extend_from_slice(MAGIC);
    header.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    header.extend_from_slice(&KIND_HGPA.to_le_bytes());
    // audit:allow(lossy-id-cast): bounded by the MAX_SECTIONS check above
    header.extend_from_slice(&(sections.len() as u32).to_le_bytes());
    for s in sections {
        header.extend_from_slice(&s.tag);
        header.extend_from_slice(&(s.payload.len() as u64).to_le_bytes());
        header.extend_from_slice(&crc32(&s.payload).to_le_bytes());
    }
    let header_crc = crc32(&header);
    w.write_all(&header)?;
    w.write_all(&header_crc.to_le_bytes())?;
    for s in sections {
        w.write_all(&s.payload)?;
    }
    w.flush()
}

/// Parse and fully verify a file's header, returning the CRC-verified
/// section list. Shared by the loader and by [`sections`].
fn parse_container(bytes: &[u8]) -> io::Result<Vec<SectionInfo>> {
    let mut cur = Cursor::new(bytes);
    let magic = cur.take(4).map_err(|_| bad("file too short for magic"))?;
    if magic != MAGIC {
        return Err(bad("not an exact-ppr index file (bad magic)"));
    }
    let version = cur.u32().map_err(io::Error::from)?;
    if version != FORMAT_VERSION {
        return Err(bad(format!(
            "unsupported index format version {version} (this build reads version \
             {FORMAT_VERSION}; version-1 files predate the sectioned format — \
             rebuild the index and re-save)"
        )));
    }
    match cur.u32().map_err(io::Error::from)? {
        KIND_HGPA => {}
        KIND_GPA => {
            return Err(bad(
                "file holds a flat GPA index (kind 1), a layout this build no longer \
                 reads; rebuild the index and re-save it",
            ))
        }
        other => return Err(bad(format!("unknown index kind {other}"))),
    }
    let count = cur.u32().map_err(io::Error::from)?;
    if count > MAX_SECTIONS {
        return Err(bad(format!("section count {count} exceeds sanity cap")));
    }
    let header_len = 16usize + 16 * count as usize;
    if bytes.len() < header_len + 4 {
        return Err(bad("truncated file: section table cut short"));
    }
    let stored_crc = u32::from_le_bytes([
        bytes[header_len],
        bytes[header_len + 1],
        bytes[header_len + 2],
        bytes[header_len + 3],
    ]);
    if crc32(&bytes[..header_len]) != stored_crc {
        return Err(bad("header checksum mismatch"));
    }

    let mut sections = Vec::with_capacity(count as usize);
    let mut offset = header_len + 4;
    for _ in 0..count {
        let tag_bytes = cur.take(4).map_err(io::Error::from)?;
        let tag = [tag_bytes[0], tag_bytes[1], tag_bytes[2], tag_bytes[3]];
        let len64 = cur.u64().map_err(io::Error::from)?;
        let crc = cur.u32().map_err(io::Error::from)?;
        let Ok(len) = usize::try_from(len64) else {
            return Err(bad("section length exceeds address space"));
        };
        let Some(end) = offset.checked_add(len) else {
            return Err(bad("section length overflows file offset"));
        };
        if end > bytes.len() {
            return Err(bad(format!(
                "truncated file: section {} claims {len} bytes past the end",
                tag_str(tag)
            )));
        }
        if sections.iter().any(|s: &SectionInfo| s.tag == tag) {
            return Err(bad(format!("duplicate section {}", tag_str(tag))));
        }
        sections.push(SectionInfo {
            tag,
            offset,
            len,
            crc,
        });
        offset = end;
    }
    if offset != bytes.len() {
        return Err(bad(format!(
            "file length mismatch: sections end at byte {offset}, file has {}",
            bytes.len()
        )));
    }
    for s in &sections {
        if crc32(&bytes[s.offset..s.offset + s.len]) != s.crc {
            return Err(bad(format!("section {} checksum mismatch", tag_str(s.tag))));
        }
    }
    Ok(sections)
}

fn tag_str(tag: [u8; 4]) -> String {
    tag.iter()
        .map(|&b| {
            if b.is_ascii_graphic() {
                char::from(b)
            } else {
                '.'
            }
        })
        .collect()
}

/// Header-validate `bytes` and list its sections (tag, offset, length,
/// CRC) without decoding any payload. For tooling and the corruption
/// test suite; fails on exactly the containers the loaders reject.
pub fn sections(bytes: &[u8]) -> io::Result<Vec<SectionInfo>> {
    parse_container(bytes)
}

/// Locate a required section's payload.
fn section<'a>(
    bytes: &'a [u8],
    sections: &[SectionInfo],
    tag: [u8; 4],
) -> io::Result<Cursor<'a>> {
    sections
        .iter()
        .find(|s| s.tag == tag)
        .map(|s| Cursor::new(&bytes[s.offset..s.offset + s.len]))
        .ok_or_else(|| bad(format!("missing section {}", tag_str(tag))))
}

/// A decoded section must leave no unconsumed bytes.
fn finish(cur: Cursor<'_>, tag: [u8; 4]) -> io::Result<()> {
    if cur.is_empty() {
        Ok(())
    } else {
        Err(bad(format!(
            "section {} has {} trailing bytes",
            tag_str(tag),
            cur.remaining()
        )))
    }
}

// ------------------------------------------------------------ CFG section

struct Header {
    cfg: PprConfig,
    n: usize,
    machines: usize,
}

fn encode_cfg(cfg: &PprConfig, n: usize, machines: usize) -> SectionBuf {
    let mut payload = Vec::new();
    payload.extend_from_slice(&cfg.alpha.to_bits().to_le_bytes());
    payload.extend_from_slice(&cfg.epsilon.to_bits().to_le_bytes());
    write_varint(&mut payload, u64::from(cfg.max_iterations));
    write_varint(&mut payload, n as u64);
    write_varint(&mut payload, machines as u64);
    SectionBuf {
        tag: TAG_CFG,
        payload,
    }
}

fn decode_cfg(bytes: &[u8], secs: &[SectionInfo]) -> io::Result<Header> {
    let mut cur = section(bytes, secs, TAG_CFG)?;
    let alpha = cur.f64_bits().map_err(io::Error::from)?;
    let epsilon = cur.f64_bits().map_err(io::Error::from)?;
    let max_iterations = cur.varint().map_err(io::Error::from)?;
    let n = cur.varint().map_err(io::Error::from)?;
    let machines = cur.varint().map_err(io::Error::from)?;
    finish(cur, TAG_CFG)?;

    // Validate with errors, not the builder's panicking asserts: a
    // forged file must never take the loader down.
    if !(alpha.is_finite() && alpha > 0.0 && alpha < 1.0) {
        return Err(bad(format!("persisted alpha {alpha} outside (0,1)")));
    }
    if !(epsilon.is_finite() && epsilon > 0.0) {
        return Err(bad(format!("persisted epsilon {epsilon} not positive")));
    }
    let Ok(max_iterations) = u32::try_from(max_iterations) else {
        return Err(bad("persisted max_iterations exceeds u32"));
    };
    if max_iterations == 0 {
        return Err(bad("persisted max_iterations is zero"));
    }
    if n > u64::from(NodeId::MAX) {
        return Err(bad(format!("node count {n} exceeds NodeId range")));
    }
    if machines == 0 || machines > MAX_MACHINES {
        return Err(bad(format!("machine count {machines} outside [1, 2^20]")));
    }
    Ok(Header {
        cfg: PprConfig {
            alpha,
            epsilon,
            max_iterations,
        },
        n: n as usize,
        machines: machines as usize,
    })
}

// ---------------------------------------------------------- PPV sections

fn encode_ppv_list(tag: [u8; 4], vectors: &[SparseVector]) -> io::Result<SectionBuf> {
    let mut payload = Vec::new();
    write_varint(&mut payload, vectors.len() as u64);
    for v in vectors {
        codec::write_ppv(&mut payload, v)?;
    }
    Ok(SectionBuf { tag, payload })
}

fn decode_ppv_list(
    bytes: &[u8],
    secs: &[SectionInfo],
    tag: [u8; 4],
    expect: usize,
    bound: u64,
) -> io::Result<Vec<SparseVector>> {
    let mut cur = section(bytes, secs, tag)?;
    // Each vector costs at least its one-byte nnz varint.
    let count = cur.checked_len(1).map_err(io::Error::from)?;
    if count != expect {
        return Err(bad(format!(
            "section {} holds {count} vectors, expected {expect}",
            tag_str(tag)
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        out.push(codec::read_ppv(&mut cur, bound)?);
    }
    finish(cur, tag)?;
    Ok(out)
}

// ------------------------------------------------- machine-placement lists

fn write_machine_list(payload: &mut Vec<u8>, machines_of: &[u32]) {
    write_varint(payload, machines_of.len() as u64);
    for &m in machines_of {
        write_varint(payload, u64::from(m));
    }
}

fn read_machine_list(
    cur: &mut Cursor<'_>,
    expect: usize,
    machines: usize,
    what: &str,
) -> io::Result<Vec<u32>> {
    let count = cur.checked_len(1).map_err(io::Error::from)?;
    if count != expect {
        return Err(bad(format!(
            "{what} placement lists {count} entries, expected {expect}"
        )));
    }
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let m = cur.varint().map_err(io::Error::from)?;
        if m >= machines as u64 {
            return Err(bad(format!(
                "{what} placement names machine {m} of {machines}"
            )));
        }
        let Ok(m) = u32::try_from(m) else {
            return Err(bad(format!("{what} placement machine id exceeds u32")));
        };
        out.push(m);
    }
    Ok(out)
}

// ------------------------------------------------------------ HGPA format

/// Write an [`HgpaIndex`] to `writer` in the sectioned format.
pub fn save_hgpa<W: Write>(index: &HgpaIndex, writer: W) -> io::Result<()> {
    let n = index.node_count();
    let machines = index.machines();
    let hierarchy = index.hierarchy();

    let mut hier = Vec::new();
    write_varint(&mut hier, hierarchy.nodes.len() as u64);
    for node in &hierarchy.nodes {
        write_varint(&mut hier, u64::from(node.level));
        write_varint(&mut hier, node.parent.map_or(0, |p| p as u64 + 1));
        write_varint(&mut hier, node.children.len() as u64);
        for &c in &node.children {
            write_varint(&mut hier, c as u64);
        }
        write_varint(&mut hier, node.members.len() as u64);
        codec::write_ids_delta(&mut hier, node.members.iter().copied())?;
        write_varint(&mut hier, node.hubs.len() as u64);
        codec::write_ids_delta(&mut hier, node.hubs.iter().copied())?;
    }
    write_varint(&mut hier, hierarchy.home.len() as u64);
    for &h in &hierarchy.home {
        write_varint(&mut hier, h as u64);
    }
    write_varint(&mut hier, hierarchy.hub_level.len() as u64);
    for &hl in &hierarchy.hub_level {
        write_varint(&mut hier, hl.map_or(0, |l| u64::from(l) + 1));
    }
    write_varint(&mut hier, u64::from(hierarchy.depth));

    let mut plac = Vec::new();
    write_varint(&mut plac, index.hub_ids().len() as u64);
    for &h in index.hub_ids() {
        write_varint(&mut plac, u64::from(h));
    }
    write_machine_list(&mut plac, index.machine_of_hub());
    write_machine_list(&mut plac, index.machine_of_base());

    let stats = index.stats();
    let mut stat = Vec::new();
    write_varint(&mut stat, stats.partial_pushes);
    write_varint(&mut stat, stats.skeleton_columns as u64);
    write_varint(&mut stat, stats.leaf_vectors as u64);
    write_varint(&mut stat, stats.dropped_entries as u64);

    let sections = [
        encode_cfg(index.config(), n, machines),
        SectionBuf {
            tag: TAG_HIER,
            payload: hier,
        },
        SectionBuf {
            tag: TAG_PLAC,
            payload: plac,
        },
        encode_ppv_list(TAG_BASE, index.base_vectors())?,
        encode_ppv_list(TAG_SKEL, index.skeleton_columns())?,
        SectionBuf {
            tag: TAG_STAT,
            payload: stat,
        },
    ];
    write_container(writer, &sections)
}

fn decode_hierarchy(cur: &mut Cursor<'_>, n: usize) -> io::Result<Hierarchy> {
    let bound = n as u64;
    let node_count = cur.checked_len(1).map_err(io::Error::from)?;
    let mut nodes = Vec::with_capacity(node_count);
    for i in 0..node_count {
        let level64 = cur.varint().map_err(io::Error::from)?;
        let Ok(level) = u32::try_from(level64) else {
            return Err(bad("hierarchy level exceeds u32"));
        };
        let parent_plus1 = cur.varint().map_err(io::Error::from)?;
        // Parent pointers must point strictly backwards in the arena
        // (the builder appends children after parents); this is what
        // guarantees root-to-home query walks terminate on a loaded
        // index, so it is enforced here rather than assumed.
        let parent = match parent_plus1 {
            0 => {
                if i != 0 {
                    return Err(bad(format!("hierarchy node {i} claims to be a root")));
                }
                None
            }
            p => {
                let p = p - 1;
                if p >= i as u64 {
                    return Err(bad(format!(
                        "hierarchy node {i} has forward parent pointer {p}"
                    )));
                }
                Some(p as usize)
            }
        };
        if i == 0 && parent.is_some() {
            return Err(bad("hierarchy root has a parent"));
        }
        let child_count = cur.checked_len(1).map_err(io::Error::from)?;
        let mut children = Vec::with_capacity(child_count);
        for _ in 0..child_count {
            let c = cur.varint().map_err(io::Error::from)?;
            if c >= node_count as u64 {
                return Err(bad("hierarchy child index out of bounds"));
            }
            children.push(c as usize);
        }
        let member_count = cur.checked_len(1).map_err(io::Error::from)?;
        let members = codec::read_ids_delta(cur, member_count, bound)?;
        let hub_count = cur.checked_len(1).map_err(io::Error::from)?;
        let hubs = codec::read_ids_delta(cur, hub_count, bound)?;
        nodes.push(SubgraphNode {
            level,
            parent,
            children,
            members,
            hubs,
        });
    }

    let home_count = cur.checked_len(1).map_err(io::Error::from)?;
    if home_count != n {
        return Err(bad(format!(
            "hierarchy home lists {home_count} nodes, expected {n}"
        )));
    }
    let mut home = Vec::with_capacity(n);
    for _ in 0..n {
        let h = cur.varint().map_err(io::Error::from)?;
        if h >= node_count as u64 {
            return Err(bad("hierarchy home index out of bounds"));
        }
        home.push(h as usize);
    }

    let hl_count = cur.checked_len(1).map_err(io::Error::from)?;
    if hl_count != n {
        return Err(bad(format!(
            "hierarchy hub levels list {hl_count} nodes, expected {n}"
        )));
    }
    let mut hub_level = Vec::with_capacity(n);
    for _ in 0..n {
        let hl = cur.varint().map_err(io::Error::from)?;
        hub_level.push(match hl {
            0 => None,
            l => match u32::try_from(l - 1) {
                Ok(l) => Some(l),
                Err(_) => return Err(bad("hub level exceeds u32")),
            },
        });
    }
    let depth64 = cur.varint().map_err(io::Error::from)?;
    let Ok(depth) = u32::try_from(depth64) else {
        return Err(bad("hierarchy depth exceeds u32"));
    };
    Ok(Hierarchy {
        nodes,
        home,
        hub_level,
        depth,
    })
}

fn decode_hgpa(bytes: &[u8], secs: &[SectionInfo]) -> io::Result<HgpaIndex> {
    let header = decode_cfg(bytes, secs)?;
    let (n, machines) = (header.n, header.machines);
    let bound = n as u64;

    let mut cur = section(bytes, secs, TAG_HIER)?;
    let hierarchy = decode_hierarchy(&mut cur, n)?;
    finish(cur, TAG_HIER)?;

    let mut cur = section(bytes, secs, TAG_PLAC)?;
    let hub_count = cur.checked_len(1).map_err(io::Error::from)?;
    let mut hub_ids = Vec::with_capacity(hub_count);
    let mut hub_rank = vec![u32::MAX; n];
    for rank in 0..hub_count {
        let h = cur.varint().map_err(io::Error::from)?;
        if h >= bound {
            return Err(bad(format!("hub id {h} out of bounds")));
        }
        let h = h as NodeId;
        if hub_rank[h as usize] != u32::MAX {
            return Err(bad(format!("hub {h} listed twice")));
        }
        let Ok(rank32) = u32::try_from(rank) else {
            return Err(bad("hub rank exceeds u32"));
        };
        hub_rank[h as usize] = rank32;
        hub_ids.push(h);
    }
    let machine_of_hub = read_machine_list(&mut cur, hub_ids.len(), machines, "hub")?;
    let machine_of_base = read_machine_list(&mut cur, n, machines, "base")?;
    finish(cur, TAG_PLAC)?;

    let base = decode_ppv_list(bytes, secs, TAG_BASE, n, bound)?;
    let skeletons = decode_ppv_list(bytes, secs, TAG_SKEL, hub_ids.len(), bound)?;

    let mut cur = section(bytes, secs, TAG_STAT)?;
    let partial_pushes = cur.varint().map_err(io::Error::from)?;
    let to_usize = |x: u64, what: &str| -> io::Result<usize> {
        usize::try_from(x).map_err(|_| bad(format!("persisted {what} exceeds usize")))
    };
    let stats = HgpaBuildStats {
        partial_pushes,
        skeleton_columns: to_usize(cur.varint().map_err(io::Error::from)?, "stat")?,
        leaf_vectors: to_usize(cur.varint().map_err(io::Error::from)?, "stat")?,
        dropped_entries: to_usize(cur.varint().map_err(io::Error::from)?, "stat")?,
    };
    finish(cur, TAG_STAT)?;

    Ok(HgpaIndex::from_persist_parts(
        n,
        header.cfg,
        machines,
        hierarchy,
        base,
        hub_rank,
        hub_ids,
        skeletons,
        machine_of_hub,
        machine_of_base,
        stats,
    ))
}

// ------------------------------------------------------------- public API

/// The index a persisted file holds — there is one index type, so this
/// is [`HgpaIndex`]; the name stays for callers that use it.
pub type PersistedIndex = HgpaIndex;

/// Read an index previously written by [`save_hgpa`].
pub fn load_index<R: Read>(mut reader: R) -> io::Result<HgpaIndex> {
    // Allocation is bounded by what the stream actually yields, so a
    // lying length field inside the file cannot inflate this read.
    let mut bytes = Vec::new();
    reader.read_to_end(&mut bytes)?;
    let secs = parse_container(&bytes)?;
    decode_hgpa(&bytes, &secs)
}

/// Convenience: save an index to a filesystem path.
pub fn save_hgpa_file<P: AsRef<std::path::Path>>(index: &HgpaIndex, path: P) -> io::Result<()> {
    save_hgpa(index, io::BufWriter::new(std::fs::File::create(path)?))
}

/// Convenience: load an index from a filesystem path.
pub fn load_index_file<P: AsRef<std::path::Path>>(path: P) -> io::Result<HgpaIndex> {
    load_index(io::BufReader::new(std::fs::File::open(path)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpa::{self, GpaBuildOptions};
    use crate::hgpa::HgpaBuildOptions;
    use ppr_graph::generators::{hierarchical_sbm, HsbmConfig};

    fn sample_graph() -> ppr_graph::CsrGraph {
        hierarchical_sbm(
            &HsbmConfig {
                nodes: 150,
                ..Default::default()
            },
            61,
        )
    }

    fn sample_hgpa() -> HgpaIndex {
        HgpaIndex::build(
            &sample_graph(),
            &PprConfig {
                epsilon: 1e-7,
                ..Default::default()
            },
            &HgpaBuildOptions::default(),
        )
    }

    fn sample_gpa() -> HgpaIndex {
        gpa::build(
            &sample_graph(),
            &PprConfig {
                epsilon: 1e-7,
                ..Default::default()
            },
            &GpaBuildOptions::default(),
        )
        .0
    }

    #[test]
    fn hgpa_roundtrip_preserves_queries_and_stats() {
        let idx = sample_hgpa();
        let mut buf = Vec::new();
        save_hgpa(&idx, &mut buf).unwrap();
        let loaded = load_index(buf.as_slice()).unwrap();
        for u in [0u32, 42, 149] {
            assert_eq!(idx.query(u), loaded.query(u), "u {u}");
        }
        assert_eq!(idx.machines(), loaded.machines());
        assert_eq!(idx.hub_ids(), loaded.hub_ids());
        assert_eq!(idx.stored_entries(), loaded.stored_entries());
        assert_eq!(idx.stats(), loaded.stats());
    }

    #[test]
    fn one_level_roundtrip_keeps_the_hierarchy() {
        let idx = sample_gpa();
        let mut buf = Vec::new();
        save_hgpa(&idx, &mut buf).unwrap();
        let loaded = load_index(buf.as_slice()).unwrap();
        assert_eq!(idx.hierarchy(), loaded.hierarchy());
        for u in [0u32, 42, 149] {
            assert_eq!(idx.query(u), loaded.query(u), "u {u}");
        }
        assert_eq!(idx.hub_ids(), loaded.hub_ids());
        assert_eq!(idx.stored_entries(), loaded.stored_entries());
    }

    #[test]
    fn retired_gpa_kind_asks_for_a_rebuild() {
        let mut buf = Vec::new();
        save_hgpa(&sample_gpa(), &mut buf).unwrap();
        // Reseal a kind-1 header so only the kind word is wrong.
        let header_len = 16 + 16 * sections(&buf).unwrap().len();
        buf[8..12].copy_from_slice(&KIND_GPA.to_le_bytes());
        let crc = crc32(&buf[..header_len]);
        buf[header_len..header_len + 4].copy_from_slice(&crc.to_le_bytes());
        let err = load_index(buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("rebuild"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let err = load_index(&b"NOPE00000000"[..]).unwrap_err();
        assert!(err.to_string().contains("bad magic"));
    }

    #[test]
    fn rejects_old_and_future_versions() {
        for version in [1u32, 99] {
            let mut buf = Vec::new();
            buf.extend_from_slice(MAGIC);
            buf.extend_from_slice(&version.to_le_bytes());
            buf.extend_from_slice(&[0u8; 64]);
            let err = load_index(buf.as_slice()).unwrap_err();
            assert!(err.to_string().contains("version"), "{err}");
        }
    }

    #[test]
    fn rejects_truncation() {
        let idx = sample_hgpa();
        let mut buf = Vec::new();
        save_hgpa(&idx, &mut buf).unwrap();
        for cut in [0usize, 3, 10, buf.len() / 2, buf.len() - 3] {
            assert!(load_index(&buf[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn file_roundtrip() {
        let idx = sample_hgpa();
        let dir = std::env::temp_dir().join("ppr_persist_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("idx.pprx");
        save_hgpa_file(&idx, &path).unwrap();
        let loaded = load_index_file(&path).unwrap();
        assert_eq!(idx.query(7), loaded.query(7));
    }

    #[test]
    fn machine_vectors_survive_roundtrip() {
        let idx = sample_hgpa();
        let mut buf = Vec::new();
        save_hgpa(&idx, &mut buf).unwrap();
        let loaded = load_index(buf.as_slice()).unwrap();
        for m in 0..idx.machines() as u32 {
            assert_eq!(idx.machine_vector(33, m), loaded.machine_vector(33, m));
        }
    }

    #[test]
    fn sections_lists_the_documented_layout() {
        let mut buf = Vec::new();
        save_hgpa(&sample_hgpa(), &mut buf).unwrap();
        let secs = sections(&buf).unwrap();
        let tags: Vec<[u8; 4]> = secs.iter().map(|s| s.tag).collect();
        assert_eq!(
            tags,
            vec![TAG_CFG, TAG_HIER, TAG_PLAC, TAG_BASE, TAG_SKEL, TAG_STAT]
        );
        // Sections are contiguous after the header and cover the file.
        let header_len = 16 + 16 * secs.len() + 4;
        assert_eq!(secs[0].offset, header_len);
        assert_eq!(secs.last().unwrap().offset + secs.last().unwrap().len, buf.len());
    }
}
