//! Hostile-input suite for the storage tier: a loader facing a
//! truncated, bit-flipped, zero-filled, version-bumped, or deliberately
//! forged index file must return `Err` — it must never panic, and never
//! allocate from a lying length field (allocations are capped by the
//! bytes actually present). Every byte of the format is covered by the
//! magic check, the header CRC, or a section CRC, so *any* single-byte
//! mutation of a valid file must be detected.
//!
//! Forgeries go further than random corruption: they re-compute the
//! section and header CRCs after tampering (via the public
//! [`sections`] introspection + `codec::crc32`), so the container looks
//! internally consistent and only the decode-level validation can
//! reject it.

use exact_ppr::core::codec::crc32;
use exact_ppr::core::gpa::{self, GpaBuildOptions};
use exact_ppr::core::hgpa::{HgpaBuildOptions, HgpaIndex};
use exact_ppr::core::persist::{load_index, save_hgpa, sections};
use exact_ppr::core::PprConfig;
use exact_ppr::graph::generators::{hierarchical_sbm, HsbmConfig};
use proptest::prelude::*;

fn sample_files() -> (Vec<u8>, Vec<u8>) {
    let g = hierarchical_sbm(
        &HsbmConfig {
            nodes: 120,
            ..Default::default()
        },
        29,
    );
    let cfg = PprConfig::default();
    // GPA (the one-level HGPA) and a deeper HGPA: the same format, two
    // hierarchy shapes.
    let mut gpa_buf = Vec::new();
    save_hgpa(&gpa::build(&g, &cfg, &GpaBuildOptions::default()).0, &mut gpa_buf).unwrap();
    let mut hgpa_buf = Vec::new();
    save_hgpa(
        &HgpaIndex::build(&g, &cfg, &HgpaBuildOptions::default()),
        &mut hgpa_buf,
    )
    .unwrap();
    (gpa_buf, hgpa_buf)
}

/// Every strict prefix of a valid file must fail to load (the full file
/// must load). Sweeps every length for the header region and strides
/// through the payloads.
#[test]
fn truncation_always_errs() {
    let (gpa, hgpa) = sample_files();
    for buf in [&gpa, &hgpa] {
        assert!(load_index(buf.as_slice()).is_ok(), "intact file must load");
        let mut cuts: Vec<usize> = (0..200.min(buf.len())).collect();
        cuts.extend((200..buf.len()).step_by(41));
        cuts.push(buf.len() - 1);
        for cut in cuts {
            assert!(
                load_index(&buf[..cut]).is_err(),
                "prefix of {cut}/{} bytes must not load",
                buf.len()
            );
        }
    }
}

/// Any single flipped bit is caught by a checksum (or the magic/length
/// checks) — swept across every byte of the file.
#[test]
fn single_byte_corruption_always_errs() {
    let (gpa, hgpa) = sample_files();
    for buf in [&gpa, &hgpa] {
        for pos in 0..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x40;
            assert!(
                load_index(bad.as_slice()).is_err(),
                "flip at byte {pos}/{} must not load",
                buf.len()
            );
        }
    }
}

/// Zero-filled ranges (a sparse-file / failed-write signature) must be
/// rejected wherever they land.
#[test]
fn zero_fill_always_errs() {
    let (_, hgpa) = sample_files();
    let n = hgpa.len();
    for (start, len) in [(0, 4), (4, 8), (16, 20), (n / 2, 64), (n - 32, 32), (0, n)] {
        let mut bad = hgpa.clone();
        for b in &mut bad[start..(start + len).min(n)] {
            *b = 0;
        }
        assert!(
            load_index(bad.as_slice()).is_err(),
            "zero-fill [{start}, +{len}) must not load"
        );
    }
}

/// Patch a little-endian u32 field and re-seal the header CRC so the
/// container is self-consistent again.
fn patch_header_u32(buf: &[u8], offset: usize, value: u32) -> Vec<u8> {
    let secs = sections(buf).expect("valid input file");
    let header_len = 16 + 16 * secs.len();
    let mut out = buf.to_vec();
    out[offset..offset + 4].copy_from_slice(&value.to_le_bytes());
    let crc = crc32(&out[..header_len]);
    out[header_len..header_len + 4].copy_from_slice(&crc.to_le_bytes());
    out
}

/// Old (v1) and future versions are refused by the version gate itself,
/// even with a valid header CRC.
#[test]
fn version_bump_errs_with_version_message() {
    let (_, hgpa) = sample_files();
    for version in [0u32, 1, 3, u32::MAX] {
        let bad = patch_header_u32(&hgpa, 4, version);
        let err = load_index(bad.as_slice()).unwrap_err();
        assert!(
            err.to_string().contains("version"),
            "version {version}: {err}"
        );
    }
}

/// A re-sealed kind field other than 2 is refused outright: unknown
/// kinds, and kind 1 (the retired flat-partition layout) with a
/// rebuild-and-re-save message.
#[test]
fn kind_forgery_errs() {
    let (gpa, hgpa) = sample_files();
    for buf in [&gpa, &hgpa] {
        for kind in [0u32, 3, 7, u32::MAX] {
            let bad = patch_header_u32(buf, 8, kind);
            let err = load_index(bad.as_slice()).unwrap_err();
            assert!(err.to_string().contains("kind"), "kind {kind}: {err}");
        }
        let bad = patch_header_u32(buf, 8, 1);
        let err = load_index(bad.as_slice()).unwrap_err();
        assert!(err.to_string().contains("rebuild"), "{err}");
    }
}

/// Forge a section's payload bytes and re-seal both CRCs, so only
/// decode-level validation stands between the forgery and the allocator.
fn forge_section(buf: &[u8], tag: &[u8; 4], tamper: impl FnOnce(&mut [u8])) -> Vec<u8> {
    let secs = sections(buf).expect("valid input file");
    let header_len = 16 + 16 * secs.len();
    let mut out = buf.to_vec();
    let (idx, sec) = secs
        .iter()
        .enumerate()
        .find(|(_, s)| &s.tag == tag)
        .expect("section present");
    tamper(&mut out[sec.offset..sec.offset + sec.len]);
    let crc = crc32(&out[sec.offset..sec.offset + sec.len]);
    let table_entry = 16 + 16 * idx;
    out[table_entry + 12..table_entry + 16].copy_from_slice(&crc.to_le_bytes());
    let hcrc = crc32(&out[..header_len]);
    out[header_len..header_len + 4].copy_from_slice(&hcrc.to_le_bytes());
    out
}

/// A length field claiming ~2^60 vectors over a few real bytes must be
/// rejected by the byte-budget check before any allocation happens —
/// this is the anti-OOM property.
#[test]
fn lying_vector_count_is_rejected_cheaply() {
    let (gpa, hgpa) = sample_files();
    // Overwrite the BASE section's leading count varint with a huge one
    // (10 bytes of 0xFF decodes as a varint overflow; 9 bytes of 0xFF
    // followed by 0x01 decodes as a colossal count). Both must fail.
    for lead in [[0xFFu8; 10].as_slice(), &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01]] {
        let bad = forge_section(&hgpa, b"BASE", |payload| {
            let n = lead.len().min(payload.len());
            payload[..n].copy_from_slice(&lead[..n]);
        });
        assert!(load_index(bad.as_slice()).is_err());
        let bad = forge_section(&gpa, b"BASE", |payload| {
            let n = lead.len().min(payload.len());
            payload[..n].copy_from_slice(&lead[..n]);
        });
        assert!(load_index(bad.as_slice()).is_err());
    }
}

/// A section table whose length field points far past the end of the
/// file (re-sealed header CRC) is a truncation error, not an allocation.
#[test]
fn lying_section_length_is_rejected_cheaply() {
    let (_, hgpa) = sample_files();
    let secs = sections(&hgpa).expect("valid");
    let header_len = 16 + 16 * secs.len();
    let mut bad = hgpa.clone();
    // First section's len field lives at table offset +4.
    bad[16 + 4..16 + 12].copy_from_slice(&(1u64 << 50).to_le_bytes());
    let crc = crc32(&bad[..header_len]);
    bad[header_len..header_len + 4].copy_from_slice(&crc.to_le_bytes());
    assert!(load_index(bad.as_slice()).is_err());
}

/// Structural forgeries inside a re-sealed container: out-of-range
/// machine ids, out-of-bounds node ids, and a corrupt config all surface
/// as decode errors.
#[test]
fn resealed_structural_forgeries_err() {
    let (_, hgpa) = sample_files();
    // CFG: alpha bits -> NaN.
    let bad = forge_section(&hgpa, b"CFG\0", |p| {
        p[..8].copy_from_slice(&f64::NAN.to_bits().to_le_bytes());
    });
    assert!(load_index(bad.as_slice()).is_err());
    // CFG: machine count zero (breaks every placement bound).
    let bad = forge_section(&hgpa, b"CFG\0", |p| {
        let len = p.len();
        p[len - 1] = 0;
    });
    assert!(load_index(bad.as_slice()).is_err());
    // PLAC: saturate everything — hub ids / machine ids blow their bounds.
    let bad = forge_section(&hgpa, b"PLAC", |p| {
        for b in p.iter_mut() {
            *b = 0x7F;
        }
    });
    assert!(load_index(bad.as_slice()).is_err());
}

/// Junk that is not an index file at all: wrong magic, empty input,
/// short input.
#[test]
fn non_index_bytes_err() {
    assert!(load_index(&b""[..]).is_err());
    assert!(load_index(&b"PPR"[..]).is_err());
    assert!(load_index(&b"hello world, definitely not an index"[..]).is_err());
    let err = load_index(&b"NOPE0000000000000000"[..]).unwrap_err();
    assert!(err.to_string().contains("magic"), "{err}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    // Randomized single-byte corruption over random positions: always
    // `Err`, never a panic.
    #[test]
    fn random_byte_corruption_never_panics(pos in 0usize..100_000, delta in 1u8..=255) {
        let (gpa, hgpa) = sample_files();
        for buf in [&gpa, &hgpa] {
            let mut bad = buf.clone();
            let p = pos % bad.len();
            bad[p] ^= delta;
            prop_assert!(load_index(bad.as_slice()).is_err(), "byte {p} xor {delta:#x}");
        }
    }
}
