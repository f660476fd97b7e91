//! The "KPJGRAPH" v2 on-disk layout: constants, checksums, errors.
//!
//! ```text
//! offset  size  field
//! 0       8     magic "KPJGRAPH"
//! 8       4     version  u32 = 2
//! 12      4     flags    u32 (bit 0: SYMMETRIC — reverse CSR aliases forward)
//! 16      8     n        u64 (node count)
//! 24      8     m        u64 (edge count)
//! 32      4     section_count u32
//! 36      4     reserved u32 = 0
//! 40      8     meta_checksum u64  (FNV-1a over bytes [0,40) ++ section table)
//! 48      8     data_checksum u64  (FNV-1a over section payloads, table order)
//! 56      8     reserved u64 = 0
//! 64      24·k  section table: { id u32, reserved u32, offset u64, len u64 }
//! …       —     zero padding to the next 64-byte boundary
//! …       —     sections, each starting at a 64-byte-aligned offset
//! ```
//!
//! All fields are little-endian and fixed-width. Section *offsets* are
//! absolute file offsets and must be 64-byte-aligned (a multiple of every
//! element alignment we map, and a cache-line boundary); section *lengths*
//! are exact payload byte counts — the gap up to the next section is zero
//! padding, excluded from `data_checksum`.
//!
//! `meta_checksum` is verified on every open (it covers everything needed
//! to establish the section geometry). `data_checksum` covers the bulk
//! payload and is verified *lazily* ([`crate::StoreBundle::verify_data`])
//! so that a cold open of a multi-gigabyte file stays `O(1)` I/O.

use std::fmt;

use kpj_graph::GraphError;

/// File magic, shared with the v1 format.
pub const MAGIC: &[u8; 8] = b"KPJGRAPH";
/// Version written by this crate.
pub const VERSION: u32 = 2;
/// Fixed header size in bytes, before the section table.
pub const HEADER_LEN: u64 = 64;
/// Size of one section-table entry.
pub const SECTION_ENTRY_LEN: u64 = 24;
/// Required alignment of every section payload.
pub const SECTION_ALIGN: u64 = 64;
/// Header flag: the graph is symmetric and the reverse CSR sections are
/// omitted — readers alias them to the forward CSR sections.
pub const FLAG_SYMMETRIC: u32 = 1;

/// Section ids. Unknown ids are skipped on read (forward compatibility).
pub mod section_id {
    /// Forward CSR offsets: `(n+1) × u32`.
    pub const OUT_OFFSETS: u32 = 1;
    /// Forward CSR edges: `m × {to u32, weight u32}`.
    pub const OUT_EDGES: u32 = 2;
    /// Reverse CSR offsets (absent when SYMMETRIC).
    pub const IN_OFFSETS: u32 = 3;
    /// Reverse CSR edges (absent when SYMMETRIC).
    pub const IN_EDGES: u32 = 4;
    /// Category index (variable-length, parsed on heap — small).
    pub const CATEGORIES: u32 = 5;
    /// Landmark ids: `count u32, count × u32`.
    pub const LANDMARK_META: u32 = 6;
    /// Landmark distance tables as written before they became node-major:
    /// `|L| × n × u64`, row-major. Read as node-major they would give
    /// inadmissible bounds, so readers refuse a file that carries them.
    pub const LEGACY_LANDMARK_TABLES_ROW_MAJOR: u32 = 7;
    /// Locality remap, external → internal: `n × u32`.
    pub const REMAP_OLD_TO_NEW: u32 = 8;
    /// Locality remap, internal → external: `n × u32`.
    pub const REMAP_NEW_TO_OLD: u32 = 9;
    /// Reduction: original id → reduced id (`u32::MAX` = removed):
    /// `n_orig × u32`. The header `n` of a reduced file is the *reduced*
    /// node count; `n_orig` is this section's length ÷ 4.
    pub const REDUCE_ORIG_TO_RED: u32 = 10;
    /// Reduction: reduced id → original id: `n × u32`.
    pub const REDUCE_RED_TO_ORIG: u32 = 11;
    /// Reduction: per-forward-edge expansion ranges: `(m+1) × u32`.
    pub const REDUCE_EXP_OFFSETS: u32 = 12;
    /// Reduction: contracted interior original ids, tail→head per chain.
    pub const REDUCE_EXP_NODES: u32 = 13;
    /// Reduction: cumulative weight from chain tail to each interior:
    /// same length as [`REDUCE_EXP_NODES`].
    pub const REDUCE_EXP_PREFIX: u32 = 14;
    /// Landmark distance tables: `n × |L| × u64`, node-major
    /// (`tables[v * |L| + l] = δ(w_l, v)`), mapped zero-copy.
    pub const LANDMARK_TABLES: u32 = 15;
}

/// Round `pos` up to the next [`SECTION_ALIGN`] boundary.
pub fn align_up(pos: u64) -> u64 {
    pos.div_ceil(SECTION_ALIGN) * SECTION_ALIGN
}

/// Incremental FNV-1a 64-bit checksum — tiny, dependency-free, and fast
/// enough to stream alongside section writes.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Fnv64(Self::OFFSET_BASIS)
    }

    /// Fold `bytes` into the running hash.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(Self::PRIME);
        }
        self.0 = h;
    }

    /// The current hash value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Self::new()
    }
}

/// One entry of the section table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SectionEntry {
    /// Section id (see [`section_id`]).
    pub id: u32,
    /// Absolute file offset of the payload (64-byte-aligned).
    pub offset: u64,
    /// Exact payload length in bytes.
    pub len: u64,
}

/// Errors opening, validating, or writing a v2 store file.
#[derive(Debug)]
pub enum StoreError {
    /// The file does not start with the KPJGRAPH magic.
    BadMagic,
    /// The version field is neither 1 nor 2.
    UnsupportedVersion(u32),
    /// The file is shorter than a declared structure requires.
    Truncated {
        /// Bytes the structure needs.
        need: u64,
        /// Bytes the file has.
        have: u64,
    },
    /// A section offset violates the 64-byte alignment rule.
    Misaligned {
        /// Offending section id.
        section: u32,
        /// Its declared offset.
        offset: u64,
    },
    /// A section length is not a multiple of its element size.
    BadSectionLength {
        /// Offending section id.
        section: u32,
        /// Its declared byte length.
        len: u64,
        /// Element size the length must divide into.
        elem: u64,
    },
    /// A count being serialized does not fit its fixed-width field. A bare
    /// `as u32` here would silently truncate and produce a corrupt file
    /// whose checksums still verify — the writer refuses instead.
    CountOverflow {
        /// What was being counted (e.g. "section", "category members").
        what: &'static str,
        /// The count that does not fit in `u32`.
        count: u64,
    },
    /// A required section is absent.
    MissingSection(u32),
    /// The same section id appears twice in the table.
    DuplicateSection(u32),
    /// A stored checksum does not match the recomputed one.
    ChecksumMismatch {
        /// Which checksum failed ("meta" or "data").
        which: &'static str,
        /// Value stored in the file.
        stored: u64,
        /// Value recomputed from the bytes.
        computed: u64,
    },
    /// A structural invariant of the decoded content failed.
    Graph(GraphError),
    /// An underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "bad magic (not a kpj graph file)"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported format version {v}"),
            StoreError::Truncated { need, have } => {
                write!(f, "file truncated: need {need} bytes, have {have}")
            }
            StoreError::Misaligned { section, offset } => write!(
                f,
                "section {section} at offset {offset} is not 64-byte-aligned"
            ),
            StoreError::BadSectionLength { section, len, elem } => write!(
                f,
                "section {section} length {len} is not a multiple of element size {elem}"
            ),
            StoreError::CountOverflow { what, count } => write!(
                f,
                "{what} count {count} does not fit the format's u32 field"
            ),
            StoreError::MissingSection(id) => write!(f, "required section {id} is missing"),
            StoreError::DuplicateSection(id) => write!(f, "section {id} appears twice"),
            StoreError::ChecksumMismatch {
                which,
                stored,
                computed,
            } => write!(
                f,
                "{which} checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Graph(e) => write!(f, "invalid graph content: {e}"),
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            StoreError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<GraphError> for StoreError {
    fn from(e: GraphError) -> Self {
        StoreError::Graph(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        let mut h = Fnv64::new();
        assert_eq!(h.finish(), 0xcbf2_9ce4_8422_2325);
        h.update(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv64::new();
        h.update(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn align_rounds_up() {
        assert_eq!(align_up(0), 0);
        assert_eq!(align_up(1), 64);
        assert_eq!(align_up(64), 64);
        assert_eq!(align_up(65), 128);
    }

    #[test]
    fn errors_display_key_numbers() {
        let e = StoreError::Truncated { need: 10, have: 3 };
        assert!(e.to_string().contains("10"));
        let e = StoreError::ChecksumMismatch {
            which: "meta",
            stored: 1,
            computed: 2,
        };
        assert!(e.to_string().contains("meta"));
    }
}
