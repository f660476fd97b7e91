//! Binary (de)serialization for [`LandmarkIndex`].
//!
//! Landmark tables are the expensive offline artifact (`|L|` full
//! Dijkstras, `|L|·n` distances — ≈ 800 MB for the USA network at
//! `|L| = 16`). Persisting them makes full-scale repro runs restartable.
//! Same design as `kpj_graph::io::write_binary`: little-endian dump with a
//! magic/version header, bounds-checked on load.
//!
//! The file keeps its row-major layout (`|L|` rows of `n` distances after
//! the landmark ids); reading and writing convert to and from the
//! node-major tables the index holds in memory.

use std::io::{BufReader, BufWriter, Read, Write};

use kpj_graph::{Length, NodeId};

use crate::LandmarkIndex;

const MAGIC: &[u8; 8] = b"KPJLMARK";
const VERSION: u32 = 1;

/// Error type for landmark-index loading.
#[derive(Debug)]
pub enum PersistError {
    /// The bytes are not a landmark index (or a newer version).
    Format(String),
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Format(m) => write!(f, "landmark index format error: {m}"),
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

impl From<std::io::Error> for PersistError {
    fn from(e: std::io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl LandmarkIndex {
    /// Serialize the index (see the module docs for the layout).
    pub fn write_binary<W: Write>(&self, w: W) -> std::io::Result<()> {
        let mut w = BufWriter::new(w);
        w.write_all(MAGIC)?;
        w.write_all(&VERSION.to_le_bytes())?;
        w.write_all(&(self.len() as u64).to_le_bytes())?;
        w.write_all(&(self.node_count() as u64).to_le_bytes())?;
        for &l in self.landmarks() {
            w.write_all(&l.to_le_bytes())?;
        }
        for l in 0..self.len() {
            for v in 0..self.node_count() as NodeId {
                w.write_all(&self.landmark_distance(l, v).to_le_bytes())?;
            }
        }
        w.flush()
    }

    /// Deserialize an index written by [`LandmarkIndex::write_binary`].
    pub fn read_binary<R: Read>(r: R) -> Result<LandmarkIndex, PersistError> {
        let mut r = BufReader::new(r);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)?;
        if &magic != MAGIC {
            return Err(PersistError::Format("bad magic".into()));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(PersistError::Format(format!(
                "unsupported version {version}"
            )));
        }
        let count = read_u64(&mut r)?;
        let n = read_u64(&mut r)?;
        if n >= u32::MAX as u64 || count > n.max(1) {
            return Err(PersistError::Format(format!(
                "implausible header: |L|={count}, n={n}"
            )));
        }
        // `count ≤ n < 2^32`, so the product fits. Nothing is sized from
        // the header: the ids and the table grow as bytes arrive, so a
        // corrupt header fails on the first missing byte instead of
        // allocating what it claims.
        let entries = count * n;
        let mut landmarks = Vec::new();
        for _ in 0..count {
            let l = read_u32(&mut r)?;
            if l as u64 >= n {
                return Err(PersistError::Format(format!("landmark {l} out of range")));
            }
            landmarks.push(l);
        }
        let mut rows: Vec<Length> = Vec::new();
        let mut buf = [0u8; 8];
        for _ in 0..entries {
            match r.read_exact(&mut buf) {
                Ok(()) => rows.push(Length::from_le_bytes(buf)),
                Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
                    return Err(PersistError::Format(format!(
                        "truncated: header claims {entries} distances, file holds {}",
                        rows.len()
                    )))
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(LandmarkIndex::from_rows(landmarks, &rows, n as usize))
    }
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32, PersistError> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64, PersistError> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(u64::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SelectionStrategy;
    use kpj_graph::GraphBuilder;

    fn index() -> LandmarkIndex {
        let mut b = GraphBuilder::new(12);
        for i in 0..11u32 {
            b.add_bidirectional(i, i + 1, i + 1).unwrap();
        }
        let g = b.build();
        LandmarkIndex::build(&g, 3, SelectionStrategy::Farthest, 9)
    }

    #[test]
    fn roundtrip_preserves_bounds() {
        let idx = index();
        let mut buf = Vec::new();
        idx.write_binary(&mut buf).unwrap();
        let idx2 = LandmarkIndex::read_binary(buf.as_slice()).unwrap();
        assert_eq!(idx2, idx);
        for u in 0..12u32 {
            for v in 0..12u32 {
                assert_eq!(idx.lower_bound(u, v), idx2.lower_bound(u, v));
            }
        }
        let qa = idx.for_targets(&[3, 9]);
        let qb = idx2.for_targets(&[3, 9]);
        for u in 0..12u32 {
            assert_eq!(qa.lb_to_targets(u), qb.lb_to_targets(u));
        }
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(LandmarkIndex::read_binary(&b"nope"[..]).is_err());
        let idx = index();
        let mut buf = Vec::new();
        idx.write_binary(&mut buf).unwrap();
        buf.truncate(buf.len() - 5);
        assert!(LandmarkIndex::read_binary(buf.as_slice()).is_err());
        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(LandmarkIndex::read_binary(bad_magic.as_slice()).is_err());
    }

    #[test]
    fn oversized_header_is_a_format_error_not_an_abort() {
        // |L| = 2^20 landmark ids (4 MB) claiming n = 2^31: the table would
        // be 2^51 distances. The file holds a handful.
        let (count, n) = (1u64 << 20, 1u64 << 31);
        let mut buf = Vec::with_capacity(4 << 20);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.extend_from_slice(&count.to_le_bytes());
        buf.extend_from_slice(&n.to_le_bytes());
        for l in 0..count as u32 {
            buf.extend_from_slice(&l.to_le_bytes());
        }
        buf.extend_from_slice(&[0u8; 64]);
        match LandmarkIndex::read_binary(buf.as_slice()) {
            Err(PersistError::Format(m)) => assert!(m.contains("truncated"), "{m}"),
            other => panic!("want a format error, got {other:?}"),
        }
    }

    #[test]
    fn rejects_out_of_range_landmark() {
        let idx = index();
        let mut buf = Vec::new();
        idx.write_binary(&mut buf).unwrap();
        // Landmark ids start after magic+version+2×u64.
        let lm_start = 8 + 4 + 8 + 8;
        buf[lm_start..lm_start + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(LandmarkIndex::read_binary(buf.as_slice()).is_err());
    }
}
