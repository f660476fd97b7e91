//! The stamp every result carries, so figures from different hosts,
//! trees or service configurations are never read as one series.

use std::path::{Path, PathBuf};

/// The kpj tree the benchmark was built against (its parent directory).
pub fn tree_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives inside the kpj tree")
        .to_path_buf()
}

/// Available parallelism, as the service's `workers: 0` resolves it.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The CPU model from `/proc/cpuinfo`, or `unknown`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git commit checked out at the tree's root, read from `.git`
/// without running git, or `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = tree_root().join(".git");
    let read = |rel: &str| {
        std::fs::read_to_string(git.join(rel))
            .ok()
            .map(|s| s.trim().to_string())
    };
    let resolved = match read("HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(name) => read(name).or_else(|| {
                read("packed-refs")?
                    .lines()
                    .find_map(|l| l.strip_suffix(name)?.strip_suffix(' ').map(str::to_string))
            }),
            None => Some(head),
        },
        None => None,
    };
    resolved.unwrap_or_else(|| "unknown".to_string())
}

/// FNV-1a over the program's sources (`crates/`, the root manifest and
/// lock file): names the code measured even where git is absent.
pub fn source_fingerprint() -> String {
    let root = tree_root();
    let mut files = Vec::new();
    collect(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.toml"));
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in files {
        if let Ok(bytes) = std::fs::read(&f) {
            feed(
                f.strip_prefix(&root)
                    .unwrap_or(&f)
                    .to_string_lossy()
                    .as_bytes(),
            );
            feed(&bytes);
        }
    }
    format!("{h:016x}")
}

fn collect(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let path = e.path();
        if path.is_dir() {
            collect(&path, out);
        } else if path.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(path);
        }
    }
}

/// Process high-water resident set (`VmHWM`), MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}
