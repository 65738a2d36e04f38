//! The one walk of the source tree that the tree-reading tests share
//! (`public_surface.rs`, `structure.rs`).

use std::path::Path;

/// Every file under `dir` as `(path from root, text)`, in path order;
/// build output (`target/`) is not walked.
pub fn collect(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
    let mut entries: Vec<_> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("a readable directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            if !path.ends_with("target") {
                collect(root, &path, out);
            }
        } else {
            let rel = path
                .strip_prefix(root)
                .expect("under the root")
                .to_string_lossy()
                .replace('\\', "/");
            let bytes = std::fs::read(&path).expect("a readable file");
            out.push((rel, String::from_utf8_lossy(&bytes).into_owned()));
        }
    }
}
