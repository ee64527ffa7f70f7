//! The paper at seed 0, in tier-1: a release `repro` (`qpp-bench`, built
//! by the cargo running this test) prints every figure and table of
//! Section 5, then checks the paper's orderings on them and fails if one
//! does not hold. Its output must equal the committed
//! `experiments_raw.txt`, so a change that moves a paper number rewrites
//! the file and shows the move in its diff, and a rewritten file does not
//! get a swapped ranking past the orderings. The six-seed gate is
//! `crates/bench/tests/paper_shapes.rs` (release, in `scripts/ci.sh`).

use std::path::Path;
use std::process::Command;

#[test]
fn repro_holds_the_paper_shapes_and_prints_experiments_raw() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out = Command::new(env!("CARGO"))
        .args([
            "run",
            "--release",
            "-q",
            "--offline",
            "-p",
            "qpp-bench",
            "--bin",
            "repro",
        ])
        .current_dir(root)
        .output()
        .expect("cargo runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "repro failed ({}):\n{stderr}",
        out.status
    );
    let committed =
        std::fs::read_to_string(root.join("experiments_raw.txt")).expect("experiments_raw.txt");
    let fresh = String::from_utf8(out.stdout).expect("utf-8 output");
    for (i, (a, b)) in committed.lines().zip(fresh.lines()).enumerate() {
        assert_eq!(
            a,
            b,
            "experiments_raw.txt line {} differs from a fresh repro",
            i + 1
        );
    }
    assert_eq!(
        committed, fresh,
        "experiments_raw.txt differs from a fresh repro"
    );
}
