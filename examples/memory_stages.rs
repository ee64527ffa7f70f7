//! Where a benchmark set-up's memory goes, stage by stage.
//!
//! Builds what one `qpp-e2e` set-up builds for the product: a fresh
//! catalog at sf 0.1, a training log of 20 instances of each of templates
//! 1, 3, 5, 6, 10, 12 and 14, a pool of 100 of each, one training and
//! `ModelRegistry::create` (the harness's own request stream is left
//! out). After each stage it prints the process's resident memory from
//! `/proc/self/status` — `VmHWM` (its high-water mark), `RssAnon` and
//! `RssFile` — then, from `/proc/self/smaps`, what is resident of the
//! executable's own mappings (`exe`) and of the shared libraries' (`libs`:
//! libc, libm, ld.so), and the heap as a counting allocator sees it: bytes
//! live, and the most that were live during the stage. All in KiB.
//! DESIGN.md §7 ("Where `peak_rss_mb` goes") quotes its table.
//!
//! ```text
//! cargo run --release --example memory_stages
//! ```

use engine::{Catalog, SimConfig, Simulator};
use qpp::{ExecutedQuery, ModelRegistry, QppConfig, QppPredictor, QueryDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{BufRead, BufReader};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use tpch::Workload;

/// Counts the bytes live on the heap and their high-water mark.
struct CountingAlloc;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// read only the layout's size.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grow(layout.size());
        }
        p
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Relaxed);
            }
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Relaxed);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The fixture's templates, scale factor and dataset seed.
const TEMPLATES: [u8; 7] = [1, 3, 5, 6, 10, 12, 14];
const SF: f64 = 0.1;
const DATA_SEED: u64 = 42;

/// A `/proc/self/status` field in KiB, or `-` where there is none.
fn status(field: &str) -> String {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().strip_suffix(" kB").map(str::to_owned))
        .unwrap_or_else(|| "-".into())
}

/// The resident KiB of the executable's own mappings and of the shared
/// libraries' (every mapped path with `.so` in it), summed over their
/// `Rss:` lines in `/proc/self/smaps`; `-` where there is no such file.
/// Read a line at a time, so the reading adds little to what it measures.
fn mapped() -> [String; 2] {
    let (Ok(smaps), Ok(exe)) = (
        std::fs::File::open("/proc/self/smaps"),
        std::fs::read_link("/proc/self/exe"),
    ) else {
        return ["-".into(), "-".into()];
    };
    let exe = exe.to_string_lossy();
    let mut smaps = BufReader::new(smaps);
    let mut line = String::new();
    let mut kib = [0u64; 2];
    let mut slot = None;
    while smaps.read_line(&mut line).is_ok_and(|n| n > 0) {
        if let Some(rss) = line.strip_prefix("Rss:") {
            if let Some(i) = slot {
                kib[i] += rss.trim().trim_end_matches(" kB").parse::<u64>().unwrap_or(0);
            }
        } else if line.split_whitespace().next().is_some_and(|t| t.contains('-')) {
            // A mapping's header: range, perms, offset, device, inode, path.
            let path = line.split_whitespace().nth(5).unwrap_or("");
            slot = if path == exe {
                Some(0)
            } else if path.contains(".so") {
                Some(1)
            } else {
                None
            };
        }
        line.clear();
    }
    kib.map(|k| k.to_string())
}

/// Prints one stage's line and starts the next stage's heap peak. The heap
/// is read before the `/proc` files, and the peak restarts after them.
fn stage(name: &str) {
    let (live, peak) = (LIVE.load(Relaxed), PEAK.load(Relaxed));
    let [exe, libs] = mapped();
    println!(
        "{name:<34} {:>7} {:>7} {:>7} {exe:>7} {libs:>7} {:>9.1} {:>9.1}",
        status("VmHWM"),
        status("RssAnon"),
        status("RssFile"),
        live as f64 / 1024.0,
        peak as f64 / 1024.0,
    );
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

fn main() {
    println!(
        "{:<34} {:>7} {:>7} {:>7} {:>7} {:>7} {:>9} {:>9}",
        "stage (KiB)", "VmHWM", "RssAnon", "RssFile", "exe", "libs", "live", "peak"
    );
    stage("process start");
    let catalog = Catalog::new(SF, 1);
    let sim = Simulator::with_config(SimConfig {
        additive_noise_secs: 0.05,
        ..SimConfig::default()
    });
    stage("fresh Catalog");
    // As the fixture collects: the workload lives until it is executed.
    let collect = |per_template: usize, seed: u64, what: &str| {
        let workload = Workload::generate(&TEMPLATES, per_template, SF, seed);
        stage(&format!(
            "{what}: {}-instance Workload",
            workload.queries.len()
        ));
        let dataset = QueryDataset::execute(&catalog, &workload, &sim, seed, f64::INFINITY);
        stage(&format!("{what}: executed"));
        drop(workload);
        stage(&format!("{what}: Workload dropped"));
        dataset
    };
    let log = collect(20, DATA_SEED, "log");
    let pool: Vec<Arc<ExecutedQuery>> = collect(100, DATA_SEED ^ 0x9001, "pool")
        .queries
        .into_iter()
        .map(Arc::new)
        .collect();
    stage("pool: one Arc a query");
    let refs: Vec<&ExecutedQuery> = log.queries.iter().collect();
    let predictor =
        QppPredictor::train(&refs, QppConfig::default()).expect("training on a clean log succeeds");
    stage("one training");
    let dir = std::env::temp_dir().join(format!("qpp_memory_stages_{}", std::process::id()));
    let registry = ModelRegistry::create(&dir, predictor, QppConfig::default())
        .expect("registry directory is writable");
    stage("ModelRegistry::create");
    drop(registry);
    drop(pool);
    let _ = std::fs::remove_dir_all(&dir);
}
