//! Plain-text reporting helpers shared by the figure binaries.

/// Prints a per-template error table in the paper's bar-plot layout
/// (errors in percent, capped values flagged like the paper's plots).
pub fn print_template_errors(title: &str, errors: &[(u8, f64)]) {
    println!("\n== {title} ==");
    println!("{:<10} {:>12}", "template", "rel.err (%)");
    for (t, e) in errors {
        let pct = e * 100.0;
        if pct > 50.0 {
            println!("{:<10} {:>12.1}  (beyond 50% plot cap)", format!("t{t}"), pct);
        } else {
            println!("{:<10} {:>12.1}", format!("t{t}"), pct);
        }
    }
    let avg = errors.iter().map(|(_, e)| e).sum::<f64>() / errors.len() as f64;
    println!("{:<10} {:>12.1}", "AVG", avg * 100.0);
}

/// Prints a scatter of (actual, estimate) pairs, ordered by actual — the
/// paper's Figure 5 / 6(b) / 6(e) data.
pub fn print_scatter(title: &str, pairs: &[(f64, f64)], max_rows: usize) {
    println!("\n== {title} ==");
    println!("{:<16} {:>16}", "actual (s)", "estimate (s)");
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let stride = (sorted.len() / max_rows.max(1)).max(1);
    for (i, (a, e)) in sorted.iter().enumerate() {
        if i % stride == 0 {
            println!("{a:<16.2} {e:>16.2}");
        }
    }
    println!("({} points total, printed every {})", sorted.len(), stride);
}

/// Prints an (x, y) scatter with custom axis labels, ordered by x.
pub fn print_xy(title: &str, x_label: &str, y_label: &str, pairs: &[(f64, f64)], max_rows: usize) {
    println!("\n== {title} ==");
    println!("{x_label:<16} {y_label:>16}");
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
    let stride = (sorted.len() / max_rows.max(1)).max(1);
    for (i, (x, y)) in sorted.iter().enumerate() {
        if i % stride == 0 {
            println!("{x:<16.2} {y:>16.2}");
        }
    }
    println!("({} points total, printed every {})", sorted.len(), stride);
}
