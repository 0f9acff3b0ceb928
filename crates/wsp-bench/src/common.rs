//! Shared helpers for the experiment harness: table rendering and
//! seed aggregation.

/// Render an ASCII table: header row plus data rows.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("\n== {title} ==\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("| ");
        for (i, cell) in cells.iter().enumerate() {
            line.push_str(&format!("{:>width$} | ", cell, width = widths[i]));
        }
        line.trim_end().to_owned()
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + widths.len() * 3 + 1));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Write a run's JSON artifact to `target/<name>` (relative to the
/// working directory, created if missing). A failed write is reported,
/// not fatal: the tables and gates have already been printed.
pub fn write_artifact(name: &str, json: &str) {
    let path = std::path::Path::new("target").join(name);
    match std::fs::create_dir_all("target").and_then(|()| std::fs::write(&path, json)) {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Mean of a slice of f64.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Nearest-rank percentile of unsorted f64 samples.
pub fn percentile_f64(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = ((p / 100.0) * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned() {
        let t = render_table(
            "demo",
            &["a", "long-header"],
            &[
                vec!["1".into(), "2".into()],
                vec!["100".into(), "20000".into()],
            ],
        );
        assert!(t.contains("== demo =="));
        assert!(t.contains("long-header"));
        let lines: Vec<&str> = t.lines().filter(|l| l.starts_with('|')).collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[1].len());
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(percentile_f64(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_f64(&[], 50.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
