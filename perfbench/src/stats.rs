//! Order statistics and output digests.

use wsnem_stats::hash::StableHasher;

/// Median of `values` (mean of the middle pair for an even count); 0 for an
/// empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of `values`; 0 for an empty
/// slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Split one CSV row into fields, honouring double-quoted fields (the
/// quoting `ScenarioReport::csv_rows` applies to names with commas).
pub fn csv_fields(row: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = row.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted && chars.peek() == Some(&'"') => {
                cur.push('"');
                chars.next();
            }
            '"' => quoted = !quoted,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            c => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// CSV columns that carry wall-clock timings, which differ between runs of
/// the same scenario; every other column is deterministic.
pub const TIMING_COLUMNS: [&str; 2] = ["eval_seconds", "scenario_elapsed_seconds"];

/// Indices of [`TIMING_COLUMNS`] in `ScenarioReport::CSV_HEADER`.
pub fn timing_column_indices(header: &str) -> Vec<usize> {
    csv_fields(header)
        .iter()
        .enumerate()
        .filter(|(_, name)| TIMING_COLUMNS.contains(&name.as_str()))
        .map(|(i, _)| i)
        .collect()
}

/// `row` with the columns at `drop` removed, re-joined with commas.
pub fn strip_columns(row: &str, drop: &[usize]) -> String {
    csv_fields(row)
        .into_iter()
        .enumerate()
        .filter(|(i, _)| !drop.contains(i))
        .map(|(_, f)| f)
        .collect::<Vec<_>>()
        .join(",")
}

/// 128-bit digest over a list of strings, each length-delimited.
pub fn digest<'a>(parts: impl IntoIterator<Item = &'a str>) -> u128 {
    let mut h = StableHasher::new();
    for p in parts {
        h.write_delimited(p.as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
    }

    #[test]
    fn csv_fields_respect_quotes() {
        assert_eq!(csv_fields("a,\"b,c\",d"), vec!["a", "b,c", "d"]);
        assert_eq!(csv_fields("\"x\"\"y\","), vec!["x\"y", ""]);
    }

    #[test]
    fn timing_columns_are_found_and_stripped() {
        let idx = timing_column_indices(wsnem_scenario::ScenarioReport::CSV_HEADER);
        assert_eq!(idx.len(), 2);
        assert_eq!(strip_columns("a,b,c,d", &[1, 3]), "a,c");
    }
}
