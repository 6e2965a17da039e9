//! Plain-text table rendering for experiment output.

/// A simple aligned text table.
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with a title and column headers.
    pub fn new(title: &str, header: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (stringified cells).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Renders the table to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("## {}\n\n", self.title));
        let fmt_row = |cells: &[String]| -> String {
            let mut line = String::from("|");
            for (i, c) in cells.iter().enumerate() {
                line.push_str(&format!(" {:<w$} |", c, w = widths[i]));
            }
            line.push('\n');
            line
        };
        out.push_str(&fmt_row(&self.header));
        let mut sep = String::from("|");
        for w in &widths {
            sep.push_str(&format!("{}-|", "-".repeat(w + 2 - 1)));
        }
        sep.push('\n');
        out.push_str(&sep);
        for row in &self.rows {
            out.push_str(&fmt_row(row));
        }
        out.push('\n');
        out
    }
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

/// Formats a count with thousands separators.
pub fn count(x: u64) -> String {
    let s = x.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Reads a number out of a rendered [`Table`], for unit tests: column
/// `col` (counted from 1) of the first row whose leading cells are
/// `key`, with thousands separators and a trailing `x` dropped. Panics
/// when no row matches or the cell is not a number.
#[cfg(test)]
pub(crate) fn cell<T>(out: &str, key: &[&str], col: usize) -> T
where
    T: std::str::FromStr,
    T::Err: std::fmt::Debug,
{
    let row: Vec<&str> = out
        .lines()
        .filter_map(|l| l.strip_prefix('|'))
        .map(|l| l.split('|').map(str::trim).collect::<Vec<_>>())
        .find(|cells| cells.starts_with(key))
        .unwrap_or_else(|| panic!("no table row starts with {key:?} in:\n{out}"));
    let raw = row[col - 1].replace(',', "");
    raw.strip_suffix('x')
        .unwrap_or(&raw)
        .parse()
        .unwrap_or_else(|e| panic!("column {col} of {row:?}: {e:?}"))
}

/// Five-number summary for box-and-whisker output.
#[derive(Clone, Copy, Debug, Default)]
pub struct FiveNum {
    /// Minimum.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Maximum.
    pub max: f64,
}

impl FiveNum {
    /// Computes the summary of `xs` (must be non-empty).
    pub fn of(xs: &[f64]) -> FiveNum {
        assert!(!xs.is_empty());
        let mut v = xs.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let q = |p: f64| -> f64 {
            let idx = p * (v.len() - 1) as f64;
            let lo = idx.floor() as usize;
            let hi = idx.ceil() as usize;
            if lo == hi {
                v[lo]
            } else {
                v[lo] + (v[hi] - v[lo]) * (idx - lo as f64)
            }
        };
        FiveNum {
            min: v[0],
            q1: q(0.25),
            median: q(0.5),
            q3: q(0.75),
            max: *v.last().unwrap(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned_markdown() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let s = t.render();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| name   | value |"));
        assert!(s.contains("| longer | 22    |"));
    }

    #[test]
    fn count_inserts_separators() {
        assert_eq!(count(1_234_567), "1,234,567");
        assert_eq!(count(42), "42");
        assert_eq!(count(1_000), "1,000");
    }

    #[test]
    fn fivenum_of_known_data() {
        let f = FiveNum::of(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.q3, 4.0);
        assert_eq!(f.max, 5.0);
    }
}
