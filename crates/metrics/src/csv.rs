//! Hand-rolled CSV output and ingestion.
//!
//! The paper: "Optimization metrics can also be used for measurements,
//! where a list of comma-separated values (CSV) are printed after the
//! execution of the workload." No serializer crate is in the allowed
//! dependency set, so quoting/escaping is implemented here (RFC 4180
//! subset: quote fields containing comma, quote or newline; double
//! embedded quotes). [`CsvReader`] is the exact inverse used by the
//! calibration path to ingest target traces: every malformed input is
//! a typed [`CsvError`], never a panic.

use std::fmt;
use std::fmt::Write as _;

/// Minimal CSV writer accumulating into a string.
#[derive(Debug, Default, Clone)]
pub struct CsvWriter {
    out: String,
    columns: usize,
}

fn needs_quoting(field: &str) -> bool {
    field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r')
}

fn escape(field: &str) -> String {
    if needs_quoting(field) {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

impl CsvWriter {
    pub fn new() -> CsvWriter {
        CsvWriter::default()
    }

    /// Writes the header row and fixes the column count.
    pub fn header(&mut self, names: &[&str]) -> &mut Self {
        assert_eq!(self.columns, 0, "header must be written first");
        assert!(!names.is_empty());
        self.columns = names.len();
        let row: Vec<String> = names.iter().map(|n| escape(n)).collect();
        let _ = writeln!(self.out, "{}", row.join(","));
        self
    }

    /// Writes one row of string fields; panics on column-count mismatch.
    pub fn row(&mut self, fields: &[String]) -> &mut Self {
        assert_eq!(
            fields.len(),
            self.columns,
            "row has {} fields, header has {}",
            fields.len(),
            self.columns
        );
        let row: Vec<String> = fields.iter().map(|f| escape(f)).collect();
        let _ = writeln!(self.out, "{}", row.join(","));
        self
    }

    /// The accumulated CSV text.
    pub fn finish(self) -> String {
        self.out
    }

    pub fn as_str(&self) -> &str {
        &self.out
    }
}

/// A typed CSV ingestion failure. Every variant names where the input
/// went wrong; parsing never panics on untrusted text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// The input has no header row (empty or whitespace-only text).
    Empty,
    /// A quoted field was never closed (1-based line of its opening
    /// quote).
    UnclosedQuote { line: usize },
    /// A data row's field count differs from the header's (1-based
    /// line number).
    ShortRow {
        line: usize,
        got: usize,
        want: usize,
    },
    /// A lookup asked for a column the header does not declare.
    MissingColumn { name: String },
    /// A field failed numeric conversion (1-based line, column name,
    /// offending text).
    BadNumber {
        line: usize,
        column: String,
        value: String,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Empty => write!(f, "empty CSV input: no header row"),
            CsvError::UnclosedQuote { line } => {
                write!(f, "line {line}: unclosed quoted field")
            }
            CsvError::ShortRow { line, got, want } => {
                write!(f, "line {line}: {got} fields, header has {want}")
            }
            CsvError::MissingColumn { name } => {
                write!(f, "missing column {name:?}")
            }
            CsvError::BadNumber {
                line,
                column,
                value,
            } => {
                write!(f, "line {line}, column {column:?}: bad number {value:?}")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// A parsed CSV table: one header row fixing the column set, then data
/// rows with exactly that many fields. Accepts everything
/// [`CsvWriter`] emits (quoted fields, doubled embedded quotes,
/// newlines inside quotes, `\r\n` line ends) and round-trips it.
#[derive(Debug, Clone, PartialEq)]
pub struct CsvReader {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    /// 1-based source line each data row started on (for error
    /// reporting on fields with embedded newlines).
    row_lines: Vec<usize>,
}

impl CsvReader {
    /// Parses CSV text. The first record is the header; every data
    /// record must match its field count.
    pub fn parse(text: &str) -> Result<CsvReader, CsvError> {
        let mut records: Vec<(usize, Vec<String>)> = Vec::new();
        let mut field = String::new();
        let mut record: Vec<String> = Vec::new();
        let mut line = 1usize;
        let mut record_line = 1usize;
        let mut in_quotes = false;
        let mut quote_line = 1usize;
        // True once the current record has any content (field text, a
        // comma, or an opening quote) — distinguishes a trailing
        // newline from an empty final record.
        let mut record_started = false;
        let mut chars = text.chars().peekable();
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            chars.next();
                            field.push('"');
                        } else {
                            in_quotes = false;
                        }
                    }
                    '\n' => {
                        line += 1;
                        field.push('\n');
                    }
                    c => field.push(c),
                }
                continue;
            }
            match c {
                '"' => {
                    in_quotes = true;
                    quote_line = line;
                    record_started = true;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                    record_started = true;
                }
                '\r' if chars.peek() == Some(&'\n') => {}
                '\n' => {
                    if record_started || !field.is_empty() {
                        record.push(std::mem::take(&mut field));
                        records.push((record_line, std::mem::take(&mut record)));
                    }
                    record_started = false;
                    line += 1;
                    record_line = line;
                }
                c => {
                    field.push(c);
                    record_started = true;
                }
            }
        }
        if in_quotes {
            return Err(CsvError::UnclosedQuote { line: quote_line });
        }
        if record_started || !field.is_empty() {
            record.push(field);
            records.push((record_line, record));
        }
        let mut it = records.into_iter();
        let (_, header) = it.next().ok_or(CsvError::Empty)?;
        let want = header.len();
        let mut rows = Vec::new();
        let mut row_lines = Vec::new();
        for (row_line, row) in it {
            if row.len() != want {
                return Err(CsvError::ShortRow {
                    line: row_line,
                    got: row.len(),
                    want,
                });
            }
            row_lines.push(row_line);
            rows.push(row);
        }
        Ok(CsvReader {
            header,
            rows,
            row_lines,
        })
    }

    /// The header fields, in declaration order.
    pub fn header(&self) -> &[String] {
        &self.header
    }

    /// The data rows (header excluded).
    pub fn rows(&self) -> &[Vec<String>] {
        &self.rows
    }

    /// Number of data rows.
    pub fn n_rows(&self) -> usize {
        self.rows.len()
    }

    /// The 1-based source line data row `row` starts on. A quoted field
    /// with embedded newlines makes a row span several lines.
    pub fn row_line(&self, row: usize) -> usize {
        self.row_lines[row]
    }

    /// Index of a named column, or [`CsvError::MissingColumn`].
    pub fn column(&self, name: &str) -> Result<usize, CsvError> {
        self.header
            .iter()
            .position(|h| h == name)
            .ok_or_else(|| CsvError::MissingColumn {
                name: name.to_string(),
            })
    }

    /// The string field at `(row, col)`.
    pub fn field(&self, row: usize, col: usize) -> &str {
        &self.rows[row][col]
    }

    /// Parses the field at `(row, col)` as `f64`;
    /// [`CsvError::BadNumber`] on non-numeric or non-finite text.
    pub fn f64_at(&self, row: usize, col: usize) -> Result<f64, CsvError> {
        let text = self.field(row, col);
        match text.trim().parse::<f64>() {
            Ok(v) if v.is_finite() => Ok(v),
            _ => Err(self.bad_number(row, col)),
        }
    }

    /// Parses the field at `(row, col)` as `u64`.
    pub fn u64_at(&self, row: usize, col: usize) -> Result<u64, CsvError> {
        let text = self.field(row, col);
        text.trim()
            .parse::<u64>()
            .map_err(|_| self.bad_number(row, col))
    }

    fn bad_number(&self, row: usize, col: usize) -> CsvError {
        CsvError::BadNumber {
            line: self.row_lines[row],
            column: self.header[col].clone(),
            value: self.rows[row][col].clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_table() {
        let mut w = CsvWriter::new();
        w.header(&["metric", "mean", "unit"]);
        w.row(&["rapl".into(), "437.2".into(), "W".into()]);
        w.row(&[
            "perf-ipc".into(),
            "3.39".into(),
            "instructions/cycle".into(),
        ]);
        let out = w.finish();
        assert_eq!(
            out,
            "metric,mean,unit\nrapl,437.2,W\nperf-ipc,3.39,instructions/cycle\n"
        );
    }

    #[test]
    fn escaping_rules() {
        let mut w = CsvWriter::new();
        w.header(&["name", "note"]);
        w.row(&["a,b".into(), "says \"hi\"".into()]);
        w.row(&["multi\nline".into(), "ok".into()]);
        let out = w.finish();
        let lines: Vec<&str> = out.split('\n').collect();
        assert_eq!(lines[1], "\"a,b\",\"says \"\"hi\"\"\"");
        assert!(out.contains("\"multi\nline\",ok"));
    }

    #[test]
    #[should_panic(expected = "row has 1 fields")]
    fn column_mismatch_panics() {
        let mut w = CsvWriter::new();
        w.header(&["a", "b"]);
        w.row(&["only-one".into()]);
    }

    #[test]
    fn reader_round_trips_writer_output() {
        let mut w = CsvWriter::new();
        w.header(&["name", "note", "w"]);
        w.row(&["a,b".into(), "says \"hi\"".into(), "1.5".into()]);
        w.row(&["multi\nline".into(), "ok".into(), "-2".into()]);
        let r = CsvReader::parse(w.as_str()).unwrap();
        assert_eq!(r.header(), &["name", "note", "w"]);
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.field(0, 0), "a,b");
        assert_eq!(r.field(0, 1), "says \"hi\"");
        assert_eq!(r.field(1, 0), "multi\nline");
        assert_eq!(r.f64_at(0, 2), Ok(1.5));
        assert_eq!(r.f64_at(1, 2), Ok(-2.0));
        // Re-emitting through the writer reproduces the bytes.
        let mut again = CsvWriter::new();
        let names: Vec<&str> = r.header().iter().map(|s| s.as_str()).collect();
        again.header(&names);
        for row in r.rows() {
            again.row(row);
        }
        assert_eq!(again.as_str(), w.as_str());
    }

    #[test]
    fn reader_accepts_crlf_and_missing_final_newline() {
        let r = CsvReader::parse("a,b\r\n1,2\r\n3,4").unwrap();
        assert_eq!(r.n_rows(), 2);
        assert_eq!(r.field(1, 1), "4");
        assert_eq!(r.u64_at(0, 0), Ok(1));
    }

    #[test]
    fn reader_typed_errors() {
        assert_eq!(CsvReader::parse(""), Err(CsvError::Empty));
        assert_eq!(CsvReader::parse("\n\n"), Err(CsvError::Empty));
        assert_eq!(
            CsvReader::parse("a,b\n1\n"),
            Err(CsvError::ShortRow {
                line: 2,
                got: 1,
                want: 2
            })
        );
        assert_eq!(
            CsvReader::parse("a,b\n1,2,3\n"),
            Err(CsvError::ShortRow {
                line: 2,
                got: 3,
                want: 2
            })
        );
        assert_eq!(
            CsvReader::parse("a,\"b\n"),
            Err(CsvError::UnclosedQuote { line: 1 })
        );
        let r = CsvReader::parse("a,b\nx,2\n").unwrap();
        assert_eq!(
            r.column("c"),
            Err(CsvError::MissingColumn { name: "c".into() })
        );
        assert_eq!(
            r.f64_at(0, 0),
            Err(CsvError::BadNumber {
                line: 2,
                column: "a".into(),
                value: "x".into()
            })
        );
        // Non-finite numbers are rejected, not smuggled through.
        let r = CsvReader::parse("a\nNaN\ninf\n").unwrap();
        assert!(matches!(r.f64_at(0, 0), Err(CsvError::BadNumber { .. })));
        assert!(matches!(r.f64_at(1, 0), Err(CsvError::BadNumber { .. })));
    }

    #[test]
    fn reader_header_only_is_zero_rows() {
        let r = CsvReader::parse("node,tick,power_w\n").unwrap();
        assert_eq!(r.n_rows(), 0);
        assert_eq!(r.column("power_w"), Ok(2));
    }
}
