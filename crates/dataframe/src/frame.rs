//! The [`DataFrame`]: an ordered collection of equal-length named columns.

use crate::column::{Column, ColumnData};
use crate::datetime::CivilDateTime;
use crate::error::FrameError;
use crate::value::Value;
use crate::Result;
use serde::{Deserialize, Serialize};

/// An immutable table. All mutating operations return a new frame.
///
/// Deserialization re-validates through [`DataFrame::new`], so serialized
/// frames cannot smuggle in ragged column lengths or duplicate names.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
#[serde(try_from = "RawFrame")]
pub struct DataFrame {
    columns: Vec<Column>,
}

/// Unvalidated wire form of a [`DataFrame`].
#[derive(Deserialize)]
struct RawFrame {
    columns: Vec<Column>,
}

impl TryFrom<RawFrame> for DataFrame {
    type Error = FrameError;
    fn try_from(raw: RawFrame) -> Result<DataFrame> {
        DataFrame::new(raw.columns)
    }
}

impl DataFrame {
    /// Build a frame from columns, validating equal lengths and unique names.
    pub fn new(columns: Vec<Column>) -> Result<Self> {
        if let Some(first) = columns.first() {
            let expected = first.len();
            for c in &columns {
                if c.len() != expected {
                    return Err(FrameError::LengthMismatch { expected, actual: c.len() });
                }
            }
        }
        let mut names: Vec<&str> = columns.iter().map(Column::name).collect();
        names.sort_unstable();
        for pair in names.windows(2) {
            if pair[0] == pair[1] {
                return Err(FrameError::DuplicateColumn(pair[0].to_string()));
            }
        }
        Ok(DataFrame { columns })
    }

    /// The empty frame (no columns, no rows).
    pub fn empty() -> Self {
        DataFrame::default()
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(Column::name).collect()
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Look up a column by name.
    pub fn column(&self, name: &str) -> Result<&Column> {
        self.columns.iter().find(|c| c.name() == name).ok_or_else(|| {
            FrameError::UnknownColumn {
                name: name.to_string(),
                available: self.column_names().iter().map(|s| s.to_string()).collect(),
            }
        })
    }

    /// Does a column with this name exist?
    pub fn has_column(&self, name: &str) -> bool {
        self.columns.iter().any(|c| c.name() == name)
    }

    /// One cell.
    pub fn cell(&self, row: usize, column: &str) -> Result<Value> {
        if row >= self.n_rows() {
            return Err(FrameError::RowOutOfBounds { index: row, len: self.n_rows() });
        }
        Ok(self.column(column)?.get(row))
    }

    /// Project onto `names`, in the given order.
    pub fn select(&self, names: &[&str]) -> Result<DataFrame> {
        let cols = names
            .iter()
            .map(|n| self.column(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        DataFrame::new(cols)
    }

    /// Add (or replace) a column; length must match unless the frame is
    /// empty of columns.
    pub fn with_column(&self, column: Column) -> Result<DataFrame> {
        if !self.columns.is_empty() && column.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: column.len(),
            });
        }
        // Replace in place when the column exists, preserving the frame's
        // column order (order matters to concat's schema check).
        let mut cols: Vec<Column> = self.columns.clone();
        match cols.iter().position(|c| c.name() == column.name()) {
            Some(pos) => cols[pos] = column,
            None => cols.push(column),
        }
        DataFrame::new(cols)
    }

    /// Drop a column (error if absent).
    pub fn drop_column(&self, name: &str) -> Result<DataFrame> {
        self.column(name)?; // existence check
        DataFrame::new(
            self.columns
                .iter()
                .filter(|c| c.name() != name)
                .cloned()
                .collect(),
        )
    }

    /// Rename a column.
    pub fn rename(&self, from: &str, to: &str) -> Result<DataFrame> {
        self.column(from)?;
        if self.has_column(to) && from != to {
            return Err(FrameError::DuplicateColumn(to.to_string()));
        }
        DataFrame::new(
            self.columns
                .iter()
                .map(|c| {
                    if c.name() == from {
                        c.clone().renamed(to)
                    } else {
                        c.clone()
                    }
                })
                .collect(),
        )
    }

    /// Keep rows where `mask[i]` is true. Mask must have `n_rows` entries.
    pub fn filter(&self, mask: &[bool]) -> Result<DataFrame> {
        if mask.len() != self.n_rows() {
            return Err(FrameError::LengthMismatch {
                expected: self.n_rows(),
                actual: mask.len(),
            });
        }
        let indices: Vec<usize> = mask
            .iter()
            .enumerate()
            .filter_map(|(i, &keep)| keep.then_some(i))
            .collect();
        Ok(self.take(&indices))
    }

    /// Keep rows where `predicate(row_index)` is true.
    pub fn filter_by<F: FnMut(usize) -> bool>(&self, mut predicate: F) -> DataFrame {
        let indices: Vec<usize> = (0..self.n_rows()).filter(|&i| predicate(i)).collect();
        self.take(&indices)
    }

    /// Keep rows where `column == value` (loose numeric equality).
    pub fn filter_eq(&self, column: &str, value: &Value) -> Result<DataFrame> {
        let col = self.column(column)?;
        Ok(self.filter_by(|i| col.get(i).loose_eq(value)))
    }

    /// Keep rows where the Str column contains `needle` (case-insensitive).
    pub fn filter_contains(&self, column: &str, needle: &str) -> Result<DataFrame> {
        let col = self.column(column)?;
        let needle = needle.to_lowercase();
        let strs = col.strs()?;
        let mask: Vec<bool> = strs
            .iter()
            .map(|o| o.as_deref().is_some_and(|s| s.to_lowercase().contains(&needle)))
            .collect();
        self.filter(&mask)
    }

    /// Keep rows where the StrList column contains `item` (exact,
    /// case-insensitive).
    pub fn filter_list_has(&self, column: &str, item: &str) -> Result<DataFrame> {
        let col = self.column(column)?;
        let lists = col.str_lists()?;
        let item = item.to_lowercase();
        let mask: Vec<bool> = lists
            .iter()
            .map(|o| {
                o.as_deref()
                    .is_some_and(|l| l.iter().any(|t| t.to_lowercase() == item))
            })
            .collect();
        self.filter(&mask)
    }

    /// Keep rows whose DateTime column falls in `[start, end)` epoch seconds.
    pub fn filter_datetime_range(&self, column: &str, start: i64, end: i64) -> Result<DataFrame> {
        let col = self.column(column)?;
        let times = col.datetimes()?;
        let mask: Vec<bool> = times
            .iter()
            .map(|o| o.is_some_and(|t| t >= start && t < end))
            .collect();
        self.filter(&mask)
    }

    /// Select rows at `indices`, in order (out-of-range yields null cells).
    pub fn take(&self, indices: &[usize]) -> DataFrame {
        DataFrame {
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
        }
    }

    /// First `n` rows.
    pub fn head(&self, n: usize) -> DataFrame {
        let indices: Vec<usize> = (0..self.n_rows().min(n)).collect();
        self.take(&indices)
    }

    /// Sort by a column (stable; nulls first on ascending).
    pub fn sort_by(&self, column: &str, ascending: bool) -> Result<DataFrame> {
        let col = self.column(column)?;
        let mut indices: Vec<usize> = (0..self.n_rows()).collect();
        indices.sort_by(|&a, &b| {
            let ord = col.get(a).total_cmp(&col.get(b));
            if ascending {
                ord
            } else {
                ord.reverse()
            }
        });
        Ok(self.take(&indices))
    }

    /// The first `k` rows of `sort_by(column, ascending)` without sorting
    /// the whole frame: selects the k smallest (or largest) rows in O(n)
    /// and only sorts those. Byte-identical to `sort_by(...)?.head(k)` —
    /// ties are broken by original row index, which is exactly what the
    /// stable full sort produces.
    pub fn top_k(&self, column: &str, ascending: bool, k: usize) -> Result<DataFrame> {
        let col = self.column(column)?;
        let n = self.n_rows();
        if k == 0 {
            return Ok(self.head(0));
        }
        if k >= n {
            return self.sort_by(column, ascending);
        }
        let mut indices: Vec<usize> = (0..n).collect();
        let cmp = |a: &usize, b: &usize| {
            let ord = col.get(*a).total_cmp(&col.get(*b));
            let ord = if ascending { ord } else { ord.reverse() };
            // Index tie-break makes the order total, so an unstable
            // selection/sort reproduces the stable full sort.
            ord.then(a.cmp(b))
        };
        indices.select_nth_unstable_by(k - 1, cmp);
        indices.truncate(k);
        indices.sort_unstable_by(cmp);
        Ok(self.take(&indices))
    }

    /// Vertically concatenate another frame with the same schema.
    pub fn concat(&self, other: &DataFrame) -> Result<DataFrame> {
        if self.columns.is_empty() {
            return Ok(other.clone());
        }
        if self.column_names() != other.column_names() {
            return Err(FrameError::Invalid(format!(
                "schema mismatch: {:?} vs {:?}",
                self.column_names(),
                other.column_names()
            )));
        }
        let mut cols = Vec::with_capacity(self.columns.len());
        for (a, b) in self.columns.iter().zip(other.columns()) {
            let mut data = a.data().clone();
            for i in 0..b.len() {
                data.push(b.get(i))
                    .map_err(|_| FrameError::TypeMismatch {
                        column: a.name().to_string(),
                        expected: a.dtype(),
                        actual: b.dtype(),
                    })?;
            }
            cols.push(Column::new(a.name(), data));
        }
        DataFrame::new(cols)
    }

    /// Derive a Str column by mapping the DateTime column through a
    /// calendar accessor: one of `"month"`, `"month_name"`, `"weekday"`,
    /// `"date"`, `"year"`, `"week"`, `"is_weekend"`.
    pub fn datetime_part(&self, column: &str, part: &str) -> Result<Column> {
        let col = self.column(column)?;
        let times = col.datetimes()?;
        let name = format!("{column}_{part}");
        let as_str = |f: &dyn Fn(CivilDateTime) -> String| -> Column {
            Column::new(
                &name,
                ColumnData::Str(
                    times
                        .iter()
                        .map(|o| o.map(|t| f(CivilDateTime::from_epoch(t))))
                        .collect(),
                ),
            )
        };
        Ok(match part {
            "month" => Column::new(
                &name,
                ColumnData::Int(
                    times
                        .iter()
                        .map(|o| o.map(|t| i64::from(CivilDateTime::from_epoch(t).month)))
                        .collect(),
                ),
            ),
            "year" => Column::new(
                &name,
                ColumnData::Int(
                    times
                        .iter()
                        .map(|o| o.map(|t| i64::from(CivilDateTime::from_epoch(t).year)))
                        .collect(),
                ),
            ),
            "week" => Column::new(
                &name,
                ColumnData::Int(
                    times
                        .iter()
                        .map(|o| o.map(|t| i64::from(CivilDateTime::from_epoch(t).iso_week())))
                        .collect(),
                ),
            ),
            "month_name" => as_str(&|d| d.month_name().to_string()),
            "weekday" => as_str(&|d| d.weekday().name().to_string()),
            "date" => as_str(&|d| format!("{:04}-{:02}-{:02}", d.year, d.month, d.day)),
            "is_weekend" => Column::new(
                &name,
                ColumnData::Bool(
                    times
                        .iter()
                        .map(|o| o.map(|t| CivilDateTime::from_epoch(t).weekday().is_weekend()))
                        .collect(),
                ),
            ),
            other => {
                return Err(FrameError::Invalid(format!(
                    "unknown datetime part '{other}' (try month, month_name, weekday, date, year, week, is_weekend)"
                )))
            }
        })
    }

    /// Explode a StrList column: one output row per list element, other
    /// columns repeated; the exploded column becomes a Str column. Rows with
    /// empty or null lists are dropped.
    pub fn explode(&self, column: &str) -> Result<DataFrame> {
        let col = self.column(column)?;
        let lists = col.str_lists()?;
        let mut indices = Vec::new();
        let mut exploded: Vec<Option<String>> = Vec::new();
        for (i, cell) in lists.iter().enumerate() {
            if let Some(items) = cell {
                for item in items {
                    indices.push(i);
                    exploded.push(Some(item.clone()));
                }
            }
        }
        // Gather only the columns that are kept; the exploded column takes
        // its old place in the order.
        let new_col = Column::new(column, ColumnData::Str(exploded));
        let columns = self
            .columns
            .iter()
            .map(|c| {
                if c.name() == column {
                    new_col.clone()
                } else {
                    c.take(&indices)
                }
            })
            .collect();
        Ok(DataFrame { columns })
    }

    /// Render the first `max_rows` rows as a fixed-width text table
    /// (markdown-flavoured) — the agent's table artifact format.
    pub fn to_table_string(&self, max_rows: usize) -> String {
        if self.columns.is_empty() {
            return "(empty frame)".to_string();
        }
        let n = self.n_rows().min(max_rows);
        let mut widths: Vec<usize> = self
            .columns
            .iter()
            .map(|c| c.name().chars().count())
            .collect();
        let mut rows: Vec<Vec<String>> = Vec::with_capacity(n);
        for i in 0..n {
            let row: Vec<String> = self
                .columns
                .iter()
                .map(|c| {
                    let mut s = c.get(i).to_string();
                    if s.chars().count() > 40 {
                        s = s.chars().take(37).collect::<String>() + "...";
                    }
                    s
                })
                .collect();
            for (w, cell) in widths.iter_mut().zip(&row) {
                *w = (*w).max(cell.chars().count());
            }
            rows.push(row);
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{:w$}", c.name(), w = w))
            .collect();
        out.push_str(&format!("| {} |\n", header.join(" | ")));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{:w$}", c, w = w))
                .collect();
            out.push_str(&format!("| {} |\n", cells.join(" | ")));
        }
        if self.n_rows() > max_rows {
            out.push_str(&format!("({} more rows)\n", self.n_rows() - max_rows));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::DType;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            Column::from_strs("product", &["WhatsApp", "Windows", "WhatsApp", "Minecraft"]),
            Column::from_f64s("sentiment", &[0.8, -0.2, 0.5, 0.9]),
            Column::from_i64s("len", &[10, 20, 30, 40]),
        ])
        .unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(DataFrame::new(vec![
            Column::from_i64s("a", &[1]),
            Column::from_i64s("b", &[1, 2]),
        ])
        .is_err());
        assert!(DataFrame::new(vec![
            Column::from_i64s("a", &[1]),
            Column::from_i64s("a", &[2]),
        ])
        .is_err());
    }

    #[test]
    fn select_and_drop() {
        let df = sample();
        let s = df.select(&["sentiment", "product"]).unwrap();
        assert_eq!(s.column_names(), vec!["sentiment", "product"]);
        assert!(df.select(&["nope"]).is_err());
        let d = df.drop_column("len").unwrap();
        assert_eq!(d.n_cols(), 2);
    }

    #[test]
    fn filter_eq_and_contains() {
        let df = sample();
        let wa = df.filter_eq("product", &Value::str("WhatsApp")).unwrap();
        assert_eq!(wa.n_rows(), 2);
        let has_win = df.filter_contains("product", "win").unwrap();
        assert_eq!(has_win.n_rows(), 1);
    }

    #[test]
    fn sort_stable_and_desc() {
        let df = sample();
        let sorted = df.sort_by("sentiment", false).unwrap();
        assert_eq!(sorted.cell(0, "product").unwrap(), Value::str("Minecraft"));
        assert_eq!(sorted.cell(3, "product").unwrap(), Value::str("Windows"));
    }

    #[test]
    fn with_column_replaces() {
        let df = sample();
        let df2 = df
            .with_column(Column::from_i64s("len", &[1, 1, 1, 1]))
            .unwrap();
        assert_eq!(df2.n_cols(), 3);
        assert_eq!(df2.cell(0, "len").unwrap(), Value::Int(1));
        assert!(df.with_column(Column::from_i64s("x", &[1])).is_err());
    }

    #[test]
    fn head_and_take() {
        let df = sample();
        assert_eq!(df.head(2).n_rows(), 2);
        let t = df.take(&[3, 0]);
        assert_eq!(t.cell(0, "product").unwrap(), Value::str("Minecraft"));
    }

    #[test]
    fn concat_schemas() {
        let df = sample();
        let both = df.concat(&df).unwrap();
        assert_eq!(both.n_rows(), 8);
        let other = DataFrame::new(vec![Column::from_i64s("x", &[1])]).unwrap();
        assert!(df.concat(&other).is_err());
    }

    #[test]
    fn datetime_parts() {
        let base = CivilDateTime::date(2023, 10, 14).to_epoch(); // Saturday
        let df = DataFrame::new(vec![Column::from_datetimes("ts", &[base, base + 3 * 86_400])])
            .unwrap();
        let wd = df.datetime_part("ts", "weekday").unwrap();
        assert_eq!(wd.get(0), Value::str("Saturday"));
        assert_eq!(wd.get(1), Value::str("Tuesday"));
        let we = df.datetime_part("ts", "is_weekend").unwrap();
        assert_eq!(we.get(0), Value::Bool(true));
        assert_eq!(we.get(1), Value::Bool(false));
        assert!(df.datetime_part("ts", "nope").is_err());
    }

    #[test]
    fn explode_str_lists() {
        let df = DataFrame::new(vec![
            Column::from_strs("id", &["a", "b", "c"]),
            Column::from_str_lists("topics", vec![
                vec!["bug".into(), "ui".into()],
                vec![],
                vec!["perf".into()],
            ]),
        ])
        .unwrap();
        let e = df.explode("topics").unwrap();
        assert_eq!(e.n_rows(), 3);
        assert_eq!(e.cell(0, "topics").unwrap(), Value::str("bug"));
        assert_eq!(e.cell(1, "id").unwrap(), Value::str("a"));
        assert_eq!(e.cell(2, "id").unwrap(), Value::str("c"));
        assert_eq!(e.column("topics").unwrap().dtype(), DType::Str);
    }

    #[test]
    fn explode_matches_take_then_replace() {
        let df = DataFrame::new(vec![
            Column::from_i64s("id", &[1, 2, 3, 4, 5]),
            Column::new(
                "topics",
                ColumnData::StrList(vec![
                    Some(vec!["bug".into(), "ui".into()]),
                    None,
                    Some(vec![]),
                    Some(vec!["perf".into(), "bug".into(), "perf".into()]),
                    None,
                ]),
            ),
            Column::new(
                "note",
                ColumnData::Str(vec![
                    Some("a".into()),
                    Some("b".into()),
                    None,
                    Some("d".into()),
                    None,
                ]),
            ),
        ])
        .unwrap();
        // The old kernel: gather every column, then swap in the new one.
        let indices = [0, 0, 3, 3, 3];
        let items = ["bug", "ui", "perf", "bug", "perf"];
        let old = df
            .take(&indices)
            .with_column(Column::from_strs("topics", &items))
            .unwrap();
        let new = df.explode("topics").unwrap();
        assert_eq!(format!("{new:?}"), format!("{old:?}"));
        assert_eq!(new.column_names(), vec!["id", "topics", "note"]);
    }

    #[test]
    fn untouched_columns_share_storage() {
        let df = sample();
        let shared = |a: &DataFrame, b: &DataFrame, name: &str| {
            a.column(name)
                .unwrap()
                .shares_storage(b.column(name).unwrap())
        };
        let cloned = df.clone();
        for name in ["product", "sentiment", "len"] {
            assert!(shared(&df, &cloned, name), "clone copied {name}");
        }
        let selected = df.select(&["len", "product"]).unwrap();
        assert!(shared(&df, &selected, "len") && shared(&df, &selected, "product"));
        let widened = df
            .with_column(Column::from_i64s("extra", &[0, 0, 0, 0]))
            .unwrap();
        let replaced = df
            .with_column(Column::from_i64s("len", &[0, 0, 0, 0]))
            .unwrap();
        for name in ["product", "sentiment"] {
            assert!(shared(&df, &widened, name) && shared(&df, &replaced, name));
        }
        assert!(!shared(&df, &replaced, "len"));
        let renamed = df.rename("len", "length").unwrap();
        assert!(shared(&df, &renamed, "product"));
        assert!(df
            .column("len")
            .unwrap()
            .shares_storage(renamed.column("length").unwrap()));
        // Gathering rows builds new storage.
        assert!(!shared(&df, &df.head(2), "product"));
    }

    #[test]
    fn filter_list_has() {
        let df = DataFrame::new(vec![Column::from_str_lists("topics", vec![
            vec!["Bug".into()],
            vec!["feature request".into()],
        ])])
        .unwrap();
        assert_eq!(df.filter_list_has("topics", "bug").unwrap().n_rows(), 1);
    }

    #[test]
    fn table_rendering() {
        let s = sample().to_table_string(2);
        assert!(s.contains("product"));
        assert!(s.contains("(2 more rows)"));
        assert!(s.starts_with('|'));
    }

    #[test]
    fn datetime_range_filter() {
        let t0 = CivilDateTime::date(2023, 4, 1).to_epoch();
        let t1 = CivilDateTime::date(2023, 5, 1).to_epoch();
        let df = DataFrame::new(vec![Column::from_datetimes("ts", &[t0, t1, t1 + 5])]).unwrap();
        let apr = df.filter_datetime_range("ts", t0, t1).unwrap();
        assert_eq!(apr.n_rows(), 1);
    }

    #[test]
    fn top_k_matches_sort_then_head() {
        // Heavy ties (and nulls) so the stable-sort tie-break is actually
        // exercised: a payload column distinguishes tied rows.
        let scores: Vec<Option<i64>> = (0..200)
            .map(|i| if i % 7 == 0 { None } else { Some((i % 5) as i64) })
            .collect();
        let ids: Vec<i64> = (0..200).collect();
        let df = DataFrame::new(vec![
            Column::new("score", crate::column::ColumnData::Int(scores)),
            Column::from_i64s("id", &ids),
        ])
        .unwrap();
        for ascending in [true, false] {
            for k in [0usize, 1, 5, 37, 199, 200, 500] {
                let slow = df.sort_by("score", ascending).unwrap().head(k);
                let fast = df.top_k("score", ascending, k).unwrap();
                assert_eq!(
                    format!("{fast:?}"),
                    format!("{slow:?}"),
                    "top_k({ascending}, {k}) diverged from sort+head"
                );
            }
        }
    }
}
