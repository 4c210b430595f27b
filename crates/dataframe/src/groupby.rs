//! Group-by/aggregate and value-counts kernels.

use crate::column::{Column, ColumnData};
use crate::error::FrameError;
use crate::frame::DataFrame;
use crate::value::Value;
use crate::Result;
use std::collections::HashMap;

/// The aggregation functions understood by [`DataFrame::group_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggKind {
    Count,
    Sum,
    Mean,
    Min,
    Max,
    Std,
    Median,
    NUnique,
}

impl AggKind {
    /// Parse the textual name used in AQL (`count`, `sum`, `mean`/`avg`, …).
    pub fn parse(s: &str) -> Option<AggKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "count" => AggKind::Count,
            "sum" => AggKind::Sum,
            "mean" | "avg" | "average" => AggKind::Mean,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            "std" | "stddev" => AggKind::Std,
            "median" => AggKind::Median,
            "nunique" | "n_unique" | "unique" => AggKind::NUnique,
            _ => return None,
        })
    }

    /// The canonical display name.
    pub fn name(self) -> &'static str {
        match self {
            AggKind::Count => "count",
            AggKind::Sum => "sum",
            AggKind::Mean => "mean",
            AggKind::Min => "min",
            AggKind::Max => "max",
            AggKind::Std => "std",
            AggKind::Median => "median",
            AggKind::NUnique => "nunique",
        }
    }
}

/// One aggregation to compute: `kind` of `column`, output named
/// `{column}_{kind}` (or just `count` for Count).
#[derive(Debug, Clone)]
pub struct Aggregation {
    /// Input column (ignored for `Count`).
    pub column: String,
    /// Aggregation function.
    pub kind: AggKind,
}

impl Aggregation {
    /// Construct an aggregation.
    pub fn new(column: &str, kind: AggKind) -> Self {
        Aggregation { column: column.to_string(), kind }
    }

    /// Output column name.
    pub fn output_name(&self) -> String {
        match self.kind {
            AggKind::Count => "count".to_string(),
            k => format!("{}_{}", self.column, k.name()),
        }
    }

    /// Aggregate the `rows` of `input` that form one group. `Count` only
    /// needs the group size, so it never gathers the rows.
    fn apply(&self, input: &Column, rows: &[usize]) -> Value {
        let col = || input.take(rows);
        match self.kind {
            AggKind::Count => Value::Int(rows.len() as i64),
            AggKind::Sum => Value::Float(col().sum()),
            AggKind::Mean => col().mean().map_or(Value::Null, Value::Float),
            AggKind::Min => col().min(),
            AggKind::Max => col().max(),
            AggKind::Std => col().std().map_or(Value::Null, Value::Float),
            AggKind::Median => col().median().map_or(Value::Null, Value::Float),
            AggKind::NUnique => Value::Int(col().n_unique() as i64),
        }
    }
}

/// A cell's grouping identity, borrowed from column storage.
///
/// Two cells of one column group together exactly when their keys are
/// equal: null is its own group, every NaN is one group whatever its
/// payload or sign, `-0.0` and `0.0` are two groups, and every other value
/// groups by exact equality. (`crosstab`'s dedup of row and column values
/// and join keys use other equivalences on purpose.)
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum GroupKey<'a> {
    Null,
    Int(i64),
    /// `f64` bits, with every NaN mapped to one canonical NaN.
    Float(u64),
    Str(&'a str),
    Bool(bool),
    DateTime(i64),
    List(&'a [String]),
}

impl ColumnData {
    /// The group key of cell `i` (null when out of bounds).
    pub(crate) fn group_key(&self, i: usize) -> GroupKey<'_> {
        let key = match self {
            ColumnData::Int(v) => v.get(i).copied().flatten().map(GroupKey::Int),
            ColumnData::Float(v) => v.get(i).copied().flatten().map(|f| {
                GroupKey::Float(if f.is_nan() {
                    f64::NAN.to_bits()
                } else {
                    f.to_bits()
                })
            }),
            ColumnData::Str(v) => v.get(i).and_then(Option::as_deref).map(GroupKey::Str),
            ColumnData::Bool(v) => v.get(i).copied().flatten().map(GroupKey::Bool),
            ColumnData::DateTime(v) => v.get(i).copied().flatten().map(GroupKey::DateTime),
            ColumnData::StrList(v) => v.get(i).and_then(Option::as_deref).map(GroupKey::List),
        };
        key.unwrap_or(GroupKey::Null)
    }
}

impl DataFrame {
    /// Group rows by the `keys` columns and compute `aggs` per group.
    ///
    /// The output has one row per distinct key combination (in order of
    /// first appearance), the key columns first, then one column per
    /// aggregation.
    pub fn group_by(&self, keys: &[&str], aggs: &[Aggregation]) -> Result<DataFrame> {
        if keys.is_empty() {
            return Err(FrameError::Invalid("group_by requires at least one key".into()));
        }
        let key_cols: Vec<&Column> = keys
            .iter()
            .map(|k| self.column(k))
            .collect::<Result<Vec<_>>>()?;
        for agg in aggs {
            if agg.kind != AggKind::Count {
                self.column(&agg.column)?;
            }
        }

        // Fold the key columns in one at a time: a row's group is the pair
        // (group of its key prefix, key of the next column), numbered in
        // order of first appearance. After the last column that is the
        // first-appearance numbering of the whole key tuple.
        let mut group_of_row = vec![0usize; self.n_rows()];
        let mut n_groups = 0;
        for c in &key_cols {
            let data = c.data();
            let mut ids: HashMap<(usize, GroupKey<'_>), usize> = HashMap::new();
            for (row, g) in group_of_row.iter_mut().enumerate() {
                let next = ids.len();
                *g = *ids.entry((*g, data.group_key(row))).or_insert(next);
            }
            n_groups = ids.len();
        }
        let mut group_rows: Vec<Vec<usize>> = vec![Vec::new(); n_groups];
        for (row, &g) in group_of_row.iter().enumerate() {
            group_rows[g].push(row);
        }
        let first_row: Vec<usize> = group_rows.iter().map(|rows| rows[0]).collect();

        // Key output columns: take the first row of each group.
        let mut out_cols: Vec<Column> = key_cols
            .iter()
            .map(|c| c.take(&first_row))
            .collect();

        for agg in aggs {
            // Resolve the input column once per aggregation (not per group).
            // Count never reads its input; the first key stands in.
            let input = if agg.kind == AggKind::Count {
                key_cols[0]
            } else {
                self.column(&agg.column)?
            };
            let mut data = ColumnData::empty(match agg.kind {
                AggKind::Count | AggKind::NUnique => crate::column::DType::Int,
                // Same dtype as input.
                AggKind::Min | AggKind::Max => input.dtype(),
                _ => crate::column::DType::Float,
            });
            for rows in &group_rows {
                data.push(agg.apply(input, rows))?;
            }
            out_cols.push(Column::new(&agg.output_name(), data));
        }
        DataFrame::new(out_cols)
    }

    /// Distinct values of `column` with their counts, sorted by count
    /// descending (ties by value ascending). Output columns: `column`,
    /// `count` — except when `column` is itself named `count`, in which
    /// case the value column comes back as `count_value` (the `count`
    /// name is taken by the aggregate).
    pub fn value_counts(&self, column: &str) -> Result<DataFrame> {
        // A key column literally named "count" would collide with the
        // aggregation output; route through a temporary name.
        if column == "count" {
            let renamed = self.rename("count", "__value_counts_key")?;
            let out = renamed.value_counts("__value_counts_key")?;
            return out.rename("__value_counts_key", "count_value");
        }
        let counted = self.group_by(&[column], &[Aggregation::new(column, AggKind::Count)])?;
        let mut indices: Vec<usize> = (0..counted.n_rows()).collect();
        let counts: Vec<Value> = counted.column("count")?.iter().collect();
        let vals: Vec<Value> = counted.column(column)?.iter().collect();
        indices.sort_by(|&a, &b| {
            counts[b]
                .total_cmp(&counts[a])
                .then(vals[a].total_cmp(&vals[b]))
        });
        Ok(counted.take(&indices))
    }

    /// Cross-tabulate: counts of `row_key` × `col_key` combinations as a
    /// wide frame — one row per `row_key` value, one Int column per
    /// `col_key` value (plus the leading key column).
    pub fn crosstab(&self, row_key: &str, col_key: &str) -> Result<DataFrame> {
        let counts = self.group_by(
            &[row_key, col_key],
            &[Aggregation::new(row_key, AggKind::Count)],
        )?;
        // Collect distinct row and column values in first-appearance order,
        // deduplicating through a keyed map rather than an O(n²)
        // `iter().any(loose_eq)` scan. Each column is uniformly typed, so a
        // per-dtype canonical key is exactly equivalent to same-dtype
        // `loose_eq` (Floats compare equal under `total_cmp` iff their bits
        // match; Int/Str/Bool/… under their exact values).
        fn cell_key(v: &Value) -> String {
            match v {
                Value::Null => "z:".to_string(),
                Value::Int(i) => format!("i:{i}"),
                Value::Float(f) => format!("f:{:016x}", f.to_bits()),
                other => format!("{other:?}"),
            }
        }
        let rk = counts.column(row_key)?;
        let ck = counts.column(col_key)?;
        let cnt = counts.column("count")?;
        let mut row_vals: Vec<Value> = Vec::new();
        let mut col_vals: Vec<Value> = Vec::new();
        let mut row_idx: HashMap<String, usize> = HashMap::new();
        let mut col_idx: HashMap<String, usize> = HashMap::new();
        for i in 0..counts.n_rows() {
            let rv = rk.get(i);
            let cv = ck.get(i);
            row_idx.entry(cell_key(&rv)).or_insert_with(|| {
                row_vals.push(rv);
                row_vals.len() - 1
            });
            col_idx.entry(cell_key(&cv)).or_insert_with(|| {
                col_vals.push(cv);
                col_vals.len() - 1
            });
        }
        // Deterministic column order. Remap indices to the sorted layout.
        let mut col_order: Vec<usize> = (0..col_vals.len()).collect();
        col_order.sort_by(|&a, &b| col_vals[a].total_cmp(&col_vals[b]));
        let mut col_rank = vec![0usize; col_vals.len()];
        for (rank, &orig) in col_order.iter().enumerate() {
            col_rank[orig] = rank;
        }
        let col_vals: Vec<Value> =
            col_order.iter().map(|&i| col_vals[i].clone()).collect();

        let mut table = vec![vec![0i64; col_vals.len()]; row_vals.len()];
        for i in 0..counts.n_rows() {
            let r = row_idx[&cell_key(&rk.get(i))];
            let c = col_rank[col_idx[&cell_key(&ck.get(i))]];
            if let Some(n) = cnt.get(i).as_f64() {
                table[r][c] = n as i64;
            }
        }
        let mut cols = vec![Column::new(
            row_key,
            {
                let mut data = ColumnData::empty(rk.dtype());
                for v in &row_vals {
                    data.push(v.clone())?;
                }
                data
            },
        )];
        let mut used: Vec<String> = vec![row_key.to_string()];
        for (j, cv) in col_vals.iter().enumerate() {
            let vals: Vec<i64> = table.iter().map(|row| row[j]).collect();
            // Data values can collide with the row-key name or each other
            // (e.g. a null and an empty string both display as ""); suffix
            // until unique so construction cannot fail.
            let mut name = cv.to_string();
            if name.is_empty() {
                name = "(null)".to_string();
            }
            while used.contains(&name) {
                name.push('_');
            }
            used.push(name.clone());
            cols.push(Column::from_i64s(&name, &vals));
        }
        DataFrame::new(cols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> DataFrame {
        DataFrame::new(vec![
            Column::from_strs("product", &["A", "B", "A", "B", "A"]),
            Column::from_strs("label", &["bug", "bug", "praise", "praise", "bug"]),
            Column::from_f64s("score", &[1.0, 2.0, 3.0, 4.0, 5.0]),
        ])
        .unwrap()
    }

    #[test]
    fn group_by_mean_and_count() {
        let g = sample()
            .group_by(
                &["product"],
                &[
                    Aggregation::new("score", AggKind::Mean),
                    Aggregation::new("score", AggKind::Count),
                ],
            )
            .unwrap();
        assert_eq!(g.n_rows(), 2);
        // First-appearance order: A then B.
        assert_eq!(g.cell(0, "product").unwrap(), Value::str("A"));
        assert_eq!(g.cell(0, "score_mean").unwrap(), Value::Float(3.0));
        assert_eq!(g.cell(0, "count").unwrap(), Value::Int(3));
        assert_eq!(g.cell(1, "score_mean").unwrap(), Value::Float(3.0));
    }

    #[test]
    fn group_by_multiple_keys() {
        let g = sample()
            .group_by(
                &["product", "label"],
                &[Aggregation::new("score", AggKind::Sum)],
            )
            .unwrap();
        assert_eq!(g.n_rows(), 4);
        let a_bug = g
            .filter_eq("product", &Value::str("A"))
            .unwrap()
            .filter_eq("label", &Value::str("bug"))
            .unwrap();
        assert_eq!(a_bug.cell(0, "score_sum").unwrap(), Value::Float(6.0));
    }

    #[test]
    fn min_max_keep_dtype() {
        let g = sample()
            .group_by(&["product"], &[Aggregation::new("label", AggKind::Min)])
            .unwrap();
        assert_eq!(g.cell(0, "label_min").unwrap(), Value::str("bug"));
    }

    #[test]
    fn value_counts_sorted() {
        let vc = sample().value_counts("label").unwrap();
        assert_eq!(vc.cell(0, "label").unwrap(), Value::str("bug"));
        assert_eq!(vc.cell(0, "count").unwrap(), Value::Int(3));
        assert_eq!(vc.cell(1, "count").unwrap(), Value::Int(2));
    }

    #[test]
    fn crosstab_counts() {
        let ct = sample().crosstab("product", "label").unwrap();
        assert_eq!(ct.n_rows(), 2);
        assert_eq!(ct.cell(0, "bug").unwrap(), Value::Int(2)); // A×bug
        assert_eq!(ct.cell(0, "praise").unwrap(), Value::Int(1));
        assert_eq!(ct.cell(1, "bug").unwrap(), Value::Int(1)); // B×bug
    }

    #[test]
    fn crosstab_keyed_dedup_preserves_order_and_nulls() {
        // Null cells, duplicate values and Int column keys exercise the
        // keyed-map dedup; row order must stay first-appearance, column
        // order sorted.
        let df = DataFrame::new(vec![
            Column::new(
                "r",
                ColumnData::Str(vec![
                    Some("b".into()),
                    Some("a".into()),
                    None,
                    Some("b".into()),
                    Some("a".into()),
                    Some("b".into()),
                ]),
            ),
            Column::from_i64s("c", &[2, 1, 2, 1, 2, 2]),
        ])
        .unwrap();
        let ct = df.crosstab("r", "c").unwrap();
        // First appearance: "b", "a", null.
        assert_eq!(ct.cell(0, "r").unwrap(), Value::str("b"));
        assert_eq!(ct.cell(1, "r").unwrap(), Value::str("a"));
        assert_eq!(ct.cell(2, "r").unwrap(), Value::Null);
        // Columns sorted ascending: 1 then 2.
        let names: Vec<&str> =
            ct.columns().iter().map(|c| c.name()).collect();
        assert_eq!(names, vec!["r", "1", "2"]);
        assert_eq!(ct.cell(0, "1").unwrap(), Value::Int(1)); // b×1
        assert_eq!(ct.cell(0, "2").unwrap(), Value::Int(2)); // b×2
        assert_eq!(ct.cell(1, "1").unwrap(), Value::Int(1)); // a×1
        assert_eq!(ct.cell(1, "2").unwrap(), Value::Int(1)); // a×2
        assert_eq!(ct.cell(2, "2").unwrap(), Value::Int(1)); // null×2
    }

    #[test]
    fn group_by_errors() {
        assert!(sample().group_by(&[], &[]).is_err());
        assert!(sample()
            .group_by(&["nope"], &[Aggregation::new("score", AggKind::Sum)])
            .is_err());
        assert!(sample()
            .group_by(&["product"], &[Aggregation::new("nope", AggKind::Sum)])
            .is_err());
    }

    #[test]
    fn agg_kind_parsing() {
        assert_eq!(AggKind::parse("AVG"), Some(AggKind::Mean));
        assert_eq!(AggKind::parse("nunique"), Some(AggKind::NUnique));
        assert_eq!(AggKind::parse("bogus"), None);
    }

    #[test]
    fn int_str_keys_do_not_collide() {
        let df = DataFrame::new(vec![
            Column::new(
                "k",
                ColumnData::Str(vec![Some("1".into()), Some("1".into())]),
            ),
            Column::from_i64s("v", &[1, 2]),
        ])
        .unwrap();
        let g = df
            .group_by(&["k"], &[Aggregation::new("v", AggKind::Count)])
            .unwrap();
        assert_eq!(g.n_rows(), 1);
    }

    /// The string-key grouping `group_by` used before typed keys: each
    /// cell's `Debug` text, joined. Kept as the reference the typed key is
    /// checked against.
    fn reference_key_of(cols: &[&Column], row: usize) -> String {
        let mut key = String::new();
        for c in cols {
            key.push_str(&format!("{:?}\u{1}", c.get(row)));
        }
        key
    }

    /// `group_by` as it was with string keys: gathers every group's rows,
    /// `Count` included.
    fn reference_group_by(
        df: &DataFrame,
        keys: &[&str],
        aggs: &[Aggregation],
    ) -> Result<DataFrame> {
        let key_cols: Vec<&Column> = keys.iter().map(|k| df.column(k)).collect::<Result<_>>()?;
        let mut group_rows: Vec<Vec<usize>> = Vec::new();
        let mut group_of: HashMap<String, usize> = HashMap::new();
        let mut first_row: Vec<usize> = Vec::new();
        for row in 0..df.n_rows() {
            let g = *group_of
                .entry(reference_key_of(&key_cols, row))
                .or_insert_with(|| {
                    group_rows.push(Vec::new());
                    first_row.push(row);
                    group_rows.len() - 1
                });
            group_rows[g].push(row);
        }
        let mut out_cols: Vec<Column> = key_cols.iter().map(|c| c.take(&first_row)).collect();
        for agg in aggs {
            let input = df.column(&agg.column)?;
            let mut data = ColumnData::empty(match agg.kind {
                AggKind::Count | AggKind::NUnique => crate::column::DType::Int,
                AggKind::Min | AggKind::Max => input.dtype(),
                _ => crate::column::DType::Float,
            });
            for rows in &group_rows {
                let group = input.take(rows);
                data.push(match agg.kind {
                    AggKind::Count => Value::Int(group.len() as i64),
                    _ => agg.apply(&group, &(0..group.len()).collect::<Vec<_>>()),
                })?;
            }
            out_cols.push(Column::new(&agg.output_name(), data));
        }
        DataFrame::new(out_cols)
    }

    fn reference_n_unique(c: &Column) -> usize {
        let mut vals: Vec<String> = c
            .iter()
            .filter(|v| !v.is_null())
            .map(|v| format!("{v:?}"))
            .collect();
        vals.sort();
        vals.dedup();
        vals.len()
    }

    /// Cells with float bits spelled out, so NaN payloads and signed zeros
    /// are compared exactly.
    fn render(result: Result<DataFrame>) -> String {
        match result {
            Ok(df) => df
                .columns()
                .iter()
                .map(|c| {
                    let cells: Vec<String> = c
                        .iter()
                        .map(|v| match v {
                            Value::Float(f) => format!("F{:x}", f.to_bits()),
                            other => format!("{other:?}"),
                        })
                        .collect();
                    format!("{} {:?} {}\n", c.name(), c.dtype(), cells.join(","))
                })
                .collect(),
            Err(e) => format!("error: {e}"),
        }
    }

    const NAMES: [&str; 6] = ["i", "f", "s", "b", "t", "l"];

    /// A frame of every key kind whose cells come from small pools that
    /// hold the edge cases: nulls, NaNs with different payloads and signs,
    /// signed zeros, the old key separator, empty strings and lists. Each
    /// seed picks one row; each column reads its own byte of the seed.
    fn frame_from(seeds: &[u64]) -> DataFrame {
        use crate::column::DType;
        let nan = |bits: u64| Value::Float(f64::from_bits(bits));
        let list = |items: &[&str]| Value::StrList(items.iter().map(|s| s.to_string()).collect());
        let pools = [
            (
                "i",
                DType::Int,
                vec![Value::Int(0), Value::Int(1), Value::Int(-7)],
            ),
            (
                "f",
                DType::Float,
                vec![
                    Value::Float(0.0),
                    Value::Float(-0.0),
                    Value::Float(1.5),
                    nan(0x7ff8_0000_0000_0000),
                    nan(0x7ff8_0000_0000_0001),
                    nan(0xfff8_0000_0000_0000),
                ],
            ),
            (
                "s",
                DType::Str,
                vec![
                    Value::str(""),
                    Value::str("a"),
                    Value::str("b"),
                    Value::str("\u{1}"),
                ],
            ),
            (
                "b",
                DType::Bool,
                vec![Value::Bool(true), Value::Bool(false)],
            ),
            (
                "t",
                DType::DateTime,
                vec![
                    Value::DateTime(0),
                    Value::DateTime(86_400),
                    Value::DateTime(-1),
                ],
            ),
            (
                "l",
                DType::StrList,
                vec![
                    list(&[]),
                    list(&["a"]),
                    list(&["a", "b"]),
                    list(&["b", "a"]),
                    list(&[""]),
                ],
            ),
            (
                "v",
                DType::Float,
                vec![Value::Float(0.0), Value::Float(2.5), Value::Float(-3.0)],
            ),
        ];
        let columns = pools
            .into_iter()
            .enumerate()
            .map(|(j, (name, dtype, mut pool))| {
                pool.push(Value::Null);
                let mut data = ColumnData::empty(dtype);
                for &seed in seeds {
                    data.push(pool[(seed >> (8 * j)) as usize % pool.len()].clone())
                        .unwrap();
                }
                Column::new(name, data)
            })
            .collect();
        DataFrame::new(columns).unwrap()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn typed_keys_match_string_key_reference(
            seeds in proptest::collection::vec(0u64..u64::MAX, 0..40),
            first in 0usize..6,
            second in 0usize..7,
        ) {
            let df = frame_from(&seeds);
            let mut keys = vec![NAMES[first]];
            if second < NAMES.len() && second != first {
                keys.push(NAMES[second]);
            }
            let kinds = [
                AggKind::Count,
                AggKind::Sum,
                AggKind::Mean,
                AggKind::Min,
                AggKind::Max,
                AggKind::Std,
                AggKind::Median,
                AggKind::NUnique,
            ];
            let aggs: Vec<Aggregation> = kinds.iter().map(|&k| Aggregation::new("v", k)).collect();
            prop_assert_eq!(
                render(df.group_by(&keys, &aggs)),
                render(reference_group_by(&df, &keys, &aggs)),
                "keys {:?}", keys
            );
            for name in NAMES {
                let c = df.column(name).unwrap();
                prop_assert_eq!(c.n_unique(), reference_n_unique(c), "n_unique of {}", name);
            }
        }
    }
}
