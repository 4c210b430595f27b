//! Golden outputs of the grouping kernels — `group_by`, `value_counts` and
//! `Column::n_unique` — over every key kind, plus the serialized JSON of a
//! small frame.
//!
//! The expected files under `tests/golden/` were produced by the string-key
//! implementation these kernels replaced. They pin which rows group
//! together (all NaNs form one group, `-0.0` and `0.0` stay apart, null is
//! its own group), the first-appearance group order, the representative
//! cell each group keeps, and the exact serialized bytes. On a mismatch the
//! actual output is written next to the test binaries for diffing.

use allhands_dataframe::{AggKind, Aggregation, Column, ColumnData, DataFrame, Value};
use std::fmt::Write as _;

/// One cell, with float bits spelled out so NaN payloads and signed zeros
/// are visible.
fn cell(v: &Value) -> String {
    match v {
        Value::Float(f) => format!("Float({f:?}/{:#018x})", f.to_bits()),
        other => format!("{other:?}"),
    }
}

fn render(out: &mut String, title: &str, result: allhands_dataframe::Result<DataFrame>) {
    writeln!(out, "## {title}").unwrap();
    match result {
        Ok(df) => {
            for c in df.columns() {
                let cells: Vec<String> = c.iter().map(|v| cell(&v)).collect();
                writeln!(out, "{} {:?} [{}]", c.name(), c.dtype(), cells.join(", ")).unwrap();
            }
        }
        Err(e) => writeln!(out, "error: {e}").unwrap(),
    }
}

fn nan(bits: u64) -> Option<f64> {
    let f = f64::from_bits(bits);
    assert!(f.is_nan());
    Some(f)
}

/// Every key kind, each with duplicates and a null, beside an Int payload.
fn typed_frame() -> DataFrame {
    let s = |x: &str| Some(x.to_string());
    let l = |xs: &[&str]| Some(xs.iter().map(|x| x.to_string()).collect::<Vec<String>>());
    DataFrame::new(vec![
        Column::new(
            "i",
            ColumnData::Int(vec![
                Some(3),
                None,
                Some(-1),
                Some(3),
                Some(0),
                Some(-1),
                Some(3),
            ]),
        ),
        Column::new(
            "f",
            ColumnData::Float(vec![
                Some(2.5),
                Some(-0.0),
                Some(0.0),
                None,
                Some(2.5),
                nan(0x7ff8_0000_0000_0000),
                Some(0.0),
            ]),
        ),
        Column::new(
            "s",
            ColumnData::Str(vec![s("b"), s(""), None, s("a"), s("b"), s("a"), s("1")]),
        ),
        Column::new(
            "b",
            ColumnData::Bool(vec![
                Some(true),
                Some(false),
                None,
                Some(true),
                Some(true),
                Some(false),
                None,
            ]),
        ),
        Column::new(
            "t",
            ColumnData::DateTime(vec![
                Some(86_400),
                Some(0),
                Some(86_400),
                None,
                Some(-5),
                Some(0),
                Some(86_400),
            ]),
        ),
        Column::new(
            "l",
            ColumnData::StrList(vec![
                l(&["x", "y"]),
                l(&[]),
                None,
                l(&["x", "y"]),
                l(&["y", "x"]),
                l(&[]),
                l(&["x"]),
            ]),
        ),
        Column::from_i64s("v", &[10, 20, 30, 40, 50, 60, 70]),
    ])
    .unwrap()
}

fn all_aggs(column: &str) -> Vec<Aggregation> {
    [
        AggKind::Count,
        AggKind::Sum,
        AggKind::Mean,
        AggKind::Min,
        AggKind::Max,
        AggKind::Std,
        AggKind::Median,
        AggKind::NUnique,
    ]
    .into_iter()
    .map(|k| Aggregation::new(column, k))
    .collect()
}

fn grouping_transcript() -> String {
    let mut out = String::new();

    // NaNs with different payloads (and sign) form one group.
    let nans = DataFrame::new(vec![
        Column::new(
            "k",
            ColumnData::Float(vec![
                nan(0x7ff8_0000_0000_0000),
                Some(1.0),
                nan(0x7ff8_0000_0000_0001),
                nan(0xfff8_0000_0000_0000),
                Some(1.0),
                None,
                nan(0x7ff0_0000_0000_0002),
            ]),
        ),
        Column::from_i64s("v", &[1, 2, 3, 4, 5, 6, 7]),
    ])
    .unwrap();
    render(
        &mut out,
        "nan group_by",
        nans.group_by(&["k"], &all_aggs("v")),
    );
    render(&mut out, "nan value_counts", nans.value_counts("k"));
    writeln!(out, "nan n_unique {}", nans.column("k").unwrap().n_unique()).unwrap();

    // Signed zeros stay apart.
    let zeros = DataFrame::new(vec![
        Column::from_f64s("k", &[0.0, -0.0, 0.0, -0.0, -0.0]),
        Column::from_f64s("v", &[1.0, 2.0, 3.0, 4.0, 5.0]),
    ])
    .unwrap();
    render(
        &mut out,
        "zero group_by",
        zeros.group_by(&["k"], &all_aggs("v")),
    );
    render(&mut out, "zero value_counts", zeros.value_counts("k"));
    writeln!(
        out,
        "zero n_unique {}",
        zeros.column("k").unwrap().n_unique()
    )
    .unwrap();

    // Each key kind on its own, then as aggregation input.
    let df = typed_frame();
    for key in ["i", "f", "s", "b", "t", "l"] {
        render(
            &mut out,
            &format!("{key} group_by"),
            df.group_by(&[key], &all_aggs("v")),
        );
        render(
            &mut out,
            &format!("{key} value_counts"),
            df.value_counts(key),
        );
        writeln!(out, "{key} n_unique {}", df.column(key).unwrap().n_unique()).unwrap();
        render(
            &mut out,
            &format!("{key} as input"),
            df.group_by(&["b"], &all_aggs(key)),
        );
    }

    // Two-column keys, including nulls in both positions.
    render(
        &mut out,
        "s,i group_by",
        df.group_by(&["s", "i"], &all_aggs("v")),
    );
    render(
        &mut out,
        "b,l group_by",
        df.group_by(&["b", "l"], &[Aggregation::new("v", AggKind::Sum)]),
    );
    render(
        &mut out,
        "f,t group_by",
        df.group_by(&["f", "t"], &[Aggregation::new("v", AggKind::Count)]),
    );

    // An empty frame keeps its schema.
    let empty = df.head(0);
    render(
        &mut out,
        "empty group_by",
        empty.group_by(&["s", "i"], &all_aggs("v")),
    );
    render(&mut out, "empty value_counts", empty.value_counts("l"));
    writeln!(
        out,
        "empty n_unique {}",
        empty.column("f").unwrap().n_unique()
    )
    .unwrap();

    // A key column literally named `count`.
    let counted = df.rename("i", "count").unwrap();
    render(
        &mut out,
        "count value_counts",
        counted.value_counts("count"),
    );
    render(
        &mut out,
        "count group_by",
        counted.group_by(&["count"], &[Aggregation::new("v", AggKind::Count)]),
    );
    render(
        &mut out,
        "count group_by sum",
        counted.group_by(&["count"], &[Aggregation::new("v", AggKind::Sum)]),
    );

    // Errors stay errors.
    render(&mut out, "no keys", df.group_by(&[], &all_aggs("v")));
    render(
        &mut out,
        "unknown key",
        df.group_by(&["nope"], &all_aggs("v")),
    );
    render(
        &mut out,
        "unknown input",
        df.group_by(&["s"], &[Aggregation::new("nope", AggKind::Mean)]),
    );
    out
}

fn check_golden(name: &str, actual: &str, expected: &str) {
    if actual != expected {
        let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.actual"));
        std::fs::write(&path, actual).unwrap();
        panic!(
            "{name} diverged from its golden file; actual output written to {}",
            path.display()
        );
    }
}

#[test]
fn grouping_matches_golden() {
    check_golden(
        "grouping.txt",
        &grouping_transcript(),
        include_str!("golden/grouping.txt"),
    );
}

/// A small frame over every dtype, nulls included.
fn serde_frame() -> DataFrame {
    DataFrame::new(vec![
        Column::new("id", ColumnData::Int(vec![Some(1), None, Some(-3)])),
        Column::new(
            "score",
            ColumnData::Float(vec![Some(0.5), Some(-0.0), None]),
        ),
        Column::new(
            "text",
            ColumnData::Str(vec![
                Some("a \"quoted\"\nline".into()),
                None,
                Some("ü".into()),
            ]),
        ),
        Column::new(
            "flag",
            ColumnData::Bool(vec![None, Some(true), Some(false)]),
        ),
        Column::new(
            "at",
            ColumnData::DateTime(vec![Some(1_700_000_000), Some(0), None]),
        ),
        Column::new(
            "topics",
            ColumnData::StrList(vec![
                Some(vec!["bug".into(), "ui".into()]),
                Some(vec![]),
                None,
            ]),
        ),
    ])
    .unwrap()
}

#[test]
fn serialized_frame_matches_golden() {
    let df = serde_frame();
    let json = serde_json::to_string(&df).unwrap();
    check_golden("frame.json", &json, include_str!("golden/frame.json"));
    let back: DataFrame = serde_json::from_str(&json).unwrap();
    assert_eq!(format!("{back:?}"), format!("{df:?}"));
}
