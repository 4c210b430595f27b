//! Columnar dataframe engine for AllHands.
//!
//! The paper's QA agent executes generated Python (pandas) inside a Jupyter
//! kernel. This crate is the Rust substrate that plays pandas' role: a typed
//! columnar table with the relational and analytical kernels the generated
//! analysis code needs — filter, select, group-by/aggregate, sort, join,
//! pivot-style counting, datetime decomposition, string predicates, and
//! basic statistics.
//!
//! Design notes:
//! - Columns are typed vectors with per-cell nullability ([`ColumnData`]),
//!   not `Vec<Value>`: kernels iterate natively-typed slices.
//! - All operations are immutable — they return new frames — matching how
//!   generated analysis code composes steps. Column storage is shared, so
//!   a new frame copies only the columns an operation changes.
//! - Errors are values ([`FrameError`]), never panics, because generated
//!   code must be able to fail gracefully and trigger the agent's
//!   self-reflection loop.
//!
//! # Example
//!
//! ```
//! use allhands_dataframe::{DataFrame, Column, Value};
//!
//! let df = DataFrame::new(vec![
//!     Column::from_strs("product", &["WhatsApp", "Windows", "WhatsApp"]),
//!     Column::from_f64s("sentiment", &[0.8, -0.2, 0.5]),
//! ]).unwrap();
//!
//! let whatsapp = df.filter_eq("product", &Value::str("WhatsApp")).unwrap();
//! assert_eq!(whatsapp.n_rows(), 2);
//! let mean = whatsapp.column("sentiment").unwrap().mean().unwrap();
//! assert!((mean - 0.65).abs() < 1e-9);
//! ```

pub mod column;
pub mod datetime;
pub mod error;
pub mod frame;
pub mod groupby;
pub mod io;
pub mod join;
pub mod stats;
pub mod value;

pub use column::{Column, ColumnData, DType};
pub use datetime::{CivilDateTime, Weekday};
pub use error::FrameError;
pub use frame::DataFrame;
pub use groupby::{AggKind, Aggregation};
pub use join::JoinKind;
pub use stats::{pearson, zscore_anomalies};
pub use value::Value;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, FrameError>;
